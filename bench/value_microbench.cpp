/**
 * @file
 * Microbenchmarks isolating the runtime data-layout costs the PR-3
 * hot-path overhaul targets, away from workload noise:
 *
 *   - Value snapshot / functional update (copy-on-write aggregates),
 *   - struct construction + field access (interned shapes/FieldIds),
 *   - marshal round trip (word-wise BitSink/BitCursor packing),
 *   - Env lookup depth (slot-resolved variables: lookup cost must be
 *     flat in binder depth, not linear),
 *   - the BRAM-write transaction path (shadow copy + withElem),
 *   - the guard-failure path: one failed fireRule whose failing guard
 *     (a full FIFO's enq) sits below 1, 16 or 128 nested let-binders;
 *     each depth is its own entry (BM_GuardFailFireRule/let_depth:N)
 *     in the --benchmark_out JSON, with time per iteration = ns per
 *     evaluated failed attempt; BM_GuardFailFireRule/memo_hit/
 *     let_depth:128 times the same failure replayed from the memo.
 *
 * Wall clock is the figure of merit here; modeled work units are
 * covered by tests/test_work_accounting.cpp instead.
 */
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>

#include "core/builder.hpp"
#include "core/elaborate.hpp"
#include "platform/marshal.hpp"
#include "runtime/interp.hpp"
#include "runtime/store.hpp"

using namespace bcl;

namespace {

TypePtr
complexT()
{
    return Type::record("Complex", {{"re", Type::bits(32)},
                                    {"im", Type::bits(32)}});
}

Value
complexV(int re, int im)
{
    return Value::makeStruct({{"re", Value::makeInt(32, re)},
                              {"im", Value::makeInt(32, im)}});
}

Value
makeFrame(int n)
{
    std::vector<Value> elems;
    elems.reserve(n);
    for (int i = 0; i < n; i++)
        elems.push_back(complexV(i, -i));
    return Value::makeVec(std::move(elems));
}

void
BM_ValueSnapshot(benchmark::State &state)
{
    Value frame = makeFrame(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        Value snapshot = frame;  // the PrimState-copy analog
        benchmark::DoNotOptimize(snapshot);
    }
}

void
BM_ValueWithElemCow(benchmark::State &state)
{
    // Each update clones the (shared) payload once: the first-write
    // cost of a shadowed BRAM.
    Value frame = makeFrame(static_cast<int>(state.range(0)));
    int i = 0;
    for (auto _ : state) {
        i++;
        Value updated =
            frame.withElem(static_cast<size_t>(i % state.range(0)),
                           complexV(i, i));
        benchmark::DoNotOptimize(updated);
    }
}

void
BM_ValueWithElemInPlace(benchmark::State &state)
{
    // Uniquely-owned chain: every update after the first hits the
    // in-place path.
    Value frame = makeFrame(static_cast<int>(state.range(0)));
    int i = 0;
    for (auto _ : state) {
        i++;
        frame = std::move(frame).withElem(
            static_cast<size_t>(i % state.range(0)),
            complexV(i, i));
        benchmark::DoNotOptimize(frame);
    }
}

void
BM_StructMakeAndField(benchmark::State &state)
{
    FieldId im = internFieldName("im");
    for (auto _ : state) {
        Value s = complexV(1, 2);
        benchmark::DoNotOptimize(s.tryFieldById(im)->asInt());
    }
}

void
BM_MarshalRoundTrip(benchmark::State &state)
{
    TypePtr t = Type::vec(static_cast<int>(state.range(0)),
                          complexT());
    Value v = makeFrame(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        std::vector<std::uint32_t> words = marshalValue(v);
        Value u = demarshalValue(t, words);
        benchmark::DoNotOptimize(u);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        (t->flatWidth() / 8));
}

/** A rule reading a variable bound under @p depth let-binders. */
Program
makeDeepLetProgram(int depth)
{
    ModuleBuilder b("Top");
    b.addReg("r", Type::bits(32));
    ExprPtr body = varE("x0");
    for (int i = depth - 1; i >= 0; i--) {
        body = letE(std::string("x").append(std::to_string(i)),
                    intE(32, i), body);
    }
    b.addRule("deep", regWrite("r", body));
    return ProgramBuilder().add(b.build()).setRoot("Top").build();
}

void
BM_EnvLookupDepth(benchmark::State &state)
{
    Program prog = makeDeepLetProgram(static_cast<int>(state.range(0)));
    ElabProgram elab = elaborate(prog);
    Store store(elab);
    Interp interp(elab, store);
    int rule = elab.ruleByName("deep");
    for (auto _ : state)
        benchmark::DoNotOptimize(interp.fireRule(rule));
    state.counters["work/fire"] =
        static_cast<double>(interp.stats().work) /
        static_cast<double>(interp.stats().rulesAttempted);
}

/** The BRAM shadow-write transaction the Vorbis FSMs hammer. */
void
BM_BramWriteTxn(benchmark::State &state)
{
    ModuleBuilder b("Top");
    b.addReg("i", Type::bits(32));
    b.addBram("mem", complexT(), static_cast<int>(state.range(0)));
    b.addRule(
        "wr",
        seqA({callA("mem", "write",
                    {primE(PrimOp::And,
                           {regRead("i"),
                            intE(32, state.range(0) - 1)}),
                     primE(PrimOp::MakeStruct,
                           {regRead("i"), regRead("i")}, 0,
                           "re,im")}),
              regWrite("i", primE(PrimOp::Add,
                                  {regRead("i"), intE(32, 1)}))}));
    Program prog = ProgramBuilder().add(b.build()).setRoot("Top").build();
    ElabProgram elab = elaborate(prog);
    Store store(elab);
    Interp interp(elab, store);
    int rule = elab.ruleByName("wr");
    for (auto _ : state)
        benchmark::DoNotOptimize(interp.fireRule(rule));
    state.counters["shadows/fire"] =
        static_cast<double>(interp.stats().shadowCopies) /
        static_cast<double>(interp.stats().rulesAttempted);
}

/**
 * A failed rule attempt: enq into a full FIFO below `let_depth` lets.
 * With @p replay false, every iteration first takes q writable (a
 * mutable Store::at is a write), so the attempt is evaluated; with
 * @p replay true, q is left alone and every attempt after the first
 * is answered from the interpreter's failure memo.
 */
void
guardFailFireRule(benchmark::State &state, bool replay)
{
    const int depth = static_cast<int>(state.range(0));
    ModuleBuilder b("Top");
    b.addFifo("q", Type::bits(32), 1);
    b.addRule("fill", callA("q", "enq", {intE(32, 0)}));
    auto var = [](int i) {
        std::string name = "x";
        name += std::to_string(i);
        return name;
    };
    ActPtr body = callA("q", "enq", {varE(var(depth - 1))});
    for (int i = depth - 1; i >= 0; i--)
        body = letA(var(i), intE(32, i), body);
    b.addRule("deep", body);
    Program prog = ProgramBuilder().add(b.build()).setRoot("Top").build();
    ElabProgram elab = elaborate(prog);
    Store store(elab);
    Interp interp(elab, store);
    if (!interp.fireRule(elab.ruleByName("fill"))) {
        state.SkipWithError("could not fill the FIFO");
        return;
    }
    const int rule = elab.ruleByName("deep");
    const int q = elab.primByPath("q");
    interp.stats().clear();
    const std::uint64_t replayed0 = interp.replayedAttempts();
    for (auto _ : state) {
        if (!replay)
            benchmark::DoNotOptimize(&store.at(q));
        benchmark::DoNotOptimize(interp.fireRule(rule));
    }
    if (interp.stats().guardFails != interp.stats().rulesAttempted)
        state.SkipWithError("an attempt did not fail");
    const std::uint64_t replayed = interp.replayedAttempts() - replayed0;
    if (replay ? replayed + 1 < interp.stats().rulesAttempted
               : replayed != 0)
        state.SkipWithError(replay ? "an attempt was evaluated"
                                   : "an attempt was replayed");
}

void
BM_GuardFailFireRule(benchmark::State &state)
{
    guardFailFireRule(state, false);
}

void
BM_GuardFailMemoHit(benchmark::State &state)
{
    guardFailFireRule(state, true);
}

} // namespace

BENCHMARK(BM_ValueSnapshot)->Arg(64)->Arg(1024);
BENCHMARK(BM_ValueWithElemCow)->Arg(64)->Arg(1024);
BENCHMARK(BM_ValueWithElemInPlace)->Arg(64)->Arg(1024);
BENCHMARK(BM_StructMakeAndField);
BENCHMARK(BM_MarshalRoundTrip)->Arg(64)->Arg(1024);
BENCHMARK(BM_EnvLookupDepth)->Arg(4)->Arg(64);
BENCHMARK(BM_BramWriteTxn)->Arg(64)->Arg(1024);
BENCHMARK(BM_GuardFailFireRule)
    ->ArgName("let_depth")
    ->Arg(1)
    ->Arg(16)
    ->Arg(128);
BENCHMARK(BM_GuardFailMemoHit)
    ->Name("BM_GuardFailFireRule/memo_hit")
    ->ArgName("let_depth")
    ->Arg(128);

BENCHMARK_MAIN();
