/**
 * @file
 * Differential tests of the compiled hardware backend (hwsim/
 * compiled_hw.hpp): the same hardware partition clocked (a) by the
 * reference ClockSim and (b) through the generated `bcl_gen_hw_cycle`
 * entry point must agree bit for bit — cycle counts, per-rule firing
 * counts, and every message that leaves the partition. Unlike the
 * software backends (which only promise identical outputs), the two
 * hardware backends implement the same synchronous semantics, so the
 * contract here is cycle-exact.
 *
 * Also covers the ClockSim::run()/stepCycles() trailing-idle-probe
 * accounting both backends share, and the end-to-end co-simulation
 * equivalence on the full-hardware Vorbis and ray-tracer partitions.
 *
 * Every compiled test auto-skips when no host C++ compiler is
 * available.
 */
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "core/builder.hpp"
#include "core/domains.hpp"
#include "core/elaborate.hpp"
#include "core/parser.hpp"
#include "core/partition.hpp"
#include "core/typecheck.hpp"
#include "hwsim/clocksim.hpp"
#include "hwsim/compiled_hw.hpp"
#include "platform/channel.hpp"
#include "platform/cosim.hpp"
#include "ray/bvh.hpp"
#include "ray/partitions.hpp"
#include "ray/scenegen.hpp"
#include "ray/trace_bcl.hpp"
#include "vorbis/ifft_bcl.hpp"
#include "vorbis/partitions.hpp"

namespace bcl {
namespace {

#define REQUIRE_HOST_COMPILER()                                       \
    do {                                                              \
        if (!CompiledHwPartition::hostCompilerAvailable())            \
            GTEST_SKIP() << "no host C++ compiler on this machine — " \
                            "compiled-hardware tests skipped";        \
    } while (0)

TypePtr w32() { return Type::bits(32); }

/** One guarded rule draining a FIFO: fires once per prefilled entry,
 *  then the guard fails — the smallest program whose quiescence the
 *  accounting tests can see. */
ElabProgram
drainProgram()
{
    ModuleBuilder b("Top");
    b.addFifo("q", w32(), 8);
    b.addRule("drain", callA("q", "deq"));
    Program p = ProgramBuilder().add(b.build()).setRoot("Top").build();
    return elaborate(p);
}

void
prefill(Store &store, const ElabProgram &elab, int n)
{
    for (int i = 0; i < n; i++) {
        store.at(elab.primByPath("q"))
            .queue.push_back(Value::makeInt(32, i));
    }
}

// ---------------------------------------------------------------------------
// The one accounting across run()/stepCycles()/cycle(): free-running
// entry points exclude the trailing idle probe from stats().cycles
// (their *return value* still includes it — the caller consumed that
// virtual time), while a direct cycle() call always counts.
// ---------------------------------------------------------------------------

TEST(ClockSimAccounting, RunExcludesTrailingIdleProbe)
{
    ElabProgram elab = drainProgram();
    Store store(elab);
    prefill(store, elab, 5);
    ClockSim sim(elab, store);

    // 5 busy cycles + 1 idle probe consumed, 5 counted.
    EXPECT_EQ(sim.run(100), 6u);
    EXPECT_EQ(sim.stats().cycles, 5u);
    EXPECT_EQ(sim.stats().busyCycles, 5u);
    EXPECT_EQ(sim.stats().rulesFired, 5u);
    EXPECT_TRUE(sim.idle());

    // Probing an already-quiescent design consumes a cycle but never
    // inflates the count.
    EXPECT_EQ(sim.run(100), 1u);
    EXPECT_EQ(sim.stats().cycles, 5u);

    // A direct cycle() is the caller's own clock edge: it counts.
    EXPECT_EQ(sim.cycle(), 0);
    EXPECT_EQ(sim.stats().cycles, 6u);
}

TEST(ClockSimAccounting, StepCyclesExcludesTrailingIdleProbe)
{
    ElabProgram elab = drainProgram();
    Store store(elab);
    prefill(store, elab, 5);
    ClockSim sim(elab, store);

    std::uint64_t fired = 0;
    // Budget exhausted while busy: every cycle counts.
    EXPECT_EQ(sim.stepCycles(3, fired), 3u);
    EXPECT_EQ(fired, 3u);
    EXPECT_EQ(sim.stats().cycles, 3u);
    EXPECT_FALSE(sim.idle());

    // Quiescence inside the budget: the idle probe is consumed (used
    // = 2 fires + 1 probe) but not counted.
    fired = 0;
    EXPECT_EQ(sim.stepCycles(10, fired), 3u);
    EXPECT_EQ(fired, 2u);
    EXPECT_EQ(sim.stats().cycles, 5u);
    EXPECT_TRUE(sim.idle());
}

TEST(CompiledHwAccounting, MirrorsClockSimTrailingIdleProbe)
{
    REQUIRE_HOST_COMPILER();
    ElabProgram elab = drainProgram();
    CompiledHwPartition hw(elab);
    int q = elab.primByPath("q");
    for (int i = 0; i < 5; i++)
        ASSERT_TRUE(hw.pushPrim(q, Value::makeInt(32, i)));

    EXPECT_EQ(hw.run(100), 6u);
    EXPECT_EQ(hw.stats().cycles, 5u);
    EXPECT_EQ(hw.stats().busyCycles, 5u);
    EXPECT_EQ(hw.stats().rulesFired, 5u);
    EXPECT_TRUE(hw.idle());

    EXPECT_EQ(hw.run(100), 1u);
    EXPECT_EQ(hw.stats().cycles, 5u);
    EXPECT_EQ(hw.cycle(), 0);
    EXPECT_EQ(hw.stats().cycles, 6u);
    ASSERT_EQ(hw.stats().perRuleFires.size(), 1u);
    EXPECT_EQ(hw.stats().perRuleFires[0], 5u);
}

// ---------------------------------------------------------------------------
// Generation-time synthesizability gating: a partition that fails
// validateForHardware ships only stub hw entry points, and
// CompiledHwPartition refuses to wrap it (with the validator's own
// diagnostic, not a raw stub error).
// ---------------------------------------------------------------------------

TEST(CodegenHw, RejectsNonSynthesizablePartition)
{
    REQUIRE_HOST_COMPILER();
    ModuleBuilder b("Top");
    b.addReg("r", w32());
    b.addRule("seqr", seqA({regWrite("r", intE(32, 1)),
                            regWrite("r", intE(32, 2))}));
    Program p = ProgramBuilder().add(b.build()).setRoot("Top").build();
    ElabProgram elab = elaborate(p);

    // The artifact itself compiles fine (the partition still works as
    // software) — only the clock-edge surface is stubbed out.
    CompiledPartition sw(elab);
    EXPECT_FALSE(sw.artifact()->hwValid());
    EXPECT_THROW(CompiledHwPartition{elab}, FatalError);
}

// ---------------------------------------------------------------------------
// Differential drives. Each feeds both backends the identical
// cycle-by-cycle stimulus (fill input fifos to capacity, clock one
// edge, drain outputs) and requires every observable to match.
// ---------------------------------------------------------------------------

/** SW->HW->SW echo pipeline; we clock its HW partition (one rule:
 *  y = 2x + 1 from SyncRx to SyncTx, both capacity 4). */
PartitionResult
echoParts()
{
    ModuleBuilder b("Top");
    b.addFifo("inQ", w32(), 8);
    b.addSync("toHw", w32(), 4, "SW", "HW");
    b.addSync("fromHw", w32(), 4, "HW", "SW");
    b.addAudioDev("out", "SW");
    b.addActionMethod("push", {{"x", w32()}},
                      callA("inQ", "enq", {varE("x")}), "SW");
    b.addRule("feed", parA({callA("toHw", "enq", {callV("inQ", "first")}),
                            callA("inQ", "deq")}));
    ActPtr compute = letA(
        "x", callV("toHw", "first"),
        parA({callA("toHw", "deq"),
              callA("fromHw", "enq",
                    {primE(PrimOp::Add,
                           {primE(PrimOp::Mul, {varE("x"), intE(32, 2)}),
                            intE(32, 1)})})}));
    b.addRule("compute", compute);
    b.addRule("drain", parA({callA("out", "output",
                                   {callV("fromHw", "first")}),
                             callA("fromHw", "deq")}));
    Program p = ProgramBuilder().add(b.build()).setRoot("Top").build();
    ElabProgram elab = elaborate(p);
    DomainAssignment doms = inferDomains(elab);
    return partitionProgram(elab, doms);
}

TEST(CodegenHw, EchoHwPartitionMatchesClockSimCycleExactly)
{
    REQUIRE_HOST_COMPILER();
    PartitionResult parts = echoParts();
    const ElabProgram &hw = parts.part("HW").prog;
    int rx = hw.primByPath("toHw");
    int tx = hw.primByPath("fromHw");
    const int kCap = 4;

    std::vector<std::int64_t> inputs;
    for (int i = 0; i < 40; i++)
        inputs.push_back(i * 5 - 60);

    // Reference: ClockSim over the interpreter.
    Store store(hw);
    ClockSim sim(hw, store);
    std::vector<Value> ref_out;
    size_t fed = 0;
    while (true) {
        ValueQueue &rxq = store.at(rx).queue;
        while (fed < inputs.size() &&
               static_cast<int>(rxq.size()) < kCap) {
            rxq.push_back(Value::makeInt(32, inputs[fed]));
            fed++;
        }
        int f = sim.cycle();
        ValueQueue &txq = store.at(tx).queue;
        while (!txq.empty()) {
            ref_out.push_back(txq.front());
            txq.pop_front();
        }
        if (f == 0 && fed == inputs.size())
            break;
    }

    // Same dance across the ABI; pushPrim rejects exactly where the
    // interpreted queue hits capacity.
    CompiledHwPartition chw(hw);
    std::vector<Value> got_out;
    fed = 0;
    Value v;
    while (true) {
        while (fed < inputs.size() &&
               chw.pushPrim(rx, Value::makeInt(32, inputs[fed])))
            fed++;
        int f = chw.cycle();
        while (chw.popPrim(tx, v))
            got_out.push_back(v);
        if (f == 0 && fed == inputs.size())
            break;
    }

    ASSERT_EQ(got_out.size(), ref_out.size());
    for (size_t i = 0; i < ref_out.size(); i++)
        EXPECT_EQ(got_out[i], ref_out[i]) << "message " << i;
    EXPECT_EQ(chw.stats().cycles, sim.stats().cycles);
    EXPECT_EQ(chw.stats().busyCycles, sim.stats().busyCycles);
    EXPECT_EQ(chw.stats().rulesFired, sim.stats().rulesFired);
    EXPECT_EQ(chw.stats().perRuleFires, sim.stats().perRuleFires);
}

/** The shipped counter.bcl, partitioned. */
PartitionResult
counterParts()
{
    std::ifstream in(std::string(BCL_SRC_DIR) +
                     "/../examples/counter.bcl");
    EXPECT_TRUE(in.good());
    std::string src((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    Program p = parseProgram(src);
    ElabProgram elab = elaborate(p);
    typecheck(elab);
    DomainAssignment doms = inferDomains(elab);
    return partitionProgram(elab, doms);
}

TEST(CodegenHw, CounterHwPartitionMatchesClockSimCycleExactly)
{
    REQUIRE_HOST_COMPILER();
    PartitionResult parts = counterParts();
    const ElabProgram &hw = parts.part("HW").prog;
    int rx = hw.primByPath("toHw");
    const int kCap = 4;
    const int kSamples = 25;

    auto sample = [](int i) {
        return Value::makeStruct(
            {{"left", Value::makeInt(32, i)},
             {"right", Value::makeInt(32, i ^ 99)}});
    };

    Store store(hw);
    ClockSim sim(hw, store);
    int fed = 0;
    while (true) {
        ValueQueue &rxq = store.at(rx).queue;
        while (fed < kSamples && static_cast<int>(rxq.size()) < kCap)
            rxq.push_back(sample(fed++));
        if (sim.cycle() == 0 && fed == kSamples)
            break;
    }

    CompiledHwPartition chw(hw);
    fed = 0;
    while (true) {
        while (fed < kSamples && chw.pushPrim(rx, sample(fed)))
            fed++;
        if (chw.cycle() == 0 && fed == kSamples)
            break;
    }

    EXPECT_EQ(chw.stats().cycles, sim.stats().cycles);
    EXPECT_EQ(chw.stats().rulesFired, sim.stats().rulesFired);
    EXPECT_EQ(chw.stats().busyCycles, sim.stats().busyCycles);
    EXPECT_EQ(chw.stats().perRuleFires, sim.stats().perRuleFires);
}

TEST(CodegenHw, IfftPipeMatchesClockSimCycleExactly)
{
    REQUIRE_HOST_COMPILER();
    Program prog = ProgramBuilder()
                       .add(vorbis::makeIFFTPipeModule())
                       .setRoot("IFFT")
                       .build();
    ElabProgram elab = elaborate(prog);
    int in_q = elab.primByPath("inQ16");
    int out_q = elab.primByPath("outQ16");
    const int kCap = 2;  // inQ16/outQ16 capacity (ifft_bcl.cpp)
    const int frames = 4;
    const std::uint64_t budget = 1u << 20;

    auto frames_in = vorbis::makeFrames(frames);
    auto make_sub = [&](const std::vector<Fix32> &frame, int sub) {
        std::vector<Value> elems;
        for (int i = 0; i < 16; i++) {
            int idx = sub * 16 + i;
            Fix32 re = idx < vorbis::kFrameIn
                           ? frame[static_cast<size_t>(idx)]
                           : Fix32(0);
            elems.push_back(Value::makeStruct(
                {{"re", vorbis::fixValue(re)},
                 {"im", vorbis::fixValue(Fix32(0))}}));
        }
        return Value::makeVec(std::move(elems));
    };

    // Reference run over the interpreter.
    Store store(elab);
    ClockSim sim(elab, store);
    std::vector<Value> ref_out;
    {
        size_t frame_idx = 0;
        int sub_idx = 0;
        std::uint64_t cycles = 0;
        while (ref_out.size() <
                   static_cast<size_t>(frames) * 4 &&
               cycles < budget) {
            ValueQueue &in = store.at(in_q).queue;
            while (frame_idx < frames_in.size() &&
                   static_cast<int>(in.size()) < kCap) {
                in.push_back(
                    make_sub(frames_in[frame_idx], sub_idx));
                if (++sub_idx == 4) {
                    sub_idx = 0;
                    frame_idx++;
                }
            }
            sim.cycle();
            cycles++;
            ValueQueue &out = store.at(out_q).queue;
            while (!out.empty()) {
                ref_out.push_back(out.front());
                out.pop_front();
            }
        }
        ASSERT_EQ(ref_out.size(), static_cast<size_t>(frames) * 4)
            << "reference run did not converge";
    }

    // Compiled run with the identical host-side feed/drain loop.
    CompiledHwPartition chw(elab);
    std::vector<Value> got_out;
    {
        size_t frame_idx = 0;
        int sub_idx = 0;
        std::uint64_t cycles = 0;
        Value v;
        while (got_out.size() <
                   static_cast<size_t>(frames) * 4 &&
               cycles < budget) {
            while (frame_idx < frames_in.size() &&
                   chw.pushPrim(in_q, make_sub(frames_in[frame_idx],
                                               sub_idx))) {
                if (++sub_idx == 4) {
                    sub_idx = 0;
                    frame_idx++;
                }
            }
            chw.cycle();
            cycles++;
            while (chw.popPrim(out_q, v))
                got_out.push_back(v);
        }
    }

    ASSERT_EQ(got_out.size(), ref_out.size());
    for (size_t i = 0; i < ref_out.size(); i++)
        EXPECT_EQ(got_out[i], ref_out[i]) << "sub-block " << i;
    EXPECT_EQ(chw.stats().cycles, sim.stats().cycles);
    EXPECT_EQ(chw.stats().rulesFired, sim.stats().rulesFired);
    EXPECT_EQ(chw.stats().perRuleFires, sim.stats().perRuleFires);
}

// ---------------------------------------------------------------------------
// End to end through the co-simulation: the full-hardware Vorbis (E)
// and ray-tracer (C) partitions under cfg.hwBackend = Compiled must
// reproduce the interpreted run exactly — PCM / pixels, per-domain
// firing counts, message counts AND virtual-time cycle counts (the
// sequential engine's sync-occupancy projection makes the compiled
// fifo guards see what the interpreted single queue would).
// ---------------------------------------------------------------------------

TEST(CodegenHw, VorbisFullHwCosimMatchesInterpreted)
{
    REQUIRE_HOST_COMPILER();
    const int frames = 2;
    vorbis::VorbisConfig vcfg =
        vorbis::partitionConfig(vorbis::VorbisPartition::E);
    vorbis::VorbisRunResult ref =
        vorbis::runVorbisConfig(vcfg, frames);
    ASSERT_FALSE(ref.pcm.empty());

    CosimConfig cfg;
    cfg.hwBackend = HwBackend::Compiled;
    vorbis::VorbisRunResult got =
        vorbis::runVorbisConfig(vcfg, frames, &cfg);

    EXPECT_EQ(got.pcm, ref.pcm);
    EXPECT_EQ(got.hwRuleFires, ref.hwRuleFires);
    EXPECT_EQ(got.swRulesFired, ref.swRulesFired);
    EXPECT_EQ(got.fpgaCycles, ref.fpgaCycles);
    EXPECT_EQ(got.messages, ref.messages);
}

TEST(CodegenHw, RayFullHwCosimMatchesInterpreted)
{
    REQUIRE_HOST_COMPILER();
    const int w = 6, h = 6, prims = 32;
    ray::RayConfig rcfg =
        ray::rayPartitionConfig(ray::RayPartition::C, w, h);
    ray::RayRunResult ref = ray::runRayConfig(rcfg, prims);
    ASSERT_EQ(ref.pixels.size(), static_cast<size_t>(w) * h);

    CosimConfig cfg;
    cfg.hwBackend = HwBackend::Compiled;
    ray::RayRunResult got = ray::runRayConfig(rcfg, prims, &cfg);

    EXPECT_EQ(got.pixels, ref.pixels);
    EXPECT_EQ(got.hwRuleFires, ref.hwRuleFires);
    EXPECT_EQ(got.fpgaCycles, ref.fpgaCycles);
    EXPECT_EQ(got.messages, ref.messages);
}

/** The ray split partitioning (SW + HWT/HWX/HWG), @p w x @p h over
 *  a @p prims-sphere scene, ready for CoSim. */
PartitionResult
raySplitParts(int w, int h, int prims, int sync_depth = 4)
{
    ray::RayConfig rcfg = ray::splitRayConfig(w, h);
    rcfg.syncDepth = sync_depth;
    std::vector<ray::Sphere> scene = ray::makeScene(prims);
    Program prog = ray::makeRayProgram(rcfg, scene, ray::buildBvh(scene),
                                       ray::makeCamera());
    ElabProgram elab = elaborate(prog);
    return partitionProgram(elab, inferDomains(elab));
}

/** What a ray split run observably did, per hardware domain in
 *  HWT/HWX/HWG order. */
struct SplitRun
{
    std::vector<std::uint32_t> pixels;
    std::uint64_t cycles = 0, messages = 0;
    std::vector<std::vector<std::uint64_t>> perRule;
    std::vector<std::uint64_t> hwCycles, hwFired;
    /** Messages each compiled domain marshaled across the ABI, and
     *  the channel messages it received plus those it sent. */
    std::vector<std::uint64_t> marshaled, channelMessages;
};

SplitRun
runSplit(const PartitionResult &parts, std::uint64_t npix,
         const CosimConfig &cfg)
{
    SplitRun r;
    CoSim cosim(parts, cfg);
    const ElabProgram &sw = parts.part("SW").prog;
    const int done = sw.primByPath("doneCnt");
    const int fb = sw.primByPath("fb");
    r.cycles = cosim.run([&](CoSim &cs) {
        return cs.storeOf("SW").at(done).val.asUInt() == npix;
    });
    for (const Value &px : cosim.storeOf("SW").at(fb).val.elems())
        r.pixels.push_back(static_cast<std::uint32_t>(px.asUInt()));
    for (const auto &chan : cosim.channels())
        r.messages += chan->stats().messages;
    for (const char *d : {"HWT", "HWX", "HWG"}) {
        const HwStats *st = cosim.hwStats(d);
        EXPECT_NE(st, nullptr) << d;
        if (!st)
            continue;
        r.perRule.push_back(st->perRuleFires);
        r.hwCycles.push_back(st->cycles);
        r.hwFired.push_back(st->rulesFired);
        std::uint64_t crossing = 0;
        for (const auto &chan : cosim.channels()) {
            if (chan->spec().fromDomain == d || chan->spec().toDomain == d)
                crossing += chan->stats().messages;
        }
        r.channelMessages.push_back(crossing);
        const CompiledPartition *cp = cosim.compiled(d);
        r.marshaled.push_back(cp ? cp->messagesMarshaled() : 0);
    }
    return r;
}

/**
 * The ray split partitioning with every hardware domain on the
 * compiled clock edge, its artifacts compiled once as one
 * translation unit each and once with every generated unit in its
 * own shard: pixels, cycles, messages and every domain's per-rule
 * fire counts must be identical.
 */
TEST(CodegenHw, RaySplitShardedMatchesSingleUnit)
{
    REQUIRE_HOST_COMPILER();
    namespace fs = std::filesystem;
    const int w = 6, h = 6, prims = 32;
    const PartitionResult parts = raySplitParts(w, h, prims);
    const fs::path dir = fs::temp_directory_path() /
                         ("bcl_shard_hw_" + std::to_string(::getpid()));
    fs::create_directories(dir);

    auto run = [&](bool per_unit, int &jobs) {
        int n = 0;
        CosimConfig cfg;
        cfg.hwBackend = HwBackend::Compiled;
        cfg.compileProvider = [&](const ElabProgram &p,
                                  const GenccOptions &o) {
            CppUnits units = generateCppUnits(p, "BclGenPartition", o.mode);
            std::vector<std::vector<size_t>> plan(1);
            for (size_t i = 0; i < units.units.size(); i++) {
                if (per_unit)
                    plan.push_back({i});
                else
                    plan[0].push_back(i);
            }
            if (per_unit)
                plan.erase(plan.begin());
            jobs += static_cast<int>(plan.size());
            const std::string stem =
                (dir / ((per_unit ? "unit" : "one") + std::to_string(n++)))
                    .string();
            compileSharedObject(units, plan, stem, "", o.extraFlags);
            GenccOptions reuse = o;
            reuse.reuseSoPath = stem + ".so";
            return std::make_shared<const CompiledArtifact>(p, reuse);
        };
        return runSplit(parts, static_cast<std::uint64_t>(w * h), cfg);
    };
    int oneJobs = 0, shardedJobs = 0;
    const SplitRun one = run(false, oneJobs);
    const SplitRun sharded = run(true, shardedJobs);
    fs::remove_all(dir);

    EXPECT_EQ(oneJobs, 3);
    EXPECT_GT(shardedJobs, 3) << "every domain split into its units";
    ASSERT_EQ(one.pixels.size(), static_cast<size_t>(w * h));
    EXPECT_EQ(sharded.pixels, one.pixels);
    EXPECT_EQ(sharded.cycles, one.cycles);
    EXPECT_EQ(sharded.messages, one.messages);
    EXPECT_EQ(sharded.perRule, one.perRule);
    EXPECT_EQ(sharded.hwCycles, one.hwCycles);
    EXPECT_EQ(sharded.hwFired, one.hwFired);
}

/**
 * Capacity-1 synchronizers make the compiled domains' reserved
 * SyncTx slots and full SyncRx fifos bind on almost every edge. The
 * compiled ray split must still match the interpreted one: pixels,
 * cycles, messages and per-domain fires and cycles.
 */
TEST(CodegenHw, RaySplitCapacityOneMatchesInterpreted)
{
    REQUIRE_HOST_COMPILER();
    const int w = 6, h = 6, prims = 32;
    const PartitionResult parts = raySplitParts(w, h, prims, 1);
    const std::uint64_t npix = static_cast<std::uint64_t>(w * h);
    const SplitRun ref = runSplit(parts, npix, CosimConfig{});
    ASSERT_EQ(ref.pixels.size(), npix);

    CosimConfig cfg;
    cfg.hwBackend = HwBackend::Compiled;
    const SplitRun got = runSplit(parts, npix, cfg);
    EXPECT_EQ(got.pixels, ref.pixels);
    EXPECT_EQ(got.hwFired, ref.hwFired);
    EXPECT_EQ(got.cycles, ref.cycles);
    EXPECT_EQ(got.messages, ref.messages);
    EXPECT_EQ(got.hwCycles, ref.hwCycles);
}

/**
 * The ray split's engines answer one request at a time, so a compiled
 * producer there never meets an undelivered backlog. The Vorbis
 * per-stage split streams sub-blocks between hardware domains, and at
 * depth 1 the compiled producers' reserved SyncTx slots bind: PCM,
 * cycles, messages and fires must still match the interpreter.
 */
TEST(CodegenHw, VorbisSplitCapacityOneMatchesInterpreted)
{
    REQUIRE_HOST_COMPILER();
    const int frames = 2;
    vorbis::VorbisConfig vcfg = vorbis::splitVorbisConfig();
    vcfg.syncDepth = 1;
    const vorbis::VorbisRunResult ref =
        vorbis::runVorbisConfig(vcfg, frames);
    ASSERT_FALSE(ref.pcm.empty());

    CosimConfig cfg;
    cfg.hwBackend = HwBackend::Compiled;
    const vorbis::VorbisRunResult got =
        vorbis::runVorbisConfig(vcfg, frames, &cfg);
    EXPECT_EQ(got.pcm, ref.pcm);
    EXPECT_EQ(got.hwRuleFires, ref.hwRuleFires);
    EXPECT_EQ(got.fpgaCycles, ref.fpgaCycles);
    EXPECT_EQ(got.messages, ref.messages);
}

/**
 * The mirror sync moves each channel message across the generated
 * ABI exactly once: every compiled domain's marshal count equals the
 * channel messages it received plus those it sent. A sync that
 * re-fed queued messages or prefilled placeholders on every edge
 * would marshal many times more.
 */
TEST(CodegenHw, RaySplitMarshalsEachMessageOnce)
{
    REQUIRE_HOST_COMPILER();
    const int w = 6, h = 6, prims = 32;
    const PartitionResult parts = raySplitParts(w, h, prims);
    CosimConfig cfg;
    cfg.hwBackend = HwBackend::Compiled;
    const SplitRun r =
        runSplit(parts, static_cast<std::uint64_t>(w * h), cfg);
    ASSERT_EQ(r.marshaled.size(), 3u);
    for (size_t i = 0; i < r.marshaled.size(); i++) {
        SCOPED_TRACE("domain " + std::to_string(i));
        EXPECT_GT(r.channelMessages[i], 0u);
        EXPECT_EQ(r.marshaled[i], r.channelMessages[i]);
    }
}

} // namespace
} // namespace bcl
