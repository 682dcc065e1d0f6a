/**
 * @file
 * Operational-semantics tests for the kernel interpreter (section 5 of
 * the paper): parallel vs sequential composition, when-guards,
 * localGuard, loops, DOUBLE WRITE ERROR detection, rollback on guard
 * failure, FIFO/Reg primitive behaviors under transactions.
 */
#include <gtest/gtest.h>

#include "common/logging.hpp"
#include "core/builder.hpp"
#include "core/elaborate.hpp"
#include "runtime/interp.hpp"
#include "runtime/primitives.hpp"
#include "runtime/store.hpp"

namespace bcl {
namespace {

/** Harness: elaborate a single-module program and run rules by name. */
class Harness
{
  public:
    explicit Harness(ModuleDef m)
        : Harness(ProgramBuilder().add(std::move(m)).setRoot("Top").build())
    {
    }

    explicit Harness(Program p) : prog(std::move(p))
    {
        elab = elaborate(prog);
        store = std::make_unique<Store>(elab);
        interp = std::make_unique<Interp>(elab, *store);
    }

    bool
    fire(const std::string &rule)
    {
        int id = elab.ruleByName(rule);
        if (id < 0)
            panic("no rule " + rule);
        return interp->fireRule(id);
    }

    std::int64_t
    regInt(const std::string &path)
    {
        return store->at(elab.primByPath(path)).val.asInt();
    }

    size_t
    fifoDepth(const std::string &path)
    {
        return store->at(elab.primByPath(path)).queue.size();
    }

    Program prog;
    ElabProgram elab;
    std::unique_ptr<Store> store;
    std::unique_ptr<Interp> interp;
};

TypePtr w32() { return Type::bits(32); }

TEST(Interp, RegisterWriteCommits)
{
    ModuleBuilder b("Top");
    b.addReg("r", w32());
    b.addRule("set", regWrite("r", intE(32, 42)));
    Harness h(b.build());
    EXPECT_TRUE(h.fire("set"));
    EXPECT_EQ(h.regInt("r"), 42);
}

TEST(Interp, ParallelSwapExchangesRegisters)
{
    // "a := b | b := a" swaps: both branches observe the pre-state.
    ModuleBuilder b("Top");
    b.addReg("a", w32(), Value::makeInt(32, 1));
    b.addReg("b", w32(), Value::makeInt(32, 2));
    b.addRule("swap", parA({regWrite("a", regRead("b")),
                            regWrite("b", regRead("a"))}));
    Harness h(b.build());
    EXPECT_TRUE(h.fire("swap"));
    EXPECT_EQ(h.regInt("a"), 2);
    EXPECT_EQ(h.regInt("b"), 1);
}

TEST(Interp, SequentialCompositionObservesEarlierWrites)
{
    // a := b ; b := a  -- the second action sees a's new value.
    ModuleBuilder b("Top");
    b.addReg("a", w32(), Value::makeInt(32, 1));
    b.addReg("b", w32(), Value::makeInt(32, 2));
    b.addRule("seq", seqA({regWrite("a", regRead("b")),
                           regWrite("b", regRead("a"))}));
    Harness h(b.build());
    EXPECT_TRUE(h.fire("seq"));
    EXPECT_EQ(h.regInt("a"), 2);
    EXPECT_EQ(h.regInt("b"), 2);
}

TEST(Interp, ParallelDoubleWriteIsError)
{
    ModuleBuilder b("Top");
    b.addReg("r", w32());
    b.addRule("dw", parA({regWrite("r", intE(32, 1)),
                          regWrite("r", intE(32, 2))}));
    Harness h(b.build());
    EXPECT_THROW(h.fire("dw"), DoubleWriteError);
    // The committed state is untouched.
    EXPECT_EQ(h.regInt("r"), 0);
}

TEST(Interp, PaperParallelDeqExampleConflictsDynamically)
{
    // (if c1 then a := f.first | f.deq) | (if c2 then b := f.first |
    // f.deq): when both conditions hold, both branches deq the same
    // FIFO -> DOUBLE WRITE ERROR (section 6.1 example).
    ModuleBuilder b("Top");
    b.addReg("a", w32());
    b.addReg("bb", w32());
    b.addReg("c1", Type::boolean(), Value::makeBool(true));
    b.addReg("c2", Type::boolean(), Value::makeBool(true));
    b.addFifo("f", w32(), 2);
    b.addRule("fill", callA("f", "enq", {intE(32, 7)}));
    ActPtr br1 = ifA(regRead("c1"), parA({regWrite("a", callV("f", "first")),
                                          callA("f", "deq")}));
    ActPtr br2 = ifA(regRead("c2"), parA({regWrite("bb", callV("f", "first")),
                                          callA("f", "deq")}));
    b.addRule("race", parA({br1, br2}));
    Harness h(b.build());
    EXPECT_TRUE(h.fire("fill"));
    EXPECT_THROW(h.fire("race"), DoubleWriteError);

    // With c2 false the same rule is legal.
    h.store->at(h.elab.primByPath("c2")).val = Value::makeBool(false);
    EXPECT_TRUE(h.fire("race"));
    EXPECT_EQ(h.regInt("a"), 7);
    EXPECT_EQ(h.fifoDepth("f"), 0u);
}

TEST(Interp, WhenGuardFalseRollsBackWholeRule)
{
    // r := 1 ; (noAction when false) -- the write must not survive.
    ModuleBuilder b("Top");
    b.addReg("r", w32());
    b.addRule("guarded", seqA({regWrite("r", intE(32, 1)),
                               whenA(noOpA(), boolE(false))}));
    Harness h(b.build());
    EXPECT_FALSE(h.fire("guarded"));
    EXPECT_EQ(h.regInt("r"), 0);
    EXPECT_EQ(h.interp->stats().guardFails, 1u);
    EXPECT_GT(h.interp->stats().wastedWork, 0u);
}

TEST(Interp, GuardInOneParallelBranchInvalidatesAll)
{
    // Axioms A.1/A.2: a guard failure in either branch of a parallel
    // composition invalidates the composed action.
    ModuleBuilder b("Top");
    b.addReg("r", w32());
    b.addReg("s", w32());
    b.addRule("par", parA({regWrite("r", intE(32, 5)),
                           whenA(regWrite("s", intE(32, 6)),
                                 boolE(false))}));
    Harness h(b.build());
    EXPECT_FALSE(h.fire("par"));
    EXPECT_EQ(h.regInt("r"), 0);
    EXPECT_EQ(h.regInt("s"), 0);
}

TEST(Interp, LocalGuardConvertsFailureToNoAction)
{
    ModuleBuilder b("Top");
    b.addReg("r", w32());
    b.addReg("s", w32());
    b.addRule("lg",
              seqA({regWrite("r", intE(32, 1)),
                    localGuardA(seqA({regWrite("s", intE(32, 2)),
                                      whenA(noOpA(), boolE(false))})),
                    regWrite("r", primE(PrimOp::Add,
                                        {regRead("r"), intE(32, 10)}))}));
    Harness h(b.build());
    EXPECT_TRUE(h.fire("lg"));
    // r survived both writes, s's write inside localGuard was dropped.
    EXPECT_EQ(h.regInt("r"), 11);
    EXPECT_EQ(h.regInt("s"), 0);
}

TEST(Interp, LocalGuardFailureInsideLetKeepsLaterBindingsAligned)
{
    // A let whose body fails must still pop its slot on the way out,
    // or every binding after the absorbing LocalGuard reads the wrong
    // slot (regression test for the slot-resolved Env).
    ModuleBuilder b("Top");
    b.addReg("r", w32());
    b.addFifo("q", w32(), 1);
    b.addRule("fill", callA("q", "enq", {intE(32, 1)}));
    ActPtr failing_let =
        letA("t", intE(32, 111),
             callA("q", "enq", {varE("t")}));  // q full: guard fails
    ActPtr use_after =
        letA("u", intE(32, 7), regWrite("r", varE("u")));
    b.addRule("lg", seqA({localGuardA(failing_let), use_after}));
    Harness h(b.build());
    EXPECT_TRUE(h.fire("fill"));  // q now full
    EXPECT_TRUE(h.fire("lg"));
    EXPECT_EQ(h.regInt("r"), 7);  // not the stale 111
    EXPECT_EQ(h.fifoDepth("q"), 1u);
}

// Guard-failure parity. A failed attempt must leave the store exactly
// as it was, return every Let slot it pushed, and charge the work of
// the nodes evaluated up to (and including) the failing one -- nothing
// after it. Expected charges are hand-computed from the default
// CostModel: perNode 1, perPrimCall 2, perCommitEntry 2, perRollback 4;
// 32-bit values move for free. So a constant or variable costs 1, a
// one-argument primitive write 1 + 1 + 2 = 4, a let 1 + bound + body.

/** Snapshot of every primitive's committed state. */
std::vector<PrimState>
snapshot(const Store &store)
{
    std::vector<PrimState> out;
    for (size_t i = 0; i < store.size(); i++)
        out.push_back(store.at(static_cast<int>(i)));
    return out;
}

/**
 * Fire @p rule expecting a guard failure after @p local_work units;
 * checks the store is untouched and the failure accounting.
 */
void
expectGuardFailure(Harness &h, const std::string &rule,
                   std::uint64_t local_work)
{
    std::vector<PrimState> before = snapshot(*h.store);
    ExecStats s0 = h.interp->stats();
    EXPECT_FALSE(h.fire(rule));
    const ExecStats &s1 = h.interp->stats();
    EXPECT_EQ(snapshot(*h.store), before);
    EXPECT_EQ(s1.work - s0.work, local_work + 4);  // + perRollback
    EXPECT_EQ(s1.wastedWork - s0.wastedWork, local_work);
    EXPECT_EQ(s1.guardFails - s0.guardFails, 1u);
    EXPECT_EQ(s1.rulesAttempted - s0.rulesAttempted, 1u);
    EXPECT_EQ(s1.rulesFired, s0.rulesFired);
}

/** Fire @p rule expecting a commit charging @p work units in all. */
void
expectFiresCharging(Harness &h, const std::string &rule,
                    std::uint64_t work)
{
    ExecStats s0 = h.interp->stats();
    EXPECT_TRUE(h.fire(rule));
    const ExecStats &s1 = h.interp->stats();
    EXPECT_EQ(s1.work - s0.work, work);
    EXPECT_EQ(s1.wastedWork, s0.wastedWork);
    EXPECT_EQ(s1.guardFails, s0.guardFails);
    EXPECT_EQ(s1.rulesFired - s0.rulesFired, 1u);
}

/** "u := 7; r := u": reads slot 0 only if earlier Lets were popped. */
ActPtr
useAfter()
{
    return letA("u", intE(32, 7), regWrite("r", varE("u")));
}

TEST(InterpGuardFail, InnermostFailureBelow128NestedLets)
{
    ModuleBuilder b("Top");
    b.addReg("r", w32());
    b.addFifo("q", w32(), 1);
    b.addRule("fill", callA("q", "enq", {intE(32, 1)}));
    auto deep = [] {
        ActPtr body = callA("q", "enq", {varE("x127")});
        for (int i = 127; i >= 0; i--) {
            // Built with += : GCC 12 -O2 reports a false -Wrestrict on
            // "x" + std::to_string(i).
            std::string name = "x";
            name += std::to_string(i);
            body = letA(name, intE(32, 1000 + i), std::move(body));
        }
        return body;
    };
    b.addRule("deep", deep());
    b.addRule("deepLG", seqA({localGuardA(deep()), useAfter()}));
    Harness h(b.build());
    EXPECT_TRUE(h.fire("fill"));  // q now full: the innermost enq fails

    // 128 lets x (let + const) + enq (node + var + prim call).
    expectGuardFailure(h, "deep", 128 * 2 + 4);
    // seq + localGuard + the failed chain + rollback + useAfter (6),
    // then one committed write.
    expectFiresCharging(h, "deepLG", 1 + 1 + 260 + 4 + 6 + 2);
    EXPECT_EQ(h.regInt("r"), 7);  // not a stale x0..x127
    EXPECT_EQ(h.fifoDepth("q"), 1u);
}

TEST(InterpGuardFail, SecondParBranchFailsAfterFirstWrote)
{
    ModuleBuilder b("Top");
    b.addReg("r", w32());
    b.addReg("s", w32());
    b.addFifo("q", w32(), 1);
    b.addRule("fill", callA("q", "enq", {intE(32, 1)}));
    auto par = [] {
        return parA(
            {letA("a", intE(32, 5), regWrite("s", varE("a"))),
             letA("t", intE(32, 6),
                  seqA({regWrite("r", varE("t")),
                        callA("q", "enq", {varE("t")})}))});
    };
    b.addRule("par", par());
    b.addRule("parLG", seqA({localGuardA(par()), useAfter()}));
    Harness h(b.build());
    EXPECT_TRUE(h.fire("fill"));

    // par + branch 1 (let 1 + const 1 + write 4) + branch 2 (let 1 +
    // const 1 + seq 1 + write 4 + failing enq 4).
    expectGuardFailure(h, "par", 1 + 6 + 11);
    expectFiresCharging(h, "parLG", 1 + 1 + 18 + 4 + 6 + 2);
    EXPECT_EQ(h.regInt("r"), 7);
    EXPECT_EQ(h.regInt("s"), 0);  // the first branch's write is gone
    EXPECT_EQ(h.fifoDepth("q"), 1u);
}

TEST(InterpGuardFail, LocalGuardInParBranchKeepsSiblingWrites)
{
    ModuleBuilder b("Top");
    b.addReg("r", w32());
    b.addReg("s", w32());
    b.addReg("w", w32());
    b.addFifo("q", w32(), 1);
    b.addRule("fill", callA("q", "enq", {intE(32, 1)}));
    b.addRule(
        "lgpar",
        seqA({parA({regWrite("w", intE(32, 5)),
                    localGuardA(letA(
                        "t", intE(32, 6),
                        seqA({regWrite("s", varE("t")),
                              callA("q", "enq", {varE("t")})})))}),
              useAfter()}));
    Harness h(b.build());
    EXPECT_TRUE(h.fire("fill"));

    // seq 1 + par 1 + write 4 + localGuard 1 + failed body 11 +
    // rollback 4 + useAfter 6, then two committed writes (w, r).
    expectFiresCharging(h, "lgpar", 1 + 1 + 4 + 1 + 11 + 4 + 6 + 2 * 2);
    EXPECT_EQ(h.regInt("w"), 5);  // the sibling's write committed
    EXPECT_EQ(h.regInt("s"), 0);  // the guarded branch became noAction
    EXPECT_EQ(h.regInt("r"), 7);
    EXPECT_EQ(h.fifoDepth("q"), 1u);
}

TEST(InterpGuardFail, ValueMethodFailsInsideArgumentList)
{
    ModuleBuilder inner("Inner");
    inner.addFifo("f", w32(), 2);
    inner.addReg("sum", w32());
    inner.addValueMethod("head", {}, w32(), callV("f", "first"));
    inner.addActionMethod(
        "put", {{"a", w32()}, {"b", w32()}},
        regWrite("sum", primE(PrimOp::Add, {varE("a"), varE("b")})));
    ModuleBuilder top("Top");
    top.addSub("c", "Inner");
    top.addReg("r", w32());
    top.addRule(
        "use",
        callA("c", "put",
              {letE("k", intE(32, 3), varE("k")),
               letE("m", intE(32, 4),
                    primE(PrimOp::Add, {varE("m"), callV("c", "head")}))}));
    top.addRule("useLG", seqA({localGuardA(callA(
                                   "c", "put",
                                   {letE("k", intE(32, 3), varE("k")),
                                    callV("c", "head")})),
                               useAfter()}));
    top.addValueMethod("peek", {}, w32(), callV("c", "head"));

    Harness h(ProgramBuilder()
                  .add(inner.build())
                  .add(top.build())
                  .setRoot("Top")
                  .build());

    // call 1 + arg 0 (let 1 + const 1 + var 1) + arg 1 (let 1 + const
    // 1 + add 1 + var 1 + head call 1 + first() node 1 + prim call 2).
    expectGuardFailure(h, "use", 1 + 3 + 8);
    // seq + localGuard + (call 1 + arg 0 3 + head 1 + first() 3) +
    // rollback + useAfter, then one committed write.
    expectFiresCharging(h, "useLG", 1 + 1 + 8 + 4 + 6 + 2);
    EXPECT_EQ(h.regInt("r"), 7);
    EXPECT_EQ(h.regInt("c.sum"), 0);

    // The public value-method entry point still reports an unready
    // method by throwing GuardFail.
    int peek = h.elab.rootMethod("peek");
    EXPECT_THROW(h.interp->callValueMethod(peek, {}), GuardFail);
}

TEST(Interp, FifoEnqDeqFirstOrder)
{
    ModuleBuilder b("Top");
    b.addFifo("f", w32(), 2);
    b.addReg("out", w32());
    b.addRule("e1", callA("f", "enq", {intE(32, 10)}));
    b.addRule("e2", callA("f", "enq", {intE(32, 20)}));
    b.addRule("drain", seqA({regWrite("out", callV("f", "first")),
                             callA("f", "deq")}));
    Harness h(b.build());
    EXPECT_TRUE(h.fire("e1"));
    EXPECT_TRUE(h.fire("e2"));
    EXPECT_FALSE(h.fire("e1"));  // full: guard fails
    EXPECT_TRUE(h.fire("drain"));
    EXPECT_EQ(h.regInt("out"), 10);
    EXPECT_TRUE(h.fire("drain"));
    EXPECT_EQ(h.regInt("out"), 20);
    EXPECT_FALSE(h.fire("drain"));  // empty: guard fails
}

TEST(Interp, LoopRunsSequentiallyWithLiveCondition)
{
    // while (i < 5) { acc := acc + i; i := i + 1 } via kernel loop.
    ModuleBuilder b("Top");
    b.addReg("i", w32());
    b.addReg("acc", w32());
    ActPtr body = seqA({regWrite("acc", primE(PrimOp::Add,
                                              {regRead("acc"),
                                               regRead("i")})),
                        regWrite("i", primE(PrimOp::Add,
                                            {regRead("i"),
                                             intE(32, 1)}))});
    b.addRule("sum",
              loopA(primE(PrimOp::Lt, {regRead("i"), intE(32, 5)}),
                    body));
    Harness h(b.build());
    EXPECT_TRUE(h.fire("sum"));
    EXPECT_EQ(h.regInt("acc"), 0 + 1 + 2 + 3 + 4);
    EXPECT_EQ(h.regInt("i"), 5);
}

TEST(Interp, PaperNonAtomicLoopIdiom)
{
    // The localGuard loop idiom of section 5: transfer as many
    // elements as possible from producer FIFO to consumer FIFO in a
    // single rule invocation, stopping at the first guard failure.
    ModuleBuilder b("Top");
    b.addFifo("p", w32(), 4);
    b.addFifo("c", w32(), 2);  // smaller: stops after 2 transfers
    b.addReg("cond", Type::boolean(), Value::makeBool(false));
    for (int i = 0; i < 3; i++) {
        b.addRule("fill" + std::to_string(i),
                  callA("p", "enq", {intE(32, 100 + i)}));
    }
    ActPtr xfer_once = seqA({
        regWrite("cond", boolE(false)),
        localGuardA(seqA({callA("c", "enq", {callV("p", "first")}),
                          callA("p", "deq"),
                          regWrite("cond", boolE(true))}))});
    b.addRule("xferSW",
              seqA({regWrite("cond", boolE(true)),
                    loopA(regRead("cond"), xfer_once)}));
    Harness h(b.build());
    EXPECT_TRUE(h.fire("fill0"));
    EXPECT_TRUE(h.fire("fill1"));
    EXPECT_TRUE(h.fire("fill2"));
    EXPECT_TRUE(h.fire("xferSW"));
    EXPECT_EQ(h.fifoDepth("c"), 2u);  // consumer capacity reached
    EXPECT_EQ(h.fifoDepth("p"), 1u);
}

TEST(Interp, ValueMethodGuardPoisonsCaller)
{
    // Calling first() on an empty FIFO from within an expression
    // makes the whole rule unready (guarded expression semantics).
    ModuleBuilder b("Top");
    b.addFifo("f", w32(), 2);
    b.addReg("r", w32());
    b.addRule("use", regWrite("r", primE(PrimOp::Add,
                                         {callV("f", "first"),
                                          intE(32, 1)})));
    Harness h(b.build());
    EXPECT_FALSE(h.fire("use"));
    EXPECT_EQ(h.regInt("r"), 0);
}

TEST(Interp, LetBindingIsNonStrictInEffect)
{
    // A let-bound unready expression only fails if used... kernel BCL
    // has non-strict lets; our interpreter is strict, so we verify the
    // simpler property that binding a *ready* value works and scoping
    // shadows correctly.
    ModuleBuilder b("Top");
    b.addReg("r", w32());
    ActPtr body = letA(
        "x", intE(32, 3),
        letA("x", primE(PrimOp::Add, {varE("x"), intE(32, 4)}),
             regWrite("r", varE("x"))));
    b.addRule("lets", body);
    Harness h(b.build());
    EXPECT_TRUE(h.fire("lets"));
    EXPECT_EQ(h.regInt("r"), 7);
}

TEST(Interp, CondExprSelectsLazily)
{
    // (true ? 1 : <unready>) must not fail: only the taken arm is
    // evaluated.
    ModuleBuilder b("Top");
    b.addFifo("f", w32(), 2);
    b.addReg("r", w32());
    b.addRule("sel",
              regWrite("r", condE(boolE(true), intE(32, 1),
                                  callV("f", "first"))));
    Harness h(b.build());
    EXPECT_TRUE(h.fire("sel"));
    EXPECT_EQ(h.regInt("r"), 1);
}

TEST(Interp, IfPredicateGuardAlwaysEvaluated)
{
    // Axiom A.5: guards in the predicate of a conditional are always
    // evaluated, even if the condition would be false.
    ModuleBuilder b("Top");
    b.addFifo("f", w32(), 2);
    b.addReg("r", w32());
    b.addRule("pred",
              ifA(primE(PrimOp::Gt, {callV("f", "first"), intE(32, 0)}),
                  regWrite("r", intE(32, 1))));
    Harness h(b.build());
    EXPECT_FALSE(h.fire("pred"));  // first() unready -> rule unready
}

TEST(Interp, ActionMethodOfSubmoduleExecutesAtomically)
{
    ModuleBuilder counter("Counter");
    counter.addReg("count", w32());
    counter.addActionMethod(
        "bump", {{"by", w32()}},
        regWrite("count", primE(PrimOp::Add,
                                {regRead("count"), varE("by")})));
    counter.addValueMethod("value", {}, w32(), regRead("count"));

    ModuleBuilder top("Top");
    top.addSub("c", "Counter");
    top.addReg("snap", w32());
    top.addRule("bump2", callA("c", "bump", {intE(32, 2)}));
    top.addRule("read", regWrite("snap", callV("c", "value")));

    Program p = ProgramBuilder()
                    .add(counter.build())
                    .add(top.build())
                    .setRoot("Top")
                    .build();
    ElabProgram elab = elaborate(p);
    Store store(elab);
    Interp interp(elab, store);

    EXPECT_TRUE(interp.fireRule(elab.ruleByName("bump2")));
    EXPECT_TRUE(interp.fireRule(elab.ruleByName("bump2")));
    EXPECT_TRUE(interp.fireRule(elab.ruleByName("read")));
    EXPECT_EQ(store.at(elab.primByPath("c.count")).val.asInt(), 4);
    EXPECT_EQ(store.at(elab.primByPath("snap")).val.asInt(), 4);
}

TEST(Interp, ReplacedMethodBodyRecompilesStaleCallers)
{
    // Replacing a callee method's body in place (the inlining
    // transform mutates m.value exactly this way) must reach callers
    // whose own bodies did not change: the compiled-program cache has
    // to invalidate transitively, not just per replaced entry.
    ModuleBuilder inner("Inner");
    inner.addValueMethod("answer", {}, w32(), intE(32, 1));
    ModuleBuilder top("Top");
    top.addSub("c", "Inner");
    top.addReg("snap", w32());
    top.addRule("read", regWrite("snap", callV("c", "answer")));
    Program p = ProgramBuilder()
                    .add(inner.build())
                    .add(top.build())
                    .setRoot("Top")
                    .build();
    ElabProgram elab = elaborate(p);
    Store store(elab);
    Interp interp(elab, store);

    EXPECT_TRUE(interp.fireRule(elab.ruleByName("read")));
    EXPECT_EQ(store.at(elab.primByPath("snap")).val.asInt(), 1);

    for (ElabMethod &m : elab.methods) {
        if (m.name == "answer")
            m.value = intE(32, 2);
    }
    EXPECT_TRUE(interp.fireRule(elab.ruleByName("read")));
    EXPECT_EQ(store.at(elab.primByPath("snap")).val.asInt(), 2);
}

TEST(Interp, RootActionMethodDrivesProgram)
{
    ModuleBuilder b("Top");
    b.addFifo("in", w32(), 2);
    b.addActionMethod("push", {{"x", w32()}},
                      callA("in", "enq", {varE("x")}), "SW");
    Harness h(b.build());
    int meth = h.elab.rootMethod("push");
    EXPECT_TRUE(h.interp->callActionMethod(meth, {Value::makeInt(32, 9)}));
    EXPECT_TRUE(h.interp->callActionMethod(meth, {Value::makeInt(32, 8)}));
    EXPECT_FALSE(h.interp->callActionMethod(meth, {Value::makeInt(32, 7)}));
    EXPECT_EQ(h.fifoDepth("in"), 2u);
}

TEST(Interp, BramReadWrite)
{
    ModuleBuilder b("Top");
    b.addBram("mem", w32(), 8);
    b.addReg("out", w32());
    b.addRule("wr", callA("mem", "write", {intE(32, 3), intE(32, 55)}));
    b.addRule("rd", regWrite("out", callV("mem", "read", {intE(32, 3)})));
    Harness h(b.build());
    EXPECT_TRUE(h.fire("wr"));
    EXPECT_TRUE(h.fire("rd"));
    EXPECT_EQ(h.regInt("out"), 55);
}

TEST(Interp, BramOutOfRangePanics)
{
    ModuleBuilder b("Top");
    b.addBram("mem", w32(), 4);
    b.addRule("bad", callA("mem", "write", {intE(32, 9), intE(32, 1)}));
    Harness h(b.build());
    EXPECT_THROW(h.fire("bad"), PanicError);
}

TEST(Interp, RunawayLoopReportsFatal)
{
    ModuleBuilder b("Top");
    b.addReg("r", w32());
    b.addRule("spin", loopA(boolE(true), noOpA()));
    Harness h(b.build());
    EXPECT_THROW(h.fire("spin"), FatalError);
}

TEST(Interp, LoopIterBudgetIsExactAndTunable)
{
    // while (i < 10) i := i + 1. A budget of exactly 10 body
    // executions must pass; 9 must trip the runaway report. (The
    // seed checked after the increment, silently allowing budget+1.)
    ModuleBuilder b("Top");
    b.addReg("i", w32());
    b.addRule("count",
              loopA(primE(PrimOp::Lt, {regRead("i"), intE(32, 10)}),
                    regWrite("i", primE(PrimOp::Add,
                                        {regRead("i"), intE(32, 1)}))));
    Harness h(b.build());
    h.interp->costs().loopIterBudget = 10;
    EXPECT_TRUE(h.fire("count"));
    EXPECT_EQ(h.regInt("i"), 10);

    h.store->at(h.elab.primByPath("i")).val = Value::makeInt(32, 0);
    h.interp->costs().loopIterBudget = 9;
    EXPECT_THROW(h.fire("count"), FatalError);
    // The failed transaction left no partial state behind.
    EXPECT_EQ(h.regInt("i"), 0);
}

TEST(Elaborate, DuplicateAndMissingDefinitionsRejected)
{
    ModuleBuilder top("Top");
    top.addSub("x", "Nowhere");
    Program p = ProgramBuilder().add(top.build()).setRoot("Top").build();
    EXPECT_THROW(elaborate(p), FatalError);

    EXPECT_THROW(ProgramBuilder().setRoot("Top").build(), FatalError);
}

TEST(Elaborate, RecursiveInstantiationRejected)
{
    ModuleBuilder self("Selfy");
    self.addSub("inner", "Selfy");
    Program p =
        ProgramBuilder().add(self.build()).setRoot("Selfy").build();
    EXPECT_THROW(elaborate(p), FatalError);
}

TEST(Elaborate, PathsAndIdsAreHierarchical)
{
    ModuleBuilder inner("Inner");
    inner.addReg("r", w32());
    ModuleBuilder top("Top");
    top.addSub("i1", "Inner");
    top.addSub("i2", "Inner");
    Program p = ProgramBuilder()
                    .add(inner.build())
                    .add(top.build())
                    .setRoot("Top")
                    .build();
    ElabProgram e = elaborate(p);
    EXPECT_EQ(e.prims.size(), 2u);
    EXPECT_NO_THROW(e.primByPath("i1.r"));
    EXPECT_NO_THROW(e.primByPath("i2.r"));
    EXPECT_THROW(e.primByPath("i3.r"), PanicError);
}

TEST(Elaborate, SameDomainSyncDegeneratesToFifo)
{
    // Domain polymorphism (section 4.2): a Sync whose sides resolve to
    // the same domain is replaced by a plain FIFO by the compiler.
    ModuleBuilder b("Top");
    b.addSync("s", w32(), 2, "SW", "SW");
    Program p = ProgramBuilder().add(b.build()).setRoot("Top").build();
    ElabProgram e = elaborate(p);
    EXPECT_EQ(e.prims[0].kind, "Fifo");
}

TEST(Elaborate, ArityAndKindErrorsAreFatal)
{
    ModuleBuilder b("Top");
    b.addFifo("f", w32(), 2);
    b.addRule("bad", callA("f", "enq", {intE(32, 1), intE(32, 2)}));
    Program p = ProgramBuilder().add(b.build()).setRoot("Top").build();
    EXPECT_THROW(elaborate(p), FatalError);

    ModuleBuilder c("Top");
    c.addFifo("f", w32(), 2);
    c.addRule("bad2", callA("f", "nosuch", {}));
    Program p2 = ProgramBuilder().add(c.build()).setRoot("Top").build();
    EXPECT_THROW(elaborate(p2), FatalError);
}

} // namespace
} // namespace bcl
