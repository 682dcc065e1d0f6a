/**
 * @file
 * Memoised guard failure (Interp::fireRule; see interp.hpp).
 *
 * The differential tests step a long-lived interpreter, whose failure
 * memos persist across attempts, and check every attempt against a
 * fresh interpreter (empty memo) over a copy of the same store: the
 * result, the ExecStats delta and, after a fire, the committed state
 * must match. They run over hand-built programs and over every
 * domain (hardware and software) of the Vorbis and ray
 * partitionings.
 * The invalidation tests pin what must force a re-evaluation: a
 * mutable Store::at, a channel delivery, a cost-model change and a
 * replaced rule body.
 */
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/axioms.hpp"
#include "core/builder.hpp"
#include "core/domains.hpp"
#include "core/elaborate.hpp"
#include "core/partition.hpp"
#include "platform/channel.hpp"
#include "platform/cosim.hpp"
#include "ray/bvh.hpp"
#include "ray/partitions.hpp"
#include "ray/scenegen.hpp"
#include "ray/trace_bcl.hpp"
#include "runtime/interp.hpp"
#include "runtime/store.hpp"
#include "vorbis/partitions.hpp"

namespace bcl {
namespace {

TypePtr w32() { return Type::bits(32); }

/**
 * Attempt @p rule on @p memo (bound to @p store) and on a fresh
 * interpreter over a copy of @p store; both must agree on the outcome,
 * the charges and the resulting state.
 */
bool
expectSameAsFresh(const ElabProgram &prog, Store &store, Interp &memo,
                  int rule)
{
    Store copy(store);
    Interp fresh(prog, copy);
    fresh.costs() = memo.costs();
    const bool want = fresh.fireRule(rule);

    const ExecStats before = memo.stats();
    const bool got = memo.fireRule(rule);
    EXPECT_EQ(got, want) << "rule " << prog.rules[rule].name;
    EXPECT_EQ(memo.stats() - before, fresh.stats())
        << "rule " << prog.rules[rule].name;
    if (got) {
        for (int id = 0; id < static_cast<int>(store.size()); id++) {
            EXPECT_EQ(std::as_const(store).at(id),
                      std::as_const(copy).at(id))
                << prog.prims[id].path;
        }
    }
    return got;
}

/** Fifo, Reg, Bram, LocalGuard, Par and guards deep in the body. */
Program
makeMixedGuards()
{
    ModuleBuilder b("Top");
    b.addReg("r", w32());
    b.addReg("mode", w32());
    b.addFifo("q", w32(), 2);
    b.addFifo("out", w32(), 1);
    b.addBram("mem", w32(), 8);

    b.addRule("produce",
              seqA({callA("q", "enq", {regRead("r")}),
                    regWrite("r", primE(PrimOp::Add,
                                        {regRead("r"), intE(32, 1)}))}));
    b.addRule(
        "consume",
        whenA(letA("v", callV("q", "first"),
                   parA({callA("q", "deq"),
                         callA("mem", "write",
                               {primE(PrimOp::And,
                                      {varE("v"), intE(32, 7)}),
                                varE("v")})})),
              primE(PrimOp::Eq, {regRead("mode"), intE(32, 1)})));
    ActPtr deep = callA("out", "enq", {varE("x15")});
    for (int i = 15; i >= 0; i--) {
        std::string name = "x";
        name += std::to_string(i);
        deep = letA(name, intE(32, i), std::move(deep));
    }
    b.addRule("deep", deep);
    b.addRule("lg",
              whenA(seqA({localGuardA(seqA({callA("out", "enq",
                                                  {intE(32, 1)}),
                                            callA("q", "deq")})),
                          regWrite("mode", intE(32, 0))}),
                    primE(PrimOp::Eq, {regRead("mode"), intE(32, 1)})));
    b.addRule(
        "bramRead",
        whenA(callA("out", "enq",
                    {callV("mem", "read",
                           {primE(PrimOp::And,
                                  {regRead("r"), intE(32, 7)})})}),
              primE(PrimOp::Gt,
                    {callV("mem", "read",
                           {primE(PrimOp::And,
                                  {regRead("r"), intE(32, 7)})}),
                     intE(32, 5)})));
    b.addRule("parFail",
              parA({callA("mem", "write", {intE(32, 0), regRead("r")}),
                    callA("q", "enq", {intE(32, 0)})}));
    b.addRule("drainOut",
              whenA(callA("out", "deq"),
                    primE(PrimOp::Eq, {regRead("mode"), intE(32, 0)})));
    return ProgramBuilder().add(b.build()).setRoot("Top").build();
}

TEST(GuardMemo, HandBuiltProgramsMatchFreshInterpreter)
{
    ElabProgram elab = elaborate(makeMixedGuards());
    const int mode = elab.primByPath("mode");
    const int out = elab.primByPath("out");
    const int q = elab.primByPath("q");
    Store store(elab);
    Interp memo(elab, store);
    Rng rng(2012);
    const int nrules = static_cast<int>(elab.rules.size());
    for (int step = 0; step < 4000; step++) {
        // Writers outside the interpreter, some of which change
        // nothing (a mutable access alone must invalidate).
        switch (rng.below(16)) {
          case 0:
            store.at(mode).val = Value::makeInt(32, rng.below(2));
            break;
          case 1:
            store.at(out);
            break;
          case 2:
            store.at(q).queue.clear();
            break;
          default:
            break;
        }
        expectSameAsFresh(elab, store, memo,
                          static_cast<int>(rng.below(nrules)));
        if (HasFailure())
            return;
    }
    EXPECT_GT(memo.replayedAttempts(), 0u);
    EXPECT_LT(memo.replayedAttempts(), memo.stats().guardFails);
}

/** SwPort over an interpreter, for the Vorbis stream driver. */
class InterpPort final : public SwPort
{
  public:
    explicit InterpPort(Interp &in) : I(in) {}

    bool
    callActionMethod(int meth_id, const std::vector<Value> &args) override
    {
        return I.callActionMethod(meth_id, args);
    }

    std::uint64_t work() const override { return I.stats().work; }
    const Store &store() const override { return I.store(); }

  private:
    Interp &I;
};

/**
 * Step every domain of @p parts with its own long-lived interpreter,
 * each attempt checked by expectSameAsFresh, until @p done holds for
 * the software store. One step attempts every rule of every domain
 * in program order (one-rule-at-a-time semantics), then moves channel
 * messages SyncTx -> SyncRx as far as capacity allows (a writer
 * outside the interpreters, like a transport), then offers the
 * driver one call. @return replayed attempts over all domains.
 */
std::uint64_t
stepAllDomains(const PartitionResult &parts, SwDriver driver,
               const std::function<bool(const Store &)> &done)
{
    struct Domain
    {
        const ElabProgram *prog;
        std::unique_ptr<Store> store;
        std::unique_ptr<Interp> interp;
    };
    std::map<std::string, Domain> doms;
    for (const PartitionPart &part : parts.parts) {
        Domain d{&part.prog, std::make_unique<Store>(part.prog), nullptr};
        d.interp = std::make_unique<Interp>(part.prog, *d.store);
        doms.emplace(part.domain, std::move(d));
    }
    const Domain &sw = doms.at("SW");
    InterpPort port(*sw.interp);
    const bool failed_before = ::testing::Test::HasFailure();
    while (!done(*sw.store)) {
        bool progress = false;
        for (auto &[name, d] : doms) {
            for (int r = 0; r < static_cast<int>(d.prog->rules.size());
                 r++) {
                progress |= expectSameAsFresh(*d.prog, *d.store,
                                              *d.interp, r);
                if (!failed_before && ::testing::Test::HasFailure())
                    return 0;
            }
        }
        for (const ChannelSpec &c : parts.channels) {
            Store &tx = *doms.at(c.fromDomain).store;
            Store &rx = *doms.at(c.toDomain).store;
            while (!std::as_const(tx).at(c.txPrim).queue.empty() &&
                   std::as_const(rx).at(c.rxPrim).queue.size() <
                       static_cast<size_t>(c.capacity)) {
                ValueQueue &q = tx.at(c.txPrim).queue;
                rx.at(c.rxPrim).queue.push_back(q.front());
                q.pop_front();
                progress = true;
            }
        }
        if (driver.step && !driver.done())
            progress |= driver.step(port) > 0;
        if (!progress) {
            ADD_FAILURE() << "no domain can advance";
            return 0;
        }
    }
    std::uint64_t replayed = 0;
    for (const auto &[name, d] : doms) {
        if (name != "SW") {
            EXPECT_GT(d.interp->stats().rulesFired, 0u) << name;
        }
        replayed += d.interp->replayedAttempts();
    }
    return replayed;
}

TEST(GuardMemo, VorbisDomainsMatchFreshInterpreter)
{
    const int frames = 2;
    std::vector<std::pair<std::string, vorbis::VorbisConfig>> configs;
    for (vorbis::VorbisPartition p : vorbis::allVorbisPartitions())
        configs.emplace_back(vorbis::partitionName(p),
                             vorbis::partitionConfig(p));
    configs.emplace_back("split", vorbis::splitVorbisConfig());
    for (const auto &[name, vcfg] : configs) {
        SCOPED_TRACE("vorbis " + name);
        vorbis::VorbisServeSetup setup = vorbis::makeVorbisServeSetup(vcfg);
        const int audio = setup.audioPrim;
        std::uint64_t replayed = stepAllDomains(
            setup.parts,
            vorbis::makeVorbisStreamDriver(
                vorbis::makeVorbisStreamState(frames, 7),
                setup.pushMethod),
            [&](const Store &sw) {
                return sw.at(audio).queue.size() >=
                       static_cast<size_t>(frames);
            });
        EXPECT_GT(replayed, 0u);
    }
}

TEST(GuardMemo, RayDomainsMatchFreshInterpreter)
{
    const int w = 4, h = 4;
    std::vector<std::pair<std::string, ray::RayConfig>> configs;
    for (ray::RayPartition p : ray::allRayPartitions())
        configs.emplace_back(ray::rayPartitionName(p),
                             ray::rayPartitionConfig(p, w, h));
    configs.emplace_back("split", ray::splitRayConfig(w, h));
    std::vector<ray::Sphere> scene = ray::makeScene(24);
    for (const auto &[name, rcfg] : configs) {
        SCOPED_TRACE("ray " + name);
        ElabProgram elab = elaborate(ray::makeRayProgram(
            rcfg, scene, ray::buildBvh(scene), ray::makeCamera()));
        PartitionResult parts =
            partitionProgram(elab, inferDomains(elab));
        const int done = parts.part("SW").prog.primByPath("doneCnt");
        std::uint64_t replayed = stepAllDomains(
            parts, SwDriver{}, [&](const Store &sw) {
                return sw.at(done).val.asUInt() ==
                       static_cast<std::uint64_t>(w * h);
            });
        EXPECT_GT(replayed, 0u);
    }
}

/** A rule that fails while FIFO q is empty. */
struct EmptyFifoHarness
{
    EmptyFifoHarness()
    {
        ModuleBuilder b("Top");
        b.addReg("r", w32());
        b.addFifo("q", w32(), 2);
        b.addRule("take",
                  seqA({regWrite("r", callV("q", "first")),
                        callA("q", "deq")}));
        b.addRule("peek", regWrite("r", callV("q", "first")));
        elab = elaborate(
            ProgramBuilder().add(b.build()).setRoot("Top").build());
        store = std::make_unique<Store>(elab);
        interp = std::make_unique<Interp>(elab, *store);
        take = elab.ruleByName("take");
        peek = elab.ruleByName("peek");
        q = elab.primByPath("q");
    }

    ElabProgram elab;
    std::unique_ptr<Store> store;
    std::unique_ptr<Interp> interp;
    int take = -1, peek = -1, q = -1;
};

TEST(GuardMemo, RepeatedFailureIsReplayedWithIdenticalCharges)
{
    EmptyFifoHarness h;
    ExecStats s0 = h.interp->stats();
    EXPECT_FALSE(h.interp->fireRule(h.take));
    ExecStats first = h.interp->stats() - s0;
    EXPECT_EQ(h.interp->replayedAttempts(), 0u);

    ExecStats s1 = h.interp->stats();
    EXPECT_FALSE(h.interp->fireRule(h.take));
    EXPECT_EQ(h.interp->replayedAttempts(), 1u);
    EXPECT_EQ(h.interp->stats() - s1, first);
    EXPECT_EQ(first.rulesAttempted, 1u);
    EXPECT_EQ(first.guardFails, 1u);
}

TEST(GuardMemo, ReadsDoNotInvalidateOtherMemos)
{
    // Two rules failing on the same empty FIFO: evaluating one reads
    // q (const), which must not cost the other its memo.
    EmptyFifoHarness h;
    EXPECT_FALSE(h.interp->fireRule(h.take));
    EXPECT_FALSE(h.interp->fireRule(h.peek));
    for (int i = 0; i < 3; i++) {
        EXPECT_FALSE(h.interp->fireRule(h.take));
        EXPECT_FALSE(h.interp->fireRule(h.peek));
    }
    EXPECT_EQ(h.interp->replayedAttempts(), 6u);
}

TEST(GuardMemo, MutableStoreAccessUnblocksMemoisedRule)
{
    EmptyFifoHarness h;
    EXPECT_FALSE(h.interp->fireRule(h.take));
    // A mutable access is a write even when nothing changes: the
    // next attempt is evaluated (and still fails).
    h.store->at(h.q);
    EXPECT_FALSE(h.interp->fireRule(h.take));
    EXPECT_EQ(h.interp->replayedAttempts(), 0u);
    EXPECT_FALSE(h.interp->fireRule(h.take));
    EXPECT_EQ(h.interp->replayedAttempts(), 1u);

    h.store->at(h.q).queue.push_back(Value::makeInt(32, 9));
    EXPECT_TRUE(h.interp->fireRule(h.take));
    EXPECT_EQ(h.interp->replayedAttempts(), 1u);
    EXPECT_EQ(std::as_const(*h.store).at(h.elab.primByPath("r")).val,
              Value::makeInt(32, 9));
}

TEST(GuardMemo, CostModelChangeRechargesFromFreshEvaluation)
{
    EmptyFifoHarness h;
    EXPECT_FALSE(h.interp->fireRule(h.take));
    EXPECT_FALSE(h.interp->fireRule(h.take));
    ASSERT_EQ(h.interp->replayedAttempts(), 1u);

    h.interp->costs().perNode = 5;
    h.interp->costs().perRollback = 40;
    Store copy(*h.store);
    Interp fresh(h.elab, copy);
    fresh.costs() = h.interp->costs();
    EXPECT_FALSE(fresh.fireRule(h.take));

    for (int i = 0; i < 2; i++) {
        ExecStats s0 = h.interp->stats();
        EXPECT_FALSE(h.interp->fireRule(h.take));
        EXPECT_EQ(h.interp->stats() - s0, fresh.stats());
    }
    // Evaluated once under the new costs, then replayed.
    EXPECT_EQ(h.interp->replayedAttempts(), 2u);
}

TEST(GuardMemo, LiftedRuleBodyInvalidatesMemo)
{
    ModuleBuilder b("Top");
    b.addReg("r", w32());
    b.addFifo("q", w32(), 1);
    // Fails at q.first while q is empty; lifted, it fails at the
    // hoisted notEmpty guard instead, charging a different amount.
    b.addRule("blocked", seqA({regWrite("r", callV("q", "first")),
                               callA("q", "deq")}));
    ElabProgram elab = elaborate(
        ProgramBuilder().add(b.build()).setRoot("Top").build());
    Store store(elab);
    Interp interp(elab, store);
    const int blocked = elab.ruleByName("blocked");
    ExecStats s0 = interp.stats();
    EXPECT_FALSE(interp.fireRule(blocked));
    const ExecStats before_lift = interp.stats() - s0;

    elab.rules[blocked] = liftRule(elab, blocked);
    Store copy(store);
    Interp fresh(elab, copy);
    EXPECT_FALSE(fresh.fireRule(blocked));
    ASSERT_NE(fresh.stats().work, before_lift.work)
        << "lifting must change the charges for this test to bite";

    ExecStats s1 = interp.stats();
    EXPECT_FALSE(interp.fireRule(blocked));
    EXPECT_EQ(interp.stats() - s1, fresh.stats());
    EXPECT_EQ(interp.replayedAttempts(), 0u);
}

/** SW -> HW -> SW echo over two synchronizers of depth 1. */
Program
makeEcho()
{
    ModuleBuilder b("Top");
    b.addFifo("inQ", w32(), 8);
    b.addSync("toHw", w32(), 1, "SW", "HW");
    b.addSync("fromHw", w32(), 1, "HW", "SW");
    b.addAudioDev("out", "SW");
    b.addActionMethod("push", {{"x", w32()}},
                      callA("inQ", "enq", {varE("x")}), "SW");
    b.addRule("feed", parA({callA("toHw", "enq", {callV("inQ", "first")}),
                            callA("inQ", "deq")}));
    b.addRule("compute",
              letA("x", callV("toHw", "first"),
                   parA({callA("toHw", "deq"),
                         callA("fromHw", "enq", {varE("x")})})));
    b.addRule("drain", parA({callA("out", "output",
                                   {callV("fromHw", "first")}),
                             callA("fromHw", "deq")}));
    return ProgramBuilder().add(b.build()).setRoot("Top").build();
}

TEST(GuardMemo, ChannelDeliveryUnblocksMemoisedRule)
{
    ElabProgram elab = elaborate(makeEcho());
    PartitionResult parts = partitionProgram(elab, inferDomains(elab));
    const ElabProgram &swp = parts.part("SW").prog;
    const ElabProgram &hwp = parts.part("HW").prog;
    Store sw(swp), hw(hwp);
    Interp swi(swp, sw), hwi(hwp, hw);
    const ChannelSpec *spec = nullptr;
    for (const ChannelSpec &c : parts.channels) {
        if (c.fromDomain == "SW")
            spec = &c;
    }
    ASSERT_NE(spec, nullptr);
    LinkArbiter link;
    ChannelTransport chan(*spec, sw, hw, link, BusParams{}, false);
    const int feed = swp.ruleByName("feed");
    const int compute = hwp.ruleByName("compute");

    // HW waits on an empty SyncRx; idle pumps and deliveries with
    // nothing due leave it memoised.
    EXPECT_FALSE(hwi.fireRule(compute));
    chan.pump(0);
    EXPECT_FALSE(chan.deliver(0));
    EXPECT_FALSE(hwi.fireRule(compute));
    EXPECT_EQ(hwi.replayedAttempts(), 1u);

    // Three inputs: the first is picked up, the second fills the
    // SyncTx and then stalls (no credit while the first is in
    // flight), the third waits in inQ.
    const int push = swp.rootMethod("push");
    for (int x : {3, 4, 5})
        ASSERT_TRUE(swi.callActionMethod(push, {Value::makeInt(32, x)}));
    ASSERT_TRUE(swi.fireRule(feed));
    chan.pump(1);
    ASSERT_TRUE(swi.fireRule(feed));
    EXPECT_FALSE(swi.fireRule(feed));  // SyncTx full
    chan.pump(2);                      // stalled: a const read only
    EXPECT_FALSE(swi.fireRule(feed));
    EXPECT_EQ(swi.replayedAttempts(), 1u);

    // Delivery writes the HW SyncRx: compute is re-evaluated, fires.
    EXPECT_FALSE(hwi.fireRule(compute));
    EXPECT_EQ(hwi.replayedAttempts(), 2u);
    const std::uint64_t due = chan.nextEventAt();
    EXPECT_FALSE(chan.deliver(due - 1));
    EXPECT_FALSE(hwi.fireRule(compute));
    EXPECT_EQ(hwi.replayedAttempts(), 3u);
    EXPECT_TRUE(chan.deliver(due));
    EXPECT_TRUE(hwi.fireRule(compute));
    EXPECT_EQ(hwi.replayedAttempts(), 3u);

    // The freed credit lets the stalled message go: the pickup pops
    // the SW SyncTx, so feed is re-evaluated and moves the third.
    chan.pump(due);
    EXPECT_TRUE(swi.fireRule(feed));
    EXPECT_EQ(swi.replayedAttempts(), 1u);
}

} // namespace
} // namespace bcl
