/**
 * @file
 * Fault injection for the remote partition transports. The happy
 * path is pinned by the determinism matrix (test_partition_cosim);
 * this suite pins the failure semantics promised by
 * docs/ARCHITECTURE.md "Distributed co-simulation":
 *
 *   - a peer killed mid-epoch surfaces as ONE clean FatalError
 *     naming the domain and pid, bounded by the configured transport
 *     timeout — never a hang, never a second error;
 *   - an ABI or program-signature mismatch is refused during the
 *     handshake, before any payload flows (exercised through the
 *     RemoteOptions hello overrides);
 *   - in the serving layer, a Session whose remote partition dies
 *     fails alone: the pool drains, healthy neighbors complete with
 *     byte-identical outputs (PR 6's error-isolation contract,
 *     extended across a process boundary).
 *
 * Deliberately NOT in the TSan job: these tests fork with pool
 * workers / histories alive, which TSan's fork semantics do not
 * support cleanly.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <string>
#include <vector>

#include <sys/types.h>

#include "common/logging.hpp"
#include "core/builder.hpp"
#include "core/domains.hpp"
#include "core/elaborate.hpp"
#include "core/partition.hpp"
#include "platform/cosim.hpp"
#include "serve/pool.hpp"
#include "vorbis/partitions.hpp"

namespace bcl {
namespace {

using namespace bcl::serve;

TypePtr w32() { return Type::bits(32); }

/** The SW->HW->SW echo pipeline (same shape as test_partition_cosim):
 *  push(x) -> toHw -> [HW: y = 2x+1] -> fromHw -> audio out. */
Program
makeEchoProgram()
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
    b.addRule("compute",
              letA("x", callV("toHw", "first"),
                   parA({callA("toHw", "deq"),
                         callA("fromHw", "enq",
                               {primE(PrimOp::Add,
                                      {primE(PrimOp::Mul,
                                             {varE("x"), intE(32, 2)}),
                                       intE(32, 1)})})})));
    b.addRule("drain", parA({callA("out", "output",
                                   {callV("fromHw", "first")}),
                             callA("fromHw", "deq")}));
    return ProgramBuilder().add(b.build()).setRoot("Top").build();
}

std::vector<TransportKind>
remoteTransportKinds()
{
    std::vector<TransportKind> kinds{TransportKind::SharedMem};
    if (netTransportAvailable())
        kinds.push_back(TransportKind::Tcp);
    return kinds;
}

TEST(RemoteFault, ChildKilledMidEpochIsOneBoundedCleanError)
{
    for (TransportKind kind : remoteTransportKinds()) {
        Program p = makeEchoProgram();
        ElabProgram elab = elaborate(p);
        DomainAssignment doms = inferDomains(elab);
        PartitionResult parts = partitionProgram(elab, doms);

        CosimConfig cfg;
        cfg.defaultTransport = kind;
        cfg.transportTimeoutMs = 2000;
        CoSim cosim(parts, cfg);

        const PartitionPart &sw = parts.part("SW");
        int push = sw.prog.rootMethod("push");
        int out_prim = sw.prog.primByPath("out");

        // Endless input: the run can only end via the injected fault.
        std::int64_t next_in = 0;
        SwDriver driver;
        driver.step = [&](SwPort &port) -> std::uint64_t {
            if (port.callActionMethod(
                    push, {Value::makeInt(32, next_in)})) {
                next_in++;
                return 1;
            }
            return 0;
        };
        driver.done = [] { return false; };
        cosim.setDriver("SW", driver);

        bool killed = false;
        auto done = [&](CoSim &cs) {
            if (!killed &&
                cs.storeOf("SW").at(out_prim).queue.size() >= 5) {
                pid_t pid = cs.remotePid("HW");
                EXPECT_GT(pid, 0) << transportName(kind);
                ::kill(pid, SIGKILL);
                killed = true;
            }
            return false;
        };

        const auto start = std::chrono::steady_clock::now();
        try {
            cosim.run(done);
            FAIL() << "a SIGKILLed partition child must surface as "
                      "FatalError (" << transportName(kind) << ")";
        } catch (const FatalError &e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find("remote partition 'HW'"),
                      std::string::npos)
                << transportName(kind) << ": " << msg;
        }
        const auto elapsed =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - start)
                .count();
        EXPECT_TRUE(killed) << transportName(kind)
                            << ": fault was never injected";
        // Detection is EOF/waitpid-driven, so it lands well inside
        // the 2 s transport timeout even on a loaded machine; the
        // bound proves "bounded by the timeout", with slack for CI.
        EXPECT_LT(elapsed, 15000)
            << transportName(kind)
            << ": death detection must not hang";
    }
}

TEST(RemoteFault, AbiMismatchIsRefusedBeforePayload)
{
    Program p = makeEchoProgram();
    ElabProgram elab = elaborate(p);
    DomainAssignment doms = inferDomains(elab);
    PartitionResult parts = partitionProgram(elab, doms);
    const ElabProgram &hw = parts.part("HW").prog;

    for (TransportKind kind : remoteTransportKinds()) {
        RemoteOptions opts;
        opts.traced = false;
        opts.helloAbiOverride = kCppGenAbiVersion + 7;
        try {
            RemoteHwPartition proxy(hw, kind, "HW", opts);
            FAIL() << "ABI mismatch accepted over "
                   << transportName(kind);
        } catch (const FatalError &e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find("refused"), std::string::npos)
                << transportName(kind) << ": " << msg;
            EXPECT_NE(msg.find("ABI"), std::string::npos)
                << transportName(kind) << ": " << msg;
        }
    }
}

TEST(RemoteFault, ProgramSignatureMismatchIsRefusedBeforePayload)
{
    Program p = makeEchoProgram();
    ElabProgram elab = elaborate(p);
    DomainAssignment doms = inferDomains(elab);
    PartitionResult parts = partitionProgram(elab, doms);
    const ElabProgram &hw = parts.part("HW").prog;

    for (TransportKind kind : remoteTransportKinds()) {
        RemoteOptions opts;
        opts.traced = false;
        opts.helloHashOverride = 0xBADC0FFEE0DDF00Dull;
        try {
            RemoteHwPartition proxy(hw, kind, "HW", opts);
            FAIL() << "program-hash mismatch accepted over "
                   << transportName(kind);
        } catch (const FatalError &e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find("refused"), std::string::npos)
                << transportName(kind) << ": " << msg;
            EXPECT_NE(msg.find("signature"), std::string::npos)
                << transportName(kind) << ": " << msg;
        }
    }
}

/**
 * Serving-layer isolation across the process boundary: four Vorbis
 * sessions over shm-remote hardware partitions; the LAST queued
 * session's partition child is killed right after submission. Its
 * session must fail (drain rethrows), while the three healthy
 * neighbors complete with PCM byte-identical to the solo in-thread
 * reference — one dead remote cannot wedge the pool or bleed into
 * other streams.
 */
TEST(RemoteFault, DeadRemoteSessionFailsAloneWhilePoolDrains)
{
    const int frames = 2;
    vorbis::VorbisConfig vcfg =
        vorbis::partitionConfig(vorbis::VorbisPartition::B);
    vorbis::VorbisServeSetup setup =
        vorbis::makeVorbisServeSetup(vcfg);

    // The hardware domains of this partitioning (every non-SW part).
    std::vector<std::string> hw_domains;
    for (const auto &part : setup.parts.parts) {
        if (part.domain != "SW")
            hw_domains.push_back(part.domain);
    }
    ASSERT_FALSE(hw_domains.empty());

    CosimConfig cfg;
    cfg.defaultTransport = TransportKind::SharedMem;
    cfg.transportTimeoutMs = 60000;

    SessionManagerOptions mopts;
    mopts.workers = 2;
    SessionManager mgr(mopts);
    std::vector<std::shared_ptr<Session>> sessions;
    for (int i = 0; i < 4; i++) {
        auto state = vorbis::makeVorbisStreamState(
            frames, 300 + static_cast<std::uint64_t>(i));
        StreamSpec spec;
        spec.driver = vorbis::makeVorbisStreamDriver(
            state, setup.pushMethod);
        int audio = setup.audioPrim;
        spec.progress = [audio](CoSim &cs) {
            return static_cast<std::uint64_t>(
                cs.storeOf("SW").at(audio).queue.size());
        };
        spec.target = static_cast<std::uint64_t>(frames);
        sessions.push_back(
            mgr.startSession(setup.parts, cfg, std::move(spec)));
    }

    // Kill the last session's remote children. It was queued behind
    // three two-quantum sessions on two workers, so it cannot have
    // finished yet; its next remote operation hits a dead peer.
    for (const std::string &dom : hw_domains) {
        pid_t pid = sessions[3]->cosim().remotePid(dom);
        ASSERT_GT(pid, 0) << dom;
        ::kill(pid, SIGKILL);
    }

    EXPECT_THROW(mgr.drain(), Error);
    PoolStats stats = mgr.pool().stats();
    EXPECT_EQ(stats.failed, 1u);
    EXPECT_EQ(stats.completed, 3u);

    for (int i = 0; i < 3; i++) {
        ASSERT_TRUE(sessions[static_cast<size_t>(i)]->finished());
        std::vector<std::int32_t> got = vorbis::extractPcm(
            sessions[static_cast<size_t>(i)]->cosim(),
            setup.audioPrim);
        vorbis::VorbisRunResult want = vorbis::runVorbisConfig(
            vcfg, frames, nullptr,
            300 + static_cast<std::uint64_t>(i));
        EXPECT_EQ(got, want.pcm)
            << "healthy neighbor " << i
            << " diverged after a sibling's remote died";
    }
}

} // namespace
} // namespace bcl
