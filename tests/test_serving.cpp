/**
 * @file
 * Serving-layer determinism suite (the PR's pinning tests): N
 * concurrent Vorbis sessions on a fixed worker pool must produce
 * PCM and rule-firing counts byte-identical to each stream's solo
 * serial run — for every N in {1, 8, 64}, every pool width in
 * {1, 2, hardware_concurrency} and both software backends. Sessions
 * share one PartitionResult and (compiled) one CompiledArtifact, yet
 * own their Store and bcl_gen_create instance, so any interleaving
 * of frame quanta across any worker count is functionally invisible
 * per stream: the LIBDN latency-insensitivity argument (§4.4),
 * scaled from "domains may race ahead" to "sessions may race ahead".
 *
 * Also here: pool accounting/error-isolation semantics, and an
 * opt-in (~30 s) create/destroy churn soak (SERVE_SOAK=1) meant to
 * run under ASan — it exercises the pool-destruction-abandons-queued-
 * sessions path on purpose.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <chrono>
#include <map>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "common/logging.hpp"
#include "platform/cosim.hpp"
#include "serve/pool.hpp"
#include "vorbis/partitions.hpp"

namespace bcl {
namespace {

using namespace bcl::serve;

/** One binary-wide cache: the whole suite needs exactly one compile
 *  of the full-SW Vorbis partition. */
CompileCache &
sharedCache()
{
    static CompileCache cache;
    return cache;
}

/** Worker-pool widths under test: 1, 2 and hardware_concurrency,
 *  deduplicated (a 1-core container yields {1, 2}). */
std::vector<int>
poolWidths()
{
    unsigned hc = std::thread::hardware_concurrency();
    std::vector<int> widths{1, 2};
    if (hc > 2)
        widths.push_back(static_cast<int>(hc));
    return widths;
}

struct StreamResult
{
    std::vector<std::int32_t> pcm;
    std::uint64_t rulesFired = 0;

    bool
    operator==(const StreamResult &o) const
    {
        return pcm == o.pcm && rulesFired == o.rulesFired;
    }
};

/** Solo serial oracle: runVorbisConfig builds its own program,
 *  partitioning and (sequential) cosim for the same seed. */
StreamResult
soloReference(SwBackend backend, int frames, std::uint64_t seed)
{
    CosimConfig scfg;
    scfg.swBackend = backend;
    // Share only the binary with the serving runs (the oracle's
    // independently generated source hashes to the same key); the
    // execution path stays solo and serial.
    scfg.compileProvider = [](const ElabProgram &p,
                              const GenccOptions &o) {
        return sharedCache().get(p, o);
    };
    vorbis::VorbisRunResult r = vorbis::runVorbisConfig(
        vorbis::VorbisConfig{}, frames, &scfg, seed);
    return {r.pcm, r.swRulesFired};
}

StreamResult
sessionResult(Session &s, int audio_prim)
{
    StreamResult r;
    r.pcm = vorbis::extractPcm(s.cosim(), audio_prim);
    r.rulesFired =
        s.cosim().swCompiled()
            ? s.cosim().swCompiled()->rulesFired()
            : s.cosim().swInterp().stats().rulesFired;
    return r;
}

class ServingDeterminism : public ::testing::TestWithParam<SwBackend>
{
  protected:
    void
    SetUp() override
    {
        if (GetParam() == SwBackend::Compiled &&
            !CompiledPartition::hostCompilerAvailable())
            GTEST_SKIP() << "no host C++ compiler on this machine — "
                            "compiled-backend serving tests skipped";
    }

    CosimConfig
    baseConfig(const vorbis::VorbisServeSetup &setup) const
    {
        CosimConfig cfg;
        cfg.swBackend = GetParam();
        if (GetParam() == SwBackend::Compiled) {
            GenccOptions gopts;
            gopts.mode = cfg.swGenMode;
            cfg.swArtifact = sharedCache().get(
                setup.parts.part("SW").prog, gopts);
        }
        return cfg;
    }
};

/**
 * The matrix. Every (N, workers) cell serves N streams with distinct
 * seeds concurrently and compares each against its solo serial run.
 * Distinct seeds make streams distinguishable: any cross-session
 * state bleed (a shared Store, a shared generated instance, an
 * interning race) shows up as one stream's bytes in another.
 */
TEST_P(ServingDeterminism, ConcurrentStreamsMatchSoloSerialRuns)
{
    const int frames = 3;
    vorbis::VorbisServeSetup setup = vorbis::makeVorbisServeSetup();
    CosimConfig cfg = baseConfig(setup);

    // References computed once per seed (64 covers every N).
    std::map<std::uint64_t, StreamResult> refs;
    auto reference = [&](std::uint64_t seed) -> const StreamResult & {
        auto it = refs.find(seed);
        if (it == refs.end())
            it = refs
                     .emplace(seed, soloReference(GetParam(), frames,
                                                  seed))
                     .first;
        return it->second;
    };

    for (int n : {1, 8, 64}) {
        for (int workers : poolWidths()) {
            SessionManagerOptions mopts;
            mopts.workers = workers;
            SessionManager mgr(mopts);
            std::vector<std::shared_ptr<Session>> sessions;
            for (int i = 0; i < n; i++) {
                auto state = vorbis::makeVorbisStreamState(
                    frames, 7000 + static_cast<std::uint64_t>(i));
                StreamSpec spec;
                spec.driver = vorbis::makeVorbisStreamDriver(
                    state, setup.pushMethod);
                int audio = setup.audioPrim;
                spec.progress = [audio](CoSim &cs) {
                    return static_cast<std::uint64_t>(
                        cs.storeOf("SW").at(audio).queue.size());
                };
                spec.target = static_cast<std::uint64_t>(frames);
                sessions.push_back(mgr.startSession(
                    setup.parts, cfg, std::move(spec)));
            }
            mgr.drain();

            PoolStats stats = mgr.pool().stats();
            EXPECT_EQ(stats.completed,
                      static_cast<std::uint64_t>(n))
                << "n=" << n << " workers=" << workers;
            EXPECT_EQ(stats.failed, 0u);
            // A quantum is at least one frame of progress (the
            // pipeline may drain several frames in one scheduling
            // step), and the round-robin must not burn empty passes:
            // quanta per stream lies in [1, frames].
            EXPECT_GE(stats.quanta, static_cast<std::uint64_t>(n))
                << "n=" << n << " workers=" << workers;
            EXPECT_LE(stats.quanta,
                      static_cast<std::uint64_t>(n) * frames)
                << "n=" << n << " workers=" << workers;

            for (int i = 0; i < n; i++) {
                ASSERT_TRUE(sessions[static_cast<size_t>(i)]
                                ->finished());
                StreamResult got = sessionResult(
                    *sessions[static_cast<size_t>(i)],
                    setup.audioPrim);
                const StreamResult &want =
                    reference(7000 + static_cast<std::uint64_t>(i));
                ASSERT_FALSE(want.pcm.empty());
                EXPECT_EQ(got.pcm, want.pcm)
                    << "stream " << i << " of " << n << " on "
                    << workers << " workers diverged from its solo "
                    << "serial run";
                EXPECT_EQ(got.rulesFired, want.rulesFired)
                    << "stream " << i << " of " << n << " on "
                    << workers << " workers";
            }
        }
    }

    if (GetParam() == SwBackend::Compiled) {
        EXPECT_EQ(sharedCache().stats().compiles, 1u)
            << "the whole matrix must share one compile";
    }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, ServingDeterminism,
    ::testing::Values(SwBackend::Interpreted, SwBackend::Compiled),
    [](const auto &info) {
        return info.param == SwBackend::Interpreted ? "Interpreted"
                                                    : "Compiled";
    });

/**
 * Error isolation: one poisoned stream (unreachable progress target,
 * so its cosim reports deadlock) must neither wedge the pool nor
 * poison its neighbors — drain() rethrows the first error after the
 * healthy sessions completed.
 */
TEST(ServingPool, PoisonedSessionDoesNotWedgeThePool)
{
    const int frames = 2;
    vorbis::VorbisServeSetup setup = vorbis::makeVorbisServeSetup();
    CosimConfig cfg;  // interpreted: no compiler needed

    SessionManagerOptions mopts;
    mopts.workers = 2;
    SessionManager mgr(mopts);
    std::vector<std::shared_ptr<Session>> sessions;
    for (int i = 0; i < 4; i++) {
        auto state = vorbis::makeVorbisStreamState(
            frames, 100 + static_cast<std::uint64_t>(i));
        StreamSpec spec;
        spec.driver = vorbis::makeVorbisStreamDriver(
            state, setup.pushMethod);
        int audio = setup.audioPrim;
        spec.progress = [audio](CoSim &cs) {
            return static_cast<std::uint64_t>(
                cs.storeOf("SW").at(audio).queue.size());
        };
        // Session 2 wants one frame more than its driver will feed:
        // its cosim quiesces short of the target -> deadlock fatal.
        spec.target = static_cast<std::uint64_t>(
            i == 2 ? frames + 1 : frames);
        sessions.push_back(
            mgr.startSession(setup.parts, cfg, std::move(spec)));
    }

    EXPECT_THROW(mgr.drain(), Error);
    PoolStats stats = mgr.pool().stats();
    EXPECT_EQ(stats.failed, 1u);
    EXPECT_EQ(stats.completed, 3u);
    for (int i = 0; i < 4; i++) {
        if (i == 2)
            continue;
        StreamResult got = sessionResult(
            *sessions[static_cast<size_t>(i)], setup.audioPrim);
        StreamResult want = soloReference(
            SwBackend::Interpreted, frames,
            100 + static_cast<std::uint64_t>(i));
        EXPECT_EQ(got.pcm, want.pcm) << "healthy neighbor " << i;
    }
}

/** A session must reject a spec with no progress counter up front
 *  (a target without a metric would spin forever). */
TEST(ServingPool, SessionRequiresProgressCounter)
{
    vorbis::VorbisServeSetup setup = vorbis::makeVorbisServeSetup();
    StreamSpec spec;
    spec.target = 1;
    EXPECT_THROW(Session(0, setup.parts, CosimConfig{},
                         std::move(spec)),
                 Error);
}

/**
 * Opt-in soak (SERVE_SOAK=1, ~30 s, meant for ASan): seeded churn of
 * manager/session create-drain-destroy cycles, including destroying
 * a manager with sessions still queued (the pool dtor abandons them
 * — exactly the teardown path a long-lived server leans on). Every
 * fully drained iteration spot-verifies one stream against its solo
 * serial run.
 */
TEST(ServingSoak, SeededCreateDestroyChurn)
{
    const char *gate = std::getenv("SERVE_SOAK");
    if (gate == nullptr || std::string(gate) == "0")
        GTEST_SKIP() << "set SERVE_SOAK=1 to run the ~30 s "
                        "create/destroy churn soak";
    const char *seed_env = std::getenv("SERVE_SOAK_SEED");
    const std::uint64_t soak_seed =
        seed_env ? std::strtoull(seed_env, nullptr, 10) : 20260808u;
    std::mt19937_64 rng(soak_seed);

    const bool compiled_ok =
        CompiledPartition::hostCompilerAvailable();
    vorbis::VorbisServeSetup setup = vorbis::makeVorbisServeSetup();
    std::shared_ptr<const CompiledArtifact> artifact;
    if (compiled_ok)
        artifact = sharedCache().get(setup.parts.part("SW").prog,
                                     GenccOptions{});

    // Small seed pool so references amortize across iterations.
    std::map<std::pair<int, std::uint64_t>, StreamResult> refs[2];

    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(30);
    int iterations = 0, abandoned = 0, verified = 0;
    while (std::chrono::steady_clock::now() < deadline) {
        iterations++;
        const int workers = 1 + static_cast<int>(rng() % 4);
        const int n = 1 + static_cast<int>(rng() % 24);
        const int frames = 1 + static_cast<int>(rng() % 3);
        const bool use_compiled = compiled_ok && (rng() % 2 == 0);
        const bool abandon = rng() % 8 == 0;

        CosimConfig cfg;
        cfg.swBackend = use_compiled ? SwBackend::Compiled
                                     : SwBackend::Interpreted;
        if (use_compiled)
            cfg.swArtifact = artifact;

        SessionManagerOptions mopts;
        mopts.workers = workers;
        SessionManager mgr(mopts);
        std::vector<std::shared_ptr<Session>> sessions;
        std::vector<std::uint64_t> seeds;
        for (int i = 0; i < n; i++) {
            const std::uint64_t seed = rng() % 8;  // pool of 8
            seeds.push_back(seed);
            auto state =
                vorbis::makeVorbisStreamState(frames, seed);
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
        if (abandon) {
            // Destroy the manager with work still queued: the pool
            // must join cleanly and the abandoned sessions must free
            // everything (ASan is the judge).
            abandoned++;
            continue;
        }
        mgr.drain();

        const size_t pick = rng() % sessions.size();
        auto key = std::make_pair(frames, seeds[pick]);
        auto &ref_map = refs[use_compiled ? 1 : 0];
        auto it = ref_map.find(key);
        if (it == ref_map.end())
            it = ref_map
                     .emplace(key,
                              soloReference(cfg.swBackend, frames,
                                            seeds[pick]))
                     .first;
        StreamResult got =
            sessionResult(*sessions[pick], setup.audioPrim);
        ASSERT_EQ(got, it->second)
            << "soak iteration " << iterations << " (seed "
            << soak_seed << ") diverged";
        verified++;
    }
    std::printf("soak: %d iterations (%d abandoned mid-flight, "
                "%d verified) with rng seed %llu\n",
                iterations, abandoned, verified,
                static_cast<unsigned long long>(soak_seed));
    EXPECT_GT(iterations, 0);
}

} // namespace
} // namespace bcl
