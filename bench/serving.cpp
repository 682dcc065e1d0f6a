/**
 * @file
 * Serving-layer scaling sweep: N concurrent Vorbis streams (default
 * N in {100, 1000, 10000}) served from a fixed worker pool, every
 * stream its own Session (own Store, own CompiledPartition instance)
 * over ONE shared partitioning and ONE compiled artifact from the
 * CompileCache. Reports streams/sec and p50/p99 frame latency per
 * point, and verifies a sample of streams byte-for-byte against
 * their solo serial runs (runVorbisConfig with the same seed) — the
 * LIBDN §4.4 argument, scaled out: concurrency must be functionally
 * invisible per stream.
 *
 * Latency is ready-to-done per frame quantum (queue wait + service),
 * i.e. what a client of the stream would feel under load; on an
 * oversubscribed pool it grows with the number of live sessions
 * while streams/sec holds — that shape IS the serving tradeoff.
 *
 * On a 1-core container workers serialize, so streams/sec measures
 * per-stream cost plus scheduling overhead, not parallel scaling —
 * read the recorded hardware_concurrency/workers (see
 * docs/EXPERIMENTS.md).
 *
 * Usage: serving [--sessions 100,1000,10000] [--frames N]
 *                [--workers W] [--backend compiled|interpreted]
 *                [--hw-backend interpreted|compiled]
 *                [--verify M] [--json FILE] [--trace FILE]
 *                [--partition F|A|B|C|D|E]
 *                [--transport inthread|shm|tcp] [--platform FILE|PRESET]
 * --transport moves each session's hardware domains into forked
 * partition children (shm rings or framed loopback TCP) — the
 * distributed serving shape, one child per hardware domain per live
 * session. The default partition F is full-software (no hardware
 * domains), so a remote transport without an explicit --partition
 * switches to B; keep --sessions small (children are real
 * processes).
 * --backend picks the software runtime; --hw-backend independently
 * picks the clock for hardware domains (relevant with --partition
 * other than F), with the clock-edge artifacts shared session-wide
 * through the manager's CompileCache.
 * --json emits the sweep for scripts/bench_report.py to fold into
 * BENCH_runtime.json (the "serving" section), now including a
 * "metrics" object (the registry snapshot: pool/cache/sample-session
 * metrics). --trace writes a Chrome trace_event timeline (load in
 * Perfetto or chrome://tracing) of the LAST sweep point: session
 * lifecycle instants, per-worker session.advance slices, and — when
 * the partition has channels — pickup->deliver flow arrows. Because
 * the default partition F is full-software (zero channels), --trace
 * without an explicit --partition switches to partition B so the
 * timeline actually shows channel traffic.
 *
 * Frame p50/p99 now come from the registry's serve.session.frame_ms
 * histogram (reset per point) instead of hand-rolled percentile
 * math; the per-session latency vectors remain for the tests.
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_flags.hpp"
#include "common/stats.hpp"
#include "obs/trace.hpp"
#include "platform/net_transport.hpp"
#include "platform/remote_partition.hpp"
#include "serve/pool.hpp"
#include "vorbis/partitions.hpp"

using namespace bcl;
using namespace bcl::serve;

namespace {

struct Point
{
    int sessions = 0;
    double wallMs = 0;
    double streamsPerSec = 0;
    double framesPerSec = 0;
    double frameP50Ms = 0;
    double frameP99Ms = 0;
    int verified = 0;
    bool outputsMatch = true;
};

/** "100,1000" -> {100, 1000}; empty when any entry is not a
 *  positive integer. */
std::vector<int>
parseSessionList(const char *arg)
{
    std::vector<int> out;
    std::string s(arg);
    size_t pos = 0;
    while (pos <= s.size()) {
        size_t comma = s.find(',', pos);
        if (comma == std::string::npos)
            comma = s.size();
        const std::string item = s.substr(pos, comma - pos);
        char *end = nullptr;
        long n = std::strtol(item.c_str(), &end, 10);
        if (item.empty() || *end != '\0' || n <= 0 || n > 1000000000)
            return {};
        out.push_back(static_cast<int>(n));
        pos = comma + 1;
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<int> sweeps{100, 1000, 10000};
    int frames = 4;
    int workers = 0;  // hardware_concurrency
    int verify = 16;
    std::string backend = "compiled";
    std::string hw_backend = "interpreted";
    std::string json_path;
    std::string trace_path;
    std::string partition;
    std::string transport = "inthread";
    PlatformSpec platform = PlatformSpec::ml507();
    bench::Flags("serving")
        .add("--sessions", "N,N,...", "sweep points (sessions)",
             [&sweeps](const char *v) {
                 sweeps = parseSessionList(v);
                 return !sweeps.empty();
             })
        .add("--frames", "N", "frames per stream", &frames)
        .add("--workers", "W", "pool width (0 = all cores)", &workers)
        .add("--verify", "M", "streams checked per point", &verify)
        .add("--backend", {"compiled", "interpreted"},
             "software backend", &backend)
        .add("--hw-backend", {"interpreted", "compiled"},
             "how hardware domains are clocked", &hw_backend)
        .add("--json", "FILE", "write the sweep as JSON", &json_path)
        .add("--trace", "FILE", "record a Chrome trace", &trace_path)
        .add("--partition", {"F", "A", "B", "C", "D", "E"},
             "Vorbis partition", &partition)
        .add("--transport", {"inthread", "shm", "tcp"},
             "where hardware domains run", &transport)
        .addPlatform(&platform)
        .parse(argc, argv);

    // The frame-latency percentiles come from the registry histogram,
    // so metrics are always on here; the trace recorder only when a
    // timeline was asked for.
    obs::metrics().enable(true);
    if (!trace_path.empty())
        obs::trace().enable(true);

    SwBackend sw_backend = SwBackend::Compiled;
    if (backend == "interpreted") {
        sw_backend = SwBackend::Interpreted;
    } else if (!CompiledPartition::hostCompilerAvailable()) {
        std::printf("no host C++ compiler — falling back to the "
                    "interpreted backend\n");
        backend = "interpreted";
        sw_backend = SwBackend::Interpreted;
    }
    // Only matters with --partition != F; the compile routes through
    // the manager's CompileCache so every session shares one
    // clock-edge artifact per hardware domain.
    if (hw_backend == "compiled" &&
        !CompiledHwPartition::hostCompilerAvailable()) {
        std::printf("no host C++ compiler — falling back to the "
                    "interpreted hardware backend\n");
        hw_backend = "interpreted";
    }

    TransportKind tkind = parseTransportKind(transport);
    if (tkind == TransportKind::Tcp && !netTransportAvailable()) {
        std::printf("loopback TCP unavailable in this sandbox — "
                    "falling back to the shm transport\n");
        transport = "shm";
        tkind = TransportKind::SharedMem;
    }

    // F (full software) is the serving shape; --trace (and a remote
    // transport, which needs hardware domains to move out of
    // process) default to B so there is channel traffic to show.
    if (partition.empty())
        partition = (trace_path.empty() &&
                     tkind == TransportKind::InThread)
                        ? "F"
                        : "B";
    vorbis::VorbisPartition part = vorbis::VorbisPartition::F;
    switch (partition[0]) {
      case 'F': part = vorbis::VorbisPartition::F; break;
      case 'A': part = vorbis::VorbisPartition::A; break;
      case 'B': part = vorbis::VorbisPartition::B; break;
      case 'C': part = vorbis::VorbisPartition::C; break;
      case 'D': part = vorbis::VorbisPartition::D; break;
      case 'E': part = vorbis::VorbisPartition::E; break;
      default:
        std::fprintf(stderr, "unknown partition '%s'\n",
                     partition.c_str());
        return 2;
    }
    const vorbis::VorbisConfig vcfg = vorbis::partitionConfig(part);
    vorbis::VorbisServeSetup setup =
        vorbis::makeVorbisServeSetup(vcfg);

    std::printf("== Serving-layer sweep: concurrent Vorbis streams "
                "==\n");
    std::printf("partition: %c; backend: %s; hw backend: %s; "
                "transport: %s; frames/stream: %d; workers: %d "
                "(hc=%u)\n\n",
                vorbis::partitionName(part)[0], backend.c_str(),
                hw_backend.c_str(), transportName(tkind), frames,
                workers ? workers
                        : static_cast<int>(
                              std::thread::hardware_concurrency()),
                std::thread::hardware_concurrency());

    std::vector<Point> points;
    CompileCacheStats cacheStats;
    int effective_workers = 0;
    bool all_match = true;

    for (int n : sweeps) {
        // Keep only the last point's timeline: all pool/session
        // threads from the previous point are joined here, so the
        // recorder is quiescent and clear() is safe.
        if (!trace_path.empty())
            obs::trace().clear();

        SessionManagerOptions mopts;
        mopts.workers = workers;
        SessionManager mgr(mopts);
        effective_workers = mgr.pool().workers();
        obs::Histogram &frame_hist =
            obs::metrics().histogram("serve.session.frame_ms");
        frame_hist.reset();

        CosimConfig cfg;
        cfg.platform = platform;
        cfg.swBackend = sw_backend;
        cfg.defaultTransport = tkind;
        cfg.transportTimeoutMs = 60000;
        if (hw_backend == "compiled") {
            cfg.hwBackend = HwBackend::Compiled;
            cfg.compileProvider = [&mgr](const ElabProgram &p,
                                         const GenccOptions &o) {
                return mgr.cache().get(p, o);
            };
        }

        // Resolve the shared artifact once, outside the timed
        // region: the one-time compile is the cost the serving layer
        // exists to amortize, and at n=100 it would otherwise
        // dominate the point. Passing it as cfg.swArtifact makes
        // per-session instantiation pure bcl_gen_create instead of
        // hashing the program for the cache key on every lookup.
        auto t_build0 = std::chrono::steady_clock::now();
        if (sw_backend == SwBackend::Compiled) {
            GenccOptions gopts;
            gopts.mode = cfg.swGenMode;
            cfg.swArtifact = mgr.cache().get(
                setup.parts.part("SW").prog, gopts);
        }
        auto t_build1 = std::chrono::steady_clock::now();

        std::vector<std::shared_ptr<Session>> sessions;
        sessions.reserve(static_cast<size_t>(n));
        auto makeSession = [&](int i) {
            auto state = vorbis::makeVorbisStreamState(
                frames, 1000 + static_cast<std::uint64_t>(i));
            StreamSpec spec;
            spec.driver = vorbis::makeVorbisStreamDriver(
                state, setup.pushMethod);
            int audio = setup.audioPrim;
            spec.progress = [audio](CoSim &cs) {
                return static_cast<std::uint64_t>(
                    cs.storeOf("SW").at(audio).queue.size());
            };
            spec.target = static_cast<std::uint64_t>(frames);
            return mgr.createSession(setup.parts, cfg,
                                     std::move(spec));
        };
        for (int i = 0; i < n; i++)
            sessions.push_back(makeSession(i));
        auto t_build2 = std::chrono::steady_clock::now();

        auto t0 = std::chrono::steady_clock::now();
        for (auto &s : sessions)
            mgr.start(s);
        mgr.drain();
        auto t1 = std::chrono::steady_clock::now();

        Point pt;
        pt.sessions = n;
        pt.wallMs =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        pt.streamsPerSec =
            static_cast<double>(n) / (pt.wallMs / 1000.0);
        pt.framesPerSec = pt.streamsPerSec * frames;
        pt.frameP50Ms = frame_hist.percentile(0.50);
        pt.frameP99Ms = frame_hist.percentile(0.99);

        // Spot-verify against solo serial runs (independent oracle:
        // runVorbisConfig builds its own program and cosim).
        int m = std::min(verify, n);
        pt.verified = m;
        for (int i = 0; i < m; i++) {
            // Sample across the range, always including 0 and n-1.
            int idx = m > 1
                          ? static_cast<int>(
                                static_cast<long long>(i) * (n - 1) /
                                (m - 1))
                          : 0;
            auto &s = sessions[static_cast<size_t>(idx)];
            std::vector<std::int32_t> got =
                vorbis::extractPcm(s->cosim(), setup.audioPrim);
            CosimConfig scfg;
            scfg.swBackend = sw_backend;
            if (hw_backend == "compiled")
                scfg.hwBackend = HwBackend::Compiled;
            // The oracle builds its own program and cosim and runs
            // serially; routing its compile through the same cache
            // only shares the binary (its independently elaborated
            // program has the same identity — itself a property worth
            // exercising) and keeps verification O(ms) per stream.
            scfg.compileProvider = [&](const ElabProgram &p,
                                       const GenccOptions &o) {
                return mgr.cache().get(p, o);
            };
            vorbis::VorbisRunResult ref = vorbis::runVorbisConfig(
                vcfg, frames, &scfg,
                1000 + static_cast<std::uint64_t>(idx));
            if (got != ref.pcm)
                pt.outputsMatch = false;
        }
        all_match &= pt.outputsMatch;

        double build0_ms = std::chrono::duration<double, std::milli>(
                               t_build1 - t_build0)
                               .count();
        double buildN_ms = std::chrono::duration<double, std::milli>(
                               t_build2 - t_build1)
                               .count();
        std::printf("n=%d: artifact resolve %.1f ms (compile or "
                    "cache), %d sessions in %.1f ms (%.3f ms each)\n",
                    n, build0_ms, n, buildN_ms,
                    n > 0 ? buildN_ms / n : 0.0);
        points.push_back(pt);

        cacheStats = mgr.cache().stats();
        // Publish this point's pool/cache/sample-session state under
        // the stable metric names; the JSON below embeds the registry
        // as it stands after the final point.
        mgr.pool().snapshotMetrics(obs::metrics());
        mgr.cache().snapshotMetrics(obs::metrics());
        if (!sessions.empty())
            sessions.front()->cosim().snapshotMetrics(obs::metrics());
    }

    TextTable table;
    table.header({"sessions", "wall ms", "streams/s", "frames/s",
                  "p50 ms", "p99 ms", "verified", "outputs"});
    for (const Point &pt : points) {
        table.row({std::to_string(pt.sessions),
                   fixedDecimal(pt.wallMs, 1),
                   fixedDecimal(pt.streamsPerSec, 1),
                   fixedDecimal(pt.framesPerSec, 1),
                   fixedDecimal(pt.frameP50Ms, 2),
                   fixedDecimal(pt.frameP99Ms, 2),
                   std::to_string(pt.verified),
                   pt.outputsMatch ? "match" : "MISMATCH"});
    }
    std::printf("\n%s\n", table.str().c_str());
    std::printf("sampled streams byte-identical to solo serial runs: "
                "%s\n",
                all_match ? "yes" : "NO — LIBDN VIOLATION");

    if (!json_path.empty()) {
        std::ofstream out(json_path);
        out << "{\n  \"backend\": \"" << backend << "\",\n"
            << "  \"hw_backend\": \"" << hw_backend << "\",\n"
            << "  \"transport\": \"" << transportName(tkind)
            << "\",\n"
            << "  \"partition\": \""
            << vorbis::partitionName(part) << "\",\n"
            << "  \"workers\": " << effective_workers << ",\n"
            << "  \"hardware_concurrency\": "
            << std::thread::hardware_concurrency() << ",\n"
            << "  \"frames_per_session\": " << frames << ",\n"
            << "  \"compile_cache\": {\"compiles\": "
            << cacheStats.compiles << ", \"hits\": " << cacheStats.hits
            << ", \"hit_ratio\": "
            << obs::metrics().gauge("serve.cache.hit_ratio").value()
            << "},\n"
            << "  \"metrics\": " << obs::metrics().toJson() << ",\n"
            << "  \"points\": [\n";
        for (size_t i = 0; i < points.size(); i++) {
            const Point &pt = points[i];
            out << "    {\"sessions\": " << pt.sessions
                << ", \"wall_ms\": " << pt.wallMs
                << ", \"streams_per_sec\": " << pt.streamsPerSec
                << ", \"frames_per_sec\": " << pt.framesPerSec
                << ", \"frame_ms_p50\": " << pt.frameP50Ms
                << ", \"frame_ms_p99\": " << pt.frameP99Ms
                << ", \"verified_sessions\": " << pt.verified
                << ", \"outputs_match\": "
                << (pt.outputsMatch ? "true" : "false") << "}"
                << (i + 1 < points.size() ? "," : "") << "\n";
        }
        out << "  ]\n}\n";
    }
    if (!trace_path.empty()) {
        obs::trace().writeJson(trace_path);
        std::printf("trace (last sweep point, %llu events) written "
                    "to %s — load in Perfetto or chrome://tracing\n",
                    static_cast<unsigned long long>(
                        obs::trace().eventCount()),
                    trace_path.c_str());
    }
    return all_match ? 0 : 1;
}
