/**
 * @file
 * Parallel co-simulation scaling sweep: every Vorbis partitioning
 * (Figure 12's six letters plus the per-stage split that puts IMDCT,
 * IFFT and Window in three separate hardware domains) and every
 * ray-tracer partitioning (Figure 14's four letters plus the
 * per-engine split) is run under CosimConfig::threads in {1, 2, ...,
 * hardware_concurrency}, measuring wall-clock per run and verifying
 * that outputs are byte-identical to the threads=1 run — the LIBDN
 * latency-insensitivity guarantee is what licenses running domains
 * concurrently at all (section 4.4).
 *
 * The lettered partitionings have two domains, so their speedup caps
 * near 1x (plus barrier overhead); the split configurations have four
 * domains and are the scaling workloads. Speedups are physical — on a
 * single-core host every configuration reports ~1x and the sweep
 * degenerates to a correctness + overhead measurement (the recorded
 * hardware_concurrency says which regime produced the numbers).
 *
 * Usage: cosim_parallel [--frames N] [--ray-size W] [--ray-prims N]
 *                       [--json FILE] [--trace FILE]
 *                       [--hw-backend interpreted|compiled]
 *                       [--transport inthread|shm|tcp]
 *                       [--platform FILE|PRESET]
 * Any other argument prints this usage and exits with status 2.
 * --json emits the sweep for scripts/bench_report.py to fold into
 * BENCH_runtime.json; each workload entry carries a "metrics" object
 * (per-channel traffic of its threads=1 run under the stable
 * cosim.channel.* names). --trace records the whole sweep as a
 * Chrome trace_event timeline (epoch spans, per-domain worker
 * slices, channel flow arrows; use small --frames/--ray-size — every
 * message becomes two events). --hw-backend clocks the hardware
 * domains with the interpreted ClockSim (default) or the compiled
 * clock edge; outputs and cycle counts are identical either way.
 * --transport places hardware domains in-thread (default), in forked
 * children over shared-memory rings, or in forked children over
 * framed loopback TCP; remote transports force the sequential engine
 * so the sweep degenerates to threads=1 and measures the relay
 * overhead per transport (outputs stay byte-identical — the same
 * §4.4 license).
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
#include "core/domains.hpp"
#include "obs/trace.hpp"
#include "platform/channel.hpp"
#include "platform/net_transport.hpp"
#include "platform/platform_spec.hpp"
#include "platform/remote_partition.hpp"
#include "ray/partitions.hpp"
#include "serve/compile_cache.hpp"
#include "vorbis/partitions.hpp"

using namespace bcl;

namespace {

struct RunPoint
{
    int threads = 0;
    double wallMs = 0;
    std::uint64_t fpgaCycles = 0;
    bool outputsMatch = true;
};

struct WorkloadResult
{
    std::string name;
    int domains = 0;
    std::vector<RunPoint> runs;
    /** Per-channel traffic of the threads=1 run (the baseline every
     *  other run must match bit-for-bit anyway). */
    std::vector<std::pair<std::string, ChannelStats>> channelStats;

    double
    speedupAt(int threads) const
    {
        double base = 0, at = 0;
        for (const RunPoint &r : runs) {
            if (r.threads == 1)
                base = r.wallMs;
            if (r.threads == threads)
                at = r.wallMs;
        }
        return (base > 0 && at > 0) ? base / at : 0;
    }

    /** Best speedup among threads>1 runs — the threads=1 baseline is
     *  excluded so a parallel-engine slowdown reads as < 1 instead
     *  of being floored at 1.0. */
    double
    bestSpeedup() const
    {
        double best = 0;
        for (const RunPoint &r : runs) {
            if (r.threads > 1)
                best = std::max(best, speedupAt(r.threads));
        }
        return best;
    }
};

std::vector<int>
threadSweep(bool remote)
{
    // Remote transports force the sequential engine, so only the
    // threads=1 point is meaningful: the sweep then measures per-
    // transport relay cost, not parallel scaling.
    if (remote)
        return {1};
    unsigned hc = std::thread::hardware_concurrency();
    std::vector<int> sweep{1, 2};
    for (int t = 4; t <= static_cast<int>(hc); t *= 2)
        sweep.push_back(t);
    if (hc > 2 &&
        std::find(sweep.begin(), sweep.end(), static_cast<int>(hc)) ==
            sweep.end())
        sweep.push_back(static_cast<int>(hc));
    return sweep;
}

/** Distinct domains of a vorbis config ("SW" + its HW domains). */
int
vorbisDomains(const vorbis::VorbisConfig &cfg)
{
    return 1 + static_cast<int>(
                   distinctHwDomains(
                       {cfg.imdctDom, cfg.ifftDom, cfg.winDom})
                       .size());
}

int
rayDomains(const ray::RayConfig &cfg)
{
    return 1 + static_cast<int>(
                   distinctHwDomains(
                       {cfg.travDom, cfg.boxDom, cfg.geomDom})
                       .size());
}

template <typename RunFn, typename OutputOf>
WorkloadResult
sweepWorkload(const std::string &name, int domains,
              const std::vector<int> &sweep, RunFn run,
              OutputOf output_of)
{
    WorkloadResult res;
    res.name = name;
    res.domains = domains;
    bool have_ref = false;
    decltype(output_of(run(1))) ref{};
    for (int threads : sweep) {
        // Warm-up pass (allocator, code paths), then the timed pass.
        run(threads);
        auto t0 = std::chrono::steady_clock::now();
        auto r = run(threads);
        auto t1 = std::chrono::steady_clock::now();
        RunPoint pt;
        pt.threads = threads;
        pt.wallMs =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        pt.fpgaCycles = r.fpgaCycles;
        if (!have_ref) {
            ref = output_of(r);
            res.channelStats = r.channelStats;
            have_ref = true;
        } else {
            pt.outputsMatch = output_of(r) == ref;
        }
        res.runs.push_back(pt);
    }
    return res;
}

void
writeJson(const std::string &path, const std::string &hw_backend,
          const std::string &transport,
          const std::vector<WorkloadResult> &results)
{
    std::ofstream out(path);
    out << "{\n  \"hardware_concurrency\": "
        << std::thread::hardware_concurrency() << ",\n"
        << "  \"hw_backend\": \"" << hw_backend << "\",\n"
        << "  \"transport\": \"" << transport << "\",\n"
        << "  \"workloads\": [\n";
    for (size_t i = 0; i < results.size(); i++) {
        const WorkloadResult &w = results[i];
        out << "    {\"name\": \"" << w.name
            << "\", \"domains\": " << w.domains << ", \"runs\": [";
        for (size_t j = 0; j < w.runs.size(); j++) {
            const RunPoint &r = w.runs[j];
            out << (j ? ", " : "") << "{\"threads\": " << r.threads
                << ", \"wall_ms\": " << r.wallMs
                << ", \"fpga_cycles\": " << r.fpgaCycles
                << ", \"outputs_match\": "
                << (r.outputsMatch ? "true" : "false") << "}";
        }
        // Per-channel traffic under the stable names, via a private
        // registry so one workload's channels never bleed into
        // another's snapshot.
        obs::MetricsRegistry reg;
        reg.enable(true);
        for (const auto &[chan, st] : w.channelStats)
            snapshotChannelStats(reg, "cosim.channel." + chan, st);
        out << "], \"metrics\": " << reg.toJson()
            << ", \"best_speedup\": " << w.bestSpeedup() << "}"
            << (i + 1 < results.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    int frames = 16;
    int ray_size = 10;
    int ray_prims = 64;
    std::string json_path;
    std::string trace_path;
    std::string hw_backend = "interpreted";
    std::string transport = "inthread";
    std::string platform_arg;
    bench::Flags("cosim_parallel")
        .add("--frames", "N", "Vorbis frames per run", &frames)
        .add("--ray-size", "W", "ray image width and height", &ray_size)
        .add("--ray-prims", "N", "spheres in the ray scene", &ray_prims)
        .add("--json", "FILE", "write the sweep as JSON", &json_path)
        .add("--trace", "FILE", "record a Chrome trace", &trace_path)
        .add("--hw-backend", {"interpreted", "compiled"},
             "how hardware domains are clocked", &hw_backend)
        .add("--transport", {"inthread", "shm", "tcp"},
             "where hardware domains run", &transport)
        .add("--platform", "FILE|PRESET", "platform model",
             &platform_arg)
        .parse(argc, argv);
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
    const bool remote = tkind != TransportKind::InThread;

    if (!trace_path.empty()) {
        obs::trace().enable(true);
        obs::metrics().enable(true);  // epoch wall-time histogram
    }

    std::printf("== Parallel co-simulation scaling sweep ==\n");
    std::printf("hardware_concurrency: %u; vorbis frames: %d; "
                "ray: %dx%d/%d prims; hw backend: %s; transport: "
                "%s\n\n",
                std::thread::hardware_concurrency(), frames, ray_size,
                ray_size, ray_prims, hw_backend.c_str(),
                transportName(tkind));

    // One cache serves the whole sweep: a partition's clock-edge
    // artifact is compiled once and shared across every thread count.
    serve::CompileCache cache;
    // Resolve --platform once; every sweep point shares the model.
    const PlatformSpec plat = platform_arg.empty()
                                  ? PlatformSpec::ml507()
                                  : resolvePlatform(platform_arg);
    auto apply_hw = [&](CosimConfig &cfg) {
        cfg.platform = plat;
        cfg.defaultTransport = tkind;
        cfg.transportTimeoutMs = 60000;
        if (hw_backend != "compiled")
            return;
        cfg.hwBackend = HwBackend::Compiled;
        cfg.compileProvider = [&cache](const ElabProgram &p,
                                       const GenccOptions &o) {
            return cache.get(p, o);
        };
    };

    std::vector<WorkloadResult> results;

    // --- Vorbis ---------------------------------------------------------
    std::vector<std::pair<std::string, vorbis::VorbisConfig>> vcfgs;
    for (vorbis::VorbisPartition p : vorbis::allVorbisPartitions()) {
        vcfgs.emplace_back(
            std::string("vorbis_") + vorbis::partitionName(p),
            vorbis::partitionConfig(p));
    }
    vcfgs.emplace_back("vorbis_split", vorbis::splitVorbisConfig());

    for (const auto &[name, vcfg] : vcfgs) {
        results.push_back(sweepWorkload(
            name, vorbisDomains(vcfg), threadSweep(remote),
            [&](int threads) {
                CosimConfig cfg;
                cfg.threads = threads;
                apply_hw(cfg);
                return vorbis::runVorbisConfig(vcfg, frames, &cfg);
            },
            [](const vorbis::VorbisRunResult &r) { return r.pcm; }));
    }

    // --- Ray tracer -----------------------------------------------------
    std::vector<std::pair<std::string, ray::RayConfig>> rcfgs;
    for (ray::RayPartition p : ray::allRayPartitions()) {
        rcfgs.emplace_back(
            std::string("ray_") + ray::rayPartitionName(p),
            ray::rayPartitionConfig(p, ray_size, ray_size));
    }
    rcfgs.emplace_back("ray_split",
                       ray::splitRayConfig(ray_size, ray_size));

    for (const auto &[name, rcfg] : rcfgs) {
        results.push_back(sweepWorkload(
            name, rayDomains(rcfg), threadSweep(remote),
            [&](int threads) {
                CosimConfig cfg;
                cfg.threads = threads;
                apply_hw(cfg);
                return ray::runRayConfig(rcfg, ray_prims, &cfg);
            },
            [](const ray::RayRunResult &r) { return r.pixels; }));
    }

    // --- report ---------------------------------------------------------
    TextTable table;
    table.header({"workload", "domains", "threads", "wall ms",
                  "speedup", "outputs"});
    bool all_match = true;
    for (const WorkloadResult &w : results) {
        for (const RunPoint &r : w.runs) {
            all_match &= r.outputsMatch;
            table.row({w.name, std::to_string(w.domains),
                       std::to_string(r.threads),
                       fixedDecimal(r.wallMs, 2),
                       fixedDecimal(w.speedupAt(r.threads), 2),
                       r.outputsMatch ? "match" : "MISMATCH"});
        }
    }
    std::printf("%s\n", table.str().c_str());
    std::printf("outputs byte-identical across all thread counts: "
                "%s\n",
                all_match ? "yes" : "NO — LIBDN VIOLATION");

    if (!json_path.empty())
        writeJson(json_path, hw_backend, transportName(tkind),
                  results);
    if (!trace_path.empty()) {
        obs::trace().writeJson(trace_path);
        std::printf("trace (%llu events) written to %s — load in "
                    "Perfetto or chrome://tracing\n",
                    static_cast<unsigned long long>(
                        obs::trace().eventCount()),
                    trace_path.c_str());
    }
    return all_match ? 0 : 1;
}
