/**
 * @file
 * Executor matrix gate: every Vorbis partitioning (Figure 12's six
 * letters plus the per-stage split that puts IMDCT, IFFT and Window
 * in three separate hardware domains) and every ray-tracer
 * partitioning (Figure 14's four letters plus the per-engine split)
 * runs under the selected executor and is checked against the
 * in-thread interpreted run of the same partitioning on the same
 * platform. Outputs and rule fires must be byte-identical — the LIBDN
 * latency-insensitivity guarantee (section 4.4) is what lets the
 * hardware backend and the transport change without changing
 * results. Any MISMATCH row makes the exit status 1 (a CI gate).
 * When the selected executor is the reference itself, each row is
 * checked against a second reference run (run-to-run determinism).
 *
 * Usage: executor_matrix [--frames N] [--ray-size W] [--ray-prims N]
 *                        [--json FILE] [--trace FILE]
 *                        [--hw-backend interpreted|compiled]
 *                        [--transport inthread|shm|tcp]
 *                        [--platform FILE|PRESET]
 * Any other argument prints this usage and exits with status 2.
 * --hw-backend clocks the hardware domains with the interpreted
 * ClockSim (default) or the compiled clock edge. --transport places
 * hardware domains in-thread (default), in forked children over
 * shared-memory rings, or in forked children over framed loopback
 * TCP. --json emits one entry per workload (wall-clock of the timed
 * run, FPGA cycles, outputs_match, and a "metrics" object with its
 * per-channel traffic under the stable cosim.channel.* names) for
 * scripts/bench_report.py. --trace records the whole matrix as a
 * Chrome trace_event timeline (slice spans, channel flow arrows; use
 * small --frames/--ray-size — every message becomes two events).
 */
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <tuple>
#include <vector>

#include "bench_flags.hpp"
#include "common/stats.hpp"
#include "core/domains.hpp"
#include "obs/trace.hpp"
#include "platform/channel.hpp"
#include "platform/net_transport.hpp"
#include "platform/remote_partition.hpp"
#include "ray/partitions.hpp"
#include "serve/compile_cache.hpp"
#include "vorbis/partitions.hpp"

using namespace bcl;

namespace {

struct Row
{
    std::string name;
    int domains = 0;
    double wallMs = 0;
    std::uint64_t fpgaCycles = 0;
    bool outputsMatch = false;
    std::vector<std::pair<std::string, ChannelStats>> channelStats;
};

/**
 * One matrix row. @p run(golden) runs the workload once, golden = the
 * in-thread interpreted reference; @p oracle_of extracts what must
 * match it. A warm-up run precedes the timed one unless the reference
 * run already warmed the same configuration.
 */
template <typename RunFn, typename OracleOf>
Row
checkRow(const std::string &name, int domains, bool golden_differs,
         RunFn run, OracleOf oracle_of)
{
    const auto ref = oracle_of(run(true));
    if (golden_differs)
        run(false);
    auto t0 = std::chrono::steady_clock::now();
    auto r = run(false);
    auto t1 = std::chrono::steady_clock::now();
    Row row;
    row.name = name;
    row.domains = domains;
    row.wallMs =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    row.fpgaCycles = r.fpgaCycles;
    row.outputsMatch = oracle_of(r) == ref;
    row.channelStats = r.channelStats;
    return row;
}

void
writeJson(const std::string &path, const std::string &hw_backend,
          const std::string &transport, const std::string &platform,
          const std::vector<Row> &rows)
{
    std::ofstream out(path);
    out << "{\n  \"hw_backend\": \"" << hw_backend << "\",\n"
        << "  \"transport\": \"" << transport << "\",\n"
        << "  \"platform\": \"" << platform << "\",\n"
        << "  \"workloads\": [\n";
    for (size_t i = 0; i < rows.size(); i++) {
        const Row &w = rows[i];
        // Per-channel traffic under the stable names, via a private
        // registry so one workload's channels never bleed into
        // another's snapshot.
        obs::MetricsRegistry reg;
        reg.enable(true);
        for (const auto &[chan, st] : w.channelStats)
            snapshotChannelStats(reg, "cosim.channel." + chan, st);
        out << "    {\"name\": \"" << w.name
            << "\", \"domains\": " << w.domains
            << ", \"wall_ms\": " << w.wallMs
            << ", \"fpga_cycles\": " << w.fpgaCycles
            << ", \"outputs_match\": "
            << (w.outputsMatch ? "true" : "false")
            << ", \"metrics\": " << reg.toJson() << "}"
            << (i + 1 < rows.size() ? "," : "") << "\n";
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
    PlatformSpec plat = PlatformSpec::ml507();
    bench::Flags("executor_matrix")
        .add("--frames", "N", "Vorbis frames per run", &frames, 1)
        .add("--ray-size", "W", "ray image width and height", &ray_size,
             1)
        .add("--ray-prims", "N", "spheres in the ray scene", &ray_prims,
             1)
        .add("--json", "FILE", "write the matrix as JSON", &json_path)
        .add("--trace", "FILE", "record a Chrome trace", &trace_path)
        .add("--hw-backend", {"interpreted", "compiled"},
             "how hardware domains are clocked", &hw_backend)
        .add("--transport", {"inthread", "shm", "tcp"},
             "where hardware domains run", &transport)
        .addPlatform(&plat)
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
        tkind = TransportKind::SharedMem;
    }
    const bool golden_differs =
        tkind != TransportKind::InThread || hw_backend == "compiled";

    if (!trace_path.empty())
        obs::trace().enable(true);

    std::printf("== Executor matrix ==\n");
    std::printf("vorbis frames: %d; ray: %dx%d/%d prims; hw backend: "
                "%s; transport: %s; platform: %s\n\n",
                frames, ray_size, ray_size, ray_prims,
                hw_backend.c_str(), transportName(tkind),
                plat.name.c_str());

    // One cache serves the whole matrix: a partition's clock-edge
    // artifact is compiled once and shared by its warm-up and timed
    // runs.
    serve::CompileCache cache;
    auto config = [&](bool golden) {
        CosimConfig cfg;
        cfg.platform = plat;
        if (golden)
            return cfg;
        cfg.defaultTransport = tkind;
        cfg.transportTimeoutMs = 60000;
        if (hw_backend == "compiled") {
            cfg.hwBackend = HwBackend::Compiled;
            cfg.compileProvider = [&cache](const ElabProgram &p,
                                           const GenccOptions &o) {
                return cache.get(p, o);
            };
        }
        return cfg;
    };

    std::vector<Row> rows;

    // --- Vorbis ---------------------------------------------------------
    std::vector<std::pair<std::string, vorbis::VorbisConfig>> vcfgs;
    for (vorbis::VorbisPartition p : vorbis::allVorbisPartitions()) {
        vcfgs.emplace_back(
            std::string("vorbis_") + vorbis::partitionName(p),
            vorbis::partitionConfig(p));
    }
    vcfgs.emplace_back("vorbis_split", vorbis::splitVorbisConfig());
    for (const auto &[name, vcfg] : vcfgs) {
        const int domains =
            1 + static_cast<int>(
                    distinctHwDomains(
                        {vcfg.imdctDom, vcfg.ifftDom, vcfg.winDom})
                        .size());
        rows.push_back(checkRow(
            name, domains, golden_differs,
            [&](bool golden) {
                CosimConfig cfg = config(golden);
                return vorbis::runVorbisConfig(vcfg, frames, &cfg);
            },
            [](const vorbis::VorbisRunResult &r) {
                return std::make_tuple(r.pcm, r.swRulesFired,
                                       r.hwRuleFires);
            }));
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
        const int domains =
            1 + static_cast<int>(
                    distinctHwDomains(
                        {rcfg.travDom, rcfg.boxDom, rcfg.geomDom})
                        .size());
        rows.push_back(checkRow(
            name, domains, golden_differs,
            [&](bool golden) {
                CosimConfig cfg = config(golden);
                return ray::runRayConfig(rcfg, ray_prims, &cfg);
            },
            [](const ray::RayRunResult &r) {
                return std::make_tuple(r.pixels, r.hwRuleFires);
            }));
    }

    // --- report ---------------------------------------------------------
    TextTable table;
    table.header({"workload", "domains", "wall ms", "FPGA cycles",
                  "outputs"});
    bool all_match = true;
    for (const Row &r : rows) {
        all_match &= r.outputsMatch;
        table.row({r.name, std::to_string(r.domains),
                   fixedDecimal(r.wallMs, 2),
                   std::to_string(r.fpgaCycles),
                   r.outputsMatch ? "match" : "MISMATCH"});
    }
    std::printf("%s\n", table.str().c_str());
    std::printf("outputs and rule fires byte-identical to the in-thread "
                "interpreted reference: %s\n",
                all_match ? "yes" : "NO — LIBDN VIOLATION");

    if (!json_path.empty())
        writeJson(json_path, hw_backend, transportName(tkind),
                  plat.name, rows);
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
