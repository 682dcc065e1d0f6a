/**
 * @file
 * Regenerates the section 7.1 analysis: "in order for the net speedup
 * from moving a module from SW to HW to be positive, the speedup
 * observed in the module itself must outweigh the cost of the
 * communication."
 *
 * Sweeps the software-side per-message driver cost (the dominant
 * communication term) and reports where each hardware partition of
 * the Vorbis back-end crosses the full-software baseline - the
 * design-space exploration that BCL makes a one-line change.
 *
 * Also measures the hardware-backend comparison: the full-hardware
 * Vorbis (E) and ray-tracer (C) partitions and the ray split (one
 * hardware domain per engine, HWT/HWX/HWG, whose many small channel
 * messages stress the mirror sync) clocked by the interpreted
 * ClockSim versus the compiled clock-edge backend
 * (hwsim/compiled_hw.hpp). The two are cycle-exact against each
 * other, so the frontier above is backend-invariant; what the
 * compiled backend buys is simulated-FPGA-cycles per wall-clock
 * second, reported per backend with byte-equality of outputs and
 * cycle counts verified in-process.
 *
 * Usage: partition_sweep [--frames N] [--compare-frames N]
 *                        [--ray-size W] [--ray-prims P]
 *                        [--hw-backend interpreted|compiled]
 *                        [--json FILE] [--platform FILE|PRESET]
 * --frames drives the frontier sweep; --compare-frames (default 256)
 * drives the backend comparison, which needs enough simulated cycles
 * to amortize the fixed elaborate-and-partition setup each run pays.
 * --hw-backend selects the backend executing the frontier sweep
 * (default interpreted; the frontier's cycle counts are identical
 * either way). --json emits the frontier plus the
 * "hw_backend_compare" section scripts/bench_report.py folds into
 * BENCH_runtime.json. --platform times the whole sweep under a
 * loaded platform model, so the Fig. 13 frontier can be emitted per
 * scenario (the partition-autotuner axis: "best partition on WHICH
 * platform").
 */
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_flags.hpp"
#include "common/stats.hpp"
#include "platform/platform_spec.hpp"
#include "ray/partitions.hpp"
#include "serve/compile_cache.hpp"
#include "vorbis/partitions.hpp"

using namespace bcl;
using namespace bcl::vorbis;

namespace {

/** One backend's timed pass over a workload. */
struct BackendPoint
{
    double wallMs = 0;
    std::uint64_t fpgaCycles = 0;
    std::uint64_t hwRuleFires = 0;

    double
    cyclesPerSec() const
    {
        return wallMs > 0 ? static_cast<double>(fpgaCycles) /
                                (wallMs / 1000.0)
                          : 0;
    }
};

/** Interpreted-vs-compiled result for one full-HW workload. */
struct BackendCompare
{
    std::string name;
    BackendPoint interp, comp;
    bool compiledAvailable = false;
    bool outputsMatch = true;
    bool cyclesMatch = true;

    /** Simulated-FPGA-cycle rate ratio, compiled over interpreted. */
    double
    speedup() const
    {
        return interp.cyclesPerSec() > 0
                   ? comp.cyclesPerSec() / interp.cyclesPerSec()
                   : 0;
    }
};

/** Run @p fn once for warm-up (which also compiles into @p cache when
 *  the config asks for the compiled backend) and once timed. */
template <typename Fn>
auto
timedRun(Fn fn, double &wall_ms)
{
    fn();
    auto t0 = std::chrono::steady_clock::now();
    auto r = fn();
    auto t1 = std::chrono::steady_clock::now();
    wall_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    return r;
}

/** Base config for the backend comparison: both runs compile the
 *  software partition (sharing @p cache) so the wall-clock delta
 *  isolates the hardware clock — on full-HW Vorbis the interpreted
 *  software driver would otherwise dominate both sides. */
CosimConfig
compareBase(serve::CompileCache &cache)
{
    CosimConfig cfg;
    if (CompiledPartition::hostCompilerAvailable())
        cfg.swBackend = SwBackend::Compiled;
    cfg.compileProvider = [&cache](const ElabProgram &p,
                                   const GenccOptions &o) {
        return cache.get(p, o);
    };
    return cfg;
}

BackendCompare
compareVorbisE(int frames, serve::CompileCache &cache)
{
    BackendCompare cmp;
    cmp.name = "vorbis_E";
    VorbisConfig vcfg = partitionConfig(VorbisPartition::E);

    CosimConfig icfg = compareBase(cache);
    VorbisRunResult ri = timedRun(
        [&] { return runVorbisConfig(vcfg, frames, &icfg); },
        cmp.interp.wallMs);
    cmp.interp.fpgaCycles = ri.fpgaCycles;
    cmp.interp.hwRuleFires = ri.hwRuleFires;

    if (!CompiledHwPartition::hostCompilerAvailable())
        return cmp;
    cmp.compiledAvailable = true;
    CosimConfig ccfg = compareBase(cache);
    ccfg.hwBackend = HwBackend::Compiled;
    VorbisRunResult rc = timedRun(
        [&] { return runVorbisConfig(vcfg, frames, &ccfg); },
        cmp.comp.wallMs);
    cmp.comp.fpgaCycles = rc.fpgaCycles;
    cmp.comp.hwRuleFires = rc.hwRuleFires;
    cmp.outputsMatch = rc.pcm == ri.pcm;
    cmp.cyclesMatch = rc.fpgaCycles == ri.fpgaCycles &&
                      rc.hwRuleFires == ri.hwRuleFires;
    return cmp;
}

BackendCompare
compareRay(const std::string &name, const ray::RayConfig &rcfg,
           int prims, serve::CompileCache &cache)
{
    BackendCompare cmp;
    cmp.name = name;

    // The ray driver's software side is a few cheap rules, so the
    // interpreted SW runtime is kept on both sides here (the ray
    // programs are not compiled-SW capable; the hardware clock still
    // dominates the wall-clock).
    CosimConfig icfg;
    ray::RayRunResult ri = timedRun(
        [&] { return ray::runRayConfig(rcfg, prims, &icfg); },
        cmp.interp.wallMs);
    cmp.interp.fpgaCycles = ri.fpgaCycles;
    cmp.interp.hwRuleFires = ri.hwRuleFires;

    if (!CompiledHwPartition::hostCompilerAvailable())
        return cmp;
    cmp.compiledAvailable = true;
    CosimConfig ccfg;
    ccfg.hwBackend = HwBackend::Compiled;
    ccfg.compileProvider = [&cache](const ElabProgram &p,
                                    const GenccOptions &o) {
        return cache.get(p, o);
    };
    ray::RayRunResult rc = timedRun(
        [&] { return ray::runRayConfig(rcfg, prims, &ccfg); },
        cmp.comp.wallMs);
    cmp.comp.fpgaCycles = rc.fpgaCycles;
    cmp.comp.hwRuleFires = rc.hwRuleFires;
    cmp.outputsMatch = rc.pixels == ri.pixels;
    cmp.cyclesMatch = rc.fpgaCycles == ri.fpgaCycles &&
                      rc.hwRuleFires == ri.hwRuleFires;
    return cmp;
}

/** One frontier cell: a partition's cycles at one message cost. */
struct FrontierCell
{
    std::string partition;
    std::uint64_t fpgaCycles = 0;
    std::uint64_t messages = 0;
};

struct FrontierRow
{
    std::uint64_t msgCost = 0;
    std::vector<FrontierCell> cells;  // F first, then A..E
};

void
writeJson(const std::string &path, int frames, int cmp_frames,
          const std::string &sweep_backend,
          const std::string &platform,
          const std::vector<FrontierRow> &rows,
          const std::vector<BackendCompare> &compares)
{
    std::ofstream out(path);
    out << "{\n  \"bench\": \"partition_sweep\",\n"
        << "  \"platform\": \"" << platform << "\",\n"
        << "  \"frames\": " << frames << ",\n"
        << "  \"compare_frames\": " << cmp_frames << ",\n"
        << "  \"hardware_concurrency\": "
        << std::thread::hardware_concurrency() << ",\n"
        << "  \"sweep_hw_backend\": \"" << sweep_backend << "\",\n"
        << "  \"frontier\": [\n";
    for (size_t i = 0; i < rows.size(); i++) {
        const FrontierRow &row = rows[i];
        out << "    {\"sync_msg_cost\": " << row.msgCost
            << ", \"partitions\": {";
        for (size_t j = 0; j < row.cells.size(); j++) {
            const FrontierCell &c = row.cells[j];
            double ratio =
                static_cast<double>(c.fpgaCycles) /
                static_cast<double>(row.cells[0].fpgaCycles);
            out << (j ? ", " : "") << "\"" << c.partition
                << "\": {\"fpga_cycles\": " << c.fpgaCycles
                << ", \"messages\": " << c.messages
                << ", \"vs_F\": " << ratio << "}";
        }
        out << "}}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"hw_backend_compare\": {\n";
    for (size_t i = 0; i < compares.size(); i++) {
        const BackendCompare &c = compares[i];
        out << "    \"" << c.name << "\": {\n"
            << "      \"interpreted\": {\"wall_ms\": "
            << c.interp.wallMs
            << ", \"fpga_cycles\": " << c.interp.fpgaCycles
            << ", \"hw_rule_fires\": " << c.interp.hwRuleFires
            << ", \"cycles_per_sec\": " << c.interp.cyclesPerSec()
            << "},\n";
        if (c.compiledAvailable) {
            out << "      \"compiled\": {\"wall_ms\": "
                << c.comp.wallMs
                << ", \"fpga_cycles\": " << c.comp.fpgaCycles
                << ", \"hw_rule_fires\": " << c.comp.hwRuleFires
                << ", \"cycles_per_sec\": " << c.comp.cyclesPerSec()
                << "},\n"
                << "      \"speedup\": " << c.speedup() << ",\n"
                << "      \"outputs_match\": "
                << (c.outputsMatch ? "true" : "false") << ",\n"
                << "      \"cycles_match\": "
                << (c.cyclesMatch ? "true" : "false") << "\n";
        } else {
            out << "      \"compiled\": null\n";
        }
        out << "    }" << (i + 1 < compares.size() ? "," : "")
            << "\n";
    }
    out << "  }\n}\n";
    std::printf("wrote %s\n", path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    int frames = 32;
    int cmp_frames = 256;
    int ray_size = 12;
    int ray_prims = 64;
    std::string hw_backend = "interpreted";
    std::string json_path;
    CosimConfig base;
    bench::Flags("partition_sweep")
        .add("--frames", "N", "Vorbis frames of the frontier sweep",
             &frames, 1)
        .add("--compare-frames", "N",
             "Vorbis frames of the backend comparison", &cmp_frames, 1)
        .add("--ray-size", "W", "ray image width and height", &ray_size,
             1)
        .add("--ray-prims", "P", "spheres in the ray scene", &ray_prims,
             1)
        .add("--hw-backend", {"interpreted", "compiled"},
             "backend of the frontier sweep", &hw_backend)
        .add("--json", "FILE", "write the sweep as JSON", &json_path)
        .addPlatform(&base.platform)
        .parse(argc, argv);

    serve::CompileCache cache;
    if (hw_backend == "compiled" &&
        !CompiledHwPartition::hostCompilerAvailable()) {
        std::printf("no host C++ compiler — frontier sweep falling "
                    "back to the interpreted hardware backend\n");
        hw_backend = "interpreted";
    }

    std::printf("== Section 7.1: communication cost vs partition "
                "choice (Vorbis, %d frames, %s hw backend, %s "
                "platform) ==\n\n",
                frames, hw_backend.c_str(),
                base.platform.name.c_str());

    if (hw_backend == "compiled") {
        base.hwBackend = HwBackend::Compiled;
        base.compileProvider = [&cache](const ElabProgram &p,
                                        const GenccOptions &o) {
            return cache.get(p, o);
        };
    }

    std::vector<FrontierRow> rows;
    TextTable table;
    table.header({"sync msg cost (work)", "A/F", "B/F", "C/F", "D/F",
                  "E/F"});
    for (std::uint64_t msg_cost : {0ull, 700ull, 1400ull, 2800ull,
                                   5600ull}) {
        CosimConfig cfg = base;
        cfg.swCosts.perSyncMessage = msg_cost;
        FrontierRow row;
        row.msgCost = msg_cost;
        VorbisRunResult fr =
            runVorbisPartition(VorbisPartition::F, frames, &cfg);
        row.cells.push_back({"F", fr.fpgaCycles, fr.messages});
        std::vector<std::string> trow = {std::to_string(msg_cost)};
        for (VorbisPartition p :
             {VorbisPartition::A, VorbisPartition::B,
              VorbisPartition::C, VorbisPartition::D,
              VorbisPartition::E}) {
            VorbisRunResult r = runVorbisPartition(p, frames, &cfg);
            row.cells.push_back(
                {partitionName(p), r.fpgaCycles, r.messages});
            trow.push_back(fixedDecimal(
                static_cast<double>(r.fpgaCycles) /
                    static_cast<double>(fr.fpgaCycles),
                3));
        }
        rows.push_back(std::move(row));
        table.row(std::move(trow));
    }
    std::printf("%s\n", table.str().c_str());
    std::printf("reading: ratios < 1 mean the partition beats full "
                "software. As communication gets\n"
                "costlier, first C, then B flip from wins to losses "
                "(A was never worth it; D and E\n"
                "amortize their two crossings per frame over the "
                "whole back-end's compute).\n\n");

    // --- hardware-backend comparison (Vorbis E, ray C, ray split) --------
    std::vector<BackendCompare> compares;
    compares.push_back(compareVorbisE(cmp_frames, cache));
    compares.push_back(compareRay(
        "ray_C",
        ray::rayPartitionConfig(ray::RayPartition::C, ray_size,
                                ray_size),
        ray_prims, cache));
    compares.push_back(compareRay(
        "ray_split", ray::splitRayConfig(ray_size, ray_size), ray_prims,
        cache));

    std::printf("== Hardware backend: interpreted ClockSim vs "
                "compiled clock edge ==\n\n");
    TextTable hwt;
    hwt.header({"workload", "backend", "wall ms", "FPGA cycles",
                "cycles/sec", "speedup", "identical"});
    bool all_exact = true;
    for (const BackendCompare &c : compares) {
        hwt.row({c.name, "interpreted",
                 fixedDecimal(c.interp.wallMs, 2),
                 withCommas(c.interp.fpgaCycles),
                 withCommas(static_cast<std::uint64_t>(
                     c.interp.cyclesPerSec())),
                 "1.00", "-"});
        if (!c.compiledAvailable) {
            hwt.row({c.name, "compiled", "(no host compiler)", "-",
                     "-", "-", "-"});
            continue;
        }
        bool exact = c.outputsMatch && c.cyclesMatch;
        all_exact &= exact;
        hwt.row({c.name, "compiled", fixedDecimal(c.comp.wallMs, 2),
                 withCommas(c.comp.fpgaCycles),
                 withCommas(static_cast<std::uint64_t>(
                     c.comp.cyclesPerSec())),
                 fixedDecimal(c.speedup(), 2),
                 exact ? "yes" : "NO — DIVERGED"});
    }
    std::printf("%s\n", hwt.str().c_str());
    std::printf("identical = outputs, cycle counts and per-domain "
                "firing totals byte-equal across backends\n");

    if (!json_path.empty())
        writeJson(json_path, frames, cmp_frames, hw_backend,
                  base.platform.name, rows, compares);
    return all_exact ? 0 : 1;
}
