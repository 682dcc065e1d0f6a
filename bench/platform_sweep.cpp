/**
 * @file
 * Platform scenario sweep: the same two partitioned workloads — the
 * split Vorbis back-end (4 domains) and the split ray tracer (4
 * domains) — re-timed under each platform model in configs/. The
 * LIBDN synchronizers make link timing invisible to the computation,
 * so every scenario must reproduce the baseline outputs byte for
 * byte; only fpga_cycles (and the wall-clock cost of simulating
 * them) may move. That is the paper's portability claim in
 * executable form, and this bench fails (exit 1) if any scenario
 * breaks it.
 *
 * Scenarios: the built-in ml507 preset is the baseline; fast_fabric,
 * slow_bus and noc_mesh (see configs/) bracket it from both sides.
 * A final heterogeneous leg runs the split Vorbis under
 * het_onchip_offchip.config, whose topology section times SW<->HW
 * crossings as a slow off-chip bus while HW<->HW links stay on-chip
 * — and reports per-link occupancy to show the per-pair resolution
 * actually changes where cycles are charged.
 *
 * Usage: platform_sweep [--frames N] [--ray-size N] [--ray-prims N]
 *                       [--configs DIR] [--json FILE]
 * --configs points at the directory holding the scenario .config
 * files (default "configs", i.e. run from the repo root;
 * scripts/bench_report.py passes the absolute path).
 */
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_flags.hpp"
#include "platform/platform_spec.hpp"
#include "ray/partitions.hpp"
#include "vorbis/partitions.hpp"

using namespace bcl;
using namespace bcl::vorbis;

namespace {

/** One workload timed under one platform. */
struct WorkloadPoint
{
    std::uint64_t fpgaCycles = 0;
    std::uint64_t messages = 0;
    std::uint64_t channelWords = 0;
    double wallMs = 0;
    bool outputsMatch = true;
    std::vector<CoSim::LinkUsage> links;
};

struct Scenario
{
    std::string name;
    std::string source; ///< "preset" or the loaded config path
    PlatformSpec spec;
    WorkloadPoint vorbis, ray;
};

double
msSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

WorkloadPoint
runVorbisUnder(const PlatformSpec &plat, int frames,
               const std::vector<std::int32_t> *baseline_pcm,
               std::vector<std::int32_t> *pcm_out = nullptr)
{
    CosimConfig cfg;
    cfg.platform = plat;
    auto t0 = std::chrono::steady_clock::now();
    VorbisRunResult r = runVorbisConfig(splitVorbisConfig(), frames,
                                        &cfg);
    WorkloadPoint p;
    p.wallMs = msSince(t0);
    p.fpgaCycles = r.fpgaCycles;
    p.messages = r.messages;
    p.channelWords = r.channelWords;
    p.links = r.linkUsage;
    if (baseline_pcm)
        p.outputsMatch = r.pcm == *baseline_pcm;
    if (pcm_out)
        *pcm_out = r.pcm;
    return p;
}

WorkloadPoint
runRayUnder(const PlatformSpec &plat, int size, int prims,
            const std::vector<std::uint32_t> *baseline_px,
            std::vector<std::uint32_t> *px_out = nullptr)
{
    CosimConfig cfg;
    cfg.platform = plat;
    auto t0 = std::chrono::steady_clock::now();
    ray::RayRunResult r = ray::runRayConfig(
        ray::splitRayConfig(size, size), prims, &cfg);
    WorkloadPoint p;
    p.wallMs = msSince(t0);
    p.fpgaCycles = r.fpgaCycles;
    p.messages = r.messages;
    p.channelWords = r.channelWords;
    p.links = r.linkUsage;
    if (baseline_px)
        p.outputsMatch = r.pixels == *baseline_px;
    if (px_out)
        *px_out = r.pixels;
    return p;
}

void
writeLinks(std::ofstream &out, const std::vector<CoSim::LinkUsage> &ls,
           const char *indent)
{
    out << "[\n";
    for (size_t i = 0; i < ls.size(); i++) {
        const CoSim::LinkUsage &l = ls[i];
        out << indent << "  {\"from\": \"" << l.from << "\", \"to\": \""
            << l.to << "\", \"class\": \"" << l.linkClass
            << "\", \"busy_cycles\": " << l.busyCycles
            << ", \"grants\": " << l.grants << "}"
            << (i + 1 < ls.size() ? "," : "") << "\n";
    }
    out << indent << "]";
}

void
writePoint(std::ofstream &out, const WorkloadPoint &p,
           const WorkloadPoint &base)
{
    double ratio = base.fpgaCycles
                       ? static_cast<double>(p.fpgaCycles) /
                             static_cast<double>(base.fpgaCycles)
                       : 0;
    out << "{\"fpga_cycles\": " << p.fpgaCycles
        << ", \"messages\": " << p.messages
        << ", \"channel_words\": " << p.channelWords
        << ", \"wall_ms\": " << p.wallMs
        << ", \"outputs_match\": "
        << (p.outputsMatch ? "true" : "false")
        << ", \"vs_baseline\": {\"fpga_cycles_ratio\": " << ratio
        << "}}";
}

} // namespace

int
main(int argc, char **argv)
{
    int frames = 16;
    int ray_size = 10;
    int ray_prims = 64;
    std::string configs_dir = "configs";
    std::string json_path;
    bench::Flags("platform_sweep")
        .add("--frames", "N", "Vorbis frames per run", &frames, 1)
        .add("--ray-size", "N", "ray image width and height", &ray_size,
             1)
        .add("--ray-prims", "N", "spheres in the ray scene", &ray_prims,
             1)
        .add("--configs", "DIR", "directory of the scenario configs",
             &configs_dir)
        .add("--json", "FILE", "write the sweep as JSON", &json_path)
        .parse(argc, argv);

    std::vector<Scenario> scenarios;
    {
        Scenario base;
        base.name = "ml507";
        base.source = "preset";
        base.spec = PlatformSpec::ml507();
        scenarios.push_back(std::move(base));
    }
    for (const char *file :
         {"fast_fabric.config", "slow_bus.config", "noc_mesh.config"}) {
        Scenario s;
        s.source = configs_dir + "/" + file;
        s.spec = loadPlatformSpec(s.source);
        s.name = s.spec.name;
        scenarios.push_back(std::move(s));
    }

    printf("platform scenario sweep: vorbis split (%d frames), "
           "ray split (%dx%d, %d prims)\n",
           frames, ray_size, ray_size, ray_prims);
    printf("%-14s %14s %10s %12s %9s  %s\n", "scenario",
           "vorbis_cycles", "vs_base", "ray_cycles", "vs_base",
           "outputs");

    std::vector<std::int32_t> base_pcm;
    std::vector<std::uint32_t> base_px;
    bool all_match = true;
    for (size_t i = 0; i < scenarios.size(); i++) {
        Scenario &s = scenarios[i];
        if (i == 0) {
            s.vorbis = runVorbisUnder(s.spec, frames, nullptr,
                                      &base_pcm);
            s.ray = runRayUnder(s.spec, ray_size, ray_prims, nullptr,
                                &base_px);
        } else {
            s.vorbis = runVorbisUnder(s.spec, frames, &base_pcm);
            s.ray = runRayUnder(s.spec, ray_size, ray_prims, &base_px);
        }
        bool match = s.vorbis.outputsMatch && s.ray.outputsMatch;
        all_match = all_match && match;
        printf("%-14s %14llu %9.3fx %12llu %8.3fx  %s\n",
               s.name.c_str(),
               (unsigned long long)s.vorbis.fpgaCycles,
               (double)s.vorbis.fpgaCycles /
                   (double)scenarios[0].vorbis.fpgaCycles,
               (unsigned long long)s.ray.fpgaCycles,
               (double)s.ray.fpgaCycles /
                   (double)scenarios[0].ray.fpgaCycles,
               match ? "match" : "MISMATCH");
    }

    // Heterogeneous topology leg: same workload, but the platform's
    // topology section charges SW<->HW crossings to a slow off-chip
    // class while HW<->HW stays on-chip. Outputs must still match;
    // the per-link accounting must differ from the uniform baseline.
    std::string het_path = configs_dir + "/het_onchip_offchip.config";
    PlatformSpec het = loadPlatformSpec(het_path);
    WorkloadPoint het_pt = runVorbisUnder(het, frames, &base_pcm);
    all_match = all_match && het_pt.outputsMatch;
    bool occupancy_differs = false;
    {
        const std::vector<CoSim::LinkUsage> &base_links =
            scenarios[0].vorbis.links;
        for (const CoSim::LinkUsage &l : het_pt.links) {
            for (const CoSim::LinkUsage &b : base_links)
                if (b.from == l.from && b.to == l.to &&
                    (b.linkClass != l.linkClass ||
                     b.busyCycles != l.busyCycles))
                    occupancy_differs = true;
        }
    }
    printf("heterogeneous (%s): vorbis %llu cycles, outputs %s, "
           "per-link occupancy %s baseline\n",
           het.name.c_str(), (unsigned long long)het_pt.fpgaCycles,
           het_pt.outputsMatch ? "match" : "MISMATCH",
           occupancy_differs ? "differs from" : "IDENTICAL to");
    for (const CoSim::LinkUsage &l : het_pt.links)
        printf("  link %s->%s [%s]: busy %llu cycles over %llu "
               "grants\n",
               l.from.c_str(), l.to.c_str(), l.linkClass.c_str(),
               (unsigned long long)l.busyCycles,
               (unsigned long long)l.grants);

    if (!json_path.empty()) {
        std::ofstream out(json_path);
        out << "{\n  \"bench\": \"platform_sweep\",\n"
            << "  \"frames\": " << frames << ",\n"
            << "  \"ray_size\": " << ray_size << ",\n"
            << "  \"ray_prims\": " << ray_prims << ",\n"
            << "  \"scenarios\": [\n";
        for (size_t i = 0; i < scenarios.size(); i++) {
            const Scenario &s = scenarios[i];
            out << "    {\"name\": \"" << s.name << "\", \"source\": \""
                << s.source << "\",\n      \"vorbis\": ";
            writePoint(out, s.vorbis, scenarios[0].vorbis);
            out << ",\n      \"ray\": ";
            writePoint(out, s.ray, scenarios[0].ray);
            out << "}" << (i + 1 < scenarios.size() ? "," : "")
                << "\n";
        }
        out << "  ],\n  \"heterogeneous\": {\n    \"config\": \""
            << het_path << "\",\n    \"platform\": \"" << het.name
            << "\",\n    \"vorbis\": ";
        writePoint(out, het_pt, scenarios[0].vorbis);
        out << ",\n    \"links\": ";
        writeLinks(out, het_pt.links, "    ");
        out << ",\n    \"baseline_links\": ";
        writeLinks(out, scenarios[0].vorbis.links, "    ");
        out << ",\n    \"occupancy_differs\": "
            << (occupancy_differs ? "true" : "false")
            << "\n  }\n}\n";
        printf("wrote %s\n", json_path.c_str());
    }

    if (!all_match) {
        fprintf(stderr, "FAIL: a scenario changed workload outputs — "
                        "link timing must be semantics-preserving\n");
        return 1;
    }
    if (!occupancy_differs) {
        fprintf(stderr,
                "FAIL: heterogeneous topology did not change per-link "
                "occupancy accounting\n");
        return 1;
    }
    return 0;
}
