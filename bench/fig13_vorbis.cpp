/**
 * @file
 * Regenerates Figure 13 (left) of the paper: execution times of the
 * Ogg Vorbis back-end under the six HW/SW partitions of Figure 12,
 * plus the two baselines F1 (SystemC) and F2 (hand-written C++), all
 * reported in FPGA cycles.
 *
 * Expected shape (the paper's findings, section 7.1):
 *   - the slowest partition is NOT the full-software one (F);
 *     partitions A (Window in HW) and C (IFFT+Window in HW) are both
 *     slightly slower than F, because the communication cost
 *     outweighs the compute moved,
 *   - moving only the IFFT to HW (B) has a marginal effect, because
 *     the IMDCT FSMs invoke the IFFT repeatedly per frame,
 *   - D and E are substantially faster; E (full HW back-end) wins,
 *   - F1 (SystemC) is roughly 3x slower than F; F2 (manual C++) is
 *     slightly faster than F.
 *
 * Usage: fig13_vorbis [--frames N] [--json FILE]
 *                     [--hw-backend interpreted|compiled]
 *                     [--platform FILE|PRESET]
 * (default 512 frames; the paper used a 10000-frame test bench -
 * pass --frames 10000 to match). --json additionally writes
 * machine-readable metrics for the full-software partition —
 * wall-clock ns/frame, modeled work units, rules fired per second —
 * which scripts/bench_report.py folds into BENCH_runtime.json (the
 * perf-trajectory artifact; see docs/EXPERIMENTS.md). --hw-backend
 * selects the clock for the hardware partitions (compiled runs the
 * codegen'd clock edge; cycle counts and PCM are identical either
 * way, so the figure itself is backend-invariant).
 */
#include <chrono>
#include <cstdio>
#include <string>

#include "bench_flags.hpp"
#include "common/logging.hpp"
#include "common/stats.hpp"
#include "platform/platform_spec.hpp"
#include "serve/compile_cache.hpp"
#include "vorbis/native.hpp"
#include "vorbis/partitions.hpp"
#include "vorbis/sysc_backend.hpp"

using namespace bcl;
using namespace bcl::vorbis;

namespace {

/** Wall-clock + modeled metrics of the full-SW partition. */
struct FullSwTiming
{
    double wallNs = 0;
    VorbisRunResult run;
};

FullSwTiming
timeFullSw(int frames, const CosimConfig &cfg)
{
    // One warm-up run keeps allocator/page-fault noise out of the
    // measured pass.
    runVorbisPartition(VorbisPartition::F, frames > 8 ? 8 : frames,
                       &cfg);
    FullSwTiming t;
    auto t0 = std::chrono::steady_clock::now();
    t.run = runVorbisPartition(VorbisPartition::F, frames, &cfg);
    auto t1 = std::chrono::steady_clock::now();
    t.wallNs =
        std::chrono::duration<double, std::nano>(t1 - t0).count();
    return t;
}

void
writeJson(const std::string &path, int frames,
          const std::string &hw_backend, const FullSwTiming &t,
          const std::vector<std::pair<std::string, VorbisRunResult>>
              &partitions,
          bool all_match)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        fatal("cannot write " + path);
    const VorbisRunResult &r = t.run;
    double secs = t.wallNs / 1e9;
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"fig13_vorbis\",\n");
    std::fprintf(f, "  \"frames\": %d,\n", frames);
    std::fprintf(f, "  \"hw_backend\": \"%s\",\n",
                 hw_backend.c_str());
    std::fprintf(f, "  \"pcm_bit_exact\": %s,\n",
                 all_match ? "true" : "false");
    std::fprintf(f, "  \"full_sw\": {\n");
    std::fprintf(f, "    \"wall_ns\": %.0f,\n", t.wallNs);
    std::fprintf(f, "    \"wall_ns_per_frame\": %.1f,\n",
                 t.wallNs / frames);
    std::fprintf(f, "    \"rules_fired\": %llu,\n",
                 (unsigned long long)r.swRulesFired);
    std::fprintf(f, "    \"rules_attempted\": %llu,\n",
                 (unsigned long long)r.swRulesAttempted);
    std::fprintf(f, "    \"rules_per_sec\": %.0f,\n",
                 static_cast<double>(r.swRulesFired) / secs);
    std::fprintf(f, "    \"work_units\": %llu,\n",
                 (unsigned long long)r.swWork);
    std::fprintf(f, "    \"work_per_frame\": %.1f,\n",
                 static_cast<double>(r.swWork) / frames);
    std::fprintf(f, "    \"shadow_copies\": %llu,\n",
                 (unsigned long long)r.swShadowCopies);
    std::fprintf(f, "    \"fpga_cycles\": %llu\n",
                 (unsigned long long)r.fpgaCycles);
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"partitions\": {\n");
    for (size_t i = 0; i < partitions.size(); i++) {
        const auto &[name, pr] = partitions[i];
        std::fprintf(
            f,
            "    \"%s\": {\"fpga_cycles\": %llu, \"messages\": "
            "%llu}%s\n",
            name.c_str(), (unsigned long long)pr.fpgaCycles,
            (unsigned long long)pr.messages,
            i + 1 < partitions.size() ? "," : "");
    }
    std::fprintf(f, "  }\n");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    int frames = 512;
    std::string json_path;
    std::string hw_backend = "interpreted";
    CosimConfig cfg;
    bench::Flags("fig13_vorbis")
        .add("--frames", "N", "frames per partition run", &frames, 1)
        .add("--json", "FILE", "write full-SW metrics as JSON",
             &json_path)
        .add("--hw-backend", {"interpreted", "compiled"},
             "how hardware domains are clocked", &hw_backend)
        .addPlatform(&cfg.platform)
        .parse(argc, argv);
    if (hw_backend == "compiled" &&
        !CompiledHwPartition::hostCompilerAvailable()) {
        std::printf("no host C++ compiler — falling back to the "
                    "interpreted hardware backend\n");
        hw_backend = "interpreted";
    }

    std::printf("== Figure 13 (left): Ogg Vorbis partitions, %d frames "
                "(%s hw backend) ==\n",
                frames, hw_backend.c_str());
    std::printf("(execution time in FPGA cycles at 100 MHz; PPC440 at "
                "400 MHz)\n\n");

    serve::CompileCache cache;
    if (hw_backend == "compiled") {
        cfg.hwBackend = HwBackend::Compiled;
        cfg.compileProvider = [&cache](const ElabProgram &p,
                                       const GenccOptions &o) {
            return cache.get(p, o);
        };
    }
    // Native/SystemC work is counted in CPU-cycle-like units already
    // (no interpreter node inflation), so their conversion is the
    // plain clock ratio.
    const double work_to_cycles = 1.0 / cfg.platform.cpuClockRatio;

    // Reference PCM from the hand-written baseline.
    auto inputs = makeFrames(frames);
    NativeResult native = runNativeBackend(inputs);

    TextTable table;
    table.header({"impl", "hardware content", "FPGA cycles",
                  "cyc/frame", "vs F", "msgs"});

    std::uint64_t f_cycles = 0;
    bool all_match = true;
    std::vector<std::pair<std::string, VorbisRunResult>> part_results;

    for (VorbisPartition p : allVorbisPartitions()) {
        VorbisRunResult r = runVorbisPartition(p, frames, &cfg);
        part_results.emplace_back(partitionName(p), r);
        if (p == VorbisPartition::F)
            f_cycles = r.fpgaCycles;
        all_match &= r.pcm.size() == native.pcm.size();
        for (size_t i = 0; all_match && i < native.pcm.size(); i++)
            all_match &= r.pcm[i] == native.pcm[i];
        table.row({partitionName(p), partitionDescription(p),
                   withCommas(r.fpgaCycles),
                   withCommas(r.fpgaCycles /
                              static_cast<std::uint64_t>(frames)),
                   fixedDecimal(static_cast<double>(r.fpgaCycles) /
                                    static_cast<double>(f_cycles),
                                3),
                   withCommas(r.messages)});
    }

    SyscResult sc = runSyscBackend(inputs);
    std::uint64_t f1_cycles = static_cast<std::uint64_t>(
        static_cast<double>(sc.work) * work_to_cycles);
    all_match &= sc.pcm == native.pcm;
    table.row({"F1", "SystemC model (full SW)", withCommas(f1_cycles),
               withCommas(f1_cycles / static_cast<std::uint64_t>(frames)),
               fixedDecimal(static_cast<double>(f1_cycles) /
                                static_cast<double>(f_cycles),
                            3),
               "0"});

    std::uint64_t f2_cycles = static_cast<std::uint64_t>(
        static_cast<double>(native.work) * work_to_cycles);
    table.row({"F2", "hand-written C++ (full SW)",
               withCommas(f2_cycles),
               withCommas(f2_cycles / static_cast<std::uint64_t>(frames)),
               fixedDecimal(static_cast<double>(f2_cycles) /
                                static_cast<double>(f_cycles),
                            3),
               "0"});

    std::printf("%s\n", table.str().c_str());
    std::printf("PCM bit-exact across all implementations: %s\n",
                all_match ? "yes" : "NO (ERROR)");
    std::printf("\nshape checks (paper section 7.1):\n");
    auto cyc = [&](VorbisPartition p) {
        return runVorbisPartition(p, frames, &cfg).fpgaCycles;
    };
    (void)cyc;
    std::printf("  A, C slower than F; B marginal; E fastest; "
                "F1 ~3x F; F2 < F\n");

    if (!json_path.empty()) {
        FullSwTiming t = timeFullSw(frames, cfg);
        writeJson(json_path, frames, hw_backend, t, part_results,
                  all_match);
    }
    return all_match ? 0 : 1;
}
