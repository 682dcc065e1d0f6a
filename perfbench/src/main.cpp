/**
 * @file
 * Benchmark driver.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * Runs one workload (cosim_vorbis_split, cosim_ray_split,
 * serve_vorbis_open), prints what it measured, and ends with one JSON
 * line: {"correct", "attempted", "failed", "metrics"}. With --trace 0
 * the metrics are the end-to-end ones; with --trace 1 they are the
 * per-layer ones from a traced run, and a per-layer table is printed
 * first. Exits 1 when any output is wrong, 2 on bad arguments.
 */
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace {

struct MetricDef
{
    std::string name;
    std::string unit;
};

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"items_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
};

/** Every per-layer metric, in report order. A workload reports 0 for
 *  a layer it does not exercise (e.g. gencc on cosim_vorbis_split). */
std::vector<MetricDef>
perLayerCatalogue()
{
    const char *const hw[] = {"HWA", "HWB", "HWC", "HWT", "HWX", "HWG"};
    std::vector<MetricDef> m = {
        {"core.build_ms", "ms"},
        {"core.elaborate_ms", "ms"},
        {"core.domains_ms", "ms"},
        {"core.partition_ms", "ms"},
        {"core.codegen_ms", "ms"},
        {"gencc.compile_ms", "ms"},
        {"gencc.compiles", "count"},
        {"runtime.sw_rules_fired", "count"},
        {"runtime.sw_rules_attempted", "count"},
        {"runtime.sw_guard_ok_ratio", "ratio"},
        {"runtime.sw_work", "count"},
    };
    for (const char *d : hw) {
        m.push_back({std::string("hwsim.rule_fires.") + d, "count"});
        m.push_back({std::string("hwsim.cycles.") + d, "count"});
        m.push_back({std::string("hwsim.cycles_per_s.") + d, "1/s"});
    }
    m.push_back({"cosim.fpga_cycles", "count"});
    m.push_back({"cosim.construct_ms", "ms"});
    m.push_back({"cosim.run_ms", "ms"});
    m.push_back({"cosim.slice_ms.SW", "ms"});
    for (const char *d : hw)
        m.push_back({std::string("cosim.slice_ms.") + d, "ms"});
    const std::vector<MetricDef> rest = {
        {"cosim.epochs", "count"},
        {"cosim.epoch_us_p50", "us"},
        {"cosim.epoch_us_p99", "us"},
        {"cosim.epoch_overhead_ms", "ms"},
        {"cosim.imbalance_ms", "ms"},
        {"cosim.parallel_run_ms", "ms"},
        {"cosim.parallel_speedup", "ratio"},
        {"cosim.coord_ms", "ms"},
        {"channel.messages", "count"},
        {"channel.payload_words", "count"},
        {"channel.stall_cycles", "count"},
        {"channel.stall_events", "count"},
        {"link.busy_cycles", "count"},
        {"link.grants", "count"},
        {"serve.streams", "count"},
        {"serve.stream_ms_p50", "ms"},
        {"serve.stream_ms_p99", "ms"},
        {"serve.create_session_us_p50", "us"},
        {"serve.create_session_us_p99", "us"},
        {"serve.queue_wait_ms_p99", "ms"},
        {"serve.gen_lag_ms_p99", "ms"},
        {"serve.advance_us_p50", "us"},
        {"serve.quanta", "count"},
        {"serve.cache.hits", "count"},
        {"serve.cache.compiles", "count"},
        {"trace.overhead_ratio", "ratio"},
        {"trace.unattributed_ms", "ms"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    return m;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        v = 0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "{cosim_vorbis_split|cosim_ray_split|serve_vorbis_open} "
                 "--seed N --seconds S --trace 0|1\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Options opt;
    bool haveWorkload = false;
    for (int i = 1; i < argc; i++) {
        const char *a = argv[i];
        if (i + 1 >= argc)
            return usage((std::string("missing value for ") + a).c_str());
        const char *v = argv[++i];
        char *end = nullptr;
        if (std::strcmp(a, "--workload") == 0) {
            opt.workload = v;
            haveWorkload = true;
        } else if (std::strcmp(a, "--seed") == 0) {
            opt.seed = std::strtoull(v, &end, 10);
            if (*v == '\0' || *end != '\0')
                return usage("--seed takes a whole number");
        } else if (std::strcmp(a, "--seconds") == 0) {
            opt.seconds = std::strtod(v, &end);
            if (*v == '\0' || *end != '\0' || !(opt.seconds > 0) ||
                opt.seconds > 600)
                return usage("--seconds takes a number in (0, 600]");
        } else if (std::strcmp(a, "--trace") == 0) {
            if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
                return usage("--trace takes 0 or 1");
            opt.trace = v[0] == '1';
        } else {
            return usage((std::string("unknown flag ") + a).c_str());
        }
    }
    if (!haveWorkload)
        return usage("--workload is required");

    perfbench::Result r;
    if (opt.workload == "cosim_vorbis_split")
        r = perfbench::runVorbisSplit(opt);
    else if (opt.workload == "cosim_ray_split")
        r = perfbench::runRaySplit(opt);
    else if (opt.workload == "serve_vorbis_open")
        r = perfbench::runServeOpen(opt);
    else
        return usage(("unknown workload " + opt.workload).c_str());

    for (const std::string &line : r.notes)
        std::printf("%s\n", line.c_str());

    std::vector<MetricDef> defs = opt.trace ? perLayerCatalogue() : kEndToEnd;
    const auto &values = opt.trace ? r.layers : r.endToEnd;
    std::printf("%-32s %20s  %s\n", opt.trace ? "per-layer metric" : "metric",
                "value", "unit");
    std::string json;
    for (const MetricDef &d : defs) {
        auto it = values.find(d.name);
        double v = it == values.end() ? 0 : it->second;
        if (!std::isfinite(v))
            v = 0;
        if (!opt.trace && it == values.end())
            r.correct = false;  // an end-to-end metric was not measured
        std::printf("%-32s %20.6f  %s\n", d.name.c_str(), v, d.unit.c_str());
        json += std::string(json.empty() ? "" : ", ") + "\"" + d.name +
                "\": {\"value\": " + jsonNumber(v) + ", \"unit\": \"" +
                d.unit + "\"}";
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                r.correct ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed), json.c_str());
    std::fflush(stdout);
    return r.correct ? 0 : 1;
}
