/**
 * @file
 * The benchmark's three workloads. Each drives the system only
 * through its public entry points (program builders, elaborate,
 * inferDomains, partitionProgram, generateCpp, CompileCache::get, the
 * CoSim constructor and run, SessionManager::createSession/start),
 * times every call from outside, and checks outputs against the
 * hand-written native oracles. See perfbench/METHODOLOGY.md.
 */
#ifndef BCL_PERFBENCH_WORKLOADS_HPP
#define BCL_PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
};

/** What one invocation measured. */
struct Result
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** End-to-end metrics (untraced run), by name. */
    std::map<std::string, double> endToEnd;

    /** Per-layer metrics (traced run), by name; names the workload
     *  does not exercise are reported as 0 by the caller. */
    std::map<std::string, double> layers;

    /** Human-readable lines printed before the result. */
    std::vector<std::string> notes;

    /** Record a failed operation with its reason. */
    void fail(const std::string &why);
};

Result runVorbisSplit(const Options &opt);
Result runRaySplit(const Options &opt);
Result runServeOpen(const Options &opt);

} // namespace perfbench

#endif // BCL_PERFBENCH_WORKLOADS_HPP
