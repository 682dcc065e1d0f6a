/**
 * @file
 * Config-driven platform models. A PlatformSpec is a parsed,
 * validated description of everything the co-simulation used to
 * hard-code about a target platform:
 *
 *   - link timing: BusParams per named link class,
 *   - topology: which link class a (from-domain, to-domain) pair
 *     uses, with wildcard defaults — heterogeneous platforms (fast
 *     on-chip fabric + slow off-chip bus in one run) become
 *     expressible,
 *   - hardware functional-unit delay weights consumed by the timing
 *     estimator (hwsim/timing.hpp),
 *   - the CPU/FPGA clock ratio.
 *
 * Specs load from a small line-oriented key/value format
 * (`configs/<name>.config`, in the simtrax per-unit-table idiom) with
 * line-numbered diagnostics on malformed input, or come from the
 * built-in presets:
 *
 *   ml507 — the paper's Xilinx ML507 (PPC440/LocalLink) calibration,
 *           byte-identical to the historical BusParams defaults,
 *   pcie  — the desktop host path (higher latency root complex).
 *
 * Config grammar (one directive per line, '#' starts a comment):
 *
 *   platform <name>
 *   cpu_clock_ratio <double>
 *   link <class> <request_latency> <per_message_overhead>
 *        <per_word_cycles> <max_burst_words>
 *   default_link <class>
 *   topology <from-domain|*> <to-domain|*> <class>
 *   hw_delay <add|mul|div|sqrt|cmp|logic|mux|method|bram> <units>
 *
 * Resolution precedence for (from, to): exact pair > (from, *) >
 * (*, to) > (*, *) > default_link. See "Platform models" in
 * docs/ARCHITECTURE.md.
 */
#ifndef BCL_PLATFORM_PLATFORM_SPEC_HPP
#define BCL_PLATFORM_PLATFORM_SPEC_HPP

#include <map>
#include <string>
#include <vector>

#include "hwsim/timing.hpp"
#include "platform/bus.hpp"

namespace bcl {

/** One topology rule: (from, to) pattern -> link class. "*" matches
 *  any domain. */
struct TopologyRule
{
    std::string from;       ///< domain name or "*"
    std::string to;         ///< domain name or "*"
    std::string linkClass;  ///< key into PlatformSpec::linkClasses

    bool operator==(const TopologyRule &) const = default;
};

/** A complete platform timing model. */
struct PlatformSpec
{
    /** Display name ("ml507", "pcie", or the config's `platform`). */
    std::string name = "ml507";

    /** Link classes by name; every topology/default reference must
     *  resolve here (validated at parse time). */
    std::map<std::string, BusParams> linkClasses;

    /** Class used when no topology rule matches; empty = resolution
     *  must be total through rules alone (resolveLink fatals on a
     *  miss). */
    std::string defaultLink;

    /** Pattern rules, most-specific-wins (see resolveLink). */
    std::vector<TopologyRule> topology;

    /** Functional-unit delay weights for estimateTiming(). */
    HwDelayModel hwDelays;

    /** CPU clock / FPGA clock (400 MHz / 100 MHz on the ML507). */
    double cpuClockRatio = 4.0;

    bool operator==(const PlatformSpec &) const = default;

    /** Bus parameters of link class @p cls (fatal if unknown). */
    const BusParams &linkClass(const std::string &cls) const;

    /**
     * Bus parameters governing the (from, to) link direction.
     * Precedence: exact (from,to) rule > (from,*) > (*,to) > (*,*)
     * > defaultLink. Fatal when nothing matches and no default is
     * set — resolution must be total for any partitioning.
     */
    const BusParams &resolveLink(const std::string &from,
                                 const std::string &to) const;

    /** Name of the link class resolveLink would pick (same
     *  precedence; for occupancy accounting and reports). */
    const std::string &resolveLinkClass(const std::string &from,
                                        const std::string &to) const;

    /** Canonical config-format dump; parsePlatformSpec(str()) == *this
     *  (round-trip pinned by test). */
    std::string str() const;

    /** The ML507 preset — byte-identical to the BusParams defaults
     *  (the historical embeddedLocalLink() calibration). */
    static PlatformSpec ml507();

    /** The PCIe desktop preset (higher latency root complex). */
    static PlatformSpec pcie();
};

/**
 * Parse @p text as platform-config format. @p source names the input
 * in diagnostics ("<source>:<line>: message" FatalErrors on malformed
 * or semantically invalid input).
 */
PlatformSpec parsePlatformSpec(const std::string &text,
                               const std::string &source = "<config>");

/** Load and parse a config file (fatal if unreadable). */
PlatformSpec loadPlatformSpec(const std::string &path);

/**
 * Resolve a `--platform FILE|PRESET` argument: a preset name first
 * ("ml507", "pcie"), then a config-file path; fatal otherwise,
 * listing the presets.
 */
PlatformSpec resolvePlatform(const std::string &nameOrPath);

/** Names accepted as presets by resolvePlatform. */
std::vector<std::string> platformPresetNames();

} // namespace bcl

#endif // BCL_PLATFORM_PLATFORM_SPEC_HPP
