/**
 * @file
 * Rule-accurate synchronous hardware simulator. Implements the BSV
 * execution model the paper's hardware generation path relies on
 * (section 6.4): in every clock cycle a maximal set of enabled,
 * mutually non-conflicting rules fires; shadows live "in wires", i.e.
 * all updates of a cycle commit together at the clock edge. Rule
 * selection uses the static ConflictMatrix plus dynamic guard
 * evaluation, exactly the CAN_FIRE / WILL_FIRE scheme of the BSV
 * compiler.
 *
 * This simulator substitutes for the commercial BSV-to-Verilog flow +
 * FPGA in the paper's evaluation; "The simulation substitution" in
 * docs/ARCHITECTURE.md documents why the substitution preserves the
 * measured behaviour (cycle counts of rule-level pipelines).
 */
#ifndef BCL_HWSIM_CLOCKSIM_HPP
#define BCL_HWSIM_CLOCKSIM_HPP

#include <cstdint>
#include <vector>

#include "core/conflict.hpp"
#include "core/schedule.hpp"
#include "runtime/interp.hpp"

namespace bcl {

/** Per-run counters of the hardware simulator. */
struct HwStats
{
    std::uint64_t cycles = 0;
    std::uint64_t rulesFired = 0;
    std::uint64_t busyCycles = 0;  ///< cycles with >= 1 firing
    std::vector<std::uint64_t> perRuleFires;
};

/** Synchronous simulator over one elaborated hardware partition. */
class ClockSim
{
  public:
    /**
     * @param prog Elaborated HW partition (validated: no loops/seq).
     * @param store Its state.
     */
    ClockSim(const ElabProgram &prog, Store &store);

    /**
     * Simulate one clock cycle: compose and execute the maximal
     * prioritized conflict-free rule set. Always counts into
     * stats().cycles — a caller pacing the clock directly owns the
     * decision of which cycles to clock.
     * @return number of rules that fired.
     */
    int cycle();

    /**
     * Free-run until the partition is quiescent (a cycle with no
     * firing) or @p max_cycles elapse. The trailing idle probe that
     * detects quiescence is excluded from stats().cycles (it did no
     * work), exactly as stepCycles() excludes it — so cycle counts
     * are comparable no matter how the clock was paced. The return
     * value still includes it: the probe consumed real time.
     * @return cycles consumed.
     */
    std::uint64_t run(std::uint64_t max_cycles);

    /**
     * Externally paced stepping: clock up to @p budget cycles,
     * stopping after the first idle cycle. Unlike run(), the caller
     * owns the clock — the remote partition host clocks one slice
     * budget per request and ships channel traffic between slices,
     * so a partition never free-runs past in-flight deliveries. @p fired
     * accumulates rules fired across the burst. As in run(), the
     * trailing idle probe counts toward the returned cycles-consumed
     * (virtual time advanced) but not toward stats().cycles — one
     * accounting across run()/stepCycles() and across hardware
     * backends, never off-by-one per burst.
     * @return cycles consumed (the trailing idle cycle included).
     */
    std::uint64_t stepCycles(std::uint64_t budget,
                             std::uint64_t &fired);

    /** True when the last cycle() fired nothing. */
    bool idle() const { return lastFired == 0; }

    HwStats &stats() { return stats_; }
    Interp &interp() { return I; }
    const Interp &interp() const { return I; }

  private:
    Interp I;
    ConflictMatrix matrix;
    int numRules;
    int lastFired = 1;  // assume work on first cycle
    HwStats stats_;
    std::vector<int> chosen;  // scratch
};

} // namespace bcl

#endif // BCL_HWSIM_CLOCKSIM_HPP
