/**
 * @file
 * Compiled hardware backend: the clock-edge counterpart of
 * runtime/gencc.hpp's CompiledPartition. A hardware partition is
 * generated by generateCpp() exactly like a software one — same
 * translation unit, same artifact, same CompileCache key — but driven
 * through the `bcl_gen_hw_cycle` entry point, which clocks one edge
 * of the baked BSV schedule (CAN_FIRE = transactional rule bodies,
 * WILL_FIRE = constant conflict bitmasks from the static
 * ConflictMatrix, priority = program order).
 *
 * CompiledHwPartition mirrors ClockSim's external-pacing surface —
 * cycle() / run() / idle() / stats() — so the co-simulation's
 * transports, horizon logic and quiescence detection drive either
 * backend through one code path. Cycle accounting matches ClockSim
 * exactly, including the trailing-idle-probe exclusion in run():
 * cross-backend cycle counts are comparable bit for bit, which the
 * differential tests (tests/test_codegen_hw.cpp) rely on.
 *
 * Messages cross the ABI as canonical marshaled words via the wrapped
 * CompiledPartition (pushPrim/popPrim/popDevice, plus the unmarshaled
 * primSize/reservePrim the mirror sync needs), and the instance
 * inherits its thread-confinement contract — see runtime/gencc.hpp.
 */
#ifndef BCL_HWSIM_COMPILED_HW_HPP
#define BCL_HWSIM_COMPILED_HW_HPP

#include <cstdint>
#include <memory>

#include "hwsim/clocksim.hpp"
#include "runtime/gencc.hpp"

namespace bcl {

/** One live clock-edge instance of a compiled hardware partition. */
class CompiledHwPartition
{
  public:
    /** True when a host C++ compiler responds on this machine. */
    static bool hostCompilerAvailable()
    {
        return CompiledArtifact::hostCompilerAvailable();
    }

    /** Compile privately (one artifact, one instance). @p prog must
     *  pass validateForHardware — fatals otherwise, like ClockSim. */
    CompiledHwPartition(const ElabProgram &prog,
                        GenccOptions opts = {});

    /** New instance of an already-compiled artifact (the CompileCache
     *  path). Fatals when the artifact's partition did not pass the
     *  synchronous-hardware validation at generation time. */
    explicit CompiledHwPartition(
        std::shared_ptr<const CompiledArtifact> artifact);

    CompiledHwPartition(const CompiledHwPartition &) = delete;
    CompiledHwPartition &operator=(const CompiledHwPartition &) =
        delete;

    /** Clock one edge (maximal prioritized conflict-free rule set).
     *  Always counts into stats().cycles, exactly like
     *  ClockSim::cycle(). @return rules fired. */
    int cycle();

    /** Free-run until quiescent or @p max_cycles elapse; trailing
     *  idle probe excluded from stats().cycles (ClockSim::run). */
    std::uint64_t run(std::uint64_t max_cycles);

    /** True when the last cycle() fired nothing. */
    bool idle() const { return lastFired == 0; }

    /** Host-side counters (perRuleFires refreshed across the ABI on
     *  every call; same race caveats as CompiledPartition counter
     *  reads). */
    const HwStats &stats() const;

    // Marshaled message exchange (delegates to the wrapped instance).
    bool pushPrim(int prim_id, const Value &v)
    {
        return part_.pushPrim(prim_id, v);
    }
    bool popPrim(int prim_id, Value &out)
    {
        return part_.popPrim(prim_id, out);
    }
    bool popDevice(int prim_id, Value &out)
    {
        return part_.popDevice(prim_id, out);
    }
    std::size_t primSize(int prim_id) { return part_.primSize(prim_id); }
    void
    reservePrim(int prim_id, std::size_t n)
    {
        part_.reservePrim(prim_id, n);
    }

    /** The wrapped instance (marshal counters, program). */
    const CompiledPartition &partition() const { return part_; }

    /** Release thread ownership (see CompiledPartition). */
    void rebindThread() { part_.rebindThread(); }

    const ElabProgram &program() const { return part_.program(); }

    const std::shared_ptr<const CompiledArtifact> &artifact() const
    {
        return part_.artifact();
    }

  private:
    /** Reject artifacts whose hw entry points are stubs. */
    void checkHwCapable();

    CompiledPartition part_;
    int numRules_ = 0;
    int lastFired = 1;  // assume work on first cycle (ClockSim)
    mutable HwStats stats_;
};

} // namespace bcl

#endif // BCL_HWSIM_COMPILED_HW_HPP
