#include "hwsim/compiled_hw.hpp"

#include "common/logging.hpp"
#include "core/schedule.hpp"

namespace bcl {

CompiledHwPartition::CompiledHwPartition(const ElabProgram &prog,
                                        GenccOptions opts)
    : part_(prog, std::move(opts))
{
    checkHwCapable();
}

CompiledHwPartition::CompiledHwPartition(
    std::shared_ptr<const CompiledArtifact> artifact)
    : part_(std::move(artifact))
{
    checkHwCapable();
}

void
CompiledHwPartition::checkHwCapable()
{
    if (!part_.artifact()->hwValid()) {
        // Recompute the diagnostic the generator saw; a reused/stale
        // artifact whose program copy looks valid gets the generic
        // message.
        std::string err = hardwareValidationError(program());
        fatal("compiled_hw: partition is not implementable as "
              "synchronous hardware — " +
              (err.empty() ? std::string("artifact was generated "
                                         "without a clock-edge "
                                         "scheduler")
                           : err));
    }
    numRules_ = static_cast<int>(program().rules.size());
    stats_.perRuleFires.assign(static_cast<size_t>(numRules_), 0);
}

int
CompiledHwPartition::cycle()
{
    part_.checkThread("hw cycle");
    int fired =
        part_.artifact_->fnHwCycle_(part_.inst_);
    if (fired < 0)
        panic("compiled_hw: bcl_gen_hw_cycle on a stub (artifact "
              "changed underneath us?)");
    stats_.cycles++;
    stats_.rulesFired += static_cast<std::uint64_t>(fired);
    if (fired > 0)
        stats_.busyCycles++;
    lastFired = fired;
    return fired;
}

std::uint64_t
CompiledHwPartition::run(std::uint64_t max_cycles)
{
    std::uint64_t used = 0;
    while (used < max_cycles) {
        used++;
        if (cycle() == 0) {
            stats_.cycles--;  // trailing idle probe (ClockSim)
            break;
        }
    }
    return used;
}

const HwStats &
CompiledHwPartition::stats() const
{
    for (int r = 0; r < numRules_; r++) {
        stats_.perRuleFires[static_cast<size_t>(r)] =
            part_.artifact_->fnHwStats_(part_.inst_, 3, r);
    }
    return stats_;
}

} // namespace bcl
