/**
 * @file
 * Regenerates the section 4.5 microarchitecture comparison:
 * mkIFFTComb (all three radix-4 stages in one rule - "an extremely
 * long combinational path which will need to be clocked very slowly")
 * versus mkIFFTPipe (one rule per stage - short critical path and
 * pipeline parallelism).
 *
 * Reported per variant:
 *   - estimated combinational depth of the critical rule (gate-delay
 *     units from the timing model),
 *   - steady-state throughput in cycles/frame at that design's own
 *     clock,
 *   - normalized time per frame = cycles x relative clock period
 *     (the figure of merit that makes the pipelined design win).
 */
#include <cstdio>

#include "bench_flags.hpp"
#include "common/stats.hpp"
#include "platform/platform_spec.hpp"
#include "core/builder.hpp"
#include "core/elaborate.hpp"
#include "hwsim/clocksim.hpp"
#include "hwsim/timing.hpp"
#include "vorbis/ifft_bcl.hpp"

using namespace bcl;
using namespace bcl::vorbis;

namespace {

struct VariantResult
{
    int criticalDepth = 0;
    std::string criticalRule;
    double cyclesPerFrame = 0;
};

VariantResult
runVariant(bool pipelined, int frames, const HwDelayModel &delays)
{
    Program prog =
        ProgramBuilder()
            .add(pipelined ? makeIFFTPipeModule() : makeIFFTCombModule())
            .setRoot("IFFT")
            .build();
    ElabProgram elab = elaborate(prog);
    Store store(elab);
    ClockSim sim(elab, store);

    HwTiming timing = estimateTiming(elab, delays);

    int in_q = elab.primByPath("inQ16");
    int out_q = elab.primByPath("outQ16");

    // Feed sub-blocks as space allows; drain and count outputs.
    auto frames_in = makeFrames(frames);
    size_t frame_idx = 0;
    int sub_idx = 0;
    std::uint64_t subs_out = 0;
    std::uint64_t cycles = 0;

    auto make_sub = [&](const std::vector<Fix32> &frame, int sub) {
        // Pre-expand the input frame to 64 complex (zero imaginary),
        // 16 entries per sub-block.
        std::vector<Value> elems;
        for (int i = 0; i < 16; i++) {
            int idx = sub * 16 + i;
            Fix32 re = idx < kFrameIn ? frame[idx] : Fix32(0);
            elems.push_back(Value::makeStruct(
                {{"re", fixValue(re)}, {"im", fixValue(Fix32(0))}}));
        }
        return Value::makeVec(std::move(elems));
    };

    const std::uint64_t budget = 1u << 22;
    while (subs_out < static_cast<std::uint64_t>(frames) * 4 &&
           cycles < budget) {
        // Host side: feed and drain around the clocked core.
        PrimState &in = store.at(in_q);
        while (frame_idx < frames_in.size() &&
               static_cast<int>(in.queue.size()) < 2) {
            in.queue.push_back(make_sub(frames_in[frame_idx], sub_idx));
            if (++sub_idx == 4) {
                sub_idx = 0;
                frame_idx++;
            }
        }
        sim.cycle();
        cycles++;
        PrimState &out = store.at(out_q);
        while (!out.queue.empty()) {
            out.queue.pop_front();
            subs_out++;
        }
    }

    VariantResult res;
    res.criticalDepth = timing.criticalDepth;
    res.criticalRule = timing.criticalRule;
    res.cyclesPerFrame =
        static_cast<double>(cycles) / static_cast<double>(frames);
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    const int frames = 64;
    // --platform FILE|PRESET supplies the functional-unit delay
    // weights (hw_delay lines); the default is the ml507 calibration.
    PlatformSpec plat = PlatformSpec::ml507();
    bench::Flags("ifft_hw").addPlatform(&plat).parse(argc, argv);
    std::printf("== Section 4.5: IFFT microarchitectures "
                "(platform: %s) ==\n\n",
                plat.name.c_str());

    VariantResult comb = runVariant(false, frames, plat.hwDelays);
    VariantResult pipe = runVariant(true, frames, plat.hwDelays);

    TextTable table;
    table.header({"variant", "critical depth", "critical rule",
                  "cycles/frame", "norm. time/frame"});
    // Normalize clock period to the pipelined design's depth.
    double base = pipe.criticalDepth;
    table.row({"mkIFFTComb", std::to_string(comb.criticalDepth),
               comb.criticalRule, fixedDecimal(comb.cyclesPerFrame, 2),
               fixedDecimal(comb.cyclesPerFrame * comb.criticalDepth /
                                base,
                            2)});
    table.row({"mkIFFTPipe", std::to_string(pipe.criticalDepth),
               pipe.criticalRule, fixedDecimal(pipe.cyclesPerFrame, 2),
               fixedDecimal(pipe.cyclesPerFrame, 2)});
    std::printf("%s\n", table.str().c_str());

    std::printf("combinational-path ratio comb/pipe: %.2fx (the "
                "\"extremely long combinational path\" of 4.5)\n",
                static_cast<double>(comb.criticalDepth) /
                    pipe.criticalDepth);
    bool ok = comb.criticalDepth > 2 * pipe.criticalDepth &&
              comb.cyclesPerFrame * comb.criticalDepth / base >
                  pipe.cyclesPerFrame;
    std::printf("shape check (pipelined wins on normalized time): %s\n",
                ok ? "yes" : "NO");
    return ok ? 0 : 1;
}
