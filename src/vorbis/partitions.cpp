#include "vorbis/partitions.hpp"

#include "common/logging.hpp"
#include "core/domains.hpp"
#include "core/elaborate.hpp"
#include "core/partition.hpp"

namespace bcl {
namespace vorbis {

std::vector<VorbisPartition>
allVorbisPartitions()
{
    return {VorbisPartition::F, VorbisPartition::A, VorbisPartition::B,
            VorbisPartition::C, VorbisPartition::D, VorbisPartition::E};
}

const char *
partitionName(VorbisPartition p)
{
    switch (p) {
      case VorbisPartition::F: return "F";
      case VorbisPartition::A: return "A";
      case VorbisPartition::B: return "B";
      case VorbisPartition::C: return "C";
      case VorbisPartition::D: return "D";
      case VorbisPartition::E: return "E";
    }
    return "?";
}

const char *
partitionDescription(VorbisPartition p)
{
    switch (p) {
      case VorbisPartition::F: return "full SW";
      case VorbisPartition::A: return "Window in HW";
      case VorbisPartition::B: return "IFFT in HW";
      case VorbisPartition::C: return "IFFT+Window in HW";
      case VorbisPartition::D: return "IMDCT+IFFT in HW";
      case VorbisPartition::E: return "full HW back-end";
    }
    return "?";
}

VorbisConfig
partitionConfig(VorbisPartition p)
{
    VorbisConfig cfg;
    switch (p) {
      case VorbisPartition::F:
        break;
      case VorbisPartition::A:
        cfg.winDom = "HW";
        break;
      case VorbisPartition::B:
        cfg.ifftDom = "HW";
        break;
      case VorbisPartition::C:
        cfg.ifftDom = "HW";
        cfg.winDom = "HW";
        break;
      case VorbisPartition::D:
        cfg.imdctDom = "HW";
        cfg.ifftDom = "HW";
        break;
      case VorbisPartition::E:
        cfg.imdctDom = "HW";
        cfg.ifftDom = "HW";
        cfg.winDom = "HW";
        break;
    }
    return cfg;
}

VorbisRunResult
runVorbisPartition(VorbisPartition p, int frames,
                   const CosimConfig *cfg_override, std::uint64_t seed)
{
    return runVorbisConfig(partitionConfig(p), frames, cfg_override,
                           seed);
}

VorbisConfig
splitVorbisConfig()
{
    VorbisConfig cfg;
    cfg.imdctDom = "HWA";
    cfg.ifftDom = "HWB";
    cfg.winDom = "HWC";
    return cfg;
}

VorbisServeSetup
makeVorbisServeSetup(const VorbisConfig &vcfg)
{
    VorbisServeSetup setup;
    Program prog = makeVorbisProgram(vcfg);
    setup.elab = elaborate(prog);
    DomainAssignment doms = inferDomains(setup.elab);
    setup.parts = partitionProgram(setup.elab, doms);
    const PartitionPart &sw = setup.parts.part("SW");
    setup.pushMethod = sw.prog.rootMethod("input");
    setup.audioPrim = sw.prog.primByPath("audio");
    return setup;
}

std::shared_ptr<VorbisStreamState>
makeVorbisStreamState(int frames, std::uint64_t seed)
{
    auto state = std::make_shared<VorbisStreamState>();
    state->inputs = makeFrames(frames, seed);
    return state;
}

SwDriver
makeVorbisStreamDriver(std::shared_ptr<VorbisStreamState> state,
                       int push_method)
{
    SwDriver driver;
    driver.step = [state, push_method](SwPort &port) -> std::uint64_t {
        if (state->fed >= state->inputs.size())
            return 0;
        std::vector<Value> elems;
        elems.reserve(kFrameIn);
        for (Fix32 s : state->inputs[state->fed])
            elems.push_back(fixValue(s));
        std::uint64_t before = port.work();
        if (port.callActionMethod(
                push_method, {Value::makeVec(std::move(elems))})) {
            state->fed++;
            // Same framing-cost accounting as runVorbisConfig's
            // driver: method-call work plus loop bookkeeping.
            return port.work() - before + kFrameIn;
        }
        return 0;
    };
    driver.done = [state] {
        return state->fed >= state->inputs.size();
    };
    return driver;
}

std::vector<std::int32_t>
extractPcm(CoSim &cs, int audio_prim)
{
    std::vector<std::int32_t> pcm;
    for (const auto &v : cs.storeOf("SW").at(audio_prim).queue) {
        for (const auto &s : v.elems())
            pcm.push_back(static_cast<std::int32_t>(s.asInt()));
    }
    return pcm;
}

VorbisRunResult
runVorbisConfig(const VorbisConfig &vcfg, int frames,
                const CosimConfig *cfg_override, std::uint64_t seed)
{
    Program prog = makeVorbisProgram(vcfg);
    ElabProgram elab = elaborate(prog);
    DomainAssignment doms = inferDomains(elab);
    PartitionResult parts = partitionProgram(elab, doms);

    CosimConfig cfg =
        cfg_override ? *cfg_override : CosimConfig{};
    CoSim cosim(parts, cfg);

    const PartitionPart &sw = parts.part("SW");
    int push = sw.prog.rootMethod("input");
    int audio = sw.prog.primByPath("audio");

    std::vector<std::vector<Fix32>> inputs = makeFrames(frames, seed);
    size_t fed = 0;
    SwDriver driver;
    driver.step = [&](SwPort &port) -> std::uint64_t {
        if (fed >= inputs.size())
            return 0;
        std::vector<Value> elems;
        elems.reserve(kFrameIn);
        for (Fix32 s : inputs[fed])
            elems.push_back(fixValue(s));
        std::uint64_t before = port.work();
        if (port.callActionMethod(push,
                                  {Value::makeVec(std::move(elems))})) {
            fed++;
            // Front-end framing cost: the frame was produced by the
            // (hand-written) front end; pushing it costs the method
            // call work already counted, plus loop bookkeeping.
            return port.work() - before + kFrameIn;
        }
        return 0;
    };
    driver.done = [&] { return fed >= inputs.size(); };
    cosim.setDriver("SW", driver);

    std::uint64_t cycles = cosim.run([&](CoSim &cs) {
        return cs.storeOf("SW").at(audio).queue.size() ==
               static_cast<size_t>(frames);
    });

    VorbisRunResult res;
    res.fpgaCycles = cycles;
    if (const CompiledPartition *cp = cosim.swCompiled()) {
        // Compiled backend: firings counted inside the shared object;
        // work and shadow copies are not modeled there.
        res.swRulesFired = cp->rulesFired();
        res.swRulesAttempted = cp->rulesAttempted();
    } else {
        const ExecStats &st = cosim.swInterp().stats();
        res.swWork = st.work;
        res.swRulesFired = st.rulesFired;
        res.swRulesAttempted = st.rulesAttempted;
        res.swShadowCopies = st.shadowCopies;
    }
    for (const auto &v : cosim.storeOf("SW").at(audio).queue) {
        for (const auto &s : v.elems())
            res.pcm.push_back(static_cast<std::int32_t>(s.asInt()));
    }
    // Sum hardware activity over every hardware domain the
    // configuration names (the split config has three).
    for (const std::string &d : distinctHwDomains(
             {vcfg.imdctDom, vcfg.ifftDom, vcfg.winDom})) {
        if (const HwStats *hw = cosim.hwStats(d))
            res.hwRuleFires += hw->rulesFired;
    }
    for (const auto &chan : cosim.channels()) {
        res.messages += chan->stats().messages;
        res.channelWords += chan->stats().payloadWords;
        res.channelStats.emplace_back(chan->spec().name,
                                      chan->stats());
    }
    res.linkUsage = cosim.linkUsage();
    return res;
}

} // namespace vorbis
} // namespace bcl
