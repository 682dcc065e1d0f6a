/**
 * @file
 * The six HW/SW partitions of the Vorbis back-end evaluated in
 * Figure 12/13 of the paper, and the harness that runs any of them
 * end to end under co-simulation.
 *
 *   F - full software
 *   A - Window in HW, rest SW
 *   B - IFFT core (+ its tables) in HW, rest SW
 *   C - IFFT + Window in HW, IMDCT FSMs in SW
 *   D - IMDCT FSMs + IFFT in HW, Window in SW
 *   E - full hardware back-end (PCM emission still SW)
 *
 * Every partition must produce bit-identical PCM; their execution
 * times differ - that ordering is Figure 13 (left).
 */
#ifndef BCL_VORBIS_PARTITIONS_HPP
#define BCL_VORBIS_PARTITIONS_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "platform/cosim.hpp"
#include "vorbis/backend_bcl.hpp"

namespace bcl {
namespace vorbis {

/** Partition labels (Figure 12). */
enum class VorbisPartition { F, A, B, C, D, E };

/** All partitions in the paper's reporting order. */
std::vector<VorbisPartition> allVorbisPartitions();

/** One-letter label. */
const char *partitionName(VorbisPartition p);

/** Human-readable description of what runs in hardware. */
const char *partitionDescription(VorbisPartition p);

/** Domain configuration realizing partition @p p. */
VorbisConfig partitionConfig(VorbisPartition p);

/** Result of one partition run. */
struct VorbisRunResult
{
    std::uint64_t fpgaCycles = 0;   ///< end-to-end virtual time
    std::vector<std::int32_t> pcm;  ///< decoded samples (Q8.24 raw)
    std::uint64_t swWork = 0;       ///< software work units
    std::uint64_t swRulesFired = 0;     ///< software rule firings
    std::uint64_t swRulesAttempted = 0; ///< incl. guard failures
    std::uint64_t swShadowCopies = 0;   ///< modeled state snapshots
    std::uint64_t hwRuleFires = 0;  ///< hardware activity
    std::uint64_t messages = 0;     ///< cross-partition messages
    std::uint64_t channelWords = 0; ///< payload words moved
    /** Per-channel traffic, by channel name in construction order —
     *  feed to snapshotChannelStats for stable metric names. */
    std::vector<std::pair<std::string, ChannelStats>> channelStats;
    /** Per-(from,to) link occupancy, with the link class the
     *  platform's topology section resolved for each pair. */
    std::vector<CoSim::LinkUsage> linkUsage;
};

/**
 * Run @p frames synthetic audio frames through partition @p p.
 * @param cfg_override Optional co-simulation parameters.
 * @param seed Workload seed (same seed => same PCM in every
 * partition).
 */
VorbisRunResult runVorbisPartition(VorbisPartition p, int frames,
                                   const CosimConfig *cfg_override =
                                       nullptr,
                                   std::uint64_t seed = 12345);

/**
 * Run an arbitrary domain configuration — not just the six lettered
 * Figure 12 partitions. Domain polymorphism makes any assignment of
 * {imdctDom, ifftDom, winDom} legal; in particular each stage may be
 * its own hardware domain (e.g. "HWA"/"HWB"/"HWC"), producing a
 * >=3-domain pipeline with channels between hardware domains. PCM is
 * bit-identical across every configuration.
 */
VorbisRunResult runVorbisConfig(const VorbisConfig &vcfg, int frames,
                                const CosimConfig *cfg_override =
                                    nullptr,
                                std::uint64_t seed = 12345);

/** The per-stage split: IMDCT, IFFT and Window each in their own
 *  hardware domain (4 domains incl. SW — the HW-to-HW streaming
 *  workload). */
VorbisConfig splitVorbisConfig();

// ---------------------------------------------------------------------------
// Serving-layer helpers (src/serve/): many concurrent Vorbis streams
// over ONE shared program/partitioning.
// ---------------------------------------------------------------------------

/**
 * The immutable artifacts every serving session of one VorbisConfig
 * shares: the elaborated program, its partitioning, and the resolved
 * SW-side entry points. Build once, then back any number of
 * concurrent sessions — sessions only read it (their mutable state
 * lives in their own Stores).
 */
struct VorbisServeSetup
{
    ElabProgram elab;
    PartitionResult parts;
    int pushMethod = -1;  ///< root `input` method in the SW part
    int audioPrim = -1;   ///< AudioDev prim in the SW part
};

VorbisServeSetup makeVorbisServeSetup(const VorbisConfig &vcfg = {});

/**
 * Per-stream input state captured by the driver closure. One per
 * session; the shared_ptr keeps it alive inside the SwDriver.
 */
struct VorbisStreamState
{
    std::vector<std::vector<Fix32>> inputs;
    size_t fed = 0;
};

/**
 * Driver feeding @p state's frames through the `input` root method —
 * the per-session twin of the driver runVorbisConfig wires up.
 * @p seed picks the stream's synthetic audio (same seed => same PCM
 * as a solo serial run; the serving determinism tests rely on it).
 */
SwDriver makeVorbisStreamDriver(
    std::shared_ptr<VorbisStreamState> state, int push_method);

/** Fresh per-stream input state (@p frames frames from @p seed). */
std::shared_ptr<VorbisStreamState> makeVorbisStreamState(
    int frames, std::uint64_t seed);

/** Decoded PCM currently on @p audio_prim of @p cs ("SW" store). */
std::vector<std::int32_t> extractPcm(CoSim &cs, int audio_prim);

} // namespace vorbis
} // namespace bcl

#endif // BCL_VORBIS_PARTITIONS_HPP
