/**
 * @file
 * The four HW/SW decompositions of the ray tracer evaluated in
 * Figure 13 (right) / Figure 14 of the paper, and the harness that
 * renders under co-simulation.
 *
 *   A - full software
 *   B - Box Inter + Geom Inter in HW (every node test crosses the
 *       cut: communication swamps the accelerated arithmetic)
 *   C - BVH Trav + both intersection engines + BVH/Scene memories in
 *       HW (scene in block RAM; one crossing pair per ray - the
 *       fastest configuration in the paper)
 *   D - Geom Inter only in HW (crossings per leaf test - slower
 *       than full software)
 */
#ifndef BCL_RAY_PARTITIONS_HPP
#define BCL_RAY_PARTITIONS_HPP

#include <cstdint>
#include <vector>

#include "platform/cosim.hpp"
#include "ray/trace_bcl.hpp"

namespace bcl {
namespace ray {

/** Partition labels (Figure 14). */
enum class RayPartition { A, B, C, D };

/** All partitions in reporting order. */
std::vector<RayPartition> allRayPartitions();

/** One-letter label. */
const char *rayPartitionName(RayPartition p);

/** What runs in hardware. */
const char *rayPartitionDescription(RayPartition p);

/** Domain configuration realizing partition @p p. */
RayConfig rayPartitionConfig(RayPartition p, int width = 32,
                             int height = 32);

/** Result of one rendering run. */
struct RayRunResult
{
    std::uint64_t fpgaCycles = 0;
    std::vector<std::uint32_t> pixels;
    std::uint64_t swWork = 0;
    std::uint64_t hwRuleFires = 0;
    std::uint64_t messages = 0;
    std::uint64_t channelWords = 0;
    /** Per-channel traffic, by channel name in construction order —
     *  feed to snapshotChannelStats for stable metric names. */
    std::vector<std::pair<std::string, ChannelStats>> channelStats;
    /** Per-(from,to) link occupancy, with the link class the
     *  platform's topology section resolved for each pair. */
    std::vector<CoSim::LinkUsage> linkUsage;
};

/**
 * Render a @p width x @p height image of a @p prim_count-sphere scene
 * under partition @p p.
 */
RayRunResult runRayPartition(RayPartition p, int width = 32,
                             int height = 32, int prim_count = 1024,
                             const CosimConfig *cfg_override = nullptr,
                             std::uint64_t seed = 4242);

/**
 * Render under an arbitrary domain configuration. Any assignment of
 * {travDom, boxDom, geomDom} is legal; giving each engine its own
 * hardware domain (splitRayConfig) yields a 4-domain design with
 * many small HW-to-HW messages. Pixels are bit-identical across
 * every configuration.
 */
RayRunResult runRayConfig(const RayConfig &rcfg, int prim_count = 1024,
                          const CosimConfig *cfg_override = nullptr,
                          std::uint64_t seed = 4242);

/** Partition C with each engine in its own hardware domain: BVH
 *  traversal / box intersect / geometry intersect (4 domains incl.
 *  SW). */
RayConfig splitRayConfig(int width = 32, int height = 32);

} // namespace ray
} // namespace bcl

#endif // BCL_RAY_PARTITIONS_HPP
