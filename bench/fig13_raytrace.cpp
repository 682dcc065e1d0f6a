/**
 * @file
 * Regenerates Figure 13 (right) of the paper: execution times of the
 * ray tracer under the four partitions of Figure 14.
 *
 * Expected shape (section 7.2): the fastest partition is C (the
 * ray/geometry intersection engine in hardware with the scene in
 * on-chip block RAM); "Configurations B and D, though they both use
 * HW acceleration, are slower than the pure software implementation
 * because the savings in computation are outweighed by the incurred
 * cost of communication."
 *
 * Usage: fig13_raytrace [--size N] [--prims P]
 *                       [--platform FILE|PRESET]
 * (defaults: 24x24 image, 1024 primitives - the paper's scene size -
 * on the ml507 platform model).
 */
#include <cstdio>

#include "bench_flags.hpp"
#include "common/stats.hpp"
#include "platform/platform_spec.hpp"
#include "ray/native.hpp"
#include "ray/partitions.hpp"

using namespace bcl;
using namespace bcl::ray;

int
main(int argc, char **argv)
{
    int size = 24, prims = 1024;
    CosimConfig cfg;
    bench::Flags("fig13_raytrace")
        .add("--size", "N", "image width and height", &size, 1)
        .add("--prims", "P", "spheres in the scene", &prims, 1)
        .addPlatform(&cfg.platform)
        .parse(argc, argv);

    std::printf("== Figure 13 (right): ray tracer partitions, %dx%d "
                "image, %d primitives (platform: %s) ==\n\n",
                size, size, prims, cfg.platform.name.c_str());

    // Native oracle for the image.
    std::vector<Sphere> scene = makeScene(prims);
    Bvh bvh = buildBvh(scene);
    RenderResult native =
        renderNative(scene, bvh, makeCamera(), size, size);

    TextTable table;
    table.header({"part", "hardware content", "FPGA cycles", "vs A",
                  "msgs", "HW rule fires"});
    std::uint64_t a_cycles = 0;
    bool all_match = true;
    for (RayPartition p : allRayPartitions()) {
        RayRunResult r = runRayPartition(p, size, size, prims, &cfg);
        if (p == RayPartition::A)
            a_cycles = r.fpgaCycles;
        all_match &= r.pixels.size() == native.pixels.size();
        for (size_t i = 0; all_match && i < native.pixels.size(); i++)
            all_match &= r.pixels[i] == native.pixels[i];
        table.row({rayPartitionName(p), rayPartitionDescription(p),
                   withCommas(r.fpgaCycles),
                   fixedDecimal(static_cast<double>(r.fpgaCycles) /
                                    static_cast<double>(a_cycles),
                                3),
                   withCommas(r.messages), withCommas(r.hwRuleFires)});
    }
    std::printf("%s\n", table.str().c_str());
    std::printf("image bit-exact across all partitions and the native "
                "renderer: %s\n",
                all_match ? "yes" : "NO (ERROR)");
    std::printf("\nshape check: C < A < D < B (paper: C fastest; B and "
                "D slower than full SW)\n");
    return all_match ? 0 : 1;
}
