/**
 * @file
 * Standalone partition host: rebuild one hardware partition of a
 * named workload and serve it over framed loopback TCP to a
 * coordinating co-simulation (CosimConfig::remoteEndpoints). This is
 * the exec'd counterpart of the fork-flavor remote transports — the
 * two processes share no memory, so agreement is established by the
 * handshake: the host computes its own programIdentity() from the
 * workload it elaborated, and a coordinator that elaborated anything
 * else (different partitioning, scene, stage domains) is refused
 * before any payload flows.
 *
 * Run: cosim_partition_host --workload vorbis_B --domain HW [--once]
 *      cosim_partition_host --workload ray_split --domain HWT
 *          [--ray-size 32] [--ray-prims 1024] [--seed 12345]
 *
 * Flags parse with bench/bench_flags.hpp: an unknown flag, a
 * malformed value, a missing --workload or a workload/domain that
 * does not exist prints the usage and exits 2.
 * Prints "LISTENING <port>" on stdout once bound; serves one
 * connection at a time until killed (or exactly one with --once).
 * Workload names match bench/executor_matrix: vorbis_<letter>,
 * vorbis_split, ray_<letter>, ray_split.
 */
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "../bench/bench_flags.hpp"
#include "common/logging.hpp"
#include "core/domains.hpp"
#include "core/elaborate.hpp"
#include "core/partition.hpp"
#include "platform/net_transport.hpp"
#include "platform/remote_partition.hpp"
#include "ray/partitions.hpp"
#include "vorbis/partitions.hpp"

using namespace bcl;

namespace {

/** The elaborated partition a workload name + domain denotes. */
ElabProgram
buildPartition(const std::string &workload, const std::string &domain,
               int ray_size, int ray_prims, std::uint64_t seed)
{
    ElabProgram elab;
    if (workload.rfind("vorbis_", 0) == 0) {
        std::string which = workload.substr(7);
        vorbis::VorbisConfig vcfg;
        if (which == "split") {
            vcfg = vorbis::splitVorbisConfig();
        } else {
            bool found = false;
            for (vorbis::VorbisPartition p :
                 vorbis::allVorbisPartitions()) {
                if (which == vorbis::partitionName(p)) {
                    vcfg = vorbis::partitionConfig(p);
                    found = true;
                }
            }
            if (!found)
                fatal("unknown vorbis partition '" + which + "'");
        }
        vorbis::VorbisServeSetup setup =
            vorbis::makeVorbisServeSetup(vcfg);
        return setup.parts.part(domain).prog;
    }
    if (workload.rfind("ray_", 0) == 0) {
        std::string which = workload.substr(4);
        ray::RayConfig rcfg;
        if (which == "split") {
            rcfg = ray::splitRayConfig(ray_size, ray_size);
        } else {
            bool found = false;
            for (ray::RayPartition p : ray::allRayPartitions()) {
                if (which == ray::rayPartitionName(p)) {
                    rcfg = ray::rayPartitionConfig(p, ray_size,
                                                   ray_size);
                    found = true;
                }
            }
            if (!found)
                fatal("unknown ray partition '" + which + "'");
        }
        std::vector<ray::Sphere> scene =
            ray::makeScene(ray_prims, seed);
        ray::Bvh bvh = ray::buildBvh(scene);
        ray::Camera cam = ray::makeCamera();
        Program prog = ray::makeRayProgram(rcfg, scene, bvh, cam);
        ElabProgram ep = elaborate(prog);
        DomainAssignment doms = inferDomains(ep);
        PartitionResult parts = partitionProgram(ep, doms);
        return parts.part(domain).prog;
    }
    fatal("unknown workload '" + workload +
          "' (expected vorbis_<letter>|vorbis_split|ray_<letter>|"
          "ray_split)");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::string domain = "HW";
    int ray_size = 32;
    int ray_prims = 1024;
    std::uint64_t seed = 12345;
    int timeout_ms = 30000;
    bool once = false;
    bench::Flags flags("cosim_partition_host");
    flags
        .add("--workload", "NAME",
             "vorbis_<letter>|vorbis_split|ray_<letter>|ray_split",
             &workload)
        .add("--domain", "DOM", "the hardware domain to serve", &domain)
        .add("--ray-size", "N", "ray image width and height", &ray_size,
             1)
        .add("--ray-prims", "N", "spheres in the ray scene", &ray_prims,
             1)
        .add("--seed", "N", "ray scene seed",
             [&seed](const char *v) {
                 char *end = nullptr;
                 errno = 0;
                 seed = std::strtoull(v, &end, 10);
                 return errno == 0 && end != v && *end == '\0';
             })
        .add("--timeout-ms", "MS", "accept and transport timeout",
             &timeout_ms, 1)
        .addSwitch("--once", "serve one connection, then exit", &once)
        .parse(argc, argv);
    if (workload.empty())
        flags.fail("--workload is required");

    ElabProgram part;
    try {
        part = buildPartition(workload, domain, ray_size, ray_prims, seed);
    } catch (const Error &err) {
        flags.fail(err.what());
    }
    std::printf("partition %s/%s: %zu prims, %zu rules, identity "
                "%016llx, ABI %d\n",
                workload.c_str(), domain.c_str(), part.prims.size(),
                part.rules.size(),
                static_cast<unsigned long long>(programIdentity(part)),
                kCppGenAbiVersion);

    TcpListener listener;
    if (!listener.open()) {
        std::fprintf(stderr, "could not open a loopback listener\n");
        return 1;
    }
    std::printf("LISTENING %u\n", listener.port());
    std::fflush(stdout);

    for (;;) {
        int fd = listener.acceptWithin(timeout_ms);
        if (fd < 0) {
            std::fprintf(stderr, "accept timed out — exiting\n");
            return once ? 1 : 0;
        }
        TcpRemoteLink link(fd);
        int rc = servePartitionSlices(link, part, timeout_ms);
        std::printf("connection closed (rc %d)\n", rc);
        std::fflush(stdout);
        if (once)
            return rc;
    }
}
