/**
 * @file
 * Regenerates the platform characterization claims of section 7:
 *
 *   "Through the synchronizers, we achieve a round-trip latency of
 *    approximately 100 FPGA cycles, and are able to stream up to 400
 *    megabytes per second from DDR2 memory to the FPGA modules."
 *
 * Two experiments over the modeled LocalLink/HDMA path:
 *   1. ping-pong: a 1-word message SW -> HW and its echo; serialized
 *      (capacity-1 synchronizers) so each round trip is exposed;
 *   2. streaming: one-way transfers at growing message sizes; the
 *      achieved bandwidth approaches 4 bytes/FPGA-cycle = 400 MB/s at
 *      100 MHz as per-message overhead amortizes.
 *
 * Also prints the PCIe preset for comparison (the paper ran both but
 * reported the embedded configuration), and a deep-queue drain
 * microbenchmark of the PrimState FIFO representation: the channel
 * transports and FIFO primitives pop from the front on every message,
 * so a vector erase(begin()) there made draining a deep channel
 * O(n^2) — ValueQueue's front-index pop is the fix, and this bench
 * measures both disciplines on the same workload.
 */
#include <chrono>
#include <cstdio>
#include <string>

#include "bench_flags.hpp"
#include "common/stats.hpp"
#include "core/builder.hpp"
#include "core/domains.hpp"
#include "core/elaborate.hpp"
#include "core/partition.hpp"
#include "platform/cosim.hpp"
#include "platform/platform_spec.hpp"

using namespace bcl;

namespace {

/** Echo program with configurable payload vector size and depth. */
Program
makeEcho(int words, int depth)
{
    TypePtr payload =
        words == 1 ? Type::bits(32)
                   : Type::vec(words, TypePtr(Type::bits(32)));
    ModuleBuilder b("Top");
    b.addSync("toHw", payload, depth, "SW", "HW");
    b.addSync("fromHw", payload, depth, "HW", "SW");
    b.addAudioDev("out", "SW");
    b.addActionMethod("push", {{"x", payload}},
                      callA("toHw", "enq", {varE("x")}), "SW");
    b.addRule("echo", parA({callA("fromHw", "enq",
                                  {callV("toHw", "first")}),
                            callA("toHw", "deq")}));
    b.addRule("drain", parA({callA("out", "output",
                                   {callV("fromHw", "first")}),
                             callA("fromHw", "deq")}));
    return ProgramBuilder().add(b.build()).setRoot("Top").build();
}

struct CommResult
{
    std::uint64_t cycles = 0;
    std::uint64_t words_moved = 0;
};

CommResult
runEcho(int words, int depth, int count, const PlatformSpec &plat)
{
    Program p = makeEcho(words, depth);
    ElabProgram elab = elaborate(p);
    DomainAssignment doms = inferDomains(elab);
    PartitionResult parts = partitionProgram(elab, doms);

    CosimConfig cfg;
    cfg.platform = plat;
    // Measure the transport layer, not SW driver work.
    cfg.swCosts.perSyncMessage = 0;
    CoSim cosim(parts, cfg);
    const PartitionPart &sw = parts.part("SW");
    int push = sw.prog.rootMethod("push");
    int out = sw.prog.primByPath("out");

    Value msg = words == 1
                    ? Value::makeInt(32, 7)
                    : Value::makeVec(std::vector<Value>(
                          words, Value::makeInt(32, 7)));
    int fed = 0;
    SwDriver driver;
    driver.step = [&](SwPort &port) -> std::uint64_t {
        if (fed >= count)
            return 0;
        // Serialized ping-pong: the next message goes out only after
        // the previous echo came back (words == 1 measures the
        // round-trip latency); streaming runs keep the pipe full.
        if (words == 1 &&
            port.store().at(out).queue.size() !=
                static_cast<size_t>(fed)) {
            return 0;
        }
        std::uint64_t before = port.work();
        if (port.callActionMethod(push, {msg})) {
            fed++;
            return port.work() - before + 1;
        }
        return 0;
    };
    driver.done = [&] { return fed >= count; };
    cosim.setDriver("SW", driver);

    CommResult res;
    res.cycles = cosim.run([&](CoSim &cs) {
        return cs.storeOf("SW").at(out).queue.size() ==
               static_cast<size_t>(count);
    });
    res.words_moved = static_cast<std::uint64_t>(words) * count * 2;
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    // --platform FILE|PRESET swaps the primary platform model under
    // measurement; the default is the paper's ml507 calibration with
    // the pcie preset printed for comparison.
    PlatformSpec plat = PlatformSpec::ml507();
    bench::Flags("comm_microbench").addPlatform(&plat).parse(argc, argv);
    const bool plat_overridden = plat.name != "ml507";

    std::printf("== Section 7 platform characterization "
                "(platform: %s) ==\n\n",
                plat.name.c_str());

    // --- round trip ---------------------------------------------------
    {
        const int pings = 64;
        CommResult r = runEcho(1, 1, pings, plat);
        double rt = static_cast<double>(r.cycles) / pings;
        std::printf("ping-pong round trip (%s, 1 word): "
                    "%.1f FPGA cycles/message\n",
                    plat.name.c_str(), rt);
        std::printf("  paper: \"approximately 100 FPGA cycles\" "
                    "(ml507)\n");
        if (!plat_overridden) {
            CommResult pc =
                runEcho(1, 1, pings, PlatformSpec::pcie());
            std::printf("ping-pong round trip (PCIe preset):        "
                        "%.1f FPGA cycles/message\n",
                        static_cast<double>(pc.cycles) / pings);
        }
        std::printf("\n");
    }

    // --- streaming bandwidth -------------------------------------------
    {
        TextTable table;
        table.header({"message words", "messages", "cycles",
                      "MB/s @100MHz"});
        for (int words : {8, 32, 128, 512}) {
            const int count = 2048 / words * 4;
            CommResult r = runEcho(words, 16, count, plat);
            // One-way payload only (the echo doubles the traffic but
            // directions have independent links).
            double bytes = 4.0 * words * count;
            double mbps = bytes / r.cycles * 100.0;  // 100 MHz, MB/s
            table.row({std::to_string(words), std::to_string(count),
                       withCommas(r.cycles), fixedDecimal(mbps, 1)});
        }
        std::printf("streaming (deep synchronizers, overlapped "
                    "transfers):\n%s",
                    table.str().c_str());
        std::printf("  paper: \"stream up to 400 megabytes per "
                    "second\" (= 4 B/cycle at 100 MHz)\n");
    }

    // --- deep-queue drain ------------------------------------------------
    // Same Values, two pop disciplines. ValueQueue::pop_front is the
    // representation PrimState uses (front index, O(1) amortized);
    // the erase(begin()) loop is the pre-fix behavior kept here as
    // the reference so the win stays measured.
    {
        const int depth = 50000;
        auto fill = [&](auto &q) {
            for (int i = 0; i < depth; i++)
                q.push_back(Value::makeInt(32, i));
        };

        ValueQueue vq;
        fill(vq);
        auto t0 = std::chrono::steady_clock::now();
        while (!vq.empty())
            vq.pop_front();
        auto t1 = std::chrono::steady_clock::now();

        std::vector<Value> vec;
        fill(vec);
        auto t2 = std::chrono::steady_clock::now();
        while (!vec.empty())
            vec.erase(vec.begin());
        auto t3 = std::chrono::steady_clock::now();

        double q_ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        double e_ms =
            std::chrono::duration<double, std::milli>(t3 - t2).count();
        std::printf("\ndeep-queue drain (%d messages):\n", depth);
        std::printf("  ValueQueue pop_front: %8.2f ms\n", q_ms);
        std::printf("  vector erase(begin):  %8.2f ms  (%.0fx)\n",
                    e_ms, q_ms > 0 ? e_ms / q_ms : 0);
    }
    return 0;
}
