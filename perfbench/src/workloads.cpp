#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <thread>

#include "benchlib.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "core/codegen_cpp.hpp"
#include "core/domains.hpp"
#include "core/elaborate.hpp"
#include "core/partition.hpp"
#include "obs/trace.hpp"
#include "platform/cosim.hpp"
#include "ray/bvh.hpp"
#include "ray/native.hpp"
#include "ray/partitions.hpp"
#include "ray/scenegen.hpp"
#include "ray/trace_bcl.hpp"
#include "serve/compile_cache.hpp"
#include "serve/pool.hpp"
#include "serve/session.hpp"
#include "vorbis/backend_bcl.hpp"
#include "vorbis/native.hpp"
#include "vorbis/partitions.hpp"
#include "vorbis/tables.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

namespace {

// ---------------------------------------------------------------------------
// Workload sizes. Each is chosen so one operation is long enough to
// time steadily and a whole invocation fits its time budget; see
// METHODOLOGY.md for the measurements behind them.
// ---------------------------------------------------------------------------

/** Cold set-ups per invocation (setup_s is their median): at least
 *  kMinSetupReps, more while they take under kSetupBudgetMs in all. */
constexpr int kMinSetupReps = 3;
constexpr int kMaxSetupReps = 30;
constexpr double kSetupBudgetMs = 1000;

constexpr int kVorbisFrames = 250;

constexpr int kRayWidth = 96;
constexpr int kRayHeight = 96;
/** Scenes per invocation, one per set-up; operations rotate over
 *  them because render cost varies from scene to scene. */
constexpr int kRayScenes = 6;
constexpr int kRayPrims = 1024;

/** Offered stream rate of the open-loop serving workload. */
constexpr double kServeRatePerS = 70;
constexpr int kServeMinFrames = 256;
constexpr int kServeMaxFrames = 2048;
/** How long before a due time the generator stops sleeping. */
constexpr std::chrono::microseconds kServeSpin{300};
/** Streams whose PCM is checked against the native oracle. */
constexpr int kServeChecks = 64;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/** Times one call from outside: adds the elapsed ms to @p out (when
 *  given) and records a "bench" span around it when tracing is on. */
class Timed
{
  public:
    explicit Timed(const char *span, double *out = nullptr)
        : span_(span, "bench"), out_(out), t0_(Clock::now())
    {
    }
    Timed(const Timed &) = delete;
    Timed &operator=(const Timed &) = delete;
    ~Timed()
    {
        if (out_)
            *out_ += msSince(t0_);
    }

  private:
    bcl::obs::TraceSpan span_;
    double *out_;
    Clock::time_point t0_;
};

/** Worker threads: nproc - 1 (one core stays with the caller),
 *  at least 1 and at most 3. */
int
workerThreads()
{
    const unsigned hc = std::thread::hardware_concurrency();
    return std::clamp(static_cast<int>(hc) - 1, 1, 3);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** Input seed of operation @p i (splitmix64 of the pair). */
std::uint64_t
opSeed(std::uint64_t seed, std::uint64_t i)
{
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + i + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Per-layer samples, reduced to their medians. */
struct LayerSamples
{
    std::map<std::string, std::vector<double>> samples;

    void add(const std::string &name, double v)
    {
        samples[name].push_back(v);
    }

    void
    reduceInto(std::map<std::string, double> &out) const
    {
        for (const auto &[name, v] : samples)
            out[name] = median(v);
    }
};

/** Wall time of a traced unit that no top-level benchmark span on the
 *  calling thread accounts for. */
double
unattributedMs(const std::vector<Span> &spans, double wall_ms)
{
    double covered = 0;
    for (const Span &s : spans) {
        if (!s.instant && s.cat == "bench" && s.depth == 0)
            covered += static_cast<double>(s.durNs()) / 1e6;
    }
    return std::max(0.0, wall_ms - covered);
}

/** Front-end and compile phases of one cold set-up, in ms. */
struct SetupTimes
{
    double build = 0, elaborate = 0, domains = 0, partition = 0;
    double compile = 0, construct = 0;
    /** generateCpp on every compiled part, measured after the set-up
     *  is ready and not part of it. */
    double codegen = 0;
    std::uint64_t compiles = 0;   ///< host compiles the cache ran
    std::uint64_t artifacts = 0;  ///< distinct artifacts needed

    double total() const
    {
        return build + elaborate + domains + partition + compile +
               construct;
    }
};

/** The set-up layers of one traced set-up. */
void
addSetupLayers(LayerSamples &L, const std::vector<Span> &spans)
{
    const SpanTotals t = spanTotals(spans);
    L.add("core.build_ms", t.dur("bench:bench.build"));
    L.add("core.elaborate_ms", t.dur("bench:bench.elaborate"));
    L.add("core.domains_ms", t.dur("bench:bench.domains"));
    L.add("core.partition_ms", t.dur("bench:bench.partition"));
    L.add("core.codegen_ms", t.dur("bench:bench.codegen"));
    L.add("gencc.compile_ms", t.dur("gencc:gencc.compile"));
    auto it = t.count.find("gencc:gencc.compile");
    L.add("gencc.compiles",
          it == t.count.end() ? 0 : static_cast<double>(it->second));
}

/** Front end shared by every workload: build, elaborate, infer
 *  domains, partition — each timed. */
std::unique_ptr<bcl::PartitionResult>
frontEnd(const std::function<bcl::Program()> &build, SetupTimes &t)
{
    bcl::Program prog;
    {
        Timed tm("bench.build", &t.build);
        prog = build();
    }
    bcl::ElabProgram elab;
    {
        Timed tm("bench.elaborate", &t.elaborate);
        elab = bcl::elaborate(prog);
    }
    bcl::DomainAssignment doms;
    {
        Timed tm("bench.domains", &t.domains);
        doms = bcl::inferDomains(elab);
    }
    auto parts = std::make_unique<bcl::PartitionResult>();
    {
        Timed tm("bench.partition", &t.partition);
        *parts = bcl::partitionProgram(elab, doms);
    }
    return parts;
}

/** generateCpp on each named part (the cost every cache lookup pays
 *  to derive its key). */
void
probeCodegen(const bcl::PartitionResult &parts,
             const std::vector<std::string> &domains, SetupTimes &t)
{
    Timed tm("bench.codegen", &t.codegen);
    for (const std::string &d : domains) {
        const std::string src = bcl::generateCpp(
            parts.part(d).prog, "BclGenPartition", bcl::CppGenMode::Lifted);
        if (src.empty())
            bcl::fatal("generateCpp returned nothing for " + d);
    }
}

std::string
fmt(const char *f, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, f, v);
    return buf;
}

/**
 * Run cold set-ups: at least @p min_reps, more while cheap. Checks
 * each ran exactly one host compile per distinct artifact, feeds the
 * traced ones to @p L, and returns their set-up times in seconds
 * (empty when one threw).
 */
std::vector<double>
runSetups(const Options &opt, const std::function<SetupTimes()> &setup,
          int min_reps, Result &r, LayerSamples &L, double &unattributed)
{
    std::vector<SetupTimes> all;
    std::vector<double> seconds;
    double spent = 0;
    for (int rep = 0; rep < min_reps ||
                      (rep < kMaxSetupReps && spent < kSetupBudgetMs);
         rep++) {
        bcl::obs::trace().enable(opt.trace);
        const auto t0 = Clock::now();
        SetupTimes st;
        try {
            st = setup();
        } catch (const std::exception &e) {
            bcl::obs::trace().enable(false);
            r.attempted++;
            r.fail(std::string("set-up failed: ") + e.what());
            return {};
        }
        const double wall = msSince(t0);
        spent += wall;
        bcl::obs::trace().enable(false);
        if (st.compiles != st.artifacts) {
            r.fail("set-up ran " + std::to_string(st.compiles) +
                   " host compiles for " + std::to_string(st.artifacts) +
                   " distinct artifacts (cache not cold)");
        }
        if (opt.trace) {
            const std::vector<Span> spans = drainTraceSpans();
            addSetupLayers(L, spans);
            unattributed += unattributedMs(spans, wall);
        }
        seconds.push_back(st.total() / 1e3);
        all.push_back(st);
    }
    auto med = [&](double SetupTimes::*field) {
        std::vector<double> v;
        for (const SetupTimes &st : all)
            v.push_back(st.*field);
        return fmt("%.2f", median(v));
    };
    r.notes.push_back(
        std::to_string(all.size()) + " cold set-ups, median " +
        fmt("%.2f ms", median(seconds) * 1e3) + ": build " +
        med(&SetupTimes::build) + ", elaborate " +
        med(&SetupTimes::elaborate) + ", domains " +
        med(&SetupTimes::domains) + ", partition " +
        med(&SetupTimes::partition) + ", compile " +
        med(&SetupTimes::compile) + " (" +
        std::to_string(all.back().compiles) + " host compiles), construct " +
        med(&SetupTimes::construct) + "; codegen probe " +
        med(&SetupTimes::codegen) + " (not part of set-up)");
    return seconds;
}

// ---------------------------------------------------------------------------
// The two co-simulation workloads share one driver.
// ---------------------------------------------------------------------------

/** One co-simulation operation: construct a CoSim and run it. */
struct CosimOp
{
    std::vector<std::uint32_t> output;  ///< PCM samples or pixels
    /** Rule fires, messages and payload words: equal at every thread
     *  count. */
    std::vector<std::uint64_t> invariant;
    /** Cycle-dependent statistics: exact at threads == 1, free to
     *  shift at threads > 1. */
    std::vector<std::uint64_t> timing;
    std::map<std::string, double> counts;  ///< per-layer counts
    double constructMs = 0;
    double runMs = 0;
    std::uint64_t items = 0;  ///< frames or pixels completed
};

struct CosimWorkload
{
    const char *itemName;
    std::vector<std::string> domains;  ///< SW first, then HW
    /** One cold set-up; keeps its state for the operations. */
    std::function<SetupTimes()> setup;
    int setups = kMinSetupReps;  ///< minimum cold set-ups
    /** Operation @p i on the last set-up, at @p threads. */
    std::function<CosimOp(std::uint64_t i, int threads)> op;
    /** When > 0, the traced run repeats each operation on the parallel
     *  engine at this many threads for the epoch layers. */
    int parallelThreads = 0;
    /** Expected output of operation @p i, from the native oracle. */
    std::function<std::vector<std::uint32_t>(std::uint64_t i)> oracle;
    /** Operations come in whole cycles of this many (distinct inputs
     *  the operations rotate over); unset means 1. */
    std::function<std::size_t()> cycle;
};

/** Per-layer counts every co-simulation operation reports. */
void
collectCounts(bcl::CoSim &cs, const std::vector<std::string> &domains,
              CosimOp &op)
{
    Timed tm("bench.collect");
    const bcl::ExecStats &sw = cs.swInterp().stats();
    op.counts["runtime.sw_rules_fired"] = static_cast<double>(sw.rulesFired);
    op.counts["runtime.sw_rules_attempted"] =
        static_cast<double>(sw.rulesAttempted);
    op.counts["runtime.sw_work"] = static_cast<double>(sw.work);
    op.invariant.push_back(sw.rulesFired);
    op.timing.push_back(sw.rulesAttempted);
    op.timing.push_back(sw.work);
    for (const std::string &d : domains) {
        const bcl::HwStats *hw = cs.hwStats(d);
        if (!hw)
            continue;
        op.counts["hwsim.rule_fires." + d] =
            static_cast<double>(hw->rulesFired);
        op.counts["hwsim.cycles." + d] = static_cast<double>(hw->cycles);
        op.invariant.push_back(hw->rulesFired);
        op.timing.push_back(hw->cycles);
    }
    bcl::ChannelStats sum;
    for (const auto &chan : cs.channels()) {
        const bcl::ChannelStats &s = chan->stats();
        sum.messages += s.messages;
        sum.payloadWords += s.payloadWords;
        sum.stallCycles += s.stallCycles;
        sum.stallEvents += s.stallEvents;
    }
    std::uint64_t busy = 0, grants = 0;
    for (const auto &u : cs.linkUsage()) {
        busy += u.busyCycles;
        grants += u.grants;
    }
    op.counts["channel.messages"] = static_cast<double>(sum.messages);
    op.counts["channel.payload_words"] =
        static_cast<double>(sum.payloadWords);
    op.counts["channel.stall_cycles"] = static_cast<double>(sum.stallCycles);
    op.counts["channel.stall_events"] = static_cast<double>(sum.stallEvents);
    op.counts["link.busy_cycles"] = static_cast<double>(busy);
    op.counts["link.grants"] = static_cast<double>(grants);
    op.counts["cosim.fpga_cycles"] = static_cast<double>(cs.now());
    op.invariant.push_back(sum.messages);
    op.invariant.push_back(sum.payloadWords);
    op.timing.insert(op.timing.end(), {sum.stallCycles, sum.stallEvents,
                                       busy, grants, cs.now()});
}

/** Per-layer numbers of one traced co-simulation operation. */
void
addOpLayers(LayerSamples &L, const CosimWorkload &w, const CosimOp &op,
            const std::vector<Span> &spans)
{
    const SpanTotals t = spanTotals(spans);
    const double runMs = t.dur("bench:bench.run");
    L.add("cosim.construct_ms", t.dur("bench:bench.construct"));
    L.add("cosim.run_ms", runMs);
    for (const std::string &d : w.domains) {
        const double self = t.self("cosim.slice:" + d);
        L.add("cosim.slice_ms." + d, self);
        auto cyc = op.counts.find("hwsim.cycles." + d);
        if (cyc != op.counts.end() && self > 0)
            L.add("hwsim.cycles_per_s." + d, cyc->second / (self / 1e3));
    }
    for (const auto &[name, v] : op.counts)
        L.add(name, v);
    auto fired = op.counts.find("runtime.sw_rules_fired");
    auto tried = op.counts.find("runtime.sw_rules_attempted");
    if (tried->second > 0)
        L.add("runtime.sw_guard_ok_ratio", fired->second / tried->second);

    // The sequential engine slices on the calling thread; the rest of
    // CoSim::run is the coordinator's channel pump, deliver and
    // marshal.
    double slices = 0;
    for (const std::string &d : w.domains)
        slices += t.dur("cosim.slice:" + d);
    L.add("cosim.coord_ms", std::max(0.0, runMs - slices));
}

/** Epoch layers of one traced parallel run of an operation whose
 *  sequential run took @p seq_run_ms. */
void
addParallelLayers(LayerSamples &L, const CosimOp &par, double seq_run_ms,
                  const std::vector<Span> &spans)
{
    const EpochStats es = epochStats(spans);
    L.add("cosim.epochs", static_cast<double>(es.epochs));
    L.add("cosim.epoch_us_p50", percentile(es.epochUs, 0.5).value);
    L.add("cosim.epoch_us_p99", percentile(es.epochUs, 0.99).value);
    L.add("cosim.epoch_overhead_ms", es.overheadMs);
    L.add("cosim.imbalance_ms", es.imbalanceMs);
    L.add("cosim.parallel_run_ms", par.runMs);
    if (par.runMs > 0)
        L.add("cosim.parallel_speedup", seq_run_ms / par.runMs);
}

Result
runCosimWorkload(const Options &opt, CosimWorkload &w)
{
    Result r;
    LayerSamples L;
    double unattributed = 0;

    const std::vector<double> setupS =
        runSetups(opt, w.setup, w.setups, r, L, unattributed);
    if (setupS.empty())
        return r;

    std::vector<double> opMs;
    double runMsTotal = 0, tracedRunMs = 0, untracedRunMs = 0;
    std::uint64_t items = 0;
    const auto start = Clock::now();
    const std::uint64_t cycle = w.cycle ? w.cycle() : 1;
    for (std::uint64_t i = 0;
         i == 0 || i % cycle != 0 || msSince(start) < opt.seconds * 1e3;
         i++) {
        r.attempted++;
        try {
            const std::vector<std::uint32_t> expected = w.oracle(i);
            CosimOp op = w.op(i, 1);
            if (op.output != expected) {
                r.fail("operation " + std::to_string(i) +
                       ": output differs from the native oracle");
                continue;
            }
            opMs.push_back(op.constructMs + op.runMs);
            runMsTotal += op.runMs;
            items += op.items;
            if (!opt.trace)
                continue;
            bcl::obs::trace().enable(true);
            const auto t0 = Clock::now();
            CosimOp traced = w.op(i, 1);
            const double wall = msSince(t0);
            bcl::obs::trace().enable(false);
            const std::vector<Span> spans = drainTraceSpans();
            if (traced.output != op.output ||
                traced.invariant != op.invariant ||
                traced.timing != op.timing) {
                r.fail("operation " + std::to_string(i) +
                       ": traced run differs from the untraced run");
                continue;
            }
            addOpLayers(L, w, traced, spans);
            unattributed += unattributedMs(spans, wall);
            tracedRunMs += traced.runMs;
            untracedRunMs += op.runMs;
            if (w.parallelThreads <= 0)
                continue;
            bcl::obs::trace().enable(true);
            const auto p0 = Clock::now();
            CosimOp par = w.op(i, w.parallelThreads);
            const double parWall = msSince(p0);
            bcl::obs::trace().enable(false);
            const std::vector<Span> parSpans = drainTraceSpans();
            if (par.output != op.output || par.invariant != op.invariant) {
                r.fail("operation " + std::to_string(i) +
                       ": parallel run differs from the sequential run");
                continue;
            }
            addParallelLayers(L, par, traced.runMs, parSpans);
            unattributed += unattributedMs(parSpans, parWall);
        } catch (const std::exception &e) {
            bcl::obs::trace().enable(false);
            r.fail("operation " + std::to_string(i) + ": " + e.what());
        }
    }

    if (!opMs.empty()) {
        r.endToEnd["setup_s"] = median(setupS);
        r.endToEnd["items_per_s"] =
            static_cast<double>(items) / (runMsTotal / 1e3);
        std::string each;
        for (double ms : opMs)
            each += (each.empty() ? "" : ", ") + fmt("%.0f", ms);
        r.notes.push_back("construct + run per operation (ms): " + each);
        r.notes.push_back(
            std::to_string(opMs.size()) + " runs, " + std::to_string(items) +
            " " + w.itemName + " in " + fmt("%.1f ms", runMsTotal) +
            " inside CoSim::run");
    }
    r.endToEnd["peak_rss_mb"] = peakRssMb();
    if (opt.trace) {
        L.reduceInto(r.layers);
        r.layers["trace.unattributed_ms"] = unattributed;
        if (untracedRunMs > 0)
            r.layers["trace.overhead_ratio"] = tracedRunMs / untracedRunMs;
    }
    return r;
}

// ---------------------------------------------------------------------------
// cosim_vorbis_split
// ---------------------------------------------------------------------------

std::vector<std::uint32_t>
asWords(const std::vector<std::int32_t> &v)
{
    return std::vector<std::uint32_t>(v.begin(), v.end());
}

} // namespace

void
Result::fail(const std::string &why)
{
    correct = false;
    failed++;
    notes.push_back("FAILED: " + why);
}

Result
runVorbisSplit(const Options &opt)
{
    struct State
    {
        std::unique_ptr<bcl::PartitionResult> parts;
        int push = -1, audio = -1;
    };
    auto state = std::make_shared<State>();
    const std::vector<std::string> hwDoms = {"HWA", "HWB", "HWC"};
    auto config = [](int threads) {
        bcl::CosimConfig cfg;
        cfg.threads = threads;
        return cfg;
    };

    CosimWorkload w;
    w.itemName = "frames";
    w.domains = {"SW", "HWA", "HWB", "HWC"};
    w.parallelThreads = workerThreads();
    w.setup = [state, config] {
        SetupTimes t;
        auto parts = frontEnd(
            [] { return bcl::vorbis::makeVorbisProgram(
                     bcl::vorbis::splitVorbisConfig()); },
            t);
        {
            Timed tm("bench.construct", &t.construct);
            bcl::CoSim cs(*parts, config(1));
        }
        const bcl::PartitionPart &sw = parts->part("SW");
        state->push = sw.prog.rootMethod("input");
        state->audio = sw.prog.primByPath("audio");
        state->parts = std::move(parts);
        return t;
    };
    w.op = [state, config, hwDoms, seed = opt.seed](std::uint64_t i,
                                                    int threads) {
        CosimOp op;
        std::shared_ptr<bcl::vorbis::VorbisStreamState> input;
        {
            Timed tm("bench.inputs");
            input = bcl::vorbis::makeVorbisStreamState(kVorbisFrames,
                                                       opSeed(seed, i));
        }
        std::unique_ptr<bcl::CoSim> cs;
        {
            Timed tm("bench.construct", &op.constructMs);
            cs = std::make_unique<bcl::CoSim>(*state->parts, config(threads));
        }
        cs->setDriver("SW", bcl::vorbis::makeVorbisStreamDriver(
                                input, state->push));
        const int audio = state->audio;
        {
            Timed tm("bench.run", &op.runMs);
            cs->run([audio](bcl::CoSim &c) {
                return c.storeOf("SW").at(audio).queue.size() ==
                       static_cast<std::size_t>(kVorbisFrames);
            });
        }
        op.output = asWords(bcl::vorbis::extractPcm(*cs, audio));
        op.items = kVorbisFrames;
        collectCounts(*cs, hwDoms, op);
        return op;
    };
    w.oracle = [seed = opt.seed](std::uint64_t i) {
        return asWords(bcl::vorbis::runNativeBackend(
                           bcl::vorbis::makeFrames(kVorbisFrames,
                                                   opSeed(seed, i)))
                           .pcm);
    };
    return runCosimWorkload(opt, w);
}

// ---------------------------------------------------------------------------
// cosim_ray_split
// ---------------------------------------------------------------------------

Result
runRaySplit(const Options &opt)
{
    // Every set-up builds and compiles its own seeded scene (the scene
    // is baked into the hardware partitions); operations rotate over
    // the scenes so one unusually cheap or costly scene does not set
    // the figure.
    struct Scene
    {
        std::vector<bcl::ray::Sphere> spheres;
        bcl::ray::Bvh bvh;
        bcl::ray::Camera cam;
        std::unique_ptr<bcl::PartitionResult> parts;
        std::unique_ptr<bcl::serve::CompileCache> cache;
        int doneCnt = -1, fb = -1;
        std::vector<std::uint32_t> expected;
    };
    auto scenes = std::make_shared<std::vector<std::unique_ptr<Scene>>>();
    const std::vector<std::string> hwDoms = {"HWT", "HWX", "HWG"};
    auto config = [](bcl::serve::CompileCache *cache) {
        bcl::CosimConfig cfg;
        cfg.hwBackend = bcl::HwBackend::Compiled;
        cfg.compileProvider = [cache](const bcl::ElabProgram &p,
                                      const bcl::GenccOptions &o) {
            return cache->get(p, o);
        };
        return cfg;
    };
    auto sceneOf = [scenes](std::uint64_t i) -> Scene & {
        return *(*scenes)[i % scenes->size()];
    };

    CosimWorkload w;
    w.itemName = "pixels";
    w.domains = {"SW", "HWT", "HWX", "HWG"};
    w.setup = [scenes, hwDoms, config, seed = opt.seed] {
        SetupTimes t;
        auto sc = std::make_unique<Scene>();
        Scene &s = *sc;
        auto parts = frontEnd(
            [&] {
                s.spheres = bcl::ray::makeScene(
                    kRayPrims, opSeed(seed, scenes->size()));
                s.bvh = bcl::ray::buildBvh(s.spheres);
                s.cam = bcl::ray::makeCamera();
                return bcl::ray::makeRayProgram(
                    bcl::ray::splitRayConfig(kRayWidth, kRayHeight),
                    s.spheres, s.bvh, s.cam);
            },
            t);
        // A fresh in-process cache per set-up: every artifact is a
        // cold host compile, never a disk or memory hit.
        s.cache = std::make_unique<bcl::serve::CompileCache>();
        {
            Timed tm("bench.compile", &t.compile);
            for (const std::string &d : hwDoms)
                s.cache->get(parts->part(d).prog, bcl::GenccOptions{});
        }
        s.parts = std::move(parts);
        {
            Timed tm("bench.construct", &t.construct);
            bcl::CoSim cs(*s.parts, config(s.cache.get()));
        }
        t.compiles = s.cache->stats().compiles;
        t.artifacts = hwDoms.size();
        probeCodegen(*s.parts, hwDoms, t);
        const bcl::PartitionPart &sw = s.parts->part("SW");
        s.doneCnt = sw.prog.primByPath("doneCnt");
        s.fb = sw.prog.primByPath("fb");
        scenes->push_back(std::move(sc));
        return t;
    };
    w.setups = kRayScenes;
    w.cycle = [scenes] { return scenes->size(); };
    w.op = [sceneOf, hwDoms, config](std::uint64_t i, int threads) {
        Scene &s = sceneOf(i);
        CosimOp op;
        std::unique_ptr<bcl::CoSim> cs;
        {
            Timed tm("bench.construct", &op.constructMs);
            bcl::CosimConfig cfg = config(s.cache.get());
            cfg.threads = threads;
            cs = std::make_unique<bcl::CoSim>(*s.parts, std::move(cfg));
        }
        const std::uint64_t total =
            static_cast<std::uint64_t>(kRayWidth) * kRayHeight;
        const int doneCnt = s.doneCnt;
        {
            Timed tm("bench.run", &op.runMs);
            cs->run([doneCnt, total](bcl::CoSim &c) {
                return c.storeOf("SW").at(doneCnt).val.asUInt() == total;
            });
        }
        for (const bcl::Value &px : cs->storeOf("SW").at(s.fb).val.elems())
            op.output.push_back(static_cast<std::uint32_t>(px.asUInt()));
        op.items = total;
        collectCounts(*cs, hwDoms, op);
        return op;
    };
    w.oracle = [sceneOf](std::uint64_t i) {
        Scene &s = sceneOf(i);
        if (s.expected.empty()) {
            s.expected = bcl::ray::renderNative(s.spheres, s.bvh, s.cam,
                                                kRayWidth, kRayHeight)
                             .pixels;
        }
        return s.expected;
    };
    return runCosimWorkload(opt, w);
}

// ---------------------------------------------------------------------------
// serve_vorbis_open
// ---------------------------------------------------------------------------

namespace {

/** What the benchmark records about one stream. */
struct StreamRec
{
    Clock::time_point due{};
    Clock::time_point done{};  ///< last frame decoded; unset if not
    bool finished = false;
    double createUs = 0;
    double lagMs = 0;
    std::uint64_t rulesFired = 0;
    std::uint64_t rulesAttempted = 0;
};

struct ServeState
{
    std::unique_ptr<bcl::PartitionResult> parts;
    std::unique_ptr<bcl::serve::SessionManager> sm;
    std::shared_ptr<const bcl::CompiledArtifact> artifact;
    int push = -1, audio = -1;
};

SetupTimes
serveSetup(ServeState &s)
{
    SetupTimes t;
    // Drop the previous manager (and with it its cache) first, so the
    // compile below is cold.
    s.sm.reset();
    s.artifact.reset();
    auto parts = frontEnd(
        [] {
            return bcl::vorbis::makeVorbisProgram(bcl::vorbis::VorbisConfig{});
        },
        t);
    {
        Timed tm("bench.construct", &t.construct);
        bcl::serve::SessionManagerOptions o;
        o.workers = workerThreads();
        s.sm = std::make_unique<bcl::serve::SessionManager>(o);
    }
    {
        Timed tm("bench.compile", &t.compile);
        s.artifact = s.sm->cache().get(parts->part("SW").prog,
                                       bcl::GenccOptions{});
    }
    t.compiles = s.sm->cache().stats().compiles;
    t.artifacts = 1;
    s.parts = std::move(parts);
    probeCodegen(*s.parts, {"SW"}, t);
    const bcl::PartitionPart &sw = s.parts->part("SW");
    s.push = sw.prog.rootMethod("input");
    s.audio = sw.prog.primByPath("audio");
    return t;
}

/** One open-loop window over @p sched. */
struct Window
{
    std::vector<StreamRec> recs;
    /** Sessions kept for the oracle check, by stream index. */
    std::vector<std::pair<std::size_t, std::shared_ptr<bcl::serve::Session>>>
        kept;
    std::string error;  ///< first pool exception, if any
    Clock::time_point start{};
};

Window
runWindow(ServeState &s, const std::vector<Arrival> &sched,
          const std::vector<bool> &check)
{
    Window win;
    win.recs.resize(sched.size());
    const int audio = s.audio;
    {
        Timed gen("bench.generate");
        win.start = Clock::now();
        for (std::size_t i = 0; i < sched.size(); i++) {
            StreamRec &rec = win.recs[i];
            rec.due = win.start + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(
                                          sched[i].dueS));
            // The stream's input is made before its due time: it is
            // the client's data, not work the server does.
            bcl::serve::StreamSpec spec;
            spec.driver = bcl::vorbis::makeVorbisStreamDriver(
                bcl::vorbis::makeVorbisStreamState(sched[i].frames,
                                                   sched[i].seed),
                s.push);
            spec.target = static_cast<std::uint64_t>(sched[i].frames);
            const std::uint64_t target = spec.target;
            StreamRec *out = &rec;
            // Runs on the worker that owns the session; the pool's
            // drain orders these writes before the reads below.
            spec.progress = [out, audio, target](bcl::CoSim &cs) {
                const std::uint64_t n = cs.storeOf("SW").at(audio).queue.size();
                if (n >= target && !out->finished) {
                    out->done = Clock::now();
                    out->finished = true;
                    if (const bcl::CompiledPartition *cp = cs.swCompiled()) {
                        out->rulesFired = cp->rulesFired();
                        out->rulesAttempted = cp->rulesAttempted();
                    }
                }
                return n;
            };
            bcl::CosimConfig cfg;
            cfg.swBackend = bcl::SwBackend::Compiled;
            cfg.swArtifact = s.artifact;

            // Sleep to just short of the due time, then spin: a
            // sleeping thread's wake-up latency would otherwise be
            // charged to every stream.
            std::this_thread::sleep_until(rec.due - kServeSpin);
            while (Clock::now() < rec.due) {
            }
            rec.lagMs = msSince(rec.due);
            std::shared_ptr<bcl::serve::Session> session;
            double createMs = 0;
            {
                Timed tm("bench.create_session", &createMs);
                session = s.sm->createSession(*s.parts, std::move(cfg),
                                              std::move(spec));
                s.sm->start(session);
            }
            rec.createUs = createMs * 1e3;
            if (check[i])
                win.kept.emplace_back(i, std::move(session));
        }
    }
    {
        Timed tm("bench.drain");
        try {
            s.sm->drain();
        } catch (const std::exception &e) {
            win.error = e.what();
        }
    }
    return win;
}

} // namespace

Result
runServeOpen(const Options &opt)
{
    Result r;
    LayerSamples L;
    double unattributed = 0;
    ServeState s;

    const std::vector<double> setupS =
        runSetups(opt, [&s] { return serveSetup(s); }, kMinSetupReps, r, L,
                  unattributed);
    if (setupS.empty())
        return r;

    const std::vector<Arrival> sched = makeSchedule(
        opt.seed, kServeRatePerS, opt.seconds, kServeMinFrames,
        kServeMaxFrames);
    // Seeded sample of streams to check against the native oracle.
    std::vector<bool> check(sched.size(), false);
    bcl::Rng pick(opSeed(opt.seed, 0xC4EC));
    for (int k = 0; k < kServeChecks && !sched.empty(); k++)
        check[pick.below(sched.size())] = true;

    auto verify = [&](const Window &win, const char *pass) {
        if (!win.error.empty())
            r.notes.push_back(std::string("pool error: ") + win.error);
        for (const auto &[i, session] : win.kept) {
            const std::vector<std::int32_t> got =
                bcl::vorbis::extractPcm(session->cosim(), s.audio);
            const std::vector<std::int32_t> want =
                bcl::vorbis::runNativeBackend(
                    bcl::vorbis::makeFrames(sched[i].frames, sched[i].seed))
                    .pcm;
            if (got != want) {
                r.notes.push_back(std::string(pass) + " stream " +
                                  std::to_string(i) +
                                  ": PCM differs from the native oracle");
                return false;
            }
        }
        return true;
    };

    Window plain = runWindow(s, sched, check);
    const bool plainOk = verify(plain, "untraced");
    std::vector<double> streamMs;
    Clock::time_point lastDone = plain.start;
    for (std::size_t i = 0; i < sched.size(); i++) {
        const StreamRec &rec = plain.recs[i];
        r.attempted++;
        if (!rec.finished) {
            r.fail("stream " + std::to_string(i) + " did not finish");
            continue;
        }
        streamMs.push_back(
            std::chrono::duration<double, std::milli>(rec.done - rec.due)
                .count());
        lastDone = std::max(lastDone, rec.done);
    }
    if (!plainOk)
        r.fail("sampled stream PCM differs from the native oracle");

    if (!streamMs.empty()) {
        const Clock::time_point firstDue = plain.recs.front().due;
        const double windowS =
            std::chrono::duration<double>(lastDone - firstDue).count();
        std::vector<double> lag, create;
        for (const StreamRec &rec : plain.recs) {
            lag.push_back(rec.lagMs);
            create.push_back(rec.createUs);
        }
        r.endToEnd["setup_s"] = median(setupS);
        r.endToEnd["items_per_s"] =
            static_cast<double>(streamMs.size()) / windowS;
        r.notes.push_back(
            std::to_string(streamMs.size()) + " streams offered at " +
            fmt("%.0f/s", kServeRatePerS) + " completed in " +
            fmt("%.3f s", windowS) + "; stream latency p50 " +
            fmt("%.3f ms", median(streamMs)) + " p90 " +
            fmt("%.3f ms", percentile(streamMs, 0.9).value) + " p99 " +
            fmt("%.3f ms", percentile(streamMs, 0.99).value) +
            "; generator lag p99 " +
            fmt("%.3f ms", percentile(lag, 0.99).value) +
            "; createSession+start p50 " +
            fmt("%.1f us", median(create)) + " p99 " +
            fmt("%.1f us", percentile(create, 0.99).value) + "; lag p50 " +
            fmt("%.3f ms", median(lag)));
    }
    r.endToEnd["peak_rss_mb"] = peakRssMb();

    if (opt.trace) {
        bcl::obs::trace().enable(true);
        const auto t0 = Clock::now();
        Window traced = runWindow(s, sched, check);
        const double wall = msSince(t0);
        bcl::obs::trace().enable(false);
        const std::vector<Span> spans = drainTraceSpans();
        unattributed += unattributedMs(spans, wall);
        if (!verify(traced, "traced"))
            r.fail("traced sampled stream PCM differs from the native oracle");

        std::vector<double> tracedMs, createUs, lagMs;
        std::uint64_t fired = 0, attempted = 0;
        bool same = true;
        for (std::size_t i = 0; i < sched.size(); i++) {
            const StreamRec &a = plain.recs[i];
            const StreamRec &b = traced.recs[i];
            same = same && a.finished == b.finished &&
                   a.rulesFired == b.rulesFired &&
                   a.rulesAttempted == b.rulesAttempted;
            fired += b.rulesFired;
            attempted += b.rulesAttempted;
            if (b.finished)
                tracedMs.push_back(
                    std::chrono::duration<double, std::milli>(b.done - b.due)
                        .count());
            lagMs.push_back(b.lagMs);
        }
        if (!same)
            r.fail("traced window's per-stream rule counts differ from the "
                   "untraced window's");

        // Queue wait: a session's submit instant to its first advance.
        std::map<std::int64_t, std::uint64_t> queuedAt;
        std::vector<double> queueMs, advanceUs;
        std::vector<const Span *> advances;
        for (const Span &sp : spans) {
            if (sp.instant && sp.name == "session.queued" && sp.hasArg)
                queuedAt.emplace(sp.arg, sp.beginNs);
            if (!sp.instant && sp.name == "session.advance") {
                advances.push_back(&sp);
                advanceUs.push_back(static_cast<double>(sp.durNs()) / 1e3);
            }
            if (!sp.instant && sp.name == "bench.create_session")
                createUs.push_back(static_cast<double>(sp.durNs()) / 1e3);
        }
        std::sort(advances.begin(), advances.end(),
                  [](const Span *a, const Span *b) {
                      return a->beginNs < b->beginNs;
                  });
        for (const Span *sp : advances) {
            auto it = queuedAt.find(sp->arg);
            if (it == queuedAt.end())
                continue;
            queueMs.push_back(
                static_cast<double>(sp->beginNs - it->second) / 1e6);
            queuedAt.erase(it);
        }
        const SpanTotals t = spanTotals(spans);
        L.reduceInto(r.layers);
        r.layers["serve.create_session_us_p50"] = median(createUs);
        r.layers["serve.create_session_us_p99"] =
            percentile(createUs, 0.99).value;
        r.layers["serve.queue_wait_ms_p99"] = percentile(queueMs, 0.99).value;
        r.layers["serve.gen_lag_ms_p99"] = percentile(lagMs, 0.99).value;
        r.layers["serve.advance_us_p50"] = percentile(advanceUs, 0.5).value;
        r.layers["serve.quanta"] = static_cast<double>(advanceUs.size());
        const bcl::serve::CompileCacheStats cs = s.sm->cache().stats();
        r.layers["serve.cache.hits"] = static_cast<double>(cs.hits);
        r.layers["serve.cache.compiles"] = static_cast<double>(cs.compiles);
        r.layers["runtime.sw_rules_fired"] = static_cast<double>(fired);
        r.layers["runtime.sw_rules_attempted"] =
            static_cast<double>(attempted);
        if (attempted > 0)
            r.layers["runtime.sw_guard_ok_ratio"] =
                static_cast<double>(fired) / static_cast<double>(attempted);
        r.layers["cosim.slice_ms.SW"] = t.self("cosim.slice:SW");
        r.layers["trace.unattributed_ms"] = unattributed;
        r.layers["serve.streams"] = static_cast<double>(streamMs.size());
        const double untracedP50 = median(streamMs);
        r.layers["serve.stream_ms_p50"] = untracedP50;
        r.layers["serve.stream_ms_p99"] = percentile(streamMs, 0.99).value;
        if (untracedP50 > 0)
            r.layers["trace.overhead_ratio"] = median(tracedMs) / untracedP50;
    }
    return r;
}

} // namespace perfbench
