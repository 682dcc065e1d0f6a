/**
 * @file
 * Hardware/software co-simulation in virtual time. Executes a
 * partitioned program end to end:
 *
 *   - each domain runs behind one executor (DomainExec): interpreted
 *     or compiled software, ClockSim, the compiled clock edge, or a
 *     remote peer. Software work converts to FPGA cycles through the
 *     CPU clock ratio (PPC440 at 400 MHz vs fabric at 100 MHz: 4 CPU
 *     cycles per FPGA cycle); hardware runs one rule set per FPGA
 *     cycle, skipping idle gaps event-driven,
 *   - channels move messages between the domains' Stores (mirrors,
 *     for compiled and remote domains) with bus timing and
 *     credit-based flow control,
 *   - one slice routine per DomainKind (software: a quantum of steps
 *     plus the host driver; hardware: clocking up to a horizon) and
 *     one run loop that owns the horizon, quiescence-advance, the
 *     cycle cap and deadlock detection.
 *
 * An optional SwDriver plays the role of the software "up the stack"
 * (the Vorbis front end invoking backend.input(frame)).
 *
 * Timing approximation: software runs in bounded quanta ahead of
 * hardware; because every cross-domain interface is a latency-
 * insensitive synchronizer, the quantum affects reported cycle counts
 * only within a pipeline batch, never functional results. Tests
 * verify bit-identical outputs across all partitionings of a program.
 *
 * The co-simulation is sequential: every slice runs on the thread
 * that calls run(), so outputs, firing counts and reported cycle
 * counts are bit-stable for a given program, partitioning and config.
 * See "Why co-simulation is sequential" in docs/ARCHITECTURE.md.
 *
 * Contract: construct from a PartitionResult whose parts/channels are
 * untouched since partitionProgram(); the cosim owns one executor per
 * partition and advances them in virtual time until the caller's done
 * predicate holds. Global quiescence before then (no engine can fire,
 * no message in flight, driver blocked) is reported as a deadlock
 * FatalError, never an infinite loop. Results are deterministic for a
 * given program, partitioning and config.
 */
#ifndef BCL_PLATFORM_COSIM_HPP
#define BCL_PLATFORM_COSIM_HPP

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/codegen_cpp.hpp"
#include "core/partition.hpp"
#include "hwsim/clocksim.hpp"
#include "hwsim/compiled_hw.hpp"
#include "platform/channel.hpp"
#include "platform/platform_spec.hpp"
#include "platform/remote_partition.hpp"
#include "runtime/exec.hpp"
#include "runtime/gencc.hpp"

namespace bcl {

/** Execution discipline of a domain. */
enum class DomainKind : std::uint8_t { Software, Hardware };

/**
 * How a software domain executes its rules:
 *   Interpreted - RuleEngine over the reference interpreter (also the
 *                 performance model; virtual time from modeled work),
 *   Compiled    - generateCpp + host compiler + dlopen (the paper's
 *                 actual software story; native speed, virtual time
 *                 approximated per firing).
 * Functional results are identical either way (differential-tested);
 * only wall-clock speed and the fidelity of reported cycle counts
 * differ.
 */
enum class SwBackend : std::uint8_t { Interpreted, Compiled };

/**
 * How a hardware domain executes its clock:
 *   Interpreted - ClockSim over the reference interpreter, one
 *                 dynamic matrix walk per cycle (the rule-accurate
 *                 reference),
 *   Compiled    - generateCpp + host compiler + dlopen; the clock
 *                 edge is a generated function with the WILL_FIRE
 *                 selection baked from the static ConflictMatrix
 *                 (hwsim/compiled_hw.hpp).
 * Unlike the software backends, the two are cycle-exact against each
 * other: cycle counts, per-rule fire counts and outputs are
 * byte-identical (differential-tested in tests/test_codegen_hw.cpp)
 * — only wall-clock simulated-cycles/sec differs.
 */
enum class HwBackend : std::uint8_t { Interpreted, Compiled };

/** Co-simulation parameters. */
struct CosimConfig
{
    /**
     * The platform timing model: per-link-class bus parameters with
     * a (from, to) -> class topology, hw functional-unit delays, and
     * the CPU/FPGA clock ratio. Replaces the historical single
     * global BusParams — each channel's transport now gets the
     * BusParams its (fromDomain, toDomain) pair resolves to, so
     * heterogeneous platforms (fast on-chip + slow off-chip links in
     * one run) are expressible. Defaults to the ML507 preset, which
     * is byte-identical to the old hard-coded calibration.
     */
    PlatformSpec platform = PlatformSpec::ml507();

    /** Execution backend for software domains (the config switch
     *  between the interpreter and compiled shared objects). */
    SwBackend swBackend = SwBackend::Interpreted;

    /** Code-generation strategy when swBackend == Compiled (also
     *  used for hardware domains when hwBackend == Compiled: the
     *  generated translation unit is the same either way, so one
     *  CompileCache entry serves both uses of a program). */
    CppGenMode swGenMode = CppGenMode::Lifted;

    /**
     * Execution backend for hardware domains. Compiled requires a
     * host C++ compiler (CompiledHwPartition::hostCompilerAvailable)
     * and partitions that pass validateForHardware — which every
     * DomainKind::Hardware partition already must. Compilation
     * routes through compileProvider when set (the CompileCache
     * path), exactly like software domains.
     */
    HwBackend hwBackend = HwBackend::Interpreted;

    /**
     * Artifact source for Compiled software domains. Unset, every
     * CoSim compiles its own shared object per software partition
     * (the historical behavior). The serving layer sets this to its
     * CompileCache so a thousand sessions of the same partition
     * share one compile/dlopen and differ only in their
     * bcl_gen_create instances.
     */
    std::function<std::shared_ptr<const CompiledArtifact>(
        const ElabProgram &, const GenccOptions &)>
        compileProvider;

    /**
     * Pre-resolved artifact for the software domain, taking
     * precedence over compileProvider. A compileProvider lookup
     * through the CompileCache hashes the program (programIdentity,
     * ~1.5 ms for full-software Vorbis); a caller stamping out
     * thousands of sessions of ONE partitioning resolves the artifact
     * once (CompileCache::get) and passes it here, making
     * instantiation pure bcl_gen_create. The caller asserts the
     * artifact was built from this partition's "SW" program under
     * swGenMode — the layout cross-check at load time does not re-run
     * per instance.
     */
    std::shared_ptr<const CompiledArtifact> swArtifact;

    /** Cost model applied to software partitions (calibration knobs;
     *  see docs/EXPERIMENTS.md). */
    CostModel swCosts;

    /**
     * Ignored: the co-simulation is sequential, and nothing in src/
     * reads this field. It stays declared only because perfbench
     * (perfbench/src/workloads.cpp) still assigns it; the benchmark
     * change that retires perfbench's parallel pass deletes it.
     */
    int threads = 1;

    /**
     * Participate in tracing/metrics: when the process-global
     * TraceRecorder / MetricsRegistry (src/obs/) are enabled, this
     * cosim emits slice spans, channel flow arrows, stall instants
     * and the occupancy histogram. False makes every observability
     * site in this cosim inert — the serving bench
     * uses it to trace a sample of sessions instead of all 10k.
     * Purely observational either way: functional outputs and cycle
     * counts are byte-identical with tracing on or off (pinned by
     * the determinism tests).
     */
    bool trace = true;

    /** Domain discipline: "SW" is the software domain, every other
     *  domain is hardware. */
    static DomainKind
    kindOf(const std::string &domain)
    {
        return domain == "SW" ? DomainKind::Software
                              : DomainKind::Hardware;
    }

    /**
     * Where each hardware domain's simulator runs. InThread is the
     * historical everything-in-one-process mode; SharedMem forks a
     * child per remote domain relaying slices over mmap'd word
     * rings; Tcp does the same over framed loopback sockets (or
     * attaches to a cosim_partition_host named in remoteEndpoints).
     * Channel transports always stay in the coordinator over the
     * domain's mirror store — placement is a late, semantics-free
     * choice (§4.4): outputs and firing counts are byte-identical
     * across transports, only reported cycle counts may shift.
     * Software domains always run in-thread regardless of this
     * default (host drivers call into them directly); naming one in
     * `transports` is a fatal configuration error.
     */
    TransportKind defaultTransport = TransportKind::InThread;

    /** Per-domain overrides of defaultTransport. Naming a domain the
     *  partitioning does not have is fatal (so is naming one in
     *  remoteEndpoints). */
    std::map<std::string, TransportKind> transports;

    TransportKind
    transportOf(const std::string &domain) const
    {
        auto it = transports.find(domain);
        return it != transports.end() ? it->second
                                      : defaultTransport;
    }

    /** Bound on every blocking remote-transport operation; a peer
     *  silent longer than this is declared dead (one clean
     *  FatalError, never a hang). */
    int transportTimeoutMs = 10000;

    /** Tcp domains listed here attach to an already-running
     *  cosim_partition_host ("127.0.0.1:PORT") instead of forking a
     *  child. Listing a domain whose transport is not Tcp is fatal. */
    std::map<std::string, std::string> remoteEndpoints;
};

/**
 * Backend-neutral handle a SwDriver uses to feed a software domain:
 * the same driver closure works whether the domain runs interpreted
 * or compiled. Only the operations a host "up the stack" legitimately
 * has are exposed — transactional root-method calls and the domain's
 * committed state (for compiled domains, the mirror Store that
 * channel transports and done-predicates already read).
 */
class SwPort
{
  public:
    virtual ~SwPort() = default;

    /** Invoke a root-interface action method transactionally.
     *  @return true when it committed. */
    virtual bool callActionMethod(int meth_id,
                                  const std::vector<Value> &args) = 0;

    /** Modeled work consumed so far. Compiled domains do not model
     *  work; they report 0 and drivers fall back to their own
     *  per-call estimate. */
    virtual std::uint64_t work() const = 0;

    /** The domain's committed state (mirror Store when compiled),
     *  read-only: drivers change it through root methods. */
    virtual const Store &store() const = 0;

};

/**
 * Host-side input source driving a software partition.
 *
 * Threading contract: step(), done() and the CoSim::run completion
 * predicate all run on the thread that calls run(), one at a time,
 * so closures over shared host state (input cursors, result buffers)
 * need no locks. step() feeds its domain only through the SwPort.
 */
struct SwDriver
{
    /**
     * Try to make progress (e.g. push one frame through a root
     * method). Returns abstract work consumed; 0 = blocked or done.
     */
    std::function<std::uint64_t(SwPort &)> step;

    /** True when the driver has no more input to offer. */
    std::function<bool()> done;
};

/** Runs one domain's rules (platform/cosim.cpp). */
class DomainExec;

/** Co-simulation engine over a PartitionResult. */
class CoSim
{
  public:
    CoSim(const PartitionResult &parts, CosimConfig cfg);
    ~CoSim();

    /** Attach the host driver to software domain @p domain. */
    void setDriver(const std::string &domain, SwDriver driver);

    /**
     * Run until @p done returns true.
     * @return total virtual FPGA cycles elapsed.
     * @throws FatalError on deadlock (no process can advance, channel
     * queues empty, done() still false).
     */
    std::uint64_t run(const std::function<bool(CoSim &)> &done);

    /** Store of a domain's partition, read-only: outside the run
     *  loop's own writers a mutable access would count as a write
     *  and invalidate memoised guard failures (see Store). */
    const Store &storeOf(const std::string &domain) const;

    /** Interpreter of an interpreted software domain. A compiled
     *  domain has none (panics): check swCompiled() first. */
    Interp &swInterp(const std::string &domain = "SW");

    /** Compiled backend of a software domain; nullptr when the domain
     *  runs interpreted. */
    const CompiledPartition *swCompiled(
        const std::string &domain = "SW") const;

    /** Generated instance behind a compiled domain, software or
     *  hardware; nullptr when the domain runs interpreted or
     *  remote. */
    const CompiledPartition *compiled(const std::string &domain) const;

    /** Hardware statistics of a hardware domain (nullptr if none).
     *  For remote domains this is the proxy's mirror, refreshed from
     *  every slice report. */
    const HwStats *hwStats(const std::string &domain) const;

    /** Pid of a remote hardware domain's child process; -1 when the
     *  domain is local or attached to an external host (fault-
     *  injection tests use this to kill a peer mid-run). */
    pid_t remotePid(const std::string &domain) const;

    /** Channel transports (for traffic statistics). */
    const std::vector<std::unique_ptr<ChannelTransport>> &
    channels() const
    {
        return transports;
    }

    /** Occupancy accounting of one (from, to) link direction. */
    struct LinkUsage
    {
        std::string from, to;
        std::string linkClass;     ///< platform class the pair
                                   ///< resolved to
        std::uint64_t busyCycles;  ///< wire-occupied cycles
        std::uint64_t grants;      ///< messages granted
    };

    /** Per-link-direction arbiter accounting with the platform link
     *  class each pair resolved to (call while quiesced). */
    std::vector<LinkUsage> linkUsage() const;

    /**
     * Release compiled-partition thread ownership for every software
     * domain (rebindThread on each instance). The serving layer calls
     * this when a session yields its frame quantum so the next worker
     * that claims the session may drive it; the pool's ready queue is
     * the required synchronization point.
     */
    void rebindCompiledThreads();

    /** Current virtual time (max over processes), FPGA cycles. */
    std::uint64_t now() const;

    /** Total software work units consumed so far. */
    std::uint64_t swWork() const;

    /**
     * Publish this cosim's state under the stable metric names
     * (cosim.fpga_cycles, cosim.sw_work, cosim.domain.<d>.cycles,
     * cosim.channel.<c>.*; for each interpreted domain, software and
     * ClockSim alike, also cosim.domain.<d>.rules_attempted /
     * .guard_fails / .wasted_work from its interpreter's ExecStats).
     * The internal structs stay the source of truth; call while
     * quiesced (outside run()) — set() semantics, so the registry
     * reflects THIS cosim afterwards.
     */
    void snapshotMetrics(obs::MetricsRegistry &reg) const;

  private:
    /** One partition: its committed state (the mirror store when the
     *  executor is compiled or remote), its executor and its clock. */
    struct Domain
    {
        std::string name;
        DomainKind kind;
        std::unique_ptr<Store> store;
        std::unique_ptr<DomainExec> exec;
        SwDriver driver;     ///< software only
        double time = 0;     ///< local virtual time, FPGA cycles
        bool driverBlocked = false;
    };

    std::shared_ptr<const CompiledArtifact>
    artifactFor(const PartitionPart &part, DomainKind kind) const;
    const Domain *find(const std::string &name) const;

    /** One traced slice of @p d: sliceSoftware or sliceHardware. */
    bool slice(Domain &d);
    /** Up to the software quantum of executor steps, with the host
     *  driver tried whenever the executor is quiescent. */
    bool sliceSoftware(Domain &d);
    /** Clock @p d up to horizon_, and past it while still active. */
    bool sliceHardware(Domain &d);
    /** Where hardware catches up to this round. */
    std::uint64_t hwHorizon() const;

    void pumpFrom(const std::string &domain, std::uint64_t time);
    bool deliverTo(const std::string &domain, std::uint64_t time);
    std::uint64_t nextChannelEvent() const;
    /** Next channel event (arrival or deferred pickup) addressed to
     *  @p domain. */
    std::uint64_t nextDeliveryTo(const std::string &domain) const;

    CosimConfig cfg;
    /** Software domains first, then hardware, each in partition
     *  order. */
    std::vector<Domain> domains_;
    /** Hardware slices run up to here; set by the run loop before
     *  they start. */
    std::uint64_t horizon_ = 1;
    std::vector<std::unique_ptr<ChannelTransport>> transports;
    // One arbiter per (from-domain, to-domain) link direction.
    std::map<std::pair<std::string, std::string>, LinkArbiter> links;
};

} // namespace bcl

#endif // BCL_PLATFORM_COSIM_HPP
