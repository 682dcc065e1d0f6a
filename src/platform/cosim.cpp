#include "platform/cosim.hpp"

#include <algorithm>
#include <limits>

#include "common/logging.hpp"
#include "obs/trace.hpp"

namespace bcl {

namespace {

/**
 * CPU cycles per abstract work unit of an interpreted software
 * domain. Work units are interpreter AST-node counts, which
 * overestimate the instructions of the *compiled* generated C++ by
 * roughly 4x (many nodes fold into single instructions); 0.23
 * calibrates the full-software Vorbis partition to ~1.2x the
 * hand-written baseline, the paper's "slightly faster" F2 relation.
 * Host drivers' reported work converts at the same rate. See
 * docs/EXPERIMENTS.md.
 */
constexpr double kSwCyclesPerWork = 0.23;

/**
 * Virtual-time charge (CPU cycles) per rule firing of a compiled
 * software domain. Compiled execution does not model work — it IS the
 * generated code running natively — so virtual time is approximated
 * per firing. Latency-insensitive interfaces make functional results
 * independent of this charge; only reported cycle counts move.
 */
constexpr double kSwCompiledCyclesPerFiring = 200.0;

/** Scheduling strategy of interpreted software domains. */
constexpr SwStrategy kSwStrategy = SwStrategy::Dataflow;

/** Max firing executor steps per software slice before hardware
 *  catches up (bounds virtual-time skew). An interpreted step fires at
 *  most one rule. */
constexpr int kSwQuantum = 64;

/** Hard stop for the whole co-simulation, FPGA cycles. */
constexpr std::uint64_t kMaxFpgaCycles = 1ull << 40;

constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

} // namespace

/**
 * One domain's engine, the only code that runs its rules: the slice
 * routines own time, channels, the driver and the horizon, and ask
 * the executor only for the next step over the domain's Store. One
 * implementation per way a domain runs: InterpretedSw, CompiledSw,
 * ClockSimHw, CompiledHw, RemoteHw. A local hardware executor clocks
 * one edge per step, so channels are polled every cycle; a remote one
 * clocks the whole window (a round trip per cycle would dominate),
 * which LIBDN makes functionally invisible.
 */
class DomainExec
{
  public:
    /** What one step did. */
    struct Step
    {
        /** Software: a rule was tried (false = quiescent). Hardware:
         *  the domain is still busy, so the slice keeps clocking past
         *  its horizon until the pipelines drain. */
        bool active = false;
        bool fired = false;  ///< at least one rule fired
        double cycles = 0;   ///< virtual time consumed, FPGA cycles
    };

    DomainExec() = default;
    DomainExec(const DomainExec &) = delete;
    DomainExec &operator=(const DomainExec &) = delete;
    virtual ~DomainExec() = default;

    /**
     * Software: one scheduling step. Hardware: one clock edge, or for
     * a remote executor up to @p window (>= 1) cycles, the cycles
     * left before the horizon.
     */
    virtual Step step(std::uint64_t window) = 0;

    /** Input arrived from outside the rules (delivery, driver call,
     *  time advance): a quiescent scheduler must look again. */
    virtual void poke() {}

    /** The driver-facing port of a software domain; nullptr for
     *  hardware. */
    virtual SwPort *port() { return nullptr; }

    /** The reference interpreter behind an interpreted domain
     *  (software or ClockSim); nullptr when compiled or remote. */
    virtual Interp *interp() { return nullptr; }

    /** Hardware statistics; nullptr for software. */
    virtual const HwStats *hwStats() { return nullptr; }

    /** The generated instance of a compiled domain. */
    virtual const CompiledPartition *compiled() { return nullptr; }

    /** Release compiled-instance thread ownership (no-op otherwise). */
    virtual void rebindThread() {}

    /** Pid of a forked remote peer; -1 otherwise. */
    virtual pid_t pid() { return -1; }
};

namespace {

/*
 * The mirror sync: cycle-exactness across the ABI. With an
 * interpreter a sync fifo is ONE queue that both the transport and
 * the rules touch, so guards (canEnq/canDeq) see transport-side
 * occupancy directly. A compiled instance keeps its own gen::Fifo
 * behind the ABI while the transports keep talking to the mirror
 * store — so before each step (a clock edge, a software run
 * to quiescence, a driver's method call; no channel activity happens
 * inside one) in() brings the instance up to date with the mirror,
 * and out() reconciles afterwards. The sync is persistent and
 * incremental: each channel message crosses the ABI once per
 * direction, and an idle step marshals nothing.
 *
 *   SyncRx (rules only dequeue): the instance fifo holds the first
 *   `n` mirror messages between steps. in() pushes only the mirror
 *   entries past `n`; out() reads the instance occupancy, pops the
 *   difference (what the rules consumed) off the mirror front, and
 *   sets `n` to what is left. The mirror stays the full-occupancy
 *   source of truth for the transport's credit checks.
 *
 *   SyncTx (rules only enqueue): the instance fifo is empty between
 *   steps (out() drains it), but the producer guard must see the
 *   not-yet-delivered backlog or it would never feel backpressure
 *   (cycle counts would diverge, and a software producer would grow
 *   the mirror without bound). in() reserves `n` = backlog slots in
 *   the instance fifo (gen::Fifo::reserve, one ABI call, only when
 *   the backlog changed); out() appends what the rules enqueued to
 *   the mirror tail.
 *
 *   AudioDev: drained into the mirror, which keeps the interpreter's
 *   cumulative device output (PrimState::queue).
 *
 * The SyncRx bookkeeping holds only because nothing else removes a
 * SyncRx mirror message: transports only append to it and only this
 * class pops it. Beyond that it relies on the contract the
 * interpreter enforces dynamically: rules never enqueue into a
 * SyncRx, never dequeue from a SyncTx, and never clear a sync fifo.
 * The prim plan is resolved once, at construction.
 */
template <class Inst>
class MirrorSync
{
  public:
    MirrorSync(Inst &inst, Store &mirror) : inst_(inst), mirror_(mirror)
    {
        for (const auto &prim : inst.program().prims) {
            if (prim.kind == "SyncRx")
                rx_.push_back({prim.id, 0});
            else if (prim.kind == "SyncTx")
                tx_.push_back({prim.id, 0});
            else if (prim.kind == "AudioDev")
                dev_.push_back(prim.id);
        }
    }

    void
    in()
    {
        for (auto &rx : rx_) {
            const auto &queue = mirror_.at(rx.prim).queue;
            while (rx.n < queue.size() &&
                   inst_.pushPrim(rx.prim, queue[rx.n]))
                rx.n++;
        }
        for (auto &tx : tx_) {
            const size_t backlog = mirror_.at(tx.prim).queue.size();
            if (backlog != tx.n) {
                inst_.reservePrim(tx.prim, backlog);
                tx.n = backlog;
            }
        }
    }

    void
    out()
    {
        for (auto &rx : rx_) {
            if (rx.n == 0)
                continue;
            const size_t left = inst_.primSize(rx.prim);
            if (left > rx.n)
                panic("cosim: compiled partition enqueued into SyncRx");
            mirror_.at(rx.prim).queue.pop_front(rx.n - left);
            rx.n = left;
        }
        Value v;
        for (const auto &tx : tx_) {
            auto &queue = mirror_.at(tx.prim).queue;
            while (inst_.popPrim(tx.prim, v))
                queue.push_back(std::move(v));
        }
        for (int prim : dev_) {
            auto &queue = mirror_.at(prim).queue;
            while (inst_.popDevice(prim, v))
                queue.push_back(std::move(v));
        }
    }

  private:
    struct SyncPrim
    {
        int prim;
        /** SyncRx: mirror messages the instance holds; SyncTx: slots
         *  reserved for the mirror backlog. */
        size_t n;
    };

    Inst &inst_;
    Store &mirror_;
    std::vector<SyncPrim> rx_, tx_;
    std::vector<int> dev_;
};

/** One clock edge: the domain stays active while rules fire. */
template <class Sim>
DomainExec::Step
clockEdge(Sim &sim)
{
    bool fired = sim.cycle() > 0;
    return {fired, fired, 1.0};
}

class InterpretedSw final : public DomainExec, public SwPort
{
  public:
    InterpretedSw(const ElabProgram &prog, Store &store,
                  const CostModel &costs, SwStrategy strategy,
                  double cycles_per_work)
        : I(prog, store), engine(I, strategy),
          cyclesPerWork(cycles_per_work)
    {
        I.costs() = costs;
    }

    Step
    step(std::uint64_t) override
    {
        StepResult r = engine.step();
        return {r.rule >= 0, r.fired,
                static_cast<double>(r.workDelta) * cyclesPerWork};
    }

    void poke() override { engine.poke(); }
    SwPort *port() override { return this; }
    Interp *interp() override { return &I; }

    bool
    callActionMethod(int meth_id,
                     const std::vector<Value> &args) override
    {
        return I.callActionMethod(meth_id, args);
    }

    std::uint64_t work() const override { return I.stats().work; }
    Store &store() override { return I.store(); }

  private:
    Interp I;
    RuleEngine engine;
    double cyclesPerWork;
};

class CompiledSw final : public DomainExec, public SwPort
{
  public:
    CompiledSw(std::shared_ptr<const CompiledArtifact> artifact,
               Store &mirror, double cycles_per_firing)
        : C(std::move(artifact)), mirror_(mirror), sync(C, mirror),
          cyclesPerFiring(cycles_per_firing)
    {
    }

    Step
    step(std::uint64_t) override
    {
        sync.in();
        std::uint64_t fired = C.runToQuiescence();
        sync.out();
        return {fired > 0, fired > 0,
                static_cast<double>(fired) * cyclesPerFiring};
    }

    SwPort *port() override { return this; }
    const CompiledPartition *compiled() override { return &C; }
    void rebindThread() override { C.rebindThread(); }

    /** Inside the sync bracket: a method enqueuing into a SyncTx sees
     *  the undelivered backlog, exactly as the interpreter's guard. */
    bool
    callActionMethod(int meth_id,
                     const std::vector<Value> &args) override
    {
        sync.in();
        bool ok = C.callActionMethod(meth_id, args);
        sync.out();
        return ok;
    }

    /** Compiled code models no work; drivers fall back to their own
     *  per-call estimate. */
    std::uint64_t work() const override { return 0; }
    Store &store() override { return mirror_; }

  private:
    CompiledPartition C;
    Store &mirror_;
    MirrorSync<CompiledPartition> sync;
    double cyclesPerFiring;
};

class ClockSimHw final : public DomainExec
{
  public:
    ClockSimHw(const ElabProgram &prog, Store &store) : sim(prog, store)
    {
    }

    Step step(std::uint64_t) override { return clockEdge(sim); }

    Interp *interp() override { return &sim.interp(); }
    const HwStats *hwStats() override { return &sim.stats(); }

  private:
    ClockSim sim;
};

class CompiledHw final : public DomainExec
{
  public:
    CompiledHw(std::shared_ptr<const CompiledArtifact> artifact,
               Store &mirror)
        : hw(std::move(artifact)), sync(hw, mirror)
    {
    }

    Step
    step(std::uint64_t) override
    {
        sync.in();
        Step s = clockEdge(hw);
        sync.out();
        return s;
    }

    const HwStats *hwStats() override { return &hw.stats(); }
    const CompiledPartition *compiled() override
    {
        return &hw.partition();
    }
    void rebindThread() override { hw.rebindThread(); }

  private:
    CompiledHwPartition hw;
    MirrorSync<CompiledHwPartition> sync;
};

/**
 * A hardware domain in another process: staged SyncRx messages are
 * shipped to the partition host, which clocks its ClockSim for up to
 * the whole window (stopping early when idle: no new input can arrive
 * mid-slice); produced SyncTx/device messages come back into the
 * mirror where the transports pick them up. The host is budget-based
 * and stateless w.r.t. absolute time — CoSim owns the clock.
 */
class RemoteHw final : public DomainExec
{
  public:
    RemoteHw(std::unique_ptr<RemoteHwPartition> r, Store &mirror)
        : remote(std::move(r)), mirror_(mirror)
    {
    }

    Step
    step(std::uint64_t window) override
    {
        remote->shipInputs(mirror_);
        RemoteHwPartition::SliceResult r =
            remote->runSlice(mirror_, window);
        return {r.active, r.fired > 0, static_cast<double>(r.consumed)};
    }

    const HwStats *hwStats() override { return &remote->stats(); }
    pid_t pid() override { return remote->childPid(); }

  private:
    std::unique_ptr<RemoteHwPartition> remote;
    Store &mirror_;
};

} // namespace

CoSim::~CoSim() = default;

CoSim::CoSim(const PartitionResult &parts, CosimConfig config)
    : cfg(std::move(config))
{
    // Every domain the config names must exist: a typo such as
    // transports["HWX"] would otherwise silently run in-thread.
    auto requireDomains = [&parts](const auto &by_domain,
                                   const char *field) {
        for (const auto &entry : by_domain) {
            auto named = [&](const PartitionPart &p) {
                return p.domain == entry.first;
            };
            if (std::none_of(parts.parts.begin(), parts.parts.end(),
                             named))
                fatal(std::string("CosimConfig::") + field +
                      " names domain '" + entry.first +
                      "', which this partitioning does not have");
        }
    };
    requireDomains(cfg.transports, "transports");
    requireDomains(cfg.remoteEndpoints, "remoteEndpoints");

    // Software domains always run in-thread — host drivers call into
    // them directly — so defaultTransport only moves HARDWARE domains
    // out of process; naming a software domain in the per-domain
    // override map is a configuration error.
    for (const auto &[dom, tk] : cfg.transports) {
        if (cfg.kindOf(dom) == DomainKind::Software &&
            tk != TransportKind::InThread)
            fatal("CosimConfig: software domain '" + dom +
                  "' cannot run remotely — host drivers call into it "
                  "directly; only Hardware domains may use "
                  "SharedMem/Tcp transports");
    }
    auto where = [this](const std::string &dom) {
        return cfg.kindOf(dom) == DomainKind::Software
                   ? TransportKind::InThread
                   : cfg.transportOf(dom);
    };
    for (const auto &entry : cfg.remoteEndpoints) {
        if (where(entry.first) != TransportKind::Tcp)
            fatal("CosimConfig::remoteEndpoints names domain '" +
                  entry.first + "', whose transport is not Tcp");
    }

    const double ratio = cfg.platform.cpuClockRatio;
    for (DomainKind kind : {DomainKind::Software, DomainKind::Hardware}) {
        for (const auto &part : parts.parts) {
            if (cfg.kindOf(part.domain) != kind)
                continue;
            Domain d;
            d.name = part.domain;
            d.kind = kind;
            d.store = std::make_unique<Store>(part.prog);
            Store &store = *d.store;
            if (kind == DomainKind::Software &&
                cfg.swBackend == SwBackend::Compiled) {
                d.exec = std::make_unique<CompiledSw>(
                    artifactFor(part, kind), store,
                    kSwCompiledCyclesPerFiring / ratio);
            } else if (kind == DomainKind::Software) {
                d.exec = std::make_unique<InterpretedSw>(
                    part.prog, store, cfg.swCosts, kSwStrategy,
                    kSwCyclesPerWork / ratio);
            } else if (where(part.domain) != TransportKind::InThread) {
                // The child owns the simulator (always the interpreted
                // ClockSim — cycle-exact against the compiled edge).
                RemoteOptions ropts;
                ropts.timeoutMs = cfg.transportTimeoutMs;
                ropts.traced = cfg.trace;
                auto ep = cfg.remoteEndpoints.find(part.domain);
                d.exec = std::make_unique<RemoteHw>(
                    ep != cfg.remoteEndpoints.end()
                        ? std::make_unique<RemoteHwPartition>(
                              part.prog, ep->second, part.domain, ropts)
                        : std::make_unique<RemoteHwPartition>(
                              part.prog, where(part.domain), part.domain,
                              ropts),
                    store);
            } else if (cfg.hwBackend == HwBackend::Compiled) {
                d.exec = std::make_unique<CompiledHw>(
                    artifactFor(part, kind), store);
            } else {
                d.exec = std::make_unique<ClockSimHw>(part.prog, store);
            }
            domains_.push_back(std::move(d));
        }
    }

    for (const auto &chan : parts.channels) {
        // Each (from, to) pair gets the BusParams its topology rule
        // resolves to — heterogeneous platforms time each link
        // direction differently (resolution is total or fatal here,
        // before any cycle runs).
        transports.push_back(std::make_unique<ChannelTransport>(
            chan, storeOf(chan.fromDomain), storeOf(chan.toDomain),
            links[{chan.fromDomain, chan.toDomain}],
            cfg.platform.resolveLink(chan.fromDomain, chan.toDomain),
            cfg.trace));
    }
}

/** The compiled artifact of @p part: the pre-resolved swArtifact for
 *  software, else compileProvider's, else a private compile. */
std::shared_ptr<const CompiledArtifact>
CoSim::artifactFor(const PartitionPart &part, DomainKind kind) const
{
    if (kind == DomainKind::Software && cfg.swArtifact)
        return cfg.swArtifact;
    GenccOptions opts;
    opts.mode = cfg.swGenMode;
    if (cfg.compileProvider)
        return cfg.compileProvider(part.prog, opts);
    return std::make_shared<const CompiledArtifact>(part.prog, opts);
}

const CoSim::Domain *
CoSim::find(const std::string &name) const
{
    for (const auto &d : domains_) {
        if (d.name == name)
            return &d;
    }
    return nullptr;
}

void
CoSim::setDriver(const std::string &domain, SwDriver driver)
{
    for (auto &d : domains_) {
        if (d.name == domain && d.kind == DomainKind::Software) {
            d.driver = std::move(driver);
            return;
        }
    }
    panic("setDriver: no software domain '" + domain + "'");
}

Store &
CoSim::storeOf(const std::string &domain)
{
    if (const Domain *d = find(domain))
        return *d->store;
    panic("storeOf: no domain '" + domain + "'");
}

Interp &
CoSim::swInterp(const std::string &domain)
{
    const Domain *d = find(domain);
    if (!d || d->kind != DomainKind::Software)
        panic("swInterp: no software domain '" + domain + "'");
    if (Interp *I = d->exec->interp())
        return *I;
    panic("swInterp: software domain '" + domain +
          "' runs compiled; use swCompiled()");
}

const CompiledPartition *
CoSim::swCompiled(const std::string &domain) const
{
    const Domain *d = find(domain);
    return d && d->kind == DomainKind::Software ? d->exec->compiled()
                                                : nullptr;
}

const CompiledPartition *
CoSim::compiled(const std::string &domain) const
{
    const Domain *d = find(domain);
    return d ? d->exec->compiled() : nullptr;
}

const HwStats *
CoSim::hwStats(const std::string &domain) const
{
    const Domain *d = find(domain);
    return d ? d->exec->hwStats() : nullptr;
}

pid_t
CoSim::remotePid(const std::string &domain) const
{
    const Domain *d = find(domain);
    return d ? d->exec->pid() : -1;
}

void
CoSim::rebindCompiledThreads()
{
    for (auto &d : domains_)
        d.exec->rebindThread();
}

std::uint64_t
CoSim::now() const
{
    double t = 0;
    for (const auto &d : domains_)
        t = std::max(t, d.time);
    return static_cast<std::uint64_t>(t);
}

std::uint64_t
CoSim::swWork() const
{
    std::uint64_t w = 0;
    for (const auto &d : domains_) {
        if (const SwPort *port = d.exec->port())
            w += port->work();
    }
    return w;
}

void
CoSim::snapshotMetrics(obs::MetricsRegistry &reg) const
{
    reg.gauge("cosim.fpga_cycles")
        .set(static_cast<double>(now()));
    reg.gauge("cosim.sw_work").set(static_cast<double>(swWork()));
    for (const auto &d : domains_) {
        const std::string base = "cosim.domain." + d.name;
        reg.gauge(base + ".cycles").set(d.time);
        // Interpreted domains also publish how many rule attempts
        // their interpreter made and how many failed.
        const Interp *I = d.exec->interp();
        if (!I)
            continue;
        const ExecStats &st = I->stats();
        reg.gauge(base + ".rules_attempted")
            .set(static_cast<double>(st.rulesAttempted));
        reg.gauge(base + ".guard_fails")
            .set(static_cast<double>(st.guardFails));
        reg.gauge(base + ".wasted_work")
            .set(static_cast<double>(st.wastedWork));
    }
    for (const auto &t : transports) {
        snapshotChannelStats(reg,
                             "cosim.channel." + t->spec().name,
                             t->stats());
    }
    for (const auto &u : linkUsage()) {
        const std::string base =
            "cosim.link." + u.from + "_" + u.to;
        reg.gauge(base + ".busy_cycles")
            .set(static_cast<double>(u.busyCycles));
        reg.gauge(base + ".grants")
            .set(static_cast<double>(u.grants));
    }
}

std::vector<CoSim::LinkUsage>
CoSim::linkUsage() const
{
    std::vector<LinkUsage> out;
    for (const auto &[key, arb] : links) {
        LinkUsage u;
        u.from = key.first;
        u.to = key.second;
        u.linkClass = cfg.platform.resolveLinkClass(u.from, u.to);
        u.busyCycles = arb.busy();
        u.grants = arb.grantCount();
        out.push_back(std::move(u));
    }
    return out;
}

void
CoSim::pumpFrom(const std::string &domain, std::uint64_t time)
{
    for (auto &t : transports) {
        if (t->spec().fromDomain == domain)
            t->pump(time);
    }
}

bool
CoSim::deliverTo(const std::string &domain, std::uint64_t time)
{
    bool any = false;
    for (auto &t : transports) {
        if (t->spec().toDomain == domain)
            any |= t->deliver(time);
    }
    return any;
}

std::uint64_t
CoSim::nextChannelEvent() const
{
    std::uint64_t next = kNever;
    for (const auto &t : transports)
        next = std::min(next, t->nextEventAt());
    return next;
}

std::uint64_t
CoSim::nextDeliveryTo(const std::string &domain) const
{
    std::uint64_t next = kNever;
    for (const auto &t : transports) {
        if (t->spec().toDomain == domain)
            next = std::min(next, t->nextEventAt());
    }
    return next;
}

bool
CoSim::slice(Domain &d)
{
    // One span per domain slice: the trace shows which domain each
    // stretch of cosim time went to.
    obs::TraceSpan span(d.name.c_str(), "cosim.slice", cfg.trace);
    return d.kind == DomainKind::Software ? sliceSoftware(d)
                                          : sliceHardware(d);
}

bool
CoSim::sliceSoftware(Domain &d)
{
    bool progress = false;
    int fired = 0;
    while (fired < kSwQuantum) {
        // Re-pump on every step: a transfer deferred for credits must
        // start as soon as the consumer drains, even if no further
        // producer-side rule fires.
        pumpFrom(d.name, static_cast<std::uint64_t>(d.time));
        if (deliverTo(d.name, static_cast<std::uint64_t>(d.time))) {
            d.exec->poke();
            d.driverBlocked = false;
        }
        DomainExec::Step s = d.exec->step(0);
        if (s.active) {
            d.time += s.cycles;
            if (s.fired) {
                fired++;
                progress = true;
                pumpFrom(d.name, static_cast<std::uint64_t>(d.time));
            }
            continue;
        }
        // Executor quiescent: try the host driver once.
        if (!d.driver.step || d.driverBlocked)
            break;
        std::uint64_t w = d.driver.step(*d.exec->port());
        if (w == 0) {
            d.driverBlocked = true;
            break;
        }
        d.time += static_cast<double>(w) *
                  (kSwCyclesPerWork / cfg.platform.cpuClockRatio);
        d.exec->poke();
        progress = true;
        pumpFrom(d.name, static_cast<std::uint64_t>(d.time));
    }
    return progress;
}

bool
CoSim::sliceHardware(Domain &d)
{
    auto t = static_cast<std::uint64_t>(d.time);
    bool progress = false;
    // The slice always attempts at least one step, and an *active*
    // partition keeps clocking past the horizon until its internal
    // pipelines drain - hardware does not stop because software has
    // nothing to say to it.
    bool active = true;
    while (t < horizon_ || active) {
        pumpFrom(d.name, t);
        if (deliverTo(d.name, t))
            progress = true;
        DomainExec::Step s = d.exec->step(horizon_ > t ? horizon_ - t : 1);
        t += static_cast<std::uint64_t>(s.cycles);
        active = s.active;
        if (s.fired) {
            progress = true;
            pumpFrom(d.name, t);
            continue;
        }
        if (t >= horizon_)
            break;
        // Idle inside the horizon: jump to the next delivery
        // addressed to us (or stop).
        std::uint64_t next = nextDeliveryTo(d.name);
        if (next == kNever || next >= horizon_)
            break;
        t = std::max(t, next);
    }
    d.time = static_cast<double>(t);
    return progress;
}

std::uint64_t
CoSim::hwHorizon() const
{
    // The latest software time plus one bus latency (so in-flight
    // messages can land).
    std::uint64_t horizon = 1;
    for (const auto &d : domains_) {
        if (d.kind == DomainKind::Software)
            horizon = std::max(horizon,
                               static_cast<std::uint64_t>(d.time) + 1);
    }
    std::uint64_t chan_next = nextChannelEvent();
    if (chan_next != kNever)
        horizon = std::max(horizon, chan_next + 1);
    return horizon;
}

std::uint64_t
CoSim::run(const std::function<bool(CoSim &)> &done)
{
    for (;;) {
        // Between slices nothing runs, so the predicate may read any
        // store.
        if (done(*this))
            break;
        if (now() > kMaxFpgaCycles)
            fatal("co-simulation exceeded maxFpgaCycles");

        // Software slices first; hardware then catches up to where
        // software got this round.
        bool progress = false;
        bool caught_up = false;
        for (auto &d : domains_) {
            if (d.kind == DomainKind::Hardware && !caught_up) {
                horizon_ = hwHorizon();
                caught_up = true;
            }
            progress |= slice(d);
        }
        if (progress)
            continue;

        // Nothing ran. If channel events are pending, advance every
        // blocked domain to the event time (+1: the delivery must be
        // visible in the cycle that observes it), restart deferred
        // pickups, and retry.
        std::uint64_t next = nextChannelEvent();
        if (next != kNever) {
            for (auto &d : domains_) {
                d.time = std::max(d.time, static_cast<double>(next + 1));
                d.exec->poke();
                d.driverBlocked = false;
            }
            for (const auto &d : domains_)
                pumpFrom(d.name, static_cast<std::uint64_t>(d.time));
            continue;
        }

        // True quiescence: acceptable only when done() says so - the
        // caller's predicate runs once more; otherwise deadlock.
        if (done(*this))
            break;
        fatal("co-simulation deadlock: all partitions quiescent, no "
              "messages in flight, and the completion predicate is "
              "not satisfied");
    }
    return now();
}

} // namespace bcl
