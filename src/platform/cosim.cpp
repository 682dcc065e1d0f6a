#include "platform/cosim.hpp"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <exception>
#include <limits>
#include <thread>

#include "common/logging.hpp"
#include "obs/trace.hpp"

namespace bcl {

namespace {

/** SwPort over the reference interpreter. */
class InterpPort final : public SwPort
{
  public:
    explicit InterpPort(Interp &interp) : I(interp) {}

    bool
    callActionMethod(int meth_id,
                     const std::vector<Value> &args) override
    {
        return I.callActionMethod(meth_id, args);
    }

    std::uint64_t work() const override { return I.stats().work; }
    Store &store() override { return I.store(); }
    Interp *interp() override { return &I; }

  private:
    Interp &I;
};

/** SwPort over a compiled shared object (mirror store for reads). */
class CompiledPort final : public SwPort
{
  public:
    CompiledPort(CompiledPartition &compiled, Store &mirror)
        : C(compiled), mirror_(mirror)
    {
    }

    bool
    callActionMethod(int meth_id,
                     const std::vector<Value> &args) override
    {
        return C.callActionMethod(meth_id, args);
    }

    std::uint64_t work() const override { return 0; }
    Store &store() override { return mirror_; }

  private:
    CompiledPartition &C;
    Store &mirror_;
};

} // namespace

namespace {

/** Worker threads the config asks for (0 = one per core). */
int
requestedThreads(const CosimConfig &cfg)
{
    if (cfg.threads == 0) {
        unsigned hc = std::thread::hardware_concurrency();
        return static_cast<int>(hc > 0 ? hc : 1);
    }
    return cfg.threads < 1 ? 1 : cfg.threads;
}

} // namespace

CoSim::CoSim(const PartitionResult &parts, CosimConfig config)
    : cfg(std::move(config))
{
    // Software domains always run in-thread — host drivers call into
    // them directly — so defaultTransport only moves HARDWARE domains
    // out of process; naming a software domain in the per-domain
    // override map is a configuration error.
    auto effectiveTransport = [this](const std::string &dom) {
        if (cfg.kindOf(dom) == DomainKind::Software) {
            auto it = cfg.transports.find(dom);
            if (it != cfg.transports.end() &&
                it->second != TransportKind::InThread)
                fatal("CosimConfig: software domain '" + dom +
                      "' cannot run remotely — host drivers call "
                      "into it directly; only Hardware domains may "
                      "use SharedMem/Tcp transports");
            return TransportKind::InThread;
        }
        return cfg.transportOf(dom);
    };

    // Parallel execution needs at least two domains to overlap; with
    // one domain (or threads == 1) the exact sequential loop runs and
    // transports stay in their historical direct-read credit mode.
    // Remote transports force the sequential engine: the coordinator
    // relays slices synchronously, and the transports must keep their
    // direct-read credit mode over the mirror stores.
    bool any_remote = false;
    for (const auto &part : parts.parts) {
        if (effectiveTransport(part.domain) != TransportKind::InThread)
            any_remote = true;
    }
    parallel_ = requestedThreads(cfg) > 1 && parts.parts.size() > 1 &&
                !any_remote;

    for (const auto &part : parts.parts) {
        if (cfg.kindOf(part.domain) == DomainKind::Software) {
            SwProc p;
            p.domain = part.domain;
            p.store = std::make_unique<Store>(part.prog);
            p.interp = std::make_unique<Interp>(part.prog, *p.store);
            p.interp->costs() = cfg.swCosts;
            p.engine =
                std::make_unique<RuleEngine>(*p.interp, cfg.swStrategy);
            if (cfg.swBackend == SwBackend::Compiled) {
                GenccOptions opts;
                opts.mode = cfg.swGenMode;
                if (cfg.swArtifact) {
                    if (!swProcs.empty())
                        fatal("CosimConfig::swArtifact is "
                              "per-partition; this PartitionResult "
                              "has multiple software domains — use "
                              "compileProvider instead");
                    p.compiled = std::make_unique<CompiledPartition>(
                        cfg.swArtifact);
                } else if (cfg.compileProvider) {
                    p.compiled = std::make_unique<CompiledPartition>(
                        cfg.compileProvider(part.prog, opts));
                } else {
                    p.compiled = std::make_unique<CompiledPartition>(
                        part.prog, opts);
                }
            }
            swProcs.push_back(std::move(p));
        } else {
            HwProc p;
            p.domain = part.domain;
            p.store = std::make_unique<Store>(part.prog);
            TransportKind tk = effectiveTransport(part.domain);
            if (tk != TransportKind::InThread) {
                // Remote domain: the child owns the simulator
                // (always the interpreted ClockSim — cycle-exact
                // against the compiled edge); this store becomes the
                // channel-facing mirror the relay feeds and drains.
                RemoteOptions ropts;
                ropts.timeoutMs = cfg.transportTimeoutMs;
                ropts.traced = cfg.trace;
                auto ep = cfg.remoteEndpoints.find(part.domain);
                if (tk == TransportKind::Tcp &&
                    ep != cfg.remoteEndpoints.end()) {
                    p.remote = std::make_unique<RemoteHwPartition>(
                        part.prog, ep->second, part.domain, ropts);
                } else {
                    p.remote = std::make_unique<RemoteHwPartition>(
                        part.prog, tk, part.domain, ropts);
                }
                hwProcs.push_back(std::move(p));
                continue;
            }
            if (cfg.hwBackend == HwBackend::Compiled) {
                GenccOptions opts;
                opts.mode = cfg.swGenMode;
                if (cfg.compileProvider) {
                    p.compiled =
                        std::make_unique<CompiledHwPartition>(
                            cfg.compileProvider(part.prog, opts));
                } else {
                    p.compiled =
                        std::make_unique<CompiledHwPartition>(
                            part.prog, opts);
                }
                // Resolve the marshaling plan once: which prims carry
                // messages across the domain boundary, and a zero
                // template per SyncTx for the occupancy prefill.
                for (const auto &prim : part.prog.prims) {
                    if (prim.kind == "SyncRx") {
                        p.rxPrims.push_back(prim.id);
                    } else if (prim.kind == "SyncTx") {
                        p.txPrims.push_back(prim.id);
                        size_t nwords = static_cast<size_t>(
                            (prim.type->flatWidth() + 31) / 32);
                        std::vector<std::uint32_t> zeros(
                            nwords > 0 ? nwords : 1, 0);
                        BitCursor cur(zeros.data(), zeros.size());
                        p.txZero.push_back(
                            prim.type->unpackWords(cur));
                    } else if (prim.kind == "AudioDev") {
                        p.devPrims.push_back(prim.id);
                    }
                }
                p.rxFed.assign(p.rxPrims.size(), 0);
                p.txPre.assign(p.txPrims.size(), 0);
            } else {
                p.sim =
                    std::make_unique<ClockSim>(part.prog, *p.store);
            }
            hwProcs.push_back(std::move(p));
        }
    }

    for (const auto &chan : parts.channels) {
        auto key = std::make_pair(chan.fromDomain, chan.toDomain);
        auto it = links.find(key);
        if (it == links.end()) {
            it = links.emplace(key, std::make_unique<LinkArbiter>())
                     .first;
        }
        // Each (from, to) pair gets the BusParams its topology rule
        // resolves to — heterogeneous platforms time each link
        // direction differently (resolution is total or fatal here,
        // before any cycle runs).
        transports.push_back(std::make_unique<ChannelTransport>(
            chan, storeOf(chan.fromDomain), storeOf(chan.toDomain),
            *it->second,
            cfg.platform.resolveLink(chan.fromDomain, chan.toDomain),
            parallel_, cfg.trace));
    }
}

void
CoSim::setDriver(const std::string &domain, SwDriver driver)
{
    for (auto &p : swProcs) {
        if (p.domain == domain) {
            p.driver = std::move(driver);
            return;
        }
    }
    panic("setDriver: no software domain '" + domain + "'");
}

Store &
CoSim::storeOf(const std::string &domain)
{
    for (auto &p : swProcs) {
        if (p.domain == domain)
            return *p.store;
    }
    for (auto &p : hwProcs) {
        if (p.domain == domain)
            return *p.store;
    }
    panic("storeOf: no domain '" + domain + "'");
}

Interp &
CoSim::swInterp(const std::string &domain)
{
    for (auto &p : swProcs) {
        if (p.domain == domain)
            return *p.interp;
    }
    panic("swInterp: no software domain '" + domain + "'");
}

const CompiledPartition *
CoSim::swCompiled(const std::string &domain) const
{
    for (const auto &p : swProcs) {
        if (p.domain == domain)
            return p.compiled.get();
    }
    return nullptr;
}

const HwStats *
CoSim::hwStats(const std::string &domain) const
{
    for (const auto &p : hwProcs) {
        if (p.domain == domain) {
            if (p.remote)
                return &p.remote->stats();
            return p.compiled ? &p.compiled->stats()
                              : &p.sim->stats();
        }
    }
    return nullptr;
}

pid_t
CoSim::remotePid(const std::string &domain) const
{
    for (const auto &p : hwProcs) {
        if (p.domain == domain && p.remote)
            return p.remote->childPid();
    }
    return -1;
}

void
CoSim::rebindCompiledThreads()
{
    for (auto &p : swProcs) {
        if (p.compiled)
            p.compiled->rebindThread();
    }
    for (auto &p : hwProcs) {
        if (p.compiled)
            p.compiled->rebindThread();
    }
}

std::uint64_t
CoSim::now() const
{
    double t = 0;
    for (const auto &p : swProcs)
        t = std::max(t, p.time);
    for (const auto &p : hwProcs)
        t = std::max(t, static_cast<double>(p.time));
    return static_cast<std::uint64_t>(t);
}

std::uint64_t
CoSim::swWork() const
{
    std::uint64_t w = 0;
    for (const auto &p : swProcs)
        w += p.interp->stats().work;
    return w;
}

void
CoSim::snapshotMetrics(obs::MetricsRegistry &reg) const
{
    reg.gauge("cosim.fpga_cycles")
        .set(static_cast<double>(now()));
    reg.gauge("cosim.sw_work").set(static_cast<double>(swWork()));
    for (const auto &p : swProcs) {
        reg.gauge("cosim.domain." + p.domain + ".cycles")
            .set(p.time);
    }
    for (const auto &p : hwProcs) {
        const std::string base = "cosim.domain." + p.domain;
        reg.gauge(base + ".cycles").set(static_cast<double>(p.time));
        if (!p.sim)
            continue;
        // Interpreted (ClockSim) domains also publish how many rule
        // attempts their interpreter made and how many failed.
        const ExecStats &st = p.sim->interp().stats();
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
        u.busyCycles = arb->busy();
        u.grants = arb->grantCount();
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
    std::uint64_t next = std::numeric_limits<std::uint64_t>::max();
    for (const auto &t : transports)
        next = std::min(next, t->nextEventAt());
    return next;
}

std::uint64_t
CoSim::nextDeliveryTo(const std::string &domain) const
{
    std::uint64_t next = std::numeric_limits<std::uint64_t>::max();
    for (const auto &t : transports) {
        if (t->spec().toDomain != domain)
            continue;
        // Mid-epoch a worker may only read its own (consumer) end of
        // the transport; the sequential loop keeps the historical
        // both-ends view, deferred pickups included.
        next = std::min(next, parallel_ ? t->nextArrivalAt()
                                        : t->nextEventAt());
    }
    return next;
}

/**
 * Try the host driver once; true when it made progress. The driver
 * sees the domain through a backend-appropriate SwPort.
 */
bool
CoSim::tryDriver(SwProc &sw, double work_to_cycles)
{
    if (!sw.driver.step || sw.driverBlocked)
        return false;
    std::uint64_t w = 0;
    if (sw.compiled) {
        CompiledPort port(*sw.compiled, *sw.store);
        w = sw.driver.step(port);
    } else {
        InterpPort port(*sw.interp);
        w = sw.driver.step(port);
    }
    if (w > 0) {
        sw.time += static_cast<double>(w) * work_to_cycles;
        sw.engine->poke();
        return true;
    }
    sw.driverBlocked = true;
    return false;
}

bool
CoSim::sliceSoftware(SwProc &sw)
{
    if (sw.compiled)
        return sliceSoftwareCompiled(sw);

    const double work_to_cycles =
        cfg.swCyclesPerWork / cfg.platform.cpuClockRatio;
    bool progress = false;
    int fired = 0;
    while (fired < cfg.swQuantum) {
        // Re-pump on every step: a transfer deferred for credits must
        // start as soon as the consumer drains, even if no further
        // producer-side rule fires.
        pumpFrom(sw.domain, static_cast<std::uint64_t>(sw.time));
        if (deliverTo(sw.domain,
                      static_cast<std::uint64_t>(sw.time))) {
            sw.engine->poke();
            sw.driverBlocked = false;
        }
        StepResult r = sw.engine->step();
        if (r.rule >= 0) {
            sw.time += static_cast<double>(r.workDelta) *
                       work_to_cycles;
            if (r.fired) {
                fired++;
                progress = true;
                pumpFrom(sw.domain,
                         static_cast<std::uint64_t>(sw.time));
            }
            continue;
        }
        // Engine quiescent: try the host driver once.
        if (tryDriver(sw, work_to_cycles)) {
            progress = true;
            pumpFrom(sw.domain, static_cast<std::uint64_t>(sw.time));
            continue;
        }
        break;
    }
    return progress;
}

bool
CoSim::feedCompiledInputs(SwProc &sw)
{
    bool moved = false;
    const ElabProgram &prog = sw.interp->program();
    for (const auto &prim : prog.prims) {
        if (prim.kind != "SyncRx")
            continue;
        auto &queue = sw.store->at(prim.id).queue;
        // Move what the compiled FIFO accepts; leave the rest staged
        // in the mirror (occupancy splits across the two, so the
        // credit check on the mirror stays conservative enough —
        // LIBDN buffering is functionally transparent anyway).
        size_t accepted = 0;
        while (accepted < queue.size() &&
               sw.compiled->pushPrim(prim.id, queue[accepted]))
            accepted++;
        if (accepted > 0) {
            queue.pop_front(accepted);
            moved = true;
        }
    }
    return moved;
}

bool
CoSim::drainCompiledOutputs(SwProc &sw)
{
    bool moved = false;
    const ElabProgram &prog = sw.interp->program();
    Value v;
    for (const auto &prim : prog.prims) {
        if (prim.kind == "SyncTx") {
            while (sw.compiled->popPrim(prim.id, v)) {
                sw.store->at(prim.id).queue.push_back(std::move(v));
                moved = true;
            }
        } else if (prim.kind == "AudioDev") {
            // Devices accumulate in the mirror store so the
            // test-visible output (PrimState::queue) keeps the
            // interpreter's cumulative semantics.
            while (sw.compiled->popDevice(prim.id, v)) {
                sw.store->at(prim.id).queue.push_back(std::move(v));
                moved = true;
            }
        }
    }
    return moved;
}

/**
 * One slice of a compiled software domain: deliveries land in the
 * mirror store, get fed through the marshaled ABI into the shared
 * object's synchronizer halves, the generated static schedule runs to
 * quiescence, and produced messages/device outputs are drained back
 * into the mirror where the channel transports pick them up.
 */
bool
CoSim::sliceSoftwareCompiled(SwProc &sw)
{
    const double work_to_cycles =
        cfg.swCyclesPerWork / cfg.platform.cpuClockRatio;
    const double cycles_per_firing =
        cfg.swCompiledCyclesPerFiring / cfg.platform.cpuClockRatio;
    bool progress = false;
    for (int iter = 0; iter < cfg.swQuantum; iter++) {
        pumpFrom(sw.domain, static_cast<std::uint64_t>(sw.time));
        if (deliverTo(sw.domain,
                      static_cast<std::uint64_t>(sw.time))) {
            sw.driverBlocked = false;
        }
        bool fed = feedCompiledInputs(sw);
        std::uint64_t fired = sw.compiled->runToQuiescence();
        bool drained = drainCompiledOutputs(sw);
        if (fired > 0) {
            sw.time += static_cast<double>(fired) * cycles_per_firing;
            progress = true;
        }
        if (drained)
            pumpFrom(sw.domain, static_cast<std::uint64_t>(sw.time));
        if (fired > 0 || fed)
            continue;
        // Quiescent: one driver attempt, then yield the slice.
        if (tryDriver(sw, work_to_cycles)) {
            progress = true;
            continue;
        }
        break;
    }
    return progress;
}

/**
 * One slice of a remote hardware domain — the hwSyncIn/hwSyncOut
 * mirror pattern stretched over a process boundary. Deliveries land
 * in the mirror store as usual; staged SyncRx messages are shipped
 * to the partition host; the host clocks its ClockSim for up to
 * (horizon - hw.time) cycles, stopping early when idle (no new input
 * can arrive mid-slice); produced SyncTx/device messages come back
 * into the mirror where the transports pick them up. The child is
 * budget-based and stateless w.r.t. absolute time — the parent owns
 * the clock (hw.time += consumed), so quiescence-advance needs no
 * special casing. Timing differs from the in-thread loop (whole
 * slices instead of cycle-by-cycle polling); LIBDN makes that
 * functionally invisible, the same license threads > 1 uses.
 */
bool
CoSim::sliceHardwareRemote(HwProc &hw, std::uint64_t horizon)
{
    bool progress = false;
    bool active = true;
    while (hw.time < horizon || active) {
        pumpFrom(hw.domain, hw.time);
        if (deliverTo(hw.domain, hw.time))
            progress = true;
        hw.remote->shipInputs(*hw.store);
        std::uint64_t budget =
            horizon > hw.time ? horizon - hw.time : 1;
        RemoteHwPartition::SliceResult r =
            hw.remote->runSlice(*hw.store, budget);
        hw.time += r.consumed;
        active = r.active;
        if (r.fired > 0) {
            progress = true;
            pumpFrom(hw.domain, hw.time);
            continue;
        }
        if (hw.time >= horizon)
            break;
        // Idle inside the horizon: jump to the next delivery
        // addressed to us (or stop) — mirrors the local slice.
        std::uint64_t next = nextDeliveryTo(hw.domain);
        if (next == std::numeric_limits<std::uint64_t>::max() ||
            next >= horizon) {
            break;
        }
        hw.time = std::max(hw.time, next);
    }
    return progress;
}

bool
CoSim::sliceHardware(HwProc &hw, std::uint64_t horizon)
{
    if (hw.remote)
        return sliceHardwareRemote(hw, horizon);

    // Parallel mode amortizes per-cycle overhead: the worker clocks
    // the simulator in externally paced bursts (ClockSim::stepCycles)
    // and polls channels between bursts. Observing a delivery a few
    // cycles late is yet another link-timing perturbation, which
    // LIBDN makes functionally invisible; the sequential engine keeps
    // the historical cycle-by-cycle polling so its reported cycle
    // counts stay bit-stable.
    constexpr std::uint64_t kHwBurst = 8;

    bool progress = false;
    // The slice always attempts at least one cycle, and an *active*
    // partition keeps clocking past the horizon until its internal
    // pipelines drain - hardware does not stop because software has
    // nothing to say to it.
    bool active = true;
    while (hw.time < horizon || active) {
        pumpFrom(hw.domain, hw.time);
        if (deliverTo(hw.domain, hw.time))
            progress = true;
        if (hw.compiled)
            hwSyncIn(hw);
        std::uint64_t fired = 0;
        if (parallel_) {
            hw.time += hw.compiled
                           ? hw.compiled->stepCycles(kHwBurst, fired)
                           : hw.sim->stepCycles(kHwBurst, fired);
            active = hw.compiled ? !hw.compiled->idle()
                                 : !hw.sim->idle();
        } else {
            fired = static_cast<std::uint64_t>(
                hw.compiled ? hw.compiled->cycle() : hw.sim->cycle());
            hw.time++;
            active = fired > 0;
        }
        if (hw.compiled)
            hwSyncOut(hw);
        if (fired > 0) {
            progress = true;
            pumpFrom(hw.domain, hw.time);
            continue;
        }
        if (hw.time >= horizon)
            break;
        // Idle inside the horizon: jump to the next delivery
        // addressed to us (or stop).
        std::uint64_t next = nextDeliveryTo(hw.domain);
        if (next == std::numeric_limits<std::uint64_t>::max() ||
            next >= horizon) {
            break;
        }
        hw.time = std::max(hw.time, next);
    }
    return progress;
}

/*
 * Cycle-exactness across the ABI. With the interpreted backend a
 * sync fifo is ONE queue that both the transport and the rules touch,
 * so guards (canEnq/canDeq) see transport-side occupancy directly.
 * The compiled instance keeps its own gen::Fifo behind the ABI, and
 * the transports keep talking to the mirror store — so before each
 * cycle (or burst; no channel activity happens mid-burst) we project
 * the mirror's occupancy into the instance, and reconcile afterwards:
 *
 *   SyncRx (rules only dequeue): feed the mirror's messages in order
 *   without removing them from the mirror. After the cycle, whatever
 *   is left in the instance is a duplicate — drain and discard it;
 *   the difference is how many the rules consumed, and that many are
 *   popped off the mirror front. The mirror stays the full-occupancy
 *   source of truth for the transport's credit checks.
 *
 *   SyncTx (rules only enqueue): the instance fifo is empty between
 *   cycles (we drain it fully), but the producer guard must see the
 *   not-yet-delivered backlog or it would never feel backpressure and
 *   cycle counts would diverge. Prefill with one zero-valued dummy
 *   per backlogged mirror entry, cycle, pop the dummies back off, and
 *   append only the genuinely new messages to the mirror tail.
 *
 * This relies on the same contract the interpreter enforces
 * dynamically: rules never enqueue into a SyncRx, never dequeue from
 * a SyncTx, and never clear a sync fifo.
 */
void
CoSim::hwSyncIn(HwProc &hw)
{
    for (size_t i = 0; i < hw.rxPrims.size(); i++) {
        const auto &queue = hw.store->at(hw.rxPrims[i]).queue;
        int fed = 0;
        while (fed < static_cast<int>(queue.size()) &&
               hw.compiled->pushPrim(hw.rxPrims[i],
                                     queue[static_cast<size_t>(fed)]))
            fed++;
        hw.rxFed[i] = fed;
    }
    for (size_t i = 0; i < hw.txPrims.size(); i++) {
        const auto &queue = hw.store->at(hw.txPrims[i]).queue;
        int pre = 0;
        while (pre < static_cast<int>(queue.size()) &&
               hw.compiled->pushPrim(hw.txPrims[i], hw.txZero[i]))
            pre++;
        hw.txPre[i] = pre;
    }
}

void
CoSim::hwSyncOut(HwProc &hw)
{
    Value v;
    for (size_t i = 0; i < hw.rxPrims.size(); i++) {
        int rem = 0;
        while (hw.compiled->popPrim(hw.rxPrims[i], v))
            rem++;
        int consumed = hw.rxFed[i] - rem;
        if (consumed < 0)
            panic("cosim: compiled hardware enqueued into SyncRx");
        hw.store->at(hw.rxPrims[i])
            .queue.pop_front(static_cast<size_t>(consumed));
    }
    for (size_t i = 0; i < hw.txPrims.size(); i++) {
        auto &queue = hw.store->at(hw.txPrims[i]).queue;
        for (int k = 0; k < hw.txPre[i]; k++) {
            if (!hw.compiled->popPrim(hw.txPrims[i], v))
                panic("cosim: compiled hardware consumed a SyncTx "
                      "prefill");
        }
        while (hw.compiled->popPrim(hw.txPrims[i], v))
            queue.push_back(std::move(v));
    }
    for (size_t i = 0; i < hw.devPrims.size(); i++) {
        auto &queue = hw.store->at(hw.devPrims[i]).queue;
        while (hw.compiled->popDevice(hw.devPrims[i], v))
            queue.push_back(std::move(v));
    }
}

std::uint64_t
CoSim::run(const std::function<bool(CoSim &)> &done)
{
    return parallel_ ? runParallel(done) : runSequential(done);
}

std::uint64_t
CoSim::runSequential(const std::function<bool(CoSim &)> &done)
{
    while (!done(*this)) {
        if (now() > cfg.maxFpgaCycles)
            fatal("co-simulation exceeded maxFpgaCycles");

        bool progress = false;

        // Same per-domain slice spans as the parallel workers emit,
        // so a serving session's timeline shows which domain each
        // stretch of cosim time went to.
        for (auto &sw : swProcs) {
            obs::TraceSpan span(sw.domain.c_str(), "cosim.slice",
                                cfg.trace);
            progress |= sliceSoftware(sw);
        }

        // Hardware catches up to the latest software time plus one
        // bus latency (so in-flight messages can land).
        std::uint64_t horizon = 1;
        for (auto &sw : swProcs) {
            horizon = std::max(
                horizon, static_cast<std::uint64_t>(sw.time) + 1);
        }
        std::uint64_t chan_next = nextChannelEvent();
        if (chan_next != std::numeric_limits<std::uint64_t>::max())
            horizon = std::max(horizon, chan_next + 1);

        for (auto &hw : hwProcs) {
            obs::TraceSpan span(hw.domain.c_str(), "cosim.slice",
                                cfg.trace);
            progress |= sliceHardware(hw, horizon);
        }

        if (progress)
            continue;

        // Nothing ran. If channel events are pending, advance every
        // blocked process to the event time, restart any deferred
        // pickups, and retry.
        std::uint64_t next = nextChannelEvent();
        if (next != std::numeric_limits<std::uint64_t>::max()) {
            for (auto &sw : swProcs) {
                if (sw.time < static_cast<double>(next + 1))
                    sw.time = static_cast<double>(next + 1);
                sw.engine->poke();
                sw.driverBlocked = false;
                pumpFrom(sw.domain,
                         static_cast<std::uint64_t>(sw.time));
            }
            for (auto &hw : hwProcs) {
                // +1: the delivery must be visible in the cycle that
                // observes it.
                std::uint64_t t = next + 1;
                if (hw.time < t)
                    hw.time = t;
                pumpFrom(hw.domain, hw.time);
            }
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

std::uint64_t
CoSim::domainTime(const std::string &domain) const
{
    for (const auto &p : swProcs) {
        if (p.domain == domain)
            return static_cast<std::uint64_t>(p.time);
    }
    for (const auto &p : hwProcs) {
        if (p.domain == domain)
            return p.time;
    }
    panic("domainTime: no domain '" + domain + "'");
}

/**
 * Epoch-barrier channel sweep (single-threaded; all workers parked):
 * land every due arrival, refresh credit observations, restart
 * deferred pickups, and poke consumers that received messages — the
 * deliveries a worker performed mid-epoch poked its own engine, but
 * messages arriving at the barrier need this sweep's pokes to keep
 * quiescence detection honest. Deterministic: transports are visited
 * in construction (channel id) order.
 */
bool
CoSim::sweepChannels()
{
    std::uint64_t picked_before = 0;
    for (const auto &t : transports)
        picked_before += t->stats().messages;

    bool delivered_any = false;
    for (auto &t : transports) {
        if (!t->deliver(domainTime(t->spec().toDomain)))
            continue;
        delivered_any = true;
        for (auto &sw : swProcs) {
            if (sw.domain == t->spec().toDomain) {
                sw.engine->poke();
                sw.driverBlocked = false;
            }
        }
    }
    for (auto &t : transports)
        t->pump(domainTime(t->spec().fromDomain));

    std::uint64_t picked_after = 0;
    for (const auto &t : transports)
        picked_after += t->stats().messages;
    return delivered_any || picked_after != picked_before;
}

/**
 * The parallel engine: one worker per domain (round-robin when
 * domains outnumber threads), epoch barriers at swQuantum
 * granularity. Within an epoch each worker advances only its own
 * partitions and touches only its own ends of the channel
 * transports; between epochs the coordinating thread (the caller)
 * sweeps channels, evaluates the completion predicate, recomputes
 * the hardware horizon and handles quiescence — exactly the duties
 * the sequential loop performs inline. Worker exceptions are
 * captured and rethrown here after an orderly shutdown.
 */
std::uint64_t
CoSim::runParallel(const std::function<bool(CoSim &)> &done)
{
    struct ProcRef
    {
        SwProc *sw = nullptr;
        HwProc *hw = nullptr;
    };
    std::vector<ProcRef> procs;
    for (auto &p : swProcs)
        procs.push_back({&p, nullptr});
    for (auto &p : hwProcs)
        procs.push_back({nullptr, &p});

    const int W = std::min<int>(requestedThreads(cfg),
                                static_cast<int>(procs.size()));

    // Two-phase epoch protocol: coordinator publishes the horizon and
    // releases the start barrier; workers slice their domains and
    // meet at the end barrier; the coordinator then owns everything
    // until the next start. std::barrier is cyclic, so the same pair
    // serves every epoch.
    std::barrier<> startBarrier(W + 1);
    std::barrier<> endBarrier(W + 1);
    std::atomic<bool> stop{false};
    std::atomic<bool> anyProgress{false};
    std::uint64_t horizon = 1;  // barrier-ordered: coordinator writes
                                // between epochs, workers read within
    std::vector<std::exception_ptr> errors(
        static_cast<size_t>(W));

    auto worker = [&](int w) {
        if (cfg.trace && obs::trace().enabled()) {
            obs::trace().setThreadName("cosim.worker " +
                                       std::to_string(w));
        }
        for (;;) {
            startBarrier.arrive_and_wait();
            if (stop.load(std::memory_order_acquire))
                return;
            try {
                bool progress = false;
                for (size_t i = static_cast<size_t>(w);
                     i < procs.size(); i += static_cast<size_t>(W)) {
                    // Span per partition slice: the trace shows which
                    // worker ran which domain for how long each epoch.
                    const std::string &dom = procs[i].sw
                                                 ? procs[i].sw->domain
                                                 : procs[i].hw->domain;
                    obs::TraceSpan span(dom.c_str(), "cosim.slice",
                                        cfg.trace);
                    if (procs[i].sw)
                        progress |= sliceSoftware(*procs[i].sw);
                    else
                        progress |= sliceHardware(*procs[i].hw, horizon);
                }
                if (progress)
                    anyProgress.store(true, std::memory_order_relaxed);
            } catch (...) {
                if (!errors[static_cast<size_t>(w)])
                    errors[static_cast<size_t>(w)] =
                        std::current_exception();
            }
            endBarrier.arrive_and_wait();
        }
    };

    std::vector<std::thread> workers;
    workers.reserve(static_cast<size_t>(W));
    for (int w = 0; w < W; w++)
        workers.emplace_back(worker, w);

    bool shut = false;
    auto shutdown = [&] {
        if (shut)
            return;
        shut = true;
        stop.store(true, std::memory_order_release);
        startBarrier.arrive_and_wait();
        for (auto &t : workers)
            t.join();
        // Compiled partitions were driven (and thread-bound) by their
        // workers; hand them back so the caller can keep using them.
        for (auto &sw : swProcs) {
            if (sw.compiled)
                sw.compiled->rebindThread();
        }
        for (auto &hw : hwProcs) {
            if (hw.compiled)
                hw.compiled->rebindThread();
        }
    };

    // Epoch wall time feeds the tuning loop: barrier overhead vs.
    // slice width is exactly what swQuantum trades off.
    obs::Histogram *epochHist =
        cfg.trace ? &obs::metrics().histogram(
                        "cosim.epoch.wall_us",
                        obs::Histogram::exponentialBounds(1.0, 2.0, 22))
                  : nullptr;

    std::string failure;
    std::exception_ptr workerError;
    try {
        for (;;) {
            // Coordinator-owned window: workers are parked at the
            // start barrier, so predicates may read any store.
            if (done(*this))
                break;
            if (now() > cfg.maxFpgaCycles) {
                failure = "co-simulation exceeded maxFpgaCycles";
                break;
            }

            horizon = 1;
            for (auto &sw : swProcs) {
                horizon = std::max(
                    horizon, static_cast<std::uint64_t>(sw.time) + 1);
            }
            std::uint64_t chan_next = nextChannelEvent();
            if (chan_next !=
                std::numeric_limits<std::uint64_t>::max())
                horizon = std::max(horizon, chan_next + 1);

            anyProgress.store(false, std::memory_order_relaxed);
            const bool obsOn =
                cfg.trace && (obs::trace().enabled() ||
                              obs::metrics().enabled());
            std::chrono::steady_clock::time_point epochT0;
            if (obsOn) {
                epochT0 = std::chrono::steady_clock::now();
                obs::trace().begin("epoch", "cosim", "virtual_time",
                                   static_cast<std::int64_t>(now()));
            }
            startBarrier.arrive_and_wait();
            // ... workers run one epoch ...
            endBarrier.arrive_and_wait();
            if (obsOn) {
                obs::trace().end("epoch", "cosim");
                epochHist->observe(
                    std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - epochT0)
                        .count());
            }

            for (auto &e : errors) {
                if (e) {
                    workerError = e;
                    break;
                }
            }
            if (workerError)
                break;

            bool swept = sweepChannels();
            if (anyProgress.load(std::memory_order_relaxed) || swept)
                continue;

            // Nothing ran anywhere. Advance every process to the next
            // channel event and retry (mirrors the sequential loop).
            std::uint64_t next = nextChannelEvent();
            if (next != std::numeric_limits<std::uint64_t>::max()) {
                for (auto &sw : swProcs) {
                    if (sw.time < static_cast<double>(next + 1))
                        sw.time = static_cast<double>(next + 1);
                    sw.engine->poke();
                    sw.driverBlocked = false;
                }
                for (auto &hw : hwProcs) {
                    if (hw.time < next + 1)
                        hw.time = next + 1;
                }
                sweepChannels();
                continue;
            }

            if (done(*this))
                break;
            failure =
                "co-simulation deadlock: all partitions quiescent, "
                "no messages in flight, and the completion predicate "
                "is not satisfied";
            break;
        }
    } catch (...) {
        shutdown();
        throw;
    }
    shutdown();
    if (workerError)
        std::rethrow_exception(workerError);
    if (!failure.empty())
        fatal(failure);
    return now();
}

} // namespace bcl
