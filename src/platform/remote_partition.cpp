#include "platform/remote_partition.hpp"

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <utility>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/logging.hpp"
#include "core/codegen_cpp.hpp"
#include "obs/metrics.hpp"
#include "platform/marshal.hpp"
#include "platform/shm_ring.hpp"

namespace bcl {

const char *
transportName(TransportKind k)
{
    switch (k) {
    case TransportKind::InThread:
        return "inthread";
    case TransportKind::SharedMem:
        return "shm";
    case TransportKind::Tcp:
        return "tcp";
    }
    return "?";
}

TransportKind
parseTransportKind(const std::string &name)
{
    if (name == "inthread")
        return TransportKind::InThread;
    if (name == "shm")
        return TransportKind::SharedMem;
    if (name == "tcp")
        return TransportKind::Tcp;
    panic("unknown transport '" + name +
          "' (expected inthread|shm|tcp)");
}

// ---------------------------------------------------------------------------
// Concrete links
// ---------------------------------------------------------------------------

namespace {

/** Parent side: owns the segment; child side: borrows it (the
 *  segment object lives in the parent's proxy, but the pages are
 *  shared so the child constructs its own view over base()). */
class ShmRemoteLink final : public RemoteLink
{
  public:
    ShmRemoteLink(std::unique_ptr<ShmSegment> seg, bool parent_side,
                  bool init)
        : seg_(std::move(seg)),
          link_(seg_->base(), kShmRingWords, parent_side, init)
    {
    }

    ShmFrameLink &frameLink() { return link_; }

    bool
    send(const Frame &f, int timeout_ms) override
    {
        return link_.send(f, timeout_ms);
    }

    RecvStatus
    recv(Frame &out, int timeout_ms) override
    {
        return link_.recv(out, timeout_ms);
    }

    const std::string &error() const override
    {
        return link_.error();
    }

  private:
    std::unique_ptr<ShmSegment> seg_;
    ShmFrameLink link_;
};

std::uint16_t
parseEndpointPort(const std::string &endpoint)
{
    auto colon = endpoint.rfind(':');
    std::string host = colon == std::string::npos
                           ? std::string()
                           : endpoint.substr(0, colon);
    std::string port_s = colon == std::string::npos
                             ? endpoint
                             : endpoint.substr(colon + 1);
    if (!host.empty() && host != "127.0.0.1" && host != "localhost")
        panic("remote endpoint '" + endpoint +
              "': only loopback hosts are supported");
    int port = std::atoi(port_s.c_str());
    if (port <= 0 || port > 65535)
        panic("remote endpoint '" + endpoint + "': bad port");
    return static_cast<std::uint16_t>(port);
}

/** SliceDone payload layout (words). */
enum SliceReportField {
    kRepConsumedLo,
    kRepConsumedHi,
    kRepFiredLo,
    kRepFiredHi,
    kRepActive,
    kRepStatCyclesLo,
    kRepStatCyclesHi,
    kRepStatFiredLo,
    kRepStatFiredHi,
    kRepStatBusyLo,
    kRepStatBusyHi,
    kRepNumRules,
    kRepWords,  // fixed prefix; 2 words per rule follow
};

void
put64(std::vector<std::uint32_t> &p, std::size_t at, std::uint64_t v)
{
    p[at] = static_cast<std::uint32_t>(v);
    p[at + 1] = static_cast<std::uint32_t>(v >> 32);
}

std::uint64_t
get64(const std::vector<std::uint32_t> &p, std::size_t at)
{
    return p[at] | (static_cast<std::uint64_t>(p[at + 1]) << 32);
}

} // namespace

// ---------------------------------------------------------------------------
// Child/host half: serve slices over a link
// ---------------------------------------------------------------------------

int
servePartitionSlices(RemoteLink &link, const ElabProgram &prog,
                     int timeout_ms)
{
    const std::uint64_t hash = programIdentity(prog);

    // --- handshake: refuse before any payload flows ----------------
    Frame f;
    RecvStatus st = link.recv(f, timeout_ms);
    if (st != RecvStatus::Ok || f.type != FrameType::Hello ||
        f.payload.size() < 3)
        return 2;
    std::uint32_t peer_abi = f.payload[0];
    std::uint64_t peer_hash = get64(f.payload, 1);
    if (peer_abi != static_cast<std::uint32_t>(kCppGenAbiVersion) ||
        peer_hash != hash) {
        Frame refuse;
        refuse.type = FrameType::Refuse;
        std::string why =
            peer_abi != static_cast<std::uint32_t>(kCppGenAbiVersion)
                ? "ABI version mismatch: peer " +
                      std::to_string(peer_abi) + ", host " +
                      std::to_string(kCppGenAbiVersion)
                : "program identity mismatch: the two processes "
                  "elaborated different partitions";
        refuse.setText(why);
        link.send(refuse, timeout_ms);
        return 3;
    }
    Frame ack;
    ack.type = FrameType::HelloAck;
    ack.payload.assign(3, 0);
    ack.payload[0] = static_cast<std::uint32_t>(kCppGenAbiVersion);
    put64(ack.payload, 1, hash);
    if (!link.send(ack, timeout_ms))
        return 2;

    // --- partition state (fork flavor inherits prog; the exec'd
    // host rebuilt it from the workload name) ----------------------
    Store store(prog);
    ClockSim sim(prog, store);
    std::map<int, TypePtr> rxType;
    std::vector<int> txPrims, devPrims;
    std::map<int, TypePtr> outType;
    for (const auto &prim : prog.prims) {
        if (prim.kind == "SyncRx") {
            rxType[prim.id] = prim.type;
        } else if (prim.kind == "SyncTx") {
            txPrims.push_back(prim.id);
            outType[prim.id] = prim.type;
        } else if (prim.kind == "AudioDev") {
            devPrims.push_back(prim.id);
            outType[prim.id] = devicePayloadType(prog, prim.id);
        }
    }

    for (;;) {
        st = link.recv(f, 1000);
        if (st == RecvStatus::Timeout)
            continue;  // idle between slices; peer death ends this
        if (st == RecvStatus::Closed)
            return 0;  // coordinator gone — nothing left to serve
        if (st == RecvStatus::Corrupt) {
            Frame err;
            err.type = FrameType::Error;
            err.setText("partition host: transport corrupt: " +
                        link.error());
            link.send(err, timeout_ms);
            return 4;
        }
        switch (f.type) {
        case FrameType::Msg: {
            auto it = rxType.find(static_cast<int>(f.channel));
            if (it == rxType.end()) {
                Frame err;
                err.type = FrameType::Error;
                err.setText("partition host: Msg for prim " +
                            std::to_string(f.channel) +
                            " which is not a SyncRx here");
                link.send(err, timeout_ms);
                return 4;
            }
            store.at(static_cast<int>(f.channel))
                .queue.push_back(
                    demarshalValue(it->second, f.payload));
            break;
        }
        case FrameType::Run: {
            std::uint64_t budget = f.arg > 0 ? f.arg : 1;
            std::uint64_t fired = 0;
            std::uint64_t consumed = sim.stepCycles(budget, fired);
            bool active = !sim.idle();
            // Ship produced messages before the report so the
            // coordinator sees a complete slice at SliceDone.
            // Reads stay const until there is something to pop: a
            // mutable access is a write (see Store).
            for (const std::vector<int> *ids : {&txPrims, &devPrims}) {
                for (int id : *ids) {
                    if (std::as_const(store).at(id).queue.empty())
                        continue;
                    auto &q = store.at(id).queue;
                    for (const Value &v : q) {
                        Frame m;
                        m.type = FrameType::Msg;
                        m.channel = static_cast<std::uint32_t>(id);
                        m.payload = marshalValue(v);
                        if (!link.send(m, timeout_ms))
                            return 4;
                    }
                    q.pop_front(q.size());
                }
            }
            const HwStats &hs = sim.stats();
            Frame doneF;
            doneF.type = FrameType::SliceDone;
            doneF.payload.assign(
                kRepWords + 2 * hs.perRuleFires.size(), 0);
            put64(doneF.payload, kRepConsumedLo, consumed);
            put64(doneF.payload, kRepFiredLo, fired);
            doneF.payload[kRepActive] = active ? 1 : 0;
            put64(doneF.payload, kRepStatCyclesLo, hs.cycles);
            put64(doneF.payload, kRepStatFiredLo, hs.rulesFired);
            put64(doneF.payload, kRepStatBusyLo, hs.busyCycles);
            doneF.payload[kRepNumRules] = static_cast<std::uint32_t>(
                hs.perRuleFires.size());
            for (std::size_t i = 0; i < hs.perRuleFires.size(); i++)
                put64(doneF.payload, kRepWords + 2 * i,
                      hs.perRuleFires[i]);
            if (!link.send(doneF, timeout_ms))
                return 4;
            break;
        }
        case FrameType::Shutdown:
            return 0;
        default:
            break;  // Hello retransmits etc. — ignore
        }
    }
}

// ---------------------------------------------------------------------------
// Coordinator-side proxy
// ---------------------------------------------------------------------------

void
RemoteHwPartition::die(const std::string &why) const
{
    fatal("remote partition '" + domain_ + "' (" +
          (pid_ > 0 ? "pid " + std::to_string(pid_)
                    : std::string("connected host")) +
          ", transport timeout " + std::to_string(timeoutMs_) +
          " ms): " + why);
}

RemoteHwPartition::RemoteHwPartition(const ElabProgram &prog,
                                     TransportKind kind,
                                     std::string domain,
                                     RemoteOptions opts)
    : prog_(prog), domain_(std::move(domain)),
      timeoutMs_(opts.timeoutMs), traced_(opts.traced)
{
    for (const auto &prim : prog.prims) {
        if (prim.kind == "SyncRx" || prim.kind == "SyncTx")
            payloadType_[prim.id] = prim.type;
        else if (prim.kind == "AudioDev")
            payloadType_[prim.id] = devicePayloadType(prog, prim.id);
    }
    stats_.perRuleFires.assign(prog.rules.size(), 0);

    if (kind == TransportKind::SharedMem) {
        auto seg = std::make_unique<ShmSegment>(
            ShmFrameLink::bytesFor(kShmRingWords));
        if (!seg->valid())
            die("mmap of the shared-memory segment failed");
        void *base = seg->base();
        // Parent view initializes both rings BEFORE the fork so the
        // child attaches to a consistent segment.
        auto plink = std::make_unique<ShmRemoteLink>(std::move(seg),
                                                     true, true);
        pid_t pid = ::fork();
        if (pid < 0)
            die("fork failed: " + std::string(std::strerror(errno)));
        if (pid == 0) {
            // Child: serve slices over its own view of the same
            // pages; the program was inherited by fork, nothing was
            // serialized. Exit without running parent atexit state.
            ShmFrameLink clink(base, kShmRingWords, false, false);
            pid_t parent = ::getppid();
            clink.setPeerDeadCheck(
                [parent] { return ::getppid() != parent; });
            class ChildView final : public RemoteLink
            {
              public:
                explicit ChildView(ShmFrameLink &l) : l_(l) {}
                bool send(const Frame &f, int t) override
                {
                    return l_.send(f, t);
                }
                RecvStatus recv(Frame &o, int t) override
                {
                    return l_.recv(o, t);
                }
                const std::string &error() const override
                {
                    return l_.error();
                }

              private:
                ShmFrameLink &l_;
            } view(clink);
            int rc = servePartitionSlices(view, prog, opts.timeoutMs);
            ::_exit(rc);
        }
        pid_ = pid;
        plink->frameLink().setPeerDeadCheck([this] {
            if (reaped_)
                return true;
            int status = 0;
            pid_t r = ::waitpid(pid_, &status, WNOHANG);
            if (r == pid_)
                reaped_ = true;
            return reaped_;
        });
        link_ = std::move(plink);
    } else if (kind == TransportKind::Tcp) {
        if (!netTransportAvailable())
            die("loopback TCP sockets unavailable in this sandbox");
        TcpListener listener;
        if (!listener.open())
            die("could not open a loopback listener");
        std::uint16_t port = listener.port();
        pid_t pid = ::fork();
        if (pid < 0)
            die("fork failed: " + std::string(std::strerror(errno)));
        if (pid == 0) {
            listener.close();  // the child's copy of the fd only
            int fd = tcpConnect(port, opts.timeoutMs);
            if (fd < 0)
                ::_exit(5);
            TcpRemoteLink clink(fd);
            int rc =
                servePartitionSlices(clink, prog, opts.timeoutMs);
            ::_exit(rc);
        }
        pid_ = pid;
        int cfd = listener.acceptWithin(opts.timeoutMs);
        if (cfd < 0)
            die("partition child never connected back");
        link_ = std::make_unique<TcpRemoteLink>(cfd);
    } else {
        panic("RemoteHwPartition: InThread is not a remote "
              "transport");
    }
    handshake(opts);
}

RemoteHwPartition::RemoteHwPartition(const ElabProgram &prog,
                                     const std::string &endpoint,
                                     std::string domain,
                                     RemoteOptions opts)
    : prog_(prog), domain_(std::move(domain)),
      timeoutMs_(opts.timeoutMs), traced_(opts.traced)
{
    for (const auto &prim : prog.prims) {
        if (prim.kind == "SyncRx" || prim.kind == "SyncTx")
            payloadType_[prim.id] = prim.type;
        else if (prim.kind == "AudioDev")
            payloadType_[prim.id] = devicePayloadType(prog, prim.id);
    }
    stats_.perRuleFires.assign(prog.rules.size(), 0);
    if (!netTransportAvailable())
        die("loopback TCP sockets unavailable in this sandbox");
    int fd = tcpConnect(parseEndpointPort(endpoint), opts.timeoutMs);
    if (fd < 0)
        die("could not connect to partition host at " + endpoint);
    link_ = std::make_unique<TcpRemoteLink>(fd);
    handshake(opts);
}

void
RemoteHwPartition::handshake(const RemoteOptions &opts)
{
    Frame hello;
    hello.type = FrameType::Hello;
    hello.payload.assign(3, 0);
    hello.payload[0] =
        opts.helloAbiOverride >= 0
            ? static_cast<std::uint32_t>(opts.helloAbiOverride)
            : static_cast<std::uint32_t>(kCppGenAbiVersion);
    put64(hello.payload, 1,
          opts.helloHashOverride != 0 ? opts.helloHashOverride
                                      : programIdentity(prog_));
    if (!link_->send(hello, timeoutMs_))
        die("handshake send failed (peer gone?)");
    Frame resp;
    RecvStatus st = link_->recv(resp, timeoutMs_);
    if (st == RecvStatus::Timeout)
        die("handshake timed out");
    if (st == RecvStatus::Closed)
        die("peer closed the connection during the handshake");
    if (st == RecvStatus::Corrupt)
        die("handshake corrupt: " + link_->error());
    if (resp.type == FrameType::Refuse)
        die("handshake refused before any payload: " + resp.text());
    if (resp.type != FrameType::HelloAck || resp.payload.size() < 3)
        die("unexpected handshake reply");
    // Verify the acceptor's triple too — a cosim_partition_host
    // serving a different workload is caught here even though it
    // accepted ours (it cannot have: hashes differ symmetrically).
    if (resp.payload[0] !=
            static_cast<std::uint32_t>(kCppGenAbiVersion) ||
        get64(resp.payload, 1) != programIdentity(prog_))
        die("handshake ack advertises a different ABI/program");
}

RemoteHwPartition::~RemoteHwPartition()
{
    if (link_) {
        Frame bye;
        bye.type = FrameType::Shutdown;
        link_->send(bye, 200);  // best effort
    }
    if (pid_ > 0 && !reaped_) {
        // Grace period for the orderly exit, then force it.
        for (int i = 0; i < 100 && !reaped_; i++) {
            int status = 0;
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                reaped_ = true;
                break;
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
        }
        if (!reaped_) {
            ::kill(pid_, SIGKILL);
            int status = 0;
            ::waitpid(pid_, &status, 0);
            reaped_ = true;
        }
    }
}

void
RemoteHwPartition::shipInputs(Store &mirror)
{
    for (const auto &prim : prog_.prims) {
        if (prim.kind != "SyncRx")
            continue;
        if (std::as_const(mirror).at(prim.id).queue.empty())
            continue;
        auto &queue = mirror.at(prim.id).queue;
        for (const Value &v : queue) {
            Frame m;
            m.type = FrameType::Msg;
            m.channel = static_cast<std::uint32_t>(prim.id);
            m.flowId = nextFlow_++;
            m.payload = marshalValue(v);
            if (!link_->send(m, timeoutMs_))
                die("shipping a channel message failed mid-epoch");
        }
        queue.pop_front(queue.size());
    }
}

RemoteHwPartition::SliceResult
RemoteHwPartition::runSlice(Store &mirror, std::uint64_t budget)
{
    auto t0 = std::chrono::steady_clock::now();
    Frame runF;
    runF.type = FrameType::Run;
    runF.arg = budget;
    if (!link_->send(runF, timeoutMs_))
        die("slice request failed mid-epoch (peer dead?)");

    SliceResult res;
    for (;;) {
        Frame f;
        RecvStatus st = link_->recv(f, timeoutMs_);
        if (st == RecvStatus::Timeout)
            die("slice overran the transport timeout");
        if (st == RecvStatus::Closed)
            die("peer died mid-epoch");
        if (st == RecvStatus::Corrupt)
            die("transport corrupt mid-epoch: " + link_->error());
        if (f.type == FrameType::Error)
            die("peer reported: " + f.text());
        if (f.type == FrameType::Msg) {
            auto it = payloadType_.find(static_cast<int>(f.channel));
            if (it == payloadType_.end())
                die("produced message for unknown prim " +
                    std::to_string(f.channel));
            mirror.at(static_cast<int>(f.channel))
                .queue.push_back(
                    demarshalValue(it->second, f.payload));
            continue;
        }
        if (f.type == FrameType::SliceDone) {
            if (f.payload.size() < kRepWords)
                die("short slice report");
            res.consumed = get64(f.payload, kRepConsumedLo);
            res.fired = get64(f.payload, kRepFiredLo);
            res.active = f.payload[kRepActive] != 0;
            stats_.cycles = get64(f.payload, kRepStatCyclesLo);
            stats_.rulesFired = get64(f.payload, kRepStatFiredLo);
            stats_.busyCycles = get64(f.payload, kRepStatBusyLo);
            std::size_t n = f.payload[kRepNumRules];
            if (f.payload.size() >= kRepWords + 2 * n) {
                stats_.perRuleFires.resize(n);
                for (std::size_t i = 0; i < n; i++)
                    stats_.perRuleFires[i] =
                        get64(f.payload, kRepWords + 2 * i);
            }
            break;
        }
        // Anything else mid-slice is a protocol error.
        die("unexpected frame type " +
            std::to_string(static_cast<int>(f.type)) + " mid-slice");
    }
    if (traced_ && obs::metrics().enabled()) {
        obs::metrics()
            .histogram("cosim.remote.slice_us",
                       obs::Histogram::exponentialBounds(1.0, 2.0, 22))
            .observe(std::chrono::duration<double, std::micro>(
                         std::chrono::steady_clock::now() - t0)
                         .count());
    }
    return res;
}

} // namespace bcl
