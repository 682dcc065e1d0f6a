/**
 * @file
 * Remote hardware partitions: run a partition's ClockSim in another
 * process and relay its latency-insensitive channel traffic per
 * slice. This is the distributed-LIBDN cash-in of the paper's §4.4
 * argument — because every cross-domain interface is a synchronizer
 * whose timing is semantics-free, a partition can move from a thread
 * to a forked child (shared-memory rings) or to another process
 * entirely (framed TCP) without changing functional outputs or
 * firing counts.
 *
 * Architecture (mirror-store relay): every ChannelTransport stays in
 * the coordinator process, operating on the domain's mirror Store —
 * flow pairing, channel.* metrics, credit checks and deadlock
 * detection are untouched. Only the boundary crosses the wire,
 * exactly the compiled-hw hwSyncIn/hwSyncOut pattern stretched over
 * a process:
 *
 *   parent: deliveries land in mirror SyncRx queues
 *         -> shipInputs(): marshal + Msg frames to the child
 *         -> Run{budget}: child clocks its ClockSim up to `budget`
 *            cycles (stopping early when idle — no new input can
 *            arrive mid-slice)
 *         -> child drains SyncTx/device queues back as Msg frames,
 *            then SliceDone{consumed, cumulative stats, active}
 *         -> parent demarshals into mirror queues; transports pick
 *            them up; hw.time += consumed.
 *
 * The child is stateless with respect to absolute virtual time (the
 * parent owns the clock), so the coordinator's quiescence-advance
 * logic needs no changes. A handshake verifying kCppGenAbiVersion
 * and programIdentity() runs before any payload; peer death or
 * a slice overrunning the transport timeout surfaces as one clean
 * FatalError naming the domain and pid.
 */
#ifndef BCL_PLATFORM_REMOTE_PARTITION_HPP
#define BCL_PLATFORM_REMOTE_PARTITION_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include <sys/types.h>

#include "core/elaborate.hpp"
#include "hwsim/clocksim.hpp"
#include "platform/net_transport.hpp"
#include "runtime/store.hpp"

namespace bcl {

/** Where a domain's simulator runs (CosimConfig::transportOf). */
enum class TransportKind : std::uint8_t {
    InThread,   ///< historical: same process, direct store access
    SharedMem,  ///< forked child over mmap'd word rings
    Tcp,        ///< forked child (or remote host) over framed TCP
};

const char *transportName(TransportKind k);
/** Parse "inthread" | "shm" | "tcp" (bench flags); panics otherwise. */
TransportKind parseTransportKind(const std::string &name);

/** Transport-agnostic frame pipe between coordinator and partition
 *  host (framed TCP or shm rings speak the same logical frames). */
class RemoteLink
{
  public:
    virtual ~RemoteLink() = default;
    virtual bool send(const Frame &f, int timeout_ms) = 0;
    virtual RecvStatus recv(Frame &out, int timeout_ms) = 0;
    virtual const std::string &error() const = 0;
};

/** A RemoteLink over one connected loopback TCP socket (either end:
 *  the coordinator's proxy or a partition host). */
class TcpRemoteLink final : public RemoteLink
{
  public:
    explicit TcpRemoteLink(int fd) : conn_(fd) {}
    bool send(const Frame &f, int) override { return conn_.send(f); }
    RecvStatus recv(Frame &out, int timeout_ms) override
    {
        return conn_.recv(out, timeout_ms);
    }
    const std::string &error() const override { return conn_.error(); }

  private:
    FrameConn conn_;
};

/** Tuning/testing knobs for a remote partition. */
struct RemoteOptions
{
    /** Bound on every blocking transport operation (handshake, slice
     *  round trip). A peer that stays silent longer is declared dead. */
    int timeoutMs = 10000;
    /** Participate in obs metrics (cosim.remote.slice_us). */
    bool traced = true;
    /** Test hooks: when set, replace the real values in the Hello so
     *  handshake refusal paths can be exercised. 0 / -1 = real. */
    std::uint64_t helloHashOverride = 0;
    int helloAbiOverride = -1;
};

/**
 * Coordinator-side proxy for one remote hardware domain. Constructing
 * one forks (or connects to) the partition host and completes the
 * handshake; any refusal, timeout or death is a FatalError. The proxy
 * maintains a local HwStats mirror refreshed from every SliceDone, so
 * CoSim::hwStats keeps working across the process boundary.
 */
class RemoteHwPartition
{
  public:
    /** Fork flavor: spawn a child of this process serving @p prog
     *  over @p kind (SharedMem or Tcp). The child inherits the
     *  elaborated program by fork — nothing is serialized. */
    RemoteHwPartition(const ElabProgram &prog, TransportKind kind,
                      std::string domain, RemoteOptions opts = {});

    /** Connect flavor: attach to an already-running
     *  cosim_partition_host at @p endpoint ("127.0.0.1:PORT" or
     *  ":PORT"; loopback only). */
    RemoteHwPartition(const ElabProgram &prog,
                      const std::string &endpoint, std::string domain,
                      RemoteOptions opts = {});

    ~RemoteHwPartition();
    RemoteHwPartition(const RemoteHwPartition &) = delete;
    RemoteHwPartition &operator=(const RemoteHwPartition &) = delete;

    /** Marshal and ship every staged mirror SyncRx message. */
    void shipInputs(Store &mirror);

    struct SliceResult
    {
        std::uint64_t consumed = 0;  ///< cycles the child clocked
        std::uint64_t fired = 0;     ///< rule firings this slice
        bool active = false;  ///< still draining pipelines at budget
    };

    /** Run one remote slice of up to @p budget cycles; produced
     *  SyncTx/device messages are demarshaled into @p mirror. */
    SliceResult runSlice(Store &mirror, std::uint64_t budget);

    const HwStats &stats() const { return stats_; }
    const std::string &domain() const { return domain_; }
    /** Child pid (fork flavors); -1 for the connect flavor. */
    pid_t childPid() const { return pid_; }

  private:
    void handshake(const RemoteOptions &opts);
    [[noreturn]] void die(const std::string &why) const;

    const ElabProgram &prog_;
    std::string domain_;
    int timeoutMs_;
    bool traced_;
    std::unique_ptr<RemoteLink> link_;
    pid_t pid_ = -1;
    bool reaped_ = false;
    HwStats stats_;
    std::map<int, TypePtr> payloadType_;  ///< prim id -> message type
    std::uint64_t nextFlow_ = 1;
};

/**
 * Partition-host slice server: the child/host half of the protocol.
 * Handshakes (refusing an ABI or program-identity mismatch before
 * any payload), then serves Msg/Run until Shutdown or peer death.
 * @return process exit code (0 orderly, 2 bad handshake frame,
 * 3 refused, 4 transport corrupt).
 */
int servePartitionSlices(RemoteLink &link, const ElabProgram &prog,
                         int timeout_ms);

} // namespace bcl

#endif // BCL_PLATFORM_REMOTE_PARTITION_HPP
