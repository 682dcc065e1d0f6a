/**
 * @file
 * Hoisted gencc compile cache: many sessions, one shared object per
 * distinct program. The serving layer's whole premise — the paper's
 * generated HW/SW interface makes the runtime artifact cheap to
 * instantiate — only holds if the expensive half (generateCpp + host
 * compiler + dlopen) happens once. This cache keys artifacts on
 * programIdentity() (the structural hash code generation is a pure
 * function of) plus everything that changes the binary: gen mode and
 * compile flags. Two sessions serving the same partition share one
 * CompiledArtifact while different partitions can never alias, and
 * a hit runs no code generation at all.
 *
 * Concurrency: get() is callable from any thread. The first caller
 * of a key compiles; concurrent callers of the same key block on a
 * shared future and count as hits — same program from two threads
 * yields exactly one compile. Different keys compile concurrently,
 * each artifact in its own scratch directory, which it removes when
 * the last session drops it.
 */
#ifndef BCL_SERVE_COMPILE_CACHE_HPP
#define BCL_SERVE_COMPILE_CACHE_HPP

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>

#include "obs/metrics.hpp"
#include "runtime/gencc.hpp"

namespace bcl {
namespace serve {

/** Observability counters (monotone; read while quiesced for exact
 *  values — get() updates them under the cache lock). */
struct CompileCacheStats
{
    std::uint64_t compiles = 0;  ///< host compiler actually invoked
    std::uint64_t hits = 0;  ///< served from a live in-memory artifact
                             ///< (or by waiting on an in-flight compile)
};

/** Thread-safe artifact cache; see file comment. */
class CompileCache
{
  public:
    CompileCache() = default;

    CompileCache(const CompileCache &) = delete;
    CompileCache &operator=(const CompileCache &) = delete;

    /**
     * The artifact for @p prog under @p opts, compiling at most once
     * per (programIdentity, mode, extraFlags); opts.reuseSoPath is
     * ignored. Throws what CompiledArtifact's constructor throws
     * (e.g. no host compiler, generated code fails to compile) — the
     * error is rethrown to every waiter of the key, and the key is
     * cleared so a later call may retry.
     */
    std::shared_ptr<const CompiledArtifact> get(
        const ElabProgram &prog, const GenccOptions &opts = {});

    CompileCacheStats stats() const;

    /**
     * Publish stats() into @p reg under the stable names
     * `serve.cache.compiles/hits` (counters) and
     * `serve.cache.hit_ratio` (gauge: fraction of artifact
     * acquisitions that avoided the host compiler). The one place the
     * CompileCacheStats field list meets the registry.
     */
    void snapshotMetrics(obs::MetricsRegistry &reg) const;

  private:
    using Key = std::tuple<std::uint64_t, CppGenMode, std::string>;
    using ArtifactFuture =
        std::shared_future<std::shared_ptr<const CompiledArtifact>>;

    mutable std::mutex mu_;
    std::map<Key, ArtifactFuture> entries_;
    CompileCacheStats stats_;
};

} // namespace serve
} // namespace bcl

#endif // BCL_SERVE_COMPILE_CACHE_HPP
