#include "serve/compile_cache.hpp"

#include "obs/trace.hpp"

namespace bcl {
namespace serve {

std::shared_ptr<const CompiledArtifact>
CompileCache::get(const ElabProgram &prog, const GenccOptions &opts)
{
    const Key key{programIdentity(prog), opts.mode, opts.extraFlags};

    std::promise<std::shared_ptr<const CompiledArtifact>> promise;
    ArtifactFuture future;
    bool builder = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = entries_.find(key);
        if (it == entries_.end()) {
            future = promise.get_future().share();
            entries_.emplace(key, future);
            builder = true;
        } else {
            future = it->second;
            stats_.hits++;
        }
    }

    if (builder) {
        obs::trace().instant("cache.compile", "serve.cache");
        try {
            GenccOptions build = opts;
            build.reuseSoPath.clear();
            auto art = std::make_shared<const CompiledArtifact>(
                prog, std::move(build));
            {
                std::lock_guard<std::mutex> lock(mu_);
                stats_.compiles++;
            }
            promise.set_value(std::move(art));
        } catch (...) {
            // Propagate to every waiter, then clear the key so a
            // later call can retry (e.g. compiler installed, disk
            // freed).
            promise.set_exception(std::current_exception());
            std::lock_guard<std::mutex> lock(mu_);
            entries_.erase(key);
        }
    } else {
        obs::trace().instant("cache.hit", "serve.cache");
    }
    return future.get();
}

CompileCacheStats
CompileCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

void
CompileCache::snapshotMetrics(obs::MetricsRegistry &reg) const
{
    const CompileCacheStats s = stats();
    reg.counter("serve.cache.compiles").set(s.compiles);
    reg.counter("serve.cache.hits").set(s.hits);
    const std::uint64_t total = s.hits + s.compiles;
    reg.gauge("serve.cache.hit_ratio")
        .set(total > 0 ? static_cast<double>(s.hits) /
                             static_cast<double>(total)
                       : 0.0);
}

} // namespace serve
} // namespace bcl
