#include "runtime/gencc.hpp"

#include <dlfcn.h>
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/logging.hpp"
#include "core/typecheck.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace bcl {

namespace {

/** @p s split on whitespace (no shell quoting). */
std::vector<std::string>
splitWords(const std::string &s)
{
    std::istringstream in(s);
    std::vector<std::string> out;
    for (std::string word; in >> word;)
        out.push_back(word);
    return out;
}

/** The compiler the harness invokes ($CXX split on whitespace, or
 *  c++). */
std::vector<std::string>
compilerArgv()
{
    const char *cxx = std::getenv("CXX");
    std::vector<std::string> argv = splitWords(cxx ? cxx : "");
    if (argv.empty())
        argv.push_back("c++");
    return argv;
}

std::string
commandLine(const std::vector<std::string> &argv)
{
    std::string out;
    for (const std::string &a : argv)
        out += (out.empty() ? "" : " ") + a;
    return out;
}

/**
 * Run @p argv (argv[0] searched on PATH) with stdout and stderr
 * written to @p log, truncated first unless @p append, and wait for
 * it. Spawned and reaped by pid, so concurrent calls from several
 * threads, and children other code forked, do not interfere.
 * @return the exit status, or -1 when it did not start or was killed.
 */
int
runProcess(const std::vector<std::string> &argv, const std::string &log,
           bool append = false)
{
    std::vector<char *> args;
    for (const std::string &a : argv)
        args.push_back(const_cast<char *>(a.c_str()));
    args.push_back(nullptr);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(
        &fa, STDERR_FILENO, log.c_str(),
        O_WRONLY | O_CREAT | (append ? O_APPEND : O_TRUNC), 0644);
    posix_spawn_file_actions_adddup2(&fa, STDERR_FILENO, STDOUT_FILENO);
    pid_t pid = -1;
    int rc = posix_spawnp(&pid, args[0], &fa, nullptr, args.data(),
                          environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0)
        return -1;
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0) {
        if (errno != EINTR)
            return -1;
    }
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/** Include root holding runtime/gen_support.hpp. */
std::string
defaultIncludeDir()
{
#ifdef BCL_GENCC_INCLUDE_DIR
    return BCL_GENCC_INCLUDE_DIR;
#else
    return "";
#endif
}

std::string
makeWorkDir()
{
    const char *tmp = std::getenv("TMPDIR");
    std::string tmpl = std::string(tmp && *tmp ? tmp : "/tmp") +
                       "/bcl_gencc_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    if (!mkdtemp(buf.data()))
        fatal("gencc: cannot create scratch directory " + tmpl);
    return std::string(buf.data());
}

/**
 * Unique per-artifact file stem: pid + process-wide counter. Two
 * concurrent compiles of different partitions may legitimately share
 * a caller-provided workDir (the CompileCache does exactly that), so
 * emitted names must never collide — neither within this process
 * (counter) nor across processes pointed at the same directory
 * (pid).
 */
std::string
uniqueStem()
{
    static std::atomic<std::uint64_t> counter{0};
    return "partition_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter.fetch_add(1));
}

std::string
readAll(const std::string &path, size_t limit = 4000)
{
    std::ifstream in(path);
    std::string line, all;
    while (std::getline(in, line)) {
        all += line + "\n";
        if (all.size() > limit)
            break;
    }
    return all.substr(0, limit);
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path);
    out << text;
    if (!out)
        fatal("gencc: cannot write " + path);
}

/** Fewest bytes of definitions worth a shard of their own: each
 *  shard also parses the prelude and gen_support.hpp, which costs
 *  about as much as compiling this much generated code. */
constexpr std::size_t kMinShardBytes = 16 * 1024;

/** Cores the host build may keep busy (at least 1). */
unsigned
hostCores()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

/** One host-compiler process of a build. */
struct CompileJob
{
    std::string src, out, log;
    std::vector<std::string> argv;
    std::int64_t bytes = 0;
    int status = -1;

    /** Compile; runs on its own thread, so nothing may escape. */
    void
    run()
    {
        obs::TraceSpan span("gencc.shard", "gencc", true, "source_bytes",
                            bytes);
        try {
            status = runProcess(argv, log);
        } catch (...) {
            status = -1;
        }
    }
};

/** Link the objects of @p jobs into @p so: @p log gets the shard
 *  logs, then the linker's own output. */
void
linkShards(const std::vector<CompileJob> &jobs,
           const std::vector<std::string> &cc,
           const std::vector<std::string> &extra, const std::string &so,
           const std::string &log)
{
    std::string shardLogs;
    for (const CompileJob &j : jobs)
        shardLogs += readAll(j.log, std::string::npos);
    writeFile(log, shardLogs);
    std::vector<std::string> argv = cc;
    argv.push_back("-shared");
    argv.insert(argv.end(), extra.begin(), extra.end());
    for (const CompileJob &j : jobs)
        argv.push_back(j.out);
    argv.insert(argv.end(), {"-o", so});
    int status = -1;
    {
        obs::TraceSpan span("gencc.link", "gencc", true, "shards",
                            static_cast<std::int64_t>(jobs.size()));
        status = runProcess(argv, log, true);
    }
    if (status != 0) {
        fatal("gencc: linking the generated partition failed:\n" +
              readAll(log) + "\n(command: " + commandLine(argv) + ")");
    }
}

} // namespace

// ---------------------------------------------------------------------------
// Sharded host build
// ---------------------------------------------------------------------------

std::vector<std::vector<std::size_t>>
planShards(const CppUnits &units, unsigned max_shards)
{
    std::size_t total = 0;
    for (const std::string &u : units.units)
        total += u.size();
    const std::size_t n = std::max<std::size_t>(
        1, std::min({static_cast<std::size_t>(max_shards),
                     units.units.size(), total / kMinShardBytes}));

    // Largest unit first onto the least-loaded shard (LPT).
    std::vector<std::size_t> order(units.units.size());
    for (std::size_t i = 0; i < order.size(); i++)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return units.units[a].size() >
                                units.units[b].size();
                     });
    std::vector<std::vector<std::size_t>> plan(n);
    std::vector<std::size_t> load(n, 0);
    for (std::size_t i : order) {
        const std::size_t s = static_cast<std::size_t>(
            std::min_element(load.begin(), load.end()) - load.begin());
        plan[s].push_back(i);
        load[s] += units.units[i].size();
    }
    for (auto &shard : plan)
        std::sort(shard.begin(), shard.end());
    return plan;
}

void
compileSharedObject(const CppUnits &units,
                    const std::vector<std::vector<std::size_t>> &plan,
                    const std::string &stem,
                    const std::string &include_dir,
                    const std::string &extra_flags)
{
    const std::string inc =
        include_dir.empty() ? defaultIncludeDir() : include_dir;
    if (inc.empty())
        fatal("gencc: include directory for runtime/gen_support.hpp "
              "unknown; set GenccOptions::includeDir");
    if (plan.empty())
        panic("gencc: empty shard plan");
    const std::string so = stem + ".so";
    const std::string log = stem + ".log";
    const std::string full = units.str();
    writeFile(stem + ".cpp", full);

    // -O2: the whole point is native-speed execution; the §6.3
    // strategies differ in what they make the optimizer's job easy
    // on. No shell is involved, so paths need no quoting.
    std::vector<std::string> cc = compilerArgv();
    for (const char *f : {"-std=c++20", "-O2", "-fPIC"})
        cc.push_back(f);
    const std::vector<std::string> extra = splitWords(extra_flags);
    auto compileArgv = [&](const char *mode, const CompileJob &j) {
        std::vector<std::string> argv = cc;
        argv.push_back(mode);
        argv.push_back("-I" + inc);
        argv.insert(argv.end(), extra.begin(), extra.end());
        argv.insert(argv.end(), {j.src, "-o", j.out});
        return argv;
    };

    // One shard: the whole source straight to the shared object.
    std::vector<CompileJob> jobs(plan.size());
    std::vector<std::string> sources(plan.size());
    if (plan.size() == 1) {
        jobs[0] = {stem + ".cpp", so, log, {},
                   static_cast<std::int64_t>(full.size())};
        jobs[0].argv = compileArgv("-shared", jobs[0]);
    } else {
        for (std::size_t i = 0; i < plan.size(); i++) {
            const std::string base = stem + ".s" + std::to_string(i);
            sources[i] = units.prelude;
            for (std::size_t u : plan[i])
                sources[i] += "\n" + units.units[u];
            jobs[i] = {base + ".cpp", base + ".o", base + ".log", {},
                       static_cast<std::int64_t>(sources[i].size())};
            jobs[i].argv = compileArgv("-c", jobs[i]);
        }
    }
    auto removeShards = [&] {
        if (jobs.size() == 1)
            return;
        std::error_code ec;
        for (const CompileJob &j : jobs) {
            for (const std::string *f : {&j.src, &j.out, &j.log})
                std::filesystem::remove(*f, ec);
        }
    };

    try {
        if (jobs.size() == 1) {
            jobs[0].run();
        } else {
            for (std::size_t i = 0; i < jobs.size(); i++)
                writeFile(jobs[i].src, sources[i]);
            std::vector<std::thread> workers;
            try {
                for (CompileJob &j : jobs)
                    workers.emplace_back(&CompileJob::run, &j);
            } catch (...) {
                for (std::thread &t : workers)
                    t.join();
                throw;
            }
            for (std::thread &t : workers)
                t.join();
        }
        for (std::size_t i = 0; i < jobs.size(); i++) {
            if (jobs[i].status == 0)
                continue;
            std::string msg =
                "gencc: generated partition failed to compile";
            if (jobs.size() > 1) {
                msg += " (shard " + std::to_string(i) + " of " +
                       std::to_string(jobs.size()) + ")";
            }
            fatal(msg + ":\n" + readAll(jobs[i].log) +
                  "\n(command: " + commandLine(jobs[i].argv) + ")");
        }
        if (jobs.size() > 1)
            linkShards(jobs, cc, extra, so, log);
    } catch (...) {
        removeShards();
        throw;
    }
    removeShards();
}

// ---------------------------------------------------------------------------
// CompiledArtifact — the compile/dlopen half, shared across instances
// ---------------------------------------------------------------------------

bool
CompiledArtifact::hostCompilerAvailable()
{
    static const bool available = [] {
        std::vector<std::string> argv = compilerArgv();
        argv.push_back("--version");
        return runProcess(argv, "/dev/null") == 0;
    }();
    return available;
}

CompiledArtifact::CompiledArtifact(const ElabProgram &prog,
                                   GenccOptions opts)
    : prog_(prog), opts_(std::move(opts))
{
    if (!opts_.reuseSoPath.empty()) {
        // Adopt an existing shared object (CompileCache disk hit).
        // No files are emitted, so destruction removes nothing.
        dir_ = std::filesystem::path(opts_.reuseSoPath)
                   .parent_path()
                   .string();
        load(opts_.reuseSoPath);
        return;
    }
    if (!hostCompilerAvailable())
        fatal("gencc: no host C++ compiler ('" +
              commandLine(compilerArgv()) +
              "') — guard call sites with hostCompilerAvailable()");

    const CppUnits units =
        generateCppUnits(prog_, "BclGenPartition", opts_.mode);
    source_ = units.str();
    ownDir_ = opts_.workDir.empty();
    dir_ = ownDir_ ? makeWorkDir() : opts_.workDir;
    const std::string stem =
        dir_ + "/" +
        (opts_.fileStem.empty() ? uniqueStem() : opts_.fileStem);
    files_ = {stem + ".cpp", stem + ".so", stem + ".log"};
    try {
        std::filesystem::create_directories(dir_);
        const auto plan = planShards(units, hostCores());
        // Host-compiler invocations dominate cold-start serving
        // latency; the span + histogram make them visible next to
        // the cache hits they should be. One span and one count per
        // artifact, however many shards it compiles as.
        obs::TraceSpan span("gencc.compile", "gencc", true, "shards",
                            static_cast<std::int64_t>(plan.size()));
        auto t0 = std::chrono::steady_clock::now();
        compileSharedObject(units, plan, stem, opts_.includeDir,
                            opts_.extraFlags);
        obs::metrics().counter("gencc.compiles").add(1);
        obs::metrics()
            .histogram("gencc.compile_ms",
                       obs::Histogram::exponentialBounds(1.0, 2.0, 16))
            .observe(std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count());
        load(files_[1]);
    } catch (...) {
        // The destructor will not run: clean up here.
        removeEmitted();
        throw;
    }
}

void
CompiledArtifact::load(const std::string &so_path)
{
    so_ = so_path;
    dl_ = dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (!dl_)
        fatal(std::string("gencc: dlopen failed: ") + dlerror());
    try {
        resolveAbi();
    } catch (...) {
        dlclose(dl_);
        dl_ = nullptr;
        throw;
    }
}

void
CompiledArtifact::resolveAbi()
{
    auto resolve = [&](const char *name) -> void * {
        void *sym = dlsym(dl_, name);
        if (!sym)
            fatal(std::string("gencc: generated object lacks symbol ") +
                  name);
        return sym;
    };
    auto *fnAbi = reinterpret_cast<int (*)()>(
        resolve("bcl_gen_abi_version"));
    if (fnAbi() != kCppGenAbiVersion) {
        fatal("gencc: ABI version mismatch: harness " +
              std::to_string(kCppGenAbiVersion) + ", generated " +
              std::to_string(fnAbi()));
    }
    fnCreate_ =
        reinterpret_cast<void *(*)()>(resolve("bcl_gen_create"));
    fnDestroy_ = reinterpret_cast<void (*)(void *)>(
        resolve("bcl_gen_destroy"));
    fnRun_ = reinterpret_cast<std::uint64_t (*)(void *)>(
        resolve("bcl_gen_run"));
    fnStat_ = reinterpret_cast<std::uint64_t (*)(void *, int)>(
        resolve("bcl_gen_stat"));
    fnPush_ = reinterpret_cast<int (*)(void *, int,
                                       const std::uint32_t *, int)>(
        resolve("bcl_gen_prim_push"));
    fnPop_ =
        reinterpret_cast<int (*)(void *, int, std::uint32_t *, int)>(
            resolve("bcl_gen_prim_pop"));
    fnSize_ = reinterpret_cast<int (*)(void *, int)>(
        resolve("bcl_gen_prim_size"));
    fnReserve_ = reinterpret_cast<int (*)(void *, int, int)>(
        resolve("bcl_gen_prim_reserve"));
    fnDevPop_ =
        reinterpret_cast<int (*)(void *, int, std::uint32_t *, int)>(
            resolve("bcl_gen_dev_pop"));
    fnCall_ = reinterpret_cast<int (*)(void *, int,
                                       const std::uint32_t *, int)>(
        resolve("bcl_gen_call_action"));
    fnWords_ =
        reinterpret_cast<int (*)(int)>(resolve("bcl_gen_payload_words"));
    fnHwValid_ =
        reinterpret_cast<int (*)()>(resolve("bcl_gen_hw_valid"));
    fnHwCycle_ = reinterpret_cast<int (*)(void *)>(
        resolve("bcl_gen_hw_cycle"));
    fnHwStats_ =
        reinterpret_cast<std::uint64_t (*)(void *, int, int)>(
            resolve("bcl_gen_hw_stats"));

    // Layout cross-check: the word count the generated side derived
    // for every ABI-visible primitive must match the host's own
    // derivation from the same Type — any drift here would corrupt
    // every message silently. On a reused .so this doubles as the
    // cache-integrity check: a stale object for a different program
    // fatals here instead of aliasing.
    payloads_.assign(prog_.prims.size(), {});
    for (const auto &prim : prog_.prims) {
        PayloadLayout &slot = payloads_[static_cast<size_t>(prim.id)];
        if (prim.kind == "Fifo" || prim.kind == "Sync" ||
            prim.kind == "SyncTx" || prim.kind == "SyncRx") {
            slot.type = prim.type;
        } else if (prim.kind == "AudioDev") {
            slot.type = devicePayloadType(prog_, prim.id);
            slot.device = true;
        } else {
            continue;
        }
        slot.words = (slot.type->flatWidth() + 31) / 32;
        maxPayloadWords_ = std::max(maxPayloadWords_,
                                    static_cast<size_t>(slot.words));
        int gen_words = fnWords_(prim.id);
        if (gen_words != slot.words) {
            fatal("gencc: marshaled layout mismatch on " + prim.path +
                  ": generated side expects " +
                  std::to_string(gen_words) + " words, host " +
                  std::to_string(slot.words));
        }
    }
}

CompiledArtifact::~CompiledArtifact()
{
    if (dl_)
        dlclose(dl_);
    removeEmitted();
}

void
CompiledArtifact::removeEmitted()
{
    if (opts_.keepArtifacts)
        return;
    std::error_code ec;
    if (ownDir_) {
        if (!dir_.empty())
            std::filesystem::remove_all(dir_, ec);
    } else {
        // Caller-provided (possibly shared) directory: remove only
        // the files this artifact emitted, never the directory or a
        // sibling compile's output.
        for (const std::string &f : files_)
            std::filesystem::remove(f, ec);
    }
}

// ---------------------------------------------------------------------------
// CompiledPartition — one live instance, thread-confined
// ---------------------------------------------------------------------------

CompiledPartition::CompiledPartition(const ElabProgram &prog,
                                     GenccOptions opts)
    : CompiledPartition(std::make_shared<const CompiledArtifact>(
          prog, std::move(opts)))
{
}

CompiledPartition::CompiledPartition(
    std::shared_ptr<const CompiledArtifact> artifact)
    : artifact_(std::move(artifact))
{
    if (!artifact_)
        fatal("gencc: CompiledPartition needs a non-null artifact");
    scratch_.resize(artifact_->maxPayloadWords_);
    inst_ = artifact_->fnCreate_();
    if (!inst_)
        fatal("gencc: bcl_gen_create returned null");
}

CompiledPartition::~CompiledPartition()
{
    if (inst_)
        artifact_->fnDestroy_(inst_);
}

void
CompiledPartition::checkThread(const char *op)
{
    const std::thread::id cur = std::this_thread::get_id();
    std::thread::id expect{};
    // Unbound -> bind to the calling thread; already-bound -> must
    // match. The CAS only ever installs over the unbound id, so the
    // bound owner is stable until rebindThread().
    if (owner_.compare_exchange_strong(expect, cur,
                                       std::memory_order_acq_rel))
        return;
    if (expect != cur) {
        panic(std::string("gencc: ") + op +
              " called from a second thread while the partition "
              "instance is bound to another (compiled instances are "
              "thread-confined; rebindThread() moves ownership at a "
              "synchronization point)");
    }
}

void
CompiledPartition::rebindThread()
{
    owner_.store(std::thread::id{}, std::memory_order_release);
}

std::uint64_t
CompiledPartition::runToQuiescence()
{
    checkThread("runToQuiescence");
    return artifact_->fnRun_(inst_);
}

std::uint64_t
CompiledPartition::rulesFired() const
{
    return artifact_->fnStat_(inst_, 0);
}

std::uint64_t
CompiledPartition::rulesAttempted() const
{
    return artifact_->fnStat_(inst_, 1);
}

const CompiledArtifact::PayloadLayout &
CompiledPartition::layout(int prim_id, bool device) const
{
    const auto &payloads = artifact_->payloads_;
    if (prim_id < 0 || static_cast<size_t>(prim_id) >= payloads.size() ||
        !payloads[static_cast<size_t>(prim_id)].type ||
        payloads[static_cast<size_t>(prim_id)].device != device) {
        panic(std::string("gencc: ") + (device ? "device" : "FIFO") +
              " access to prim " + std::to_string(prim_id) +
              " of another kind");
    }
    return payloads[static_cast<size_t>(prim_id)];
}

bool
CompiledPartition::pushPrim(int prim_id, const Value &v)
{
    checkThread("pushPrim");
    BitSink sink;
    v.packWords(sink);
    std::vector<std::uint32_t> words = sink.takeWords();
    int rc = artifact_->fnPush_(inst_, prim_id, words.data(),
                                static_cast<int>(words.size()));
    if (rc < 0) {
        panic("gencc: prim_push(" + std::to_string(prim_id) +
              ") rejected with " + std::to_string(rc) +
              " (id unknown or word count mismatch)");
    }
    marshaled_ += rc == 1;
    return rc == 1;
}

bool
CompiledPartition::popValue(int prim_id, bool device, Value &out)
{
    const CompiledArtifact::PayloadLayout &l = layout(prim_id, device);
    int rc = device ? artifact_->fnDevPop_(inst_, prim_id,
                                           scratch_.data(), l.words)
                    : artifact_->fnPop_(inst_, prim_id, scratch_.data(),
                                        l.words);
    if (rc < 0) {
        panic("gencc: pop(" + std::to_string(prim_id) +
              ") rejected with " + std::to_string(rc) +
              " (id unknown or word count mismatch)");
    }
    if (rc != 1)
        return false;
    marshaled_++;
    BitCursor cursor(scratch_.data(), static_cast<size_t>(l.words));
    out = l.type->unpackWords(cursor);
    return true;
}

bool
CompiledPartition::popPrim(int prim_id, Value &out)
{
    checkThread("popPrim");
    return popValue(prim_id, false, out);
}

bool
CompiledPartition::popDevice(int prim_id, Value &out)
{
    checkThread("popDevice");
    return popValue(prim_id, true, out);
}

std::size_t
CompiledPartition::primSize(int prim_id)
{
    checkThread("primSize");
    int n = artifact_->fnSize_(inst_, prim_id);
    if (n < 0)
        panic("gencc: prim_size(" + std::to_string(prim_id) +
              ") on an unknown FIFO");
    return static_cast<std::size_t>(n);
}

void
CompiledPartition::reservePrim(int prim_id, std::size_t n)
{
    checkThread("reservePrim");
    if (artifact_->fnReserve_(inst_, prim_id, static_cast<int>(n)) < 0)
        panic("gencc: prim_reserve(" + std::to_string(prim_id) +
              ") on an unknown FIFO");
}

bool
CompiledPartition::callActionMethod(int meth_id,
                                    const std::vector<Value> &args)
{
    checkThread("callActionMethod");
    // Per-argument marshaling, each argument starting on a word
    // boundary (the generated unpacker aligns between arguments).
    std::vector<std::uint32_t> words;
    for (const Value &a : args) {
        BitSink sink;
        a.packWords(sink);
        std::vector<std::uint32_t> part = sink.takeWords();
        words.insert(words.end(), part.begin(), part.end());
    }
    int rc = artifact_->fnCall_(inst_, meth_id, words.data(),
                                static_cast<int>(words.size()));
    if (rc < 0) {
        panic("gencc: call_action(" + std::to_string(meth_id) +
              ") rejected with " + std::to_string(rc) +
              " (id unknown or word count mismatch)");
    }
    return rc == 1;
}

} // namespace bcl
