/**
 * @file
 * Reference interpreter for elaborated kernel BCL, implementing the
 * operational semantics of section 5:
 *
 *   - rules and action methods execute as transactions over a
 *     TxnFrame; a guard failure anywhere abandons the whole rule,
 *   - parallel composition runs branches against isolated sibling
 *     frames and merges them (DOUBLE WRITE ERROR on overlap),
 *   - sequential composition lets later actions observe earlier
 *     updates,
 *   - localGuard converts a guard failure of its body into noAction,
 *   - loop re-evaluates its condition against the current shadow.
 *
 * The interpreter doubles as the performance model for generated
 * software: it counts abstract RISC-op work per node, which the
 * benches convert into processor cycles (see CostModel).
 *
 * Execution runs over compiled bodies (runtime/compile.hpp): name
 * lookups, field names and primitive-method dispatch are resolved to
 * indices once per rule, not per evaluation. This is mechanism only —
 * modeled work units are charged exactly as the AST walk charged
 * them (see "Runtime data layout & cost-model invariance" in
 * docs/ARCHITECTURE.md and tests/test_work_accounting.cpp).
 *
 * Guard failure is a returned status, not an exception: every
 * evaluation step reports failure by returning false, and its caller
 * stops right there and returns false in turn, up to the enclosing
 * LocalGuard (which turns it into noAction) or to fireRule() /
 * callActionMethod() (which roll back). The modeled work of a failed
 * attempt is exactly the work of the nodes evaluated up to the
 * failing one. GuardFail is thrown only at the callValueMethod()
 * boundary, to report an unready value method to the caller.
 *
 * Failed rule attempts are memoised. Rules take no arguments, so a
 * failed evaluation is a deterministic function of the store slots it
 * read, the compiled bodies and the cost model. fireRule() records
 * the slots a failure read with their write versions (Store), plus
 * the exact ExecStats delta of that attempt; the next attempt whose
 * recorded versions all still match adds that delta and returns
 * false without evaluating. Modeled counters are therefore identical
 * to evaluating every attempt; only replayedAttempts() tells the two
 * apart. A fire, a replaced body or a cost-model change drops memos.
 *
 * Contract: fireRule() is atomic — it either commits the rule's
 * whole effect to the store and returns true, or changes nothing and
 * returns false (guard failure). This all-or-nothing property is
 * what every scheduler above (exec.hpp, clocksim.hpp, cosim.hpp)
 * assumes.
 */
#ifndef BCL_RUNTIME_INTERP_HPP
#define BCL_RUNTIME_INTERP_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/elaborate.hpp"
#include "runtime/store.hpp"

namespace bcl {

struct CompiledProgram;

/** Thrown by Interp::callValueMethod when the method is not ready;
 *  the interpreter itself propagates guard failure as a status. */
struct GuardFail
{
};

/**
 * Abstract work units charged per construct. Values approximate the
 * RISC instruction counts of the generated C++ the paper describes;
 * the calibration is recorded in docs/EXPERIMENTS.md.
 */
struct CostModel
{
    std::uint64_t perNode = 1;      ///< AST node dispatch
    std::uint64_t perArith = 1;     ///< simple ALU op
    std::uint64_t perMul = 3;       ///< multiply
    std::uint64_t perPrimCall = 2;  ///< primitive method call overhead
    std::uint64_t perWordMove = 1;  ///< copying one 32-bit word
    std::uint64_t perCommitEntry = 2;  ///< committing one shadow entry
    std::uint64_t perRollback = 4;  ///< fixed rollback cost
    std::uint64_t perTryCatch = 12; ///< try/catch rule overhead (naive
                                    ///< codegen; removed by inlining)
    /**
     * Software driver cost per synchronizer message (descriptor
     * setup + cache maintenance for non-coherent DMA on the PPC440).
     * Charged on SyncTx.enq / SyncRx.deq; see docs/EXPERIMENTS.md for the
     * calibration against the paper's communication costs.
     */
    std::uint64_t perSyncMessage = 1400;

    /**
     * Iteration budget for dynamic loops: a loop body may execute at
     * most this many times per rule firing before the interpreter
     * reports a runaway loop (FatalError). Not a work-unit cost —
     * exposed here so benches/tests can tighten it.
     */
    std::uint64_t loopIterBudget = 1u << 22;

    bool operator==(const CostModel &) const = default;
};

/** Execution counters. */
struct ExecStats
{
    std::uint64_t work = 0;          ///< total abstract work units
    std::uint64_t wastedWork = 0;    ///< work discarded by rollbacks
    std::uint64_t rulesAttempted = 0;
    std::uint64_t rulesFired = 0;
    std::uint64_t guardFails = 0;
    std::uint64_t commits = 0;
    std::uint64_t shadowCopies = 0;  ///< PrimState snapshots taken

    void
    clear()
    {
        *this = ExecStats{};
    }

    ExecStats &
    operator+=(const ExecStats &o)
    {
        work += o.work;
        wastedWork += o.wastedWork;
        rulesAttempted += o.rulesAttempted;
        rulesFired += o.rulesFired;
        guardFails += o.guardFails;
        commits += o.commits;
        shadowCopies += o.shadowCopies;
        return *this;
    }

    /** Field-wise difference; @p o must be an earlier snapshot. */
    ExecStats
    operator-(const ExecStats &o) const
    {
        ExecStats d;
        d.work = work - o.work;
        d.wastedWork = wastedWork - o.wastedWork;
        d.rulesAttempted = rulesAttempted - o.rulesAttempted;
        d.rulesFired = rulesFired - o.rulesFired;
        d.guardFails = guardFails - o.guardFails;
        d.commits = commits - o.commits;
        d.shadowCopies = shadowCopies - o.shadowCopies;
        return d;
    }

    bool operator==(const ExecStats &) const = default;
};

/** Interpreter over one elaborated program and its store. */
class Interp
{
  public:
    /**
     * @param prog Elaborated program (must outlive the interpreter).
     * @param store Committed state (must outlive the interpreter).
     */
    Interp(const ElabProgram &prog, Store &store);
    ~Interp();

    /**
     * Attempt rule @p rule_id as a transaction. A failure whose
     * inputs are unchanged since the rule last failed is replayed
     * from the memo (see the file comment).
     * @return true when the rule fired (committed); false on guard
     * failure (all effects rolled back).
     */
    bool fireRule(int rule_id);

    /**
     * Invoke a root-interface action method as a transaction (the
     * "software up the stack" entry point).
     * @return true when it committed.
     */
    bool callActionMethod(int meth_id, const std::vector<Value> &args);

    /**
     * Invoke a root-interface value method. Throws GuardFail if the
     * method is not ready.
     */
    Value callValueMethod(int meth_id, const std::vector<Value> &args);

    /** Work/pressure counters (shared across calls; clear() to reset). */
    ExecStats &stats() { return stats_; }
    const ExecStats &stats() const { return stats_; }

    /** The cost model (mutable for calibration). */
    CostModel &costs() { return costs_; }

    /** The program this interpreter runs. */
    const ElabProgram &program() const { return prog; }

    /** The committed store. */
    Store &store() { return store_; }
    const Store &store() const { return store_; }

    /** Failed rule attempts answered from the memo instead of being
     *  evaluated (a subset of stats().rulesAttempted; mechanism only,
     *  not cleared with stats()). */
    std::uint64_t replayedAttempts() const { return replayed_; }

  private:
    friend class InterpExec;

    /** What the last failed attempt of one rule read and charged. */
    struct FailMemo
    {
        std::vector<std::pair<int, std::uint64_t>> reads;  ///< id, version
        ExecStats charged;
        bool valid = false;
    };

    /** Drop every memo when a body was recompiled, the rule count
     *  changed or costs_ differs from what the memos were charged
     *  under. */
    void revalidateMemos();

    const ElabProgram &prog;
    Store &store_;
    ExecStats stats_;
    CostModel costs_;
    /** Lazily-built compiled rule/method bodies (see compile.hpp).
     *  Pure mechanism: does not affect modeled work. */
    std::unique_ptr<CompiledProgram> compiled_;

    std::vector<FailMemo> memos_;  ///< by rule id
    CostModel memoCosts_;          ///< costs_ the memos were charged under
    std::uint64_t memoGeneration_ = 0;  ///< compiled_->generation, likewise
    std::vector<int> readLog_;     ///< scratch: one attempt's reads
    std::uint64_t replayed_ = 0;
};

} // namespace bcl

#endif // BCL_RUNTIME_INTERP_HPP
