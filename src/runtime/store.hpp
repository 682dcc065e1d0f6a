/**
 * @file
 * Program state and the light-weight transactional views over it
 * (section 6.1/6.2 of the paper).
 *
 * All state of an elaborated program lives in a Store: one PrimState
 * per primitive instance. Rule execution runs against a TxnFrame - a
 * change-log shadow layered over the store (the paper's "persistent
 * shadow ... populated in a change-log manner"). Parallel action
 * branches and localGuard get nested frames; merging sibling frames
 * detects the DOUBLE WRITE ERROR of parallel composition.
 *
 * Contract: a Store is laid out from an ElabProgram (one PrimState
 * per prim, indexed by prim id) and never resizes afterwards. Until a
 * frame commits, the underlying store is unchanged — abandoning a
 * frame IS the rollback; there is no undo log to replay.
 */
#ifndef BCL_RUNTIME_STORE_HPP
#define BCL_RUNTIME_STORE_HPP

#include <cstdint>
#include <initializer_list>
#include <unordered_map>
#include <vector>

#include "common/logging.hpp"
#include "core/elaborate.hpp"
#include "core/value.hpp"

namespace bcl {

/**
 * FIFO of Values with an O(1) amortized front pop. A plain
 * std::vector popped with erase(begin()) makes draining a deep queue
 * O(n^2) (every pop slides the whole tail); this keeps a front index
 * instead and compacts lazily, so the channel transports and FIFO
 * primitives pop in O(1) while iteration, indexing and equality keep
 * their obvious vector semantics (logical contents only — the popped
 * prefix is invisible). Copying compacts: a snapshot never carries
 * the dead prefix.
 */
class ValueQueue
{
  public:
    ValueQueue() = default;
    ValueQueue(std::initializer_list<Value> init) : buf_(init) {}

    ValueQueue(const ValueQueue &o)
        : buf_(o.begin(), o.end())
    {
    }
    // Moves must reset the source's front index along with the
    // buffer, or the moved-from queue would report an underflowed
    // size (head_ past an empty buf_).
    ValueQueue(ValueQueue &&o) noexcept
        : buf_(std::move(o.buf_)), head_(o.head_)
    {
        o.buf_.clear();
        o.head_ = 0;
    }
    ValueQueue &
    operator=(const ValueQueue &o)
    {
        if (this != &o) {
            buf_.assign(o.begin(), o.end());
            head_ = 0;
        }
        return *this;
    }
    ValueQueue &
    operator=(ValueQueue &&o) noexcept
    {
        if (this != &o) {
            buf_ = std::move(o.buf_);
            head_ = o.head_;
            o.buf_.clear();
            o.head_ = 0;
        }
        return *this;
    }

    void
    push_back(Value v)
    {
        buf_.push_back(std::move(v));
    }

    const Value &front() const { return buf_[head_]; }

    /** Drop the front element; O(1) amortized. Panics when empty —
     *  over-popping would silently wrap size() otherwise. */
    void
    pop_front()
    {
        pop_front(1);
    }

    /** Drop the first @p n elements; O(n) in live elements at most.
     *  Panics when fewer than @p n are queued. */
    void
    pop_front(size_t n)
    {
        if (n > size())
            panic("ValueQueue: pop_front past end");
        head_ += n;
        maybeCompact();
    }

    size_t size() const { return buf_.size() - head_; }
    bool empty() const { return head_ == buf_.size(); }

    void
    clear()
    {
        buf_.clear();
        head_ = 0;
    }

    const Value &operator[](size_t i) const { return buf_[head_ + i]; }

    Value *begin() { return buf_.data() + head_; }
    Value *end() { return buf_.data() + buf_.size(); }
    const Value *begin() const { return buf_.data() + head_; }
    const Value *end() const { return buf_.data() + buf_.size(); }

    /** Logical-content equality (front index is representation). */
    bool
    operator==(const ValueQueue &o) const
    {
        if (size() != o.size())
            return false;
        for (size_t i = 0; i < size(); i++) {
            if (!((*this)[i] == o[i]))
                return false;
        }
        return true;
    }

  private:
    void
    maybeCompact()
    {
        if (head_ == buf_.size()) {
            buf_.clear();
            head_ = 0;
        } else if (head_ > 32 && head_ >= buf_.size() / 2) {
            buf_.erase(buf_.begin(),
                       buf_.begin() + static_cast<std::ptrdiff_t>(head_));
            head_ = 0;
        }
    }

    std::vector<Value> buf_;
    size_t head_ = 0;
};

/**
 * State of one primitive instance. Which fields are used depends on
 * the primitive kind:
 *   Reg:    val = current value
 *   Fifo:   queue = contents (front = head)
 *   Bram:   val = Vec of contents
 *   Sync*:  queue = contents
 *   AudioDev: queue = every sample written (the test-visible output)
 *   Bitmap: val = Vec of pixels
 * PrimState is a plain value: copying it is snapshotting it.
 */
struct PrimState
{
    Value val;
    ValueQueue queue;

    bool operator==(const PrimState &o) const = default;
};

/**
 * The committed state of a whole elaborated program.
 *
 * Every slot carries a write version, and a mutable at() IS a write:
 * it bumps the slot's version whether or not the caller then changes
 * anything. That is what lets Interp::fireRule skip re-evaluating a
 * failed rule whose inputs kept their versions, with every writer
 * (commits, channel deliveries, mirror syncs, drivers, tests) covered
 * by construction. The flip side: code that only reads must use the
 * const overload (std::as_const), or it invalidates those memos for
 * nothing. Versions are per Store and per slot, so stores of
 * different sessions never share a counter.
 */
class Store
{
  public:
    /** Build initial state for @p prog (all prims at reset values). */
    explicit Store(const ElabProgram &prog);

    Store(const Store &) = default;
    /** Wholesale replacement would bypass the per-slot versions an
     *  interpreter bound to this store relies on; write slots. */
    Store &operator=(const Store &) = delete;

    /** Writable slot @p id; bumps its version (see class comment). */
    PrimState &at(int id);
    const PrimState &at(int id) const;
    size_t size() const { return states.size(); }

    /** Write version of slot @p id (unchecked; @p id must be valid). */
    std::uint64_t
    version(int id) const
    {
        return versions[static_cast<size_t>(id)];
    }

  private:
    std::vector<PrimState> states;
    std::vector<std::uint64_t> versions;
};

/**
 * A change-log shadow over a Store (or over a parent frame). Reads
 * fall through to the nearest enclosing write; writes stay local until
 * commit(). Discarding the frame without committing is rollback - the
 * cost structure matches the generated-code runtime the paper
 * describes (commit routines at the end of the try block, rollback in
 * the catch block).
 */
class TxnFrame
{
  public:
    /**
     * Top-level frame over the committed store. With @p read_log, the
     * frame appends to it every prim id it reads from the store (each
     * once, in first-read order, through get() and getForWrite()'s
     * fall-through), reads by nested frames included.
     */
    explicit TxnFrame(Store &base, std::vector<int> *read_log = nullptr);

    /** Nested frame (parallel branch / localGuard body). */
    explicit TxnFrame(TxnFrame &parent);

    /** Read: nearest write in the frame chain, else committed state. */
    const PrimState &get(int id) const;

    /**
     * Writable shadow of @p id in THIS frame: copies the inherited
     * state into the change log on first touch, then hands back the
     * same entry. The caller mutates it directly (no second copy, no
     * put()). A guard failure after this leaves a clean shadow entry
     * behind, which is harmless: failure always propagates to a boundary
     * (rule / localGuard) that discards the whole frame.
     */
    PrimState &getForWrite(int id);

    /** Record a write of @p id (shadow state replaces prior view). */
    void put(int id, PrimState state);

    /** Was @p id written in this frame (not parents)? */
    bool touched(int id) const;

    /** Number of writes recorded in this frame. */
    size_t writeCount() const { return delta.size(); }

    /** Ids written in this frame. */
    std::vector<int> touchedIds() const;

    /** Merge this frame's writes into its parent (or the store). */
    void commit();

    /**
     * Merge parallel sibling frames into their common parent,
     * throwing DoubleWriteError when two siblings wrote the same
     * primitive. @p prims is used for error messages.
     */
    static void mergeSiblings(std::vector<TxnFrame *> &branches,
                              const std::vector<ElabPrim> &prims);

  private:
    Store *base = nullptr;
    TxnFrame *parent = nullptr;
    std::vector<int> *reads = nullptr;  ///< top-level frame only
    std::unordered_map<int, PrimState> delta;
};

} // namespace bcl

#endif // BCL_RUNTIME_STORE_HPP
