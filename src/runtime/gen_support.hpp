/**
 * @file
 * Runtime support for *generated* C++ (what the paper calls "compiled,
 * along with some libraries, into an executable program"). The
 * generated translation units from codegen_cpp.hpp include only this
 * header. It provides:
 *
 *   - gen::Reg / gen::Fifo / gen::Bram / gen::Device: primitive state
 *     with the same guarded interfaces as the runtime primitives
 *     (vector-backed, so each element type instantiates little),
 *   - shadow copies with commit/rollback (the change-log discipline
 *     of section 6.1),
 *   - gen::GuardFail for the try/catch strategy of Figure 9,
 *   - gen::BitWriter / gen::BitReader: the canonical little-endian
 *     word-wise value layout (identical to core/value.hpp's
 *     BitSink/BitCursor), used by the generated C ABI to exchange
 *     marshaled messages with the host harness (runtime/gencc.hpp)
 *     without either side linking the other's value representation.
 *
 * Values in generated code are plain structs/arrays (the data-format
 * problem of section 2.3 is solved by generating both sides from one
 * Type), so everything here is a template over the value type.
 *
 * Contract: this header must stay self-contained (standard library
 * only) — generated translation units are compiled out of tree by the
 * gencc harness with only -I<src> on the command line.
 */
#ifndef BCL_RUNTIME_GEN_SUPPORT_HPP
#define BCL_RUNTIME_GEN_SUPPORT_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace bcl {
namespace gen {

/** Guard-failure unwind for the naive (Figure 9) strategy. */
struct GuardFail
{
};

/** A register with shadow/commit/rollback. */
template <typename T>
class Reg
{
  public:
    explicit Reg(T init = T{}) : value(init) {}

    const T &read() const { return value; }
    void write(const T &v) { value = v; }

    /** Snapshot for rollback. */
    T shadow() const { return value; }
    void rollback(const T &shadow) { value = shadow; }

  private:
    T value;
};

/**
 * A guarded FIFO with shadow/commit/rollback, stored as a ring of
 * fixed capacity (allocated once at construction). A shadow copies
 * the live elements only: a transaction that dequeues and then
 * enqueues reuses freed slots, so restoring head and count alone
 * would not restore the contents.
 *
 * Reserved slots count as occupied for the enqueue guards
 * (canEnq/notFull) but hold no element: the host sets them to the
 * undelivered backlog of a SyncTx mirror, so the producer feels
 * backpressure without the backlog crossing the ABI. Only the host
 * changes them (reserve), never a rule, so rollback leaves them be.
 */
template <typename T>
class Fifo
{
  public:
    explicit Fifo(int capacity)
        : ring(static_cast<std::size_t>(capacity > 0 ? capacity : 0))
    {
    }

    bool canEnq() const { return count + reserved < ring.size(); }
    bool canDeq() const { return count != 0; }
    bool notEmpty() const { return count != 0; }
    bool notFull() const { return canEnq(); }
    std::size_t size() const { return count; }

    void
    enq(const T &v)
    {
        if (!canEnq())
            throw GuardFail{};
        ring[wrap(head + count)] = v;
        count++;
    }

    const T &
    first() const
    {
        if (count == 0)
            throw GuardFail{};
        return ring[head];
    }

    void
    deq()
    {
        if (count == 0)
            throw GuardFail{};
        head = wrap(head + 1);
        count--;
    }

    void
    clear()
    {
        head = 0;
        count = 0;
    }

    /** Hold @p n slots as occupied; reserve(0) frees them all. */
    void reserve(std::size_t n) { reserved = n; }

    /** The live elements, oldest first. */
    std::vector<T>
    contents() const
    {
        std::vector<T> out;
        out.reserve(count);
        for (std::size_t i = 0; i < count; i++)
            out.push_back(ring[wrap(head + i)]);
        return out;
    }

    std::vector<T> shadow() const { return contents(); }

    void
    rollback(const std::vector<T> &shadow)
    {
        head = 0;
        count = shadow.size();
        for (std::size_t i = 0; i < count; i++)
            ring[i] = shadow[i];
    }

  private:
    /** @p i modulo the capacity, for i < 2 * capacity. */
    std::size_t
    wrap(std::size_t i) const
    {
        return i >= ring.size() ? i - ring.size() : i;
    }

    std::vector<T> ring;
    std::size_t head = 0;   ///< slot of the oldest element
    std::size_t count = 0;  ///< live elements
    std::size_t reserved = 0;  ///< slots held for the host (reserve)
};

/** An addressable memory. */
template <typename T>
class Bram
{
  public:
    explicit Bram(int size) : mem(static_cast<size_t>(size)) {}

    /** Pre-initialized memory (table ROMs); padded with T{} to
     *  @p size like the interpreter's zero fill. */
    Bram(int size, std::vector<T> init) : mem(std::move(init))
    {
        mem.resize(static_cast<size_t>(size));
    }

    const T &read(std::uint32_t addr) const { return mem.at(addr); }
    void write(std::uint32_t addr, const T &v) { mem.at(addr) = v; }

    std::vector<T> shadow() const { return mem; }
    void rollback(const std::vector<T> &shadow) { mem = shadow; }

  private:
    std::vector<T> mem;
};

/**
 * Output device sink (AudioDev / Bitmap stand-in). The host harness
 * drains outputs through the generated C ABI (popFront), so the log
 * is a queue, not an append-only vector; the cumulative output
 * history lives host-side (mirrored into the domain's Store). The
 * queue is a vector plus a read index, reset whenever it drains.
 */
template <typename T>
class Device
{
  public:
    void output(const T &v) { log.push_back(v); }
    bool empty() const { return head == log.size(); }

    /** Undrained outputs, oldest first. */
    std::vector<T>
    contents() const
    {
        return std::vector<T>(log.begin() +
                                  static_cast<std::ptrdiff_t>(head),
                              log.end());
    }

    /** Oldest undrained output (ABI pop; call only when !empty()). */
    const T &front() const { return log[head]; }

    void
    popFront()
    {
        if (++head == log.size()) {
            log.clear();
            head = 0;
        }
    }

    std::vector<T> shadow() const { return contents(); }

    void
    rollback(const std::vector<T> &shadow)
    {
        log = shadow;
        head = 0;
    }

  private:
    std::vector<T> log;
    std::size_t head = 0;  ///< index of the oldest undrained output
};

// ---------------------------------------------------------------------------
// Canonical word-wise value layout (mirror of core BitSink/BitCursor).
// ---------------------------------------------------------------------------

/** Sign-extend the low @p width bits of @p raw (width in [1,64]). */
inline std::int64_t
sign_extend(std::uint64_t raw, int width)
{
    if (width >= 64)
        return static_cast<std::int64_t>(raw);
    std::uint64_t sign = 1ull << (width - 1);
    std::uint64_t mask = (1ull << width) - 1;
    raw &= mask;
    return static_cast<std::int64_t>((raw ^ sign) - sign);
}

/**
 * Writes a little-endian bit stream into a caller-provided word
 * buffer (LSB of the first scalar is bit 0 of word 0) — the exact
 * layout of marshalValue(). The buffer is zeroed on construction;
 * writing past the end is silently dropped (the generated ABI checks
 * word counts before packing, so overflow indicates a harness bug,
 * not a data-dependent condition).
 */
class BitWriter
{
  public:
    BitWriter(std::uint32_t *words, int nwords)
        : words_(words), capBits_(static_cast<size_t>(nwords) * 32)
    {
        for (int i = 0; i < nwords; i++)
            words_[i] = 0;
    }

    /** Append the low @p nbits of @p raw (nbits in [1,64]). */
    void
    put(std::uint64_t raw, int nbits)
    {
        if (nbits <= 0 || nbits > 64 || bits_ + static_cast<size_t>(nbits) > capBits_)
            return;
        if (nbits < 64)
            raw &= (1ull << nbits) - 1;
        size_t word = bits_ / 32;
        int off = static_cast<int>(bits_ % 32);
        words_[word] |= static_cast<std::uint32_t>(raw << off);
        int taken = 32 - off;
        if (nbits > taken) {
            std::uint64_t rest = raw >> taken;
            words_[word + 1] |= static_cast<std::uint32_t>(rest);
            if (nbits > taken + 32)
                words_[word + 2] |=
                    static_cast<std::uint32_t>(rest >> 32);
        }
        bits_ += static_cast<size_t>(nbits);
    }

    /** Skip to the next 32-bit boundary (per-argument alignment). */
    void alignWord() { bits_ = (bits_ + 31) & ~static_cast<size_t>(31); }

    size_t bitCount() const { return bits_; }

  private:
    std::uint32_t *words_;
    size_t capBits_;
    size_t bits_ = 0;
};

/** Reads the BitWriter/BitSink layout back; inverse of BitWriter. */
class BitReader
{
  public:
    BitReader(const std::uint32_t *words, int nwords)
        : words_(words), capBits_(static_cast<size_t>(nwords) * 32)
    {
    }

    /** Consume @p nbits (in [1,64]); reads past the end yield 0. */
    std::uint64_t
    take(int nbits)
    {
        if (nbits <= 0 || nbits > 64 ||
            pos_ + static_cast<size_t>(nbits) > capBits_)
            return 0;
        size_t word = pos_ / 32;
        int off = static_cast<int>(pos_ % 32);
        std::uint64_t out = words_[word] >> off;
        int got = 32 - off;
        if (nbits > got) {
            out |= static_cast<std::uint64_t>(words_[word + 1]) << got;
            if (nbits > got + 32)
                out |= static_cast<std::uint64_t>(words_[word + 2])
                       << (got + 32);
        }
        if (nbits < 64)
            out &= (1ull << nbits) - 1;
        pos_ += static_cast<size_t>(nbits);
        return out;
    }

    /** Skip to the next 32-bit boundary (per-argument alignment). */
    void alignWord() { pos_ = (pos_ + 31) & ~static_cast<size_t>(31); }

    size_t bitPos() const { return pos_; }

  private:
    const std::uint32_t *words_;
    size_t capBits_;
    size_t pos_ = 0;
};

} // namespace gen
} // namespace bcl

#endif // BCL_RUNTIME_GEN_SUPPORT_HPP
