/**
 * @file
 * Property tests of runtime/gen_support.hpp — the library the
 * generated C++ links against. Two families:
 *
 *   1. Shadow/commit/rollback (the §6.1 change-log discipline):
 *      randomized operation sequences against gen::Reg / gen::Fifo /
 *      gen::Bram / gen::Device, mirrored into naive reference models;
 *      every transaction either commits (states equal the mutated
 *      reference) or rolls back (states equal the pre-transaction
 *      snapshot), with guard failures never leaking partial state.
 *
 *   2. BitWriter/BitReader mirror the core BitSink/BitCursor word
 *      layout bit for bit — the invariant the marshaled C ABI stands
 *      on (host packs with one, shared object unpacks with the
 *      other).
 *
 * All randomness is seeded through common/rng.hpp, so failures
 * reproduce exactly.
 */
#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/value.hpp"
#include "runtime/gen_support.hpp"

namespace bcl {
namespace {

constexpr int kIterations = 1000;

TEST(GenSupportProperty, RegShadowCommitRollback)
{
    Rng rng(0xC0FFEEu);
    gen::Reg<std::int32_t> reg{17};
    std::int32_t model = 17;

    for (int iter = 0; iter < kIterations; iter++) {
        auto shadow = reg.shadow();
        std::int32_t before = model;
        int ops = static_cast<int>(rng.below(4)) + 1;
        for (int i = 0; i < ops; i++) {
            auto v = static_cast<std::int32_t>(
                rng.range(-100000, 100000));
            reg.write(v);
            model = v;
            ASSERT_EQ(reg.read(), model);
        }
        if (rng.chance(0.4)) {
            reg.rollback(shadow);
            model = before;
        }
        ASSERT_EQ(reg.read(), model);
    }
}

/** Fifo contents as a vector, for comparison with the models. */
template <typename T>
std::vector<T>
asVector(const std::deque<T> &q)
{
    return std::vector<T>(q.begin(), q.end());
}

TEST(GenSupportProperty, FifoShadowCommitRollbackAndGuards)
{
    // Capacities 1 and 2 wrap the ring on almost every operation.
    for (const int cap : {1, 2, 4}) {
        SCOPED_TRACE("capacity " + std::to_string(cap));
        Rng rng(0xF1F0u + static_cast<std::uint64_t>(cap));
        gen::Fifo<std::int32_t> fifo{cap};
        std::deque<std::int32_t> model;

        for (int iter = 0; iter < kIterations; iter++) {
            auto shadow = fifo.shadow();
            std::deque<std::int32_t> before = model;
            int ops = static_cast<int>(rng.below(5)) + 1;
            for (int i = 0; i < ops; i++) {
                ASSERT_EQ(fifo.canEnq(),
                          static_cast<int>(model.size()) < cap);
                ASSERT_EQ(fifo.canDeq(), !model.empty());
                ASSERT_EQ(fifo.notEmpty(), !model.empty());
                ASSERT_EQ(fifo.notFull(),
                          static_cast<int>(model.size()) < cap);
                switch (rng.below(3)) {
                  case 0: {
                    auto v = static_cast<std::int32_t>(
                        rng.range(-1000, 1000));
                    if (static_cast<int>(model.size()) < cap) {
                        fifo.enq(v);
                        model.push_back(v);
                    } else {
                        // Full: enq must throw and change nothing.
                        EXPECT_THROW(fifo.enq(v), gen::GuardFail);
                    }
                    break;
                  }
                  case 1:
                    if (!model.empty()) {
                        ASSERT_EQ(fifo.first(), model.front());
                        fifo.deq();
                        model.pop_front();
                    } else {
                        EXPECT_THROW({ fifo.first(); }, gen::GuardFail);
                        EXPECT_THROW(fifo.deq(), gen::GuardFail);
                    }
                    break;
                  case 2:
                    if (!model.empty()) {
                        ASSERT_EQ(fifo.first(), model.front());
                    }
                    break;
                }
            }
            if (rng.chance(0.4)) {
                fifo.rollback(shadow);
                model = before;
            }
            ASSERT_EQ(fifo.size(), model.size());
            ASSERT_EQ(fifo.contents(), asVector(model));
        }
    }

    // A shadow taken before the ring wraps, rolled back after the
    // transaction dequeued and re-filled the slots the shadow still
    // names: the rollback must restore the old values, not the new.
    gen::Fifo<std::int32_t> fifo{3};
    fifo.enq(1);
    fifo.enq(2);
    fifo.deq();
    fifo.enq(3);  // head at slot 1: live {2, 3}, tail at slot 0
    auto shadow = fifo.shadow();
    fifo.deq();
    fifo.deq();
    fifo.enq(4);  // slot 0
    fifo.enq(5);  // slot 1, where 2 lived
    fifo.enq(6);  // slot 2, where 3 lived
    EXPECT_EQ(fifo.contents(), (std::vector<std::int32_t>{4, 5, 6}));
    fifo.rollback(shadow);
    EXPECT_EQ(fifo.contents(), (std::vector<std::int32_t>{2, 3}));
    EXPECT_EQ(fifo.first(), 2);
    fifo.enq(7);
    EXPECT_FALSE(fifo.canEnq());
    EXPECT_EQ(fifo.contents(), (std::vector<std::int32_t>{2, 3, 7}));
}

/** Reserved slots (the host's SyncTx backlog) count toward the
 *  enqueue guards only, and no rollback touches them. */
TEST(GenSupportProperty, FifoReservedSlotsGateEnqueue)
{
    gen::Fifo<std::int32_t> fifo{3};
    fifo.reserve(2);
    EXPECT_TRUE(fifo.canEnq());
    EXPECT_TRUE(fifo.notFull());
    EXPECT_FALSE(fifo.notEmpty()) << "reserved slots hold no element";

    auto shadow = fifo.shadow();
    fifo.enq(1);  // count 1 + reserved 2 == capacity
    EXPECT_FALSE(fifo.canEnq());
    EXPECT_FALSE(fifo.notFull());
    EXPECT_THROW(fifo.enq(2), gen::GuardFail);
    EXPECT_EQ(fifo.contents(), (std::vector<std::int32_t>{1}));

    // Rollback restores the elements and keeps the reservation: one
    // slot stays free.
    fifo.rollback(shadow);
    EXPECT_EQ(fifo.size(), 0u);
    fifo.enq(7);
    EXPECT_FALSE(fifo.canEnq());
    fifo.deq();

    fifo.reserve(3);
    EXPECT_FALSE(fifo.canEnq());
    EXPECT_THROW(fifo.enq(3), gen::GuardFail);

    fifo.reserve(0);
    for (std::int32_t v : {4, 5, 6})
        fifo.enq(v);
    EXPECT_FALSE(fifo.canEnq());
    EXPECT_EQ(fifo.contents(), (std::vector<std::int32_t>{4, 5, 6}));
    EXPECT_EQ(fifo.first(), 4);
}

TEST(GenSupportProperty, BramShadowCommitRollback)
{
    Rng rng(0xB4A8u);
    const int size = 16;
    gen::Bram<std::int32_t> bram{size};
    std::vector<std::int32_t> model(size, 0);

    for (int iter = 0; iter < kIterations; iter++) {
        auto shadow = bram.shadow();
        std::vector<std::int32_t> before = model;
        int ops = static_cast<int>(rng.below(6)) + 1;
        for (int i = 0; i < ops; i++) {
            auto addr =
                static_cast<std::uint32_t>(rng.below(size));
            if (rng.chance(0.5)) {
                auto v = static_cast<std::int32_t>(
                    rng.range(-1000, 1000));
                bram.write(addr, v);
                model[addr] = v;
            }
            ASSERT_EQ(bram.read(addr), model[addr]);
        }
        if (rng.chance(0.4)) {
            bram.rollback(shadow);
            model = before;
        }
        ASSERT_EQ(bram.shadow(), model);
    }
}

TEST(GenSupportProperty, BramInitListMatchesPaddedContents)
{
    gen::Bram<std::int32_t> bram{5, {7, 8, 9}};
    EXPECT_EQ(bram.read(0), 7);
    EXPECT_EQ(bram.read(2), 9);
    EXPECT_EQ(bram.read(3), 0);  // zero padded to size
    EXPECT_EQ(bram.read(4), 0);
}

TEST(GenSupportProperty, DeviceDrainPreservesOrderAndRollback)
{
    Rng rng(0xDE11CEu);
    gen::Device<std::int32_t> dev;
    std::deque<std::int32_t> model;

    for (int iter = 0; iter < kIterations; iter++) {
        auto shadow = dev.shadow();
        std::deque<std::int32_t> before = model;
        int ops = static_cast<int>(rng.below(4)) + 1;
        for (int i = 0; i < ops; i++) {
            auto v =
                static_cast<std::int32_t>(rng.range(-1000, 1000));
            dev.output(v);
            model.push_back(v);
        }
        if (rng.chance(0.3)) {
            dev.rollback(shadow);
            model = before;
        }
        // Harness-side drain (outside any transaction).
        while (rng.chance(0.5) && !model.empty()) {
            ASSERT_FALSE(dev.empty());
            ASSERT_EQ(dev.front(), model.front());
            dev.popFront();
            model.pop_front();
        }
        ASSERT_EQ(dev.contents(), asVector(model));
    }
}

/** Random bit-field streams: BitWriter must produce BitSink's words,
 *  and BitReader must read back exactly what either wrote. */
TEST(GenSupportProperty, BitWriterMirrorsBitSinkBitForBit)
{
    Rng rng(0xB175u);
    for (int iter = 0; iter < kIterations; iter++) {
        int nfields = static_cast<int>(rng.below(12)) + 1;
        std::vector<std::pair<std::uint64_t, int>> fields;
        size_t total_bits = 0;
        for (int i = 0; i < nfields; i++) {
            int nbits = static_cast<int>(rng.below(64)) + 1;
            fields.emplace_back(rng.next(), nbits);
            total_bits += static_cast<size_t>(nbits);
        }
        int nwords = static_cast<int>((total_bits + 31) / 32);

        BitSink sink;
        for (auto [raw, nbits] : fields)
            sink.put(raw, nbits);
        std::vector<std::uint32_t> expect = sink.takeWords();

        std::vector<std::uint32_t> got(
            static_cast<size_t>(nwords), 0xdeadbeef);
        gen::BitWriter writer(got.data(), nwords);
        for (auto [raw, nbits] : fields)
            writer.put(raw, nbits);
        ASSERT_EQ(got, expect);

        gen::BitReader reader(got.data(), nwords);
        for (auto [raw, nbits] : fields) {
            std::uint64_t mask = nbits >= 64
                                     ? ~0ull
                                     : (1ull << nbits) - 1;
            ASSERT_EQ(reader.take(nbits), raw & mask);
        }
    }
}

TEST(GenSupportProperty, SignExtendMatchesCoreSemantics)
{
    Rng rng(0x51E4u);
    for (int iter = 0; iter < kIterations; iter++) {
        int width = static_cast<int>(rng.below(64)) + 1;
        std::uint64_t raw = rng.next();
        Value v = Value::makeBits(width, raw);
        ASSERT_EQ(gen::sign_extend(raw, width), v.asInt())
            << "width " << width << " raw " << raw;
    }
}

} // namespace
} // namespace bcl
