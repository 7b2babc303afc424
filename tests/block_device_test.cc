/**
 * @file
 * Integration tests for the BlockDevice facade: write, precise block
 * reads, range reads, updates (inline and overflow), and costs.
 * Inputs come from the shared tests/support fixtures.
 */

#include <gtest/gtest.h>

#include "core/block_device.h"
#include "support/fixtures.h"

namespace dnastore::core {
namespace {

BlockDeviceParams
smallParams()
{
    BlockDeviceParams params;
    params.reads_per_block_access = 900;
    params.coverage = 20.0;
    return params;
}

class BlockDeviceTest : public ::testing::Test
{
  protected:
    Bytes data_ = test::corpusBlocks(24, 123);
    BlockDevice device_{smallParams(), test::fwdPrimer(),
                        test::revPrimer(), 13};

    void SetUp() override { device_.writeFile(data_); }

    Bytes
    blockBytes(uint64_t block) const
    {
        return test::blockSlice(data_, block);
    }
};

TEST_F(BlockDeviceTest, WriteFilePopulatesPool)
{
    EXPECT_EQ(device_.blockCount(), 24u);
    EXPECT_EQ(device_.pool().speciesCount(), 24u * 15u);
    EXPECT_EQ(device_.costs().moleculesSynthesized(), 24u * 15u);
}

TEST_F(BlockDeviceTest, ReadBlockRoundTrip)
{
    for (uint64_t block : {0u, 11u, 23u}) {
        EXPECT_TRUE(
            test::blockMatches(device_.readBlock(block), data_, block));
    }
}

TEST_F(BlockDeviceTest, ReadBlockIsSelective)
{
    device_.readBlock(11);
    const DecodeStats &stats = device_.lastStats();
    // The reads should be overwhelmingly from the target block: the
    // decoder recovers its 15 strands from few clusters.
    EXPECT_GE(stats.units_decoded, 1u);
    EXPECT_LE(stats.units_decoded, 6u);  // target + few neighbours
}

TEST_F(BlockDeviceTest, InlineUpdateApplied)
{
    UpdateOp op;
    op.delete_pos = 0;
    op.delete_len = 3;
    op.insert_pos = 0;
    op.insert_bytes = {'X', 'Y', 'Z'};
    device_.updateBlock(7, op);
    EXPECT_EQ(device_.updateCount(7), 1u);

    auto content = device_.readBlock(7);
    ASSERT_TRUE(content.has_value());
    Bytes expected = blockBytes(7);
    expected[0] = 'X';
    expected[1] = 'Y';
    expected[2] = 'Z';
    EXPECT_EQ(*content, expected);
}

TEST_F(BlockDeviceTest, TwoInlineUpdatesChain)
{
    UpdateOp first;
    first.insert_pos = 0;
    first.insert_bytes = {'A'};
    UpdateOp second;
    second.insert_pos = 0;
    second.insert_bytes = {'B'};
    device_.updateBlock(3, first);
    device_.updateBlock(3, second);

    auto content = device_.readBlock(3);
    ASSERT_TRUE(content.has_value());
    EXPECT_EQ((*content)[0], 'B');
    EXPECT_EQ((*content)[1], 'A');
    Bytes original = blockBytes(3);
    EXPECT_TRUE(std::equal(content->begin() + 2, content->end() - 2,
                           original.begin()));
}

TEST_F(BlockDeviceTest, ReplaceBlock)
{
    Bytes fresh(256, '#');
    device_.replaceBlock(9, fresh);
    auto content = device_.readBlock(9);
    ASSERT_TRUE(content.has_value());
    EXPECT_EQ(*content, fresh);
}

TEST_F(BlockDeviceTest, OverflowChainBeyondInlineSlots)
{
    // Five updates: 2 inline + pointer -> overflow container(s).
    for (int i = 0; i < 5; ++i) {
        UpdateOp op;
        op.insert_pos = 0;
        op.insert_bytes = {static_cast<uint8_t>('a' + i)};
        device_.updateBlock(5, op);
    }
    EXPECT_EQ(device_.updateCount(5), 5u);

    size_t trips_before = device_.costs().roundTrips();
    auto content = device_.readBlock(5);
    ASSERT_TRUE(content.has_value());
    // Updates prepend in order: last one is at the front.
    EXPECT_EQ((*content)[0], 'e');
    EXPECT_EQ((*content)[1], 'd');
    EXPECT_EQ((*content)[2], 'c');
    EXPECT_EQ((*content)[3], 'b');
    EXPECT_EQ((*content)[4], 'a');
    // Overflow costs extra round trips (Figure 8's trade-off).
    EXPECT_GT(device_.costs().roundTrips(), trips_before + 1);
}

// The next two tests hand assembleRange units as a decode could
// produce them from stray molecules: a pointer record in the block's
// first update slot.

/** Serialized overflow pointer to @p target. */
Bytes
pointerRecord(const BlockDevice &device, uint64_t target)
{
    UpdateRecord record;
    record.kind = UpdateRecord::Kind::kOverflowPointer;
    record.overflow_block = target;
    return record.serialize(device.partition().config().unitDataBytes());
}

TEST_F(BlockDeviceTest, PhantomOverflowPointerIsNotFollowed)
{
    constexpr uint64_t kBlock = 3;
    const uint64_t leaves = device_.partition().tree().leafCount();
    const size_t trips_before = device_.costs().roundTrips();
    // Past the address space (the value a phantom record decoded on
    // a real read), data blocks, and blockCount(), the excluded low
    // end of the container range.
    for (uint64_t target : {uint64_t{7264615196989369170u}, leaves,
                            uint64_t{0}, kBlock, device_.blockCount()}) {
        std::map<uint64_t, BlockVersions> units;
        units[kBlock].versions[0] = blockBytes(kBlock);
        units[kBlock].versions[1] = pointerRecord(device_, target);
        auto got = device_.assembleRange(kBlock, kBlock, units);
        ASSERT_EQ(got.size(), 1u);
        EXPECT_FALSE(got[0].has_value()) << "pointer to " << target;
    }
    // None of them cost a round trip.
    EXPECT_EQ(device_.costs().roundTrips(), trips_before);
}

TEST_F(BlockDeviceTest, OverflowPointerCycleEnds)
{
    constexpr uint64_t kBlock = 3;
    const uint64_t top = device_.partition().tree().leafCount() - 1;
    std::map<uint64_t, BlockVersions> units;
    units[kBlock].versions[0] = blockBytes(kBlock);
    units[kBlock].versions[1] = pointerRecord(device_, top);

    // A container that points at itself.
    units[top].versions[0] = pointerRecord(device_, top);
    EXPECT_FALSE(
        device_.assembleRange(kBlock, kBlock, units)[0].has_value());

    // Two containers that point at each other.
    units[top].versions[0] = pointerRecord(device_, top - 1);
    units[top - 1].versions[0] = pointerRecord(device_, top);
    EXPECT_FALSE(
        device_.assembleRange(kBlock, kBlock, units)[0].has_value());

    // Control: the same container holding a real record resolves.
    const Bytes fresh(device_.partition().config().block_data_bytes, '#');
    UpdateRecord replace;
    replace.kind = UpdateRecord::Kind::kReplace;
    replace.replacement = fresh;
    units[top].versions[0] = replace.serialize(
        device_.partition().config().unitDataBytes());
    auto resolved = device_.assembleRange(kBlock, kBlock, units);
    ASSERT_TRUE(resolved[0].has_value());
    EXPECT_EQ(*resolved[0], fresh);
}

TEST_F(BlockDeviceTest, ReadRange)
{
    auto contents = device_.readRange(4, 9);
    ASSERT_EQ(contents.size(), 6u);
    for (uint64_t i = 0; i < 6; ++i) {
        EXPECT_TRUE(test::blockMatches(contents[i], data_, 4 + i))
            << "offset " << i;
    }
}

TEST_F(BlockDeviceTest, ReadAllReturnsWholeFile)
{
    test::RoundTrip result = test::roundTrip(device_, data_);
    EXPECT_EQ(result.blocks, 24u);
    EXPECT_EQ(result.decoded, 24u);
    EXPECT_EQ(result.exact, 24u) << result.first_mismatch;
}

TEST_F(BlockDeviceTest, CostsAccumulate)
{
    size_t reads_before = device_.costs().readsSequenced();
    device_.readBlock(2);
    EXPECT_EQ(device_.costs().readsSequenced(),
              reads_before + smallParams().reads_per_block_access);
    EXPECT_GT(device_.costs().sequencingCost(), 0.0);
    EXPECT_GT(device_.costs().synthesisCost(), 0.0);
}

TEST_F(BlockDeviceTest, UpdateSynthesisIsTiny)
{
    // Section 7.5: an update costs 15 molecules, not a partition.
    size_t before = device_.costs().moleculesSynthesized();
    UpdateOp op;
    op.insert_bytes = {'!'};
    device_.updateBlock(1, op);
    EXPECT_EQ(device_.costs().moleculesSynthesized(), before + 15);
}

TEST_F(BlockDeviceTest, InvalidArgumentsThrow)
{
    EXPECT_THROW(device_.readBlock(24), dnastore::FatalError);
    EXPECT_THROW(device_.readRange(5, 4), dnastore::FatalError);
    EXPECT_THROW(device_.readRange(0, 24), dnastore::FatalError);
    UpdateOp op;
    EXPECT_THROW(device_.updateBlock(99, op), dnastore::FatalError);
}

} // namespace
} // namespace dnastore::core
