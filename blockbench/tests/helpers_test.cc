#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "helpers.h"

namespace blockbench {
namespace {

TEST(Zipf, PmfIsNormalisedAndFollowsThePowerLaw)
{
    Zipf zipf(64, 0.99);
    double total = 0.0;
    for (size_t k = 0; k < zipf.size(); ++k)
        total += zipf.pmf(k);
    EXPECT_NEAR(total, 1.0, 1e-12);
    // P(k) / P(0) = (k + 1)^-theta.
    EXPECT_NEAR(zipf.pmf(3) / zipf.pmf(0), std::pow(4.0, -0.99), 1e-12);
    EXPECT_NEAR(zipf.pmf(63) / zipf.pmf(0), std::pow(64.0, -0.99), 1e-12);
}

TEST(Zipf, SampleFrequenciesMatchThePmf)
{
    Zipf zipf(16, 0.99);
    SplitMix rng(7);
    constexpr size_t kDraws = 200000;
    std::vector<size_t> hits(16, 0);
    for (size_t i = 0; i < kDraws; ++i)
        ++hits[zipf.sample(rng)];
    for (size_t k = 0; k < 16; ++k) {
        double p = zipf.pmf(k);
        double sd = std::sqrt(p * (1 - p) / kDraws);
        EXPECT_NEAR(static_cast<double>(hits[k]) / kDraws, p, 5 * sd)
            << "rank " << k;
    }
}

TEST(Zipf, SameSeedSameDraws)
{
    Zipf zipf(256, 0.99);
    SplitMix a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(zipf.sample(a), zipf.sample(b));
}

TEST(Percentile, NearestRank)
{
    std::vector<double> v = {5, 1, 4, 2, 3};
    EXPECT_EQ(percentile(v, 0.5), 3);   // ceil(2.5) = 3rd smallest
    EXPECT_EQ(percentile(v, 0.9), 5);   // ceil(4.5) = 5th
    EXPECT_EQ(percentile(v, 0.2), 1);   // ceil(1.0) = 1st
    std::vector<double> ten = {10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
    EXPECT_EQ(percentile(ten, 0.5), 5);
    EXPECT_EQ(percentile(ten, 0.9), 9);
    EXPECT_EQ(percentile({}, 0.5), 0);
}

TEST(Percentile, TailNeedsTenBeyondAndFortyInAll)
{
    EXPECT_EQ(samplesBeyond(100, 0.9), 10u);
    EXPECT_EQ(samplesBeyond(99, 0.9), 9u);  // rank ceil(89.1) = 90
    EXPECT_TRUE(tailReportable(100, 0.9));
    EXPECT_FALSE(tailReportable(99, 0.9));
    EXPECT_FALSE(tailReportable(39, 0.5));
    EXPECT_TRUE(tailReportable(40, 0.5));
}

Bytes
counting()
{
    Bytes b(kBlockBytes);
    for (size_t i = 0; i < b.size(); ++i)
        b[i] = static_cast<uint8_t>(i);
    return b;
}

TEST(UpdateModel, DeleteThenInsertAtThePostDeletionPosition)
{
    Edit e;
    e.delete_pos = 2;
    e.delete_len = 3;  // removes 2, 3, 4
    e.insert_pos = 1;  // counted after the deletion
    e.insert = {0xAA, 0xBB};
    Bytes out = applyEdit(counting(), e);
    ASSERT_EQ(out.size(), kBlockBytes);
    Bytes head(out.begin(), out.begin() + 6);
    EXPECT_EQ(head, (Bytes{0, 0xAA, 0xBB, 1, 5, 6}));
    // 256 - 3 + 2 = 255 bytes, zero-padded back to 256.
    EXPECT_EQ(out[254], 255);
    EXPECT_EQ(out[255], 0);
}

TEST(UpdateModel, GrowingEditTruncates)
{
    Edit e;
    e.insert_pos = 0;
    e.insert = {7, 7, 7};
    Bytes out = applyEdit(counting(), e);
    EXPECT_EQ(out[0], 7);
    EXPECT_EQ(out[3], 0);
    EXPECT_EQ(out[255], 252);  // the last three bytes fell off
}

TEST(UpdateModel, PureDeletePadsWithZeros)
{
    Edit e;
    e.delete_pos = 250;
    e.delete_len = 10;  // clipped at the end of the block
    Bytes out = applyEdit(counting(), e);
    EXPECT_EQ(out[249], 249);
    for (size_t i = 250; i < kBlockBytes; ++i)
        EXPECT_EQ(out[i], 0);
}

TEST(UpdateModel, InsertPastTheEndAppends)
{
    Edit e;
    e.delete_pos = 0;
    e.delete_len = 4;
    e.insert_pos = 255;  // past the 252 bytes left: clamps to the end
    e.insert = {9};
    Bytes out = applyEdit(counting(), e);
    EXPECT_EQ(out[0], 4);
    EXPECT_EQ(out[251], 255);
    EXPECT_EQ(out[252], 9);
    EXPECT_EQ(out[253], 0);
}

TEST(UpdateModel, ReplacementPads)
{
    Bytes out = applyReplace({1, 2, 3});
    ASSERT_EQ(out.size(), kBlockBytes);
    EXPECT_EQ(out[2], 3);
    EXPECT_EQ(out[3], 0);
}

TEST(FileModel, RoundTripsAndUnitsFollowTheSlotLayout)
{
    FileModel model(Bytes(2 * kBlockBytes, 1));
    // n updates: round trips 1 + ceil(max(0, n - 2) / 3); the update
    // that opens a container (n = 2, 5, 8, ...) also writes a pointer.
    const unsigned trips[] = {1, 1, 1, 2, 2, 2, 3, 3, 3, 4};
    const unsigned units[] = {1, 1, 2, 1, 1, 2, 1, 1, 2, 1};
    for (unsigned n = 0; n < 10; ++n) {
        EXPECT_EQ(model.roundTrips(0), trips[n]) << "n = " << n;
        EXPECT_EQ(model.unitsForNextUpdate(0), units[n]) << "n = " << n;
        model.replace(0, {static_cast<uint8_t>(n)});
    }
    EXPECT_EQ(model.updates(0), 10u);
    EXPECT_EQ(model.updates(1), 0u);
    EXPECT_EQ(model.block(0)[0], 9);
}

TEST(FileModel, SplitsAndPadsTheFile)
{
    Bytes data(kBlockBytes + 10, 5);
    FileModel model(data);
    ASSERT_EQ(model.blockCount(), 2u);
    EXPECT_EQ(model.block(1)[9], 5);
    EXPECT_EQ(model.block(1)[10], 0);
}

} // namespace
} // namespace blockbench
