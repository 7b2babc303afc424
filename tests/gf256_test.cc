/**
 * @file
 * Unit and property tests for GF(256) and RS over GF(256).
 */

#include <gtest/gtest.h>

#include <set>

#include "common/error.h"
#include "common/rng.h"
#include "ecc/gf256.h"
#include "ecc/reed_solomon256.h"

namespace dnastore::ecc {
namespace {

TEST(GF256Test, MulIdentityAndZero)
{
    for (unsigned a = 0; a < 256; ++a) {
        EXPECT_EQ(GF256::mul(static_cast<uint8_t>(a), 1), a);
        EXPECT_EQ(GF256::mul(static_cast<uint8_t>(a), 0), 0);
    }
}

TEST(GF256Test, InverseProperty)
{
    for (unsigned a = 1; a < 256; ++a) {
        EXPECT_EQ(GF256::mul(static_cast<uint8_t>(a),
                             GF256::inv(static_cast<uint8_t>(a))),
                  1);
    }
    EXPECT_THROW(GF256::inv(0), dnastore::PanicError);
}

TEST(GF256Test, MulCommutes)
{
    dnastore::Rng rng(1);
    for (int trial = 0; trial < 2000; ++trial) {
        auto a = static_cast<uint8_t>(rng.nextBelow(256));
        auto b = static_cast<uint8_t>(rng.nextBelow(256));
        EXPECT_EQ(GF256::mul(a, b), GF256::mul(b, a));
    }
}

TEST(GF256Test, Distributivity)
{
    dnastore::Rng rng(2);
    for (int trial = 0; trial < 2000; ++trial) {
        auto a = static_cast<uint8_t>(rng.nextBelow(256));
        auto b = static_cast<uint8_t>(rng.nextBelow(256));
        auto c = static_cast<uint8_t>(rng.nextBelow(256));
        EXPECT_EQ(GF256::mul(a, GF256::add(b, c)),
                  GF256::add(GF256::mul(a, b), GF256::mul(a, c)));
    }
}

TEST(GF256Test, AlphaGeneratesFullGroup)
{
    std::set<uint8_t> seen;
    for (int n = 0; n < 255; ++n)
        seen.insert(GF256::alphaPow(n));
    EXPECT_EQ(seen.size(), 255u);
    EXPECT_EQ(GF256::alphaPow(255), 1);
}

TEST(GF256Test, LogExpInverse)
{
    for (unsigned a = 1; a < 256; ++a) {
        EXPECT_EQ(GF256::alphaPow(static_cast<int>(
                      GF256::log(static_cast<uint8_t>(a)))),
                  a);
    }
}

TEST(GF256Test, MulDivRoundTripAllPairs)
{
    for (unsigned a = 0; a < 256; ++a) {
        for (unsigned b = 1; b < 256; ++b) {
            EXPECT_EQ(GF256::div(GF256::mul(static_cast<uint8_t>(a),
                                            static_cast<uint8_t>(b)),
                                 static_cast<uint8_t>(b)),
                      a);
        }
    }
    EXPECT_THROW(GF256::div(1, 0), dnastore::PanicError);
}

TEST(GF256Test, PowRoundTripsThroughNegativeExponents)
{
    for (unsigned a = 1; a < 256; ++a) {
        for (int n : {-255, -3, -1, 0, 1, 2, 7, 254, 255, 510}) {
            EXPECT_EQ(GF256::mul(GF256::pow(static_cast<uint8_t>(a), n),
                                 GF256::pow(static_cast<uint8_t>(a),
                                            -n)),
                      1)
                << "a=" << a << " n=" << n;
        }
    }
}

TEST(GF256Test, PowMatchesRepeatedMultiplication)
{
    for (unsigned a = 1; a < 256; ++a) {
        uint8_t acc = 1;
        for (int n = 0; n < 16; ++n) {
            EXPECT_EQ(GF256::pow(static_cast<uint8_t>(a), n), acc);
            acc = GF256::mul(acc, static_cast<uint8_t>(a));
        }
    }
}

TEST(GF256Test, ZeroLogSentinelIsNotAValidExponent)
{
    EXPECT_GE(GF256::kZeroLogSentinel, GF256::kMultGroupOrder);
    EXPECT_THROW(GF256::log(0), dnastore::PanicError);
}

std::vector<uint8_t>
randomData(dnastore::Rng &rng, unsigned k)
{
    std::vector<uint8_t> data(k);
    for (uint8_t &symbol : data)
        symbol = static_cast<uint8_t>(rng.nextBelow(256));
    return data;
}

TEST(ReedSolomon256Test, SystematicCleanRoundTrip)
{
    ReedSolomon256 rs(255, 223);  // the classic CCSDS geometry
    dnastore::Rng rng(3);
    std::vector<uint8_t> data = randomData(rng, 223);
    std::vector<uint8_t> codeword = rs.encode(data);
    ASSERT_EQ(codeword.size(), 255u);
    EXPECT_TRUE(std::equal(data.begin(), data.end(), codeword.begin()));
    Rs256DecodeResult result = rs.decode(codeword);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(*result.codeword, codeword);
}

TEST(ReedSolomon256Test, CorrectsUpToSixteenErrors)
{
    ReedSolomon256 rs(255, 223);  // t = 16
    dnastore::Rng rng(4);
    for (int trial = 0; trial < 5; ++trial) {
        std::vector<uint8_t> codeword = rs.encode(randomData(rng, 223));
        std::vector<uint8_t> corrupted = codeword;
        std::vector<size_t> positions(255);
        for (size_t i = 0; i < 255; ++i)
            positions[i] = i;
        rng.shuffle(positions);
        for (int e = 0; e < 16; ++e) {
            corrupted[positions[e]] ^=
                static_cast<uint8_t>(1 + rng.nextBelow(255));
        }
        Rs256DecodeResult result = rs.decode(corrupted);
        ASSERT_TRUE(result.ok()) << "trial " << trial;
        EXPECT_EQ(*result.codeword, codeword);
        EXPECT_EQ(result.errors_corrected, 16u);
    }
}

TEST(ReedSolomon256Test, CorrectsFullErasureBudget)
{
    ReedSolomon256 rs(60, 40);
    dnastore::Rng rng(5);
    std::vector<uint8_t> codeword = rs.encode(randomData(rng, 40));
    std::vector<uint8_t> corrupted = codeword;
    std::vector<size_t> erasures;
    for (size_t pos = 0; pos < 20; ++pos) {
        erasures.push_back(pos * 3);
        corrupted[pos * 3] = static_cast<uint8_t>(rng.nextBelow(256));
    }
    Rs256DecodeResult result = rs.decode(corrupted, erasures);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(*result.codeword, codeword);
}

TEST(ReedSolomon256Test, MixedErrorsAndErasures)
{
    ReedSolomon256 rs(100, 80);  // parity 20: 2e + r <= 20
    dnastore::Rng rng(6);
    std::vector<uint8_t> codeword = rs.encode(randomData(rng, 80));
    std::vector<uint8_t> corrupted = codeword;
    std::vector<size_t> erasures = {5, 17, 33, 49, 71, 90};
    for (size_t pos : erasures)
        corrupted[pos] = static_cast<uint8_t>(rng.nextBelow(256));
    for (size_t pos : {size_t{2}, size_t{40}, size_t{60},
                       size_t{75}, size_t{99}, size_t{20},
                       size_t{55}}) {
        corrupted[pos] ^= static_cast<uint8_t>(1 + rng.nextBelow(255));
    }
    Rs256DecodeResult result = rs.decode(corrupted, erasures);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(*result.codeword, codeword);
}

TEST(ReedSolomon256Test, BeyondCapabilityFailsCleanly)
{
    ReedSolomon256 rs(30, 26);  // t = 2
    dnastore::Rng rng(7);
    std::vector<uint8_t> codeword = rs.encode(randomData(rng, 26));
    std::vector<uint8_t> corrupted = codeword;
    for (size_t pos : {size_t{0}, size_t{7}, size_t{15}})
        corrupted[pos] ^= 0x42;
    EXPECT_NO_THROW(rs.decode(corrupted));
}

TEST(ReedSolomon256Test, ParameterValidation)
{
    EXPECT_THROW(ReedSolomon256(256, 200), dnastore::FatalError);
    EXPECT_THROW(ReedSolomon256(100, 100), dnastore::FatalError);
}

/** Property sweep over (errors, erasures) within capability. */
class Rs256CapabilityTest
    : public ::testing::TestWithParam<std::pair<int, int>>
{};

TEST_P(Rs256CapabilityTest, CorrectsWithinCapability)
{
    auto [errors, erasures] = GetParam();
    ReedSolomon256 rs(63, 47);  // parity 16
    ASSERT_LE(2 * errors + erasures, 16);
    dnastore::Rng rng(800 + errors * 20 + erasures);
    for (int trial = 0; trial < 5; ++trial) {
        std::vector<uint8_t> codeword = rs.encode(randomData(rng, 47));
        std::vector<uint8_t> corrupted = codeword;
        std::vector<size_t> positions(63);
        for (size_t i = 0; i < 63; ++i)
            positions[i] = i;
        rng.shuffle(positions);
        std::vector<size_t> erased(positions.begin(),
                                   positions.begin() + erasures);
        for (size_t pos : erased)
            corrupted[pos] = static_cast<uint8_t>(rng.nextBelow(256));
        for (int e = 0; e < errors; ++e) {
            corrupted[positions[erasures + e]] ^=
                static_cast<uint8_t>(1 + rng.nextBelow(255));
        }
        Rs256DecodeResult result = rs.decode(corrupted, erased);
        ASSERT_TRUE(result.ok())
            << "errors=" << errors << " erasures=" << erasures;
        EXPECT_EQ(*result.codeword, codeword);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Combos, Rs256CapabilityTest,
    ::testing::Values(std::pair{0, 16}, std::pair{8, 0},
                      std::pair{4, 8}, std::pair{6, 4},
                      std::pair{1, 14}, std::pair{7, 2}));

} // namespace
} // namespace dnastore::ecc
