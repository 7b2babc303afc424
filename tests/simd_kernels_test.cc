/**
 * @file
 * Parity suite for the runtime-dispatched SIMD kernels.
 *
 * The scalar table defines the semantics; the AVX2 table, when this
 * CPU can run it, must reproduce it bit-for-bit on randomized inputs,
 * including the awkward cases (saturated lanes, bands clipped to one
 * cell, remainder tails shorter than a vector). This is what extends
 * the decode pipeline's determinism contract from "any thread count"
 * to "any ISA". On a CPU without AVX2 the parity tests skip, so a
 * host that checks nothing says so.
 *
 * Also pins the GF(16) table contract ReedSolomon::rowSyndromes
 * relies on: the multiply rows are built from the zero-checked
 * mul(), so no lookup ever consults the log[0] sentinel.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "common/simd.h"
#include "ecc/gf16.h"
#include "ecc/gf256.h"

namespace dnastore::simd {
namespace {

using ecc::GF16;
using ecc::GF256;

constexpr const char *kNoAvx2 =
    "this CPU cannot run AVX2; there is no vector table to compare "
    "with the scalar reference";

const Kernels &
scalarRef()
{
    const Kernels *scalar = kernelsFor(Isa::Scalar);
    EXPECT_NE(scalar, nullptr);
    return *scalar;
}

TEST(SimdDispatchTest, ScalarAlwaysAvailable)
{
    EXPECT_TRUE(cpuSupports(Isa::Scalar));
    EXPECT_NE(kernelsFor(Isa::Scalar), nullptr);
}

TEST(SimdDispatchTest, ActiveIsaIsRunnable)
{
    EXPECT_TRUE(cpuSupports(activeIsa()));
    EXPECT_EQ(kernelsFor(activeIsa()), &kernels());
}

TEST(SimdDispatchTest, BestSupportedIsRunnable)
{
    EXPECT_TRUE(cpuSupports(bestSupportedIsa()));
    EXPECT_NE(kernelsFor(bestSupportedIsa()), nullptr);
}

TEST(SimdDispatchTest, IsaNamesAreStable)
{
    EXPECT_STREQ(isaName(Isa::Scalar), "scalar");
    EXPECT_STREQ(isaName(Isa::Avx2), "avx2");
}

TEST(SimdDispatchTest, ScopedForceIsaRoundTrips)
{
    const Isa before = activeIsa();
    {
        ScopedForceIsa force(Isa::Scalar);
        EXPECT_EQ(activeIsa(), Isa::Scalar);
        EXPECT_EQ(&kernels(), kernelsFor(Isa::Scalar));
    }
    EXPECT_EQ(activeIsa(), before);
    EXPECT_EQ(&kernels(), kernelsFor(before));
}

/** Random DP cell: mostly finite, some saturated/near-saturated. */
uint16_t
randomCell(Rng &rng)
{
    switch (rng.nextBelow(8)) {
    case 0:
        return kInf16;
    case 1:
        return kInf16 - 1;
    default:
        return static_cast<uint16_t>(rng.nextBelow(3000));
    }
}

TEST(SimdKernelParityTest, EditRowMatchesScalar)
{
    const Kernels *avx2 = kernelsFor(Isa::Avx2);
    if (avx2 == nullptr)
        GTEST_SKIP() << kNoAvx2;
    const Kernels &scalar = scalarRef();
    Rng rng(0x51AD'0001);
    const char kBases[] = "ACGT";
    for (int trial = 0; trial < 400; ++trial) {
        const size_t n = 1 + rng.nextBelow(170);
        std::vector<uint8_t> b(n + kEditRowPad, 0);
        for (size_t i = 0; i < n; ++i)
            b[i] = static_cast<uint8_t>(kBases[rng.nextBelow(4)]);
        const uint8_t a_ch =
            static_cast<uint8_t>(kBases[rng.nextBelow(4)]);

        const size_t lo = 1 + rng.nextBelow(n);
        const size_t hi = lo + rng.nextBelow(n - lo + 1);
        const uint16_t carry_in =
            rng.nextBelow(4) == 0 ? kInf16 : randomCell(rng);

        std::vector<uint16_t> prev(n + 2 + kEditRowPad, kInf16);
        for (size_t j = lo > 0 ? lo - 1 : 0; j <= hi; ++j)
            prev[j] = randomCell(rng);

        std::vector<uint16_t> curr_scalar(prev.size(), kInf16);
        std::vector<uint16_t> curr_vec(prev.size(), kInf16);
        const uint16_t want = scalar.edit_row(
            b.data(), a_ch, prev.data(), curr_scalar.data(), lo, hi,
            carry_in);
        std::memset(curr_vec.data(), 0xFF,
                    curr_vec.size() * sizeof(uint16_t));
        const uint16_t got = avx2->edit_row(b.data(), a_ch, prev.data(),
                                            curr_vec.data(), lo, hi,
                                            carry_in);
        ASSERT_EQ(got, want)
            << "trial " << trial << " lo=" << lo << " hi=" << hi;
        // Cells below lo are untouched (still 0xFFFF in both); cells
        // in (hi, hi+pad] must be restored to kInf16.
        for (size_t j = lo; j <= hi + kEditRowPad; ++j) {
            ASSERT_EQ(curr_vec[j], curr_scalar[j])
                << "trial " << trial << " j=" << j << " lo=" << lo
                << " hi=" << hi;
        }
    }
}

TEST(SimdKernelParityTest, MinhashMatchesScalar)
{
    const Kernels *avx2 = kernelsFor(Isa::Avx2);
    if (avx2 == nullptr)
        GTEST_SKIP() << kNoAvx2;
    const Kernels &scalar = scalarRef();
    Rng rng(0x51AD'0002);
    const size_t kQs[] = {1, 2, 3, 4, 8, 12, 16, 31, 32};
    for (int trial = 0; trial < 300; ++trial) {
        const size_t q = kQs[rng.nextBelow(std::size(kQs))];
        const size_t len = q + rng.nextBelow(200);
        std::vector<uint8_t> bases(len);
        for (uint8_t &base : bases)
            base = static_cast<uint8_t>(rng.nextBelow(4));
        const uint64_t mask =
            q * 2 >= 64 ? ~uint64_t{0} : (uint64_t{1} << (q * 2)) - 1;
        const size_t num_salts = 1 + rng.nextBelow(7);
        std::vector<uint64_t> salts(num_salts);
        for (uint64_t &salt : salts)
            salt = rng.next();

        std::vector<uint64_t> want(num_salts);
        std::vector<uint64_t> got(num_salts);
        scalar.minhash(bases.data(), len, q, mask, salts.data(),
                       num_salts, want.data());
        avx2->minhash(bases.data(), len, q, mask, salts.data(),
                      num_salts, got.data());
        ASSERT_EQ(got, want)
            << "trial " << trial << " len=" << len << " q=" << q;
    }
}

// The GF(16) multiply rows are built from the zero-checked scalar
// mul(), so multiplication by or of zero is exactly zero and the
// log[0] sentinel is never read (an accidental read would show up
// here as a nonzero product in row or column 0).

TEST(SimdGfTableTest, Gf16MulTableMatchesCheckedMul)
{
    for (unsigned c = 0; c < 16; ++c) {
        const uint8_t *row =
            GF16::mulTable(static_cast<uint8_t>(c));
        for (unsigned v = 0; v < 16; ++v) {
            ASSERT_EQ(row[v],
                      GF16::mul(static_cast<uint8_t>(c),
                                static_cast<uint8_t>(v)));
        }
        ASSERT_EQ(row[0], 0);
        ASSERT_EQ(GF16::mulTable(0)[c], 0);
    }
}

TEST(SimdGfTableTest, ZeroLogSentinelsAreOutOfRange)
{
    // The sentinel must not be a valid exponent, so an accidental
    // log[0] read cannot alias a real discrete log.
    EXPECT_GE(GF16::kZeroLogSentinel, GF16::kMultGroupOrder);
    EXPECT_GE(GF256::kZeroLogSentinel, GF256::kMultGroupOrder);
    EXPECT_THROW(GF16::log(0), dnastore::PanicError);
    EXPECT_THROW(GF256::log(0), dnastore::PanicError);
}

} // namespace
} // namespace dnastore::simd
