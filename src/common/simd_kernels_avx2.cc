/**
 * @file
 * AVX2 kernels (16 uint16 lanes / 4 uint64 lanes).
 * Compiled with -mavx2; reachable only through the dispatch table
 * after a cpuSupports(Avx2) check. Must stay bit-identical to the
 * scalar reference (tests/simd_kernels_test.cc).
 */

#if defined(__x86_64__) || defined(__i386__)

#include <algorithm>

#include <immintrin.h>

#include "common/simd_kernels.h"

namespace dnastore::simd::detail {

namespace {

/** kTailMask[v][l] = 0xFFFF for lanes l >= v. */
alignas(32) constexpr uint16_t kTailMask[17][16] = {
#define DNASTORE_TAIL_ROW(v)                                           \
    {0xFFFF * (0 >= (v)), 0xFFFF * (1 >= (v)), 0xFFFF * (2 >= (v)),    \
     0xFFFF * (3 >= (v)), 0xFFFF * (4 >= (v)), 0xFFFF * (5 >= (v)),    \
     0xFFFF * (6 >= (v)), 0xFFFF * (7 >= (v)), 0xFFFF * (8 >= (v)),    \
     0xFFFF * (9 >= (v)), 0xFFFF * (10 >= (v)), 0xFFFF * (11 >= (v)),  \
     0xFFFF * (12 >= (v)), 0xFFFF * (13 >= (v)), 0xFFFF * (14 >= (v)), \
     0xFFFF * (15 >= (v))}
    DNASTORE_TAIL_ROW(0),  DNASTORE_TAIL_ROW(1),  DNASTORE_TAIL_ROW(2),
    DNASTORE_TAIL_ROW(3),  DNASTORE_TAIL_ROW(4),  DNASTORE_TAIL_ROW(5),
    DNASTORE_TAIL_ROW(6),  DNASTORE_TAIL_ROW(7),  DNASTORE_TAIL_ROW(8),
    DNASTORE_TAIL_ROW(9),  DNASTORE_TAIL_ROW(10), DNASTORE_TAIL_ROW(11),
    DNASTORE_TAIL_ROW(12), DNASTORE_TAIL_ROW(13), DNASTORE_TAIL_ROW(14),
    DNASTORE_TAIL_ROW(15), DNASTORE_TAIL_ROW(16),
#undef DNASTORE_TAIL_ROW
};

template <int K>
__m256i
headMask()
{
    alignas(32) static constexpr uint16_t mask[16] = {
        0xFFFF * (0 < K),  0xFFFF * (1 < K),  0xFFFF * (2 < K),
        0xFFFF * (3 < K),  0xFFFF * (4 < K),  0xFFFF * (5 < K),
        0xFFFF * (6 < K),  0xFFFF * (7 < K),  0xFFFF * (8 < K),
        0xFFFF * (9 < K),  0xFFFF * (10 < K), 0xFFFF * (11 < K),
        0xFFFF * (12 < K), 0xFFFF * (13 < K), 0xFFFF * (14 < K),
        0xFFFF * (15 < K),
    };
    return _mm256_load_si256(reinterpret_cast<const __m256i *>(mask));
}

/** Shift left by BYTES over the full 256-bit register (zero fill),
 *  crossing the 128-bit lane boundary. */
template <int BYTES>
__m256i
shiftBytesZero(__m256i v)
{
    // [0 : v_low] — the value that slides into the high lane.
    __m256i lowup = _mm256_permute2x128_si256(v, v, 0x08);
    if constexpr (BYTES == 16)
        return lowup;
    else
        return _mm256_alignr_epi8(v, lowup, 16 - BYTES);
}

/** Shift left by K uint16 lanes, shifting "infinity" in. */
template <int K>
__m256i
shiftLanesInf(__m256i v)
{
    return _mm256_or_si256(shiftBytesZero<2 * K>(v), headMask<K>());
}

uint16_t
hmin16(__m256i v)
{
    __m128i folded = _mm_min_epu16(_mm256_castsi256_si128(v),
                                   _mm256_extracti128_si256(v, 1));
    return static_cast<uint16_t>(
        _mm_extract_epi16(_mm_minpos_epu16(folded), 0));
}

uint16_t
editRowAvx2(const uint8_t *b, uint8_t a_ch, const uint16_t *prev,
            uint16_t *curr, size_t lo, size_t hi, uint16_t carry_in)
{
    const __m256i vinf = _mm256_set1_epi16(-1);
    const __m256i vone = _mm256_set1_epi16(1);
    const __m256i ramp =
        _mm256_setr_epi16(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13,
                          14, 15, 16);
    const __m128i a_splat =
        _mm_set1_epi8(static_cast<char>(a_ch));
    uint16_t carry = carry_in;
    __m256i vrowmin = vinf;
    for (size_t j0 = lo; j0 <= hi; j0 += 16) {
        const size_t valid = std::min<size_t>(16, hi - j0 + 1);
        __m128i bch = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(b + j0 - 1));
        __m128i eq8 = _mm_cmpeq_epi8(bch, a_splat);
        // Sign-extending 0xFF lanes gives 0xFFFF; +1 => cost 0/1.
        __m256i cost =
            _mm256_add_epi16(_mm256_cvtepi8_epi16(eq8), vone);
        __m256i pm1 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(prev + j0 - 1));
        __m256i p0 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(prev + j0));
        __m256i t = _mm256_min_epu16(_mm256_adds_epu16(pm1, cost),
                                     _mm256_adds_epu16(p0, vone));
        t = _mm256_min_epu16(
            t, _mm256_adds_epu16(shiftLanesInf<1>(t),
                                 _mm256_set1_epi16(1)));
        t = _mm256_min_epu16(
            t, _mm256_adds_epu16(shiftLanesInf<2>(t),
                                 _mm256_set1_epi16(2)));
        t = _mm256_min_epu16(
            t, _mm256_adds_epu16(shiftLanesInf<4>(t),
                                 _mm256_set1_epi16(4)));
        t = _mm256_min_epu16(
            t, _mm256_adds_epu16(shiftLanesInf<8>(t),
                                 _mm256_set1_epi16(8)));
        t = _mm256_min_epu16(
            t, _mm256_adds_epu16(
                   _mm256_set1_epi16(static_cast<short>(carry)),
                   ramp));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(curr + j0),
                            t);
        __m256i masked = _mm256_or_si256(
            t, _mm256_load_si256(reinterpret_cast<const __m256i *>(
                   kTailMask[valid])));
        vrowmin = _mm256_min_epu16(vrowmin, masked);
        carry = static_cast<uint16_t>(_mm256_extract_epi16(t, 15));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(curr + hi + 1),
                        vinf);
    return hmin16(vrowmin);
}

__m256i
mul64(__m256i a, __m256i b)
{
    __m256i lo = _mm256_mul_epu32(a, b);
    __m256i cross =
        _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(a, 32), b),
                         _mm256_mul_epu32(a, _mm256_srli_epi64(b, 32)));
    return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

__m256i
mix64(__m256i state)
{
    const __m256i gamma = _mm256_set1_epi64x(
        static_cast<long long>(0x9e3779b97f4a7c15ULL));
    const __m256i c1 = _mm256_set1_epi64x(
        static_cast<long long>(0xbf58476d1ce4e5b9ULL));
    const __m256i c2 = _mm256_set1_epi64x(
        static_cast<long long>(0x94d049bb133111ebULL));
    __m256i z = _mm256_add_epi64(state, gamma);
    z = mul64(_mm256_xor_si256(z, _mm256_srli_epi64(z, 30)), c1);
    z = mul64(_mm256_xor_si256(z, _mm256_srli_epi64(z, 27)), c2);
    return _mm256_xor_si256(z, _mm256_srli_epi64(z, 31));
}

__m256i
umin64(__m256i a, __m256i b)
{
    const __m256i sign = _mm256_set1_epi64x(
        static_cast<long long>(0x8000000000000000ULL));
    __m256i a_gt_b = _mm256_cmpgt_epi64(_mm256_xor_si256(a, sign),
                                        _mm256_xor_si256(b, sign));
    return _mm256_blendv_epi8(a, b, a_gt_b);
}

uint64_t
mix64Scalar(uint64_t state)
{
    uint64_t z = state + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

void
minhashAvx2(const uint8_t *bases, size_t len, size_t q, uint64_t mask,
            const uint64_t *salts, size_t num_salts, uint64_t *out)
{
    size_t s = 0;
    for (; s + 4 <= num_salts; s += 4) {
        __m256i vsalts = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(salts + s));
        __m256i best = _mm256_set1_epi64x(-1);
        uint64_t packed = 0;
        for (size_t i = 0; i < len; ++i) {
            packed = ((packed << 2) | bases[i]) & mask;
            if (i + 1 < q)
                continue;
            __m256i state = _mm256_xor_si256(
                _mm256_set1_epi64x(static_cast<long long>(packed)),
                vsalts);
            best = umin64(best, mix64(state));
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + s),
                            best);
    }
    for (; s < num_salts; ++s) {
        uint64_t best = UINT64_MAX;
        uint64_t packed = 0;
        for (size_t i = 0; i < len; ++i) {
            packed = ((packed << 2) | bases[i]) & mask;
            if (i + 1 < q)
                continue;
            best = std::min(best, mix64Scalar(packed ^ salts[s]));
        }
        out[s] = best;
    }
}

} // namespace

const Kernels &
avx2Kernels()
{
    static const Kernels table = {editRowAvx2, minhashAvx2};
    return table;
}

} // namespace dnastore::simd::detail

#endif // x86
