/**
 * @file
 * GF(16) arithmetic for the outer Reed-Solomon code.
 *
 * The paper's wetlab setup uses 4-bit Reed-Solomon symbols so that a
 * codeword has 2^4 - 1 = 15 symbols, matching the 15-molecule
 * encoding unit (11 data + 4 ECC molecules, Section 6.2). The field
 * is GF(2^4) with the primitive polynomial x^4 + x + 1 (0x13).
 */

#ifndef DNASTORE_ECC_GF16_H
#define DNASTORE_ECC_GF16_H

#include <array>
#include <cstdint>

namespace dnastore::ecc {

/**
 * Arithmetic over GF(2^4), elements are the values 0..15.
 *
 * Zero-handling contract: zero has no discrete log, so every
 * operation that would consult log[0] either branches it away (mul
 * returns 0 early) or panics (div/inv/log). The log table stores
 * kZeroLogSentinel at index 0 — an out-of-range exponent chosen so
 * that any accidental read produces detectably wrong results instead
 * of silently aliasing log[1] == 0. Lookup tables must therefore be
 * built from the zero-checked ops (see mulTable()), never from raw
 * log/exp lookups.
 */
class GF16
{
  public:
    static constexpr unsigned kFieldSize = 16;
    static constexpr unsigned kMultGroupOrder = 15;

    /** Stored in log[0]; deliberately not a valid exponent. */
    static constexpr uint8_t kZeroLogSentinel = 15;

    /** Addition == subtraction == XOR in characteristic 2. */
    static uint8_t add(uint8_t a, uint8_t b) { return a ^ b; }
    static uint8_t sub(uint8_t a, uint8_t b) { return a ^ b; }

    /** Field multiplication via log/antilog tables. */
    static uint8_t mul(uint8_t a, uint8_t b);

    /** Field division; throws PanicError on division by zero. */
    static uint8_t div(uint8_t a, uint8_t b);

    /** Multiplicative inverse; throws PanicError for zero. */
    static uint8_t inv(uint8_t a);

    /** a raised to the (possibly negative) power n. */
    static uint8_t pow(uint8_t a, int n);

    /** alpha^n where alpha = 2 is the primitive element. */
    static uint8_t alphaPow(int n);

    /** Discrete log base alpha; input must be nonzero. */
    static unsigned log(uint8_t a);

    /**
     * 16-entry multiply-by-constant row: mulTable(c)[v] == mul(c, v)
     * for v in 0..15, the per-syndrome multiplier of
     * ReedSolomon::rowSyndromes(). Rows are built once through the
     * zero-checked mul(), so a lookup never reads log[0]
     * (tests/gf16_test.cc pins both properties).
     */
    static const uint8_t *mulTable(uint8_t c);

  private:
    struct Tables
    {
        std::array<uint8_t, 16> log;
        std::array<uint8_t, 32> exp;
        Tables();
    };
    static const Tables &tables();
};

} // namespace dnastore::ecc

#endif // DNASTORE_ECC_GF16_H
