/**
 * @file
 * GF(256) arithmetic for large encoding units.
 *
 * The paper's miniaturized wetlab uses 4-bit RS symbols so a unit is
 * 15 molecules (Section 6.2), but the reference architecture [23]
 * groups tens of thousands of molecules per unit with byte-wide
 * symbols. GF(2^8) with the primitive polynomial x^8 + x^4 + x^3 +
 * x^2 + 1 (0x11d) supports codewords up to 255 symbols.
 */

#ifndef DNASTORE_ECC_GF256_H
#define DNASTORE_ECC_GF256_H

#include <array>
#include <cstdint>

namespace dnastore::ecc {

/**
 * Arithmetic over GF(2^8); elements are the values 0..255.
 *
 * Zero-handling contract: zero has no discrete log; mul() branches
 * zero operands away before any table lookup and div/inv/log panic.
 * log[0] holds kZeroLogSentinel, an out-of-range exponent, so an
 * accidental read is detectably wrong rather than aliasing
 * log[1] == 0.
 */
class GF256
{
  public:
    static constexpr unsigned kFieldSize = 256;
    static constexpr unsigned kMultGroupOrder = 255;

    /** Stored in log[0]; deliberately not a valid exponent. */
    static constexpr uint8_t kZeroLogSentinel = 255;

    static uint8_t add(uint8_t a, uint8_t b) { return a ^ b; }
    static uint8_t sub(uint8_t a, uint8_t b) { return a ^ b; }

    static uint8_t mul(uint8_t a, uint8_t b);
    static uint8_t div(uint8_t a, uint8_t b);
    static uint8_t inv(uint8_t a);
    static uint8_t pow(uint8_t a, int n);

    /** alpha^n where alpha = 2 generates the multiplicative group. */
    static uint8_t alphaPow(int n);

    /** Discrete log base alpha; input must be nonzero. */
    static unsigned log(uint8_t a);

  private:
    struct Tables
    {
        std::array<uint8_t, 256> log;
        std::array<uint8_t, 512> exp;
        Tables();
    };
    static const Tables &tables();
};

} // namespace dnastore::ecc

#endif // DNASTORE_ECC_GF256_H
