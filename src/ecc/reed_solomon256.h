/**
 * @file
 * Reed-Solomon over GF(256) with errors-and-erasures decoding, for
 * large encoding units (up to 255 molecules per codeword, the scale
 * of the reference architecture [23]).
 *
 * The algorithmic structure mirrors the GF(16) implementation
 * (syndromes, erasure locator, Berlekamp-Massey, Chien, Forney);
 * symbols are full bytes so one molecule column contributes one
 * byte per codeword row.
 */

#ifndef DNASTORE_ECC_REED_SOLOMON256_H
#define DNASTORE_ECC_REED_SOLOMON256_H

#include <cstdint>
#include <optional>
#include <vector>

namespace dnastore::ecc {

/** Outcome of a decode attempt. */
struct Rs256DecodeResult
{
    std::optional<std::vector<uint8_t>> codeword;
    size_t errors_corrected = 0;
    size_t erasures_filled = 0;

    bool ok() const { return codeword.has_value(); }
};

/** Systematic RS(n, k) over GF(256), n <= 255. */
class ReedSolomon256
{
  public:
    ReedSolomon256(unsigned n, unsigned k);

    unsigned n() const { return n_; }
    unsigned k() const { return k_; }
    unsigned parity() const { return n_ - k_; }

    std::vector<uint8_t> encode(const std::vector<uint8_t> &data) const;

    Rs256DecodeResult decode(
        const std::vector<uint8_t> &received,
        const std::vector<size_t> &erasures = {}) const;

  private:
    unsigned n_;
    unsigned k_;
    std::vector<uint8_t> generator_;

    /** syndrome_coeffs_[i * parity + s] = alpha^((s+1)*(n-1-i)):
     *  position i's contribution weights, so the syndrome vector is
     *  an XOR of mul-by-received[i] rows. */
    std::vector<uint8_t> syndrome_coeffs_;

    /** chien_powers_[d * n + pos] = alpha^(-d*(n-1-pos)): degree d's
     *  contribution to evaluating the locator at every candidate
     *  root at once ((parity+1) rows of n). */
    std::vector<uint8_t> chien_powers_;

    std::vector<uint8_t> computeSyndromes(
        const std::vector<uint8_t> &received) const;
};

} // namespace dnastore::ecc

#endif // DNASTORE_ECC_REED_SOLOMON256_H
