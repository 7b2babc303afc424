#include "ecc/reed_solomon256.h"

#include <algorithm>
#include <array>

#include "common/error.h"
#include "ecc/gf256.h"

namespace dnastore::ecc {

namespace {

using Poly = std::vector<uint8_t>;

uint8_t
polyEval(const Poly &poly, uint8_t x)
{
    uint8_t acc = 0;
    for (auto it = poly.rbegin(); it != poly.rend(); ++it)
        acc = GF256::add(GF256::mul(acc, x), *it);
    return acc;
}

Poly
polyMul(const Poly &a, const Poly &b)
{
    Poly result(a.size() + b.size() - 1, 0);
    for (size_t i = 0; i < a.size(); ++i) {
        for (size_t j = 0; j < b.size(); ++j) {
            result[i + j] = GF256::add(result[i + j],
                                       GF256::mul(a[i], b[j]));
        }
    }
    return result;
}

Poly
polyDerivative(const Poly &poly)
{
    Poly result;
    for (size_t i = 1; i < poly.size(); ++i)
        result.push_back(i % 2 == 1 ? poly[i] : 0);
    if (result.empty())
        result.push_back(0);
    return result;
}

} // namespace

ReedSolomon256::ReedSolomon256(unsigned n, unsigned k) : n_(n), k_(k)
{
    fatalIf(n > GF256::kMultGroupOrder,
            "RS256 codeword length ", n, " exceeds 255");
    fatalIf(k >= n, "RS256 requires k < n");
    generator_ = {1};
    for (unsigned i = 1; i <= n_ - k_; ++i) {
        Poly factor = {GF256::alphaPow(static_cast<int>(i)), 1};
        generator_ = polyMul(generator_, factor);
    }

    const unsigned parity = n_ - k_;
    syndrome_coeffs_.resize(static_cast<size_t>(n_) * parity);
    for (unsigned i = 0; i < n_; ++i) {
        for (unsigned s = 0; s < parity; ++s) {
            syndrome_coeffs_[i * parity + s] = GF256::alphaPow(
                static_cast<int>((s + 1) * (n_ - 1 - i)));
        }
    }
    chien_powers_.resize(static_cast<size_t>(parity + 1) * n_);
    for (unsigned d = 0; d <= parity; ++d) {
        for (unsigned pos = 0; pos < n_; ++pos) {
            chien_powers_[d * n_ + pos] = GF256::alphaPow(
                -static_cast<int>(d * (n_ - 1 - pos)));
        }
    }
}

std::vector<uint8_t>
ReedSolomon256::encode(const std::vector<uint8_t> &data) const
{
    fatalIf(data.size() != k_, "RS256 encode expects ", k_,
            " symbols, got ", data.size());
    const unsigned parity_len = n_ - k_;
    std::vector<uint8_t> remainder(parity_len, 0);
    for (uint8_t symbol : data) {
        uint8_t feedback = GF256::add(symbol, remainder[0]);
        for (unsigned j = 0; j + 1 < parity_len; ++j) {
            remainder[j] = GF256::add(
                remainder[j + 1],
                GF256::mul(feedback, generator_[parity_len - 1 - j]));
        }
        remainder[parity_len - 1] =
            GF256::mul(feedback, generator_[0]);
    }
    std::vector<uint8_t> codeword = data;
    codeword.insert(codeword.end(), remainder.begin(), remainder.end());
    return codeword;
}

std::vector<uint8_t>
ReedSolomon256::computeSyndromes(
    const std::vector<uint8_t> &received) const
{
    // S_s = sum_i received[i] * alpha^((s+1)*(n-1-i)): accumulate one
    // mul-by-constant row per nonzero symbol across all syndromes at
    // once. Field-identical to the Horner reference (GF sums are
    // XORs, so the accumulation order does not matter).
    std::vector<uint8_t> syndromes(n_ - k_, 0);
    const unsigned parity = n_ - k_;
    for (unsigned i = 0; i < n_; ++i) {
        if (received[i] == 0)
            continue;
        const uint8_t *coeffs = syndrome_coeffs_.data() + i * parity;
        for (unsigned s = 0; s < parity; ++s)
            syndromes[s] ^= GF256::mul(received[i], coeffs[s]);
    }
    return syndromes;
}

Rs256DecodeResult
ReedSolomon256::decode(const std::vector<uint8_t> &received,
                       const std::vector<size_t> &erasures) const
{
    Rs256DecodeResult result;
    fatalIf(received.size() != n_, "RS256 decode expects ", n_,
            " symbols");
    for (size_t pos : erasures)
        fatalIf(pos >= n_, "erasure position out of range");
    if (erasures.size() > n_ - k_)
        return result;

    std::vector<uint8_t> word = received;
    for (size_t pos : erasures)
        word[pos] = 0;

    std::vector<uint8_t> syndromes = computeSyndromes(word);
    bool all_zero = std::all_of(syndromes.begin(), syndromes.end(),
                                [](uint8_t s) { return s == 0; });
    if (all_zero && erasures.empty()) {
        result.codeword = word;
        return result;
    }

    Poly erasure_locator = {1};
    for (size_t pos : erasures) {
        uint8_t root = GF256::alphaPow(static_cast<int>(n_ - 1 - pos));
        erasure_locator = polyMul(erasure_locator, {1, root});
    }

    Poly syndrome_poly(syndromes.begin(), syndromes.end());
    Poly modified = polyMul(syndrome_poly, erasure_locator);
    modified.resize(n_ - k_, 0);

    const unsigned rho = static_cast<unsigned>(erasures.size());
    const unsigned max_errors = (n_ - k_ - rho) / 2;
    Poly sigma = {1};
    Poly prev_sigma = {1};
    unsigned errors = 0;
    unsigned m = 1;
    uint8_t prev_discrepancy = 1;
    for (unsigned i = rho; i < n_ - k_; ++i) {
        uint8_t discrepancy = modified[i];
        for (unsigned j = 1; j <= errors && j < sigma.size(); ++j) {
            discrepancy = GF256::add(
                discrepancy, GF256::mul(sigma[j], modified[i - j]));
        }
        if (discrepancy == 0) {
            ++m;
            continue;
        }
        Poly shifted(m, 0);
        shifted.insert(shifted.end(), prev_sigma.begin(),
                       prev_sigma.end());
        uint8_t scale = GF256::div(discrepancy, prev_discrepancy);
        if (2 * errors <= i - rho) {
            Poly old_sigma = sigma;
            if (sigma.size() < shifted.size())
                sigma.resize(shifted.size(), 0);
            for (size_t j = 0; j < shifted.size(); ++j) {
                sigma[j] = GF256::add(sigma[j],
                                      GF256::mul(scale, shifted[j]));
            }
            errors = i - rho + 1 - errors;
            prev_sigma = old_sigma;
            prev_discrepancy = discrepancy;
            m = 1;
        } else {
            if (sigma.size() < shifted.size())
                sigma.resize(shifted.size(), 0);
            for (size_t j = 0; j < shifted.size(); ++j) {
                sigma[j] = GF256::add(sigma[j],
                                      GF256::mul(scale, shifted[j]));
            }
            ++m;
        }
    }
    if (errors > max_errors)
        return result;

    Poly locator = polyMul(sigma, erasure_locator);

    // Chien search over all candidate positions at once: evaluate
    // the locator at every alpha^-(n-1-pos) by accumulating one
    // mul-by-coefficient row per locator degree.
    std::array<uint8_t, GF256::kMultGroupOrder> chien_eval{};
    for (size_t d = 0; d < locator.size(); ++d) {
        if (locator[d] == 0)
            continue;
        // BM keeps deg(sigma) <= errors and deg(erasure locator) =
        // rho, and errors <= (parity - rho) / 2 was checked above,
        // so every nonzero coefficient has a precomputed row.
        panicIf(d >= static_cast<size_t>(n_ - k_) + 1,
                "RS256 locator degree exceeds parity");
        const uint8_t *powers = chien_powers_.data() + d * n_;
        for (unsigned pos = 0; pos < n_; ++pos)
            chien_eval[pos] ^= GF256::mul(locator[d], powers[pos]);
    }
    std::vector<size_t> error_positions;
    for (unsigned pos = 0; pos < n_; ++pos) {
        if (chien_eval[pos] == 0)
            error_positions.push_back(pos);
    }
    size_t degree = 0;
    for (size_t i = 0; i < locator.size(); ++i) {
        if (locator[i] != 0)
            degree = i;
    }
    if (error_positions.size() != degree)
        return result;

    Poly omega = polyMul(syndrome_poly, locator);
    omega.resize(n_ - k_, 0);
    Poly locator_deriv = polyDerivative(locator);

    size_t plain_errors = 0;
    for (size_t pos : error_positions) {
        int j = static_cast<int>(n_ - 1 - pos);
        uint8_t x_inv = GF256::alphaPow(-j);
        uint8_t denominator = polyEval(locator_deriv, x_inv);
        if (denominator == 0)
            return result;
        uint8_t magnitude =
            GF256::div(polyEval(omega, x_inv), denominator);
        word[pos] = GF256::add(word[pos], magnitude);
        bool was_erasure =
            std::find(erasures.begin(), erasures.end(), pos) !=
            erasures.end();
        if (!was_erasure && magnitude != 0)
            ++plain_errors;
    }

    std::vector<uint8_t> check = computeSyndromes(word);
    if (!std::all_of(check.begin(), check.end(),
                     [](uint8_t s) { return s == 0; })) {
        return result;
    }
    result.codeword = word;
    result.errors_corrected = plain_errors;
    result.erasures_filled = erasures.size();
    return result;
}

} // namespace dnastore::ecc
