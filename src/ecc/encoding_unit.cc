#include "ecc/encoding_unit.h"

#include <algorithm>
#include <cstring>

#include "common/arena.h"
#include "common/error.h"

namespace dnastore::ecc {

namespace {

/** Split bytes into nibbles, high nibble first. */
std::vector<uint8_t>
toNibbles(const Bytes &data)
{
    std::vector<uint8_t> nibbles;
    nibbles.reserve(data.size() * 2);
    for (uint8_t byte : data) {
        nibbles.push_back(byte >> 4);
        nibbles.push_back(byte & 0xf);
    }
    return nibbles;
}

/** Join nibbles (high first) back into bytes. */
Bytes
toBytes(const uint8_t *nibbles, size_t count)
{
    Bytes data;
    data.reserve(count / 2);
    for (size_t i = 0; i + 1 < count; i += 2) {
        data.push_back(static_cast<uint8_t>((nibbles[i] << 4) |
                                            (nibbles[i + 1] & 0xf)));
    }
    return data;
}

} // namespace

EncodingUnitCodec::EncodingUnitCodec(unsigned n, unsigned k,
                                     size_t column_bytes)
    : n_(n), k_(k), column_bytes_(column_bytes), rs_(n, k)
{
    fatalIf(column_bytes == 0, "EncodingUnitCodec: zero column size");
}

std::vector<Bytes>
EncodingUnitCodec::encode(const Bytes &unit_data) const
{
    fatalIf(unit_data.size() != dataBytes(),
            "EncodingUnitCodec::encode expects ", dataBytes(),
            " bytes, got ", unit_data.size());

    const size_t row_count = rows();
    std::vector<uint8_t> nibbles = toNibbles(unit_data);

    // nibbles are laid out column-major: column c of the data part
    // holds nibbles [c*rows, (c+1)*rows).
    std::vector<std::vector<uint8_t>> columns(
        n_, std::vector<uint8_t>(row_count, 0));
    for (unsigned c = 0; c < k_; ++c) {
        for (size_t r = 0; r < row_count; ++r)
            columns[c][r] = nibbles[c * row_count + r];
    }

    // Each row is an RS codeword across the n columns.
    std::vector<uint8_t> row_data(k_);
    for (size_t r = 0; r < row_count; ++r) {
        for (unsigned c = 0; c < k_; ++c)
            row_data[c] = columns[c][r];
        std::vector<uint8_t> codeword = rs_.encode(row_data);
        for (unsigned c = k_; c < n_; ++c)
            columns[c][r] = codeword[c];
    }

    std::vector<Bytes> payloads;
    payloads.reserve(n_);
    for (unsigned c = 0; c < n_; ++c)
        payloads.push_back(toBytes(columns[c].data(), columns[c].size()));
    return payloads;
}

UnitDecodeResult
EncodingUnitCodec::decode(
    const std::vector<std::optional<Bytes>> &columns) const
{
    UnitDecodeResult result;
    fatalIf(columns.size() != n_,
            "EncodingUnitCodec::decode expects ", n_, " columns, got ",
            columns.size());

    const size_t row_count = rows();
    const unsigned parity = n_ - k_;
    Arena &arena = Arena::scratch();
    ArenaScope scope(arena);

    // Column nibbles, flat [c * row_count + r]; erased columns are
    // zeroed so they contribute known values to every row codeword.
    uint8_t *nibbles = arena.allocArray<uint8_t>(n_ * row_count);
    const uint8_t **col_ptrs =
        arena.allocArray<const uint8_t *>(n_);
    std::vector<size_t> erasures;
    for (unsigned c = 0; c < n_; ++c) {
        uint8_t *col = nibbles + c * row_count;
        col_ptrs[c] = col;
        if (!columns[c].has_value()) {
            erasures.push_back(c);
            std::memset(col, 0, row_count);
            continue;
        }
        fatalIf(columns[c]->size() != column_bytes_,
                "column ", c, " has ", columns[c]->size(),
                " bytes, expected ", column_bytes_);
        const Bytes &bytes = *columns[c];
        for (size_t b = 0; b < bytes.size(); ++b) {
            col[2 * b] = bytes[b] >> 4;
            col[2 * b + 1] = bytes[b] & 0xf;
        }
    }

    // One pass computes every syndrome of every row codeword
    // (synd[s * row_count + r] = syndrome s of row r), so clean rows
    // — the overwhelming majority — never materialize a received
    // word or touch the RS decoder at all.
    uint8_t *synd = arena.allocArray<uint8_t>(parity * row_count);
    rs_.rowSyndromes(col_ptrs, row_count, synd);

    uint8_t *data_nibbles = arena.allocArray<uint8_t>(k_ * row_count);
    std::memset(data_nibbles, 0, k_ * row_count);
    std::vector<uint8_t> received(n_);
    for (size_t r = 0; r < row_count; ++r) {
        bool clean = true;
        for (unsigned s = 0; s < parity && clean; ++s)
            clean = synd[s * row_count + r] == 0;
        if (clean && erasures.empty()) {
            // All-zero syndromes and nothing erased: the row already
            // is a codeword. Same outcome and stats (zero errors,
            // zero erasures) as the RS decoder's fast path.
            for (unsigned c = 0; c < k_; ++c)
                data_nibbles[c * row_count + r] = col_ptrs[c][r];
            continue;
        }
        for (unsigned c = 0; c < n_; ++c)
            received[c] = col_ptrs[c][r];
        uint8_t row_synd[15];
        for (unsigned s = 0; s < parity; ++s)
            row_synd[s] = synd[s * row_count + r];
        RsDecodeResult row =
            rs_.decodeWithSyndromes(received, erasures, row_synd);
        if (!row.ok()) {
            result.failed_rows.push_back(r);
            continue;
        }
        result.symbol_errors_corrected += row.errors_corrected;
        result.erasures_filled += row.erasures_filled;
        result.max_row_correction_load =
            std::max(result.max_row_correction_load,
                     row.erasures_filled + 2 * row.errors_corrected);
        for (unsigned c = 0; c < k_; ++c)
            data_nibbles[c * row_count + r] = (*row.codeword)[c];
    }

    if (!result.failed_rows.empty())
        return result;
    result.data = toBytes(data_nibbles, k_ * row_count);
    return result;
}

} // namespace dnastore::ecc
