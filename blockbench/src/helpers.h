/**
 * @file
 * Input generation and checking helpers of the block-storage benchmark.
 *
 * Everything the benchmark uses to decide what to ask the store and
 * whether the answer is right lives here, apart from the program under
 * test: a seeded generator, a zipfian key sampler, the nearest-rank
 * percentile rule, and a model of every block that applies updates
 * with its own code for the documented UpdateOp semantics (delete
 * first, then insert at the position taken after the deletion, then
 * truncate or zero-pad to the block size; a replacement pads).
 */

#ifndef BLOCKBENCH_HELPERS_H
#define BLOCKBENCH_HELPERS_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace blockbench {

using Bytes = std::vector<uint8_t>;

/** User bytes per block. */
inline constexpr size_t kBlockBytes = 256;

/** SplitMix64: the benchmark's own seeded stream. */
class SplitMix
{
  public:
    explicit SplitMix(uint64_t seed) : state_(seed) {}

    uint64_t
    next()
    {
        uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, n). */
    uint64_t below(uint64_t n) { return n == 0 ? 0 : next() % n; }

    /** Uniform in [0, 1). */
    double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

    Bytes
    bytes(size_t n)
    {
        Bytes out(n);
        for (uint8_t &b : out)
            b = static_cast<uint8_t>(next());
        return out;
    }

  private:
    uint64_t state_;
};

/** Zipfian ranks over [0, n): P(k) proportional to 1 / (k + 1)^theta. */
class Zipf
{
  public:
    Zipf(size_t n, double theta) : cdf_(n)
    {
        double total = 0.0;
        for (size_t k = 0; k < n; ++k) {
            total += std::pow(static_cast<double>(k + 1), -theta);
            cdf_[k] = total;
        }
        for (double &c : cdf_)
            c /= total;
    }

    double
    pmf(size_t k) const
    {
        return k == 0 ? cdf_[0] : cdf_[k] - cdf_[k - 1];
    }

    size_t
    sample(SplitMix &rng) const
    {
        double u = rng.unit();
        size_t k = static_cast<size_t>(
            std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
        return std::min(k, cdf_.size() - 1);
    }

    size_t size() const { return cdf_.size(); }

  private:
    std::vector<double> cdf_;
};

/** Nearest-rank percentile: the ceil(q * n)-th smallest sample. */
inline double
percentile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(samples.size())));
    rank = std::clamp<size_t>(rank, 1, samples.size());
    return samples[rank - 1];
}

/** Samples that lie beyond the nearest-rank q-percentile of n. */
inline size_t
samplesBeyond(size_t n, double q)
{
    size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
    return n - std::min(rank, n);
}

/** A tail percentile is a tail only with ten samples beyond it and
 *  forty samples in all. */
inline bool
tailReportable(size_t n, double q)
{
    return n >= 40 && samplesBeyond(n, q) >= 10;
}

/** One delete-then-insert edit, as the benchmark generates it. */
struct Edit
{
    size_t delete_pos = 0;
    size_t delete_len = 0;
    size_t insert_pos = 0;
    Bytes insert;
};

/** Delete first, insert at the post-deletion position, then truncate
 *  or zero-pad to kBlockBytes. Positions past the end clamp to it. */
inline Bytes
applyEdit(const Bytes &block, const Edit &edit)
{
    Bytes out;
    out.reserve(block.size() + edit.insert.size());
    size_t del_lo = std::min(edit.delete_pos, block.size());
    size_t del_hi = std::min(del_lo + edit.delete_len, block.size());
    out.insert(out.end(), block.begin(),
               block.begin() + static_cast<ptrdiff_t>(del_lo));
    out.insert(out.end(), block.begin() + static_cast<ptrdiff_t>(del_hi),
               block.end());
    size_t at = std::min(edit.insert_pos, out.size());
    out.insert(out.begin() + static_cast<ptrdiff_t>(at),
               edit.insert.begin(), edit.insert.end());
    out.resize(kBlockBytes, 0);
    return out;
}

/** A replacement zero-padded to kBlockBytes. */
inline Bytes
applyReplace(const Bytes &content)
{
    Bytes out = content;
    out.resize(kBlockBytes, 0);
    return out;
}

/** The benchmark's own view of one file: every block's expected bytes
 *  and the number of updates logged against it. */
class FileModel
{
  public:
    explicit FileModel(const Bytes &data)
    {
        for (size_t at = 0; at < data.size(); at += kBlockBytes) {
            Bytes block(data.begin() + static_cast<ptrdiff_t>(at),
                        data.begin() + static_cast<ptrdiff_t>(
                                           std::min(at + kBlockBytes,
                                                    data.size())));
            block.resize(kBlockBytes, 0);
            blocks_.push_back(std::move(block));
        }
        updates_.assign(blocks_.size(), 0);
    }

    size_t blockCount() const { return blocks_.size(); }
    const Bytes &block(size_t b) const { return blocks_[b]; }
    unsigned updates(size_t b) const { return updates_[b]; }

    /** Encoding units the next update of block @p b synthesizes: its
     *  record, plus a pointer record when it opens an overflow
     *  container (two inline slots, then three records per
     *  container). */
    unsigned
    unitsForNextUpdate(size_t b) const
    {
        unsigned n = updates_[b];
        return n >= 2 && (n - 2) % 3 == 0 ? 2 : 1;
    }

    /** PCR + sequencing round trips a read of block @p b takes:
     *  1 + ceil(max(0, n - 2) / 3). */
    unsigned
    roundTrips(size_t b) const
    {
        unsigned n = updates_[b];
        return 1 + (n > 2 ? (n - 2 + 2) / 3 : 0);
    }

    void
    edit(size_t b, const Edit &e)
    {
        blocks_[b] = applyEdit(blocks_[b], e);
        ++updates_[b];
    }

    void
    replace(size_t b, const Bytes &content)
    {
        blocks_[b] = applyReplace(content);
        ++updates_[b];
    }

  private:
    std::vector<Bytes> blocks_;
    std::vector<unsigned> updates_;
};

} // namespace blockbench

#endif // BLOCKBENCH_HELPERS_H
