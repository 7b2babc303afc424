/**
 * @file
 * Per-layer timing for the traced run.
 *
 * The store's public calls do not say where their time went, so the
 * traced run replays each operation through the layers' own public
 * functions from here: the wetlab (sim::runPcr, sim::sequencePool,
 * sim::synthesize, Pool::mixIn), the decode stages
 * (dna::alignPrimerToPrefix, cluster::clusterReads,
 * consensus::bmaDoubleSidedBatch, parseStrand + decodeNearest,
 * EncodingUnitCodec::decode), a whole Decoder::decodeAll and a
 * StreamingDecoder session on the same reads. Every replay checks its
 * counts and recovered units against Decoder::decodeAll, and its reads
 * against the DecodeStats of the operation it shadows, so the replay
 * cannot drift from the program. Spans are kept in memory and written
 * out once, at the end.
 */

#ifndef BLOCKBENCH_LAYERS_H
#define BLOCKBENCH_LAYERS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/block_device.h"
#include "helpers.h"

namespace blockbench {

/** What the device's wetlab does for one read call, restated. */
struct WetlabCall
{
    std::vector<dnastore::sim::PcrPrimer> primers;
    dnastore::sim::PcrParams pcr;
    size_t reads = 0;
};

/** Point read of @p block (elongated primer, touchdown PCR). */
WetlabCall pointCall(const dnastore::core::BlockDevice &device,
                     const dnastore::core::BlockDeviceParams &params,
                     uint64_t block);

/** Range read of [lo, hi] (multiplex PCR over the prefix cover). */
WetlabCall rangeCall(const dnastore::core::BlockDevice &device,
                     const dnastore::core::BlockDeviceParams &params,
                     uint64_t lo, uint64_t hi);

/** Whole-partition read (main primer, plain amplification). */
WetlabCall wholeCall(const dnastore::core::BlockDevice &device,
                     const dnastore::core::BlockDeviceParams &params);

class Tracer
{
  public:
    explicit Tracer(size_t threads);

    /** Run the wetlab of @p call on the device's pool as the device
     *  would for its next read; returns the reads it sequences. */
    std::vector<dnastore::sim::Read> replayWetlab(
        const dnastore::core::BlockDevice &device,
        const dnastore::core::BlockDeviceParams &params,
        const WetlabCall &call);

    /**
     * Replay the decode of @p reads stage by stage, then through
     * Decoder::decodeAll and a StreamingDecoder fed @p chunk reads at
     * a time expecting @p expected. @p program is the DecodeStats the
     * shadowed operation reported: a one-shot decode's when
     * @p program_streamed is false, a stream session's otherwise.
     * Mismatches go to violations().
     */
    void replayDecode(const dnastore::core::Decoder &decoder,
                      const std::vector<dnastore::sim::Read> &reads,
                      const std::vector<dnastore::core::UnitKey> &expected,
                      size_t chunk,
                      const dnastore::core::DecodeStats &program,
                      bool program_streamed);

    /** Replay the encode, synthesis and mixing of one update record of
     *  @p block (its @p n-th update) into a copy of the device's pool. */
    void replayWrite(const dnastore::core::BlockDevice &device,
                     const dnastore::core::BlockDeviceParams &params,
                     uint64_t block, unsigned n,
                     const dnastore::core::UpdateRecord &record);

    /** Time one real update call (core.device.update_ms). */
    void recordUpdate(double ms);

    /** Overflow hops one read call took. */
    void recordHops(size_t hops);

    /** Service queue wait and decode time per request. */
    void recordService(double queue_ms, double decode_ms);

    /** Per-layer metrics: name -> (value, unit). */
    std::map<std::string, std::pair<double, std::string>> metrics() const;

    const std::vector<std::string> &violations() const { return violations_; }

    /** Write every span as JSON lines to @p path. */
    bool writeSpans(const std::string &path) const;

    size_t spanCount() const { return spans_.size(); }

  private:
    struct Span
    {
        std::string name;
        uint64_t id = 0;
        uint64_t parent = 0;
        double start_us = 0.0;
        double dur_us = 0.0;
    };

    /** Time @p fn as span @p name under @p parent; returns ms. */
    template <typename Fn>
    double timed(const char *name, uint64_t parent, Fn &&fn);

    uint64_t openOp(const char *name);
    void closeOp(uint64_t id);

    dnastore::ThreadPool pool_;
    double origin_us_ = 0.0;
    std::vector<Span> spans_;
    std::vector<std::string> violations_;

    /** Sums (ms) and event counts per metric name. */
    std::map<std::string, double> sum_;
    std::map<std::string, double> count_;

    void add(const std::string &name, double value)
    {
        sum_[name] += value;
        count_[name] += 1.0;
    }
};

} // namespace blockbench

#endif // BLOCKBENCH_LAYERS_H
