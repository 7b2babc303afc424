#include "layers.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <optional>
#include <tuple>

#include "cluster/clusterer.h"
#include "codec/base_codec.h"
#include "common/rng.h"
#include "consensus/bma.h"
#include "core/layout.h"
#include "dna/distance.h"
#include "sim/synthesis.h"

namespace blockbench {

using namespace dnastore;

namespace {

double
nowUs()
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One reconstructed strand placed at its (block, version, column). */
struct Candidate
{
    Bytes payload;
    size_t cluster_size = 0;
    size_t index_mismatches = 0;
};

using Address = std::tuple<uint64_t, unsigned, unsigned>;

/** The decode counts the replay and Decoder::decodeAll must share. */
struct Counts
{
    size_t matched = 0;
    size_t clusters = 0;
    size_t used = 0;
    size_t rejects = 0;
    size_t attempted = 0;
    size_t decoded = 0;
    size_t retries = 0;
};

/** RS decode of one unit with the Section 8.1 fallback: primary
 *  candidates, then one alternate at a time, then erasing the least
 *  trusted columns. */
std::optional<Bytes>
decodeUnit(const core::Partition &partition,
           const std::map<unsigned, const std::vector<Candidate> *> &columns,
           size_t *retries)
{
    const core::PartitionConfig &config = partition.config();
    std::vector<std::optional<Bytes>> primary(config.rs_n);
    for (const auto &[column, slot] : columns)
        primary[column] = slot->front().payload;
    ecc::UnitDecodeResult result = partition.unitCodec().decode(primary);
    auto trial = primary;
    for (const auto &[column, slot] : columns) {
        for (size_t alt = 1; !result.ok() && alt < slot->size(); ++alt) {
            trial[column] = (*slot)[alt].payload;
            ++*retries;
            result = partition.unitCodec().decode(trial);
        }
        trial[column] = primary[column];
        if (result.ok())
            break;
    }
    if (!result.ok()) {
        std::vector<unsigned> order;
        for (const auto &[column, slot] : columns)
            order.push_back(column);
        std::sort(order.begin(), order.end(), [&](unsigned a, unsigned b) {
            const Candidate &ca = columns.at(a)->front();
            const Candidate &cb = columns.at(b)->front();
            if (ca.index_mismatches != cb.index_mismatches)
                return ca.index_mismatches > cb.index_mismatches;
            return ca.cluster_size < cb.cluster_size;
        });
        size_t erase = std::min<size_t>(order.size(),
                                        config.rs_n - config.rs_k);
        for (size_t e = 0; e < erase && !result.ok(); ++e) {
            trial[order[e]].reset();
            ++*retries;
            result = partition.unitCodec().decode(trial);
        }
    }
    if (!result.ok())
        return std::nullopt;
    return *result.data;
}

} // namespace

WetlabCall
pointCall(const core::BlockDevice &device,
          const core::BlockDeviceParams &params, uint64_t block)
{
    WetlabCall call;
    call.primers = {sim::PcrPrimer{device.partition().blockPrimer(block), 1.0}};
    call.pcr = params.pcr;
    call.pcr.cycles = params.block_access_cycles;
    call.pcr.stringency = sim::touchdownSchedule(params.touchdown_cycles,
                                                 params.block_access_cycles);
    call.reads = params.reads_per_block_access;
    return call;
}

WetlabCall
rangeCall(const core::BlockDevice &device,
          const core::BlockDeviceParams &params, uint64_t lo, uint64_t hi)
{
    WetlabCall call = pointCall(device, params, lo);
    std::vector<dna::Sequence> cover = device.partition().rangePrimers(lo, hi);
    call.primers.clear();
    for (dna::Sequence &seq : cover)
        call.primers.push_back(sim::PcrPrimer{
            std::move(seq), 1.0 / static_cast<double>(cover.size())});
    call.reads = static_cast<size_t>(
        params.coverage *
        static_cast<double>((hi - lo + 1) * params.config.rs_n) * 4.0);
    return call;
}

WetlabCall
wholeCall(const core::BlockDevice &device,
          const core::BlockDeviceParams &params)
{
    WetlabCall call;
    call.primers = {sim::PcrPrimer{device.partition().forwardPrimer(), 1.0}};
    call.pcr = params.pcr;
    call.pcr.cycles = 15;
    call.reads = static_cast<size_t>(
        params.coverage *
        static_cast<double>(device.pool().speciesCount()));
    return call;
}

Tracer::Tracer(size_t threads) : pool_(threads), origin_us_(nowUs()) {}

template <typename Fn>
double
Tracer::timed(const char *name, uint64_t parent, Fn &&fn)
{
    Span span;
    span.name = name;
    span.id = spans_.size() + 1;
    span.parent = parent;
    span.start_us = nowUs() - origin_us_;
    fn();
    span.dur_us = nowUs() - origin_us_ - span.start_us;
    spans_.push_back(span);
    return span.dur_us / 1000.0;
}

uint64_t
Tracer::openOp(const char *name)
{
    Span span;
    span.name = name;
    span.id = spans_.size() + 1;
    span.start_us = nowUs() - origin_us_;
    spans_.push_back(span);
    return span.id;
}

void
Tracer::closeOp(uint64_t id)
{
    Span &span = spans_[id - 1];
    span.dur_us = nowUs() - origin_us_ - span.start_us;
}

std::vector<sim::Read>
Tracer::replayWetlab(const core::BlockDevice &device,
                     const core::BlockDeviceParams &params,
                     const WetlabCall &call)
{
    uint64_t op = openOp("replay.wetlab");
    sim::Pool product;
    sim::PcrStats stats;
    add("sim.pcr_ms", timed("sim.pcr", op, [&] {
        product = sim::runPcr(device.pool(), call.primers,
                              device.partition().reversePrimer(), call.pcr,
                              &stats);
    }));
    add("sim.pcr_species_in", static_cast<double>(device.pool().speciesCount()));
    add("sim.pcr_misprimed_frac",
        product.massFraction([](const sim::Species &s) {
            return s.info.misprimed;
        }));
    sim::SequencerParams sequencer = params.sequencer;
    sequencer.seed = Rng::deriveSeed(params.sequencer.seed,
                                     device.costs().readsSequenced());
    std::vector<sim::Read> reads;
    add("sim.sequence_ms", timed("sim.sequence", op, [&] {
        reads = sim::sequencePool(product, call.reads, sequencer);
    }));
    closeOp(op);
    return reads;
}

void
Tracer::replayDecode(const core::Decoder &decoder,
                     const std::vector<sim::Read> &reads,
                     const std::vector<core::UnitKey> &expected,
                     size_t chunk, const core::DecodeStats &program,
                     bool program_streamed)
{
    const core::Partition &partition = decoder.partition();
    const core::PartitionConfig &config = partition.config();
    const core::DecoderParams &params = decoder.params();
    uint64_t op = openOp("replay.decode");
    Counts counts;

    std::vector<dna::Sequence> matched;
    add("dna.primer_filter_ms", timed("dna.primer_filter", op, [&] {
        std::vector<uint8_t> keep(reads.size(), 0);
        const dna::Sequence &stem = partition.elongation().stem();
        pool_.parallelFor(reads.size(), [&](size_t i) {
            keep[i] = dna::alignPrimerToPrefix(stem, reads[i].seq,
                                               params.primer_match_dist)
                          .distance != dna::kDistanceInfinity;
        });
        for (size_t i = 0; i < reads.size(); ++i)
            if (keep[i])
                matched.push_back(reads[i].seq);
    }));
    counts.matched = matched.size();

    std::vector<cluster::Cluster> clusters;
    add("cluster.cluster_ms", timed("cluster.cluster", op, [&] {
        if (!matched.empty())
            clusters = cluster::clusterReads(matched, params.cluster, &pool_);
    }));
    counts.clusters = clusters.size();
    while (counts.used < clusters.size() &&
           clusters[counts.used].size() >= params.min_cluster_size)
        ++counts.used;

    std::vector<dna::Sequence> strands;
    add("consensus.bma_ms", timed("consensus.bma", op, [&] {
        std::vector<std::vector<size_t>> members(counts.used);
        for (size_t i = 0; i < counts.used; ++i)
            members[i] = clusters[i].members;
        strands = consensus::bmaDoubleSidedBatch(
            matched, members, config.strand_length, params.bma, &pool_);
    }));

    std::map<Address, std::vector<Candidate>> slots;
    add("index.decode_ms", timed("index.decode", op, [&] {
        for (size_t i = 0; i < counts.used; ++i) {
            std::optional<core::StrandFields> fields =
                core::parseStrand(config, strands[i]);
            if (!fields)
                continue;
            index::IndexMatch match =
                partition.tree().decodeNearest(fields->address);
            unsigned column = core::decodeIntra(config, fields->intra);
            if (match.mismatches > params.max_index_mismatches ||
                column >= config.rs_n) {
                ++counts.rejects;
                continue;
            }
            std::vector<Candidate> &slot =
                slots[{match.block, match.version, column}];
            if (slot.size() < params.max_candidates_per_address)
                slot.push_back({codec::basesToBytes(fields->payload),
                                clusters[i].size(), match.mismatches});
        }
        for (auto &[address, slot] : slots)
            std::sort(slot.begin(), slot.end(),
                      [](const Candidate &a, const Candidate &b) {
                          if (a.index_mismatches != b.index_mismatches)
                              return a.index_mismatches < b.index_mismatches;
                          return a.cluster_size > b.cluster_size;
                      });
    }));

    std::map<uint64_t, core::BlockVersions> replayed;
    add("ecc.rs_ms", timed("ecc.rs", op, [&] {
        std::map<core::UnitKey,
                 std::map<unsigned, const std::vector<Candidate> *>>
            units;
        for (const auto &[address, slot] : slots) {
            auto [block, version, column] = address;
            units[{block, version}][column] = &slot;
        }
        for (const auto &[unit, columns] : units) {
            ++counts.attempted;
            std::optional<Bytes> data =
                decodeUnit(partition, columns, &counts.retries);
            if (!data)
                continue;
            ++counts.decoded;
            replayed[unit.first].versions[unit.second] =
                partition.unscrambleUnitRaw(*data, unit.first, unit.second);
        }
    }));

    core::DecodeStats oneshot;
    std::map<uint64_t, core::BlockVersions> units;
    add("core.decoder.decode_ms", timed("core.decoder.decodeAll", op, [&] {
        units = decoder.decodeAll(reads, &oneshot, pool_);
    }));
    if (counts.matched != oneshot.reads_primer_matched ||
        counts.clusters != oneshot.clusters_total ||
        counts.used != oneshot.clusters_used ||
        counts.rejects != oneshot.index_rejects ||
        counts.attempted != oneshot.units_attempted ||
        counts.decoded != oneshot.units_decoded ||
        counts.retries != oneshot.candidate_retries)
        violations_.push_back("stage replay counts differ from decodeAll");
    if (replayed != units)
        violations_.push_back("stage replay units differ from decodeAll");
    if (!program_streamed && oneshot != program)
        violations_.push_back(
            "replayed reads decode differently from the operation's reads");

    core::StreamingParams streaming;
    streaming.expected_units = expected;
    core::StreamingDecoder session(partition, params, streaming);
    size_t chunks = 0;
    double feed_ms = 0.0;
    for (size_t at = 0; at < reads.size() && !session.complete();
         at += chunk) {
        std::vector<sim::Read> part(
            reads.begin() + static_cast<ptrdiff_t>(at),
            reads.begin() + static_cast<ptrdiff_t>(
                                std::min(reads.size(), at + chunk)));
        feed_ms += timed("core.stream.feed", op,
                         [&] { session.feed(part, &pool_); });
        ++chunks;
    }
    core::DecodeStats streamed;
    session.finish(&streamed, &pool_);
    if (program_streamed && streamed != program)
        violations_.push_back(
            "replayed stream session differs from the service's");

    add("core.stream.feed_ms", feed_ms);
    add("core.stream.chunks", static_cast<double>(chunks));
    add("core.stream.units_early",
        static_cast<double>(streamed.units_emitted_early));
    add("dna.reads_matched", static_cast<double>(counts.matched));
    add("cluster.clusters", static_cast<double>(counts.clusters));
    add("consensus.clusters_used", static_cast<double>(counts.used));
    add("index.rejects", static_cast<double>(counts.rejects));
    add("ecc.units_attempted", static_cast<double>(counts.attempted));
    add("ecc.units_decoded", static_cast<double>(counts.decoded));
    add("ecc.candidate_retries", static_cast<double>(counts.retries));
    closeOp(op);
}

void
Tracer::replayWrite(const core::BlockDevice &device,
                    const core::BlockDeviceParams &params, uint64_t block,
                    unsigned n, const core::UpdateRecord &record)
{
    const core::PartitionConfig &config = device.partition().config();
    uint64_t op = openOp("replay.write");
    unsigned slot = n < 2 ? n + 1 : (n - 2) % 3;
    std::vector<sim::DesignedMolecule> order;
    add("codec.encode_ms", timed("codec.encode", op, [&] {
        order = device.partition().encodeBlock(
            block, record.serialize(config.unitDataBytes()), slot);
    }));
    sim::Pool patch;
    add("sim.synthesize_ms", timed("sim.synthesize", op, [&] {
        patch = sim::synthesize(order, params.synthesis);
    }));
    sim::Pool pool = device.pool();
    add("sim.mix_ms", timed("sim.mix", op, [&] {
        double pool_per = pool.totalMass() /
                          static_cast<double>(pool.speciesCount());
        double patch_per = patch.totalMass() /
                           static_cast<double>(patch.speciesCount());
        pool.mixIn(patch, pool_per / patch_per);
    }));
    closeOp(op);
}

void
Tracer::recordUpdate(double ms)
{
    add("core.device.update_ms", ms);
}

void
Tracer::recordHops(size_t hops)
{
    add("core.device.overflow_hops", static_cast<double>(hops));
}

void
Tracer::recordService(double queue_ms, double decode_ms)
{
    add("core.service.queue_wait_ms", queue_ms);
    add("core.service.decode_ms", decode_ms);
}

std::map<std::string, std::pair<double, std::string>>
Tracer::metrics() const
{
    auto mean = [&](const std::string &name) {
        auto it = sum_.find(name);
        return it == sum_.end() ? 0.0 : it->second / count_.at(name);
    };
    std::map<std::string, std::pair<double, std::string>> out;
    for (const char *name :
         {"sim.pcr_ms", "sim.sequence_ms", "sim.synthesize_ms", "sim.mix_ms",
          "dna.primer_filter_ms", "cluster.cluster_ms", "consensus.bma_ms",
          "index.decode_ms", "ecc.rs_ms", "codec.encode_ms",
          "core.decoder.decode_ms", "core.stream.feed_ms",
          "core.service.queue_wait_ms", "core.service.decode_ms",
          "core.device.update_ms"})
        out[name] = {mean(name), "ms"};
    for (const char *name :
         {"sim.pcr_species_in", "dna.reads_matched", "cluster.clusters",
          "consensus.clusters_used", "index.rejects", "ecc.units_attempted",
          "ecc.units_decoded", "ecc.candidate_retries", "core.stream.chunks",
          "core.stream.units_early", "core.device.overflow_hops"})
        out[name] = {mean(name), "count"};
    out["sim.pcr_misprimed_frac"] = {mean("sim.pcr_misprimed_frac"),
                                     "fraction"};
    double clusters = mean("cluster.clusters");
    out["cluster.reads_per_cluster"] = {
        clusters > 0.0 ? mean("dna.reads_matched") / clusters : 0.0, "reads"};
    return out;
}

bool
Tracer::writeSpans(const std::string &path) const
{
    std::ofstream out(path);
    for (const Span &span : spans_)
        out << "{\"name\":\"" << span.name << "\",\"id\":" << span.id
            << ",\"parent\":" << span.parent
            << ",\"start_us\":" << span.start_us
            << ",\"dur_us\":" << span.dur_us << "}\n";
    return static_cast<bool>(out);
}

} // namespace blockbench
