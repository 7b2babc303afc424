/**
 * @file
 * blockbench: the block-storage benchmark.
 *
 *   blockbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *              [--spans <path>]
 *
 * One process, one client thread in a closed loop: each call blocks
 * while its read decodes on a DecodeService of kThreads threads.
 * Reads go through StorageFrontend (point and range reads) or
 * DecodeService::openStream (streaming). Every returned block is
 * compared byte for byte with the benchmark's own model of the file.
 * A run repeats whole rounds of the same operations until --seconds
 * have passed, then prints every metric by name with its unit and, as
 * its last line, one JSON object: end-to-end metrics with --trace 0;
 * per-layer metrics of one more, replayed round with --trace 1.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/simd.h"
#include "core/block_device.h"
#include "core/decode_service.h"
#include "core/storage_frontend.h"
#include "helpers.h"
#include "layers.h"
#include "telemetry/metrics.h"

namespace blockbench {
namespace {

using namespace dnastore;

/**
 * Fixed seeds of the inputs. A read's outcome is a pure function of
 * the device's pool and its sequencing seed, and a device draws that
 * seed from the reads it has sequenced so far. On a device that lives
 * across reads, whether a read fails would thus depend on its place in
 * the run, and so on --seed. So every point, range and stream read
 * runs on a freshly written device, and update_churn replays one op
 * list from a fresh device every round. Point and range reads, whose
 * elongated and multiplex primers misprime, read fixed files, and
 * update_churn's op list is fixed: a failing read then fails every
 * time and on every --seed, never now and then.
 *
 * point_read's hot set is fixed too: read time differs by block, and
 * with the hot set drawn from --seed, read_p90_ms moved by ~30%
 * between seeds. --seed draws the keys over it.
 */
constexpr uint64_t kPointFileSeed = 0x504f494e54ULL;
constexpr uint64_t kPointHotSeed = 0x484f54ULL;
constexpr uint64_t kRangeFileSeed = 0x52414e4745ULL;
constexpr uint64_t kChurnFileSeed = 0x434855524eULL;
constexpr uint64_t kChurnOpsSeed = 0x4f5053ULL;
constexpr uint64_t kStreamFilesSeed = 0x53545245414dULL;
constexpr uint64_t kProbeOpsSeed = 0x50524f4245ULL;

/** update_churn's file size (blocks) and operations per round. */
constexpr size_t kChurnBlocks = 64;
constexpr size_t kChurnOps = 200;

/** Operations of the update_churn mix the write probe draws its
 *  writes from (about 300 writes; a round takes at most 215). */
constexpr size_t kProbeOps = 1024;

/** The point_read block whose read of kPointFileSeed's file fails:
 *  decoded as a phantom version record, it names an overflow block
 *  past the address space and the read aborts. Read once per round
 *  and counted as failed; the zipfian keys are drawn from the others
 *  so the failed share does not depend on --seed. */
constexpr uint64_t kPointFaultBlock = 100;

/** Unaligned starts of range_scan's 16-block ranges (none a multiple
 *  of 16, so every cover mixes prefix sizes). */
constexpr uint64_t kRangeStarts[] = {3, 37, 70, 101, 133, 166, 199, 230};
constexpr uint64_t kRangeLength = 16;

/** Reads per chunk fed to a stream session. */
constexpr size_t kStreamChunk = 400;

/**
 * Set-ups per run. setup_s is the median process CPU time of one (all
 * threads, so the service thread's start counts): on a shared host the
 * wall time of a few-millisecond set-up moves with hypervisor steal
 * and neighbour load by up to 0.85 (IQR/median) between runs, its CPU
 * time by at most 0.16. The first set-ups of a process also fault in
 * fresh memory, so a run takes enough of them for the median to be a
 * steady one.
 */
constexpr int kSetups = 201;

/**
 * Worker threads of the decode service, the device's decoder and its
 * encoder. One: on a shared 4-vCPU host, a four-thread decode's wall
 * time follows the load on every core, and point_read's read_p50_ms
 * moved by 0.32 (IQR/median) over five seeds; with one thread the
 * pipeline needs one free core, and the same five seeds moved it by
 * 0.08. A change that parallelises a stage therefore does not show
 * here; its CPU cost does (cpu_ms_per_block).
 */
constexpr size_t kThreads = 1;

double
wallS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuS()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/** Everything a run measures, summed over its operations. */
struct Tally
{
    std::vector<double> read_ms;
    std::vector<double> update_ms;
    double op_wall_s = 0.0;
    double op_cpu_s = 0.0;
    uint64_t read_calls = 0;
    uint64_t blocks_requested = 0;
    uint64_t blocks_verified = 0;
    uint64_t reads_sequenced = 0;
    uint64_t reads_decoded = 0;
    uint64_t round_trips = 0;
    uint64_t update_bases = 0;
    uint64_t update_bytes = 0;
    uint64_t attempted = 0;
    uint64_t missing = 0;
    uint64_t wrong = 0;
    std::vector<std::string> violations;
    std::vector<std::string> failures;

    /** Program errors thrown by reads (each also counts as missing). */
    std::vector<std::string> errors;

    void
    check(bool ok, const std::string &what)
    {
        if (!ok && violations.size() < 20)
            violations.push_back(what);
    }
};

/** The writeFile calls that built a workload's devices. */
struct FileWrites
{
    uint64_t bases = 0;
    uint64_t bytes = 0;

    /** Every write synthesized 15 x 150 bases per block. */
    bool bases_ok = true;
};

/** The service stack every workload reads through. */
struct Stack
{
    explicit Stack(size_t threads)
    {
        core::DecodeServiceParams params;
        params.threads = threads;
        params.metrics = &registry;
        service = std::make_unique<core::DecodeService>(params);
        frontend = std::make_unique<core::StorageFrontend>(*service);
    }

    telemetry::MetricsRegistry registry;
    std::unique_ptr<core::DecodeService> service;
    std::unique_ptr<core::StorageFrontend> frontend;
};

/** Times a block of calls: wall and process CPU seconds. */
struct OpTimer
{
    double wall0 = wallS();
    double cpu0 = cpuS();

    double
    stop(Tally &tally) const
    {
        double wall = wallS() - wall0;
        tally.op_wall_s += wall;
        tally.op_cpu_s += cpuS() - cpu0;
        return wall * 1000.0;
    }
};

/** One update_churn operation. */
struct ChurnOp
{
    enum class Kind
    {
        Read,
        Edit,
        Replace,
    };
    Kind kind = Kind::Read;
    uint64_t block = 0;
    Edit edit;
    Bytes replacement;
};

/** Zipf-drawn ids from @p keys (@p draw): rank k maps to a permutation
 *  of the keys drawn from @p shuffle, which picks the hot set. */
std::vector<uint64_t>
zipfBlocks(SplitMix &shuffle, SplitMix &draw, std::vector<uint64_t> perm,
           size_t count)
{
    for (size_t i = perm.size(); i > 1; --i)
        std::swap(perm[i - 1], perm[shuffle.below(i)]);
    Zipf zipf(perm.size(), 0.99);
    std::vector<uint64_t> out;
    for (size_t i = 0; i < count; ++i)
        out.push_back(perm[zipf.sample(draw)]);
    return out;
}

/** ~30% writes (three edits to one replacement), ~70% reads, blocks
 *  drawn zipfian. Edits stay inside the block, as UpdateOp documents
 *  them. */
std::vector<ChurnOp>
churnOps(SplitMix &rng, size_t blocks, size_t count)
{
    std::vector<uint64_t> keys(blocks);
    for (size_t b = 0; b < blocks; ++b)
        keys[b] = b;
    std::vector<uint64_t> ids = zipfBlocks(rng, rng, keys, count);
    std::vector<ChurnOp> ops(count);
    for (size_t i = 0; i < count; ++i) {
        ChurnOp &op = ops[i];
        op.block = ids[i];
        double u = rng.unit();
        if (u >= 0.3)
            continue;
        if (u < 0.225) {
            op.kind = ChurnOp::Kind::Edit;
            op.edit.delete_pos = rng.below(kBlockBytes);
            op.edit.delete_len = rng.below(
                std::min<size_t>(32, kBlockBytes - op.edit.delete_pos) + 1);
            op.edit.insert_pos =
                rng.below(kBlockBytes - op.edit.delete_len + 1);
            op.edit.insert = rng.bytes(rng.below(33));
        } else {
            op.kind = ChurnOp::Kind::Replace;
            op.replacement = rng.bytes(1 + rng.below(kBlockBytes));
        }
    }
    return ops;
}

/** The program's record for an edit (data only: the benchmark never
 *  calls UpdateOp::apply). */
core::UpdateRecord
recordFor(const ChurnOp &op)
{
    core::UpdateRecord record;
    if (op.kind == ChurnOp::Kind::Replace) {
        record.kind = core::UpdateRecord::Kind::kReplace;
        record.replacement = op.replacement;
    } else {
        record.kind = core::UpdateRecord::Kind::kInline;
        record.op.delete_pos = static_cast<uint8_t>(op.edit.delete_pos);
        record.op.delete_len = static_cast<uint8_t>(op.edit.delete_len);
        record.op.insert_pos = static_cast<uint8_t>(op.edit.insert_pos);
        record.op.insert_bytes = op.edit.insert;
    }
    return record;
}

/** Writes per (one-block) read of update_churn's op list. */
double
churnWritesPerRead()
{
    SplitMix rng(kChurnOpsSeed);
    size_t writes = 0;
    for (const ChurnOp &op : churnOps(rng, kChurnBlocks, kChurnOps))
        writes += op.kind != ChurnOp::Kind::Read;
    return static_cast<double>(writes) /
           static_cast<double>(kChurnOps - writes);
}

/** One set of inputs and the operations a round applies to them. Each
 *  workload reads and writes one device at a time (device_) through
 *  the shared service stack, and keeps the model of its file
 *  (model_). */
class Workload
{
  public:
    Workload(uint64_t seed, size_t threads, FileWrites &files)
        : seed_(seed), threads_(threads), files_(files)
    {
        params_.decoder.threads = threads;
        params_.encode.threads = threads;
    }
    virtual ~Workload() = default;

    /** Make the inputs (untimed). */
    void
    prepare()
    {
        makeInputs();
        SplitMix rng(kProbeOpsSeed);
        for (const ChurnOp &op :
             churnOps(rng, data_.size() / kBlockBytes, kProbeOps))
            if (op.kind != ChurnOp::Kind::Read)
                probe_ops_.push_back(op);
    }

    /** One round of the workload's operations; the read-only
     *  workloads' probe writes go to @p probe. @p tracer is set in the
     *  traced round only. */
    void
    runRound(Tally &tally, Tally &probe, Tracer *tracer)
    {
        probe_next_ = 0;
        probe_credit_ = 0.0;
        round(tally, probe, tracer);
    }

    /** An untimed call of the first operation, so thread-local arenas
     *  and caches are warm before timing starts. */
    virtual void warmUp() = 0;

    /** The set-up setup_s times: the service stack, then the file
     *  written on a device. */
    void
    build()
    {
        stack_ = std::make_unique<Stack>(threads_);
        rewrite();
    }

    /** Undo build() (untimed: it joins the service threads). */
    void
    tearDown()
    {
        device_.reset();
        stack_.reset();
    }

    Stack &stack() { return *stack_; }

  protected:
    virtual void makeInputs() = 0;
    virtual void round(Tally &tally, Tally &probe, Tracer *tracer) = 0;

    /**
     * The write path of a read-only workload. After a read of @p blocks
     * blocks, the next writes of the update_churn mix (fixed,
     * kProbeOpsSeed) go to the device the read used, which the next
     * read replaces: as many writes per block read as update_churn's
     * op list has, so a round's probe is the same in every round. They
     * time write_p50_ms and, in the traced run, the write layers; they
     * are not operations of the workload.
     */
    void
    probeAfterRead(Tally &probe, Tracer *tracer, size_t blocks)
    {
        static const double writes_per_read = churnWritesPerRead();
        probe_credit_ += static_cast<double>(blocks) * writes_per_read;
        for (; probe_credit_ >= 1.0; probe_credit_ -= 1.0)
            write(probe, tracer, probe_ops_.at(probe_next_++), *device_,
                  *model_);
    }

    /** A freshly written device holding @p file. Its synthesis is
     *  tallied in files_, which outlives the workload so every set-up's
     *  writes count. */
    std::unique_ptr<core::BlockDevice>
    freshDevice(const Bytes &file)
    {
        auto device = std::make_unique<core::BlockDevice>(
            params_, dna::Sequence("ACGTACGTACGTACGTACGT"),
            dna::Sequence("TGCATGCATGCATGCATGCA"));
        device->writeFile(file);
        size_t blocks = file.size() / kBlockBytes;
        size_t bases = device->costs().basesSynthesized();
        files_.bytes += file.size();
        files_.bases += bases;
        files_.bases_ok = files_.bases_ok &&
                          bases == blocks * params_.config.rs_n *
                                       params_.config.strand_length;
        return device;
    }

    /** Replace the device with a freshly written one holding data_ and
     *  reset the model to it. */
    void
    rewrite()
    {
        device_.reset();
        device_ = freshDevice(data_);
        model_ = std::make_unique<FileModel>(data_);
    }

    /** Compare returned blocks with the model; tally misses and wrong
     *  bytes, one operation per block. */
    void
    verify(Tally &tally, uint64_t first,
           const std::vector<std::optional<Bytes>> &blocks)
    {
        for (size_t i = 0; i < blocks.size(); ++i) {
            uint64_t b = first + i;
            ++tally.attempted;
            ++tally.blocks_requested;
            if (!blocks[i]) {
                ++tally.missing;
                tally.failures.push_back("missing " + std::to_string(b));
            } else if (*blocks[i] != model_->block(b)) {
                ++tally.wrong;
                tally.failures.push_back("wrong " + std::to_string(b));
            } else {
                ++tally.blocks_verified;
            }
        }
    }

    /** One point read through the frontend, checked against the model
     *  and the device budgets. */
    void
    pointRead(Tally &tally, Tracer *tracer, uint64_t block)
    {
        std::vector<sim::Read> replayed;
        if (tracer)
            replayed = tracer->replayWetlab(
                *device_, params_, pointCall(*device_, params_, block));
        size_t reads0 = device_->costs().readsSequenced();
        size_t trips0 = device_->costs().roundTrips();
        OpTimer timer;
        std::optional<Bytes> got;
        try {
            got = stack_->frontend->readBlock(*device_, block);
        } catch (const FatalError &e) {
            tally.errors.push_back("block " + std::to_string(block) + ": " +
                                   e.what());
        }
        tally.read_ms.push_back(timer.stop(tally));
        ++tally.read_calls;
        size_t reads = device_->costs().readsSequenced() - reads0;
        size_t trips = device_->costs().roundTrips() - trips0;
        tally.reads_sequenced += reads;
        tally.round_trips += trips;
        // Overflow hops decode their reads one-shot: all consumed.
        tally.reads_decoded += device_->lastStats().reads_consumed +
                               (trips - 1) * params_.reads_per_block_access;
        tally.check(trips == model_->roundTrips(block),
                    "round trips != 1 + ceil(max(0, n - 2) / 3)");
        tally.check(reads == trips * params_.reads_per_block_access,
                    "point read did not sequence 1200 reads per trip");
        verify(tally, block, {got});
        if (tracer) {
            tracer->replayDecode(device_->decoder(), replayed, {{block, 0}},
                                 kStreamChunk, device_->lastStats(), false);
            tracer->recordHops(trips - 1);
        }
    }

    /** One update or replacement of @p device (timed), applied to
     *  @p model too; checks the bases it synthesized. */
    void
    write(Tally &tally, Tracer *tracer, const ChurnOp &op,
          core::BlockDevice &device, FileModel &model)
    {
        core::UpdateRecord record = recordFor(op);
        if (tracer)
            tracer->replayWrite(device, params_, op.block,
                                model.updates(op.block), record);
        size_t bases0 = device.costs().basesSynthesized();
        size_t units = model.unitsForNextUpdate(op.block);
        ++tally.attempted;
        OpTimer timer;
        if (op.kind == ChurnOp::Kind::Replace)
            device.replaceBlock(op.block, op.replacement);
        else
            device.updateBlock(op.block, record.op);
        double ms = timer.stop(tally);
        tally.update_ms.push_back(ms);
        if (tracer)
            tracer->recordUpdate(ms);
        if (op.kind == ChurnOp::Kind::Replace)
            model.replace(op.block, op.replacement);
        else
            model.edit(op.block, op.edit);
        size_t bases = device.costs().basesSynthesized() - bases0;
        tally.update_bases += bases;
        tally.update_bytes += kBlockBytes;
        tally.check(bases == units * params_.config.rs_n *
                                 params_.config.strand_length,
                    "update bases != 15 x 150 per unit written");
    }

    uint64_t seed_;
    size_t threads_;
    Bytes data_;
    core::BlockDeviceParams params_;
    std::unique_ptr<Stack> stack_;
    std::unique_ptr<core::BlockDevice> device_;
    std::unique_ptr<FileModel> model_;
    FileWrites &files_;

    std::vector<ChurnOp> probe_ops_;
    size_t probe_next_ = 0;
    double probe_credit_ = 0.0;
};

class PointRead : public Workload
{
  public:
    using Workload::Workload;

    void
    makeInputs() override
    {
        data_ = SplitMix(kPointFileSeed).bytes(256 * kBlockBytes);
        std::vector<uint64_t> keys;
        for (uint64_t b = 0; b < 256; ++b)
            if (b != kPointFaultBlock)
                keys.push_back(b);
        SplitMix hot(kPointHotSeed);
        SplitMix rng(seed_);
        ops_ = zipfBlocks(hot, rng, keys, 128);
        ops_.push_back(kPointFaultBlock);
    }

    void warmUp() override { stack_->frontend->readBlock(*device_, ops_[0]); }

    /** Every read runs on a freshly written device (see
     *  kPointFileSeed); the rewrite is a file write, not a read. */
    void
    round(Tally &tally, Tally &probe, Tracer *tracer) override
    {
        for (uint64_t block : ops_) {
            rewrite();
            pointRead(tally, tracer, block);
            probeAfterRead(probe, tracer, 1);
        }
    }

  private:
    std::vector<uint64_t> ops_;
};

class RangeScan : public Workload
{
  public:
    using Workload::Workload;

    void
    makeInputs() override
    {
        data_ = SplitMix(kRangeFileSeed).bytes(256 * kBlockBytes);
        SplitMix rng(seed_);
        order_.assign(std::begin(kRangeStarts), std::end(kRangeStarts));
        for (size_t i = order_.size(); i > 1; --i)
            std::swap(order_[i - 1], order_[rng.below(i)]);
    }

    void
    warmUp() override
    {
        stack_->frontend->readBlocks(*device_, order_[0],
                                     order_[0] + kRangeLength - 1);
    }

    /** Every range reads a freshly written device, so its outcome does
     *  not depend on the calls before it; --seed only orders them. */
    void
    round(Tally &tally, Tally &probe, Tracer *tracer) override
    {
        for (uint64_t lo : order_) {
            uint64_t hi = lo + kRangeLength - 1;
            rewrite();
            std::vector<sim::Read> replayed;
            if (tracer)
                replayed = tracer->replayWetlab(
                    *device_, params_, rangeCall(*device_, params_, lo, hi));
            OpTimer timer;
            std::vector<std::optional<Bytes>> got(kRangeLength);
            try {
                got = stack_->frontend->readBlocks(*device_, lo, hi);
            } catch (const FatalError &e) {
                tally.errors.push_back("range " + std::to_string(lo) + ": " +
                                       e.what());
            }
            tally.read_ms.push_back(timer.stop(tally));
            ++tally.read_calls;
            size_t reads = device_->costs().readsSequenced();
            size_t trips = device_->costs().roundTrips();
            tally.reads_sequenced += reads;
            tally.reads_decoded += device_->lastStats().reads_consumed;
            tally.round_trips += trips;
            tally.check(reads == kRangeLength * params_.config.rs_n *
                                     static_cast<size_t>(params_.coverage) * 4,
                        "range read did not sequence 1200 reads per block");
            tally.check(trips == 1, "range read took more than one round trip");
            verify(tally, lo, got);
            if (tracer) {
                std::vector<core::UnitKey> expected;
                for (uint64_t b = lo; b <= hi; ++b)
                    expected.push_back({b, 0});
                tracer->replayDecode(device_->decoder(), replayed, expected,
                                     kStreamChunk, device_->lastStats(),
                                     false);
                tracer->recordHops(0);
            }
            probeAfterRead(probe, tracer, kRangeLength);
        }
    }

  private:
    std::vector<uint64_t> order_;
};

class UpdateChurn : public Workload
{
  public:
    using Workload::Workload;

    void
    makeInputs() override
    {
        data_ = SplitMix(kChurnFileSeed).bytes(kChurnBlocks * kBlockBytes);
        SplitMix rng(kChurnOpsSeed);
        ops_ = churnOps(rng, kChurnBlocks, kChurnOps);
    }

    void
    warmUp() override
    {
        stack_->frontend->readBlock(*device_, ops_[0].block);
    }

    /** Every round starts from the freshly written file, so a run's
     *  rounds are identical and hot blocks reach the same chain
     *  lengths whatever the run length. */
    void
    round(Tally &tally, Tally &, Tracer *tracer) override
    {
        rewrite();
        for (const ChurnOp &op : ops_) {
            if (op.kind == ChurnOp::Kind::Read)
                pointRead(tally, tracer, op.block);
            else
                write(tally, tracer, op, *device_, *model_);
        }
    }

  private:
    std::vector<ChurnOp> ops_;
};

class StreamScan : public Workload
{
  public:
    using Workload::Workload;

    /** Eight fixed files (kStreamFilesSeed) in an order drawn from
     *  --seed. When a stream completes depends on the file: seeded
     *  files moved reads_decoded_per_block, and every timing with it,
     *  by ~15% between seeds. */
    void
    makeInputs() override
    {
        SplitMix files(kStreamFilesSeed);
        for (int i = 0; i < 8; ++i)
            files_data_.push_back(files.bytes(64 * kBlockBytes));
        SplitMix rng(seed_);
        for (size_t i = files_data_.size(); i > 1; --i)
            std::swap(files_data_[i - 1], files_data_[rng.below(i)]);
        data_ = files_data_[0];
    }

    void
    warmUp() override
    {
        Tally scratch;
        streamRead(scratch, nullptr, files_data_[0]);
    }

    void
    round(Tally &tally, Tally &probe, Tracer *tracer) override
    {
        for (const Bytes &file : files_data_) {
            streamRead(tally, tracer, file);
            probeAfterRead(probe, tracer, file.size() / kBlockBytes);
        }
    }

  private:
    /** sequenceAll of a freshly written device holding @p file, fed in
     *  fixed chunks to a stream that expects every (block, 0) and stops
     *  at completion, then assembleRange. */
    void
    streamRead(Tally &tally, Tracer *tracer, const Bytes &file)
    {
        data_ = file;
        rewrite();
        uint64_t blocks = device_->blockCount();
        std::vector<core::UnitKey> expected;
        for (uint64_t b = 0; b < blocks; ++b)
            expected.push_back({b, 0});
        std::vector<sim::Read> replayed;
        if (tracer)
            replayed = tracer->replayWetlab(*device_, params_,
                                            wholeCall(*device_, params_));

        OpTimer timer;
        std::vector<sim::Read> reads = device_->sequenceAll();
        core::StreamParams params;
        params.decoder = &device_->decoder();
        params.expected_units = expected;
        core::DecodeStream stream = stack_->service->openStream(params);
        for (size_t at = 0; at < reads.size() && !stream.complete();
             at += kStreamChunk) {
            std::vector<sim::Read> chunk(
                reads.begin() + static_cast<ptrdiff_t>(at),
                reads.begin() + static_cast<ptrdiff_t>(
                                    std::min(reads.size(), at + kStreamChunk)));
            stream.feed(std::move(chunk)).get();
        }
        core::DecodeOutcome outcome = stream.finish().get();
        auto got = device_->assembleRange(0, blocks - 1, outcome.units,
                                          stack_->service.get());
        tally.read_ms.push_back(timer.stop(tally));
        ++tally.read_calls;

        size_t sequenced = device_->costs().readsSequenced();
        size_t trips = device_->costs().roundTrips();
        tally.reads_sequenced += sequenced;
        tally.reads_decoded += outcome.stats.reads_consumed;
        tally.round_trips += trips;
        tally.check(sequenced == static_cast<size_t>(params_.coverage) *
                                     params_.config.rs_n * blocks,
                    "whole read did not sequence 20 reads per strand");
        tally.check(trips == 1, "whole read took more than one round trip");
        verify(tally, 0, got);
        if (tracer) {
            tracer->replayDecode(device_->decoder(), replayed, expected,
                                 kStreamChunk, outcome.stats, true);
            tracer->recordHops(0);
        }
    }

    std::vector<Bytes> files_data_;
};

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 0.5);
}

/** End-to-end metrics of one tally; a read-only workload's writes are
 *  its write probe's. */
std::vector<Metric>
endToEnd(const Tally &t, const Tally &probe, double setup_s,
         const FileWrites &files)
{
    std::vector<Metric> out;
    double blocks = static_cast<double>(t.blocks_requested);
    double calls = static_cast<double>(t.read_calls);
    out.push_back({"read_p50_ms", median(t.read_ms), "ms"});
    out.push_back({"read_p90_ms", percentile(t.read_ms, 0.9), "ms"});
    out.push_back({"write_p50_ms",
                   median(t.update_ms.empty() ? probe.update_ms
                                              : t.update_ms),
                   "ms"});
    out.push_back({"blocks_per_s",
                   static_cast<double>(t.blocks_verified) / t.op_wall_s, "1/s"});
    out.push_back({"cpu_ms_per_block", t.op_cpu_s * 1000.0 / blocks, "ms"});
    out.push_back({"reads_per_block",
                   static_cast<double>(t.reads_sequenced) / blocks, "reads"});
    out.push_back({"reads_decoded_per_block",
                   static_cast<double>(t.reads_decoded) / blocks, "reads"});
    out.push_back({"round_trips_per_read",
                   static_cast<double>(t.round_trips) / calls, "count"});
    double bases = static_cast<double>(t.update_bytes ? t.update_bases
                                                      : files.bases);
    double bytes = static_cast<double>(t.update_bytes ? t.update_bytes
                                                      : files.bytes);
    out.push_back({"bases_synthesized_per_byte", bases / bytes, "bases/byte"});
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    out.push_back({"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
                   "MB"});
    out.push_back({"setup_s", setup_s, "s"});
    return out;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            size_t colon = line.find(':');
            return colon == std::string::npos ? line : line.substr(colon + 2);
        }
    }
    return "unknown";
}

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string spans;
};

bool
parseArgs(int argc, char **argv, Args &args)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string key = argv[i];
        std::string value = argv[i + 1];
        if (key == "--workload")
            args.workload = value;
        else if (key == "--seed")
            args.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (key == "--seconds")
            args.seconds = std::strtod(value.c_str(), nullptr);
        else if (key == "--trace")
            args.trace = value == "1";
        else if (key == "--spans")
            args.spans = value;
        else
            return false;
    }
    return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0.0;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, uint64_t seed, size_t threads,
             FileWrites &files)
{
    if (name == "point_read")
        return std::make_unique<PointRead>(seed, threads, files);
    if (name == "range_scan")
        return std::make_unique<RangeScan>(seed, threads, files);
    if (name == "update_churn")
        return std::make_unique<UpdateChurn>(seed, threads, files);
    if (name == "stream_scan")
        return std::make_unique<StreamScan>(seed, threads, files);
    return nullptr;
}

void
printJson(bool correct, uint64_t attempted, uint64_t failed,
          const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                    metrics[i].unit.c_str());
    std::printf("}}\n");
}

int
run(const Args &args)
{
    size_t nproc = static_cast<size_t>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
    size_t threads = kThreads;
    FileWrites files;
    if (!makeWorkload(args.workload, args.seed, threads, files)) {
        std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
        return 2;
    }
    std::printf("# host: cpu=\"%s\" nproc=%zu isa=%s compiler=\"%s %s\" "
                "build=%s\n",
                cpuModel().c_str(), nproc,
                simd::isaName(simd::activeIsa()),
#if defined(__clang__)
                "clang",
#else
                "gcc",
#endif
                __VERSION__, BLOCKBENCH_BUILD_TYPE);
    std::printf("# run: workload=%s seed=%llu seconds=%g trace=%d "
                "service_threads=%zu client_threads=1\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0, threads);
    std::printf("# fixed inputs: point_file_seed=%llu range_file_seed=%llu "
                "churn_file_seed=%llu churn_ops_seed=%llu "
                "stream_files_seed=%llu probe_ops_seed=%llu\n",
                static_cast<unsigned long long>(kPointFileSeed),
                static_cast<unsigned long long>(kRangeFileSeed),
                static_cast<unsigned long long>(kChurnFileSeed),
                static_cast<unsigned long long>(kChurnOpsSeed),
                static_cast<unsigned long long>(kStreamFilesSeed),
                static_cast<unsigned long long>(kProbeOpsSeed));

    // Set up several times from the same inputs; keep the last.
    std::unique_ptr<Workload> workload =
        makeWorkload(args.workload, args.seed, threads, files);
    workload->prepare();
    std::vector<double> setup_cpu;
    std::vector<double> setup_wall;
    for (int i = 0; i < kSetups; ++i) {
        workload->tearDown();
        OpTimer timer;
        workload->build();
        setup_wall.push_back(wallS() - timer.wall0);
        setup_cpu.push_back(cpuS() - timer.cpu0);
    }
    double setup_s = median(setup_cpu);
    std::printf("# setup: builds=%d cpu_median=%.6f s wall_median=%.6f s\n",
                kSetups, setup_s, median(setup_wall));
    workload->warmUp();

    // Whole rounds, as many as end nearest to --seconds: a round takes
    // 5-11 s, so running until --seconds had passed would overrun by up
    // to a whole round.
    Tally tally;
    double start = wallS();
    size_t rounds = 0;
    Tally probe;
    do {
        workload->runRound(tally, probe, nullptr);
        ++rounds;
    } while ((wallS() - start) * (1.0 + 0.5 / static_cast<double>(rounds)) <
             args.seconds);
    double loop_s = wallS() - start;

    std::vector<Metric> e2e = endToEnd(tally, probe, setup_s, files);
    uint64_t failed = tally.missing + tally.wrong;
    tally.check(files.bases_ok, "bases != 15 x 150 per block written");
    tally.violations.insert(tally.violations.end(), probe.violations.begin(),
                            probe.violations.end());
    // Failed reads are counted, not judged: correct speaks of the
    // operations that did not fail, and of the properties.
    bool correct = tally.violations.empty();

    std::printf("# loop: rounds=%zu seconds=%.3f read_calls=%llu "
                "probe_writes=%zu p90_samples_beyond=%zu%s\n",
                rounds, loop_s,
                static_cast<unsigned long long>(tally.read_calls),
                probe.update_ms.size(),
                samplesBeyond(tally.read_ms.size(), 0.9),
                tailReportable(tally.read_ms.size(), 0.9)
                    ? ""
                    : " (fewer than ten samples beyond p90: read_p90_ms "
                      "is no tail here)");
    std::printf("# ops: attempted=%llu failed=%llu missing=%llu "
                "wrong_bytes=%llu\n",
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(tally.missing),
                static_cast<unsigned long long>(tally.wrong));
    // Rounds repeat the same operations, so the first round's failures
    // are every round's.
    auto firstRound = [&](const std::vector<std::string> &all) {
        std::string out;
        for (size_t i = 0; i < all.size() / rounds; ++i)
            out += (i ? ", " : "") + all[i];
        return out;
    };
    if (!tally.failures.empty())
        std::printf("# failed blocks per round: %s\n",
                    firstRound(tally.failures).c_str());
    if (!tally.errors.empty())
        std::printf("# program errors per round: %s\n",
                    firstRound(tally.errors).c_str());
    for (const std::string &v : tally.violations)
        std::printf("# PROPERTY VIOLATED: %s\n", v.c_str());
    for (const Metric &m : e2e)
        std::printf("%s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());

    if (!args.trace) {
        printJson(correct, tally.attempted, failed, e2e);
        return 0;
    }

    // Traced run: one more round with every operation, the write
    // probe's too, replayed through the layers.
    Tracer tracer(threads);
    Tally traced;
    Tally traced_probe;
    workload->runRound(traced, traced_probe, &tracer);
    telemetry::MetricsRegistry &registry = workload->stack().registry;
    telemetry::Histogram &queue =
        registry.histogram("decode_service.queue_latency_us");
    telemetry::Histogram &decode =
        registry.histogram("decode_service.decode_latency_us");
    tracer.recordService(
        static_cast<double>(queue.sum()) / 1000.0 /
            static_cast<double>(std::max<uint64_t>(1, queue.count())),
        static_cast<double>(decode.sum()) / 1000.0 /
            static_cast<double>(std::max<uint64_t>(1, decode.count())));

    std::vector<Metric> e2e_traced =
        endToEnd(traced, traced_probe, setup_s, files);
    for (size_t i = 0; i < e2e.size(); ++i)
        std::printf("# overhead %s traced=%.6g untraced=%.6g diff=%.6g %s\n",
                    e2e[i].name.c_str(), e2e_traced[i].value, e2e[i].value,
                    e2e_traced[i].value - e2e[i].value, e2e[i].unit.c_str());
    traced.violations.insert(traced.violations.end(),
                             traced_probe.violations.begin(),
                             traced_probe.violations.end());
    for (const std::string &v : traced.violations)
        std::printf("# PROPERTY VIOLATED (traced round): %s\n", v.c_str());
    std::vector<Metric> layers;
    for (const auto &[name, value] : tracer.metrics())
        layers.push_back({name, value.first, value.second});
    for (const Metric &m : layers)
        std::printf("%s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    for (const std::string &v : tracer.violations())
        std::printf("# REPLAY MISMATCH: %s\n", v.c_str());
    if (!args.spans.empty()) {
        bool ok = tracer.writeSpans(args.spans);
        std::printf("# spans: %zu written to %s%s\n", tracer.spanCount(),
                    args.spans.c_str(), ok ? "" : " (FAILED)");
    }
    correct = correct && traced.violations.empty() &&
              tracer.violations().empty();
    printJson(correct, tally.attempted, failed, layers);
    return 0;
}

} // namespace
} // namespace blockbench

int
main(int argc, char **argv)
{
    blockbench::Args args;
    if (!blockbench::parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: blockbench --workload <point_read|range_scan|"
                     "update_churn|stream_scan> --seed <n> --seconds <s> "
                     "--trace <0|1> [--spans <path>]\n");
        return 2;
    }
    try {
        return blockbench::run(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "blockbench: %s\n", e.what());
        return 1;
    }
}
