#include "serve/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <system_error>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cloud/platform.hpp"
#include "core/classifier.hpp"
#include "core/experiment.hpp"
#include "fabric/bram_block.hpp"
#include "tdc/measure_design.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/snapshot.hpp"

namespace pentimento::serve {

namespace {

constexpr double kRouteTargetPs = 2000.0;
constexpr double kRecoveryHours = 25.0;
constexpr double kSweepEveryHours = 1.0;

/** Fraction of tenancies ending in an unclean teardown (crash or
 *  host power event) when the BRAM channel runs. */
constexpr double kUncleanTeardownP = 0.25;
/** Longest off-power exposure an unclean teardown inflicts, hours —
 *  the same order as the default per-block retention median, so a
 *  realistic share of unclean boards decay before readout. */
constexpr double kMaxOffPowerH = 0.1;

constexpr std::uint32_t kSrvCfgTag =
    util::snapshotTag('S', 'C', 'F', '!');
constexpr std::uint32_t kSrvCmpTag =
    util::snapshotTag('S', 'C', 'M', '!');

/** One completed tenancy: what the attacker would need to know. */
struct Tenancy
{
    std::string board;
    std::vector<fabric::RouteSpec> specs;
    std::vector<bool> bits;
    double released_at_h = 0.0;
    /** Words written into the board's BRAM blocks (bram_channel). */
    std::vector<std::uint64_t> bram_words;
    /** Whether this tenancy ends in an unclean teardown. */
    bool unclean = false;
};

/**
 * The fixed BRAM block every tenancy's route r writes. Stable ids are
 * the channel's Assumption-1 analogue: the attacker reads the same
 * physical blocks the victim wrote.
 */
fabric::ResourceId
bramBlockId(std::size_t r)
{
    fabric::ResourceId id;
    id.type = fabric::ResourceType::Bram;
    id.index = static_cast<std::uint16_t>(r);
    return id;
}

/** One tenancy still computing. */
struct Active
{
    std::string board;
    double ends_at_h = 0.0;
    /** Day the tenant design was created — its identity, for resume. */
    int start_day = 0;
    /** On the heap, so a scheduled load can point at the record while
     *  the ledger moves it around. */
    std::unique_ptr<Tenancy> record;
};

/** A board's journal-stress design and the tenancy it burns. */
struct StressSlot
{
    std::shared_ptr<fabric::TargetDesign> design;
    const Tenancy *tenancy = nullptr;
};

/**
 * Publishes staged checkpoints (fsync, close, rename) on one
 * background thread while the day loop goes on, one at a time. The
 * thread starts with the first publish and then parks on a condition
 * variable, so a campaign starts one thread, not one per checkpoint.
 * If it cannot start, each commit publishes inline. Destruction waits
 * for the publish in flight and never throws.
 */
class CheckpointCommitter
{
  public:
    CheckpointCommitter() = default;
    CheckpointCommitter(const CheckpointCommitter &) = delete;
    CheckpointCommitter &operator=(const CheckpointCommitter &) = delete;

    ~CheckpointCommitter()
    {
        if (thread_.joinable()) {
            {
                const std::lock_guard<std::mutex> lock(mutex_);
                stop_ = true;
            }
            wake_.notify_one();
            thread_.join();
        }
    }

    /** Hand `staged` to the thread. The last publish must have been
     *  waited for. */
    void
    publish(util::StagedSnapshot staged)
    {
        if (!thread_.joinable() && !inline_) {
            try {
                thread_ = std::thread([this] { run(); });
            } catch (const std::system_error &) {
                inline_ = true;
            }
        }
        if (inline_) {
            outcome_ = staged.publish();
            return;
        }
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            if (staged_ || busy_) {
                util::panic("CheckpointCommitter: a publish is in flight");
            }
            staged_.emplace(std::move(staged));
        }
        wake_.notify_one();
        // The woken thread is often queued behind this one on its CPU
        // until this one's time slice ends: 0 to 4 ms, 1 ms on average,
        // on a 4-vCPU host. Yielding lets the fsync start now; the
        // thread blocks in it and hands the CPU back within microseconds.
        std::this_thread::yield();
    }

    /** Wait for the last publish to land; its outcome (ok if none). */
    util::Expected<void>
    wait()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        done_.wait(lock, [this] { return !staged_ && !busy_; });
        return std::exchange(outcome_, util::Expected<void>{});
    }

  private:
    void
    run()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        for (;;) {
            wake_.wait(lock, [this] { return staged_ || stop_; });
            if (!staged_) {
                return;
            }
            util::StagedSnapshot staged = std::move(*staged_);
            staged_.reset();
            busy_ = true;
            lock.unlock();
            util::Expected<void> outcome;
            try {
                outcome = staged.publish();
            } catch (const std::exception &e) {
                outcome = util::unexpected(
                    std::string("snapshot: publish threw: ") + e.what());
            }
            lock.lock();
            outcome_ = std::move(outcome);
            busy_ = false;
            done_.notify_one();
        }
    }

    std::mutex mutex_;
    std::condition_variable wake_; // the thread: work or stop
    std::condition_variable done_; // the campaign: publish landed
    std::optional<util::StagedSnapshot> staged_;
    bool busy_ = false;
    bool stop_ = false;
    bool inline_ = false;
    util::Expected<void> outcome_;
    std::thread thread_;
};

/** Everything the day loop owns; what a checkpoint must capture. */
struct CampaignState
{
    std::unique_ptr<cloud::CloudPlatform> platform;
    util::Rng rng{424261};
    std::vector<Active> active;
    std::vector<std::unique_ptr<Tenancy>> finished;
    /** Per board, in fleet order (journal_stress). Rebuilt from the
     *  ledger on resume, like the designs themselves. */
    std::vector<StressSlot> stress;
    int next_day = 0;
    /** Bytes of the last checkpoint image written or resumed from: a
     *  capacity hint for the next one, not itself checkpointed. */
    std::size_t checkpoint_bytes = 0;
    /** Publishes this campaign's checkpoints, at most one in flight.
     *  Last, so it is waited for before the rest of the state goes. */
    std::unique_ptr<CheckpointCommitter> committer;
};

/**
 * One device step the day loop's bookkeeping phase schedules for a
 * board. A board's steps replay in booking order, day by day.
 */
struct BoardOp
{
    enum class Kind : std::uint8_t
    {
        /** A release's device step (CloudPlatform::tearDown). */
        TearDown,
        /** A rent's device step (CloudPlatform::handOver). */
        HandOver,
        /** Build, check and load the tenant design; write its BRAM. */
        Load,
    };
    Kind kind = Kind::Load;
    int day = 0;
    bool clean = true;
    double off_power_h = 0.0;
    /** The tenancy a Load configures. */
    const Tenancy *tenancy = nullptr;
};

/** Fleet position of every board id, for the per-board arrays. */
std::unordered_map<std::string, std::size_t>
fleetIndex(const cloud::CloudPlatform &platform)
{
    std::unordered_map<std::string, std::size_t> index;
    const std::vector<std::string> ids = platform.allInstanceIds();
    for (std::size_t b = 0; b < ids.size(); ++b) {
        index.emplace(ids[b], b);
    }
    return index;
}

/** Rebuild a tenant design exactly as the rent-time site makes it. */
std::shared_ptr<fabric::TargetDesign>
makeTenantDesign(const Tenancy &tenancy, int start_day, bool golden)
{
    fabric::ArithmeticHeavyConfig arith;
    arith.dsp_count = 128;
    // The design name feeds draw splitting downstream: golden-compat
    // keeps bench/fleet_campaign's historical "tenant_" prefix so the
    // committed golden CSV stays byte-exact.
    return std::make_shared<fabric::TargetDesign>(
        (golden ? "tenant_" : "srv_tenant_") + tenancy.board + "_d" +
            std::to_string(start_day),
        tenancy.specs, tenancy.bits, arith);
}

/** The journal-stress rotation a board's tenancy carries on `day`. */
void
applyRotation(const StressSlot &slot, int day)
{
    const std::vector<bool> &bits = slot.tenancy->bits;
    for (std::size_t i = 0; i < bits.size(); ++i) {
        slot.design->setBurnValue(i, (day % 2 == 0) == bits[i]);
    }
}

/** Route spec after its name: target delay, key count, keys. */
std::size_t
specRecordBytes(const fabric::RouteSpec &spec)
{
    return 8 + 8 + spec.elements.size() * 8;
}

/** Tenancy tail: bit count, bits, release time, BRAM words, flag. */
std::size_t
tenancyTailBytes(const Tenancy &tenancy)
{
    return 8 + tenancy.bits.size() + 8 + 8 + tenancy.bram_words.size() * 8 +
           1;
}

void
writeTenancy(util::SnapshotWriter &writer, const Tenancy &tenancy)
{
    writer.str(tenancy.board);
    writer.u64(tenancy.specs.size());
    for (const fabric::RouteSpec &spec : tenancy.specs) {
        writer.str(spec.name);
        util::SnapshotSpan record = writer.span(specRecordBytes(spec));
        record.f64(spec.target_ps);
        record.u64(spec.elements.size());
        for (const fabric::ResourceId &id : spec.elements) {
            record.u64(id.key());
        }
    }
    util::SnapshotSpan tail = writer.span(tenancyTailBytes(tenancy));
    tail.u64(tenancy.bits.size());
    for (const bool bit : tenancy.bits) {
        tail.u8(bit ? 1 : 0);
    }
    tail.f64(tenancy.released_at_h);
    tail.u64(tenancy.bram_words.size());
    for (const std::uint64_t word : tenancy.bram_words) {
        tail.u64(word);
    }
    tail.u8(tenancy.unclean ? 1 : 0);
}

bool
readTenancy(util::SnapshotReader &reader, Tenancy *tenancy)
{
    tenancy->board = reader.str();
    const std::uint64_t spec_count = reader.u64();
    for (std::uint64_t s = 0; s < spec_count && reader.ok(); ++s) {
        fabric::RouteSpec spec;
        spec.name = reader.str();
        spec.target_ps = reader.f64();
        const std::uint64_t elem_count = reader.u64();
        for (std::uint64_t e = 0; e < elem_count && reader.ok(); ++e) {
            spec.elements.push_back(
                fabric::ResourceId::fromKey(reader.u64()));
        }
        tenancy->specs.push_back(std::move(spec));
    }
    const std::uint64_t bit_count = reader.u64();
    for (std::uint64_t b = 0; b < bit_count && reader.ok(); ++b) {
        tenancy->bits.push_back(reader.u8() != 0);
    }
    tenancy->released_at_h = reader.f64();
    const std::uint64_t word_count = reader.u64();
    for (std::uint64_t w = 0; w < word_count && reader.ok(); ++w) {
        tenancy->bram_words.push_back(reader.u64());
    }
    tenancy->unclean = reader.u8() != 0;
    if (reader.ok() && tenancy->bits.size() != tenancy->specs.size()) {
        reader.fail("checkpoint: tenancy bits/specs length mismatch");
    }
    if (reader.ok() && !tenancy->bram_words.empty() &&
        tenancy->bram_words.size() != tenancy->specs.size()) {
        reader.fail("checkpoint: tenancy BRAM words/specs length "
                    "mismatch");
    }
    return reader.ok();
}

void
warnCheckpointFailed(const std::string &error)
{
    util::warn("fleet scan: checkpoint write failed (" + error +
               "); continuing without it");
}

/** Wait for the in-flight checkpoint publish, if any; report its
 *  failure like a synchronous commit's. */
void
awaitPublish(CampaignState &state)
{
    if (!state.committer) {
        return;
    }
    const util::Expected<void> outcome = state.committer->wait();
    if (!outcome.ok()) {
        warnCheckpointFailed(outcome.error());
    }
}

/**
 * Write one rotating checkpoint generation. The image is serialized
 * and staged here; its publish runs on a background thread while the
 * day loop goes on. Failure is reported but non-fatal — a full disk
 * must not kill a long campaign.
 */
void
saveCheckpoint(CampaignState &state, const FleetScanConfig &config)
{
    util::SnapshotWriter writer;
    // Checkpoints grow as journals and the tenancy ledger fill. With
    // room for half again the last image the buffer is allocated once,
    // not regrown by doubling: a regrow copies the whole image, and on
    // the durable perfbench workload it also raised peak RSS.
    writer.reserve(state.checkpoint_bytes + state.checkpoint_bytes / 2);
    writer.beginChunk(kSrvCfgTag);
    writer.u64(config.fleet);
    writer.u64(static_cast<std::uint64_t>(config.days));
    writer.u64(config.seed);
    writer.u64(config.routes_per_tenant);
    writer.u64(config.max_measured);
    writer.u8(config.golden_compat ? 1 : 0);
    writer.u8(config.journal_stress ? 1 : 0);
    writer.u8(config.bram_channel ? 1 : 0);
    writer.u8(static_cast<std::uint8_t>(config.bram_scrub));
    writer.u32(config.shard_index);
    writer.u32(config.shard_count);
    writer.endChunk();

    state.platform->saveState(writer);

    writer.beginChunk(kSrvCmpTag);
    writer.u64(static_cast<std::uint64_t>(state.next_day));
    const util::Rng::State rng = state.rng.state();
    for (const std::uint64_t word : rng.words) {
        writer.u64(word);
    }
    writer.f64(rng.cached);
    writer.u8(rng.have_cached ? 1 : 0);
    writer.u64(state.finished.size());
    for (const std::unique_ptr<Tenancy> &tenancy : state.finished) {
        writeTenancy(writer, *tenancy);
    }
    writer.u64(state.active.size());
    for (const Active &a : state.active) {
        writer.f64(a.ends_at_h);
        writer.u64(static_cast<std::uint64_t>(a.start_day));
        writeTenancy(writer, *a.record);
    }
    writer.endChunk();
    state.checkpoint_bytes = writer.finish().size();

    // The previous publish renames the one `.tmp` this stage rewrites.
    awaitPublish(state);
    util::Expected<util::StagedSnapshot> staged =
        writer.stageRotating(config.checkpoint_path);
    if (!staged.ok()) {
        warnCheckpointFailed(staged.error());
        return;
    }
    if (!state.committer) {
        state.committer = std::make_unique<CheckpointCommitter>();
    }
    state.committer->publish(std::move(staged.value()));
}

/**
 * Restore one checkpoint generation into a freshly built platform.
 * Every corruption path comes back as a recoverable error so the
 * caller can fall through to the previous generation or a fresh run.
 */
util::Expected<CampaignState>
restoreCampaignFrom(const std::string &path,
                    const cloud::PlatformConfig &platform_config,
                    const FleetScanConfig &config)
{
    util::Expected<util::SnapshotReader> opened =
        util::SnapshotReader::open(path);
    if (!opened.ok()) {
        return util::unexpected(opened.error());
    }
    util::SnapshotReader &reader = opened.value();

    if (!reader.enterChunk(kSrvCfgTag)) {
        return util::unexpected(reader.error());
    }
    const std::uint64_t fleet = reader.u64();
    const std::uint64_t saved_days = reader.u64();
    const std::uint64_t seed = reader.u64();
    const std::uint64_t routes = reader.u64();
    const std::uint64_t measured = reader.u64();
    const bool saved_golden = reader.u8() != 0;
    const bool saved_stress = reader.u8() != 0;
    const bool saved_bram = reader.u8() != 0;
    const std::uint8_t saved_scrub = reader.u8();
    const std::uint32_t saved_shard_index = reader.u32();
    const std::uint32_t saved_shard_count = reader.u32();
    if (!reader.leaveChunk()) {
        return util::unexpected(reader.error());
    }
    if (fleet != config.fleet || seed != config.seed ||
        saved_days != static_cast<std::uint64_t>(config.days) ||
        routes != config.routes_per_tenant ||
        measured != config.max_measured ||
        saved_golden != config.golden_compat ||
        saved_stress != config.journal_stress ||
        saved_bram != config.bram_channel ||
        saved_scrub != static_cast<std::uint8_t>(config.bram_scrub) ||
        saved_shard_index != config.shard_index ||
        saved_shard_count != config.shard_count) {
        return util::unexpected(
            "checkpoint was written by a different campaign "
            "(config skew)");
    }

    CampaignState state;
    state.platform =
        std::make_unique<cloud::CloudPlatform>(platform_config);
    std::vector<std::string> boards_with_design;
    const util::Expected<void> restored =
        state.platform->restoreState(reader, &boards_with_design);
    if (!restored.ok()) {
        return util::unexpected(restored.error());
    }

    if (!reader.enterChunk(kSrvCmpTag)) {
        return util::unexpected(reader.error());
    }
    const std::uint64_t next_day = reader.u64();
    util::Rng::State rng;
    for (std::uint64_t &word : rng.words) {
        word = reader.u64();
    }
    rng.cached = reader.f64();
    rng.have_cached = reader.u8() != 0;
    const std::uint64_t finished_count = reader.u64();
    for (std::uint64_t i = 0; i < finished_count && reader.ok(); ++i) {
        auto tenancy = std::make_unique<Tenancy>();
        if (readTenancy(reader, tenancy.get())) {
            state.finished.push_back(std::move(tenancy));
        }
    }
    const std::uint64_t active_count = reader.u64();
    for (std::uint64_t i = 0; i < active_count && reader.ok(); ++i) {
        Active a;
        a.ends_at_h = reader.f64();
        a.start_day = static_cast<int>(reader.u64());
        a.record = std::make_unique<Tenancy>();
        if (readTenancy(reader, a.record.get())) {
            a.board = a.record->board;
            state.active.push_back(std::move(a));
        }
    }
    if (!reader.leaveChunk() || !reader.expectEnd()) {
        return util::unexpected(reader.error());
    }
    if (next_day < 1 ||
        next_day > static_cast<std::uint64_t>(config.days)) {
        return util::unexpected("checkpoint: day cursor out of range");
    }
    state.next_day = static_cast<int>(next_day);
    state.rng.setState(rng);

    // Designs are code, not board state: rebuild each active tenant's
    // design (with the rotation parity it carried at save time, under
    // journal_stress) and re-load it. The restored board's activity
    // state already matches, so the load is flip- and draw-neutral.
    if (boards_with_design.size() != state.active.size()) {
        return util::unexpected(
            "checkpoint: design residency does not match the ledger");
    }
    const std::unordered_map<std::string, std::size_t> index =
        fleetIndex(*state.platform);
    state.stress.resize(index.size());
    for (const Active &a : state.active) {
        bool listed = false;
        for (const std::string &board : boards_with_design) {
            if (board == a.board) {
                listed = true;
                break;
            }
        }
        if (!listed) {
            return util::unexpected("checkpoint: active board '" +
                                    a.board +
                                    "' has no resident design");
        }
        const StressSlot slot{
            makeTenantDesign(*a.record, a.start_day,
                             config.golden_compat),
            a.record.get()};
        if (config.journal_stress) {
            applyRotation(slot, state.next_day - 1);
            state.stress[index.at(a.board)] = slot;
        }
        if (!state.platform->loadDesign(a.board, slot.design).empty()) {
            return util::unexpected(
                "checkpoint: reconstructed tenant design failed DRC");
        }
    }
    state.checkpoint_bytes = reader.imageBytes();
    return state;
}

/**
 * Age through scan slots [from, to) that attack nothing `advance`
 * drives. A slot outside the shard (k < begin) is one kRecoveryHours
 * + settle step. Every other slot takes attackBoard's steps: the
 * takeover settle, then the core schedule's [park for 1 − settle,
 * settle] pairs. So every board gets exactly the advanceHours calls
 * of a serial scan.
 */
template <typename Advance>
void
idleSlots(std::size_t from, std::size_t to, std::size_t begin,
          Advance &&advance)
{
    for (std::size_t k = from; k < to; ++k) {
        if (k < begin) {
            advance(kRecoveryHours + core::kMeasureSettleHours);
            continue;
        }
        advance(core::kMeasureSettleHours);
        core::runSchedule(
            0.0, kRecoveryHours, kSweepEveryHours,
            [&](double, double dt) {
                advance(dt - core::kMeasureSettleHours);
            },
            [&](double) { advance(core::kMeasureSettleHours); });
    }
}

/**
 * TM2 park-and-watch on one re-acquired board: calibrate at takeover,
 * park the victim's routes at 0, record 25 hourly sweeps, classify
 * the recovery slopes, release. Touches only this board — it advances
 * the instance, not the platform, and releases at `*clock_h` (the
 * platform clock at slot start, advanced here by the slot) — so
 * attacks on different boards may run concurrently.
 */
FleetScanBoardScore
attackBoard(cloud::CloudPlatform &platform,
            const std::string &board_id, const Tenancy &tenancy,
            double *clock_h, FleetScanBramScore *bram)
{
    cloud::FpgaInstance &inst = platform.instance(board_id);
    fabric::Device &device = inst.device();

    if (bram != nullptr) {
        // BRAM readout must be the attacker's FIRST act: loading the
        // measure design below is a (re)configuration, and
        // configuration zeroes contents. The aging channel has the
        // opposite ordering freedom — the imprint survives any number
        // of loads. A ZeroOnRent scrub already ran inside rent(), so
        // under that policy this loop observes only zeroes.
        bram->board = board_id;
        bram->unclean = tenancy.unclean;
        for (std::size_t r = 0; r < tenancy.bram_words.size(); ++r) {
            const fabric::BramBlock &block =
                device.readBram(bramBlockId(r));
            ++bram->blocks;
            switch (block.state) {
              case fabric::BramState::Decayed:
                ++bram->decayed;
                break;
              case fabric::BramState::Unwritten:
              case fabric::BramState::Zeroed:
                ++bram->zeroed;
                break;
              default:
                break;
            }
            if ((block.state == fabric::BramState::Written ||
                 block.state == fabric::BramState::Retained) &&
                block.content == tenancy.bram_words[r]) {
                ++bram->recovered;
            }
        }
    }

    // Fast sampling: the campaign is measurement-bound, and its
    // accuracy statistics are seed-sweep-equivalent between the exact
    // and fast sampling paths (see tdc_test's FastSampling battery).
    tdc::TdcConfig sensor_config;
    sensor_config.fast_sampling = true;
    const auto measure = core::calibrateOnPlatform(
        platform, board_id, tenancy.specs, sensor_config, nullptr);
    const auto park =
        core::makeParkDesign("park0_" + board_id, tenancy.specs, false);

    const auto age = [&](double hours) {
        inst.advanceHours(hours);
        *clock_h += hours;
    };
    core::SweepRecorder recorder(tenancy.specs.size());
    const auto sweep = [&](double hour) {
        core::loadChecked(platform, board_id, measure,
                          "fleet scan: measure design");
        age(core::kMeasureSettleHours);
        recorder.record(hour,
                        measure->measureAll(inst.dieTempK(), inst.rng()));
    };
    sweep(0.0);
    const double observed = core::runSchedule(
        0.0, kRecoveryHours, kSweepEveryHours,
        [&](double, double dt) {
            core::loadChecked(platform, board_id, park,
                              "fleet scan: park design");
            age(dt - core::kMeasureSettleHours);
        },
        sweep);
    const core::ClassificationReport report =
        core::ThreatModel2Classifier().classify(
            recorder.result(tenancy.specs, tenancy.bits, observed));

    platform.releaseAt(board_id, *clock_h);
    FleetScanBoardScore score;
    score.board = board_id;
    score.bits = report.bits.size();
    score.correct = report.correct;
    score.accuracy = report.accuracy;
    return score;
}

} // namespace

util::Expected<FleetScanResult>
runFleetScan(const FleetScanConfig &config)
{
    if (config.fleet == 0 || config.days <= 0 ||
        config.routes_per_tenant == 0) {
        return util::unexpected("fleet scan: empty scenario");
    }
    if (config.shard_count == 0 ? config.shard_index != 0
                                : config.shard_index >=
                                      config.shard_count) {
        return util::unexpected("fleet scan: shard_index out of range");
    }
    const bool checkpointing = !config.checkpoint_path.empty();

    cloud::PlatformConfig platform_config;
    platform_config.fleet_size = config.fleet;
    platform_config.region = "fleet-sim";
    platform_config.policy =
        cloud::AllocationPolicy::MostRecentlyReleased;
    platform_config.seed = config.seed;
    platform_config.bram_scrub = config.bram_scrub;

    FleetScanResult result;
    CampaignState state;
    bool resumed = false;
    if (checkpointing && config.resume != ResumeMode::Never) {
        // Two-generation retry. Under Auto a missing checkpoint is
        // the normal fresh-run case; corruption or config skew also
        // falls back to a fresh run — resume is an optimisation,
        // never a correctness requirement, because the result is a
        // pure function of the config either way. Require makes both
        // generations failing a hard error (the CLI --resume
        // contract: never silently redo a year you asked to resume).
        util::Expected<CampaignState> attempt = restoreCampaignFrom(
            config.checkpoint_path, platform_config, config);
        bool used_fallback = false;
        std::string primary_error;
        if (!attempt.ok()) {
            primary_error = attempt.error();
            attempt =
                restoreCampaignFrom(config.checkpoint_path + ".prev",
                                    platform_config, config);
            used_fallback = attempt.ok();
        }
        if (attempt.ok()) {
            state = std::move(attempt.value());
            resumed = true;
            result.resumed_from =
                config.checkpoint_path + (used_fallback ? ".prev" : "");
            result.resumed_day = state.next_day;
            result.resumed_finished = state.finished.size();
            result.resumed_active = state.active.size();
            util::inform("fleet scan: resumed at day " +
                         std::to_string(state.next_day));
        } else if (config.resume == ResumeMode::Require) {
            return util::unexpected(
                "cannot resume: " + primary_error +
                " (previous generation also failed: " +
                attempt.error() + ")");
        }
    }
    if (!resumed) {
        state.platform =
            std::make_unique<cloud::CloudPlatform>(platform_config);
        if (!config.golden_compat) {
            // The driver's draw stream is split from the request seed
            // so the tenancy schedule (not just the silicon) re-rolls
            // with it. Golden-compat keeps CampaignState's fixed
            // historical seed — bench/fleet_campaign never re-rolled
            // its driver stream, and the committed golden locks that.
            util::Rng base(config.seed);
            state.rng = base.split("serve_fleet_scan");
        }
    }
    cloud::CloudPlatform &platform = *state.platform;
    const std::unordered_map<std::string, std::size_t> board_index =
        fleetIndex(platform);
    std::vector<cloud::FpgaInstance *> boards;
    for (const std::string &id : platform.allInstanceIds()) {
        boards.push_back(&platform.instance(id));
    }
    state.stress.resize(boards.size());

    // Book the end of tenancy `a` at `now`: the board returns to the
    // pool, the record moves to the ledger, and the teardown it owes
    // comes back for the caller to run. Unclean teardowns bypass the
    // provider's release pipeline (and any ZeroOnRelease scrub) and
    // expose the board's BRAM blocks to an off-power interval. The
    // decision and the interval are pure draws keyed by (board, start
    // day) — never the shared driver stream — so the interconnect
    // channel sees clean and unclean releases identically.
    const auto endTenancy = [&](Active &a, double now) {
        BoardOp op;
        op.kind = BoardOp::Kind::TearDown;
        op.clean = !(config.bram_channel && a.record->unclean);
        if (!op.clean) {
            op.off_power_h =
                util::Rng(config.seed)
                    .split("bram_off_h")
                    .split(a.board)
                    .split(static_cast<std::uint64_t>(a.start_day))
                    .uniform(0.0, kMaxOffPowerH);
        }
        platform.bookRelease(a.board, op.clean, now);
        a.record->released_at_h = now;
        state.finished.push_back(std::move(a.record));
        return op;
    };

    // One board's device step, in booking order.
    const auto runOp = [&](cloud::FpgaInstance &inst, StressSlot &slot,
                           const BoardOp &op) {
        switch (op.kind) {
          case BoardOp::Kind::TearDown:
            platform.tearDown(inst, op.clean, op.off_power_h);
            slot = StressSlot{};
            break;
          case BoardOp::Kind::HandOver:
            platform.handOver(inst);
            break;
          case BoardOp::Kind::Load: {
            const Tenancy &tenancy = *op.tenancy;
            std::shared_ptr<fabric::TargetDesign> target =
                makeTenantDesign(tenancy, op.day, config.golden_compat);
            if (!platform.configure(inst, target).empty()) {
                util::fatal("fleet scan: tenant design failed DRC on " +
                            inst.id());
            }
            // Write AFTER the load: configuring the tenant's bitstream
            // zeroed whatever the blocks held.
            for (std::size_t r = 0; r < tenancy.bram_words.size(); ++r) {
                inst.device().writeBram(bramBlockId(r),
                                        tenancy.bram_words[r]);
            }
            if (config.journal_stress) {
                slot = StressSlot{std::move(target), &tenancy};
            }
            break;
          }
        }
    };

    // Interleaved tenancies in daily ticks: aim for about a third of
    // the region rented at any time, each tenancy burning a random
    // word on its own freshly allocated routes for 2-14 days.
    //
    // The days run in windows, each ending where the loop must stop
    // anyway: the run's end, the next checkpoint, the halt day, or —
    // with an observer — the next day. A window has two phases.
    //  A. Serially, everything that draws from the driver rng or
    //     touches fleet bookkeeping: releases and the ledger, the rent
    //     choice, routes, bits, BRAM words and fates, durations, the
    //     platform clock. Each board's device steps are recorded.
    //  B. One task per board with work: its device steps day by day,
    //     then that day's journal-stress rotation and 24 h advance.
    //     A tenancy ages only its own board, so the boards are
    //     independent, and each device sees exactly the call sequence
    //     of a day-at-a-time loop; the lane count moves no draw.
    std::vector<std::vector<BoardOp>> plan(boards.size());
    std::vector<bool> busy(boards.size());
    std::vector<std::size_t> tasks;
    while (state.next_day < config.days) {
        const int from = state.next_day;
        int to = config.days;
        if (config.observer != nullptr) {
            to = from + 1;
        }
        if (checkpointing && config.checkpoint_every_days > 0) {
            to = std::min(to, (from / config.checkpoint_every_days + 1) *
                                  config.checkpoint_every_days);
        }
        if (config.halt_at_day > 0) {
            to = std::min(to, std::max(config.halt_at_day, from + 1));
        }

        // ---- phase A: bookkeeping --------------------------------
        for (std::vector<BoardOp> &ops : plan) {
            ops.clear();
        }
        std::fill(busy.begin(), busy.end(), false);
        for (const Active &a : state.active) {
            busy[board_index.at(a.board)] = true;
        }
        for (int day = from; day < to; ++day) {
            if (config.throttle_ms_per_day > 0) {
                std::this_thread::sleep_for(std::chrono::milliseconds(
                    config.throttle_ms_per_day));
            }
            const double now = platform.nowHours();
            for (std::size_t i = state.active.size(); i-- > 0;) {
                if (state.active[i].ends_at_h <= now) {
                    BoardOp op = endTenancy(state.active[i], now);
                    op.day = day;
                    plan[board_index.at(state.active[i].board)].push_back(
                        op);
                    state.active.erase(state.active.begin() +
                                       static_cast<std::ptrdiff_t>(i));
                }
            }
            while (state.active.size() < config.fleet / 3 &&
                   state.rng.bernoulli(0.35)) {
                const auto board = platform.bookRent();
                if (!board) {
                    break;
                }
                cloud::FpgaInstance &inst = platform.bookLoad(*board);
                auto tenancy = std::make_unique<Tenancy>();
                tenancy->board = *board;
                for (std::size_t r = 0; r < config.routes_per_tenant;
                     ++r) {
                    tenancy->specs.push_back(inst.allocateRoute(
                        *board + "_d" + std::to_string(day) + "_r" +
                            std::to_string(r),
                        kRouteTargetPs));
                    tenancy->bits.push_back(state.rng.bernoulli(0.5));
                }
                if (config.bram_channel) {
                    // Words and the teardown fate come from fresh pure
                    // streams keyed by (board, day) so the shared
                    // driver rng — and with it the golden draw
                    // sequence — never moves.
                    util::Rng words =
                        util::Rng(config.seed)
                            .split("bram_words")
                            .split(*board)
                            .split(static_cast<std::uint64_t>(day));
                    for (std::size_t r = 0; r < config.routes_per_tenant;
                         ++r) {
                        tenancy->bram_words.push_back(words());
                    }
                    tenancy->unclean =
                        util::Rng(config.seed)
                            .split("bram_unclean")
                            .split(*board)
                            .split(static_cast<std::uint64_t>(day))
                            .bernoulli(kUncleanTeardownP);
                }
                std::vector<BoardOp> &ops = plan[board_index.at(*board)];
                ops.push_back(BoardOp{BoardOp::Kind::HandOver, day});
                ops.push_back(BoardOp{BoardOp::Kind::Load, day, true, 0.0,
                                      tenancy.get()});
                const double duration_h =
                    24.0 *
                    static_cast<double>(state.rng.uniformInt(2, 14));
                state.active.push_back(Active{*board, now + duration_h, day,
                                              std::move(tenancy)});
            }
            platform.advanceClock(24.0);
        }

        // ---- phase B: each board's device work -------------------
        tasks.clear();
        for (std::size_t b = 0; b < boards.size(); ++b) {
            if (busy[b] || !plan[b].empty()) {
                tasks.push_back(b);
            } else {
                // Idle stock: each advance is an O(1) deferral. Kept
                // off the task list, which stays short enough that
                // the pool hands out one board per claim, so the
                // longest-first order balances the lanes.
                for (int day = from; day < to; ++day) {
                    boards[b]->advanceHours(24.0);
                }
            }
        }
        // Longest first, so no lane is left with a long tail.
        std::sort(tasks.begin(), tasks.end(),
                  [&](std::size_t x, std::size_t y) {
                      return plan[x].size() != plan[y].size()
                                 ? plan[x].size() > plan[y].size()
                                 : x < y;
                  });
        const auto runBoard = [&](std::size_t t) {
            const std::size_t b = tasks[t];
            cloud::FpgaInstance &inst = *boards[b];
            StressSlot &slot = state.stress[b];
            const std::vector<BoardOp> &ops = plan[b];
            std::size_t next = 0;
            for (int day = from; day < to; ++day) {
                for (; next < ops.size() && ops[next].day == day; ++next) {
                    runOp(inst, slot, ops[next]);
                }
                if (slot.design) {
                    // Daily inversion-mitigation-style rotation: an
                    // in-place mutation the device folds in as journal
                    // flips at the advance.
                    applyRotation(slot, day);
                }
                inst.advanceHours(24.0);
            }
        };
        util::parallelFor(tasks.size(), runBoard, config.pool);

        const int completed = to;
        state.next_day = completed;
        const bool halting =
            config.halt_at_day > 0 && completed >= config.halt_at_day &&
            completed < config.days;
        const bool periodic =
            checkpointing && config.checkpoint_every_days > 0 &&
            completed % config.checkpoint_every_days == 0 &&
            completed < config.days;
        if (periodic || (halting && checkpointing)) {
            saveCheckpoint(state, config);
        }
        if (halting) {
            awaitPublish(state);
            result.halted_after_day = completed;
            result.tenancies = state.finished.size();
            result.simulated_h = platform.nowHours();
            return result;
        }
        if (config.observer != nullptr &&
            !config.observer->onSweep(
                static_cast<std::size_t>(completed),
                platform.nowHours(), nullptr, 0)) {
            // A final checkpoint before unwinding makes every
            // cancellation (deadline, disconnect, drain, signal)
            // resumable from exactly this day.
            if (checkpointing) {
                saveCheckpoint(state, config);
            }
            awaitPublish(state);
            throw util::CancelledError(
                "fleet scan cancelled after day " +
                std::to_string(completed));
        }
    }
    // Wind down: everyone still computing releases now.
    for (Active &a : state.active) {
        const std::size_t b = board_index.at(a.board);
        const BoardOp op = endTenancy(a, platform.nowHours());
        platform.tearDown(*boards[b], op.clean, op.off_power_h);
        state.stress[b] = StressSlot{};
    }
    state.active.clear();

    result.tenancies = state.finished.size();
    result.simulated_h = platform.nowHours();

    // ---- TM2 persistence scan -------------------------------------
    // Flash-acquire recently released boards (LIFO policy) and attack
    // the most recent tenancy on each. Not interruptible: bounded at
    // max_measured * 25 simulated hours, it finishes in well under a
    // deadline tick, and interrupting it mid-measurement would leave
    // the board half-scanned with no valid checkpoint boundary.
    //
    // Acquire first, attack later: releasing mid-scan would hand the
    // LIFO scheduler the same board straight back. Every shard runs
    // this acquisition loop identically — the target list and its
    // order are a pure function of the (identical) simulation phase.
    std::vector<std::pair<std::string, const Tenancy *>> scan_targets;
    std::vector<std::string> skipped;
    while (scan_targets.size() < config.max_measured) {
        const auto board = platform.rent();
        if (!board) {
            break;
        }
        const Tenancy *last = nullptr;
        for (const std::unique_ptr<Tenancy> &t : state.finished) {
            if (t->board == *board &&
                (last == nullptr ||
                 t->released_at_h > last->released_at_h)) {
                last = t.get();
            }
        }
        if (last == nullptr) {
            skipped.push_back(*board); // virgin stock: nothing to scan
            continue;
        }
        scan_targets.emplace_back(*board, last);
    }
    result.skipped = skipped.size();

    // Shard slice of the target list. Slot k attacks target k
    // (attackBoard). An attack draws only from its board's own
    // per-instance rng, and every other board sees nothing but time
    // advancing through the slot. So each attacked board runs its
    // slots as one task — the idle slots before its own, its attack,
    // the idle slots after — and every board gets exactly the
    // advanceHours calls of a serial scan, whichever lane runs it. An
    // out-of-shard slot (k < begin) is its single exact time advance,
    // so every board this shard attacks sees the identical clock and
    // private draw stream as in an unsharded run (partition
    // invariance of advanceHours makes the coarser step exact).
    std::size_t begin = 0;
    std::size_t end = scan_targets.size();
    if (config.shard_count > 0) {
        const std::size_t per =
            (scan_targets.size() + config.shard_count - 1) /
            config.shard_count;
        begin = std::min(scan_targets.size(),
                         static_cast<std::size_t>(config.shard_index) *
                             per);
        end = std::min(scan_targets.size(), begin + per);
    }
    const double scan_start_h = platform.nowHours();
    result.boards.resize(end - begin);
    if (config.bram_channel) {
        result.bram_boards.resize(end - begin);
    }
    const auto attackSlot = [&](std::size_t t) {
        const std::size_t k = begin + t;
        const std::string &board = scan_targets[k].first;
        cloud::FpgaInstance &inst = platform.instance(board);
        double clock_h = scan_start_h;
        const auto age = [&](double hours) {
            inst.advanceHours(hours);
            clock_h += hours;
        };
        idleSlots(0, k, begin, age);
        result.boards[t] = attackBoard(
            platform, board, *scan_targets[k].second, &clock_h,
            config.bram_channel ? &result.bram_boards[t] : nullptr);
        idleSlots(k + 1, end, begin, age);
    };
    util::parallelFor(end - begin, attackSlot, config.pool);
    // Every board this shard does not attack ages through all the
    // slots; then the platform clock catches up with the same spans.
    const auto attacked = [&](const std::string &id) {
        for (std::size_t k = begin; k < end; ++k) {
            if (scan_targets[k].first == id) {
                return true;
            }
        }
        return false;
    };
    for (const std::string &id : platform.allInstanceIds()) {
        if (!attacked(id)) {
            cloud::FpgaInstance &inst = platform.instance(id);
            idleSlots(0, end, begin,
                      [&](double hours) { inst.advanceHours(hours); });
        }
    }
    idleSlots(0, end, begin,
              [&](double hours) { platform.advanceClock(hours); });
    for (const std::string &board : skipped) {
        platform.release(board);
    }
    result.bram_scrub_ops = platform.bramScrubOps();

    // ---- journal coverage check (journal_stress) ------------------
    // Force-materialise every board's deferred population and verify
    // it converges exactly to the imprinted listing: a year of
    // journaled tenancies (with daily mitigation flips) must replay
    // without losing or inventing a single element.
    if (config.journal_stress) {
        // One task per board; the verdicts are read in board order, so
        // the first failing board named does not depend on lanes.
        std::vector<std::size_t> deferred(boards.size());
        std::vector<char> converged(boards.size());
        const auto checkBoard = [&](std::size_t b) {
            fabric::Device &device = boards[b]->device();
            deferred[b] = device.journaledKeyCount();
            if (deferred[b] == 0) {
                return;
            }
            const std::vector<fabric::ResourceId> imprinted =
                device.imprintedIds();
            std::vector<fabric::ElementHandle> handles;
            handles.reserve(imprinted.size());
            for (const fabric::ResourceId &rid : imprinted) {
                handles.push_back(device.bindElement(rid));
            }
            device.syncHandles(handles.data(), handles.size());
            const std::vector<fabric::ResourceId> materialized =
                device.materializedIds();
            bool ok = device.journaledKeyCount() == 0 &&
                      materialized.size() == imprinted.size();
            for (std::size_t i = 0; ok && i < imprinted.size(); ++i) {
                ok = materialized[i].key() == imprinted[i].key();
            }
            converged[b] = ok ? 1 : 0;
        };
        util::parallelFor(boards.size(), checkBoard, config.pool);
        for (std::size_t b = 0; b < boards.size(); ++b) {
            if (deferred[b] == 0) {
                continue;
            }
            if (converged[b] == 0) {
                util::fatal("fleet scan: journal coverage check "
                            "failed on " + boards[b]->id());
            }
            ++result.stress_boards;
            result.stress_elements += deferred[b];
        }
    }
    awaitPublish(state);
    return result;
}

} // namespace pentimento::serve
