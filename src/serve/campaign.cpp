#include "serve/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>
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
    Tenancy record;
    /** Kept only under journal_stress, for daily burn rotations. */
    std::shared_ptr<fabric::TargetDesign> target;
};

/** Everything the day loop owns; what a checkpoint must capture. */
struct CampaignState
{
    std::unique_ptr<cloud::CloudPlatform> platform;
    util::Rng rng{424261};
    std::vector<Active> active;
    std::vector<Tenancy> finished;
    int next_day = 0;
    /** Bytes of the last checkpoint image written or resumed from: a
     *  capacity hint for the next one, not itself checkpointed. */
    std::size_t checkpoint_bytes = 0;
};

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

/** The journal-stress rotation a tenancy carries on day `day`. */
void
applyRotation(const Active &a, int day)
{
    for (std::size_t i = 0; i < a.record.bits.size(); ++i) {
        a.target->setBurnValue(i, (day % 2 == 0) == a.record.bits[i]);
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

/**
 * Write one rotating checkpoint generation. Failure is reported but
 * non-fatal — a full disk must not kill a long campaign.
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
    for (const Tenancy &tenancy : state.finished) {
        writeTenancy(writer, tenancy);
    }
    writer.u64(state.active.size());
    for (const Active &a : state.active) {
        writer.f64(a.ends_at_h);
        writer.u64(static_cast<std::uint64_t>(a.start_day));
        writeTenancy(writer, a.record);
    }
    writer.endChunk();
    state.checkpoint_bytes = writer.finish().size();

    const util::Expected<void> committed =
        writer.commitRotating(config.checkpoint_path);
    if (!committed.ok()) {
        util::warn("fleet scan: checkpoint write failed (" +
                   committed.error() + "); continuing without it");
    }
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
        Tenancy tenancy;
        if (readTenancy(reader, &tenancy)) {
            state.finished.push_back(std::move(tenancy));
        }
    }
    const std::uint64_t active_count = reader.u64();
    for (std::uint64_t i = 0; i < active_count && reader.ok(); ++i) {
        Active a;
        a.ends_at_h = reader.f64();
        a.start_day = static_cast<int>(reader.u64());
        if (readTenancy(reader, &a.record)) {
            a.board = a.record.board;
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
    for (Active &a : state.active) {
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
        std::shared_ptr<fabric::TargetDesign> target =
            makeTenantDesign(a.record, a.start_day,
                             config.golden_compat);
        a.target = target;
        if (config.journal_stress) {
            applyRotation(a, state.next_day - 1);
        }
        if (!state.platform->loadDesign(a.board, target).empty()) {
            return util::unexpected(
                "checkpoint: reconstructed tenant design failed DRC");
        }
        if (!config.journal_stress) {
            a.target = nullptr;
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

    // Unclean teardowns bypass the provider's release pipeline (and
    // any ZeroOnRelease scrub) and expose the board's BRAM blocks to
    // an off-power interval. The decision and the interval are pure
    // draws keyed by (board, start day) — never the shared driver
    // stream — so the interconnect channel sees release() and
    // releaseUnclean() identically.
    const auto releaseTenancy = [&](const Active &a) {
        if (config.bram_channel && a.record.unclean) {
            const double off_h =
                util::Rng(config.seed)
                    .split("bram_off_h")
                    .split(a.board)
                    .split(static_cast<std::uint64_t>(a.start_day))
                    .uniform(0.0, kMaxOffPowerH);
            platform.releaseUnclean(a.board, off_h);
        } else {
            platform.release(a.board);
        }
    };

    // Interleaved tenancies in daily ticks: aim for about a third of
    // the region rented at any time, each tenancy burning a random
    // word on its own freshly allocated routes for 2-14 days.
    for (int day = state.next_day; day < config.days; ++day) {
        if (config.throttle_ms_per_day > 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(
                config.throttle_ms_per_day));
        }
        const double now = platform.nowHours();
        for (std::size_t i = state.active.size(); i-- > 0;) {
            if (state.active[i].ends_at_h <= now) {
                state.active[i].record.released_at_h = now;
                releaseTenancy(state.active[i]);
                state.finished.push_back(
                    std::move(state.active[i].record));
                state.active.erase(state.active.begin() +
                                   static_cast<std::ptrdiff_t>(i));
            }
        }
        while (state.active.size() < config.fleet / 3 &&
               state.rng.bernoulli(0.35)) {
            const auto board = platform.rent();
            if (!board) {
                break;
            }
            fabric::Device &device =
                platform.instance(*board).device();
            Tenancy tenancy;
            tenancy.board = *board;
            for (std::size_t r = 0; r < config.routes_per_tenant;
                 ++r) {
                tenancy.specs.push_back(device.allocateRoute(
                    *board + "_d" + std::to_string(day) + "_r" +
                        std::to_string(r),
                    kRouteTargetPs));
                tenancy.bits.push_back(state.rng.bernoulli(0.5));
            }
            auto target = makeTenantDesign(tenancy, day,
                                           config.golden_compat);
            core::loadChecked(platform, *board, target,
                              "fleet scan: tenant design");
            if (config.bram_channel) {
                // Write AFTER the load: configuring the tenant's
                // bitstream zeroed whatever the blocks held. Words
                // and the teardown fate come from fresh pure streams
                // keyed by (board, day) so the shared driver rng —
                // and with it the golden draw sequence — never moves.
                util::Rng words = util::Rng(config.seed)
                                      .split("bram_words")
                                      .split(*board)
                                      .split(static_cast<std::uint64_t>(
                                          day));
                for (std::size_t r = 0; r < config.routes_per_tenant;
                     ++r) {
                    const std::uint64_t word = words();
                    device.writeBram(bramBlockId(r), word);
                    tenancy.bram_words.push_back(word);
                }
                tenancy.unclean =
                    util::Rng(config.seed)
                        .split("bram_unclean")
                        .split(*board)
                        .split(static_cast<std::uint64_t>(day))
                        .bernoulli(kUncleanTeardownP);
            }
            const double duration_h =
                24.0 *
                static_cast<double>(state.rng.uniformInt(2, 14));
            state.active.push_back(
                Active{*board, now + duration_h, day,
                       std::move(tenancy),
                       config.journal_stress ? target : nullptr});
        }
        if (config.journal_stress) {
            // Daily inversion-mitigation-style rotation on every
            // active tenancy: in-place mutations the devices fold in
            // as journal flips at the next advance.
            for (const Active &a : state.active) {
                applyRotation(a, day);
            }
        }
        platform.advanceHours(24.0);

        const int completed = day + 1;
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
            throw util::CancelledError(
                "fleet scan cancelled after day " +
                std::to_string(completed));
        }
    }
    // Wind down: everyone still computing releases now.
    for (Active &a : state.active) {
        a.record.released_at_h = platform.nowHours();
        releaseTenancy(a);
        state.finished.push_back(std::move(a.record));
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
        for (const Tenancy &t : state.finished) {
            if (t.board == *board &&
                (last == nullptr ||
                 t.released_at_h > last->released_at_h)) {
                last = &t;
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
        for (const std::string &id : platform.allInstanceIds()) {
            fabric::Device &device = platform.instance(id).device();
            const std::size_t deferred = device.journaledKeyCount();
            if (deferred == 0) {
                continue;
            }
            const std::vector<fabric::ResourceId> imprinted =
                device.imprintedIds();
            for (const fabric::ResourceId &rid : imprinted) {
                (void)device.element(rid); // materialise + replay
            }
            const std::vector<fabric::ResourceId> materialized =
                device.materializedIds();
            bool converged =
                device.journaledKeyCount() == 0 &&
                materialized.size() == imprinted.size();
            for (std::size_t i = 0; converged && i < imprinted.size();
                 ++i) {
                converged =
                    materialized[i].key() == imprinted[i].key();
            }
            if (!converged) {
                util::fatal("fleet scan: journal coverage check "
                            "failed on " + id);
            }
            ++result.stress_boards;
            result.stress_elements += deferred;
        }
    }
    return result;
}

} // namespace pentimento::serve
