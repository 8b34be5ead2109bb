#include "replay.hpp"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cloud/platform.hpp"
#include "core/classifier.hpp"
#include "core/delta_series.hpp"
#include "fabric/bram_block.hpp"
#include "tdc/measure_design.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/snapshot.hpp"

namespace perfbench {

namespace pc = pentimento;
using pc::serve::FleetScanBoardScore;
using pc::serve::FleetScanBramScore;
using pc::serve::FleetScanConfig;
using pc::serve::FleetScanResult;

namespace {

// Engine constants (serve/campaign.cpp); a drift shows up as a digest
// mismatch between the replay and the engine.
constexpr double kRouteTargetPs = 2000.0;
constexpr double kRecoveryHours = 25.0;
constexpr double kUncleanTeardownP = 0.25;
constexpr double kMaxOffPowerH = 0.1;
constexpr std::uint32_t kSrvCfgTag =
    pc::util::snapshotTag('S', 'C', 'F', '!');
constexpr std::uint32_t kSrvCmpTag =
    pc::util::snapshotTag('S', 'C', 'M', '!');

struct Tenancy
{
    std::string board;
    std::vector<pc::fabric::RouteSpec> specs;
    std::vector<bool> bits;
    double released_at_h = 0.0;
    std::vector<std::uint64_t> bram_words;
    bool unclean = false;
};

struct Active
{
    std::string board;
    double ends_at_h = 0.0;
    int start_day = 0;
    Tenancy record;
    std::shared_ptr<pc::fabric::TargetDesign> target;
};

struct State
{
    std::unique_ptr<pc::cloud::CloudPlatform> platform;
    pc::util::Rng rng{424261};
    std::vector<Active> active;
    std::vector<Tenancy> finished;
    int next_day = 0;
};

pc::fabric::ResourceId
bramBlockId(std::size_t r)
{
    pc::fabric::ResourceId id;
    id.type = pc::fabric::ResourceType::Bram;
    id.index = static_cast<std::uint16_t>(r);
    return id;
}

std::shared_ptr<pc::fabric::TargetDesign>
makeTenantDesign(const Tenancy &tenancy, int start_day)
{
    pc::fabric::ArithmeticHeavyConfig arith;
    arith.dsp_count = 128;
    return std::make_shared<pc::fabric::TargetDesign>(
        "srv_tenant_" + tenancy.board + "_d" + std::to_string(start_day),
        tenancy.specs, tenancy.bits, arith);
}

void
applyRotation(const Active &a, int day)
{
    for (std::size_t i = 0; i < a.record.bits.size(); ++i) {
        a.target->setBurnValue(i, (day % 2 == 0) == a.record.bits[i]);
    }
}

void
writeTenancy(pc::util::SnapshotWriter &w, const Tenancy &t)
{
    w.str(t.board);
    w.u64(t.specs.size());
    for (const pc::fabric::RouteSpec &spec : t.specs) {
        w.str(spec.name);
        w.f64(spec.target_ps);
        w.u64(spec.elements.size());
        for (const pc::fabric::ResourceId &id : spec.elements) {
            w.u64(id.key());
        }
    }
    w.u64(t.bits.size());
    for (const bool bit : t.bits) {
        w.u8(bit ? 1 : 0);
    }
    w.f64(t.released_at_h);
    w.u64(t.bram_words.size());
    for (const std::uint64_t word : t.bram_words) {
        w.u64(word);
    }
    w.u8(t.unclean ? 1 : 0);
}

bool
readTenancy(pc::util::SnapshotReader &r, Tenancy *t)
{
    t->board = r.str();
    const std::uint64_t specs = r.u64();
    for (std::uint64_t s = 0; s < specs && r.ok(); ++s) {
        pc::fabric::RouteSpec spec;
        spec.name = r.str();
        spec.target_ps = r.f64();
        const std::uint64_t elems = r.u64();
        for (std::uint64_t e = 0; e < elems && r.ok(); ++e) {
            spec.elements.push_back(
                pc::fabric::ResourceId::fromKey(r.u64()));
        }
        t->specs.push_back(std::move(spec));
    }
    const std::uint64_t bits = r.u64();
    for (std::uint64_t b = 0; b < bits && r.ok(); ++b) {
        t->bits.push_back(r.u8() != 0);
    }
    t->released_at_h = r.f64();
    const std::uint64_t words = r.u64();
    for (std::uint64_t w = 0; w < words && r.ok(); ++w) {
        t->bram_words.push_back(r.u64());
    }
    t->unclean = r.u8() != 0;
    return r.ok();
}

void
saveCheckpoint(const State &state, const FleetScanConfig &config,
               Tracer &tr, ReplayCounts *counts)
{
    pc::util::SnapshotWriter writer;
    {
        Scope span(&tr, "snapshot.serialize");
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
        const pc::util::Rng::State rng = state.rng.state();
        for (const std::uint64_t word : rng.words) {
            writer.u64(word);
        }
        writer.f64(rng.cached);
        writer.u8(rng.have_cached ? 1 : 0);
        writer.u64(state.finished.size());
        for (const Tenancy &t : state.finished) {
            writeTenancy(writer, t);
        }
        writer.u64(state.active.size());
        for (const Active &a : state.active) {
            writer.f64(a.ends_at_h);
            writer.u64(static_cast<std::uint64_t>(a.start_day));
            writeTenancy(writer, a.record);
        }
        writer.endChunk();
    }
    pc::util::Expected<void> committed;
    {
        Scope span(&tr, "snapshot.commit");
        committed = writer.commitRotating(config.checkpoint_path);
    }
    if (committed.ok()) {
        std::error_code ec;
        const auto bytes =
            std::filesystem::file_size(config.checkpoint_path, ec);
        if (!ec) {
            counts->snapshot_bytes += bytes;
        }
    }
}

pc::util::Expected<State>
restoreFrom(const std::string &path,
            const pc::cloud::PlatformConfig &platform_config,
            const FleetScanConfig &config, Tracer &tr)
{
    pc::util::Expected<pc::util::SnapshotReader> opened =
        pc::util::unexpected(std::string("not opened"));
    {
        Scope span(&tr, "snapshot.open");
        opened = pc::util::SnapshotReader::open(path);
    }
    if (!opened.ok()) {
        return pc::util::unexpected(opened.error());
    }
    Scope span(&tr, "snapshot.restore");
    pc::util::SnapshotReader &reader = opened.value();
    if (!reader.enterChunk(kSrvCfgTag)) {
        return pc::util::unexpected(reader.error());
    }
    const std::uint64_t fleet = reader.u64();
    const std::uint64_t days = reader.u64();
    const std::uint64_t seed = reader.u64();
    const std::uint64_t routes = reader.u64();
    const std::uint64_t measured = reader.u64();
    const bool golden = reader.u8() != 0;
    const bool stress = reader.u8() != 0;
    const bool bram = reader.u8() != 0;
    const std::uint8_t scrub = reader.u8();
    const std::uint32_t shard_index = reader.u32();
    const std::uint32_t shard_count = reader.u32();
    if (!reader.leaveChunk()) {
        return pc::util::unexpected(reader.error());
    }
    if (fleet != config.fleet || seed != config.seed ||
        days != static_cast<std::uint64_t>(config.days) ||
        routes != config.routes_per_tenant ||
        measured != config.max_measured || golden ||
        stress != config.journal_stress ||
        bram != config.bram_channel ||
        scrub != static_cast<std::uint8_t>(config.bram_scrub) ||
        shard_index != 0 || shard_count != 0) {
        return pc::util::unexpected(
            std::string("checkpoint config skew"));
    }
    State state;
    state.platform =
        std::make_unique<pc::cloud::CloudPlatform>(platform_config);
    std::vector<std::string> boards_with_design;
    const pc::util::Expected<void> restored =
        state.platform->restoreState(reader, &boards_with_design);
    if (!restored.ok()) {
        return pc::util::unexpected(restored.error());
    }
    if (!reader.enterChunk(kSrvCmpTag)) {
        return pc::util::unexpected(reader.error());
    }
    const std::uint64_t next_day = reader.u64();
    pc::util::Rng::State rng;
    for (std::uint64_t &word : rng.words) {
        word = reader.u64();
    }
    rng.cached = reader.f64();
    rng.have_cached = reader.u8() != 0;
    const std::uint64_t finished = reader.u64();
    for (std::uint64_t i = 0; i < finished && reader.ok(); ++i) {
        Tenancy t;
        if (readTenancy(reader, &t)) {
            state.finished.push_back(std::move(t));
        }
    }
    const std::uint64_t active = reader.u64();
    for (std::uint64_t i = 0; i < active && reader.ok(); ++i) {
        Active a;
        a.ends_at_h = reader.f64();
        a.start_day = static_cast<int>(reader.u64());
        if (readTenancy(reader, &a.record)) {
            a.board = a.record.board;
            state.active.push_back(std::move(a));
        }
    }
    if (!reader.leaveChunk() || !reader.expectEnd()) {
        return pc::util::unexpected(reader.error());
    }
    if (next_day < 1 ||
        next_day > static_cast<std::uint64_t>(config.days) ||
        boards_with_design.size() != state.active.size()) {
        return pc::util::unexpected(std::string("checkpoint ledger"));
    }
    state.next_day = static_cast<int>(next_day);
    state.rng.setState(rng);
    for (Active &a : state.active) {
        if (std::find(boards_with_design.begin(),
                      boards_with_design.end(),
                      a.board) == boards_with_design.end()) {
            return pc::util::unexpected(std::string("no resident design"));
        }
        a.target = makeTenantDesign(a.record, a.start_day);
        if (config.journal_stress) {
            applyRotation(a, state.next_day - 1);
        }
        if (!state.platform->loadDesign(a.board, a.target).empty()) {
            return pc::util::unexpected(std::string("design DRC"));
        }
        if (!config.journal_stress) {
            a.target = nullptr;
        }
    }
    return state;
}

FleetScanBoardScore
attackBoard(pc::cloud::CloudPlatform &platform, const std::string &board,
            const Tenancy &tenancy, pc::util::ThreadPool *pool,
            FleetScanBramScore *bram, Tracer &tr, ReplayCounts *counts)
{
    pc::cloud::FpgaInstance &inst = platform.instance(board);
    pc::fabric::Device &device = inst.device();
    device.setWorkPool(pool);
    counts->deferred_keys += device.journaledKeyCount();

    if (bram != nullptr) {
        bram->board = board;
        bram->unclean = tenancy.unclean;
        for (std::size_t r = 0; r < tenancy.bram_words.size(); ++r) {
            const pc::fabric::BramBlock *block = nullptr;
            {
                Scope span(&tr, "fabric.bram_io");
                block = &device.readBram(bramBlockId(r));
            }
            ++bram->blocks;
            switch (block->state) {
              case pc::fabric::BramState::Decayed:
                ++bram->decayed;
                break;
              case pc::fabric::BramState::Unwritten:
              case pc::fabric::BramState::Zeroed:
                ++bram->zeroed;
                break;
              default:
                break;
            }
            if ((block->state == pc::fabric::BramState::Written ||
                 block->state == pc::fabric::BramState::Retained) &&
                block->content == tenancy.bram_words[r]) {
                ++bram->recovered;
            }
        }
    }

    pc::tdc::TdcConfig sensor_config;
    sensor_config.fast_sampling = true;
    auto measure = std::make_shared<pc::tdc::MeasureDesign>(
        device, tenancy.specs, sensor_config);
    const auto load = [&](std::shared_ptr<const pc::fabric::Design> d) {
        Scope span(&tr, "cloud.load_attack");
        if (!platform.loadDesign(board, std::move(d)).empty()) {
            pc::util::fatal("replay: attack design failed DRC");
        }
    };
    load(measure);
    {
        Scope span(&tr, "tdc.calibrate");
        measure->calibrateAll(inst.dieTempK(), inst.rng(), pool);
    }

    auto park = std::make_shared<pc::fabric::Design>("park0_" + board);
    for (const pc::fabric::RouteSpec &spec : tenancy.specs) {
        park->setRouteValue(spec, false);
    }
    park->setPowerW(2.0);

    std::vector<pc::core::DeltaSeries> series(tenancy.specs.size());
    bool first = true;
    const auto sweepNow = [&](double hour) {
        load(measure);
        {
            Scope span(&tr, "cloud.advance_settle");
            platform.advanceHours(pc::core::kMeasureSettleHours);
        }
        pc::tdc::MeasurementSweep sweep;
        {
            Scope span(&tr, first ? "tdc.sweep_first" : "tdc.sweep");
            sweep = measure->measureAll(inst.dieTempK(), inst.rng(), pool);
        }
        first = false;
        for (std::size_t i = 0; i < series.size(); ++i) {
            series[i].addPoint(hour, sweep.per_route[i].deltaPs());
        }
    };
    double observed = 0.0;
    sweepNow(0.0);
    while (observed < kRecoveryHours - 1e-9) {
        load(park);
        {
            Scope span(&tr, "cloud.advance_settle");
            platform.advanceHours(1.0 - pc::core::kMeasureSettleHours);
        }
        observed += 1.0;
        sweepNow(observed);
    }

    pc::core::ExperimentResult result;
    for (std::size_t i = 0; i < tenancy.specs.size(); ++i) {
        pc::core::RouteRecord record;
        record.name = tenancy.specs[i].name;
        record.target_ps = tenancy.specs[i].target_ps;
        record.burn_value = tenancy.bits[i];
        record.series = series[i].centeredAtFirst();
        result.routes.push_back(std::move(record));
    }
    pc::core::ClassificationReport report;
    {
        Scope span(&tr, "core.classify");
        report = pc::core::ThreatModel2Classifier().classify(result);
    }
    counts->materialised_keys += device.materializedIds().size();
    {
        Scope span(&tr, "cloud.release");
        platform.release(board);
    }
    device.setWorkPool(nullptr);
    FleetScanBoardScore score;
    score.board = board;
    score.bits = report.bits.size();
    score.correct = report.correct;
    score.accuracy = report.accuracy;
    return score;
}

} // namespace

pc::util::Expected<FleetScanResult>
replayFleetScan(const FleetScanConfig &config, Tracer &tr,
                ReplayCounts *counts)
{
    if (config.fleet == 0 || config.days <= 0 ||
        config.routes_per_tenant == 0 || config.shard_count != 0 ||
        config.golden_compat) {
        return pc::util::unexpected(
            std::string("replay: unsupported config"));
    }
    const bool checkpointing = !config.checkpoint_path.empty();
    pc::cloud::PlatformConfig platform_config;
    platform_config.fleet_size = config.fleet;
    platform_config.region = "fleet-sim";
    platform_config.policy =
        pc::cloud::AllocationPolicy::MostRecentlyReleased;
    platform_config.seed = config.seed;
    platform_config.bram_scrub = config.bram_scrub;

    FleetScanResult result;
    State state;
    bool resumed = false;
    if (checkpointing && config.resume != pc::serve::ResumeMode::Never) {
        pc::util::Expected<State> attempt = restoreFrom(
            config.checkpoint_path, platform_config, config, tr);
        bool used_fallback = false;
        std::string primary_error;
        if (!attempt.ok()) {
            primary_error = attempt.error();
            attempt = restoreFrom(config.checkpoint_path + ".prev",
                                  platform_config, config, tr);
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
        } else if (config.resume == pc::serve::ResumeMode::Require) {
            return pc::util::unexpected("cannot resume: " + primary_error);
        }
    }
    if (!resumed) {
        state.platform =
            std::make_unique<pc::cloud::CloudPlatform>(platform_config);
        pc::util::Rng base(config.seed);
        state.rng = base.split("serve_fleet_scan");
    }
    pc::cloud::CloudPlatform &platform = *state.platform;

    const auto releaseTenancy = [&](const Active &a) {
        Scope span(&tr, "cloud.release");
        if (config.bram_channel && a.record.unclean) {
            const double off_h =
                pc::util::Rng(config.seed)
                    .split("bram_off_h")
                    .split(a.board)
                    .split(static_cast<std::uint64_t>(a.start_day))
                    .uniform(0.0, kMaxOffPowerH);
            platform.releaseUnclean(a.board, off_h);
        } else {
            platform.release(a.board);
        }
    };

    for (int day = state.next_day; day < config.days; ++day) {
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
            std::optional<std::string> board;
            {
                Scope span(&tr, "cloud.rent");
                board = platform.rent();
            }
            if (!board) {
                break;
            }
            pc::fabric::Device &device = platform.instance(*board).device();
            Tenancy tenancy;
            tenancy.board = *board;
            for (std::size_t r = 0; r < config.routes_per_tenant; ++r) {
                {
                    Scope span(&tr, "fabric.allocate_route");
                    tenancy.specs.push_back(device.allocateRoute(
                        *board + "_d" + std::to_string(day) + "_r" +
                            std::to_string(r),
                        kRouteTargetPs));
                }
                tenancy.bits.push_back(state.rng.bernoulli(0.5));
            }
            auto target = makeTenantDesign(tenancy, day);
            {
                Scope span(&tr, "cloud.load_tenant");
                if (!platform.loadDesign(*board, target).empty()) {
                    pc::util::fatal("replay: tenant design failed DRC");
                }
            }
            if (config.bram_channel) {
                pc::util::Rng words =
                    pc::util::Rng(config.seed)
                        .split("bram_words")
                        .split(*board)
                        .split(static_cast<std::uint64_t>(day));
                for (std::size_t r = 0; r < config.routes_per_tenant;
                     ++r) {
                    const std::uint64_t word = words();
                    {
                        Scope span(&tr, "fabric.bram_io");
                        device.writeBram(bramBlockId(r), word);
                    }
                    tenancy.bram_words.push_back(word);
                }
                tenancy.unclean =
                    pc::util::Rng(config.seed)
                        .split("bram_unclean")
                        .split(*board)
                        .split(static_cast<std::uint64_t>(day))
                        .bernoulli(kUncleanTeardownP);
            }
            const double duration_h =
                24.0 * static_cast<double>(state.rng.uniformInt(2, 14));
            state.active.push_back(
                Active{*board, now + duration_h, day, std::move(tenancy),
                       config.journal_stress ? target : nullptr});
        }
        if (config.journal_stress) {
            for (const Active &a : state.active) {
                applyRotation(a, day);
            }
        }
        {
            Scope span(&tr, "cloud.advance_day");
            platform.advanceHours(24.0);
        }
        const int completed = day + 1;
        state.next_day = completed;
        const bool halting = config.halt_at_day > 0 &&
                             completed >= config.halt_at_day &&
                             completed < config.days;
        const bool periodic = checkpointing &&
                              config.checkpoint_every_days > 0 &&
                              completed % config.checkpoint_every_days == 0 &&
                              completed < config.days;
        if (periodic || (halting && checkpointing)) {
            saveCheckpoint(state, config, tr, counts);
        }
        if (halting) {
            result.halted_after_day = completed;
            result.tenancies = state.finished.size();
            result.simulated_h = platform.nowHours();
            return result;
        }
        if (config.observer != nullptr &&
            !config.observer->onSweep(static_cast<std::size_t>(completed),
                                      platform.nowHours(), nullptr, 0)) {
            throw pc::util::CancelledError("replay cancelled");
        }
    }
    for (Active &a : state.active) {
        a.record.released_at_h = platform.nowHours();
        releaseTenancy(a);
        state.finished.push_back(std::move(a.record));
    }
    state.active.clear();
    result.tenancies = state.finished.size();
    result.simulated_h = platform.nowHours();

    std::vector<std::pair<std::string, const Tenancy *>> targets;
    std::vector<std::string> skipped;
    while (targets.size() < config.max_measured) {
        std::optional<std::string> board;
        {
            Scope span(&tr, "cloud.rent");
            board = platform.rent();
        }
        if (!board) {
            break;
        }
        const Tenancy *last = nullptr;
        for (const Tenancy &t : state.finished) {
            if (t.board == *board &&
                (last == nullptr || t.released_at_h > last->released_at_h)) {
                last = &t;
            }
        }
        if (last == nullptr) {
            skipped.push_back(*board);
            continue;
        }
        targets.emplace_back(*board, last);
    }
    result.skipped = skipped.size();
    for (const auto &[board, tenancy] : targets) {
        FleetScanBramScore bram;
        result.boards.push_back(attackBoard(
            platform, board, *tenancy, config.pool,
            config.bram_channel ? &bram : nullptr, tr, counts));
        if (config.bram_channel) {
            result.bram_boards.push_back(std::move(bram));
        }
    }
    for (const std::string &board : skipped) {
        Scope span(&tr, "cloud.release");
        platform.release(board);
    }
    result.bram_scrub_ops = platform.bramScrubOps();

    if (config.journal_stress) {
        for (const std::string &id : platform.allInstanceIds()) {
            pc::fabric::Device &device = platform.instance(id).device();
            const std::size_t deferred = device.journaledKeyCount();
            if (deferred == 0) {
                continue;
            }
            const std::vector<pc::fabric::ResourceId> imprinted =
                device.imprintedIds();
            {
                Scope span(&tr, "fabric.materialise");
                for (const pc::fabric::ResourceId &rid : imprinted) {
                    (void)device.element(rid);
                }
            }
            const std::vector<pc::fabric::ResourceId> materialized =
                device.materializedIds();
            bool converged = device.journaledKeyCount() == 0 &&
                             materialized.size() == imprinted.size();
            for (std::size_t i = 0; converged && i < imprinted.size(); ++i) {
                converged = materialized[i].key() == imprinted[i].key();
            }
            if (!converged) {
                return pc::util::unexpected(
                    "replay: journal coverage check failed on " + id);
            }
            ++result.stress_boards;
            result.stress_elements += deferred;
        }
    }
    return result;
}

} // namespace perfbench
