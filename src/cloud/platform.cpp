#include "cloud/platform.hpp"

#include <algorithm>
#include <cmath>

#include "util/logging.hpp"
#include "util/snapshot.hpp"

namespace pentimento::cloud {

namespace {

constexpr std::uint32_t kPlatformTag =
    util::snapshotTag('P', 'L', 'T', '!');
constexpr std::uint32_t kBoardTag = util::snapshotTag('B', 'R', 'D', '!');

} // namespace

CloudPlatform::CloudPlatform(PlatformConfig config)
    : config_(std::move(config)), drc_(config_.max_power_w),
      rng_(config_.seed)
{
    if (config_.fleet_size == 0) {
        util::fatal("CloudPlatform: empty fleet");
    }
    for (std::size_t i = 0; i < config_.fleet_size; ++i) {
        fabric::DeviceConfig dc = config_.device_template;
        dc.seed = rng_();
        dc.service_age_h = rng_.uniform(config_.min_service_age_h,
                                        config_.max_service_age_h);
        std::string id = "fpga-" + std::to_string(i);
        fleet_.push_back(std::make_unique<FpgaInstance>(
            id, std::move(dc), config_.ambient, rng_.split(id)));
        index_.emplace(fleet_.back()->id(), i);
    }
}

bool
CloudPlatform::availableForRent(const FpgaInstance &inst) const
{
    if (inst.rented()) {
        return false;
    }
    // Launch-rate control: a released board stays quarantined.
    return now_h_ - inst.releasedAtHour() >= config_.quarantine_hours;
}

std::size_t
CloudPlatform::availableCount() const
{
    std::size_t count = 0;
    for (const auto &inst : fleet_) {
        if (availableForRent(*inst)) {
            ++count;
        }
    }
    return count;
}

std::optional<std::string>
CloudPlatform::rent()
{
    std::optional<std::string> id = bookRent();
    if (id) {
        handOver(*find(*id));
    }
    return id;
}

std::optional<std::string>
CloudPlatform::bookRent()
{
    std::vector<FpgaInstance *> candidates;
    for (const auto &inst : fleet_) {
        if (availableForRent(*inst)) {
            candidates.push_back(inst.get());
        }
    }
    if (candidates.empty()) {
        return std::nullopt;
    }
    FpgaInstance *chosen = nullptr;
    switch (config_.policy) {
      case AllocationPolicy::MostRecentlyReleased:
        chosen = *std::max_element(
            candidates.begin(), candidates.end(),
            [](const FpgaInstance *a, const FpgaInstance *b) {
                return a->releasedAtHour() < b->releasedAtHour();
            });
        break;
      case AllocationPolicy::LeastRecentlyReleased:
        chosen = *std::min_element(
            candidates.begin(), candidates.end(),
            [](const FpgaInstance *a, const FpgaInstance *b) {
                return a->releasedAtHour() < b->releasedAtHour();
            });
        break;
      case AllocationPolicy::Random:
        // uniformIndex = uniformInt(0, n-1) with a fatal guard on
        // n == 0 instead of a silent wrap to the full 64-bit range
        // (candidates is non-empty here, but the guard costs nothing
        // and the size()-1 underflow class bit other call sites).
        chosen = candidates[rng_.uniformIndex(candidates.size())];
        break;
    }
    if (config_.bram_scrub == BramScrubPolicy::ZeroOnRent) {
        ++bram_scrub_ops_;
    }
    chosen->setRented(true);
    return chosen->id();
}

void
CloudPlatform::handOver(FpgaInstance &inst) const
{
    // Hand the board over with a clean configuration (drops any
    // provider scrub design that ran while pooled).
    inst.device().wipe();
    if (config_.bram_scrub == BramScrubPolicy::ZeroOnRent) {
        // Scrub at hand-over: catches content left by unclean
        // teardowns that bypassed the release pipeline.
        inst.device().zeroBram();
    }
}

std::vector<std::string>
CloudPlatform::rentAll()
{
    std::vector<std::string> rented;
    while (auto id = rent()) {
        rented.push_back(*id);
    }
    return rented;
}

FpgaInstance *
CloudPlatform::find(const std::string &instance_id)
{
    const auto it = index_.find(instance_id);
    return it == index_.end() ? nullptr : fleet_[it->second].get();
}

void
CloudPlatform::release(const std::string &instance_id)
{
    tearDown(bookRelease(instance_id, /*clean=*/true, now_h_),
             /*clean=*/true, 0.0);
}

void
CloudPlatform::releaseAt(const std::string &instance_id,
                         double released_at_h)
{
    tearDown(bookRelease(instance_id, /*clean=*/true, released_at_h),
             /*clean=*/true, 0.0);
}

void
CloudPlatform::releaseUnclean(const std::string &instance_id,
                              double off_power_hours)
{
    if (!(off_power_hours >= 0.0) || !std::isfinite(off_power_hours)) {
        util::fatal("CloudPlatform::releaseUnclean: bad off-power "
                    "hours");
    }
    tearDown(bookRelease(instance_id, /*clean=*/false, now_h_),
             /*clean=*/false, off_power_hours);
}

FpgaInstance &
CloudPlatform::bookRelease(const std::string &instance_id, bool clean,
                           double released_at_h)
{
    FpgaInstance *inst = find(instance_id);
    if (inst == nullptr || !inst->rented()) {
        util::fatal("CloudPlatform::release: '" + instance_id +
                    "' is not rented");
    }
    if (clean && config_.bram_scrub == BramScrubPolicy::ZeroOnRelease) {
        ++bram_scrub_ops_;
    }
    inst->setRented(false);
    inst->setReleasedAtHour(released_at_h);
    return *inst;
}

void
CloudPlatform::tearDown(FpgaInstance &inst, bool clean,
                        double off_power_hours) const
{
    // Provider-side scrub: the configuration is cleared, the silicon
    // keeps its BTI imprint.
    inst.device().wipe();
    if (!clean) {
        // Unclean teardown: the board saw a power event on its way
        // back to the pool. Content ages against retention; nothing
        // on the interconnect side differs from a clean release.
        inst.device().accrueBramOffPower(off_power_hours);
    } else if (config_.bram_scrub == BramScrubPolicy::ZeroOnRelease) {
        // The release-pipeline content scrub — exactly the step an
        // unclean teardown bypasses.
        inst.device().zeroBram();
    }

    if (config_.active_scrub) {
        // Best-effort analog scrub: toggle everything that was ever
        // configured while the board waits in the pool. This stresses
        // both transistor polarities equally — it can shrink but not
        // invert or erase the differential imprint. imprintedIds (not
        // materializedIds): a tenancy nobody measured leaves its
        // elements journal-deferred, and the scrub must drive those
        // too — it is erasing what it cannot see.
        auto scrub = std::make_shared<fabric::Design>("provider_scrub");
        for (const fabric::ResourceId &id :
             inst.device().imprintedIds()) {
            scrub->setElementActivity(
                id, fabric::ElementActivity{fabric::Activity::Toggle,
                                            0.5});
        }
        scrub->setPowerW(10.0);
        if (scrub->configuredElements() > 0) {
            inst.device().loadDesign(std::move(scrub));
        }
    }
}

FpgaInstance &
CloudPlatform::instance(const std::string &instance_id)
{
    FpgaInstance *inst = find(instance_id);
    if (inst == nullptr) {
        util::fatal("CloudPlatform::instance: unknown id '" +
                    instance_id + "'");
    }
    return *inst;
}

std::vector<fabric::DrcViolation>
CloudPlatform::loadDesign(const std::string &instance_id,
                          std::shared_ptr<const fabric::Design> design)
{
    return configure(bookLoad(instance_id), std::move(design));
}

FpgaInstance &
CloudPlatform::bookLoad(const std::string &instance_id)
{
    FpgaInstance *inst = find(instance_id);
    if (inst == nullptr || !inst->rented()) {
        util::fatal("CloudPlatform::loadDesign: '" + instance_id +
                    "' is not rented");
    }
    return *inst;
}

std::vector<fabric::DrcViolation>
CloudPlatform::configure(FpgaInstance &inst,
                         std::shared_ptr<const fabric::Design> design) const
{
    if (!design) {
        util::fatal("CloudPlatform::loadDesign: null design");
    }
    std::vector<fabric::DrcViolation> violations = drc_.check(*design);
    if (!violations.empty()) {
        return violations;
    }
    inst.device().loadDesign(std::move(design));
    return {};
}

void
CloudPlatform::advanceHours(double hours, double step_h)
{
    // Validate here, not just per instance: a bad span would
    // otherwise fatal mid-fleet with some boards already advanced.
    if (!(hours >= 0.0) || !std::isfinite(hours)) {
        util::fatal("CloudPlatform::advanceHours: bad hours");
    }
    if (!(step_h > 0.0)) {
        util::fatal("CloudPlatform::advanceHours: bad step");
    }
    // Idle pooled stock advances in O(1) per board (deferred ambient
    // walk); rented/configured boards sub-step between ambient
    // events. Fleet-scale campaigns are bounded by the boards a
    // tenant or attacker actually touches, not the fleet.
    for (const auto &inst : fleet_) {
        inst->advanceHours(hours, step_h);
    }
    now_h_ += hours;
}

void
CloudPlatform::advanceClock(double hours)
{
    if (!(hours >= 0.0) || !std::isfinite(hours)) {
        util::fatal("CloudPlatform::advanceClock: bad hours");
    }
    now_h_ += hours;
}

std::vector<std::string>
CloudPlatform::allInstanceIds() const
{
    std::vector<std::string> ids;
    ids.reserve(fleet_.size());
    for (const auto &inst : fleet_) {
        ids.push_back(inst->id());
    }
    return ids;
}

void
CloudPlatform::saveState(util::SnapshotWriter &writer) const
{
    writer.beginChunk(kPlatformTag);
    writer.u64(config_.fleet_size);
    writer.u64(config_.seed);
    writer.str(config_.region);
    writer.u8(static_cast<std::uint8_t>(config_.policy));
    writer.f64(config_.quarantine_hours);
    writer.u8(config_.active_scrub ? 1 : 0);
    writer.u8(static_cast<std::uint8_t>(config_.bram_scrub));
    writer.u64(bram_scrub_ops_.load());
    writer.f64(now_h_);
    const util::Rng::State rng = rng_.state();
    for (const std::uint64_t word : rng.words) {
        writer.u64(word);
    }
    writer.f64(rng.cached);
    writer.u8(rng.have_cached ? 1 : 0);
    writer.endChunk();
    for (const auto &inst : fleet_) {
        writer.beginChunk(kBoardTag);
        inst->saveState(writer);
        writer.endChunk();
    }
}

util::Expected<void>
CloudPlatform::restoreState(util::SnapshotReader &reader,
                            std::vector<std::string> *boards_with_design)
{
    if (!reader.enterChunk(kPlatformTag)) {
        return reader.status();
    }
    const std::uint64_t fleet_size = reader.u64();
    const std::uint64_t seed = reader.u64();
    const std::string region = reader.str();
    const std::uint8_t policy = reader.u8();
    const double quarantine = reader.f64();
    const bool active_scrub = reader.u8() != 0;
    const std::uint8_t bram_scrub = reader.u8();
    const std::uint64_t bram_scrub_ops = reader.u64();
    const double now_h = reader.f64();
    util::Rng::State rng;
    for (std::uint64_t &word : rng.words) {
        word = reader.u64();
    }
    rng.cached = reader.f64();
    rng.have_cached = reader.u8() != 0;
    if (!reader.leaveChunk()) {
        return reader.status();
    }
    if (fleet_size != config_.fleet_size || seed != config_.seed ||
        region != config_.region ||
        policy != static_cast<std::uint8_t>(config_.policy) ||
        quarantine != config_.quarantine_hours ||
        active_scrub != config_.active_scrub ||
        bram_scrub != static_cast<std::uint8_t>(config_.bram_scrub)) {
        reader.fail("snapshot: platform config fingerprint mismatch "
                    "(checkpoint belongs to a different fleet)");
        return reader.status();
    }
    if (!std::isfinite(now_h) || now_h < 0.0) {
        reader.fail("snapshot: platform clock is not physical");
        return reader.status();
    }
    for (const auto &inst : fleet_) {
        if (!reader.enterChunk(kBoardTag)) {
            return reader.status();
        }
        bool had_design = false;
        const util::Expected<void> result =
            inst->restoreState(reader, &had_design);
        if (!result.ok()) {
            return result;
        }
        if (!reader.leaveChunk()) {
            return reader.status();
        }
        if (had_design && boards_with_design != nullptr) {
            boards_with_design->push_back(inst->id());
        }
    }
    now_h_ = now_h;
    rng_.setState(rng);
    bram_scrub_ops_.store(bram_scrub_ops);
    return reader.status();
}

} // namespace pentimento::cloud
