#include "cloud/ambient.hpp"

#include <cmath>

#include "util/logging.hpp"
#include "util/snapshot.hpp"

namespace pentimento::cloud {

AmbientModel::AmbientModel(AmbientParams params, util::Rng rng)
    : params_(params), rng_(rng), temp_k_(params.mean_k)
{
    if (params_.mean_k <= 0.0) {
        util::fatal("AmbientModel: non-positive mean temperature");
    }
    if (params_.reversion_per_h < 0.0 || params_.sigma_k < 0.0) {
        util::fatal("AmbientModel: negative process parameter");
    }
    if (!(params_.event_every_h > 0.0) ||
        !std::isfinite(params_.event_every_h)) {
        util::fatal("AmbientModel: event cadence must be positive");
    }
    // Exact OU discretisation over one event interval: the stationary
    // sd equals sigma_k regardless of cadence. Same expressions the
    // per-step walk evaluated per call, hoisted to construction.
    decay_ = std::exp(-params_.reversion_per_h * params_.event_every_h);
    noise_sd_ = params_.sigma_k * std::sqrt(1.0 - decay_ * decay_);
}

std::uint64_t
AmbientModel::targetEvents() const
{
    const double t = clock_h_.value();
    if (t <= 0.0) {
        return 0;
    }
    // Event k covers the cell ((k-1)e, ke]: entering a cell commits
    // its draw, so at clock t every event with boundary strictly
    // below t plus the one covering t itself has fired.
    return static_cast<std::uint64_t>(
        std::ceil(t / params_.event_every_h));
}

double
AmbientModel::hoursUntilBoundary() const
{
    const double e = params_.event_every_h;
    const double t = clock_h_.value();
    const double cells = std::floor(t / e);
    double span = (cells + 1.0) * e - t;
    // Guard the cell arithmetic against rounding at huge clock/cadence
    // ratios: never report a non-positive or over-long span.
    if (span <= 0.0) {
        span = e;
    }
    return span < e ? span : e;
}

void
AmbientModel::advance(double dt_h)
{
    // The one guard for both entry points (step() forwards here). An
    // infinite clock would reach the event count's integer cast.
    if (!(dt_h >= 0.0) || !std::isfinite(dt_h)) {
        util::fatal("AmbientModel::advance: time step must be finite "
                    "and non-negative");
    }
    clock_h_.add(dt_h);
}

void
AmbientModel::materialize()
{
    const std::uint64_t target = targetEvents();
    // Draws are consumed from the private stream strictly in event
    // order, so the value of draw k depends only on (seed, k): any
    // partition of the advanced span replays the same sequence.
    while (committed_ < target) {
        temp_k_ = params_.mean_k + (temp_k_ - params_.mean_k) * decay_ +
                  rng_.gaussian(0.0, noise_sd_);
        ++committed_;
    }
}

double
AmbientModel::ambientK()
{
    materialize();
    return temp_k_;
}

double
AmbientModel::step(double dt_h)
{
    advance(dt_h);
    return ambientK();
}

void
AmbientModel::saveState(util::SnapshotWriter &writer) const
{
    // Parameter fingerprint: the draw sequence is a pure function of
    // (params, seed), so restoring under different params would splice
    // two different processes together.
    writer.f64(params_.mean_k);
    writer.f64(params_.reversion_per_h);
    writer.f64(params_.sigma_k);
    writer.f64(params_.event_every_h);
    writer.f64(temp_k_);
    writer.f64(clock_h_.rawSum());
    writer.f64(clock_h_.rawCompensation());
    writer.u64(committed_);
    const util::Rng::State rng = rng_.state();
    for (const std::uint64_t word : rng.words) {
        writer.u64(word);
    }
    writer.f64(rng.cached);
    writer.u8(rng.have_cached ? 1 : 0);
}

bool
AmbientModel::restoreState(util::SnapshotReader &reader)
{
    const double mean_k = reader.f64();
    const double reversion = reader.f64();
    const double sigma_k = reader.f64();
    const double cadence = reader.f64();
    const double temp_k = reader.f64();
    const double clock_sum = reader.f64();
    const double clock_comp = reader.f64();
    const std::uint64_t committed = reader.u64();
    util::Rng::State rng;
    for (std::uint64_t &word : rng.words) {
        word = reader.u64();
    }
    rng.cached = reader.f64();
    rng.have_cached = reader.u8() != 0;
    if (!reader.ok()) {
        return false;
    }
    if (mean_k != params_.mean_k ||
        reversion != params_.reversion_per_h ||
        sigma_k != params_.sigma_k ||
        cadence != params_.event_every_h) {
        reader.fail("snapshot: ambient parameter fingerprint mismatch");
        return false;
    }
    if (!std::isfinite(temp_k) || temp_k <= 0.0 ||
        !std::isfinite(clock_sum)) {
        reader.fail("snapshot: ambient state is not physical");
        return false;
    }
    temp_k_ = temp_k;
    clock_h_.restoreParts(clock_sum, clock_comp);
    committed_ = committed;
    if (committed_ > targetEvents()) {
        reader.fail("snapshot: ambient event cursor is ahead of its "
                    "clock");
        return false;
    }
    rng_.setState(rng);
    return true;
}

} // namespace pentimento::cloud
