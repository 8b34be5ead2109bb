#include "tdc/tdc.hpp"

#include <algorithm>
#include <cmath>

#include "util/logging.hpp"
#include "util/stats.hpp"

namespace pentimento::tdc {

std::size_t
Capture::hammingDistance() const
{
    // Rising: distance from 64'h0 = popcount of ones.
    // Falling: distance from 64'hffff... = popcount of zeros.
    std::size_t count = 0;
    const bool counted = polarity == phys::Transition::Rising;
    for (const bool bit : bits) {
        if (bit == counted) {
            ++count;
        }
    }
    return count;
}

double
Trace::meanHamming() const
{
    return util::mean(hamming);
}

Tdc::Tdc(fabric::Device &device, fabric::RouteSpec route,
         fabric::RouteSpec chain, TdcConfig config)
    : device_(&device), route_(std::move(route)), chain_(std::move(chain)),
      config_(config)
{
    // Reject configurations that would silently produce NaN/inf
    // hamming (the aperture predicate divides by the window; the
    // trace means divide by the sample counts) before any capture
    // runs. A zero jitter sigma stays legal — tests use noiseless
    // sensors — but a negative or non-finite one is nonsense.
    if (!(config_.metastable_window_ps > 0.0)) {
        util::fatal("TdcConfig: metastable_window_ps must be > 0");
    }
    if (config_.taps == 0) {
        util::fatal("TdcConfig: taps must be > 0");
    }
    if (config_.samples_per_trace <= 0) {
        util::fatal("TdcConfig: samples_per_trace must be > 0");
    }
    if (config_.traces_per_measurement <= 0) {
        util::fatal("TdcConfig: traces_per_measurement must be > 0");
    }
    if (!(config_.jitter_sigma_ps >= 0.0) ||
        !std::isfinite(config_.jitter_sigma_ps)) {
        util::fatal("TdcConfig: jitter_sigma_ps must be finite and "
                    ">= 0");
    }
    if (!(config_.ps_per_bit > 0.0)) {
        util::fatal("TdcConfig: ps_per_bit must be > 0");
    }
    if (chain_.elements.size() != config_.taps) {
        util::fatal("Tdc: carry chain has " +
                    std::to_string(chain_.elements.size()) +
                    " taps but config expects " +
                    std::to_string(config_.taps));
    }
    if (route_.elements.empty()) {
        util::fatal("Tdc: empty route under test");
    }
    // Bind once: resolve every id to its dense element so the
    // measurement path never hashes or locks.
    route_elems_.reserve(route_.elements.size());
    chain_elems_.reserve(chain_.elements.size());
    bound_handles_.reserve(route_.elements.size() +
                           chain_.elements.size());
    for (const fabric::ResourceId &id : route_.elements) {
        const fabric::ElementHandle h = device_->bindElement(id);
        bound_handles_.push_back(h);
        route_elems_.push_back(&device_->elementAt(h));
    }
    for (const fabric::ResourceId &id : chain_.elements) {
        const fabric::ElementHandle h = device_->bindElement(id);
        bound_handles_.push_back(h);
        chain_elems_.push_back(&device_->elementAt(h));
    }
}

void
Tdc::fillArrivalCaches(double temp_k) const
{
    // Fold pending aging segments into the bound elements before the
    // walk. This runs only on an arrival-cache miss (state epoch or
    // temperature changed), so the per-trace hot path never syncs.
    device_->syncHandles(bound_handles_.data(), bound_handles_.size());
    // Read the epoch after the sync: syncing folds segments the epoch
    // bump already announced, it never bumps the epoch itself.
    const std::uint64_t epoch = device_->stateEpoch();
    const auto &cfg = device_->config();
    const double rise_factor =
        cfg.delay.temperatureFactor(phys::Transition::Rising, temp_k);
    const double fall_factor =
        cfg.delay.temperatureFactor(phys::Transition::Falling, temp_k);
    ArrivalCache &rise = arrival_cache_[0];
    ArrivalCache &fall = arrival_cache_[1];
    rise.arrivals.clear();
    fall.arrivals.clear();
    rise.arrivals.reserve(chain_elems_.size());
    fall.arrivals.reserve(chain_elems_.size());
    double t_rise = 0.0;
    double t_fall = 0.0;
    // One traversal computes both polarities: the ΔVth memo hands
    // each element its NMOS and PMOS shifts (filled at most once per
    // state epoch), and the two running sums accumulate in the same
    // element order as a single-polarity walk, so each polarity's
    // arrivals stay bit-identical to the historical per-polarity
    // recompute.
    std::size_t k = 0;
    const auto walk = [&](const fabric::RoutingElement *elem,
                          bool is_tap) {
        const fabric::ElementDvth &memo =
            device_->dvthAt(bound_handles_[k++]);
        // Rising edges are limited by the PMOS pull-up, falling edges
        // by the NMOS pull-down (phys::limitingTransistor).
        t_rise += elem->delayPsCached(cfg.delay,
                                      phys::Transition::Rising,
                                      memo.pmos_v, rise_factor);
        t_fall += elem->delayPsCached(cfg.delay,
                                      phys::Transition::Falling,
                                      memo.nmos_v, fall_factor);
        if (is_tap) {
            rise.arrivals.push_back(t_rise);
            fall.arrivals.push_back(t_fall);
        }
    };
    for (const fabric::RoutingElement *elem : route_elems_) {
        walk(elem, false);
    }
    for (const fabric::RoutingElement *elem : chain_elems_) {
        walk(elem, true);
    }
    rise.epoch = epoch;
    fall.epoch = epoch;
    rise.temp_k = temp_k;
    fall.temp_k = temp_k;
}

const std::vector<double> &
Tdc::cachedArrivalsPs(phys::Transition polarity, double temp_k) const
{
    ArrivalCache &cache =
        arrival_cache_[polarity == phys::Transition::Falling ? 1 : 0];
    const std::uint64_t epoch = device_->stateEpoch();
    if (cache.arrivals.empty() || cache.epoch != epoch ||
        cache.temp_k != temp_k) {
        // calibrate/measure always probe both polarities at this
        // (state, temperature), so one miss refills both caches with
        // a single sync + walk.
        fillArrivalCaches(temp_k);
    }
    return cache.arrivals;
}

Capture
Tdc::captureFromArrivals(const std::vector<double> &arrivals,
                         phys::Transition polarity, double theta_ps,
                         util::Rng &rng) const
{
    const double theta_eff =
        theta_ps + rng.gaussian(0.0, config_.jitter_sigma_ps);

    Capture cap;
    cap.polarity = polarity;
    cap.bits.reserve(arrivals.size());
    const double w = config_.metastable_window_ps;
    for (const double arrival : arrivals) {
        // Has the front passed this tap by the capture edge? Inside
        // the register aperture the outcome is probabilistic, which
        // produces the metastable bubbles of Figure 3.
        const double x = (theta_eff - arrival) / w;
        bool passed;
        if (x >= 0.5) {
            passed = true;
        } else if (x <= -0.5) {
            passed = false;
        } else {
            passed = rng.bernoulli(x + 0.5);
        }
        // A passed tap shows the new value: 1 for a rising front,
        // 0 for a falling front.
        const bool new_value = polarity == phys::Transition::Rising;
        cap.bits.push_back(passed ? new_value : !new_value);
    }
    return cap;
}

std::size_t
Tdc::sampleHamming(const std::vector<double> &arrivals, double theta_ps,
                   util::Rng &rng) const
{
    const double theta_eff =
        theta_ps + rng.gaussian(0.0, config_.jitter_sigma_ps);
    const double w = config_.metastable_window_ps;
    // The per-tap predicate x = (theta_eff - arrival) / w is weakly
    // decreasing along the (strictly increasing) arrivals, so the
    // chain splits into a passed prefix (x >= 0.5), a metastable
    // aperture, and a missed suffix (x <= -0.5). Both boundaries use
    // the exact same predicate as captureFromArrivals, so the
    // bernoulli draw sequence — and thus every downstream random
    // number — is identical.
    const auto x = [&](double arrival) {
        return (theta_eff - arrival) / w;
    };
    // The division in x() dominates a binary search (one divide per
    // probe), so locate each boundary with division-free approximate
    // predicates first and then fix up with the exact predicate: the
    // two forms can only disagree within an ulp of the aperture
    // edges, so the fixup loops run 0-1 iterations and the result —
    // including which taps consume bernoulli draws — is bit-identical
    // to probing with x() directly.
    const double hi_cut = theta_eff - 0.5 * w; // x >= 0.5 ~ a <= hi
    const double lo_cut = theta_eff + 0.5 * w; // x > -0.5 ~ a < lo
    auto first_unpassed = std::partition_point(
        arrivals.begin(), arrivals.end(),
        [&](double arrival) { return arrival <= hi_cut; });
    while (first_unpassed != arrivals.begin() &&
           !(x(*(first_unpassed - 1)) >= 0.5)) {
        --first_unpassed;
    }
    while (first_unpassed != arrivals.end() &&
           x(*first_unpassed) >= 0.5) {
        ++first_unpassed;
    }
    auto first_missed = std::partition_point(
        first_unpassed, arrivals.end(),
        [&](double arrival) { return arrival < lo_cut; });
    while (first_missed != first_unpassed &&
           !(x(*(first_missed - 1)) > -0.5)) {
        --first_missed;
    }
    while (first_missed != arrivals.end() && x(*first_missed) > -0.5) {
        ++first_missed;
    }
    std::size_t passed =
        static_cast<std::size_t>(first_unpassed - arrivals.begin());
    for (auto it = first_unpassed; it != first_missed; ++it) {
        if (rng.bernoulli(x(*it) + 0.5)) {
            ++passed;
        }
    }
    // Both polarities read out as the number of passed taps: rising
    // counts ones from all-zeros, falling counts zeros from all-ones.
    return passed;
}

Capture
Tdc::capture(phys::Transition polarity, double theta_ps, double temp_k,
             util::Rng &rng) const
{
    return captureFromArrivals(cachedArrivalsPs(polarity, temp_k),
                               polarity, theta_ps, rng);
}

Trace
Tdc::takeTrace(phys::Transition polarity, double theta_ps, double temp_k,
               util::Rng &rng) const
{
    // Arrival times are deterministic for a fixed device state and
    // temperature; the epoch-keyed cache shares them across traces
    // and calibration iterations (only jitter and metastability vary
    // per sample).
    const std::vector<double> &arrivals =
        cachedArrivalsPs(polarity, temp_k);
    Trace trace;
    trace.polarity = polarity;
    trace.theta_ps = theta_ps;
    trace.hamming.reserve(
        static_cast<std::size_t>(config_.samples_per_trace));
    for (int s = 0; s < config_.samples_per_trace; ++s) {
        trace.hamming.push_back(static_cast<double>(
            sampleHamming(arrivals, theta_ps, rng)));
    }
    return trace;
}

double
Tdc::fastTraceMeanHamming(const std::vector<double> &arrivals,
                          double theta_ps, util::Rng &rng) const
{
    const std::size_t n =
        static_cast<std::size_t>(config_.samples_per_trace);
    jitter_scratch_.resize(n);
    // Whole trace's jitter up front: the ziggurat draws ~1 raw 64-bit
    // word per variate with no transcendentals, and the block loop
    // keeps the generator state hot instead of round-tripping through
    // the sampling state machine per sample.
    rng.gaussianFastBlock(0.0, config_.jitter_sigma_ps,
                          jitter_scratch_.data(), n);
    const double w = config_.metastable_window_ps;
    // One FP divide per metastable tap adds up at ~1.4 aperture taps
    // per sample; the reciprocal turns it into a multiply.
    const double inv_w = 1.0 / w;
    const std::size_t taps = arrivals.size();
    // Every tap whose pass/miss outcome could depend on this trace's
    // jitter lies inside a fixed window around θ: the aperture spans
    // w, and jitter moves it by at most ±guard (6σ — beyond that the
    // sample takes the full search below, ~1e-9 of draws). Resolving
    // the window once per trace lets the per-sample front positions
    // come from short fixed-trip counting loops instead of
    // data-dependent walks, which the branch predictor hates.
    const double guard = 6.0 * config_.jitter_sigma_ps;
    const auto lower = [&](double cut) {
        return static_cast<std::size_t>(
            std::partition_point(arrivals.begin(), arrivals.end(),
                                 [&](double a) { return a <= cut; }) -
            arrivals.begin());
    };
    const auto upper = [&](double cut) {
        return static_cast<std::size_t>(
            std::partition_point(arrivals.begin(), arrivals.end(),
                                 [&](double a) { return a < cut; }) -
            arrivals.begin());
    };
    const std::size_t wlo = lower(theta_ps - guard - 0.5 * w);
    const std::size_t whi = upper(theta_ps + guard + 0.5 * w);
    std::uint64_t sum = 0;
    for (std::size_t s = 0; s < n; ++s) {
        const double jitter = jitter_scratch_[s];
        const double theta_eff = theta_ps + jitter;
        // Same aperture predicate as sampleHamming, in cut form:
        // passed for arrival <= theta_eff - w/2, missed for
        // arrival >= theta_eff + w/2, bernoulli in between.
        const double hi_cut = theta_eff - 0.5 * w;
        const double lo_cut = theta_eff + 0.5 * w;
        std::size_t fu;
        std::size_t fm;
        if (std::abs(jitter) > guard) {
            // Tail jitter escaped the precomputed window: fall back
            // to full partition searches for this sample.
            fu = lower(hi_cut);
            fm = upper(lo_cut);
        } else {
            fu = wlo;
            fm = wlo;
            for (std::size_t i = wlo; i < whi; ++i) {
                fu += arrivals[i] <= hi_cut ? 1u : 0u;
                fm += arrivals[i] < lo_cut ? 1u : 0u;
            }
        }
        std::uint64_t passed = fu;
        // With the default geometry (w ≈ 1.4 tap pitches) at most two
        // taps are metastable, so the first two draws run as a
        // fixed-trip masked loop — a draw is consumed even when the
        // aperture holds one tap, keeping the trip count (and the
        // branch pattern) constant. The mask is a bitwise AND of the
        // two comparisons: `&&` would compile to a branch on the
        // coin flip. Wider-than-pitch apertures spill into the
        // generic tail loop.
        for (std::size_t k = 0; k < 2; ++k) {
            const std::size_t idx = fu + k;
            const std::size_t safe = idx < taps ? idx : taps - 1;
            const double p = (theta_eff - arrivals[safe]) * inv_w + 0.5;
            passed += (rng.uniform() < p) & (idx < fm);
        }
        for (std::size_t i = fu + 2; i < fm; ++i) {
            const double p = (theta_eff - arrivals[i]) * inv_w + 0.5;
            passed += rng.uniform() < p ? 1u : 0u;
        }
        sum += passed;
    }
    // The Hamming sum is an exact integer (≤ samples·taps), so the
    // plain division is the trace mean with no Welford passes.
    return static_cast<double>(sum) / static_cast<double>(n);
}

double
Tdc::meanTraceHamming(phys::Transition polarity, double theta_ps,
                      double temp_k, util::Rng &rng) const
{
    const std::vector<double> &arrivals =
        cachedArrivalsPs(polarity, temp_k);
    if (config_.fast_sampling) {
        return fastTraceMeanHamming(arrivals, theta_ps, rng);
    }
    // Identical accumulation to util::mean over the trace vector
    // (Welford, samples in draw order) — bit-for-bit the same mean.
    util::RunningStats stats;
    for (int s = 0; s < config_.samples_per_trace; ++s) {
        stats.add(static_cast<double>(
            sampleHamming(arrivals, theta_ps, rng)));
    }
    return stats.mean();
}

double
Tdc::calibrate(double temp_k, util::Rng &rng)
{
    // The physical procedure iteratively reduces θ until the fronts
    // appear mid-chain (§5.2). HD(θ) is monotone, so we binary-search
    // the rising polarity to the chain midpoint and then verify the
    // falling front also sits inside the margins.
    const double mid = static_cast<double>(config_.taps) / 2.0;
    const double span =
        static_cast<double>(config_.taps) * config_.ps_per_bit;
    double hi = route_.target_ps * 2.0 + span + 2000.0;
    // A route aged (or mis-specified) far beyond its target can push
    // the true θ* past the nominal bracket; the old code silently
    // saturated at hi and biased every downstream measurement. The
    // search itself detects that for free: HD(θ) is monotone in θ, so
    // hi never moving means every probe sat below the midpoint — the
    // front never reached mid-chain anywhere inside [0, hi]. Widen
    // geometrically and retry; fail loudly if even a ~512x bracket
    // cannot contain the route. Well-bracketed routes take the first
    // pass and consume exactly the historical draw sequence.
    const double hi_limit = hi * 600.0;
    double theta = 0.0;

    const auto meanHdAt = [&](double theta_probe) {
        return meanTraceHamming(phys::Transition::Rising, theta_probe,
                                temp_k, rng);
    };

    while (true) {
        double lo = 0.0;
        double hi_cur = hi;
        bool hi_moved = false;
        for (int iter = 0; iter < 48 && hi_cur - lo > 0.25; ++iter) {
            const double probe = 0.5 * (lo + hi_cur);
            if (meanHdAt(probe) < mid) {
                lo = probe;
            } else {
                hi_cur = probe;
                hi_moved = true;
            }
        }
        theta = 0.5 * (lo + hi_cur);
        if (hi_moved) {
            break;
        }
        hi *= 2.0;
        if (hi > hi_limit) {
            util::fatal(
                "Tdc::calibrate: route '" + route_.name +
                "' delay exceeds the maximum search bracket (" +
                std::to_string(hi_limit) +
                " ps) — front never reached mid-chain");
        }
    }

    // Nudge until the falling front is inside the margins too.
    const double lo_taps = static_cast<double>(config_.calibration_margin);
    const double hi_taps =
        static_cast<double>(config_.taps - config_.calibration_margin);
    for (int iter = 0; iter < 32; ++iter) {
        const double fall = meanTraceHamming(phys::Transition::Falling,
                                             theta, temp_k, rng);
        if (fall < lo_taps) {
            theta += config_.ps_per_bit;
        } else if (fall > hi_taps) {
            theta -= config_.ps_per_bit;
        } else {
            break;
        }
    }
    theta_init_ = theta;
    return theta;
}

Measurement
Tdc::measure(double temp_k, util::Rng &rng) const
{
    if (theta_init_ <= 0.0) {
        util::fatal("Tdc::measure: sensor not calibrated (θ_init unset)");
    }
    util::RunningStats rise_traces;
    util::RunningStats fall_traces;
    double seconds = 0.0;
    for (int t = 0; t < config_.traces_per_measurement; ++t) {
        const double theta =
            theta_init_ -
            static_cast<double>(t) * config_.trace_theta_step_ps;
        rise_traces.add(meanTraceHamming(phys::Transition::Rising,
                                         theta, temp_k, rng));
        fall_traces.add(meanTraceHamming(phys::Transition::Falling,
                                         theta, temp_k, rng));
        seconds +=
            config_.retune_seconds +
            2.0 * config_.samples_per_trace * config_.sample_seconds;
    }
    Measurement m;
    m.rising_distance_ps = rise_traces.mean() * config_.ps_per_bit;
    m.falling_distance_ps = fall_traces.mean() * config_.ps_per_bit;
    m.wall_seconds = seconds;
    return m;
}

} // namespace pentimento::tdc
