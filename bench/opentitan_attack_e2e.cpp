/**
 * @file
 * End-to-end validation of the OpenTitan case study (paper §5.3):
 * does the Table 1 route-length distribution actually translate into
 * recoverable security assets?
 *
 * For four representative assets — a short life-cycle token, mid-range
 * key-manager keys, and the longest TL-UL signals — we synthesize the
 * asset's routes on a cloud device, let an OpenTitan-like victim hold
 * real asset bits on them for 200 hours, and run the Threat Model 1
 * attack. Measured per-asset recovery is printed beside the analytic
 * vulnerability metric's prediction.
 */

#include <cstdio>
#include <memory>

#include "core/classifier.hpp"
#include "core/experiment.hpp"
#include "core/presets.hpp"
#include "fabric/design.hpp"
#include "opentitan/assets.hpp"
#include "opentitan/route_synth.hpp"
#include "opentitan/vulnerability.hpp"
#include "tdc/measure_design.hpp"
#include "util/rng.hpp"

using namespace pentimento;

namespace {

struct AssetOutcome
{
    double measured_accuracy = 0.0;
    double predicted_fraction = 0.0;
    std::size_t bits = 0;
};

AssetOutcome
attackAsset(const opentitan::AssetInfo &asset, std::size_t max_bits,
            std::uint64_t seed)
{
    cloud::PlatformConfig region = core::awsF1Region(seed);
    region.fleet_size = 1;
    cloud::CloudPlatform platform(region);
    const auto rented = platform.rent();
    fabric::Device &device = platform.instance(*rented).device();
    util::Rng rng(seed);

    // Synthesize the asset's routes; sample a subset of the bus for
    // runtime (stratified: every k-th bit spans the length range).
    opentitan::RouteLengthSynthesizer synth;
    const auto all = synth.synthesizeRoutes(device, asset);
    std::vector<fabric::RouteSpec> specs;
    std::vector<bool> secret;
    const std::size_t stride =
        std::max<std::size_t>(1, all.size() / max_bits);
    for (std::size_t i = 0; i < all.size() && specs.size() < max_bits;
         i += stride) {
        specs.push_back(all[i]);
        secret.push_back(rng.bernoulli(0.5));
    }

    auto victim = std::make_shared<fabric::TargetDesign>(
        "opentitan_" + std::to_string(asset.index), specs, secret);
    const auto measure =
        core::calibrateOnPlatform(platform, *rented, specs, {}, nullptr);
    core::SweepRecorder recorder(specs.size());
    const auto sweep = [&](double hour) {
        recorder.record(hour, core::measureOnPlatform(platform, *rented,
                                                      measure, nullptr));
    };
    sweep(0.0);
    const double hours = core::runSchedule(
        0.0, 200.0, 2.0,
        [&](double, double dt) {
            core::loadChecked(platform, *rented, victim, "victim design");
            platform.advanceHours(dt - core::kMeasureSettleHours);
        },
        sweep);
    platform.release(*rented);

    // Routes differ per bit; classify each on its own drift sign.
    const auto report = core::ThreatModel1Classifier().classify(
        recorder.result(specs, secret, hours));

    opentitan::AttackScenario scenario;
    scenario.burn_hours = 200.0;
    scenario.device_age_h = 30000.0;
    // The attack integrates ~100 sweeps into a trend estimate; its
    // effective noise floor is the single-sweep sigma (~0.19 ps)
    // shrunk by the averaging the tail-mean classifier performs.
    scenario.sensor_noise_ps = 0.05;
    const opentitan::VulnerabilityMetric metric(scenario);
    const auto predicted =
        metric.evaluate(asset, synth.synthesize(asset));

    AssetOutcome outcome;
    outcome.measured_accuracy = report.accuracy;
    outcome.predicted_fraction = predicted.recoverable_fraction;
    outcome.bits = specs.size();
    return outcome;
}

} // namespace

int
main()
{
    std::printf("=== OpenTitan end-to-end attack (Table 1 assets "
                "under Threat Model 1) ===\n");
    std::printf("(200 h cloud burn, asset bits sampled across each "
                "bus; prediction = analytic\nvulnerability metric's "
                "recoverable fraction)\n\n");
    std::printf("  %-42s %6s %10s %11s\n", "asset", "bits", "measured",
                "predicted");

    for (const int index : {1, 7, 17, 20}) {
        const opentitan::AssetInfo &asset =
            opentitan::assetByIndex(index);
        const AssetOutcome outcome = attackAsset(asset, 12, 2024);
        std::printf("  #%-2d %-38s %6zu %9.1f%% %10.1f%%\n",
                    asset.index, asset.path.c_str(), outcome.bits,
                    100.0 * outcome.measured_accuracy,
                    100.0 * outcome.predicted_fraction);
    }

    std::printf("\nshort life-cycle tokens (asset 1) hide below the "
                "noise floor; long TL-UL\nbuses and flash keys leak "
                "most of their bits — route length is destiny,\n"
                "which is what Table 1 is in the paper to show. "
                "(predicted = analytic\nper-route SNR threshold; the "
                "trend attack can beat it on routes just under\nthe "
                "threshold, so measured >= predicted is expected.)\n");
    return 0;
}
