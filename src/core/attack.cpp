#include "core/attack.hpp"

#include <algorithm>

#include "cloud/fingerprint.hpp"
#include "util/logging.hpp"

namespace pentimento::core {

SecretBundle
makeSecretTarget(fabric::Device &device, const std::vector<bool> &secret,
                 double route_ps, const std::string &name,
                 const fabric::ArithmeticHeavyConfig &arith)
{
    if (secret.empty()) {
        util::fatal("makeSecretTarget: empty secret");
    }
    SecretBundle bundle;
    bundle.secret = secret;
    bundle.skeleton.reserve(secret.size());
    for (std::size_t bit = 0; bit < secret.size(); ++bit) {
        bundle.skeleton.push_back(device.allocateRoute(
            name + "/secret[" + std::to_string(bit) + "]", route_ps));
    }
    bundle.design = std::make_shared<fabric::TargetDesign>(
        name, bundle.skeleton, secret, arith);
    return bundle;
}

namespace {

/** Classify a facade's result and read the recovered bits off it. */
template <typename Report, typename Classifier>
void
classifyInto(Report &report, const Classifier &classifier)
{
    report.classification = classifier.classify(report.result);
    for (const BitEstimate &bit : report.classification.bits) {
        report.recovered_bits.push_back(bit.value);
    }
}

} // namespace

Tm1Report
extractDesignData(cloud::CloudPlatform &platform,
                  const std::string &afi_id, const Tm1Options &options)
{
    const cloud::AfiRecord &record =
        platform.marketplace().record(afi_id);
    if (record.skeleton.empty()) {
        util::fatal("extractDesignData: AFI '" + afi_id +
                    "' has no public skeleton (Assumption 1 unmet)");
    }

    const auto rented = platform.rent();
    if (!rented) {
        util::fatal("extractDesignData: region exhausted");
    }
    Tm1Report report;
    report.instance_id = *rented;
    const auto measure = calibrateOnPlatform(
        platform, *rented, record.skeleton, options.tdc, options.pool);
    SweepRecorder recorder(record.skeleton.size());
    const auto sweep = [&](double hour) {
        recorder.record(hour, measureOnPlatform(platform, *rented, measure,
                                                options.pool));
    };
    sweep(0.0);
    const double hour = runSchedule(
        0.0, options.burn_hours, options.measure_every_h,
        [&](double, double dt) {
            loadChecked(platform, *rented, record.design,
                        "extractDesignData: AFI");
            platform.advanceHours(std::max(0.0, dt - kMeasureSettleHours));
        },
        sweep);
    platform.release(*rented);

    // Ground truth for scoring (never consulted by the attack path).
    const auto *target =
        dynamic_cast<const fabric::TargetDesign *>(record.design.get());
    std::vector<bool> truth(record.skeleton.size(), false);
    for (std::size_t i = 0; target != nullptr && i < truth.size() &&
                            i < target->routeCount();
         ++i) {
        truth[i] = target->burnValue(i);
    }
    report.result = recorder.result(record.skeleton, truth, hour);
    classifyInto(report, ThreatModel1Classifier());
    return report;
}

Tm2Report
recoverUserData(cloud::CloudPlatform &platform,
                const std::vector<bool> &secret,
                const Tm2Options &options)
{
    Tm2Report report;
    cloud::Fingerprinter fingerprinter;

    // ---- Reconnaissance: fingerprint the board about to be handed
    // to the victim (cartography / co-location preparation).
    const auto recon = platform.rent();
    if (!recon) {
        util::fatal("recoverUserData: region exhausted");
    }
    const cloud::Fingerprint target_fp = fingerprinter.probe(
        platform.instance(*recon), "recon:" + *recon);
    platform.release(*recon);

    // ---- Victim tenancy: loads the secret, computes, releases.
    const auto victim = platform.rent();
    if (!victim) {
        util::fatal("recoverUserData: region exhausted for victim");
    }
    report.victim_instance = *victim;
    SecretBundle bundle =
        makeSecretTarget(platform.instance(*victim).device(), secret,
                         options.route_ps, "victim_design");
    loadChecked(platform, *victim, bundle.design,
                "recoverUserData: victim design");
    platform.advanceHours(options.victim_hours);
    platform.release(*victim);

    // ---- Flash acquisition + fingerprint re-identification.
    const std::vector<std::string> grabbed = platform.rentAll();
    report.flash_rented = grabbed.size();
    if (grabbed.empty()) {
        util::fatal("recoverUserData: flash acquisition got nothing");
    }
    std::string best_id = grabbed.front();
    double best_sim = -2.0;
    for (const std::string &id : grabbed) {
        const cloud::Fingerprint fp =
            fingerprinter.probe(platform.instance(id), "flash:" + id);
        const double sim =
            cloud::Fingerprinter::similarity(fp, target_fp);
        if (sim > best_sim) {
            best_sim = sim;
            best_id = id;
        }
    }
    for (const std::string &id : grabbed) {
        if (id != best_id) {
            platform.release(id);
        }
    }
    report.attacker_instance = best_id;
    report.fingerprint_similarity = best_sim;
    report.reacquired_same_board = best_id == report.victim_instance;

    // ---- Recovery measurement on the re-acquired board.
    const auto measure = calibrateOnPlatform(
        platform, best_id, bundle.skeleton, options.tdc, options.pool);
    const auto park = makeParkDesign("attacker_park", bundle.skeleton,
                                     options.park_value);

    SweepRecorder recorder(bundle.skeleton.size());
    const auto sweep = [&](double hour) {
        recorder.record(hour, measureOnPlatform(platform, best_id, measure,
                                                options.pool));
    };
    sweep(options.victim_hours);
    const double observed = runSchedule(
        0.0, options.recovery_hours, options.measure_every_h,
        [&](double, double dt) {
            loadChecked(platform, best_id, park,
                        "recoverUserData: park design");
            platform.advanceHours(std::max(0.0, dt - kMeasureSettleHours));
        },
        [&](double t) { sweep(options.victim_hours + t); });
    platform.release(best_id);

    report.result = recorder.result(bundle.skeleton, secret,
                                    options.victim_hours + observed);
    classifyInto(report, ThreatModel2Classifier());
    return report;
}

} // namespace pentimento::core
