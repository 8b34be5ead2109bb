/**
 * @file
 * Ablation: §8 mitigations vs. both threat models.
 *
 * Runs the Threat Model 1 attack against a tenant employing each user
 * mitigation (hourly inversion, hourly shuffle, wear leveling), and
 * the Threat Model 2 attack against a tenant that holds the instance
 * with complemented values before release, plus the provider-side
 * launch-rate control (quarantine). Reports residual attacker
 * accuracy; 50% is coin-flip safety.
 */

#include <cstdio>
#include <functional>

#include "bench_common.hpp"
#include "core/classifier.hpp"
#include "core/experiment.hpp"
#include "mitigation/strategies.hpp"

using namespace pentimento;

namespace {

double
tm1Accuracy(mitigation::MitigationStrategy *strategy)
{
    core::Experiment2Config config;
    config.groups = {{5000.0, 16}};
    config.burn_hours = 120.0;
    config.measure_every_h = 2.0;
    config.seed = 31337;
    config.strategy = strategy;
    const core::ExperimentResult result = core::runExperiment2(config);
    return core::ThreatModel1Classifier().classify(result).accuracy;
}

double
tm2Accuracy(mitigation::MitigationStrategy *strategy,
            double quarantine_hours = 0.0)
{
    core::Experiment3Config config;
    config.groups = {{8000.0, 12}};
    config.burn_hours = 150.0;
    config.recovery_hours = 25.0;
    config.seed = 4242;
    config.strategy = strategy;
    config.platform.quarantine_hours = quarantine_hours;
    config.platform.fleet_size = 3;
    const core::ExperimentResult result = core::runExperiment3(config);
    return core::ThreatModel2Classifier().classify(result).accuracy;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::requireSweepArgs(argc, argv, "ablation_mitigations");
    std::printf("=== Ablation: mitigations vs. attacker accuracy "
                "===\n\n");

    // Each grid point constructs its own strategy inside the lambda:
    // strategies carry mutable state (e.g. the shuffle RNG), so they
    // must not be shared across concurrently-running points.
    enum class Tm
    {
        One,
        Two
    };
    struct Point
    {
        Tm model;
        const char *label;
        std::function<double()> run;
    };
    const std::vector<Point> grid = {
        {Tm::One, "no mitigation", [] { return tm1Accuracy(nullptr); }},
        {Tm::One, "hourly inversion",
         [] {
             mitigation::InversionMitigation invert(1.0);
             return tm1Accuracy(&invert);
         }},
        {Tm::One, "hourly shuffle",
         [] {
             mitigation::ShuffleMitigation shuffle(1.0, 99);
             return tm1Accuracy(&shuffle);
         }},
        {Tm::One, "wear leveling (4 sites)",
         [] {
             mitigation::WearLevelMitigation wear(4.0, 4);
             return tm1Accuracy(&wear);
         }},
        {Tm::Two, "no mitigation", [] { return tm2Accuracy(nullptr); }},
        {Tm::Two, "hold 48 h complemented",
         [] {
             mitigation::HoldRecoveryMitigation hold(
                 mitigation::Epilogue::Policy::Complement, 48.0);
             return tm2Accuracy(&hold);
         }},
        {Tm::Two, "hold 48 h parked at 0",
         [] {
             mitigation::HoldRecoveryMitigation hold(
                 mitigation::Epilogue::Policy::AllZero, 48.0);
             return tm2Accuracy(&hold);
         }},
        {Tm::Two, "provider quarantine (500 h)",
         [] { return tm2Accuracy(nullptr, 500.0); }},
    };

    const auto pool = bench::makePool(argc, argv);
    const std::vector<double> acc = util::parallelMap<double>(
        grid.size(), [&](std::size_t i) { return grid[i].run(); },
        pool.get());

    std::printf("Threat Model 1 (16 bits on 5 ns routes, 120 h "
                "burn):\n");
    for (std::size_t i = 0; i < grid.size(); ++i) {
        if (grid[i].model == Tm::One) {
            std::printf("  %-28s %7.1f%%\n", grid[i].label,
                        100.0 * acc[i]);
        }
    }

    std::printf("\nThreat Model 2 (12 bits on 8 ns routes, 150 h "
                "victim burn, 25 h recovery):\n");
    for (std::size_t i = 0; i < grid.size(); ++i) {
        if (grid[i].model == Tm::Two) {
            std::printf("  %-28s %7.1f%%\n", grid[i].label,
                        100.0 * acc[i]);
        }
    }

    std::vector<std::vector<std::string>> csv_rows;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        csv_rows.push_back(std::vector<std::string>{
            grid[i].model == Tm::One ? "1" : "2", grid[i].label,
            std::to_string(acc[i])});
    }
    bench::dumpGridCsv(argc, argv,
                       {"threat_model", "mitigation", "accuracy"},
                       csv_rows);

    std::printf("\n50%% = coin flip. Data transformations defeat TM1 "
                "by equalising the stress;\nhold-and-recover bleeds "
                "the TM2 signal at rental cost; quarantine denies "
                "board\nreacquisition outright (the attacker measures "
                "a different card).\n");
    return 0;
}
