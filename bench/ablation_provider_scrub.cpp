/**
 * @file
 * Ablation: can the provider *actively* erase pentimenti?
 *
 * The paper argues "it is impossible to mitigate burn-in risk via a
 * logical erasure of the device" (§7). The strongest thing a provider
 * could try without knowing the previous values is to drive every
 * previously-used element with toggling data while the board waits in
 * quarantine. Toggling stresses both transistor polarities equally —
 * it adds common-mode wear but can only slowly wash out the
 * *differential* imprint. This bench compares the TM2 attacker
 * against three provider policies at equal delay: immediate re-rental,
 * idle quarantine, and scrubbed quarantine.
 */

#include <cstdio>

#include "bench_common.hpp"
#include "core/classifier.hpp"
#include "core/experiment.hpp"

using namespace pentimento;

namespace {

double
tm2Accuracy(double quarantine_hours, bool active_scrub,
            std::size_t fleet)
{
    core::Experiment3Config config;
    config.groups = {{8000.0, 12}};
    config.burn_hours = 150.0;
    config.recovery_hours = 25.0;
    config.seed = 60606;
    config.attacker_wait_h = quarantine_hours;
    config.platform.fleet_size = fleet;
    config.platform.quarantine_hours = quarantine_hours;
    config.platform.active_scrub = active_scrub;
    const core::ExperimentResult result = core::runExperiment3(config);
    return core::ThreatModel2Classifier().classify(result).accuracy;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::requireSweepArgs(argc, argv, "ablation_provider_scrub");
    std::printf("=== Ablation: provider-side scrubbing vs. Threat "
                "Model 2 ===\n");
    std::printf("(12 bits on 8 ns routes, 150 h victim burn; a "
                "single-board region so the\nattacker always receives "
                "the victim card after quarantine)\n\n");

    struct Policy
    {
        double quarantine_h;
        bool scrub;
    };
    std::vector<Policy> grid = {{0.0, false}};
    for (const double q : {24.0, 72.0, 168.0}) {
        grid.push_back({q, false});
        grid.push_back({q, true});
    }
    const auto pool = bench::makePool(argc, argv);
    const std::vector<double> acc = util::parallelMap<double>(
        grid.size(),
        [&](std::size_t i) {
            return tm2Accuracy(grid[i].quarantine_h, grid[i].scrub, 1);
        },
        pool.get());

    std::printf("  %-34s %10s\n", "policy", "accuracy");
    std::printf("  %-34s %9.1f%%\n", "immediate re-rental (baseline)",
                100.0 * acc[0]);
    for (std::size_t i = 1; i < grid.size(); ++i) {
        char label[64];
        std::snprintf(label, sizeof(label), "%s quarantine %.0f h",
                      grid[i].scrub ? "scrubbed" : "idle",
                      grid[i].quarantine_h);
        std::printf("  %-34s %9.1f%%\n", label, 100.0 * acc[i]);
    }

    std::vector<std::vector<std::string>> csv_rows;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        csv_rows.push_back(std::vector<std::string>{
            std::to_string(grid[i].quarantine_h),
            grid[i].scrub ? "1" : "0", std::to_string(acc[i])});
    }
    bench::dumpGridCsv(argc, argv,
                       {"quarantine_h", "active_scrub", "accuracy"},
                       csv_rows);

    std::printf("\nidle waiting barely helps — the imprint outlives a "
                "week in the pool, matching\nthe paper's 'hundreds of "
                "hours' persistence. Active toggling scrub works (it\n"
                "force-feeds the fresh side of every transistor pair) "
                "but costs the provider\ndays of revenue per rental — "
                "an *analog* erase, which is precisely what the\n"
                "paper says a logical wipe cannot deliver.\n");
    return 0;
}
