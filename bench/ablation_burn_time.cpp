/**
 * @file
 * Ablation: attack accuracy vs. burn-in duration.
 *
 * The paper warns that "a determined attacker could build more
 * precise sensors to measure BTI on shorter routes with shorter
 * burn-in periods" (§8). This sweep quantifies how many hours of
 * victim computation the simulated attacker needs before Type A
 * extraction becomes reliable on 5 ns cloud routes.
 */

#include <cstdio>

#include "bench_common.hpp"
#include "core/classifier.hpp"
#include "core/experiment.hpp"
#include "util/stats.hpp"

using namespace pentimento;

namespace {

struct BurnRow
{
    double hours = 0.0;
    double contrast_ps = 0.0;
    double accuracy = 0.0;
};

BurnRow
runBurn(double hours)
{
    core::Experiment2Config config;
    config.groups = {{5000.0, 12}};
    config.burn_hours = hours;
    config.measure_every_h = std::max(1.0, hours / 50.0);
    config.seed = 808;
    const core::ExperimentResult result = core::runExperiment2(config);

    BurnRow row;
    row.hours = hours;
    util::RunningStats contrast;
    for (const auto &route : result.routes) {
        contrast.add(std::abs(
            route.series.meanBetweenHours(hours * 0.9, hours)));
    }
    row.contrast_ps = contrast.mean();
    row.accuracy =
        core::ThreatModel1Classifier().classify(result).accuracy;
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::requireSweepArgs(argc, argv, "ablation_burn_time");
    std::printf("=== Ablation: burn-in duration vs. TM1 accuracy "
                "(cloud, 5 ns routes) ===\n\n");
    std::printf("  %9s  %14s  %12s\n", "burn (h)", "contrast(ps)",
                "TM1 accuracy");

    const std::vector<double> grid = {10.0, 25.0, 50.0, 100.0, 200.0};
    const auto pool = bench::makePool(argc, argv);
    const std::vector<BurnRow> rows = util::parallelMap<BurnRow>(
        grid.size(), [&](std::size_t i) { return runBurn(grid[i]); },
        pool.get());
    for (const BurnRow &row : rows) {
        std::printf("  %9.0f  %14.3f  %10.1f%%\n", row.hours,
                    row.contrast_ps, 100.0 * row.accuracy);
    }

    std::vector<std::vector<std::string>> csv_rows;
    for (const BurnRow &row : rows) {
        csv_rows.push_back(std::vector<std::string>{
            std::to_string(row.hours), std::to_string(row.contrast_ps),
            std::to_string(row.accuracy)});
    }
    bench::dumpGridCsv(argc, argv,
                       {"burn_h", "contrast_ps", "tm1_accuracy"},
                       csv_rows);

    std::printf("\nBTI's sublinear (t^n) kinetics mean the first tens "
                "of hours do most of the\nimprinting — long-running "
                "designs gain little extra protection from brevity\n"
                "unless they stay well under a day.\n");
    return 0;
}
