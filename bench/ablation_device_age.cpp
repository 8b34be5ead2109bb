/**
 * @file
 * Ablation: device service age vs. burn-in contrast.
 *
 * Figure 6 (factory-new ZCU102) shows ~1 ps/ns contrast; Figure 7
 * (years-old F1 cards) shows ~5-10x less. The paper attributes the
 * gap to fleet age ("it is likely the device is years old, making BTI
 * effects less observable"). This sweep pins the device age and
 * measures the contrast a 200-hour burn leaves on 5 ns routes.
 */

#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "fabric/design.hpp"
#include "fabric/device.hpp"
#include "phys/thermal.hpp"
#include "tdc/tdc.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

using namespace pentimento;

namespace {

double
contrastForAge(double age_hours, std::uint64_t seed)
{
    fabric::DeviceConfig config;
    config.service_age_h = age_hours;
    config.seed = seed;
    fabric::Device device(config);
    phys::OvenEnvironment oven(333.15);
    util::Rng rng(seed);

    util::RunningStats contrast;
    for (int r = 0; r < 6; ++r) {
        std::string name = "r";
        name += std::to_string(r);
        const fabric::RouteSpec route = device.allocateRoute(name, 5000.0);
        name.front() = 'c'; // the route's sensor chain: same index
        tdc::Tdc sensor(device, route, device.allocateCarryChain(name, 64));
        sensor.calibrate(oven.dieTempK(), rng);
        const double before =
            sensor.measure(oven.dieTempK(), rng).deltaPs();

        auto design = std::make_shared<fabric::Design>("burn");
        design->setRouteValue(route, r % 2 == 0);
        device.loadDesign(design);
        device.advance(200.0, oven);
        device.wipe();

        const double after =
            sensor.measure(oven.dieTempK(), rng).deltaPs();
        contrast.add(std::abs(after - before));
    }
    return contrast.mean();
}

} // namespace

int
main(int argc, char **argv)
{
    bench::requireSweepArgs(argc, argv, "ablation_device_age");
    std::printf("=== Ablation: device age vs. burn-in contrast "
                "(5 ns routes, 200 h at 60 C) ===\n\n");
    std::printf("  %12s  %14s  %16s\n", "age", "contrast(ps)",
                "vs factory-new");

    struct AgePoint
    {
        const char *label;
        double hours;
    };
    const std::vector<AgePoint> points = {{"new", 0.0},
                                          {"1 year", 8760.0},
                                          {"2 years", 17520.0},
                                          {"4 years", 35040.0}};
    const auto pool = bench::makePool(argc, argv);
    const std::vector<double> contrasts = util::parallelMap<double>(
        points.size(),
        [&](std::size_t i) {
            return contrastForAge(points[i].hours, 42);
        },
        pool.get());
    const double fresh = contrasts[0];
    for (std::size_t i = 0; i < points.size(); ++i) {
        std::printf("  %12s  %14.2f  %15.2fx\n", points[i].label,
                    contrasts[i], contrasts[i] / fresh);
    }

    std::vector<std::vector<std::string>> csv_rows;
    for (std::size_t i = 0; i < points.size(); ++i) {
        csv_rows.push_back(std::vector<std::string>{
            points[i].label, std::to_string(points[i].hours),
            std::to_string(contrasts[i]),
            std::to_string(contrasts[i] / fresh)});
    }
    bench::dumpGridCsv(
        argc, argv, {"age", "age_hours", "contrast_ps", "vs_new"},
        csv_rows);

    std::printf("\nfresh-trap depletion on worn silicon shrinks new "
                "imprints — the Figure 6 vs\nFigure 7 amplitude gap. "
                "Older fleets leak less, but not nothing.\n");
    return 0;
}
