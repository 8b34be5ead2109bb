/**
 * @file
 * Ablation: die temperature vs. burn-in rate.
 *
 * Temperature accelerates BTI — it is why the Target design ships
 * Arithmetic Heavy circuits ("the added benefit of accelerating the
 * BTI effect through increased heat generation", §5.1), why
 * Experiment 1 uses a 60 C oven, and why providers managing thermals
 * is a §8.2 mitigation lever. This sweep burns 5 ns routes for 100 h
 * at four oven temperatures.
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
#include "util/units.hpp"

using namespace pentimento;

namespace {

double
contrastAtTemperature(double temp_c, std::uint64_t seed)
{
    fabric::DeviceConfig config;
    config.seed = seed;
    fabric::Device device(config);
    phys::OvenEnvironment oven(util::celsiusToKelvin(temp_c));
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
        device.advance(100.0, oven);
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
    bench::requireSweepArgs(argc, argv, "ablation_temperature");
    std::printf("=== Ablation: temperature vs. burn-in contrast "
                "(5 ns routes, 100 h, new device) ===\n\n");
    std::printf("  %8s  %14s  %12s\n", "temp", "contrast(ps)",
                "vs 25 C");

    const std::vector<double> temps = {25.0, 45.0, 60.0, 85.0};
    const auto pool = bench::makePool(argc, argv);
    const std::vector<double> contrasts = util::parallelMap<double>(
        temps.size(),
        [&](std::size_t i) {
            return contrastAtTemperature(temps[i], 7);
        },
        pool.get());
    const double room = contrasts[0];
    for (std::size_t i = 0; i < temps.size(); ++i) {
        std::printf("  %6.0f C  %14.2f  %11.2fx\n", temps[i],
                    contrasts[i], contrasts[i] / room);
    }

    std::vector<std::vector<std::string>> csv_rows;
    for (std::size_t i = 0; i < temps.size(); ++i) {
        csv_rows.push_back(std::vector<std::string>{
            std::to_string(temps[i]), std::to_string(contrasts[i]),
            std::to_string(contrasts[i] / room)});
    }
    bench::dumpGridCsv(argc, argv,
                       {"temp_c", "contrast_ps", "vs_25c"}, csv_rows);

    std::printf("\nArrhenius acceleration: hotter dies imprint "
                "faster. An attacker-controlled\nTarget design that "
                "heats the die (Arithmetic Heavy) buys extra signal; "
                "cooler\noperation is a (weak) provider-side "
                "mitigation.\n");
    return 0;
}
