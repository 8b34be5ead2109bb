/**
 * @file
 * Ablation: static vs. dynamic data.
 *
 * The attack's necessary condition is that the sensitive value "is
 * statically held in the FPGA resources" (paper §2); §8.1's first
 * mitigation is "do not allow sensitive data to sit unchanged". This
 * sweep varies how statically a route holds its value — from pinned
 * (100% dwell) down to fully balanced toggling — and measures the
 * surviving polarity contrast.
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

/**
 * Mean polarity contrast after burning 8 routes whose value dwells at
 * the secret bit for `dwell` of the time and at its complement for
 * the rest.
 */
double
contrastAtDwell(double dwell, std::uint64_t seed)
{
    fabric::Device device{fabric::DeviceConfig{}};
    phys::OvenEnvironment oven(333.15);
    util::Rng rng(seed);

    const int bits = 8;
    std::vector<fabric::RouteSpec> routes;
    std::vector<bool> secret;
    std::vector<tdc::Tdc> sensors;
    std::vector<double> before;
    for (int b = 0; b < bits; ++b) {
        std::string name = "r";
        name += std::to_string(b);
        routes.push_back(device.allocateRoute(name, 5000.0));
        secret.push_back(b % 2 == 0);
        name.front() = 'c'; // the route's sensor chain: same index
        sensors.emplace_back(device, routes.back(),
                             device.allocateCarryChain(name, 64));
        sensors.back().calibrate(oven.dieTempK(), rng);
        before.push_back(
            sensors.back().measure(oven.dieTempK(), rng).deltaPs());
    }

    auto design = std::make_shared<fabric::Design>("burn");
    for (int b = 0; b < bits; ++b) {
        // duty_one = probability of the line sitting at 1: a secret 1
        // dwelling at `dwell` spends dwell of the time at 1.
        const double duty =
            secret[static_cast<std::size_t>(b)] ? dwell : 1.0 - dwell;
        design->setRouteToggling(routes[static_cast<std::size_t>(b)],
                                 duty);
    }
    device.loadDesign(design);
    device.advance(150.0, oven);
    device.wipe();

    // Signed contrast toward the secret value.
    util::RunningStats contrast;
    for (int b = 0; b < bits; ++b) {
        const double drift =
            sensors[static_cast<std::size_t>(b)]
                .measure(oven.dieTempK(), rng)
                .deltaPs() -
            before[static_cast<std::size_t>(b)];
        contrast.add(secret[static_cast<std::size_t>(b)] ? drift
                                                         : -drift);
    }
    return contrast.mean();
}

} // namespace

int
main(int argc, char **argv)
{
    bench::requireSweepArgs(argc, argv, "ablation_static_vs_dynamic");
    std::printf("=== Ablation: data dwell time vs. pentimento "
                "contrast ===\n");
    std::printf("(8 bits on 5 ns routes, 150 h at 60 C; dwell = "
                "fraction of time the route\nactually carries the "
                "secret value)\n\n");
    std::printf("  %8s  %20s\n", "dwell", "signed contrast (ps)");
    const std::vector<double> dwells = {1.0, 0.9, 0.75, 0.6, 0.5};
    const auto pool = bench::makePool(argc, argv);
    const std::vector<double> contrasts = util::parallelMap<double>(
        dwells.size(),
        [&](std::size_t i) { return contrastAtDwell(dwells[i], 99); },
        pool.get());
    for (std::size_t i = 0; i < dwells.size(); ++i) {
        std::printf("  %7.0f%%  %20.3f\n", 100.0 * dwells[i],
                    contrasts[i]);
    }
    std::vector<std::vector<std::string>> csv_rows;
    for (std::size_t i = 0; i < dwells.size(); ++i) {
        csv_rows.push_back(std::vector<std::string>{
            std::to_string(dwells[i]), std::to_string(contrasts[i])});
    }
    bench::dumpGridCsv(argc, argv, {"dwell", "signed_contrast_ps"},
                       csv_rows);

    std::printf("\nthe imprint scales with the dwell *imbalance* and "
                "dies at 50/50 — periodic\ninversion and balanced "
                "encodings (paper 8.1) work by driving exactly this\n"
                "number to zero.\n");
    return 0;
}
