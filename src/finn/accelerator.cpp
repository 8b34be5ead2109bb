#include "finn/accelerator.hpp"

#include <numeric>

#include "util/logging.hpp"

namespace pentimento::finn {

namespace {

int
totalWeights(const FinnConfig &config)
{
    return std::accumulate(config.layer_weights.begin(),
                           config.layer_weights.end(), 0);
}

} // namespace

std::vector<bool>
FinnAccelerator::encodeWeights(const std::vector<int> &w,
                               const FinnConfig &config)
{
    std::vector<bool> bits;
    bits.reserve(w.size() *
                 static_cast<std::size_t>(config.weight_bits));
    for (const int value : w) {
        if (value < 0 || value >= (1 << config.weight_bits)) {
            util::fatal("FinnAccelerator: weight outside quantization "
                        "range");
        }
        for (int b = 0; b < config.weight_bits; ++b) {
            bits.push_back(((value >> b) & 1) != 0);
        }
    }
    return bits;
}

std::vector<int>
FinnAccelerator::decodeWeights(const std::vector<bool> &bits,
                               const FinnConfig &config)
{
    if (bits.size() % static_cast<std::size_t>(config.weight_bits) !=
        0) {
        util::fatal("FinnAccelerator::decodeWeights: bit count is not "
                    "a multiple of the weight width");
    }
    std::vector<int> weights;
    weights.reserve(bits.size() /
                    static_cast<std::size_t>(config.weight_bits));
    for (std::size_t i = 0; i < bits.size();
         i += static_cast<std::size_t>(config.weight_bits)) {
        int value = 0;
        for (int b = 0; b < config.weight_bits; ++b) {
            value |= (bits[i + static_cast<std::size_t>(b)] ? 1 : 0)
                     << b;
        }
        weights.push_back(value);
    }
    return weights;
}

std::vector<int>
FinnAccelerator::randomWeights(const FinnConfig &config, util::Rng &rng)
{
    std::vector<int> weights;
    weights.reserve(static_cast<std::size_t>(totalWeights(config)));
    for (int i = 0; i < totalWeights(config); ++i) {
        weights.push_back(static_cast<int>(
            rng.uniformInt(0, (1u << config.weight_bits) - 1)));
    }
    return weights;
}

FinnAccelerator::FinnAccelerator(fabric::Device &device,
                                 const FinnConfig &config,
                                 std::vector<int> weights)
    : config_(config), weights_(std::move(weights))
{
    if (config_.weight_bits < 1 || config_.weight_bits > 16) {
        util::fatal("FinnAccelerator: weight_bits outside [1,16]");
    }
    if (static_cast<int>(weights_.size()) != totalWeights(config_)) {
        util::fatal("FinnAccelerator: weight count does not match the "
                    "architecture");
    }
    const std::vector<bool> bits = encodeWeights(weights_, config_);

    // Allocate one route per weight bit, each delimited by a one-
    // element toggling datapath net so the bitstream-level skeleton
    // extraction sees distinct runs.
    std::vector<fabric::RouteSpec> spacers;
    weight_routes_.reserve(bits.size());
    for (std::size_t i = 0; i < bits.size(); ++i) {
        // Appended piecewise: GCC 12 reports a false -Wrestrict for a
        // "literal" + std::string temporary here.
        std::string name = "w";
        name += std::to_string(i / config_.weight_bits);
        name += '[';
        name += std::to_string(i % config_.weight_bits);
        name += ']';
        weight_routes_.push_back(
            device.allocateRoute(name, config_.route_ps));
        spacers.push_back(device.allocateRoute(
            "dp_spacer_" + std::to_string(i),
            device.config().routing_pitch_ps));
    }

    fabric::ArithmeticHeavyConfig arith;
    arith.dsp_count =
        64 * static_cast<int>(config_.layer_weights.size());
    arith.base_watts = 0.5;
    // Total draw: base + layers * watts_per_layer.
    arith.watts_per_dsp = config_.watts_per_layer / 64.0;
    std::vector<bool> burn(bits.begin(), bits.end());
    design_ = std::make_shared<fabric::TargetDesign>(
        "finn_accel", weight_routes_, burn, arith);
    for (const fabric::RouteSpec &spacer : spacers) {
        design_->setRouteToggling(spacer, 0.5);
    }
}

std::vector<bool>
FinnAccelerator::weightBits() const
{
    return encodeWeights(weights_, config_);
}

fabric::Bitstream
FinnAccelerator::referenceBitstream(const fabric::DeviceConfig &target,
                                    util::Rng &rng) const
{
    // The public build: same architecture, placeholder weights. A
    // scratch compile against the same device family reproduces the
    // placement the vendor's flow would emit.
    fabric::Device scratch(target);
    FinnAccelerator reference(scratch, config_,
                              randomWeights(config_, rng));
    return fabric::Bitstream::compile(reference.design_, target);
}

} // namespace pentimento::finn
