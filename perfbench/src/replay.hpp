/**
 * @file
 * Traced replay of serve::runFleetScan's public call sequence.
 *
 * The replay makes the same calls into cloud, fabric, tdc, core and
 * util/snapshot that the engine makes, in the same order and with the
 * same names and draws, and wraps each in a span. It covers the
 * unsharded engine: fresh runs, journal stress, the BRAM channel,
 * checkpoint cadence, halt and resume. Its per-board scores must equal
 * the engine's for the same config; the traced run checks that.
 */

#ifndef PERFBENCH_REPLAY_HPP
#define PERFBENCH_REPLAY_HPP

#include <cstdint>

#include "perfbench.hpp"
#include "serve/campaign.hpp"
#include "util/expected.hpp"

namespace perfbench {

/** Layer counts gathered where the work happens. */
struct ReplayCounts
{
    /** Device::journaledKeyCount() at each attacked board's takeover. */
    std::uint64_t deferred_keys = 0;
    /** Device::materializedIds().size() after each board's scan. */
    std::uint64_t materialised_keys = 0;
    /** Bytes of every committed checkpoint generation. */
    std::uint64_t snapshot_bytes = 0;
};

/** Replay one campaign (shard_count must be 0) under `tracer`. */
pentimento::util::Expected<pentimento::serve::FleetScanResult>
replayFleetScan(const pentimento::serve::FleetScanConfig &config,
                Tracer &tracer, ReplayCounts *counts);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HPP
