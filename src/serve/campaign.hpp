/**
 * @file
 * Checkpointed fleet-scan campaign engine for the campaign server.
 *
 * This is the library form of bench/fleet_campaign's workload: a
 * marketplace region runs `days` simulated days of interleaved
 * tenancies, then a TM2 attacker flash-acquires the most recently
 * released boards and runs the park-and-watch recovery attack against
 * whatever the last tenant left behind.
 *
 * The engine adds the two properties the server needs:
 *
 *  - **Cancellable**: an optional core::SweepObserver fires once per
 *    simulated day; returning false checkpoints (when configured) and
 *    unwinds with util::CancelledError. Deadlines, disconnects and
 *    SIGTERM drain all ride this one hook.
 *  - **Resumable**: with a checkpoint path configured the campaign
 *    writes a rotating two-generation util/snapshot every
 *    `checkpoint_every_days`, and on entry silently resumes from the
 *    latest good generation *if* it matches this config — so a server
 *    killed mid-campaign re-delivers the identical result when the
 *    identical request is resubmitted after restart. A missing,
 *    corrupt or mismatched checkpoint just means a fresh run. Each
 *    checkpoint is serialized and staged on the campaign thread and
 *    published (fsync, rename) on a background thread, at most one
 *    at a time; a halt, a cancellation or the return waits for it.
 *
 * The result is a pure function of (fleet, days, seed,
 * routes_per_tenant, max_measured): checkpoint/resume history, the
 * day throttle and the worker count never change a byte of it.
 */

#ifndef PENTIMENTO_SERVE_CAMPAIGN_HPP
#define PENTIMENTO_SERVE_CAMPAIGN_HPP

#include <cstdint>
#include <string>

#include "cloud/platform.hpp"
#include "core/experiment.hpp"
#include "serve/protocol.hpp"
#include "util/expected.hpp"
#include "util/parallel.hpp"

namespace pentimento::serve {

/** How runFleetScan treats an existing checkpoint on entry. */
enum class ResumeMode
{
    /** Resume when a good matching generation exists; else fresh. */
    Auto,
    /** Ignore any existing checkpoint; always start fresh. */
    Never,
    /** Resume or fail: both generations bad is a hard error. */
    Require,
};

/** Fleet-scan campaign configuration. */
struct FleetScanConfig
{
    std::size_t fleet = 112;
    int days = 365;
    std::uint64_t seed = 90902;
    std::size_t routes_per_tenant = 8;
    /** Boards the TM2 attacker measures at the end. */
    std::size_t max_measured = 8;
    /** Checkpoint cadence in simulated days (0 = never). */
    int checkpoint_every_days = 0;
    /** Rotating checkpoint path ("" = no checkpointing/resume). */
    std::string checkpoint_path;
    /** Testing aid: wall-clock sleep per simulated day, ms. */
    std::uint32_t throttle_ms_per_day = 0;
    ResumeMode resume = ResumeMode::Auto;
    /**
     * Reproduce bench/fleet_campaign's exact draw sequence (its fixed
     * driver rng and "tenant_" design naming) so results line up
     * byte-for-byte with the committed golden CSV.
     */
    bool golden_compat = false;
    /** Daily burn rotations + exact deferred-coverage check. */
    bool journal_stress = false;
    /**
     * Run the BRAM content-remanence channel alongside the aging
     * channel: each tenancy writes one word per route into the
     * board's fixed BRAM blocks, a fraction of tenancies end in
     * unclean teardowns (off-power hours accrue against retention,
     * and any ZeroOnRelease scrub is bypassed), and the TM2 attacker
     * reads the blocks back *before* its first configuration — a
     * reconfiguration zeroes contents, so the readout must be the
     * attacker's first act on the board. All BRAM draws come from
     * fresh pure streams split off the campaign seed, so enabling
     * the channel never moves a single interconnect draw: the
     * aging-channel scores (and the committed golden CSV) are
     * byte-identical with the channel on or off.
     */
    bool bram_channel = false;
    /** Provider BRAM scrub policy (priced by ablation_bram_scrub). */
    cloud::BramScrubPolicy bram_scrub = cloud::BramScrubPolicy::None;
    /** Checkpoint and return after this completed day (0 = run out). */
    int halt_at_day = 0;
    /**
     * Board-range shard of the TM2 scan phase. The simulation phase
     * (cheap) runs identically everywhere; only targets
     * [shard_index·per, (shard_index+1)·per) of the deterministic
     * scan-target list are attacked. Every board ages through the
     * scan's per-board slots: a slot before the shard is one exact
     * time advance, a later slot the attack's own advance schedule.
     * Concatenating shard results in shard order is byte-identical to
     * an unsharded run. shard_count == 0 means unsharded.
     */
    std::uint32_t shard_index = 0;
    std::uint32_t shard_count = 0;
    /**
     * Work pool (nullptr = serial) for three per-board fan-outs. In
     * the day loop each window's device work is one task per busy
     * board: its rents, loads, releases, rotations and daily advances
     * (the bookkeeping that schedules them stays serial). In the scan
     * each attacked board is one task — its idle slots, its own
     * attack, the idle slots after — so the scan fans out across
     * boards, not across a board's sensors. The journal coverage
     * check is one task per board. With nullptr or a 0-worker pool
     * the tasks run in order. The result is identical for every width.
     */
    util::ThreadPool *pool = nullptr;
    /**
     * Fires once per completed simulated day with (day, hours,
     * nullptr, 0); returning false checkpoints and cancels.
     */
    core::SweepObserver *observer = nullptr;
};

/**
 * Run (or resume) a fleet-scan campaign.
 *
 * Throws util::CancelledError when the observer cancels (after
 * writing a final checkpoint, when a path is configured, and waiting
 * for it to be published); returns an error for invalid
 * configuration. Checkpoint write failures are reported via util::warn
 * on the calling thread and never fail the campaign.
 */
util::Expected<FleetScanResult> runFleetScan(
    const FleetScanConfig &config);

} // namespace pentimento::serve

#endif // PENTIMENTO_SERVE_CAMPAIGN_HPP
