/**
 * @file
 * The cloud FPGA platform (AWS F1 model, paper §2).
 *
 * A fleet of FpgaInstances with the provider behaviours the paper's
 * threat models depend on:
 *
 *  - rent / release lifecycle with a *design wipe* on release — which
 *    clears configuration but cannot clear BTI;
 *  - design-rule checking at load time (ring oscillators rejected,
 *    85 W power cap);
 *  - a finite regional fleet, so an attacker can flash-acquire all
 *    available capacity to guarantee receiving a victim's board
 *    (Assumption 2);
 *  - optional launch-rate control (a §8.2 provider mitigation):
 *    released boards are quarantined for a configurable number of
 *    hours before re-entering the pool.
 */

#ifndef PENTIMENTO_CLOUD_PLATFORM_HPP
#define PENTIMENTO_CLOUD_PLATFORM_HPP

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cloud/instance.hpp"
#include "cloud/marketplace.hpp"
#include "fabric/drc.hpp"

namespace pentimento::cloud {

/** How the scheduler picks among available instances. */
enum class AllocationPolicy
{
    MostRecentlyReleased, ///< LIFO: favours temporal adversaries
    LeastRecentlyReleased, ///< FIFO
    Random
};

/**
 * When (if ever) the provider zeroes BRAM contents around a tenancy
 * change. Orthogonal to the interconnect-side wipe — a wipe clears
 * configuration, which cannot touch memory contents — and to
 * active_scrub, which drives *analog* wear. The ablation_bram_scrub
 * bench prices these against each other.
 */
enum class BramScrubPolicy : std::uint8_t
{
    /** Contents ride along to the next tenant untouched. */
    None,
    /** Scrub when the provider processes a clean release. Unclean
     *  teardowns (tenant crash, power event — releaseUnclean) bypass
     *  the release pipeline and therefore the scrub: the residual
     *  exposure window this leaves is exactly what the ablation
     *  measures against ZeroOnRent. */
    ZeroOnRelease,
    /** Scrub at hand-over to the next tenant: catches unclean
     *  teardowns too, at one scrub per rent. */
    ZeroOnRent
};

/** Fleet configuration. */
struct PlatformConfig
{
    /** Cards in the region (the paper hit regional limits quickly). */
    std::size_t fleet_size = 8;
    /** Region label, e.g. "eu-west-2" (Experiment 2's region). */
    std::string region = "eu-west-2";
    /** Template silicon configuration; per-card seed/age overrides. */
    fabric::DeviceConfig device_template{};
    /** Card service age range, hours (eu-west-2: up to ~4 years). */
    double min_service_age_h = 18000.0;
    double max_service_age_h = 36000.0;
    /** Ambient process at each card. */
    AmbientParams ambient{};
    /** Power cap enforced by the DRC, watts. */
    double max_power_w = 85.0;
    /** Scheduler behaviour. */
    AllocationPolicy policy = AllocationPolicy::MostRecentlyReleased;
    /** §8.2 launch-rate control: hold released boards this long. */
    double quarantine_hours = 0.0;
    /**
     * Provider active scrub: while a released board sits in the pool,
     * drive every previously-used element with toggling data (a
     * best-effort "analog erase" — the provider cannot complement
     * values it never knew). The ablation_provider_scrub bench
     * quantifies how little this helps, supporting the paper's claim
     * that logical erasure cannot remove burn-in.
     */
    bool active_scrub = false;
    /** BRAM content-scrub policy (see BramScrubPolicy). */
    BramScrubPolicy bram_scrub = BramScrubPolicy::None;
    /** Master seed for the fleet. */
    std::uint64_t seed = 1234;
};

/**
 * The rentable fleet plus its marketplace.
 */
class CloudPlatform
{
  public:
    explicit CloudPlatform(PlatformConfig config);

    /** Fleet configuration. */
    const PlatformConfig &config() const { return config_; }

    /** The marketplace attached to this platform. */
    Marketplace &marketplace() { return marketplace_; }

    /** Platform wall clock, hours since epoch. */
    double nowHours() const { return now_h_; }

    /** Instances currently available for rent. */
    std::size_t availableCount() const;

    /**
     * Rent one instance according to the allocation policy.
     * @return instance id, or nullopt when the region is exhausted
     *         (the paper's "reached the limit of F1 devices" error)
     */
    std::optional<std::string> rent();

    /** Flash attack: rent everything currently available. */
    std::vector<std::string> rentAll();

    /**
     * Release an instance back into the pool. The provider wipes the
     * design ("scrubs FPGA state on termination") — aging persists.
     */
    void release(const std::string &instance_id);

    /**
     * release() stamped at `released_at_h` instead of nowHours(), for
     * a caller that advances its boards itself
     * (FpgaInstance::advanceHours) and catches the platform clock up
     * afterwards (advanceClock). It touches only this board and the
     * atomic scrub counter, so concurrent calls on different boards
     * are safe; so are concurrent instance() and loadDesign() calls.
     */
    void releaseAt(const std::string &instance_id, double released_at_h);

    /**
     * Unclean teardown: the board returns to the pool outside the
     * provider's release pipeline (tenant crash, host power event).
     * Same configuration wipe and pool bookkeeping as release(), but
     * the ZeroOnRelease content scrub is bypassed — that residual is
     * the exposure window the BRAM channel exploits — and the
     * board's BRAM blocks accrue `off_power_hours` against their
     * retention windows. Interconnect-side behaviour (wipe, active
     * scrub) is identical to release(), so enabling unclean
     * teardowns never perturbs the aging channel.
     */
    void releaseUnclean(const std::string &instance_id,
                        double off_power_hours = 0.0);

    /** BRAM scrub operations performed so far (the cost side of the
     *  scrub-policy ablation). */
    std::uint64_t bramScrubOps() const { return bram_scrub_ops_; }

    /** Access an instance (caller must have rented it). */
    FpgaInstance &instance(const std::string &instance_id);

    /**
     * Load a design after provider-side design rule checks; on
     * violations the design is NOT loaded and the violations are
     * returned (ring oscillators die here).
     */
    std::vector<fabric::DrcViolation>
    loadDesign(const std::string &instance_id,
               std::shared_ptr<const fabric::Design> design);

    /**
     * Advance the whole region: every card ages under its loaded
     * design (or recovers when idle). The per-card walk is event-
     * driven: ambient events (hourly by default) bound the spans, and
     * each span costs one package-model relaxation plus one O(1)
     * timeline segment. Idle pooled stock skips even that — the walk
     * is deferred in O(1) per call and replayed only when a board is
     * next observed — so fleet-scale campaigns (hundreds of boards,
     * simulated years, a handful ever measured) are bounded by the
     * boards tenants and attackers actually touch. step_h further
     * caps span length for configured boards that want finer thermal
     * relaxation. Fatals on negative/non-finite hours or
     * non-positive step_h before any board advances.
     */
    void advanceHours(double hours, double step_h = 1.0);

    /**
     * Advance the platform clock alone: the catch-up for a caller
     * that advanced every board itself. Called with the same sequence
     * of spans as advanceHours() would have been, it leaves
     * nowHours() bit-identical. Fatals on negative/non-finite hours.
     */
    void advanceClock(double hours);

    // ---- Split steps ---------------------------------------------
    //
    // rent(), the releases and loadDesign() are each a bookkeeping
    // step (rented flags, release hours, the scheduler rng, the scrub
    // counter) followed by a device step that touches only that
    // board's silicon; advanceHours() is advanceClock() plus every
    // board's FpgaInstance::advanceHours(). The public calls above run
    // both halves back to back. A caller may instead run a batch of
    // bookkeeping steps first and the device steps afterwards, each
    // board's in booking order: every device then sees the same call
    // sequence, so every byte of platform state comes out the same.
    // Device steps read no bookkeeping, and device steps on different
    // boards may run concurrently.

    /** rent()'s bookkeeping: choose a board and mark it rented. The
     *  caller owes handOver() on it. */
    std::optional<std::string> bookRent();

    /** rent()'s device step: a clean configuration, plus the
     *  ZeroOnRent content scrub. */
    void handOver(FpgaInstance &inst) const;

    /** A release's bookkeeping: return the board to the pool stamped
     *  `released_at_h`. Fatals when the board is not rented. The
     *  caller owes tearDown() on the returned board, with the same
     *  `clean`. */
    FpgaInstance &bookRelease(const std::string &instance_id, bool clean,
                              double released_at_h);

    /** A release's device step: the wipe, then the ZeroOnRelease
     *  scrub (clean) or `off_power_hours` of BRAM off-power (unclean),
     *  then any active scrub design. */
    void tearDown(FpgaInstance &inst, bool clean,
                  double off_power_hours) const;

    /** loadDesign()'s bookkeeping: the board, which must be rented. */
    FpgaInstance &bookLoad(const std::string &instance_id);

    /** loadDesign()'s device step: design rule checks, then the load
     *  when they pass (violations are returned, nothing loaded). */
    std::vector<fabric::DrcViolation>
    configure(FpgaInstance &inst,
              std::shared_ptr<const fabric::Design> design) const;

    /** Ids of all instances (diagnostics / experiments). */
    std::vector<std::string> allInstanceIds() const;

    /**
     * Serialize the whole fleet: one "PLT!" chunk (config
     * fingerprint, wall clock, scheduler RNG) followed by one "BRD!"
     * chunk per instance, in fleet order. Strictly non-flushing (see
     * FpgaInstance::saveState). The marketplace is NOT serialized —
     * it holds published design images (code, not board state);
     * campaigns re-publish on resume.
     */
    void saveState(util::SnapshotWriter &writer) const;

    /**
     * Restore into a platform freshly constructed from the same
     * PlatformConfig — construction re-derives each board's silicon
     * seed and service age deterministically, then this restores the
     * dynamic state on top. Any corruption or config skew is returned
     * as a recoverable error (never fatal); the platform must then be
     * discarded. `boards_with_design` (optional) collects the ids of
     * boards that had a design resident at save time, for the owner
     * to re-load.
     */
    util::Expected<void> restoreState(
        util::SnapshotReader &reader,
        std::vector<std::string> *boards_with_design = nullptr);

  private:
    FpgaInstance *find(const std::string &instance_id);
    bool availableForRent(const FpgaInstance &inst) const;

    PlatformConfig config_;
    Marketplace marketplace_;
    fabric::DesignRuleChecker drc_;
    std::vector<std::unique_ptr<FpgaInstance>> fleet_;
    /** id → fleet_ index. The fleet is fixed at construction and
     *  restore never reorders it (board chunks are fingerprint-
     *  checked against ids in fleet order), so the index is built
     *  once and stays valid across snapshot round-trips. Every
     *  rent/release/loadDesign/instance call resolves through it —
     *  the linear scan it replaced made fleet-wide campaign phases
     *  O(N²). */
    std::unordered_map<std::string, std::size_t> index_;
    util::Rng rng_;
    double now_h_ = 0.0;
    /** Atomic: releaseAt() may book releases concurrently. */
    std::atomic<std::uint64_t> bram_scrub_ops_{0};
};

} // namespace pentimento::cloud

#endif // PENTIMENTO_CLOUD_PLATFORM_HPP
