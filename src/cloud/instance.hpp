/**
 * @file
 * One rentable cloud FPGA card.
 *
 * Bundles the physical device with its thermal environment (package
 * model driven by the OU ambient) and rental bookkeeping. The
 * provider wipes the design on release; the silicon keeps its aging —
 * the whole point of the paper.
 *
 * Event-driven advancement (PR 4): advanceHours() walks whole spans
 * between ambient events — one package-model relaxation and one
 * aging-timeline segment per event instead of one per sub-step — and,
 * while the card is unconfigured (pooled stock with no design
 * loaded), defers the walk entirely: time is credited to the device
 * in O(1) and the ambient draws, thermal relaxations and timeline
 * segments materialise only when something observes the card again
 * (device access, die-temperature query, or any element read via the
 * device's pre-observation hook). A board that idles for a simulated
 * year and is never measured costs a few arithmetic operations per
 * advance call; a board that is re-rented replays its backlog
 * bit-identically to an eagerly stepped one.
 */

#ifndef PENTIMENTO_CLOUD_INSTANCE_HPP
#define PENTIMENTO_CLOUD_INSTANCE_HPP

#include <memory>
#include <string>

#include "cloud/ambient.hpp"
#include "fabric/device.hpp"
#include "phys/thermal.hpp"
#include "util/compensated.hpp"
#include "util/rng.hpp"

namespace pentimento::cloud {

/**
 * A physical F1 card in the fleet.
 */
class FpgaInstance
{
  public:
    /**
     * @param id provider-assigned identifier (e.g. "fpga-0003")
     * @param device_config silicon configuration (age, seed, family)
     * @param ambient ambient-process parameters
     * @param rng per-instance noise stream
     */
    FpgaInstance(std::string id, fabric::DeviceConfig device_config,
                 AmbientParams ambient, util::Rng rng);

    FpgaInstance(const FpgaInstance &) = delete;
    FpgaInstance &operator=(const FpgaInstance &) = delete;

    /** Provider-assigned identifier. */
    const std::string &id() const { return id_; }

    /**
     * The silicon. Materialises any deferred idle time first, so a
     * caller holding the reference always sees fully-aged state.
     */
    fabric::Device &
    device()
    {
        materializeDeferred();
        return device_;
    }
    const fabric::Device &
    device() const
    {
        materializeDeferred();
        return device_;
    }

    /**
     * Present die temperature (kelvin). Logically const: replays any
     * deferred ambient events and thermal relaxation first.
     */
    double
    dieTempK() const
    {
        materializeDeferred();
        return thermal_.dieTempK();
    }

    /**
     * Advance simulated time. The walk is bounded by ambient events
     * (and by step_h, for callers that want finer thermal relaxation
     * while a design is loaded): per span, the ambient is constant,
     * the package model relaxes once, and the device records a single
     * timeline segment. Unconfigured cards defer the walk entirely
     * and replay it — at event granularity — on next observation.
     * Partition-invariant: any split of a span into advanceHours
     * calls crosses the same ambient events and yields bit-identical
     * temperatures and aged delays.
     */
    void advanceHours(double hours, double step_h = 1.0);

    /**
     * Allocate a route on this card's fabric without observing the
     * card: allocation reads only the device's allocation cursor,
     * never aging state, so no deferred idle time is walked. A caller
     * may book a tenancy's routes before the card's device work runs.
     */
    fabric::RouteSpec
    allocateRoute(const std::string &name, double target_ps)
    {
        return device_.allocateRoute(name, target_ps);
    }

    /** Per-instance measurement-noise stream. */
    util::Rng &rng() { return rng_; }

    /**
     * Idle hours advanced but not yet walked (diagnostic for the
     * deferred-walk tests). The backlog composes with the device's
     * activity journal: an idle board accrues hours here in O(1), the
     * walk materialises ambient events and timeline segments at first
     * observation, and only then can journal-deferred elements replay
     * against those segments — the pre-observation hook orders the
     * two.
     */
    double deferredIdleHours() const { return deferred_h_.value(); }

    /** Rental bookkeeping (maintained by the platform). */
    bool rented() const { return rented_; }
    void setRented(bool rented) { rented_ = rented; }

    /**
     * Platform hour at which the card last returned to the pool.
     * Fresh cards report a far-past time so quarantine policies never
     * withhold never-rented stock.
     */
    double releasedAtHour() const { return released_at_h_; }
    void setReleasedAtHour(double hour) { released_at_h_ = hour; }

    /**
     * Power event (host reboot / instance stop): the SRAM-based
     * configuration is lost — a wipe, with all its activity-flip
     * bookkeeping — and every BRAM block accrues `off_hours` against
     * its retention window, while interconnect aging is untouched
     * (it is physical wear). The die relaxes to ambient. Does NOT
     * advance simulated time: the owner advances the clock through
     * the normal advanceHours path.
     */
    void powerCycle(double off_hours);

    /**
     * PCIe hot reset: the configuration stays resident and BRAM
     * contents survive untouched (the data-persistence literature's
     * headline observation) — only the event counter moves. Exists so
     * experiments can assert the survival, not fake it.
     */
    void pcieReset();

    /** Power events seen (diagnostics + snapshot). */
    std::uint64_t powerCycles() const { return power_cycles_; }
    /** PCIe resets seen (diagnostics + snapshot). */
    std::uint64_t pcieResets() const { return pcie_resets_; }

    /**
     * Serialize the card into the writer's current chunk. Strictly
     * non-flushing: the deferred idle backlog and the device's raw
     * lazy state checkpoint as-is, so a restored card replays them at
     * its next observation exactly as the uncheckpointed card would
     * have.
     */
    void saveState(util::SnapshotWriter &writer) const;

    /**
     * Restore into a freshly constructed card with the same identity
     * and configuration (fingerprint-checked). On failure the card
     * must be discarded. `had_design` reports whether a design was
     * resident at save time (designs are not serialized; the owner
     * re-loads them).
     */
    util::Expected<void> restoreState(util::SnapshotReader &reader,
                                      bool *had_design = nullptr);

  private:
    /**
     * Replay deferred idle time: walk the backlog at ambient-event
     * granularity, feeding each span's settled die temperature to the
     * device as one ingested segment. Const because deferral is an
     * internal representation choice — observable state is identical
     * before and after (single-threaded by construction: deferral
     * only accrues while the card is unobserved).
     */
    void materializeDeferred() const;

    /**
     * Walk spans bounded by ambient events and step_h; when
     * credit_elapsed is false the device hours were already credited
     * at deferral time.
     */
    void walkSpans(double hours, double step_h,
                   bool credit_elapsed) const;

    std::string id_;
    /** Lazily-materialised members are mutable so const observers
     *  (dieTempK, const device()) can flush the deferred backlog. */
    mutable fabric::Device device_;
    mutable AmbientModel ambient_;
    mutable phys::PackageThermalModel thermal_;
    /** Idle hours advanced but not yet walked (design-free spans). */
    mutable util::CompensatedSum deferred_h_;
    util::Rng rng_;
    bool rented_ = false;
    double released_at_h_ = -1.0e18;
    std::uint64_t power_cycles_ = 0;
    std::uint64_t pcie_resets_ = 0;
};

} // namespace pentimento::cloud

#endif // PENTIMENTO_CLOUD_INSTANCE_HPP
