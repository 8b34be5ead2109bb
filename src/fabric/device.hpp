/**
 * @file
 * The simulated FPGA device.
 *
 * A Device owns the persistent physical state: every materialised
 * element's process variation and BTI aging, held in a dense
 * ElementSlab with handle-indexed side arrays beside it (live
 * activity, synced timeline position, ΔVth memo). Designs come and
 * go — loadDesign()/wipe() change only the logical configuration —
 * while aging keyed by ResourceId survives, which is exactly the
 * data remanence the paper exploits.
 * Element variation is a pure function of (device seed, resource id),
 * so materialisation order never changes behaviour and two rentals of
 * the same board see the same silicon.
 *
 * Hot-path structure (PR 3, segment-timeline aging): advance() is
 * O(1) — it appends a (duration, Arrhenius-context) segment to the
 * device's AgingTimeline instead of sweeping the slab. Each element
 * carries the activity in effect since its last sync and materialises
 * its BTI state lazily, replaying pending segments only when
 *
 *  - its aged delay is actually queried (a Route/Tdc read),
 *  - its activity flips (loadDesign / wipe / a mitigation mutating
 *    the resident design), or
 *  - a whole-fabric operation needs fresh state (applyServiceWear).
 *
 * Consecutive same-temperature steps coalesce into one segment whose
 * duration is a compensated sum, and the duration × acceleration
 * multiply happens once at replay — so a 200-hour uninterrupted burn
 * costs 200 O(1) appends plus one per-element replay at the first
 * measurement, and any partition of the same span (hourly, random,
 * single jump) produces bit-identical aged delays. Boards that are
 * never observed (idle fleet stock) age for free. All replay enters
 * the element through one mutator, RoutingElement::age with effective
 * stress/recovery hours: a short run passes each segment's
 * duration × acceleration, a long run (kReduceRunThreshold) the
 * run's pre-reduced sums. wipe() is the design-replace release path
 * with no incoming design.
 *
 * Consumers (Route, Tdc) still resolve ResourceIds to dense element
 * pointers once, at bind time; the monotone *state epoch* (bumped by
 * advance/loadDesign/wipe/applyServiceWear) keys their derived-value
 * caches and the device's ΔVth memo (dvthAt).
 *
 * Tenancy structure (PR 5, activity journal): loadDesign()/wipe()
 * no longer materialise anything. A configured key whose element is
 * not yet in the slab gets its activity flips recorded in the
 * ActivityJournal — one O(1) run append per flip, no variation
 * sampling, no slab insert, no replay — and the element materialises
 * only at first observation (bindElement), replaying its journal runs
 * against the timeline with exactly the per-segment / pre-reduced
 * arithmetic an element observed at load would have used at each
 * flip. The contract: the time of first observation never changes an
 * aged delay. journal_test and property_test's JournalInterleaving
 * pin it bitwise by comparing a late-observed device with one whose
 * resident design is observed after every load, mutation and advance
 * (tests/observe_at_load.hpp); the regression goldens pin the values.
 * Only materialisation diagnostics (materializedCount, findElement
 * before observation) can tell the two apart. Whole-tenancy turnover
 * on never-measured boards is thereby O(configured keys) of hash
 * appends instead of O(configured keys) of element construction +
 * replay — and a board is only charged for silicon someone actually
 * looks at.
 */

#ifndef PENTIMENTO_FABRIC_DEVICE_HPP
#define PENTIMENTO_FABRIC_DEVICE_HPP

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fabric/activity_journal.hpp"
#include "fabric/aging_timeline.hpp"
#include "fabric/bram_block.hpp"
#include "fabric/design.hpp"
#include "fabric/element_slab.hpp"
#include "fabric/resource.hpp"
#include "fabric/route.hpp"
#include "fabric/routing_element.hpp"
#include "phys/bti.hpp"
#include "phys/thermal.hpp"
#include "phys/variation.hpp"
#include "util/compensated.hpp"
#include "util/expected.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace pentimento::util {
class SnapshotWriter;
class SnapshotReader;
} // namespace pentimento::util

namespace pentimento::fabric {

/** Static description of a device family + instance. */
struct DeviceConfig
{
    /** Family name, e.g. "xcvu9p" (AWS F1) or "xczu9eg" (ZCU102). */
    std::string family = "xcvu9p";
    /** Interconnect tile grid. */
    std::uint16_t tiles_x = 256;
    std::uint16_t tiles_y = 256;
    /** Routing nodes per interconnect tile. */
    std::uint16_t nodes_per_tile = 64;
    /** Mean per-element routing delay (ps). */
    double routing_pitch_ps = 25.0;
    /** Mean per-tap carry-chain delay (ps); the paper's 2.8 ps/bit. */
    double carry_pitch_ps = 2.8;
    /** Mean LUT read-path delay (ps). */
    double lut_pitch_ps = 124.0;
    /**
     * How strongly a LUT config-SRAM cell's BTI couples into its read
     * path delay. Zick et al. (paper §7) showed LUT imprints need
     * femtosecond-class off-chip instrumentation precisely because
     * the output-buffer coupling is orders of magnitude below a
     * route's; cloud TDCs (~ps class) cannot see them.
     */
    double lut_bti_coupling = 0.02;
    /** Physics calibration. */
    phys::BtiParams bti = phys::BtiParams::ultrascalePlus();
    phys::DelayParams delay{};
    phys::VariationParams variation{};
    /** Device-age derating model. */
    phys::DeviceAgeModel age_model{};
    /** Hours of prior service (0 = factory new ZCU102). */
    double service_age_h = 0.0;
    /** Per-device silicon seed (process variation identity). */
    std::uint64_t seed = 1;
    /**
     * BRAM cell retention across power-off, lognormal per block:
     * median off-power hours a block's contents survive before
     * decaying to cell noise. SRAM retention at room temperature is
     * seconds-to-minutes class; the per-block draw (split Rng stream
     * keyed by the block id, same idiom as process variation) models
     * the cell-to-cell spread the data-persistence literature
     * measures.
     */
    double bram_retention_median_h = 0.05;
    /** Lognormal sigma of the per-block retention draw. */
    double bram_retention_sigma = 1.0;
};

/**
 * Both transistors' BTI threshold shifts of one element, memoised per
 * device state epoch (see Device::dvthAt).
 */
struct ElementDvth
{
    /** State epoch the shifts were computed at; ~0 = never filled
     *  (the epoch counts up from zero, so ~0 is unreachable). */
    std::uint64_t epoch = ~0ULL;
    /** NMOS threshold shift (limits falling transitions), volts. */
    double nmos_v = 0.0;
    /** PMOS threshold shift (limits rising transitions), volts. */
    double pmos_v = 0.0;
};

/**
 * One physical FPGA: persistent aging plus at most one loaded design.
 */
class Device
{
  public:
    explicit Device(DeviceConfig config);

    /** Static configuration. */
    const DeviceConfig &config() const { return config_; }

    /** Fresh-BTI derating from the device's service age. */
    double freshScale() const { return fresh_scale_; }

    /** Simulated hours elapsed since construction (compensated). */
    double elapsedHours() const { return elapsed_h_.value(); }

    /**
     * Materialise (if needed), sync with the segment timeline, and
     * return an element. Variation is deterministic per (seed, id).
     * The reference stays valid for the device's lifetime (the slab
     * never relocates elements). Syncing makes direct aging()
     * reads/writes safe; note that a sync is a timeline observation
     * (it closes the open segment).
     */
    RoutingElement &element(ResourceId id);

    /**
     * Look up an element without materialising it. Journal-deferred
     * elements (configured but never observed) return nullptr — they
     * do not exist yet. A found element is NOT synced with the
     * timeline: its aging state reflects the last observation, not
     * pending idle time (use element() for current state).
     */
    const RoutingElement *findElement(ResourceId id) const;

    /** Number of materialised elements (journal-deferred ones are
     *  configured but not yet materialised, so they don't count). */
    std::size_t materializedCount() const { return slab_.size(); }

    /** Number of configured-but-unmaterialised (journal-deferred)
     *  elements. 0 once every configured element has been observed. */
    std::size_t journaledKeyCount() const
    {
        return journal_.activeKeyCount();
    }

    /** Probe-table slots the activity journal has allocated. */
    std::size_t journalTableSlots() const
    {
        return journal_.tableSlots();
    }

    /**
     * Monotonic counter bumped whenever aged delays may have changed:
     * advance(), applyServiceWear(), loadDesign() and wipe(). Caches
     * keyed on (epoch, temperature, polarity) — e.g. a Tdc's tap
     * arrival times — stay valid exactly as long as the epoch does.
     */
    std::uint64_t stateEpoch() const { return state_epoch_; }

    /**
     * Materialise (if needed) an element and return its dense handle
     * WITHOUT syncing it — the bind-time form Route/Tdc use. Pair
     * with elementAt() for the pointer and syncHandles() before
     * reading aged state.
     */
    ElementHandle bindElement(ResourceId id);

    /** Element behind a bind-time handle. */
    RoutingElement &elementAt(ElementHandle h) { return slab_.at(h); }

    /**
     * ΔVth of a bound element at the current state epoch — the read
     * Route and Tdc walks make after syncHandles(). ΔVth is a pure
     * function of the aging state (never of temperature or polarity),
     * so it is constant between epoch bumps: the first read of an
     * epoch evaluates the BTI power law for both transistors and
     * later reads, at any temperature and either polarity, reuse it.
     *
     * Unlocked. Measurement lanes may call it concurrently because
     * the epoch is constant throughout a measurement phase (reads
     * never bump it) and lanes own disjoint element sets (each sensor
     * walks its own route and chain), so no two lanes touch one
     * entry; binds, which grow the memo, run in exclusive phases.
     */
    const ElementDvth &
    dvthAt(ElementHandle h)
    {
        ElementDvth &memo = (*dvth_[h / kDvthChunk])[h % kDvthChunk];
        if (memo.epoch != state_epoch_) {
            slab_.sweepAt(h).deltaVthPair(config_.bti, memo.nmos_v,
                                          memo.pmos_v);
            memo.epoch = state_epoch_;
        }
        return memo;
    }

    /**
     * Replay any pending timeline segments into the given elements
     * (the read-path hook: Route/Tdc call this before walking their
     * bound element pointers). Thread-safe for concurrent calls on
     * disjoint or overlapping handle sets — every call takes the
     * sync mutex, so callers must keep it off per-trace hot loops by
     * guarding with the state epoch / arrival caches, as Route and
     * Tdc do.
     */
    void syncHandles(const ElementHandle *handles, std::size_t count);

    /**
     * Closed-plus-open segment count currently pending replay for at
     * least one element (diagnostics / tests of the lazy model).
     */
    std::size_t timelineSegments() const;

    /**
     * Allocate a route of roughly the requested delay out of
     * consecutive routing nodes (the paper composes arbitrarily long
     * route-under-test chains, §3).
     */
    RouteSpec allocateRoute(const std::string &name, double target_ps);

    /**
     * Allocate a TDC carry chain of the given number of taps.
     */
    RouteSpec allocateCarryChain(const std::string &name,
                                 std::size_t taps);

    /**
     * Allocate a read path through LUT configuration SRAM cells (the
     * resource Zick et al. targeted; paper §7). The cells imprint
     * like any transistor, but their delay coupling is
     * lut_bti_coupling — far below a TDC's reach.
     */
    RouteSpec allocateLutPath(const std::string &name,
                              std::size_t cells);

    /**
     * Ids of every materialised element, sorted by packed key so the
     * listing is deterministic regardless of materialisation order.
     * Journal-deferred elements are not listed until first observed;
     * after full observation the listing equals imprintedIds().
     */
    std::vector<ResourceId> materializedIds() const;

    /**
     * Ids of every element that carries (or is still owed) an analog
     * imprint: the materialised set plus the journal-deferred set,
     * sorted by packed key. This is what a provider-side scrub must
     * drive — materializedIds() alone would miss elements whose
     * tenancies were never measured. Identical to materializedIds()
     * once every configured element has been observed.
     */
    std::vector<ResourceId> imprintedIds() const;

    /** Bind a skeleton to this device. */
    Route bindRoute(const RouteSpec &spec);

    /**
     * Program a design (replaces any currently loaded design).
     * Materialised elements whose activity flips are flushed — their
     * pending timeline time is replayed under the outgoing activity —
     * so the flip is a segment boundary; configured elements not yet
     * materialised only get the flip journaled (O(1) per key) and
     * materialise at first observation. Re-loading the resident
     * design at an unchanged revision is a no-op.
     */
    void loadDesign(std::shared_ptr<const Design> design);

    /**
     * Provider-style wipe: clears the logical configuration. The
     * physical aging state is untouched — that is the vulnerability.
     * Journal-deferred elements get a released run journaled instead
     * of being materialised; their imprint stays owed.
     */
    void wipe();

    /** Currently loaded design, or nullptr. */
    const Design *currentDesign() const { return design_.get(); }

    // ── BRAM content remanence (the second resource class) ─────────
    //
    // Persistence semantics are the *inverse* of interconnect aging:
    // wipe() clears the logical configuration but leaves BRAM words
    // (they are physical SRAM state, not configuration), power events
    // and PCIe resets leave them too (within each block's retention
    // window), and only (re)configuration — loadDesign — or an
    // explicit provider scrub zeroes them. None of these paths touch
    // the aging slab, the journal, the timeline, or any Rng stream
    // the interconnect channel consumes: the routing goldens cannot
    // move.

    /** Tenant write of a block's representative word. Materialises
     *  the block (retention limit drawn from a split stream keyed by
     *  the id — pure, order-independent). */
    void writeBram(ResourceId id, std::uint64_t word);

    /**
     * Attacker/tenant readback. Resolves pending off-power exposure
     * lazily (Written → Retained or Decayed; a decayed block's word
     * is replaced by a deterministic per-id cell-noise draw) and
     * returns the block. Reading is not a timeline observation —
     * BRAM content carries no analog aging to replay.
     */
    const BramBlock &readBram(ResourceId id);

    /** Look up a block without materialising or resolving it.
     *  Returns nullptr when the block was never touched. */
    const BramBlock *findBramBlock(ResourceId id) const;

    /** Zero every materialised block (provider scrub / configuration
     *  clear). Unlike wipe(), this IS observable by a later tenant:
     *  it is the mitigation the scrub-policy ablation prices. */
    void zeroBram();

    /** Accrue off-power hours against every block's retention window
     *  (power loss; PCIe resets pass 0 hours and leave content). */
    void accrueBramOffPower(double hours);

    /** Number of materialised BRAM blocks. */
    std::size_t bramBlockCount() const { return bram_.size(); }

    /**
     * Advance simulated time: steps the thermal environment with the
     * loaded design's power and records the span on the segment
     * timeline. O(changed-elements) — usually O(1): per-element work
     * happens only if the resident design mutated since the last call
     * (those elements flush), never per hour. Same-temperature spans
     * coalesce, so the cost of a multi-hour uninterrupted burn is
     * independent of how it is partitioned into advance() calls.
     */
    void advance(double dt_h, phys::ThermalEnvironment &thermal);

    /**
     * advance() with the die temperature already computed by the
     * caller — the segment-ingestion form the cloud instance's
     * event-driven walk uses: one externally-coalesced span between
     * ambient events becomes one timeline segment, with no
     * ThermalEnvironment virtual dispatch on the walk.
     */
    void advanceAt(double dt_h, double die_temp_k);

    /**
     * Credit simulated hours without recording aging segments — the
     * first half of the deferred-time protocol. The caller owes the
     * timeline matching ingestSegment() spans totalling dt_h before
     * anything observes an element (the cloud instance flushes via
     * the pre-observation hook). Bumps the state epoch so derived-
     * value caches can never serve results that predate the credit.
     */
    void creditIdleHours(double dt_h);

    /**
     * Record one externally-coalesced aging span whose wall-clock
     * hours were already credited with creditIdleHours() — the second
     * half of the deferred-time protocol. Identical timeline effect
     * to advanceAt(), without double-counting elapsed time. This IS
     * the pre-observation flush's delivery channel (deliberately not
     * hooked); all other span producers should use advanceAt().
     */
    void ingestSegment(double dt_h, double die_temp_k);

    /**
     * Install a hook invoked before any observation that reads or
     * flips element aging state (element sync, design load, wipe,
     * service wear, advance). The cloud instance uses it to
     * materialise deferred idle time, so direct Device consumers
     * (bound Routes, TDCs) can never read state that is missing
     * deferred spans. Pass nullptr to detach.
     */
    void
    setPreObservationHook(std::function<void()> hook)
    {
        pre_observation_hook_ = std::move(hook);
    }

    /**
     * Pre-age the whole allocated fabric (used to model years of
     * anonymous prior service; complements the fresh-scale derating).
     * A whole-fabric observation: journal-deferred elements
     * materialise first so the wear lands on every imprinted element,
     * however late each was first observed.
     */
    void applyServiceWear(double hours, double duty_one = 0.5);

    /**
     * Attach a work pool used by applyServiceWear() to age elements
     * in parallel (nullptr = serial). The pool must outlive the
     * device or be detached before destruction; results do not
     * depend on the pool's worker count.
     */
    void setWorkPool(util::ThreadPool *pool) { pool_ = pool; }

    /**
     * Serialize the device's complete dynamic state into the writer's
     * current chunk. Const and strictly non-flushing: pending journal
     * runs, the open timeline segment, and externally deferred time
     * all serialize RAW, so taking a checkpoint never closes a
     * segment, materialises an element, or otherwise perturbs the run
     * being checkpointed.
     *
     * The loaded design is NOT serialized (designs are code, not
     * board state); a `had_design` flag records whether one was
     * resident so the owning campaign knows to re-load it. Re-loading
     * an equivalent design into a restored device is draw-neutral and
     * flip-free: live activities and journal runs already match, so
     * neither the timeline nor any RNG stream moves.
     */
    void saveState(util::SnapshotWriter &writer) const;

    /**
     * Restore into a freshly constructed device whose DeviceConfig
     * matches the one saved (the snapshot carries a fingerprint and
     * rejects mismatches). Corrupt or inconsistent payloads poison
     * the reader and return its error — never fatal/panic — and the
     * device must then be discarded (state may be partially applied).
     * On success `had_design` (optional) reports whether a design was
     * resident at save time; the caller re-loads it.
     */
    util::Expected<void> restoreState(util::SnapshotReader &reader,
                                      bool *had_design = nullptr);

  private:
    RoutingElement makeElement(ResourceId id) const;

    /** Fresh Unwritten block with its pure per-id retention draw. */
    BramBlock makeBramBlock(ResourceId id) const;

    /** Zero all blocks, then land the resident design's BRAM init
     *  words — what configuring a bitstream does to block RAM. */
    void applyBramConfiguration();

    /** Run the pre-observation hook (deferred-time flush), if any. */
    void
    flushExternalTime()
    {
        if (pre_observation_hook_) {
            pre_observation_hook_();
        }
    }

    /** Shared body of advance/advanceAt/ingestSegment. */
    void recordSpan(double dt_h, double die_temp_k,
                    bool credit_elapsed);

    /**
     * Fold the resident design's activity map into the elements' live
     * activities. Runs when the design is (re)loaded, when its
     * mutation revision changes, or when the slab grew (an element
     * configured by an in-place mutation may only materialise later).
     * Elements whose activity actually flips are flushed first; an
     * unchanged design never splits a segment.
     */
    void applyDesignActivity();

    /** applyDesignActivity only if design/revision/slab changed. */
    void syncActivityWithDesign();

    /**
     * A design's activity map split into cohorts: keys whose elements
     * are materialised resolve to dense handles; the rest stay packed
     * keys destined for the journal. Resolution never materialises.
     * Cached per (design identity, revision, slab size) so the
     * attack-phase measure/park alternation — the same two designs
     * swapped every sweep — never re-hashes a thousand resource keys
     * per load; any materialisation grows the slab and so invalidates
     * entries whose cohort split went stale. Holding the shared_ptr
     * keeps identity comparison sound.
     */
    struct ResolvedDesign
    {
        std::shared_ptr<const Design> design;
        std::uint64_t revision = 0;
        std::uint64_t keyset_revision = 0;
        std::size_t slab = 0;
        std::vector<ElementHandle> handles;
        std::vector<ElementActivity> activities;
        /** Deferred cohort: not in the slab at resolution time. */
        std::vector<std::uint64_t> keys;
        std::vector<ElementActivity> key_activities;
        /** Cohort of each key in activity-map iteration order (true =
         *  deferred), so a values-only refresh can rewrite both
         *  activity vectors with one in-order walk and no hashing. */
        std::vector<bool> deferred_order;
    };

    /** Resolution for the resident design: cache hit, values-only
     *  refresh (same design, same key set and slab, rotated burn
     *  values — the mitigation-flip shape), or full rebuild. Shared
     *  ownership: the applied-configuration snapshot (configured_)
     *  aliases the cache entry, surviving eviction; a refresh may
     *  rewrite the aliased activities in place, which is safe because
     *  outgoing-flip processing reads only the handle/key lists.
     *
     *  Rebuild and refresh walk the activity map anyway, so they fold
     *  the deferred cohort's journal recording into the same pass
     *  (one probe per key per design load): flips recorded at
     *  flip_pos are counted into *journal_flips and *records_applied
     *  is set true. A pure cache hit leaves recording to the caller
     *  (*records_applied false). */
    std::shared_ptr<const ResolvedDesign>
    resolveResidentDesign(std::uint32_t flip_pos,
                          std::size_t *journal_flips,
                          bool *records_applied);

    /** Replay closed segments into one element (lock held/exclusive). */
    void replayHandle(ElementHandle h);

    /**
     * Apply closed segments [from, to) to one element under a fixed
     * activity — the shared replay chunk of replayHandle and journal
     * materialisation. Chunk boundaries are the element's flips and
     * syncs, which do not depend on when it was first observed, so
     * neither does the per-segment vs pre-reduced decision (and with
     * it every rounding step).
     */
    void replaySpan(RoutingElement &elem,
                    const ElementActivity &activity, std::uint32_t from,
                    std::uint32_t to);

    /**
     * Fold a freshly materialised element's journal runs into its
     * aging state. Leaves the element exactly where an element
     * observed since its first configuration would stand after the
     * last recorded flip: live activity = final run, synced position
     * = final run start, the tail pending for the next sync.
     */
    void replayJournalRuns(ElementHandle h,
                           const std::vector<JournalRun> &runs);

    /** Materialise every journal-deferred element (whole-fabric
     *  operations — service wear — need the full population). */
    void materializeJournal();

    /** Drop fully-consumed closed segments (bounds timeline memory). */
    void maybeCompactTimeline();

    /** Add ΔVth memo chunks until every materialised element has an
     *  entry. */
    void growDvthMemo();

    DeviceConfig config_;
    double fresh_scale_;
    util::CompensatedSum elapsed_h_;
    std::uint64_t state_epoch_ = 0;
    std::uint64_t alloc_cursor_ = 0;
    std::uint64_t carry_cursor_ = 0;
    std::uint64_t lut_cursor_ = 0;
    ElementSlab<RoutingElement> slab_;
    /** BRAM content slab — the second element class. Deliberately a
     *  bare ElementSlab: content state needs no ΔVth memo, no journal
     *  (writes are explicit, not per-hour), and no timeline. */
    ElementSlab<BramBlock> bram_;
    /** (name, bramRevision) of the design whose BRAM configuration
     *  the blocks currently reflect. Keyed by name rather than object
     *  identity so the checkpoint-resume re-load of an equivalent
     *  design — rebuilt deterministically on the other side of the
     *  snapshot — is BRAM-neutral (see loadDesign). Cleared by wipe:
     *  configuring after a wipe always zeroes. */
    std::string bram_applied_design_;
    std::uint64_t bram_applied_revision_ = 0;
    AgingTimeline timeline_;
    /** Flip log for configured-but-unmaterialised elements. Invariant:
     *  a key is EITHER active here OR materialised (bindElement
     *  consumes its runs), never both. */
    ActivityJournal journal_;
    phys::StepContextCache ctx_cache_;
    /** Handle-indexed lazy-aging bookkeeping, kept OUT of the element
     *  slab so a RoutingElement stays one cache line on the dense
     *  measurement walks: the activity in effect since the element's
     *  last sync (constant between syncs — flips flush), the closed
     *  timeline segments already folded into its aging, and its ΔVth
     *  memo (dvthAt). Grown only at materialisation points (exclusive
     *  phases). */
    std::vector<ElementActivity> live_;
    std::vector<std::uint32_t> synced_;
    /** The memo grows a whole chunk at a time: a flat vector's
     *  doubling slack and reallocation copy would add up to two more
     *  memos' worth of bytes to peak RSS when a fleet-wide coverage
     *  check materialises every board's deferred elements. */
    static constexpr std::uint32_t kDvthChunk = 1024;
    std::vector<std::unique_ptr<std::array<ElementDvth, kDvthChunk>>>
        dvth_;
    /** Closed-segment count at which compaction first runs. */
    static constexpr std::size_t kCompactThreshold = 64;
    /**
     * Run length (segments) above which replayHandle applies the
     * timeline's pre-reduced effective-hour totals instead of one
     * update per segment. Short runs — everything the bit-exact
     * regression goldens exercise — keep the historical per-segment
     * arithmetic; long runs (months of varying-ambient cloud
     * segments) collapse to one update per element.
     */
    static constexpr std::uint32_t kReduceRunThreshold = 16;
    /** Closed-segment count that re-arms compaction (geometric
     *  back-off so a pinned stale element cannot make every sync pay
     *  an O(elements) min-position scan). */
    std::size_t compact_watermark_ = kCompactThreshold;
    std::shared_ptr<const Design> design_;
    /** Design whose activity map the elements' live activities
     *  reflect, plus the revision and slab size they were synced at.
     *  Holding the shared_ptr keeps the source design alive so
     *  identity comparison is sound (a recycled allocation address
     *  can never alias). */
    std::shared_ptr<const Design> activity_design_;
    std::uint64_t activity_revision_ = 0;
    std::size_t covered_slab_ = 0;
    /** Resolution applied at the last activity sync — the element
     *  set that must flip to Unused on wipe/replace. Null when no
     *  configuration has been applied. */
    std::shared_ptr<const ResolvedDesign> configured_;
    /** Two-slot LRU of resolved designs (see ResolvedDesign);
     *  non-const so values-only refreshes can rewrite in place. */
    std::shared_ptr<ResolvedDesign> resolved_designs_[2];
    std::uint8_t resolved_lru_ = 0;
    /** Handle-indexed mark scratch for set differences in
     *  applyDesignActivity (stamp = mark_stamp_). */
    std::vector<std::uint64_t> mark_scratch_;
    std::uint64_t mark_stamp_ = 0;
    /** Reused flip-collection scratch (applyDesignActivity). */
    std::vector<std::pair<ElementHandle, ElementActivity>>
        flip_scratch_;
    /** Serialises timeline closes + element replays triggered from
     *  concurrent read paths (measurement fan-out). */
    std::mutex sync_mutex_;
    /** Deferred-time flush, installed by the owning cloud instance.
     *  Invoked single-threaded by construction: deferral only happens
     *  while a board is idle and unobserved, and the concurrent
     *  measurement fan-out only runs on boards whose deferral was
     *  flushed when their design loaded. */
    std::function<void()> pre_observation_hook_;
    util::ThreadPool *pool_ = nullptr;
};

} // namespace pentimento::fabric

#endif // PENTIMENTO_FABRIC_DEVICE_HPP
