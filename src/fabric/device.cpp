#include "fabric/device.hpp"

#include <algorithm>
#include <cmath>

#include "util/logging.hpp"
#include "util/snapshot.hpp"

namespace pentimento::fabric {

namespace {

constexpr ElementActivity kUnusedActivity{};

} // namespace

Device::Device(DeviceConfig config) : config_(std::move(config))
{
    if (config_.tiles_x == 0 || config_.tiles_y == 0 ||
        config_.nodes_per_tile == 0) {
        util::fatal("Device: empty fabric grid");
    }
    if (config_.routing_pitch_ps <= 0.0 || config_.carry_pitch_ps <= 0.0) {
        util::fatal("Device: non-positive element pitch");
    }
    fresh_scale_ =
        config_.age_model.freshStressScale(config_.service_age_h);
}

RoutingElement
Device::makeElement(ResourceId id) const
{
    // Variation must be a pure function of (device seed, resource id)
    // so that materialisation order is irrelevant and the same board
    // rented twice presents identical silicon.
    util::Rng stream = util::Rng(config_.seed).split(id.key());
    phys::VariationSampler sampler(config_.variation, stream);
    const phys::ElementVariation var = sampler.sample();
    double pitch = config_.routing_pitch_ps;
    double coupling = 1.0;
    switch (id.type) {
      case ResourceType::CarryElement:
        pitch = config_.carry_pitch_ps;
        break;
      case ResourceType::Lut:
        pitch = config_.lut_pitch_ps;
        coupling = config_.lut_bti_coupling;
        break;
      default:
        break;
    }
    return RoutingElement(id, pitch, pitch, var,
                          fresh_scale_ * coupling);
}

BramBlock
Device::makeBramBlock(ResourceId id) const
{
    // Retention is a pure function of (device seed, block id) — same
    // discipline as process variation, so materialisation order and
    // worker count are irrelevant. The "bram" tag keeps the stream
    // disjoint from the variation stream of a routing element that
    // happens to share the packed key space.
    util::Rng stream =
        util::Rng(config_.seed).split("bram").split(id.key());
    BramBlock block;
    block.id_ = id;
    block.retention_limit_h =
        stream.lognormal(std::log(config_.bram_retention_median_h),
                         config_.bram_retention_sigma);
    return block;
}

void
Device::writeBram(ResourceId id, std::uint64_t word)
{
    const ElementHandle h = bram_.ensure(
        id, [this](ResourceId rid) { return makeBramBlock(rid); });
    bram_.at(h).write(word, elapsedHours());
}

const BramBlock &
Device::readBram(ResourceId id)
{
    const ElementHandle h = bram_.ensure(
        id, [this](ResourceId rid) { return makeBramBlock(rid); });
    BramBlock &block = bram_.at(h);
    if (block.resolveRetention()) {
        // Decayed: the word the attacker reads is cell noise — a pure
        // per-id draw, so any observation order sees the same noise.
        block.content = util::Rng(config_.seed)
                            .split("bram_decay")
                            .split(id.key())
                            .uniformInt(0, ~0ULL);
    }
    return block;
}

const BramBlock *
Device::findBramBlock(ResourceId id) const
{
    const ElementHandle h = bram_.find(id.key());
    return h == kInvalidElement ? nullptr : &bram_.at(h);
}

void
Device::zeroBram()
{
    const std::size_t count = bram_.size();
    for (std::size_t i = 0; i < count; ++i) {
        bram_.sweepAt(static_cast<ElementHandle>(i)).zero();
    }
}

void
Device::accrueBramOffPower(double hours)
{
    if (!(hours >= 0.0)) {
        util::fatal("Device::accrueBramOffPower: negative hours");
    }
    const std::size_t count = bram_.size();
    for (std::size_t i = 0; i < count; ++i) {
        bram_.sweepAt(static_cast<ElementHandle>(i))
            .accrueOffPower(hours);
    }
}

void
Device::applyBramConfiguration()
{
    // Configuration writes the whole BRAM column: every block is
    // zeroed (this is why reconfiguration kills the content channel)
    // and the design's declared init words land on top.
    zeroBram();
    if (design_ == nullptr) {
        bram_applied_design_.clear();
        bram_applied_revision_ = 0;
        return;
    }
    for (const auto &[key, word] : design_->bramInitMap()) {
        writeBram(ResourceId::fromKey(key), word);
    }
    bram_applied_design_ = design_->name();
    bram_applied_revision_ = design_->bramRevision();
}

ElementHandle
Device::bindElement(ResourceId id)
{
    const ElementHandle h = store_.ensure(
        id, [this](ResourceId rid) { return makeElement(rid); });
    if (h >= synced_.size()) {
        // Born now: released activity, and skip the pre-birth closed
        // segments. (Replaying them would be a no-op anyway — a
        // pristine, released element only accrues recovery, which
        // applyRecovery drops — but starting at the present position
        // avoids the dead loop.) Growth happens only here, in
        // exclusive phases: concurrent syncs touch bound handles,
        // which are always already covered.
        live_.resize(store_.size());
        synced_.resize(store_.size(), timeline_.position());
        // First observation of a journal-deferred element: replay the
        // activity runs its tenancies recorded, leaving it exactly
        // where eager materialisation would have after the last flip.
        const std::vector<JournalRun> runs = journal_.consume(id.key());
        if (!runs.empty()) {
            replayJournalRuns(h, runs);
        }
    }
    return h;
}

RoutingElement &
Device::element(ResourceId id)
{
    const ElementHandle h = bindElement(id);
    syncHandles(&h, 1);
    return store_.at(h);
}

const RoutingElement *
Device::findElement(ResourceId id) const
{
    const ElementHandle h = store_.find(id.key());
    return h == kInvalidElement ? nullptr : &store_.at(h);
}

void
Device::replaySpan(RoutingElement &elem,
                   const ElementActivity &activity, std::uint32_t from,
                   std::uint32_t to)
{
    if (to - from >= kReduceRunThreshold) {
        // Long constant-activity run: one update from the timeline's
        // pre-reduced effective-hour totals. The memo makes this
        // O(elements + segments) per flush instead of
        // O(elements x segments) — the difference between a
        // fleet-year wipe costing milliseconds and seconds.
        const RunTotals totals = timeline_.runTotals(from, to);
        elem.ageEffective(config_.bti, activity, totals.stress_eff_h,
                          totals.recovery_eff_h);
    } else {
        const auto &closed = timeline_.closed();
        for (std::uint32_t pos = from; pos < to; ++pos) {
            elem.age(config_.bti, closed[pos].ctx, activity,
                     closed[pos].duration_h);
        }
    }
}

void
Device::replayHandle(ElementHandle h)
{
    const std::uint32_t end = timeline_.position();
    const std::uint32_t pos = synced_[h];
    if (pos != end) {
        replaySpan(store_.sweepAt(h), live_[h], pos, end);
        synced_[h] = end;
    }
}

void
Device::replayJournalRuns(ElementHandle h,
                          const std::vector<JournalRun> &runs)
{
    // Each run [from_i, from_i+1) is the span an eager element would
    // have replayed at flip i+1, so both paths take the identical
    // per-segment vs pre-reduced decisions and the aging state is
    // bit-identical. The final run stays pending: live activity +
    // synced position land exactly where the eager element stood
    // after its last flip, and the next sync picks up the tail.
    RoutingElement &elem = store_.sweepAt(h);
    for (std::size_t i = 0; i + 1 < runs.size(); ++i) {
        replaySpan(elem, runs[i].activity, runs[i].from,
                   runs[i + 1].from);
    }
    live_[h] = runs.back().activity;
    synced_[h] = runs.back().from;
}

void
Device::materializeJournal()
{
    // consume() happens inside bindElement, so snapshot the key set
    // first. Materialisation order is irrelevant: variation is a pure
    // function of (seed, id) and replay is element-local.
    for (const std::uint64_t key : journal_.activeKeys()) {
        bindElement(ResourceId::fromKey(key));
    }
}

void
Device::syncHandles(const ElementHandle *handles, std::size_t count)
{
    // Deferred idle time (cloud instances) must land on the timeline
    // before any element state is replayed. No-op outside deferral,
    // and deferral never coexists with the concurrent measurement
    // fan-out (a loaded design forces eager advancement).
    flushExternalTime();
    // Serialises against concurrent syncs from the per-sensor
    // measurement fan-out (unconditionally: a lock-free pre-check
    // would race with close()/replay under the lock). The lock is
    // cold — Route guards delay queries with the state epoch and Tdc
    // syncs only on an arrival-cache miss, so per-trace hot loops
    // never get here.
    const std::lock_guard<std::mutex> lock(sync_mutex_);
    timeline_.close();
    // Hoisted already-synced guard: the second polarity's arrival
    // walk of a measurement sweep re-syncs the same handles, so half
    // of all calls see every element current.
    const std::uint32_t end = timeline_.position();
    for (std::size_t i = 0; i < count; ++i) {
        if (synced_[handles[i]] != end) {
            replayHandle(handles[i]);
        }
    }
    // Steady-state advance+query workloads never reload a design, so
    // this is their only chance to drop fully-consumed history.
    maybeCompactTimeline();
}

std::size_t
Device::timelineSegments() const
{
    return timeline_.closed().size() +
           (timeline_.openPending() ? 1 : 0);
}

RouteSpec
Device::allocateRoute(const std::string &name, double target_ps)
{
    if (target_ps <= 0.0) {
        util::fatal("Device::allocateRoute: non-positive target delay");
    }
    const auto count = static_cast<std::size_t>(
        std::max(1.0, std::round(target_ps / config_.routing_pitch_ps)));
    RouteSpec spec;
    spec.name = name;
    spec.target_ps = target_ps;
    spec.elements.reserve(count);
    const std::uint64_t per_tile = config_.nodes_per_tile;
    const std::uint64_t capacity = static_cast<std::uint64_t>(
                                       config_.tiles_x) *
                                   config_.tiles_y * per_tile;
    if (alloc_cursor_ + count > capacity) {
        util::fatal("Device::allocateRoute: fabric exhausted");
    }
    for (std::size_t i = 0; i < count; ++i) {
        const std::uint64_t linear = alloc_cursor_++;
        ResourceId id;
        id.type = ResourceType::RoutingNode;
        id.index = static_cast<std::uint16_t>(linear % per_tile);
        const std::uint64_t tile = linear / per_tile;
        id.tile_x = static_cast<std::uint16_t>(tile % config_.tiles_x);
        id.tile_y = static_cast<std::uint16_t>(tile / config_.tiles_x);
        spec.elements.push_back(id);
    }
    return spec;
}

RouteSpec
Device::allocateCarryChain(const std::string &name, std::size_t taps)
{
    if (taps == 0) {
        util::fatal("Device::allocateCarryChain: zero taps");
    }
    RouteSpec spec;
    spec.name = name;
    spec.target_ps = static_cast<double>(taps) * config_.carry_pitch_ps;
    spec.elements.reserve(taps);
    // Carry chains occupy a dedicated column address space; they are
    // "uniformly placed and routed in consecutive physical locations"
    // (paper §4).
    for (std::size_t i = 0; i < taps; ++i) {
        const std::uint64_t linear = carry_cursor_++;
        ResourceId id;
        id.type = ResourceType::CarryElement;
        id.index = static_cast<std::uint16_t>(linear & 0xffff);
        id.tile_x = static_cast<std::uint16_t>((linear >> 16) & 0xffff);
        id.tile_y = static_cast<std::uint16_t>((linear >> 32) & 0xffff);
        spec.elements.push_back(id);
    }
    return spec;
}

RouteSpec
Device::allocateLutPath(const std::string &name, std::size_t cells)
{
    if (cells == 0) {
        util::fatal("Device::allocateLutPath: zero cells");
    }
    RouteSpec spec;
    spec.name = name;
    spec.target_ps = static_cast<double>(cells) * config_.lut_pitch_ps;
    spec.elements.reserve(cells);
    for (std::size_t i = 0; i < cells; ++i) {
        const std::uint64_t linear = lut_cursor_++;
        ResourceId id;
        id.type = ResourceType::Lut;
        id.index = static_cast<std::uint16_t>(linear & 0xffff);
        id.tile_x = static_cast<std::uint16_t>((linear >> 16) & 0xffff);
        id.tile_y = static_cast<std::uint16_t>((linear >> 32) & 0xffff);
        spec.elements.push_back(id);
    }
    return spec;
}

std::vector<ResourceId>
Device::materializedIds() const
{
    return store_.sortedIds();
}

std::vector<ResourceId>
Device::imprintedIds() const
{
    // Materialised and journal-deferred keys are disjoint by the
    // journal invariant, so a concatenate-and-sort yields the eager
    // materialised set in its canonical (packed-key-sorted) order.
    std::vector<ResourceId> ids = store_.sortedIds();
    const std::vector<std::uint64_t> deferred = journal_.activeKeys();
    ids.reserve(ids.size() + deferred.size());
    for (const std::uint64_t key : deferred) {
        ids.push_back(ResourceId::fromKey(key));
    }
    std::sort(ids.begin(), ids.end(),
              [](const ResourceId &a, const ResourceId &b) {
                  return a.key() < b.key();
              });
    return ids;
}

Route
Device::bindRoute(const RouteSpec &spec)
{
    return Route(*this, spec);
}

void
Device::loadDesign(std::shared_ptr<const Design> design)
{
    if (!design) {
        util::fatal("Device::loadDesign: null design");
    }
    // Activity flips are segment boundaries: deferred idle spans must
    // precede them on the timeline.
    flushExternalTime();
    if (design_ == design && activity_design_ == design &&
        activity_revision_ == design->revision() &&
        covered_slab_ == store_.size() &&
        bram_applied_revision_ == design->bramRevision()) {
        // Re-loading the resident, unmutated design: nothing physical
        // changes — no reconfiguration happens, so BRAM contents
        // survive and neither the timeline nor the epoch moves.
        return;
    }
    // applyDesignActivity resolves (and thereby materialises) every
    // element the design configures, so aging accrues from the moment
    // the design starts running — a victim's routes must burn in even
    // if nothing ever reads their delay.
    design_ = std::move(design);
    applyDesignActivity();
    // A real (re)configuration zeroes BRAM and lands the new design's
    // init words. Gated on (name, bramRevision) rather than object
    // identity so that re-loading an equivalent design into a
    // *restored* device — the checkpoint-resume path, which must be
    // neutral for every persistent state — leaves mid-tenancy BRAM
    // contents exactly as serialized, the same way the activity apply
    // above is flip-free there. Independent of the activity apply:
    // no aging state, journal run, or Rng stream is shared between
    // the channels.
    if (design_->name() != bram_applied_design_ ||
        design_->bramRevision() != bram_applied_revision_) {
        applyBramConfiguration();
    }
    maybeCompactTimeline();
    ++state_epoch_;
}

void
Device::wipe()
{
    flushExternalTime();
    // Clears the configuration only. Aging — the pentimento — stays,
    // but the configured elements' activity flips to released: their
    // pending burn time is replayed first, then recovery begins.
    // Journal-deferred elements just get the released run recorded —
    // the wipe touches no element state at all for them.
    bool closed = false;
    const auto closeOnce = [&] {
        if (!closed) {
            timeline_.close();
            closed = true;
        }
    };
    if (configured_ != nullptr) {
        // Journal flips are recorded at the position the boundary
        // will have once the segment closes (single probe per key);
        // the close happens iff anything — journaled or live —
        // actually flips, as in the eager path.
        const std::uint32_t flip_pos =
            timeline_.position() +
            (timeline_.openPending() ? 1u : 0u);
        for (const ElementHandle h : configured_->handles) {
            if (live_[h] == kUnusedActivity) {
                continue;
            }
            closeOnce();
            replayHandle(h);
            live_[h] = kUnusedActivity;
        }
        // With the slab unchanged since the design was applied, the
        // cohort split is still exact: no deferred key can have
        // materialised, so the per-key store probe is skipped.
        const bool cohorts_exact = configured_->slab == store_.size();
        for (const std::uint64_t key : configured_->keys) {
            // A key deferred when the design was applied may have
            // materialised since (a Route/Tdc bound it mid-tenancy);
            // it then flips through its live activity like any other
            // element. (Anticipated-position journal records and
            // post-close replays may interleave freely: the recorded
            // position equals the post-close position either way.)
            const ElementHandle h = cohorts_exact
                                        ? kInvalidElement
                                        : store_.findExclusive(key);
            if (h != kInvalidElement) {
                if (live_[h] == kUnusedActivity) {
                    continue;
                }
                closeOnce();
                replayHandle(h);
                live_[h] = kUnusedActivity;
            } else if (journal_.recordIfChanged(key, kUnusedActivity,
                                                flip_pos)) {
                closeOnce();
            }
        }
    }
    configured_.reset();
    design_.reset();
    activity_design_.reset();
    activity_revision_ = 0;
    // BRAM contents survive the wipe — that is this channel's
    // vulnerability — but the applied-configuration tracking clears:
    // any bitstream loaded after a wipe, even the same one, is a real
    // reconfiguration and must zero the blocks.
    bram_applied_design_.clear();
    bram_applied_revision_ = 0;
    covered_slab_ = store_.size();
    maybeCompactTimeline();
    ++state_epoch_;
}

std::shared_ptr<const Device::ResolvedDesign>
Device::resolveResidentDesign(std::uint32_t flip_pos,
                              std::size_t *journal_flips,
                              bool *records_applied)
{
    // Resolution splits the configured keys into cohorts: elements
    // already in the slab resolve to handles, the rest stay packed
    // keys for the journal. Under eager_materialisation every key is
    // bound here instead (the pre-journal behaviour), so the deferred
    // cohort is empty and nothing downstream ever journals.
    *records_applied = false;
    for (const auto &entry : resolved_designs_) {
        if (entry == nullptr || entry->design != design_ ||
            entry->slab != store_.size() ||
            entry->keyset_revision != design_->keysetRevision()) {
            continue;
        }
        if (entry->revision != design_->revision()) {
            // Values rotated in place (mitigation flips, churn
            // midflips): the key set — and with it the map's
            // iteration order and the cohort split — is unchanged,
            // so one in-order walk refreshes both activity vectors
            // (and journals the deferred flips) with no hashing into
            // the map and no allocation.
            std::size_t hi = 0;
            std::size_t ki = 0;
            std::size_t i = 0;
            for (const auto &[key, activity] :
                 design_->activityMap()) {
                (void)key;
                if (entry->deferred_order[i++]) {
                    entry->key_activities[ki] = activity;
                    if (journal_.recordIfChanged(entry->keys[ki],
                                                 activity,
                                                 flip_pos)) {
                        ++*journal_flips;
                    }
                    ++ki;
                } else {
                    entry->activities[hi++] = activity;
                }
            }
            entry->revision = design_->revision();
            *records_applied = true;
        }
        return entry;
    }
    // Recycle the eviction victim when nothing else aliases it
    // (tenancy churn evicts one entry per load; reusing it keeps the
    // five cohort vectors' capacity and spares the allocator).
    std::shared_ptr<ResolvedDesign> entry =
        std::move(resolved_designs_[resolved_lru_]);
    if (entry != nullptr && entry.use_count() == 1) {
        entry->design.reset();
        entry->handles.clear();
        entry->activities.clear();
        entry->keys.clear();
        entry->key_activities.clear();
        entry->deferred_order.clear();
    } else {
        entry = std::make_shared<ResolvedDesign>();
    }
    entry->design = design_;
    entry->revision = design_->revision();
    entry->keyset_revision = design_->keysetRevision();
    const auto &map = design_->activityMap();
    entry->handles.reserve(map.size());
    entry->activities.reserve(map.size());
    entry->deferred_order.reserve(map.size());
    for (const auto &[key, activity] : map) {
        if (config_.eager_materialisation) {
            entry->activities.push_back(activity);
            entry->handles.push_back(
                bindElement(ResourceId::fromKey(key)));
            entry->deferred_order.push_back(false);
            continue;
        }
        const ElementHandle h = store_.findExclusive(key);
        if (h != kInvalidElement) {
            entry->activities.push_back(activity);
            entry->handles.push_back(h);
            entry->deferred_order.push_back(false);
        } else {
            entry->key_activities.push_back(activity);
            entry->keys.push_back(key);
            entry->deferred_order.push_back(true);
        }
    }
    if (!entry->keys.empty()) {
        // One up-front growth instead of doubling mid-walk, sized by
        // the deferred keys only: materialised keys never reach the
        // journal, and reserving for them too rehashed a large table
        // whenever an observed board loaded a mostly-materialised
        // design (the attacker's measure and park designs).
        journal_.reserve(entry->keys.size());
        for (std::size_t i = 0; i < entry->keys.size(); ++i) {
            if (journal_.recordIfChanged(entry->keys[i],
                                         entry->key_activities[i],
                                         flip_pos)) {
                ++*journal_flips;
            }
        }
    }
    // Slab size after resolving: a hit means nothing materialised
    // since, so the cohort split is still accurate.
    entry->slab = store_.size();
    resolved_designs_[resolved_lru_] = entry;
    resolved_lru_ ^= 1;
    *records_applied = true;
    return entry;
}

void
Device::applyDesignActivity()
{
    // Deferred-cohort flips are journaled in a single probe per key
    // at the position the boundary WILL have once the segment closes
    // (so: computed before anything closes); the close itself happens
    // iff anything flipped — the identical condition and boundary the
    // eager path produces, which is what keeps the compensated
    // duration sums (and so every aged delay) bit-exact.
    const std::uint32_t flip_pos =
        timeline_.position() + (timeline_.openPending() ? 1u : 0u);
    std::size_t journal_flips = 0;
    bool records_applied = false;
    const std::shared_ptr<const ResolvedDesign> resolved =
        resolveResidentDesign(flip_pos, &journal_flips,
                              &records_applied);
    // Collect the materialised flips so an unchanged (or merely
    // revision-bumped) design never splits a timeline segment. The
    // mark scratch implements "still configured by the new design"
    // without a hash lookup per outgoing handle.
    flip_scratch_.clear();
    ++mark_stamp_;
    mark_scratch_.resize(store_.size(), 0);
    for (const ElementHandle h : resolved->handles) {
        mark_scratch_[h] = mark_stamp_;
    }
    if (configured_ != nullptr) {
        const auto &incoming = design_->activityMap();
        for (const ElementHandle h : configured_->handles) {
            if (mark_scratch_[h] == mark_stamp_ ||
                live_[h] == kUnusedActivity) {
                continue;
            }
            flip_scratch_.emplace_back(h, kUnusedActivity);
        }
        // Slab unchanged since apply => the outgoing cohort split is
        // still exact and the per-key store probe can be skipped.
        const bool cohorts_exact = configured_->slab == store_.size();
        for (const std::uint64_t key : configured_->keys) {
            // Deferred when applied, but possibly materialised since
            // (a mid-tenancy bind consumed its journal runs).
            const ElementHandle h = cohorts_exact
                                        ? kInvalidElement
                                        : store_.findExclusive(key);
            if (h != kInvalidElement) {
                if (mark_scratch_[h] == mark_stamp_ ||
                    live_[h] == kUnusedActivity) {
                    continue;
                }
                flip_scratch_.emplace_back(h, kUnusedActivity);
            } else if (incoming.find(key) == incoming.end() &&
                       journal_.recordIfChanged(key, kUnusedActivity,
                                                flip_pos)) {
                // Not configured by the new design: released. (Keys
                // the new design keeps are handled below, so their
                // single journal probe sees the new activity.)
                ++journal_flips;
            }
        }
    }
    for (std::size_t i = 0; i < resolved->handles.size(); ++i) {
        const ElementHandle h = resolved->handles[i];
        if (!(live_[h] == resolved->activities[i])) {
            flip_scratch_.emplace_back(h, resolved->activities[i]);
        }
    }
    if (!records_applied) {
        // Pure cache hit (the attack-phase measure/park alternation):
        // the resolution pass didn't run, so journal the deferred
        // cohort's flips here.
        for (std::size_t i = 0; i < resolved->keys.size(); ++i) {
            if (journal_.recordIfChanged(resolved->keys[i],
                                         resolved->key_activities[i],
                                         flip_pos)) {
                ++journal_flips;
            }
        }
    }
    if (!flip_scratch_.empty() || journal_flips != 0) {
        timeline_.close();
        for (const auto &[h, activity] : flip_scratch_) {
            replayHandle(h);
            live_[h] = activity;
        }
    }
    configured_ = resolved;
    activity_design_ = design_;
    activity_revision_ = design_->revision();
    covered_slab_ = store_.size();
}

void
Device::syncActivityWithDesign()
{
    if (design_ == nullptr) {
        return; // wipe already released every configured element
    }
    if (activity_design_ == design_ &&
        activity_revision_ == design_->revision() &&
        covered_slab_ == store_.size()) {
        return;
    }
    applyDesignActivity();
}

void
Device::maybeCompactTimeline()
{
    if (timeline_.closed().size() < compact_watermark_) {
        return;
    }
    // Prefix trim: drop every segment the *least*-synced element has
    // already consumed, so one long-stale element (a past tenancy's
    // routes nobody measures again) only pins its own unreplayed
    // suffix, not the whole history. Journal-deferred elements pin
    // from their first recorded run — their replay is still owed the
    // history.
    std::uint32_t min_pos =
        journal_.minActivePosition(timeline_.position());
    for (const std::uint32_t pos : synced_) {
        min_pos = std::min(min_pos, pos);
        if (min_pos == 0) {
            break;
        }
    }
    if (min_pos > 0) {
        timeline_.dropConsumed(min_pos);
        for (std::uint32_t &pos : synced_) {
            pos -= min_pos;
        }
        journal_.rebase(min_pos);
    }
    // Back off geometrically when little was reclaimable so a pinned
    // element does not turn every sync into an O(elements) scan.
    compact_watermark_ = std::max<std::size_t>(
        kCompactThreshold, 2 * timeline_.closed().size());
}

void
Device::sweepElements(std::size_t count,
                      const std::function<void(std::size_t)> &body)
{
    // Element updates are RNG-free and element-local, so the fan-out
    // is bit-identical to the serial loop for any worker count. No
    // design may be loaded concurrently (experiment phases alternate
    // serially), so the slab is stable for the duration.
    util::parallelFor(count, body, pool_);
}

void
Device::recordSpan(double dt_h, double die_temp_k, bool credit_elapsed)
{
    // In-place design mutations since the last call flip their
    // elements' activity *before* the new span accrues.
    syncActivityWithDesign();
    if (store_.size() != 0 || journal_.activeKeyCount() != 0) {
        timeline_.append(dt_h, ctx_cache_.get(config_.bti, die_temp_k));
        // Long-idle boards (cloud ambient drift opens ~one segment
        // per hour) trim their fully-consumed prefix here; the
        // watermark keeps this O(1) between amortised scans.
        maybeCompactTimeline();
    }
    // (A fabric with no materialised elements AND no journaled keys
    // records nothing: elements materialised later are pristine and
    // released, so the skipped spans are no-ops. Journaled keys are
    // NOT pristine — their deferred replay needs these segments — so
    // the guard matches the eager path, where they would be in the
    // slab already.)
    if (credit_elapsed) {
        elapsed_h_.add(dt_h);
    }
    ++state_epoch_;
}

void
Device::advance(double dt_h, phys::ThermalEnvironment &thermal)
{
    if (!(dt_h >= 0.0)) {
        util::fatal("Device::advance: negative time step");
    }
    flushExternalTime();
    const double power = design_ ? design_->powerW() : 0.0;
    recordSpan(dt_h, thermal.step(power, dt_h), true);
}

void
Device::advanceAt(double dt_h, double die_temp_k)
{
    if (!(dt_h >= 0.0)) {
        util::fatal("Device::advanceAt: negative time step");
    }
    if (!(die_temp_k > 0.0) || !std::isfinite(die_temp_k)) {
        util::fatal("Device::advanceAt: bad die temperature");
    }
    // Deferred idle spans must precede this span on the timeline
    // (no-op re-entrancy: the flush resets its backlog before
    // walking, and its own spans arrive via ingestSegment).
    flushExternalTime();
    recordSpan(dt_h, die_temp_k, true);
}

void
Device::creditIdleHours(double dt_h)
{
    if (!(dt_h >= 0.0)) {
        util::fatal("Device::creditIdleHours: negative time step");
    }
    elapsed_h_.add(dt_h);
    ++state_epoch_;
}

void
Device::ingestSegment(double dt_h, double die_temp_k)
{
    if (!(dt_h >= 0.0)) {
        util::fatal("Device::ingestSegment: negative time step");
    }
    if (!(die_temp_k > 0.0) || !std::isfinite(die_temp_k)) {
        util::fatal("Device::ingestSegment: bad die temperature");
    }
    recordSpan(dt_h, die_temp_k, false);
}

void
Device::applyServiceWear(double hours, double duty_one)
{
    if (hours < 0.0) {
        util::fatal("Device::applyServiceWear: negative hours");
    }
    if (hours == 0.0) {
        return;
    }
    flushExternalTime();
    // Whole-fabric sweep: the deferred population must exist (and
    // have replayed its journal) before the wear lands, exactly as
    // the eager slab would.
    materializeJournal();
    timeline_.close();
    const phys::AgingStepContext &ctx =
        ctx_cache_.get(config_.bti, config_.bti.reference_temp_k);
    const std::size_t count = store_.size();
    sweepElements(count, [&](std::size_t i) {
        const auto h = static_cast<ElementHandle>(i);
        replayHandle(h);
        store_.sweepAt(h).aging().holdToggling(config_.bti, ctx,
                                               duty_one, hours);
    });
    maybeCompactTimeline();
    ++state_epoch_;
}

namespace {

/** Config fingerprint after the family string: seed, service age, the
 *  three geometry u32s, the eager flag, two retention knobs. */
constexpr std::size_t kFingerprintBytes = 8 + 8 + 3 * 4 + 1 + 2 * 8;
/** Elapsed-hours sum pair, epoch, three cursors, compaction watermark,
 *  design-loaded flag. */
constexpr std::size_t kClockBytes = 2 * 8 + 5 * 8 + 1;
/** Closed timeline segment: duration, stress and recovery accel. */
constexpr std::size_t kSegmentBytes = 3 * 8;
/** Open segment: valid flag, context pair, raw hour sum pair. */
constexpr std::size_t kOpenSegmentBytes = 1 + 4 * 8;
/** Element: key, two base delays, scale, NMOS and PMOS stress/recovery
 *  hours, live activity kind and duty, synced position. */
constexpr std::size_t kElementBytes = 8 + 7 * 8 + 1 + 8 + 4;
/** BRAM block: key, state, content, written-at, off-power and
 *  retention-limit hours. */
constexpr std::size_t kBramBlockBytes = 8 + 1 + 8 + 3 * 8;

} // namespace

void
Device::saveState(util::SnapshotWriter &writer) const
{
    // Config fingerprint: restore requires a device rebuilt from the
    // same silicon identity — variation is a pure function of
    // (seed, id), so a seed skew would graft one board's aging onto
    // another board's delays and quietly invalidate every number.
    writer.str(config_.family);
    util::SnapshotSpan head = writer.span(kFingerprintBytes + kClockBytes);
    head.u64(config_.seed);
    head.f64(config_.service_age_h);
    head.u32(config_.tiles_x);
    head.u32(config_.tiles_y);
    head.u32(config_.nodes_per_tile);
    head.u8(config_.eager_materialisation ? 1 : 0);
    // Retention identity: the per-block limits are pure draws from
    // (seed, median, sigma), so a knob skew would graft one board's
    // decay behaviour onto another's contents.
    head.f64(config_.bram_retention_median_h);
    head.f64(config_.bram_retention_sigma);

    head.f64(elapsed_h_.rawSum());
    head.f64(elapsed_h_.rawCompensation());
    head.u64(state_epoch_);
    head.u64(alloc_cursor_);
    head.u64(carry_cursor_);
    head.u64(lut_cursor_);
    head.u64(compact_watermark_);
    head.u8(design_ != nullptr ? 1 : 0);

    // Timeline, including the still-open segment's raw accumulator —
    // closing it here would move a flip boundary the live run has not
    // produced yet.
    const auto &closed = timeline_.closed();
    util::SnapshotSpan timeline = writer.span(
        8 + closed.size() * kSegmentBytes + kOpenSegmentBytes);
    timeline.u64(closed.size());
    for (const AgingSegment &seg : closed) {
        timeline.f64(seg.duration_h);
        timeline.f64(seg.ctx.stress_accel);
        timeline.f64(seg.ctx.recovery_accel);
    }
    timeline.u8(timeline_.openValid() ? 1 : 0);
    timeline.f64(timeline_.openContext().stress_accel);
    timeline.f64(timeline_.openContext().recovery_accel);
    timeline.f64(timeline_.openHours().rawSum());
    timeline.f64(timeline_.openHours().rawCompensation());

    // Elements in handle (slab) order, so the handle-indexed live_/
    // synced_ arrays and every restored handle stay aligned.
    const std::size_t count = store_.size();
    util::SnapshotSpan elements = writer.span(8 + count * kElementBytes);
    elements.u64(count);
    for (std::size_t i = 0; i < count; ++i) {
        const auto h = static_cast<ElementHandle>(i);
        const RoutingElement &elem = store_.sweepAt(h);
        elements.u64(elem.id().key());
        elements.f64(elem.basePs(phys::Transition::Rising));
        elements.f64(elem.basePs(phys::Transition::Falling));
        elements.f64(elem.aging().scale());
        const phys::BtiState &nmos =
            elem.aging().state(phys::TransistorType::Nmos);
        const phys::BtiState &pmos =
            elem.aging().state(phys::TransistorType::Pmos);
        elements.f64(nmos.stressHours());
        elements.f64(nmos.recoveryHours());
        elements.f64(pmos.stressHours());
        elements.f64(pmos.recoveryHours());
        elements.u8(static_cast<std::uint8_t>(live_[i].kind));
        elements.f64(live_[i].duty_one);
        elements.u32(synced_[i]);
    }

    journal_.saveState(writer);

    // BRAM content slab, in handle order like the element slab. Raw
    // state: a Written block with pending off-power hours serializes
    // unresolved — resolution happens at readback on whichever side
    // of the checkpoint the readback lands, with identical results
    // (the retention limit travels with the block). The applied-
    // configuration tracking travels too, so the resume re-load of
    // the resident design recognises itself and stays BRAM-neutral.
    writer.str(bram_applied_design_);
    const std::size_t bram_count = bram_.size();
    util::SnapshotSpan bram =
        writer.span(8 + 8 + bram_count * kBramBlockBytes);
    bram.u64(bram_applied_revision_);
    bram.u64(bram_count);
    for (std::size_t i = 0; i < bram_count; ++i) {
        const BramBlock &block =
            bram_.sweepAt(static_cast<ElementHandle>(i));
        bram.u64(block.id_.key());
        bram.u8(static_cast<std::uint8_t>(block.state));
        bram.u64(block.content);
        bram.f64(block.written_at_h);
        bram.f64(block.off_power_h);
        bram.f64(block.retention_limit_h);
    }
}

util::Expected<void>
Device::restoreState(util::SnapshotReader &reader, bool *had_design)
{
    if (store_.size() != 0 || timeline_.position() != 0 ||
        timeline_.openValid() || journal_.activeKeyCount() != 0 ||
        bram_.size() != 0 || design_ != nullptr ||
        elapsed_h_.value() != 0.0) {
        return util::unexpected(
            "Device::restoreState: target device is not pristine");
    }

    const std::string family = reader.str();
    const std::uint64_t seed = reader.u64();
    const double service_age_h = reader.f64();
    const std::uint32_t tiles_x = reader.u32();
    const std::uint32_t tiles_y = reader.u32();
    const std::uint32_t nodes_per_tile = reader.u32();
    const bool eager = reader.u8() != 0;
    const double retention_median = reader.f64();
    const double retention_sigma = reader.f64();
    if (!reader.ok()) {
        return reader.status();
    }
    if (family != config_.family || seed != config_.seed ||
        service_age_h != config_.service_age_h ||
        tiles_x != config_.tiles_x || tiles_y != config_.tiles_y ||
        nodes_per_tile != config_.nodes_per_tile ||
        eager != config_.eager_materialisation ||
        retention_median != config_.bram_retention_median_h ||
        retention_sigma != config_.bram_retention_sigma) {
        reader.fail("snapshot: device config fingerprint mismatch "
                    "(checkpoint was taken on a different board)");
        return reader.status();
    }

    const double elapsed_sum = reader.f64();
    const double elapsed_comp = reader.f64();
    const std::uint64_t state_epoch = reader.u64();
    const std::uint64_t alloc_cursor = reader.u64();
    const std::uint64_t carry_cursor = reader.u64();
    const std::uint64_t lut_cursor = reader.u64();
    const std::uint64_t compact_watermark = reader.u64();
    const bool design_was_loaded = reader.u8() != 0;

    const std::uint64_t closed_count = reader.u64();
    if (reader.ok() && closed_count > reader.remaining() / kSegmentBytes) {
        reader.fail("snapshot: timeline segment count overruns its chunk");
    }
    if (!reader.ok()) {
        return reader.status();
    }
    std::vector<AgingSegment> closed;
    closed.reserve(closed_count);
    for (std::uint64_t i = 0; i < closed_count && reader.ok(); ++i) {
        AgingSegment seg;
        seg.duration_h = reader.f64();
        seg.ctx.stress_accel = reader.f64();
        seg.ctx.recovery_accel = reader.f64();
        if (reader.ok() &&
            (!std::isfinite(seg.duration_h) || seg.duration_h <= 0.0 ||
             !std::isfinite(seg.ctx.stress_accel) ||
             !std::isfinite(seg.ctx.recovery_accel))) {
            reader.fail("snapshot: timeline segment is not physical");
        }
        closed.push_back(seg);
    }
    const bool open_valid = reader.u8() != 0;
    phys::AgingStepContext open_ctx;
    open_ctx.stress_accel = reader.f64();
    open_ctx.recovery_accel = reader.f64();
    const double open_sum = reader.f64();
    const double open_comp = reader.f64();

    const std::uint64_t element_count = reader.u64();
    if (reader.ok() && element_count > reader.remaining() / kElementBytes) {
        reader.fail("snapshot: element count overruns its chunk");
    }
    if (!reader.ok()) {
        return reader.status();
    }
    live_.reserve(element_count);
    synced_.reserve(element_count);
    for (std::uint64_t i = 0; i < element_count; ++i) {
        const std::uint64_t key = reader.u64();
        const double base_rise = reader.f64();
        const double base_fall = reader.f64();
        const double scale = reader.f64();
        const double nmos_stress = reader.f64();
        const double nmos_recovery = reader.f64();
        const double pmos_stress = reader.f64();
        const double pmos_recovery = reader.f64();
        const std::uint8_t live_kind = reader.u8();
        const double live_duty = reader.f64();
        const std::uint32_t synced = reader.u32();
        if (!reader.ok()) {
            return reader.status();
        }
        // RoutingElement's constructor fatals on nonsense inputs, and
        // a corrupt file must never reach a fatal — screen first.
        if (!(base_rise > 0.0) || !std::isfinite(base_rise) ||
            !(base_fall > 0.0) || !std::isfinite(base_fall) ||
            !std::isfinite(scale) || !(nmos_stress >= 0.0) ||
            !(nmos_recovery >= 0.0) || !(pmos_stress >= 0.0) ||
            !(pmos_recovery >= 0.0) || !std::isfinite(nmos_stress) ||
            !std::isfinite(nmos_recovery) ||
            !std::isfinite(pmos_stress) ||
            !std::isfinite(pmos_recovery)) {
            reader.fail("snapshot: element physical state is not sane");
            return reader.status();
        }
        if (live_kind > static_cast<std::uint8_t>(Activity::Toggle) ||
            synced > closed_count) {
            reader.fail("snapshot: element activity bookkeeping is "
                        "out of range");
            return reader.status();
        }
        // Append in saved handle order: unit variation + the saved
        // composite scale reproduces the element exactly (the ctor
        // multiplies base delays by variation, which is already baked
        // into the saved bases).
        const ResourceId id = ResourceId::fromKey(key);
        const ElementHandle h = store_.ensure(id, [&](ResourceId rid) {
            return RoutingElement(rid, base_rise, base_fall,
                                  phys::ElementVariation{}, scale);
        });
        if (h != static_cast<ElementHandle>(i)) {
            reader.fail("snapshot: duplicate element key breaks "
                        "handle order");
            return reader.status();
        }
        phys::ElementAging &aging = store_.sweepAt(h).aging();
        aging.state(phys::TransistorType::Nmos)
            .restoreHours(nmos_stress, nmos_recovery);
        aging.state(phys::TransistorType::Pmos)
            .restoreHours(pmos_stress, pmos_recovery);
        live_.push_back(ElementActivity{
            static_cast<Activity>(live_kind), live_duty});
        synced_.push_back(synced);
    }

    if (!journal_.restoreState(reader)) {
        return reader.status();
    }
    // The journal invariant — a key is active there XOR materialised —
    // is what keeps bindElement's consume() sound; enforce it rather
    // than trusting two independently-deserialized containers.
    for (const std::uint64_t key : journal_.activeKeys()) {
        if (store_.findExclusive(key) != kInvalidElement) {
            reader.fail("snapshot: key both journaled and materialised");
            return reader.status();
        }
    }

    std::string bram_applied_design = reader.str();
    const std::uint64_t bram_applied_revision = reader.u64();
    const std::uint64_t bram_count = reader.u64();
    if (!reader.ok()) {
        return reader.status();
    }
    for (std::uint64_t i = 0; i < bram_count; ++i) {
        const std::uint64_t key = reader.u64();
        const std::uint8_t state = reader.u8();
        const std::uint64_t content = reader.u64();
        const double written_at = reader.f64();
        const double off_power = reader.f64();
        const double retention = reader.f64();
        if (!reader.ok()) {
            return reader.status();
        }
        if (state > static_cast<std::uint8_t>(BramState::Zeroed) ||
            !std::isfinite(written_at) || !(off_power >= 0.0) ||
            !std::isfinite(off_power) || !(retention >= 0.0) ||
            !std::isfinite(retention)) {
            reader.fail("snapshot: BRAM block state is not sane");
            return reader.status();
        }
        BramBlock block;
        block.id_ = ResourceId::fromKey(key);
        block.state = static_cast<BramState>(state);
        block.content = content;
        block.written_at_h = written_at;
        block.off_power_h = off_power;
        block.retention_limit_h = retention;
        const ElementHandle h = bram_.ensure(
            block.id_, [&](ResourceId) { return block; });
        if (h != static_cast<ElementHandle>(i)) {
            reader.fail("snapshot: duplicate BRAM key breaks handle "
                        "order");
            return reader.status();
        }
    }

    timeline_.restoreState(std::move(closed), open_ctx, open_sum,
                           open_comp, open_valid);
    bram_applied_design_ = std::move(bram_applied_design);
    bram_applied_revision_ = bram_applied_revision;
    elapsed_h_.restoreParts(elapsed_sum, elapsed_comp);
    state_epoch_ = state_epoch;
    alloc_cursor_ = alloc_cursor;
    carry_cursor_ = carry_cursor;
    lut_cursor_ = lut_cursor;
    compact_watermark_ =
        std::max<std::size_t>(kCompactThreshold, compact_watermark);
    covered_slab_ = store_.size();
    if (had_design != nullptr) {
        *had_design = design_was_loaded;
    }
    return reader.status();
}

} // namespace pentimento::fabric
