/**
 * @file
 * Per-design activity journal: deferred element materialisation.
 *
 * Eagerly materialising every element a tenant design configures —
 * variation sampling plus a slab insert per element, then a timeline
 * replay per activity flip — is the dominant cost of tenancy turnover
 * in fleet-scale campaigns, even though most configured elements are
 * never measured. The journal removes the AgingStore from the
 * load/wipe path entirely: a design load or wipe appends one
 * (timeline-position, activity) *run* per key whose activity actually
 * flips, in O(1) per key, and the element is materialised only at
 * first observation (a Route/Tdc bind, an element() read, a
 * service-wear sweep). Materialisation replays the recorded runs
 * against the device's AgingTimeline with the same per-segment /
 * pre-reduced arithmetic an eagerly materialised element would have
 * used at each flip, so aged delays are bit-identical — laziness is
 * unobservable except through materializedCount()-class diagnostics.
 *
 * Layout: a flat open-addressing key table (the AgingStore index
 * idiom — keys are never erased, linear probing, no tombstones). The
 * first two runs — the whole configure/release lifecycle of a
 * typical unmeasured tenancy — live INLINE in the slot, so the
 * record path costs one probe and one cache line with no per-key
 * heap allocation at all; third and later runs (mitigation flip
 * churn) spill into a linked arena. Consuming a key at
 * materialisation marks the slot spent; spilled runs become garbage
 * bounded by the number of flips ever recorded.
 *
 * Thread-safety: none. All writers (design load/wipe, element
 * materialisation) run in exclusive phases by the Device's existing
 * contract; the concurrent measurement fan-out only syncs handles
 * whose journal entries were consumed at bind time.
 */

#ifndef PENTIMENTO_FABRIC_ACTIVITY_JOURNAL_HPP
#define PENTIMENTO_FABRIC_ACTIVITY_JOURNAL_HPP

#include <cstdint>
#include <type_traits>
#include <vector>

#include "fabric/routing_element.hpp"

namespace pentimento::util {
class SnapshotWriter;
class SnapshotReader;
} // namespace pentimento::util

namespace pentimento::fabric {

/** One constant-activity run of a journaled (deferred) element. */
struct JournalRun
{
    /** Closed-segment timeline position the run starts at. */
    std::uint32_t from = 0;
    /** Activity in effect from `from` until the next run (or now). */
    ElementActivity activity;
};

/**
 * Keyed flip log for elements that are configured but not yet
 * materialised.
 */
class ActivityJournal
{
  public:
    /**
     * Journaled activity currently in effect for a key. Unused for
     * keys never journaled or already consumed (consumed keys are
     * materialised — the Device consults its live-activity arrays for
     * those, never the journal).
     */
    ElementActivity current(std::uint64_t key) const;

    /**
     * Append a run iff it is a flip: `key` behaves as `activity` from
     * timeline position `pos` on. Returns false (and records nothing)
     * when `activity` already equals the key's current journaled
     * activity — including the released/never-journaled case — so the
     * caller can mirror the eager path's flip detection with a single
     * probe per key. `pos` is the position the flip boundary WILL
     * have once the caller closes the open segment (callers
     * anticipate it as position() + openPending(), then close iff any
     * flip was recorded — exactly the eager close condition).
     * Recording against a consumed (materialised) key is a caller
     * bug and fatals: its activity lives in the device's live arrays.
     *
     * Header-inline: one call per configured key per design load and
     * wipe IS the tenancy-turnover hot path, and the two-inline-run
     * slot keeps the common case to a single cache line.
     */
    bool
    recordIfChanged(std::uint64_t key, ElementActivity activity,
                    std::uint32_t pos)
    {
        // Keep the load factor under 1/2 so probe runs stay short
        // (grown up front: this is the record path's single probe).
        if (2 * (used_ + 1) > slots_.size()) {
            grow();
        }
        Slot &slot = slots_[probe(key)];
        if (slot.count == 0) {
            if (activity == ElementActivity{}) {
                // Releasing a never-journaled key: no flip.
                return false;
            }
            slot.key = key;
            slot.runs[0] = pack(pos, activity);
            slot.count = 1;
            ++used_;
            ++active_;
            if (cached_min_ != kNpos && pos < cached_min_) {
                cached_min_ = pos;
            }
            return true;
        }
        if (slot.count <= 2) {
            if (sameActivity(slot.runs[slot.count - 1], activity)) {
                return false;
            }
            if (slot.count < 2) {
                slot.runs[1] = pack(pos, activity);
                slot.count = 2;
                return true;
            }
        }
        return recordOverflow(slot, activity, pos);
    }

    /**
     * Pre-size the table for `expected_keys` journaled keys (e.g. the
     * deferred-element count of an incoming design), so a design
     * load grows the table at most once instead of doubling through
     * it mid-loop.
     */
    void reserve(std::size_t expected_keys);

    /**
     * Move a key's runs out, oldest first, and mark the key consumed
     * (it is being materialised). Returns an empty vector for keys
     * never journaled.
     */
    std::vector<JournalRun> consume(std::uint64_t key);

    /** Number of keys journaled and not yet consumed. */
    std::size_t activeKeyCount() const { return active_; }

    /** Probe-table slots allocated (the table's memory footprint). */
    std::size_t tableSlots() const { return slots_.size(); }

    /** Keys journaled and not yet consumed, in table order. */
    std::vector<std::uint64_t> activeKeys() const;

    /**
     * Smallest timeline position any active key still needs for its
     * replay (the compaction pin). Returns `fallback` when no key is
     * active. O(1) while no key has been consumed since the last
     * query (the memoised min only falls or rebases); recomputed
     * lazily otherwise.
     */
    std::uint32_t minActivePosition(std::uint32_t fallback) const;

    /**
     * Shift every active run's position down by `delta` after the
     * timeline dropped `delta` consumed segments.
     */
    void rebase(std::uint32_t delta);

    /**
     * Serialize the journal into the writer's current chunk as an
     * exact structural clone: table geometry, occupied slots at their
     * probe positions (spent markers included — recording against a
     * consumed key must still be detected after a restore), the spill
     * arena with its chain links, and the memoised compaction pin.
     */
    void saveState(util::SnapshotWriter &writer) const;

    /**
     * Restore into a fresh journal from the reader's current chunk.
     * Structural corruption (out-of-range slot indices, broken chain
     * links, impossible counts) poisons the reader; returns ok().
     */
    bool restoreState(util::SnapshotReader &reader);

  private:
    static constexpr std::uint32_t kNpos =
        static_cast<std::uint32_t>(-1);
    /** Slot::count value marking a consumed (materialised) key. */
    static constexpr std::uint32_t kSpent =
        static_cast<std::uint32_t>(-2);

    /**
     * Trivially-copyable JournalRun so the Slot stays a POD: a
     * freshly grown table must be zero-fillable (memset), not
     * constructor-initialised — at fleet scale the rehash's
     * value-initialisation otherwise dominates the whole record path.
     * kind == 0 is Activity::Unused, so zero-filled slots read as
     * empty/benign.
     */
    struct RawRun
    {
        std::uint32_t from;
        Activity kind;
        double duty_one;
    };

    static RawRun
    pack(std::uint32_t from, const ElementActivity &activity)
    {
        return RawRun{from, activity.kind, activity.duty_one};
    }

    static JournalRun
    unpack(const RawRun &raw)
    {
        return JournalRun{raw.from,
                          ElementActivity{raw.kind, raw.duty_one}};
    }

    static bool
    sameActivity(const RawRun &raw, const ElementActivity &activity)
    {
        return raw.kind == activity.kind &&
               raw.duty_one == activity.duty_one;
    }

    /**
     * Key-table slot, trivial and probe-ordered: the probe loop reads
     * only the leading key/count fields; the run payload sits behind
     * them. The first two runs are inline — a tenancy that configures
     * and releases a key never touches the arena — and runs three and
     * up chain through arena nodes at `head`/`tail` (meaningful only
     * when count > 2; zero elsewhere). count == 0 marks an empty
     * slot, count == kSpent a consumed key.
     */
    struct Slot
    {
        std::uint64_t key;
        std::uint32_t count;
        std::uint32_t head;
        std::uint32_t tail;
        RawRun runs[2];
    };
    static_assert(std::is_trivially_copyable_v<Slot>);

    /** Arena node: an overflow run plus its chain link. */
    struct Node
    {
        RawRun run;
        std::uint32_t next;
    };

    static std::uint64_t
    hashKey(std::uint64_t key)
    {
        // splitmix64 finaliser, as in the AgingStore index.
        key = (key ^ (key >> 30)) * 0xbf58476d1ce4e5b9ULL;
        key = (key ^ (key >> 27)) * 0x94d049bb133111ebULL;
        return key ^ (key >> 31);
    }

    /** Probe for key; returns slot index or the empty slot to fill. */
    std::size_t
    probe(std::uint64_t key) const
    {
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = hashKey(key) & mask;
        while (slots_[i].count != 0 && slots_[i].key != key) {
            i = (i + 1) & mask;
        }
        return i;
    }

    /** Double (or bootstrap) the probe table. */
    void grow();

    /** Grow until `total` keys fit under the 1/2 load factor. */
    void growFor(std::size_t total);

    /** Cold path of recordIfChanged: spent-key fatal and third-and-up
     *  runs (arena spill). */
    bool recordOverflow(Slot &slot, const ElementActivity &activity,
                        std::uint32_t pos);

    /** The key's most recent run (count != 0 and not spent). */
    const RawRun &lastRun(const Slot &slot) const;

    std::vector<Slot> slots_;
    std::vector<Node> arena_;
    std::size_t used_ = 0;
    std::size_t active_ = 0;
    /** Memoised minActivePosition: first-run positions only fall
     *  (rebase) or extend (new keys), so the min is maintained O(1)
     *  until a consume() may raise it — then it recomputes lazily.
     *  kNpos = unknown (recompute on next query). */
    mutable std::uint32_t cached_min_ = kNpos;
};

} // namespace pentimento::fabric

#endif // PENTIMENTO_FABRIC_ACTIVITY_JOURNAL_HPP
