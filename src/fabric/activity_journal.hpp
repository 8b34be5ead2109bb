/**
 * @file
 * Per-design activity journal: deferred element materialisation.
 *
 * Materialising every element a tenant design configures at load —
 * variation sampling plus a slab insert per element, then a timeline
 * replay per activity flip — is the dominant cost of tenancy turnover
 * in fleet-scale campaigns, even though most configured elements are
 * never measured. The journal takes the element slab off the
 * load/wipe path entirely: a design load or wipe appends one
 * (timeline-position, activity) *run* per key whose activity actually
 * flips, in O(1) per key, and the element is materialised only at
 * first observation (a Route/Tdc bind, an element() read, a
 * service-wear sweep). Materialisation replays the recorded runs
 * against the device's AgingTimeline with the same per-segment /
 * pre-reduced arithmetic an element materialised at load would have
 * used at each flip, so the time of first observation never changes
 * an aged delay — laziness is unobservable except through
 * materializedCount()-class diagnostics (journal_test and
 * property_test's JournalInterleaving pin this bitwise).
 *
 * Layout: a flat open-addressing key table (the ElementSlab index
 * idiom — keys are never erased, linear probing, no tombstones) of
 * 16-byte {key, history id} slots. A history is a node in one
 * interned pool per journal: (from, activity, parent) plus the run
 * count and first position derived from the parent. Nodes are
 * deduplicated on (parent, from, activity), so every key that flipped
 * at the same positions to the same activities — a tenancy's whole
 * configured cohort — shares one chain, and the record path costs one
 * probe plus one intern lookup with no per-key heap allocation.
 * Consuming a key at materialisation marks the slot spent; nodes no
 * live key reaches stay in the pool, bounded by the distinct
 * histories ever recorded.
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
     * caller can mirror a materialised element's flip detection with
     * a single probe per key. `pos` is the position the flip boundary
     * WILL have once the caller closes the open segment (callers
     * anticipate it as position() + openPending(), then close iff any
     * flip was recorded — exactly a materialised flip's close
     * condition).
     * Recording against a consumed (materialised) key is a caller
     * bug and fatals: its activity lives in the device's live arrays.
     *
     * Header-inline: one call per configured key per design load and
     * wipe IS the tenancy-turnover hot path. An empty slot's history
     * is the pool root, whose activity is the released one, so the
     * never-journaled case needs no branch of its own.
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
        if (slot.history == kSpent) {
            recordSpent();
        }
        if (nodes_[slot.history].activity == activity) {
            return false;
        }
        if (slot.history == kRoot) {
            slot.key = key;
            ++used_;
            ++active_;
            if (cached_min_ != kNpos && pos < cached_min_) {
                cached_min_ = pos;
            }
        }
        slot.history = intern(slot.history, pos, activity);
        return true;
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
     * timeline dropped `delta` consumed segments. Walks the history
     * pool, not the key table.
     */
    void rebase(std::uint32_t delta);

    /**
     * Serialize the journal into the writer's current chunk: table
     * geometry, the history pool (every parent id below its node's
     * own), then the occupied slots in index order as (varint index
     * gap, key, varint history id, 0 meaning spent). Spent markers
     * are kept: recording against a consumed key must still be
     * detected after a restore.
     */
    void saveState(util::SnapshotWriter &writer) const;

    /**
     * Restore into a fresh journal from the reader's current chunk,
     * rebuilding the derived run counts, first positions and intern
     * index. Structural corruption (counts the chunk cannot hold,
     * parent links that do not point backwards, out-of-range or
     * duplicated slots) poisons the reader; returns ok().
     */
    bool restoreState(util::SnapshotReader &reader);

  private:
    static constexpr std::uint32_t kNpos =
        static_cast<std::uint32_t>(-1);
    /** Pool id of the empty history: a zero-filled slot is empty. */
    static constexpr std::uint32_t kRoot = 0;
    /** Slot::history value marking a consumed (materialised) key. */
    static constexpr std::uint32_t kSpent = kNpos;

    /**
     * Key-table slot, trivial so a freshly grown table is zero-filled
     * (memset), not constructor-initialised — at fleet scale the
     * rehash's value-initialisation otherwise dominates the record
     * path. history == kRoot marks an empty slot, kSpent a consumed
     * key.
     */
    struct Slot
    {
        std::uint64_t key;
        std::uint32_t history;
    };
    static_assert(std::is_trivially_copyable_v<Slot> &&
                  sizeof(Slot) == 16);

    /** History node: the run (from, activity) appended to `parent`. */
    struct Node
    {
        ElementActivity activity;
        std::uint32_t from = 0;
        std::uint32_t parent = kRoot;
        /** Runs on the chain ending here (the root has none). */
        std::uint32_t count = 0;
        /** Position of the chain's first run (the compaction pin). */
        std::uint32_t first = 0;
    };

    static std::uint64_t
    hashKey(std::uint64_t key)
    {
        // splitmix64 finaliser, as in the ElementSlab index.
        key = (key ^ (key >> 30)) * 0xbf58476d1ce4e5b9ULL;
        key = (key ^ (key >> 27)) * 0x94d049bb133111ebULL;
        return key ^ (key >> 31);
    }

    /** Intern-index hash of a history node's identity. */
    static std::uint64_t nodeHash(std::uint32_t parent, std::uint32_t from,
                                  const ElementActivity &activity);

    /** Probe for key; returns slot index or the empty slot to fill. */
    std::size_t
    probe(std::uint64_t key) const
    {
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = hashKey(key) & mask;
        while (slots_[i].history != kRoot && slots_[i].key != key) {
            i = (i + 1) & mask;
        }
        return i;
    }

    /** Double (or bootstrap) the probe table. */
    void grow();

    /** Grow until `total` keys fit under the 1/2 load factor. */
    void growFor(std::size_t total);

    /** Fatal: a flip recorded against a consumed key. */
    [[noreturn]] static void recordSpent();

    /** Pool id of the history `parent` + run (from, activity),
     *  appending the node on first use. */
    std::uint32_t intern(std::uint32_t parent, std::uint32_t from,
                         const ElementActivity &activity);

    /** Rebuild the intern index over the pool at `size` entries. */
    void reindex(std::size_t size);

    std::vector<Slot> slots_;
    /** History pool; nodes_[kRoot] is the empty, released history. */
    std::vector<Node> nodes_ = std::vector<Node>(1);
    /** Open-addressing intern index of pool ids (kRoot = empty). */
    std::vector<std::uint32_t> index_;
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
