/**
 * @file
 * Dense slab storage for the device's persistent aging state.
 *
 * The store owns every materialised RoutingElement in a chunked slab:
 * elements are assigned *dense handles* (slab indices) in
 * materialisation order and are never erased or relocated, so both
 * handles and element addresses stay valid for the lifetime of the
 * store. Consumers resolve a ResourceId to a handle (or pointer)
 * exactly once — at bind time — and every subsequent hot-path access
 * is a flat array read with no hashing and no lock.
 *
 * The slab + key-index machinery itself is the generic
 * ElementSlab<T> (fabric/element_slab.hpp); AgingStore layers the
 * epoch-keyed ΔVth memo on top, grown in lockstep with the element
 * chunks via the slab's chunk-grow hook so a RoutingElement stays one
 * cache line and the memo stays a flat side array.
 *
 * Thread-safety: ensure()/find()/size()/sortedIds() may be called
 * concurrently (a shared_mutex guards the key index and slab growth).
 * sweepAt() is the unlocked dense accessor for exclusive phases
 * (aging sweeps): callers must guarantee no concurrent
 * materialisation, which the experiment loop does by construction —
 * condition and measurement phases alternate serially.
 */

#ifndef PENTIMENTO_FABRIC_AGING_STORE_HPP
#define PENTIMENTO_FABRIC_AGING_STORE_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "fabric/element_slab.hpp"
#include "fabric/resource.hpp"
#include "fabric/routing_element.hpp"

namespace pentimento::fabric {

/** Epoch value meaning "this ΔVth entry has never been filled". The
 *  device's state epoch counts up from zero, so ~0 is unreachable. */
inline constexpr std::uint64_t kDvthNeverCached = ~0ULL;

/**
 * Epoch-keyed ΔVth memo for one element.
 *
 * deltaVth is a pure function of the element's aging state — it never
 * depends on temperature or polarity — so it is constant between
 * state-epoch bumps. Caching both transistors' shifts per element
 * collapses the pow() call of BtiState::deltaVthStressed to once
 * per (element, epoch) instead of once per arrival recompute: a TDC
 * probing 10 temperatures at one device state pays the power law once.
 */
struct DvthCacheEntry
{
    /** State epoch the shifts were computed at. */
    std::uint64_t epoch = kDvthNeverCached;
    /** NMOS threshold shift (limits falling transitions), volts. */
    double nmos_v = 0.0;
    /** PMOS threshold shift (limits rising transitions), volts. */
    double pmos_v = 0.0;
};

/**
 * Chunked slab of RoutingElements plus a ResourceId-key index and a
 * ΔVth memo side array.
 */
class AgingStore
{
  public:
    AgingStore();
    ~AgingStore() = default;

    AgingStore(const AgingStore &) = delete;
    AgingStore &operator=(const AgingStore &) = delete;

    /** Number of materialised elements. Lock-free (see
     *  ElementSlab::size()). Called once per recorded aging span. */
    std::size_t
    size() const
    {
        return slab_.size();
    }

    /**
     * Handle for id, materialising via `make` when absent. `make` runs
     * outside the exclusive section (variation sampling is the
     * expensive part); when two threads race, one construction wins
     * and the other is discarded.
     */
    ElementHandle
    ensure(ResourceId id,
           const std::function<RoutingElement(ResourceId)> &make)
    {
        return slab_.ensure(id, make);
    }

    /** Handle for a packed key, or kInvalidElement. */
    ElementHandle
    find(std::uint64_t key) const
    {
        return slab_.find(key);
    }

    /**
     * find() without the shared lock, for exclusive phases (design
     * load/wipe resolution — the tenancy-turnover hot path, which
     * probes once per configured key). Same contract as sweepAt():
     * the caller must guarantee no concurrent ensure().
     */
    ElementHandle
    findExclusive(std::uint64_t key) const
    {
        return slab_.findExclusive(key);
    }

    /** Element behind a handle (shared-locked bounds check). */
    RoutingElement &
    at(ElementHandle h)
    {
        return slab_.at(h);
    }
    const RoutingElement &
    at(ElementHandle h) const
    {
        return slab_.at(h);
    }

    /**
     * Unlocked dense access for exclusive-phase sweeps. The handle
     * must be < size(); no concurrent ensure() may run.
     */
    RoutingElement &
    sweepAt(ElementHandle h)
    {
        return slab_.sweepAt(h);
    }
    const RoutingElement &
    sweepAt(ElementHandle h) const
    {
        return slab_.sweepAt(h);
    }

    /**
     * ΔVth cache entry of an element, unlocked like sweepAt(). The
     * handle must be < size(). Concurrency contract: entries may be
     * read/written during measurement fan-out, but (a) the state
     * epoch is constant throughout any measurement phase (reads never
     * bump it), and (b) concurrent lanes own disjoint element sets
     * (each sensor walks its own route + chain), so no two lanes
     * touch one entry — the same ownership discipline as a Tdc's
     * arrival caches.
     */
    DvthCacheEntry &
    dvthSlot(ElementHandle h)
    {
        return dvth_chunks_[h >> ElementSlab<RoutingElement>::kChunkShift]
            ->entries[h & ElementSlab<RoutingElement>::kChunkMask];
    }

    /**
     * Ids of every materialised element, sorted by packed key so the
     * listing is deterministic regardless of materialisation order.
     */
    std::vector<ResourceId>
    sortedIds() const
    {
        return slab_.sortedIds();
    }

  private:
    /** ΔVth memo chunk mirroring one element chunk, kept out of the
     *  element slab so a RoutingElement stays one cache line. */
    struct DvthChunk
    {
        DvthCacheEntry
            entries[ElementSlab<RoutingElement>::kChunkSize];
    };

    ElementSlab<RoutingElement> slab_;
    /** Grown in lockstep with the slab's chunks via the grow hook
     *  (installed in the constructor, invoked under the slab's unique
     *  lock). */
    std::vector<std::unique_ptr<DvthChunk>> dvth_chunks_;
};

} // namespace pentimento::fabric

#endif // PENTIMENTO_FABRIC_AGING_STORE_HPP
