/**
 * @file
 * Generic chunked-slab element storage with a packed-key index.
 *
 * Elements get *dense handles* (slab indices) in materialisation
 * order and are never erased or relocated, so both handles and
 * element addresses stay valid for the slab's lifetime. Consumers
 * resolve a ResourceId to a handle exactly once, at bind time; every
 * later hot-path access is a flat array read with no hashing and no
 * lock. The Device keeps one slab of RoutingElements (interconnect
 * aging, with its handle-indexed side arrays beside it) and one of
 * BramBlocks (content remanence).
 *
 * Requirements on T: movable, and exposing `ResourceId id() const`
 * (sortedIds() uses it to produce the canonical packed-key listing).
 *
 * Thread-safety: ensure()/find()/size()/sortedIds() may be called
 * concurrently (a shared_mutex guards the key index and slab growth).
 * sweepAt()/findExclusive() are the unlocked accessors for exclusive
 * phases: callers must guarantee no concurrent ensure(), which the
 * experiment loop does by construction — condition and measurement
 * phases alternate serially.
 */

#ifndef PENTIMENTO_FABRIC_ELEMENT_SLAB_HPP
#define PENTIMENTO_FABRIC_ELEMENT_SLAB_HPP

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "fabric/resource.hpp"
#include "util/logging.hpp"

namespace pentimento::fabric {

/** Dense index of a materialised element inside a slab. */
using ElementHandle = std::uint32_t;

/** Sentinel for "not materialised". */
inline constexpr ElementHandle kInvalidElement =
    static_cast<ElementHandle>(-1);

/**
 * Chunked slab of T plus a ResourceId-key index.
 */
template <typename T>
class ElementSlab
{
  public:
    ElementSlab() = default;

    ~ElementSlab()
    {
        const std::uint32_t count =
            count_.load(std::memory_order_relaxed);
        for (std::uint32_t h = 0; h < count; ++h) {
            slot(h)->~T();
        }
    }

    ElementSlab(const ElementSlab &) = delete;
    ElementSlab &operator=(const ElementSlab &) = delete;

    /** Number of materialised elements. Lock-free: the count only
     *  grows, and it is published (release) after the element is
     *  constructed, so a reader that observes handle h < size() can
     *  always dereference it. */
    std::size_t
    size() const
    {
        return count_.load(std::memory_order_acquire);
    }

    /**
     * Handle for id, materialising via `make` when absent. `make` runs
     * outside the exclusive section (variation sampling is the
     * expensive part); when two threads race, one construction wins
     * and the other is discarded.
     */
    ElementHandle
    ensure(ResourceId id, const std::function<T(ResourceId)> &make)
    {
        const std::uint64_t key = id.key();
        {
            std::shared_lock<std::shared_mutex> lock(mutex_);
            const ElementHandle h = lookup(key);
            if (h != kInvalidElement) {
                return h;
            }
        }
        T fresh = make(id);
        std::unique_lock<std::shared_mutex> lock(mutex_);
        const ElementHandle existing = lookup(key);
        if (existing != kInvalidElement) {
            return existing; // another thread won the race
        }
        const std::uint32_t count =
            count_.load(std::memory_order_relaxed);
        if (count == kInvalidElement) {
            util::fatal("ElementSlab: element capacity exhausted");
        }
        if ((count >> kChunkShift) == chunks_.size()) {
            chunks_.push_back(std::make_unique<Chunk>());
        }
        const ElementHandle h = count;
        new (slot(h)) T(std::move(fresh));
        // Publish only after the element is constructed (see size()).
        count_.store(count + 1, std::memory_order_release);
        indexInsert(key, h);
        return h;
    }

    /** Handle for a packed key, or kInvalidElement. */
    ElementHandle
    find(std::uint64_t key) const
    {
        std::shared_lock<std::shared_mutex> lock(mutex_);
        return lookup(key);
    }

    /**
     * find() without the shared lock, for exclusive phases (design
     * load/wipe resolution — the tenancy-turnover hot path). Same
     * contract as sweepAt(): no concurrent ensure() may run.
     */
    ElementHandle
    findExclusive(std::uint64_t key) const
    {
        return lookup(key);
    }

    /** Element behind a handle (shared-locked bounds check). */
    T &
    at(ElementHandle h)
    {
        std::shared_lock<std::shared_mutex> lock(mutex_);
        if (h >= size()) {
            util::fatal("ElementSlab::at: handle out of range");
        }
        return *slot(h);
    }
    const T &
    at(ElementHandle h) const
    {
        std::shared_lock<std::shared_mutex> lock(mutex_);
        if (h >= size()) {
            util::fatal("ElementSlab::at: handle out of range");
        }
        return *slot(h);
    }

    /**
     * Unlocked dense access for exclusive-phase sweeps. The handle
     * must be < size(); no concurrent ensure() may run.
     */
    T &sweepAt(ElementHandle h) { return *slot(h); }
    const T &sweepAt(ElementHandle h) const { return *slot(h); }

    /**
     * Ids of every materialised element, sorted by packed key so the
     * listing is deterministic regardless of materialisation order.
     */
    std::vector<ResourceId>
    sortedIds() const
    {
        std::shared_lock<std::shared_mutex> lock(mutex_);
        const std::uint32_t count =
            count_.load(std::memory_order_relaxed);
        std::vector<std::uint64_t> keys;
        keys.reserve(count);
        for (std::uint32_t h = 0; h < count; ++h) {
            keys.push_back(slot(h)->id().key());
        }
        std::sort(keys.begin(), keys.end());
        std::vector<ResourceId> ids;
        ids.reserve(keys.size());
        for (const std::uint64_t key : keys) {
            ids.push_back(ResourceId::fromKey(key));
        }
        return ids;
    }

  private:
    /** Elements per chunk; power of two so slot() is shift + mask. */
    static constexpr std::uint32_t kChunkShift = 10;
    static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
    static constexpr std::uint32_t kChunkMask = kChunkSize - 1;

    struct Chunk
    {
        alignas(T) std::byte raw[sizeof(T) * kChunkSize];
    };

    T *
    slot(ElementHandle h)
    {
        return reinterpret_cast<T *>(chunks_[h >> kChunkShift]->raw) +
               (h & kChunkMask);
    }
    const T *
    slot(ElementHandle h) const
    {
        return reinterpret_cast<const T *>(
                   chunks_[h >> kChunkShift]->raw) +
               (h & kChunkMask);
    }

    /**
     * Open-addressing key index: a power-of-two probe table of
     * (key, handle) with handle == kInvalidElement marking empty
     * slots. Keys are never erased, so linear probing needs no
     * tombstones; the flat layout keeps the bind/materialise paths —
     * a hash probe per configured element per design load — off the
     * node-allocating std::unordered_map.
     */
    struct IndexSlot
    {
        std::uint64_t key = 0;
        ElementHandle handle = kInvalidElement;
    };

    static std::uint64_t
    hashKey(std::uint64_t key)
    {
        // splitmix64 finaliser: full-avalanche mix of the packed id.
        key = (key ^ (key >> 30)) * 0xbf58476d1ce4e5b9ULL;
        key = (key ^ (key >> 27)) * 0x94d049bb133111ebULL;
        return key ^ (key >> 31);
    }

    /** Probe for key (caller holds a lock). */
    ElementHandle
    lookup(std::uint64_t key) const
    {
        if (index_.empty()) {
            return kInvalidElement;
        }
        const std::size_t mask = index_.size() - 1;
        std::size_t i = hashKey(key) & mask;
        while (true) {
            const IndexSlot &s = index_[i];
            if (s.handle == kInvalidElement) {
                return kInvalidElement;
            }
            if (s.key == key) {
                return s.handle;
            }
            i = (i + 1) & mask;
        }
    }

    /** Insert key -> h, growing as needed (caller holds the unique
     *  lock). */
    void
    indexInsert(std::uint64_t key, ElementHandle h)
    {
        // Keep the load factor under 1/2 so probe runs stay short. The
        // arithmetic must run at std::size_t width: at uint32 width the
        // doubling overflows once index_used_ crosses 2^31, the grow
        // check goes false forever, and the table silently overfills
        // until lookup()'s probe loop can no longer terminate.
        if (2 * (static_cast<std::size_t>(index_used_) + 1) >
            index_.size()) {
            const std::size_t grown =
                index_.empty() ? 1024 : index_.size() * 2;
            std::vector<IndexSlot> rehashed(grown);
            const std::size_t mask = grown - 1;
            for (const IndexSlot &s : index_) {
                if (s.handle == kInvalidElement) {
                    continue;
                }
                std::size_t i = hashKey(s.key) & mask;
                while (rehashed[i].handle != kInvalidElement) {
                    i = (i + 1) & mask;
                }
                rehashed[i] = s;
            }
            index_ = std::move(rehashed);
        }
        const std::size_t mask = index_.size() - 1;
        std::size_t i = hashKey(key) & mask;
        while (index_[i].handle != kInvalidElement) {
            i = (i + 1) & mask;
        }
        index_[i] = IndexSlot{key, h};
        ++index_used_;
    }

    std::vector<std::unique_ptr<Chunk>> chunks_;
    std::atomic<std::uint32_t> count_ = 0;
    std::vector<IndexSlot> index_;
    std::uint32_t index_used_ = 0;
    mutable std::shared_mutex mutex_;
};

} // namespace pentimento::fabric

#endif // PENTIMENTO_FABRIC_ELEMENT_SLAB_HPP
