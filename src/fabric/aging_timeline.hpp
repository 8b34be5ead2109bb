/**
 * @file
 * The device's segment timeline: deferred aging time.
 *
 * Instead of eagerly sweeping every materialised element once per
 * simulated hour, a Device records *segments* — (duration, Arrhenius
 * acceleration pair) — and each element replays the segments it has
 * not yet consumed only when something actually observes or changes
 * it. This is mathematically exact because BtiState accumulates
 * *effective hours* additively, and it is numerically exact for any
 * step partition because consecutive advance() calls at the same
 * acceleration extend one open segment's duration (compensated
 * summation) and the duration-times-acceleration multiply happens
 * once, at replay: 200 hourly steps and one 200-hour jump both hand
 * an element the identical `duration * accel` effective time.
 *
 * Timeline positions are indices into the closed-segment list. The
 * open segment is closed (made replayable) by the first observation —
 * an element sync, an activity flip, a service-wear sweep — after
 * which new time opens a fresh segment. Elements that materialise
 * mid-timeline may safely start at position 0: a pristine element
 * replays pre-birth segments as released-recovery, which is a no-op.
 */

#ifndef PENTIMENTO_FABRIC_AGING_TIMELINE_HPP
#define PENTIMENTO_FABRIC_AGING_TIMELINE_HPP

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "phys/bti.hpp"
#include "util/compensated.hpp"

namespace pentimento::fabric {

/** One closed, replayable span of constant-acceleration time. */
struct AgingSegment
{
    /** Wall-clock duration, hours (compensated sum of the steps). */
    double duration_h = 0.0;
    /** Arrhenius stress/recovery factors in effect over the span. */
    phys::AgingStepContext ctx;
};

/**
 * Pre-reduced effective hours of a run of closed segments.
 *
 * BtiState accrues *effective hours* additively, and between two
 * activity flips an element's activity is constant, so a run of n
 * segments collapses into one pair of totals: Σ duration·stress_accel
 * and Σ duration·recovery_accel. Applying the totals once replaces n
 * per-segment updates — this is what makes replaying months of
 * varying-ambient cloud segments O(1) per element. The totals are a
 * pure function of the segment contents (plain left-to-right sums),
 * so they are partition-invariant exactly like the segments
 * themselves; relative to one-update-per-segment replay they
 * re-associate the floating-point sums, which long-run callers accept
 * (short runs replay per segment so bit-exact goldens are untouched).
 */
struct RunTotals
{
    double stress_eff_h = 0.0;
    double recovery_eff_h = 0.0;
};

/**
 * Closed segments plus one open (still-extending) segment.
 */
class AgingTimeline
{
  public:
    /**
     * Record dt hours at the given kinetics. Extends the open segment
     * when the acceleration pair is unchanged, otherwise closes it
     * and opens a new one. O(1).
     */
    void
    append(double dt_h, const phys::AgingStepContext &ctx)
    {
        if (!open_valid_ || !(open_ctx_ == ctx)) {
            close();
            open_ctx_ = ctx;
            open_valid_ = true;
        }
        open_h_.add(dt_h);
    }

    /**
     * Close the open segment so its time becomes replayable. Called
     * by the first observation after time passed; a zero-duration
     * open segment is dropped.
     */
    void
    close()
    {
        if (!open_valid_) {
            return;
        }
        const double d = open_h_.value();
        if (d > 0.0) {
            closed_.push_back(AgingSegment{d, open_ctx_});
        }
        open_h_.reset();
        open_valid_ = false;
    }

    /** True when un-closed time is pending. */
    bool
    openPending() const
    {
        return open_valid_ && open_h_.value() > 0.0;
    }

    /** Number of closed segments (== the "current" position). */
    std::uint32_t
    position() const
    {
        return static_cast<std::uint32_t>(closed_.size());
    }

    /** Closed segments, oldest first. */
    const std::vector<AgingSegment> &closed() const { return closed_; }

    /**
     * Drop the oldest `count` closed segments (every consumer has
     * replayed them); callers rebase their positions by `count`.
     */
    void
    dropConsumed(std::uint32_t count)
    {
        closed_.erase(closed_.begin(),
                      closed_.begin() + static_cast<std::ptrdiff_t>(
                                            count));
        ++revision_;
    }

    /**
     * Effective-hour totals of closed segments [from, to).
     *
     * O(run length) on the first request for a range, O(1) for every
     * element that shares it afterwards — flips and measurement syncs
     * replay whole route/design cohorts whose elements share their
     * last-sync position, so the memo turns an
     * O(elements × segments) flush into O(elements + segments).
     * Journal replay materialises elements in key order, which
     * interleaves many tenancies' ranges, so the memo is a
     * direct-mapped table of kMemoSlots ranges rather than one. Every
     * entry is the same left-to-right sum a miss computes (never a
     * prefix-sum difference, which rounds differently), so a hit is
     * bit-identical to a miss. Thread-safe: concurrent replays
     * (parallel service-wear sweeps) hit the memo under its mutex.
     */
    RunTotals
    runTotals(std::uint32_t from, std::uint32_t to) const
    {
        const std::lock_guard<std::mutex> lock(memo_mutex_);
        if (!memo_) {
            memo_ = std::make_unique<MemoSlot[]>(kMemoSlots);
        }
        MemoSlot &slot = memo_[memoIndex(from, to)];
        if (slot.revision == revision_ && slot.from == from &&
            slot.to == to) {
            return slot.totals;
        }
        RunTotals totals;
        for (std::uint32_t k = from; k < to; ++k) {
            const AgingSegment &seg = closed_[k];
            totals.stress_eff_h +=
                seg.duration_h * seg.ctx.stress_accel;
            totals.recovery_eff_h +=
                seg.duration_h * seg.ctx.recovery_accel;
        }
        slot = MemoSlot{from, to, revision_, totals};
        return totals;
    }

    /**
     * Persistence accessors: the open segment's raw accumulator parts
     * must round-trip (its compensation term feeds future append()s),
     * and open_valid_ must survive even at zero duration — a valid
     * zero-duration open segment pins the *context*, which decides
     * whether the next append() extends or closes.
     */
    bool openValid() const { return open_valid_; }
    const phys::AgingStepContext &openContext() const { return open_ctx_; }
    const util::CompensatedSum &openHours() const { return open_h_; }

    /**
     * Replace the timeline's contents. Indices now name different
     * segments, so the revision moves on and every memo entry misses.
     */
    void
    restoreState(std::vector<AgingSegment> closed,
                 const phys::AgingStepContext &open_ctx, double open_sum,
                 double open_comp, bool open_valid)
    {
        closed_ = std::move(closed);
        open_ctx_ = open_ctx;
        open_h_.restoreParts(open_sum, open_comp);
        open_valid_ = open_valid;
        ++revision_;
    }

  private:
    /**
     * One memoized range. A zeroed slot is a valid entry: the empty
     * range [0, 0) sums to zero at every revision.
     */
    struct MemoSlot
    {
        std::uint32_t from = 0;
        std::uint32_t to = 0;
        std::uint64_t revision = 0;
        RunTotals totals;
    };

    /** Direct-mapped memo size; 8 KiB per timeline once used. */
    static constexpr unsigned kMemoBits = 8;
    static constexpr std::size_t kMemoSlots = std::size_t{1} << kMemoBits;

    static std::size_t
    memoIndex(std::uint32_t from, std::uint32_t to)
    {
        // Multiplicative hash of the pair; the top bits pick a slot.
        const std::uint32_t h = from * 0x9E3779B1u ^ to * 0x85EBCA77u;
        return h >> (32 - kMemoBits);
    }

    std::vector<AgingSegment> closed_;
    phys::AgingStepContext open_ctx_;
    util::CompensatedSum open_h_;
    bool open_valid_ = false;
    /** Bumped whenever closed-segment indices shift or are replaced. */
    std::uint64_t revision_ = 0;
    /** runTotals memo, allocated on first use (guarded by memo_mutex_). */
    mutable std::mutex memo_mutex_;
    mutable std::unique_ptr<MemoSlot[]> memo_;
};

} // namespace pentimento::fabric

#endif // PENTIMENTO_FABRIC_AGING_TIMELINE_HPP
