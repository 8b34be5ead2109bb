/**
 * @file
 * Single-queue thread pool and deterministic parallel primitives.
 *
 * Route-scale campaigns (ablation grids, measurement sweeps over
 * thousands of routes, route-group fan-out) are embarrassingly
 * parallel, but the simulator's contract is bit-for-bit
 * reproducibility from a single seed. The primitives here keep that
 * contract:
 *
 *  - every parallel unit draws from an Rng stream pre-split *serially*
 *    from the parent seed (Rng::split), so the draw sequence seen by
 *    unit i never depends on scheduling;
 *  - results land in index-order slots, so output ordering never
 *    depends on completion order;
 *  - therefore the same seed produces identical output for 1 worker,
 *    N workers, or the serial fallback.
 *
 * The pool is one mutex-guarded queue of loop helpers. A parallelFor
 * splits its range into chunks claimed from one atomic counter, so
 * the caller and every helper balance the load between them. The
 * caller takes part in the work, so nested parallel sections and
 * zero-worker pools degrade to serial execution instead of
 * deadlocking. Everywhere a pool is optional, a null pool means
 * "run serially, in index order".
 */

#ifndef PENTIMENTO_UTIL_PARALLEL_HPP
#define PENTIMENTO_UTIL_PARALLEL_HPP

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace pentimento::util {

/**
 * Fixed-size thread pool with one shared queue.
 *
 * `workers` is the number of *extra* threads; parallelFor callers
 * execute work too, so a pool with W workers runs loops at W+1-way
 * parallelism. A pool with zero workers is valid and runs everything
 * inline in the caller — the degenerate case every determinism test
 * compares against. Any number of threads may call parallelFor on one
 * pool at once.
 */
class ThreadPool
{
  public:
    explicit ThreadPool(std::size_t workers);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of pool-owned threads (not counting callers). */
    std::size_t workerCount() const { return threads_.size(); }

    /** Total lanes a parallelFor fans out to (workers + caller). */
    std::size_t concurrency() const { return threads_.size() + 1; }

    /**
     * Run body(i) for every i in [begin, end), blocking until all
     * iterations finish. The caller participates. Iterations are
     * claimed in contiguous chunks; any exception is captured and the
     * first one rethrown in the caller after the loop drains (the
     * remaining chunks still run, keeping the pool reusable).
     */
    void parallelFor(std::size_t begin, std::size_t end,
                     const std::function<void(std::size_t)> &body);

    /**
     * parallelFor for a callable that is not already a std::function:
     * the serial path (no workers, or a single iteration) calls the
     * body directly — fully inlinable, no type-erasure dispatch per
     * iteration — and only the pooled fan-out pays the erasure. Same
     * iteration order and semantics as the erased overload.
     */
    template <typename Body,
              typename = std::enable_if_t<!std::is_same_v<
                  std::decay_t<Body>, std::function<void(std::size_t)>>>>
    void
    parallelFor(std::size_t begin, std::size_t end, Body &&body)
    {
        if (begin >= end) {
            return;
        }
        if (workerCount() == 0 || end - begin == 1) {
            for (std::size_t i = begin; i < end; ++i) {
                body(i);
            }
            return;
        }
        const std::function<void(std::size_t)> erased(
            std::forward<Body>(body));
        parallelFor(begin, end, erased);
    }

  private:
    void workerLoop();

    std::mutex mutex_;
    std::condition_variable wake_;
    std::deque<std::function<void()>> queue_; // guarded by mutex_
    bool stopping_ = false;                   // guarded by mutex_
    std::vector<std::thread> threads_;
};

/**
 * Run body(i) for i in [0, n): on `pool` when one is given, otherwise
 * serially in index order on the calling thread. Either way the
 * determinism contract described in the file header holds.
 */
template <typename Body>
void
parallelFor(std::size_t n, Body &&body, ThreadPool *pool = nullptr)
{
    if (pool == nullptr) {
        for (std::size_t i = 0; i < n; ++i) {
            body(i);
        }
        return;
    }
    pool->parallelFor(0, n, std::forward<Body>(body));
}

/**
 * Map i in [0, n) to results[i] = fn(i), on `pool` or serially when
 * it is null. Output order is index order regardless of scheduling.
 */
template <typename T, typename Fn>
std::vector<T>
parallelMap(std::size_t n, Fn &&fn, ThreadPool *pool = nullptr)
{
    std::vector<T> results(n);
    parallelFor(
        n, [&](std::size_t i) { results[i] = fn(i); }, pool);
    return results;
}

/**
 * Serially derive n independent child streams from a parent Rng.
 *
 * Splitting happens on the calling thread *before* any fan-out, so
 * stream i's state is a pure function of (parent state, tag, i) and
 * never of thread count or scheduling. The parent advances by exactly
 * n draws regardless of how the children are later consumed.
 */
std::vector<Rng> splitStreams(Rng &parent, std::size_t n,
                              std::uint64_t tag = 0);

/** Tagged variant so distinct consumers can't collide. */
std::vector<Rng> splitStreams(Rng &parent, std::size_t n,
                              std::string_view tag);

} // namespace pentimento::util

#endif // PENTIMENTO_UTIL_PARALLEL_HPP
