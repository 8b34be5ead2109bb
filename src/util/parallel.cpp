#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

namespace pentimento::util {

ThreadPool::ThreadPool(std::size_t workers)
{
    threads_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i) {
        threads_.emplace_back([this] { workerLoop(); });
    }
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread &thread : threads_) {
        thread.join();
    }
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock,
                       [this] { return stopping_ || !queue_.empty(); });
            // Queued helpers still run after stopping_ is set; they
            // return at once when their loop has already drained.
            if (queue_.empty()) {
                return;
            }
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
    }
}

namespace {

/** Shared state of one parallelFor invocation. */
struct LoopState
{
    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t chunk = 1;
    std::size_t chunk_count = 0;
    const std::function<void(std::size_t)> *body = nullptr;
    std::atomic<std::size_t> next{0};
    std::mutex mutex;
    std::condition_variable finished;
    std::size_t done = 0;
    std::exception_ptr error;

    /** Claim and run chunks until the iteration space is exhausted. */
    void
    drain()
    {
        for (;;) {
            const std::size_t c =
                next.fetch_add(1, std::memory_order_relaxed);
            if (c >= chunk_count) {
                return;
            }
            const std::size_t lo = begin + c * chunk;
            const std::size_t hi = std::min(end, lo + chunk);
            std::exception_ptr thrown;
            try {
                for (std::size_t i = lo; i < hi; ++i) {
                    (*body)(i);
                }
            } catch (...) {
                thrown = std::current_exception();
            }
            std::lock_guard<std::mutex> lock(mutex);
            if (thrown && !error) {
                error = thrown;
            }
            if (++done == chunk_count) {
                finished.notify_all();
            }
        }
    }
};

} // namespace

void
ThreadPool::parallelFor(std::size_t begin, std::size_t end,
                        const std::function<void(std::size_t)> &body)
{
    if (begin >= end) {
        return;
    }
    const std::size_t n = end - begin;
    if (workerCount() == 0 || n == 1) {
        for (std::size_t i = begin; i < end; ++i) {
            body(i);
        }
        return;
    }

    // About 4 chunks per lane, so lanes that finish early pick up the
    // slack of heterogeneous iteration costs without per-index
    // overhead.
    auto state = std::make_shared<LoopState>();
    state->begin = begin;
    state->end = end;
    state->body = &body;
    state->chunk = std::max<std::size_t>(1, n / (concurrency() * 4));
    state->chunk_count = (n + state->chunk - 1) / state->chunk;

    // A helper may be dequeued after this call returns; it then finds
    // no chunk left and only drops its reference to the state.
    const std::size_t helpers =
        std::min(workerCount(), state->chunk_count - 1);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (std::size_t w = 0; w < helpers; ++w) {
            queue_.emplace_back([state] { state->drain(); });
        }
    }
    for (std::size_t w = 0; w < helpers; ++w) {
        wake_.notify_one();
    }
    // The caller is a full participant: with zero idle workers the
    // loop still completes (and nested parallelFor can't deadlock).
    state->drain();

    std::unique_lock<std::mutex> lock(state->mutex);
    state->finished.wait(
        lock, [&] { return state->done == state->chunk_count; });
    if (state->error) {
        std::rethrow_exception(state->error);
    }
}

std::vector<Rng>
splitStreams(Rng &parent, std::size_t n, std::uint64_t tag)
{
    std::vector<Rng> streams;
    streams.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        streams.push_back(parent.split(tag ^ (0x9e3779b97f4a7c15ULL *
                                              (i + 1))));
    }
    return streams;
}

std::vector<Rng>
splitStreams(Rng &parent, std::size_t n, std::string_view tag)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : tag) {
        h = (h ^ static_cast<std::uint8_t>(c)) * 0x100000001b3ULL;
    }
    return splitStreams(parent, n, h);
}

} // namespace pentimento::util
