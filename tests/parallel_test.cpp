/**
 * @file
 * Thread-pool correctness, exception propagation, RNG stream
 * stability, and end-to-end determinism of the parallel experiment
 * engine (same seed => identical output for 1 vs. N workers).
 */

#include <atomic>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "util/parallel.hpp"

namespace pentimento {
namespace {

TEST(ThreadPool, RunsEveryIterationExactlyOnce)
{
    util::ThreadPool pool(3);
    constexpr std::size_t kN = 10000;
    std::vector<std::atomic<int>> hits(kN);
    pool.parallelFor(0, kN,
                     [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kN; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
}

TEST(ThreadPool, ZeroWorkerPoolRunsInline)
{
    util::ThreadPool pool(0);
    EXPECT_EQ(pool.workerCount(), 0u);
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::thread::id> seen(64);
    pool.parallelFor(0, seen.size(), [&](std::size_t i) {
        seen[i] = std::this_thread::get_id();
    });
    for (const std::thread::id &id : seen) {
        EXPECT_EQ(id, caller);
    }
}

TEST(ThreadPool, EmptyRangeIsANoop)
{
    util::ThreadPool pool(2);
    std::atomic<int> calls{0};
    pool.parallelFor(5, 5, [&](std::size_t) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, ParallelForAccumulatesCorrectSum)
{
    util::ThreadPool pool(4);
    constexpr std::size_t kN = 4096;
    std::vector<std::uint64_t> out(kN, 0);
    pool.parallelFor(0, kN, [&](std::size_t i) { out[i] = i * i; });
    std::uint64_t expect = 0;
    for (std::size_t i = 0; i < kN; ++i) {
        expect += i * i;
    }
    EXPECT_EQ(std::accumulate(out.begin(), out.end(),
                              std::uint64_t{0}),
              expect);
}

TEST(ThreadPool, ExceptionPropagatesToCaller)
{
    util::ThreadPool pool(3);
    EXPECT_THROW(pool.parallelFor(0, 1000,
                                  [&](std::size_t i) {
                                      if (i == 417) {
                                          throw std::runtime_error(
                                              "boom");
                                      }
                                  }),
                 std::runtime_error);
    // The pool must stay usable after an exception drained through.
    std::atomic<int> ok{0};
    pool.parallelFor(0, 100, [&](std::size_t) { ok.fetch_add(1); });
    EXPECT_EQ(ok.load(), 100);
}

TEST(ThreadPool, ExceptionInZeroWorkerPoolPropagates)
{
    util::ThreadPool pool(0);
    EXPECT_THROW(pool.parallelFor(0, 4,
                                  [](std::size_t) {
                                      throw std::logic_error("inline");
                                  }),
                 std::logic_error);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock)
{
    util::ThreadPool pool(2);
    std::atomic<int> total{0};
    pool.parallelFor(0, 8, [&](std::size_t) {
        pool.parallelFor(0, 8,
                         [&](std::size_t) { total.fetch_add(1); });
    });
    EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, ConcurrentCallersShareOnePool)
{
    // The campaign server's executors call parallelFor on one shared
    // pool at the same time; each loop must still cover its own range
    // exactly once.
    util::ThreadPool pool(3);
    constexpr std::size_t kCallers = 4;
    constexpr std::size_t kN = 1000;
    constexpr int kRounds = 5;
    std::vector<std::atomic<int>> hits(kCallers * kN);
    std::vector<std::thread> callers;
    for (std::size_t c = 0; c < kCallers; ++c) {
        callers.emplace_back([&, c] {
            for (int round = 0; round < kRounds; ++round) {
                pool.parallelFor(0, kN, [&](std::size_t i) {
                    hits[c * kN + i].fetch_add(1);
                });
            }
        });
    }
    for (std::thread &caller : callers) {
        caller.join();
    }
    for (std::size_t c = 0; c < kCallers; ++c) {
        for (std::size_t i = 0; i < kN; ++i) {
            EXPECT_EQ(hits[c * kN + i].load(), kRounds)
                << "caller " << c << " index " << i;
        }
    }
}

TEST(ThreadPool, DestroyRightAfterParallelForIsSafe)
{
    // parallelFor may return while some of its helpers are still
    // queued (the caller drained every chunk first); destroying the
    // pool then must neither hang nor touch the finished loop's body.
    for (int round = 0; round < 50; ++round) {
        std::atomic<int> ran{0};
        {
            util::ThreadPool pool(3);
            pool.parallelFor(0, 64,
                             [&](std::size_t) { ran.fetch_add(1); });
        }
        EXPECT_EQ(ran.load(), 64);
    }
}

TEST(SplitStreams, StreamsAreStableAndIndependentOfConsumption)
{
    util::Rng parent_a(42);
    util::Rng parent_b(42);
    std::vector<util::Rng> a = util::splitStreams(parent_a, 8, "tag");
    std::vector<util::Rng> b = util::splitStreams(parent_b, 8, "tag");
    ASSERT_EQ(a.size(), 8u);
    // Identical parents => identical child streams, pairwise.
    for (std::size_t i = 0; i < a.size(); ++i) {
        for (int k = 0; k < 16; ++k) {
            EXPECT_EQ(a[i](), b[i]());
        }
    }
    // Parents advanced identically despite children being consumed
    // differently above.
    EXPECT_EQ(parent_a(), parent_b());
}

TEST(SplitStreams, DistinctIndicesAndTagsDiverge)
{
    util::Rng parent(7);
    std::vector<util::Rng> streams =
        util::splitStreams(parent, 16, "alpha");
    std::set<std::uint64_t> firsts;
    for (util::Rng &rng : streams) {
        firsts.insert(rng());
    }
    EXPECT_EQ(firsts.size(), 16u) << "stream collision";

    util::Rng p1(7), p2(7);
    std::vector<util::Rng> s1 = util::splitStreams(p1, 4, "alpha");
    std::vector<util::Rng> s2 = util::splitStreams(p2, 4, "beta");
    EXPECT_NE(s1[0](), s2[0]());
}

TEST(ParallelMap, PreservesIndexOrder)
{
    util::ThreadPool pool(3);
    const std::vector<int> out = util::parallelMap<int>(
        257, [](std::size_t i) { return static_cast<int>(i) * 3; },
        &pool);
    ASSERT_EQ(out.size(), 257u);
    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(out[i], static_cast<int>(i) * 3);
    }
}

TEST(ParallelMap, NullPoolRunsSeriallyOnTheCaller)
{
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    const std::vector<std::thread::id> seen =
        util::parallelMap<std::thread::id>(
            64,
            [&](std::size_t i) {
                order.push_back(i);
                return std::this_thread::get_id();
            },
            nullptr);
    ASSERT_EQ(order.size(), 64u);
    for (std::size_t i = 0; i < order.size(); ++i) {
        EXPECT_EQ(order[i], i);
        EXPECT_EQ(seen[i], caller) << "index " << i;
    }
}

/** Flatten an experiment result into a comparable byte-exact vector. */
std::vector<double>
flatten(const core::ExperimentResult &result)
{
    std::vector<double> flat;
    for (const core::RouteRecord &route : result.routes) {
        flat.push_back(route.target_ps);
        flat.push_back(route.burn_value ? 1.0 : 0.0);
        for (std::size_t k = 0; k < route.series.size(); ++k) {
            flat.push_back(route.series.hours()[k]);
            flat.push_back(route.series.values()[k]);
        }
    }
    return flat;
}

TEST(Determinism, Experiment1IdenticalAcrossWorkerCounts)
{
    core::Experiment1Config config;
    config.groups = {{1000.0, 4}, {5000.0, 4}};
    config.burn_hours = 6.0;
    config.recovery_hours = 4.0;
    config.seed = 12345;

    util::ThreadPool serial(0);
    util::ThreadPool wide(4);

    config.pool = &serial;
    const std::vector<double> one = flatten(core::runExperiment1(config));
    config.pool = &wide;
    const std::vector<double> many =
        flatten(core::runExperiment1(config));

    ASSERT_EQ(one.size(), many.size());
    for (std::size_t i = 0; i < one.size(); ++i) {
        // Bit-identical, not approximately equal.
        EXPECT_EQ(one[i], many[i]) << "flat index " << i;
    }
}

TEST(Determinism, Experiment2IdenticalAcrossWorkerCounts)
{
    core::Experiment2Config config;
    config.groups = {{2000.0, 6}};
    config.burn_hours = 5.0;
    config.seed = 777;

    util::ThreadPool serial(0);
    util::ThreadPool wide(3);

    config.pool = &serial;
    const std::vector<double> one = flatten(core::runExperiment2(config));
    config.pool = &wide;
    const std::vector<double> many =
        flatten(core::runExperiment2(config));

    ASSERT_EQ(one.size(), many.size());
    for (std::size_t i = 0; i < one.size(); ++i) {
        EXPECT_EQ(one[i], many[i]) << "flat index " << i;
    }
}

TEST(Determinism, RepeatedRunsOnSamePoolAreIdentical)
{
    core::Experiment1Config config;
    config.groups = {{1000.0, 3}};
    config.burn_hours = 3.0;
    config.recovery_hours = 2.0;
    config.seed = 9;

    util::ThreadPool pool(4);
    config.pool = &pool;
    const std::vector<double> first =
        flatten(core::runExperiment1(config));
    const std::vector<double> second =
        flatten(core::runExperiment1(config));
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(first[i], second[i]);
    }
}

} // namespace
} // namespace pentimento
