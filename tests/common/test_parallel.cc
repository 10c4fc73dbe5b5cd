/** Tests for the thread pool and deterministic parallel helpers. */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <latch>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "aiwc/base/check.hh"
#include "aiwc/common/parallel.hh"
#include "aiwc/obs/metrics.hh"

namespace
{

using namespace aiwc;

TEST(ShardRanges, PartitionsTheIndexSpace)
{
    for (std::size_t n : {0u, 1u, 2u, 63u, 64u, 65u, 1000u, 47293u}) {
        const auto shards = detail::shardRanges(n);
        if (n == 0) {
            EXPECT_TRUE(shards.empty());
            continue;
        }
        EXPECT_LE(shards.size(), detail::default_shards);
        std::size_t next = 0;
        for (std::size_t i = 0; i < shards.size(); ++i) {
            EXPECT_EQ(shards[i].index, i);
            EXPECT_EQ(shards[i].begin, next);
            EXPECT_LT(shards[i].begin, shards[i].end);
            next = shards[i].end;
        }
        EXPECT_EQ(next, n);
    }
}

TEST(ShardRanges, GeometryIsBalanced)
{
    const auto shards = detail::shardRanges(130);
    ASSERT_EQ(shards.size(), detail::default_shards);
    std::size_t lo = 130, hi = 0;
    for (const auto &s : shards) {
        lo = std::min(lo, s.end - s.begin);
        hi = std::max(hi, s.end - s.begin);
    }
    EXPECT_EQ(lo, 2u);
    EXPECT_EQ(hi, 3u);
}

TEST(ThreadPool, RejectsNonPositiveSize)
{
    ScopedCheckFailHandler guard;
    EXPECT_THROW(ThreadPool(0), ContractViolation);
    EXPECT_THROW(ThreadPool(-4), ContractViolation);
}

TEST(ThreadPool, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    std::atomic<int> ran{0};
    std::latch group(100);
    for (int i = 0; i < 100; ++i) {
        pool.submit([&] {
            ++ran;
            group.count_down();
        });
    }
    group.wait();
    EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, DestructorDrainsQueue)
{
    std::atomic<int> ran{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 50; ++i)
            pool.submit([&] { ++ran; });
    }
    EXPECT_EQ(ran.load(), 50);
}

TEST(ParallelFor, VisitsEveryIndexOnce)
{
    ThreadPool pool(4);
    std::vector<int> hits(10000, 0);
    parallelFor(pool, hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (int h : hits)
        ASSERT_EQ(h, 1);
}

TEST(ParallelFor, EmptyRangeIsANoOp)
{
    ThreadPool pool(2);
    bool called = false;
    parallelFor(pool, 0, [&](std::size_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST(ParallelReduce, SumsExactly)
{
    ThreadPool pool(4);
    const std::size_t n = 12345;
    const auto sum = parallelReduce(
        pool, n, std::uint64_t{0},
        [](std::uint64_t &acc, std::size_t i) { acc += i; },
        [](std::uint64_t &into, std::uint64_t &&from) { into += from; });
    EXPECT_EQ(sum, n * (n - 1) / 2);
}

TEST(ParallelReduce, FloatResultIsThreadCountInvariant)
{
    // Irrational-ish values make float addition order observable; the
    // shard+merge structure must hide the thread count entirely.
    std::vector<double> values(10007);
    for (std::size_t i = 0; i < values.size(); ++i)
        values[i] = std::sqrt(static_cast<double>(i) + 0.1);
    // Every shard of the full 64-shard geometry must be in play.
    ASSERT_EQ(detail::shardRanges(values.size()).size(),
              detail::default_shards);

    const auto run = [&](int threads) {
        ThreadPool pool(threads);
        return parallelReduce(
            pool, values.size(), 0.0,
            [&](double &acc, std::size_t i) { acc += values[i]; },
            [](double &into, double &&from) { into += from; });
    };
    const double serial = run(1);
    EXPECT_EQ(serial, run(2));
    EXPECT_EQ(serial, run(4));
    EXPECT_EQ(serial, run(8));
}

TEST(ParallelReduce, MergesInShardIndexOrder)
{
    ThreadPool pool(4);
    const std::size_t n = 1000;
    const auto order = parallelReduce(
        pool, n, std::vector<std::size_t>{},
        [](std::vector<std::size_t> &acc, std::size_t i) {
            acc.push_back(i);
        },
        [](std::vector<std::size_t> &into,
           std::vector<std::size_t> &&from) {
            into.insert(into.end(), from.begin(), from.end());
        });
    ASSERT_EQ(order.size(), n);
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(order[i], i);
}

TEST(ParallelFor, PropagatesExceptions)
{
    ThreadPool pool(4);
    EXPECT_THROW(parallelFor(pool, 1000,
                             [&](std::size_t i) {
                                 if (i == 617)
                                     throw std::runtime_error("boom");
                             }),
                 std::runtime_error);
}

TEST(ParallelFor, PropagatesContractViolations)
{
    // AIWC_CHECK failures inside pool tasks must reach the caller, not
    // vanish inside a worker thread.
    ScopedCheckFailHandler guard;
    ThreadPool pool(4);
    EXPECT_THROW(parallelFor(pool, 1000,
                             [&](std::size_t i) {
                                 AIWC_CHECK(i != 617,
                                            "index 617 is forbidden");
                             }),
                 ContractViolation);
}

TEST(ParallelFor, NestedCallsRunInlineWithoutDeadlock)
{
    ThreadPool pool(2);
    std::atomic<int> inner_total{0};
    parallelFor(pool, 8, [&](std::size_t) {
        // With 2 workers and 8 outer tasks, nested submission would
        // starve the pool; the inline fallback must kick in.
        parallelFor(pool, 100,
                    [&](std::size_t) { ++inner_total; });
    });
    EXPECT_EQ(inner_total.load(), 800);
}

/** Pool tasks run so far, process-wide. */
std::uint64_t
tasksExecuted()
{
    return obs::MetricsRegistry::global()
        .counter("aiwc.parallel.tasks_executed")
        .value();
}

TEST(Dispatch, HandsACallToAtMostThreadsMinusOneTasks)
{
    constexpr std::size_t calls = 10;
    for (int threads : {1, 2, 4}) {
        const std::uint64_t before = tasksExecuted();
        {
            ThreadPool pool(threads);
            for (std::size_t c = 0; c < calls; ++c)
                parallelFor(pool, 10000, [](std::size_t) {});
        }  // joined: every helper task has run
        const std::uint64_t delta = tasksExecuted() - before;
        EXPECT_LE(delta, calls * static_cast<std::uint64_t>(threads - 1))
            << threads << " threads";
        if (threads == 1) {
            EXPECT_EQ(delta, 0u);
        }
    }
}

TEST(Dispatch, NestedCallsSubmitNoTasks)
{
    const std::uint64_t before = tasksExecuted();
    std::atomic<int> inner{0};
    {
        ThreadPool pool(4);
        // Every inner call runs inline, on a worker or on the caller
        // running its own shards: only the outer call hands out tasks.
        parallelFor(pool, 64, [&](std::size_t) {
            parallelFor(pool, 1000, [&](std::size_t) { ++inner; });
        });
    }
    EXPECT_EQ(inner.load(), 64 * 1000);
    EXPECT_LE(tasksExecuted() - before, 3u);
}

TEST(Dispatch, EveryShardRunsExactlyOnceUnderContention)
{
    // Four callers share one 4-thread pool, each making calls whose 64
    // shards outnumber the threads; every shard of every call must run
    // exactly once. The callers are plain threads: on pool workers the
    // calls would run inline and never contend.
    ThreadPool pool(4);
    constexpr int callers = 4;
    constexpr int rounds = 50;
    // aiwc-lint: allow(thread-raw) -- concurrent callers that are not pool workers
    std::vector<std::thread> threads;
    std::vector<int> bad(callers, 0);
    for (int c = 0; c < callers; ++c) {
        threads.emplace_back([&, c] {
            const auto shards = detail::shardRanges(64 * 37 + 5);
            for (int round = 0; round < rounds; ++round) {
                std::vector<std::atomic<int>> runs(shards.size());
                detail::runShards(pool, shards,
                                  [&](const detail::ShardRange &s) {
                                      runs[s.index].fetch_add(1);
                                  });
                for (const auto &r : runs)
                    bad[static_cast<std::size_t>(c)] += r.load() != 1;
            }
        });
    }
    // aiwc-lint: allow(thread-raw) -- joins the callers above
    for (std::thread &t : threads)
        t.join();
    for (int c = 0; c < callers; ++c)
        EXPECT_EQ(bad[static_cast<std::size_t>(c)], 0) << "caller " << c;
}

TEST(Dispatch, FirstFailingShardByIndexWinsWhenALaterOneThrowsFirst)
{
    // Shard 3 throws only after shard 40 has thrown (or after a timeout
    // that a 2-thread pool never needs: while the caller holds shard 3
    // the helper reaches shard 40). The rethrown error must be shard 3's.
    ThreadPool pool(2);
    std::atomic<bool> late_threw{false};
    std::string caught;
    try {
        parallelFor(pool, 64, [&](std::size_t i) {
            if (i == 40) {
                late_threw = true;
                throw std::runtime_error("shard 40");
            }
            if (i == 3) {
                const auto deadline = std::chrono::steady_clock::now() +
                                      std::chrono::seconds(10);
                while (!late_threw &&
                       std::chrono::steady_clock::now() < deadline)
                    std::this_thread::yield();
                throw std::runtime_error("shard 3");
            }
        });
    } catch (const std::runtime_error &e) {
        caught = e.what();
    }
    EXPECT_TRUE(late_threw.load());
    EXPECT_EQ(caught, "shard 3");
}

TEST(ParallelInvoke, RunsEachCallableOnce)
{
    ThreadPool pool(4);
    std::array<int, 5> ran{};
    parallelInvoke(
        pool, [&] { ++ran[0]; }, [&] { ++ran[1]; }, [&] { ++ran[2]; },
        [&] { ++ran[3]; }, [&] { ++ran[4]; });
    for (int r : ran)
        EXPECT_EQ(r, 1);
}

/** Sets AIWC_THREADS for one scope, restoring the old value after. */
class ScopedThreadsEnv
{
  public:
    /** @param value the new value, or nullptr to unset it. */
    explicit ScopedThreadsEnv(const char *value)
    {
        if (const char *old = std::getenv("AIWC_THREADS"))
            old_ = old;
        if (value)
            ::setenv("AIWC_THREADS", value, 1);
        else
            ::unsetenv("AIWC_THREADS");
    }
    ~ScopedThreadsEnv()
    {
        if (old_)
            ::setenv("AIWC_THREADS", old_->c_str(), 1);
        else
            ::unsetenv("AIWC_THREADS");
    }

  private:
    std::optional<std::string> old_;
};

TEST(DefaultThreadCount, ParsesAiwcThreadsStrictlyAndCapsIt)
{
    // Only the parse is tested: no pool is built from these values.
    const auto parsed = [](const char *value) {
        const ScopedThreadsEnv env(value);
        return defaultThreadCount();
    };
    const int fallback = parsed(nullptr);  // the hardware concurrency
    EXPECT_EQ(parsed("3"), 3);
    EXPECT_EQ(parsed("1"), 1);
    EXPECT_EQ(parsed("256"), max_pool_threads);
    for (const char *junk : {"4x", " 4", "+4", "-2", "0", "", "four", "4.0"})
        EXPECT_EQ(parsed(junk), fallback) << "'" << junk << "'";
    EXPECT_EQ(parsed("257"), max_pool_threads);
    EXPECT_EQ(parsed("100000"), max_pool_threads);
    EXPECT_EQ(parsed("99999999999999999999999999"), max_pool_threads);
}

TEST(GlobalPool, RejectsThreadCountAboveTheCap)
{
    ScopedCheckFailHandler guard;
    EXPECT_THROW(setGlobalThreadCount(max_pool_threads + 1),
                 ContractViolation);
}

TEST(GlobalPool, ThreadCountKnobRebuildsThePool)
{
    const int before = globalThreadCount();
    setGlobalThreadCount(3);
    EXPECT_EQ(globalThreadCount(), 3);
    EXPECT_EQ(globalPool().threads(), 3);
    setGlobalThreadCount(before);
    EXPECT_EQ(globalThreadCount(), before);
}

TEST(GlobalPool, RejectsNonPositiveThreadCount)
{
    ScopedCheckFailHandler guard;
    EXPECT_THROW(setGlobalThreadCount(0), ContractViolation);
}

TEST(GlobalPool, DefaultThreadCountIsPositive)
{
    EXPECT_GE(defaultThreadCount(), 1);
}

} // namespace
