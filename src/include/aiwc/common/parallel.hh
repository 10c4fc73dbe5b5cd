/**
 * @file
 * Fixed-size thread pool and deterministic data-parallel helpers.
 *
 * The characterization pipeline runs a dozen independent per-job and
 * per-user passes over 47k+ records; this module lets them scale with
 * core count without giving up the repository's bit-for-bit
 * reproducibility guarantee. The contract:
 *
 *  - Work is split into *shards* whose geometry depends only on the
 *    problem size (detail::shardRanges), never on the thread count.
 *  - parallelReduce() folds each shard into its own accumulator and
 *    merges the per-shard accumulators **in shard-index order**, so the
 *    floating-point evaluation order — and therefore every output bit —
 *    is identical whether the shards ran on 1 thread or 8.
 *  - No silent task-swallowing: an exception thrown inside a shard
 *    (including ContractViolation from a throwing AIWC_CHECK handler)
 *    is captured and rethrown on the calling thread; the first failing
 *    shard in index order wins.
 *
 * The global pool is sized from AIWC_THREADS (else the hardware
 * concurrency), capped at max_pool_threads, and built lazily on first
 * use; setGlobalThreadCount() rebuilds it. A helper call hands its
 * shards to the calling thread plus at most threads - 1 pool tasks,
 * which claim shards from one counter (detail::dispatchShards). Helpers
 * invoked *from* a shard — on a pool worker or on the calling thread —
 * run their shards inline, so nested parallelism cannot deadlock.
 */

#pragma once

#include <atomic>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "aiwc/base/mutex.hh"
#include "aiwc/base/thread_annotations.hh"
#include "aiwc/obs/trace.hh"

namespace aiwc
{

/**
 * A fixed-size pool of worker threads consuming a shared task queue.
 * Tasks are plain thunks; ordering across workers is unspecified, so
 * determinism is the job of the helpers below, not of the pool.
 */
class ThreadPool
{
  public:
    /** @param threads worker count, >= 1. */
    explicit ThreadPool(int threads);

    /** Drains the queue, then joins all workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads. */
    int threads() const { return threads_; }

    /**
     * Enqueue one task. The task runs exactly once on some worker;
     * submit() never blocks on task completion. Exceptions must be
     * handled inside the task (the helpers below do this) — a task
     * that lets one escape takes the process down.
     */
    void submit(std::function<void()> task);

    /**
     * True on a pool worker (any pool), and on a thread that is running
     * shards of a helper call as a worker.
     */
    static bool onWorkerThread();

  private:
    void workerLoop();

    int threads_;
    std::vector<std::thread> workers_;
    Mutex mutex_;
    CondVar cv_;
    std::deque<std::function<void()>> queue_ AIWC_GUARDED_BY(mutex_);
    bool stop_ AIWC_GUARDED_BY(mutex_) = false;
    /** Workers currently inside a task (pool-occupancy metric). */
    std::atomic<int> active_{0};
};

/**
 * Most worker threads a pool sizing may ask for. Past the 64-shard
 * ceiling (detail::default_shards) more threads add nothing, and a
 * mistyped AIWC_THREADS must not start thousands of OS threads.
 */
inline constexpr int max_pool_threads = 256;

/**
 * The process-wide pool the analyzers and the synthesizer share.
 * Built on first use with defaultThreadCount() workers.
 */
ThreadPool &globalPool();

/**
 * Resize the global pool. Must not be called while work is in flight
 * on the pool (it is a configuration-time knob: main(), bench setup,
 * test fixtures). @param threads in [1, max_pool_threads]
 * (AIWC_CHECK); 1 disables parallel dispatch.
 */
void setGlobalThreadCount(int threads);

/** Worker count of the global pool (builds it if needed). */
int globalThreadCount();

/**
 * The pool size used when nothing was configured: AIWC_THREADS if it is
 * a whole decimal count >= 1 (capped at max_pool_threads, with a
 * warning), else std::thread::hardware_concurrency(). Any other
 * AIWC_THREADS value is ignored with a warning.
 */
int defaultThreadCount();

namespace detail
{

/**
 * Upper bound on shards per helper call. Chosen large enough to load-
 * balance any realistic pool and small enough that per-shard
 * accumulators stay cheap. Part of the determinism contract: outputs
 * depend on this constant, never on the thread count.
 */
inline constexpr std::size_t default_shards = 64;

/** One contiguous index range [begin, end) with its merge position. */
struct ShardRange
{
    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t index = 0;
};

/**
 * Split [0, n) into at most max_shards balanced contiguous ranges.
 * Pure function of (n, max_shards) — identical on every call, which
 * is what makes N-thread and 1-thread reductions bit-identical.
 */
std::vector<ShardRange> shardRanges(std::size_t n,
                                    std::size_t max_shards =
                                        default_shards);

/**
 * Cached registry handles for the shard hot path (defined in
 * parallel.cc so the template below stays header-only without paying a
 * registry lookup per shard).
 */
obs::Histogram &shardNsHistogram();
obs::Counter &shardsExecutedCounter();

/**
 * Runs shard `index` of one runShards call; `ctx` is that call's
 * state. Must not throw: runShards catches per shard.
 */
using ShardThunk = void (*)(void *ctx, std::size_t index);

/**
 * Run thunk(ctx, i) once for every i in [0, count), count >= 2, on the
 * calling thread plus at most min(threads - 1, count - 1) pool tasks.
 * Each of them claims shard indices from one atomic counter until none
 * is left, so a call costs O(threads) task hand-offs, not one per
 * shard. The caller runs its shards as a worker (nested helper calls
 * inside them run inline) and returns once every shard has finished;
 * it never waits on a helper that claimed no shard.
 */
void dispatchShards(ThreadPool &pool, std::size_t count, ShardThunk thunk,
                    void *ctx);

/**
 * Run one callable per shard, inline when the pool is serial (or when
 * already on a worker thread), otherwise through dispatchShards.
 * Rethrows the first (by shard index) escaped exception after all
 * shards finished — no partial waits, no swallowed failures.
 */
template <typename ShardFn>
void
runShards(ThreadPool &pool, const std::vector<ShardRange> &shards,
          ShardFn &&fn)
{
    if (shards.empty())
        return;
    shardsExecutedCounter().add(shards.size());
    if (pool.threads() <= 1 || shards.size() == 1 ||
        ThreadPool::onWorkerThread()) {
        for (const ShardRange &s : shards) {
            obs::ScopedTimer timer(shardNsHistogram(), "parallel.shard");
            fn(s);
        }
        return;
    }
    std::vector<std::exception_ptr> errors(shards.size());
    auto one = [&fn, &shards, &errors](std::size_t i) {
        try {
            obs::ScopedTimer timer(shardNsHistogram(), "parallel.shard");
            fn(shards[i]);
        } catch (...) {
            errors[i] = std::current_exception();
        }
    };
    dispatchShards(
        pool, shards.size(),
        [](void *ctx, std::size_t i) {
            (*static_cast<decltype(one) *>(ctx))(i);
        },
        &one);
    for (std::exception_ptr &e : errors)
        if (e)
            std::rethrow_exception(e);
}

} // namespace detail

/**
 * Apply fn(i) for every i in [0, n). Iteration order within a shard is
 * ascending; shards may run concurrently, so fn must only touch state
 * owned by index i (e.g. out[i] = ...).
 */
template <typename Fn>
void
parallelFor(ThreadPool &pool, std::size_t n, Fn &&fn)
{
    detail::runShards(pool, detail::shardRanges(n),
                      [&fn](const detail::ShardRange &s) {
                          for (std::size_t i = s.begin; i < s.end; ++i)
                              fn(i);
                      });
}

/**
 * Deterministic chunk-ordered reduction over [0, n).
 *
 * Each shard folds its indices (ascending) into a private copy of
 * `identity` via fold(acc, i); the per-shard accumulators are then
 * merged into the result **in shard-index order** via
 * merge(into, std::move(from)). Because the shard geometry and the
 * merge order are both independent of the thread count, the returned
 * value is bit-identical for any pool size — merge only needs to be
 * associative *across shard boundaries*, which concatenation, counter
 * addition, and left-fold float sums all satisfy.
 */
template <typename Acc, typename Fold, typename Merge>
Acc
parallelReduce(ThreadPool &pool, std::size_t n, const Acc &identity,
               Fold &&fold, Merge &&merge)
{
    const auto shards = detail::shardRanges(n);
    Acc result = identity;
    if (shards.empty())
        return result;
    std::vector<Acc> partial(shards.size(), identity);
    detail::runShards(pool, shards,
                      [&fold, &partial](const detail::ShardRange &s) {
                          Acc &acc = partial[s.index];
                          for (std::size_t i = s.begin; i < s.end; ++i)
                              fold(acc, i);
                      });
    for (Acc &p : partial)
        merge(result, std::move(p));
    return result;
}

/**
 * Run every callable once, concurrently where the pool allows: one
 * shard per callable. For independent whole-series work such as one
 * sort per CDF; each callable must only touch state it owns, and any
 * helper call inside it runs inline.
 */
template <typename... Fns>
void
parallelInvoke(ThreadPool &pool, Fns &&...fns)
{
    parallelFor(pool, sizeof...(Fns), [&](std::size_t i) {
        std::size_t k = 0;
        ((k++ == i ? static_cast<void>(fns()) : static_cast<void>(0)), ...);
    });
}

} // namespace aiwc

