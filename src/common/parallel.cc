#include "aiwc/common/parallel.hh"

#include "aiwc/base/check.hh"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string_view>

namespace aiwc
{

namespace
{

/**
 * Set for the lifetime of every worker thread's loop, and on a calling
 * thread while it runs shards of a dispatchShards call.
 */
// aiwc-lint: allow(mutable-global) -- worker-identity flag, set at spawn or around a caller's own shards, read only to run nested parallelism inline; never reaches results
thread_local bool worker_thread = false;

// aiwc-lint: allow(mutable-global) -- guards the lazy global pool below
Mutex global_pool_mutex;
// aiwc-lint: allow(mutable-global) -- the sanctioned pool singleton; geometry fixed by config, mutex-guarded, shard merges stay index-ordered
std::unique_ptr<ThreadPool> global_pool AIWC_GUARDED_BY(global_pool_mutex);

} // namespace

ThreadPool::ThreadPool(int threads) : threads_(threads)
{
    AIWC_CHECK(threads >= 1, "thread pool needs >= 1 worker, got ",
               threads);
    obs::MetricsRegistry::global()
        .gauge("aiwc.parallel.pool_threads")
        .set(threads);
    workers_.reserve(static_cast<std::size_t>(threads));
    for (int i = 0; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        MutexLock lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    AIWC_DCHECK(task != nullptr, "null task submitted to thread pool");
    {
        MutexLock lock(mutex_);
        AIWC_CHECK(!stop_, "submit() on a stopping thread pool");
        queue_.push_back(std::move(task));
    }
    cv_.notify_one();
}

void
ThreadPool::workerLoop()
{
    worker_thread = true;
    for (;;) {
        std::function<void()> task;
        {
            MutexLock lock(mutex_);
            // Explicit predicate loop (not a wait-with-predicate
            // lambda): the thread-safety analysis checks the guarded
            // reads, and spurious wakeups re-test the same condition.
            while (!stop_ && queue_.empty())
                cv_.wait(mutex_);
            if (queue_.empty())
                return;  // stop_ set and the queue is drained
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        // Occupancy is sampled at task start: the distribution of "how
        // many workers were busy when work landed" is the pool's
        // utilization figure (all-buckets-at-threads == saturated).
        static obs::Histogram &occupancy =
            obs::MetricsRegistry::global().histogram(
                "aiwc.parallel.pool_occupancy");
        static obs::Counter &tasks =
            obs::MetricsRegistry::global().counter(
                "aiwc.parallel.tasks_executed");
        const int busy = active_.fetch_add(1, std::memory_order_relaxed);
        occupancy.observe(static_cast<std::uint64_t>(busy) + 1);
        tasks.add(1);
        task();
        active_.fetch_sub(1, std::memory_order_relaxed);
    }
}

bool
ThreadPool::onWorkerThread()
{
    return worker_thread;
}

int
defaultThreadCount()
{
    if (const char *env = std::getenv("AIWC_THREADS")) {
        // The whole value must be decimal digits: from_chars takes no
        // sign, space or suffix, so "4x" and " 4" are junk, and a count
        // too large for any integer still reads as too large.
        const std::string_view text(env);
        const char *end = text.data() + text.size();
        std::uint64_t n = 0;
        const auto [ptr, ec] = std::from_chars(text.data(), end, n);
        const bool digits = ptr == end && !text.empty();
        const auto cap = static_cast<std::uint64_t>(max_pool_threads);
        if (digits && (ec == std::errc::result_out_of_range ||
                       (ec == std::errc{} && n > cap))) {
            warn("capping AIWC_THREADS='", env, "' at ", max_pool_threads,
                 " threads");
            return max_pool_threads;
        }
        if (digits && ec == std::errc{} && n >= 1)
            return static_cast<int>(n);
        warn("ignoring AIWC_THREADS='", env, "': not a positive count");
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw >= 1 ? static_cast<int>(hw) : 1;
}

ThreadPool &
globalPool()
{
    MutexLock lock(global_pool_mutex);
    if (!global_pool)
        global_pool = std::make_unique<ThreadPool>(defaultThreadCount());
    return *global_pool;
}

void
setGlobalThreadCount(int threads)
{
    AIWC_CHECK(threads >= 1 && threads <= max_pool_threads,
               "global thread count must lie in [1, ", max_pool_threads,
               "], got ", threads);
    MutexLock lock(global_pool_mutex);
    if (global_pool && global_pool->threads() == threads)
        return;
    global_pool.reset();  // join the old workers before rebuilding
    global_pool = std::make_unique<ThreadPool>(threads);
}

int
globalThreadCount()
{
    return globalPool().threads();
}

namespace detail
{

obs::Histogram &
shardNsHistogram()
{
    static obs::Histogram &hist =
        obs::MetricsRegistry::global().histogram("aiwc.parallel.shard_ns");
    return hist;
}

obs::Counter &
shardsExecutedCounter()
{
    static obs::Counter &counter =
        obs::MetricsRegistry::global().counter("aiwc.parallel.shards_executed");
    return counter;
}

namespace
{

/**
 * What one dispatchShards call shares with its helper tasks. Held by
 * shared_ptr: a helper that starts after the last shard was claimed
 * still reads `next`, and the helper that finishes the last shard
 * still signals, possibly after the call has returned. `ctx` is only
 * dereferenced for a claimed shard, which the call waits for.
 */
struct ShardDispatch
{
    ShardDispatch(std::size_t count, ShardThunk thunk, void *ctx)
        : count(count), thunk(thunk), ctx(ctx)
    {
    }

    /** Claim and run shards until none is left. */
    void
    drain()
    {
        for (;;) {
            const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= count)
                return;
            thunk(ctx, i);
            // acq_rel: the caller's acquire load of the final count sees
            // every shard's writes.
            if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == count) {
                MutexLock lock(mutex);
                all_done.notify_all();
            }
        }
    }

    /** Block until every shard has finished. */
    void
    wait()
    {
        MutexLock lock(mutex);
        while (done.load(std::memory_order_acquire) != count)
            all_done.wait(mutex);
    }

    const std::size_t count;
    const ShardThunk thunk;
    void *const ctx;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    Mutex mutex;
    CondVar all_done;
};

/** Marks the calling thread as a worker for one scope. */
class WorkerScope
{
  public:
    WorkerScope() : was_(worker_thread) { worker_thread = true; }
    ~WorkerScope() { worker_thread = was_; }

    WorkerScope(const WorkerScope &) = delete;
    WorkerScope &operator=(const WorkerScope &) = delete;

  private:
    bool was_;
};

} // namespace

void
dispatchShards(ThreadPool &pool, std::size_t count, ShardThunk thunk,
               void *ctx)
{
    AIWC_DCHECK(count >= 2, "dispatchShards needs >= 2 shards");
    const auto state = std::make_shared<ShardDispatch>(count, thunk, ctx);
    const std::size_t helpers = std::min(
        static_cast<std::size_t>(pool.threads() - 1), count - 1);
    for (std::size_t h = 0; h < helpers; ++h)
        pool.submit([state] { state->drain(); });
    {
        const WorkerScope as_worker;
        state->drain();
    }
    state->wait();
}

std::vector<ShardRange>
shardRanges(std::size_t n, std::size_t max_shards)
{
    AIWC_CHECK(max_shards >= 1, "shardRanges needs >= 1 shard");
    std::vector<ShardRange> shards;
    if (n == 0)
        return shards;
    const std::size_t count = n < max_shards ? n : max_shards;
    const std::size_t base = n / count;
    const std::size_t extra = n % count;
    shards.reserve(count);
    std::size_t begin = 0;
    for (std::size_t s = 0; s < count; ++s) {
        const std::size_t size = base + (s < extra ? 1 : 0);
        shards.push_back({begin, begin + size, s});
        begin += size;
    }
    AIWC_DCHECK_EQ(begin, n, "shard ranges must partition [0, n)");
    return shards;
}

} // namespace detail

} // namespace aiwc
