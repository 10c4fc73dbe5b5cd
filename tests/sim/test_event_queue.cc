#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <vector>

#include "aiwc/base/check.hh"
#include "aiwc/sim/event_queue.hh"

namespace aiwc::sim
{
namespace
{

/** One push of an ordering script. */
struct Step
{
    Seconds time;
    int rank;
    int label;
    std::vector<Step> children;  //!< pushed from inside this handler
};

/** Firing order of `script` with the replay's callback payload. */
std::vector<int>
fireCallbacks(const std::vector<Step> &script)
{
    EventQueue<std::function<void()>> q;
    std::vector<int> order;
    std::function<void(const Step &)> push = [&](const Step &s) {
        q.push(s.time, s.rank, [&] {
            order.push_back(s.label);
            for (const Step &c : s.children)
                push(c);
        });
    };
    for (const Step &s : script)
        push(s);
    while (!q.empty())
        q.pop().payload();
    return order;
}

/** Firing order of `script` with a plain-struct payload. */
std::vector<int>
fireStructs(const std::vector<Step> &script)
{
    struct Ref
    {
        const Step *step;
    };
    EventQueue<Ref> q;
    for (const Step &s : script)
        q.push(s.time, s.rank, Ref{&s});
    std::vector<int> order;
    while (!q.empty()) {
        const Step &s = *q.pop().payload.step;
        order.push_back(s.label);
        for (const Step &c : s.children)
            q.push(c.time, c.rank, Ref{&c});
    }
    return order;
}

/**
 * The one ordering check, run for both payload shapes the event core
 * carries: a std::function handler and a trivially copyable struct.
 */
void
expectFiringOrder(const std::vector<Step> &script,
                  const std::vector<int> &expected)
{
    EXPECT_EQ(fireCallbacks(script), expected) << "std::function payload";
    EXPECT_EQ(fireStructs(script), expected) << "struct payload";
}

TEST(EventQueue, EmptyByDefault)
{
    EventQueue<std::function<void()>> callbacks;
    EventQueue<int> ints;
    EXPECT_TRUE(callbacks.empty());
    EXPECT_EQ(callbacks.size(), 0u);
    EXPECT_TRUE(ints.empty());
    EXPECT_EQ(ints.size(), 0u);
}

TEST(EventQueue, FiresInTimeOrder)
{
    expectFiringOrder({{3.0, 0, 3, {}}, {1.0, 0, 1, {}}, {2.0, 0, 2, {}}},
                      {1, 2, 3});
}

TEST(EventQueue, SimultaneousEventsFifoByScheduleOrder)
{
    std::vector<Step> script;
    for (int i = 0; i < 5; ++i)
        script.push_back({1.0, 0, i, {}});
    expectFiringOrder(script, {0, 1, 2, 3, 4});
}

TEST(EventQueue, RankBeatsSeqAtEqualTimes)
{
    // Time first, then rank, then push order — the scenario engine's
    // completion -> wake -> arrival -> tick rule at one timestamp.
    expectFiringOrder({{1.0, 3, 0, {}},
                       {1.0, 1, 1, {}},
                       {1.0, 0, 2, {}},
                       {1.0, 1, 3, {}},
                       {0.5, 9, 4, {}}},
                      {4, 2, 1, 3, 0});
}

TEST(EventQueue, PopReturnsFireTime)
{
    EventQueue<int> q;
    q.push(4.5, 2, 7);
    EXPECT_DOUBLE_EQ(q.top().time, 4.5);
    const auto ev = q.pop();
    EXPECT_DOUBLE_EQ(ev.time, 4.5);
    EXPECT_EQ(ev.rank, 2);
    EXPECT_EQ(ev.payload, 7);
}

TEST(EventQueue, EventsScheduledFromCallbacksRun)
{
    expectFiringOrder({{1.0, 0, 1, {{2.0, 0, 2, {}}}}}, {1, 2});
}

TEST(EventQueue, SizeTracksLiveEvents)
{
    EventQueue<int> q;
    q.push(1.0, 0, 1);
    q.push(2.0, 0, 2);
    EXPECT_EQ(q.size(), 2u);
    q.pop();
    EXPECT_EQ(q.size(), 1u);
    q.pop();
    EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, TieBetweenOldAndNewEventsIsFifo)
{
    // Pushed later, same timestamp and rank as an existing event: the
    // existing one keeps its earlier sequence number. A lower rank
    // pushed later still fires first.
    expectFiringOrder({{5.0, 1, 0, {}},
                       {1.0, 0, -1, {{5.0, 1, 1, {}}, {5.0, 0, 2, {}}}}},
                      {-1, 2, 0, 1});
}

TEST(EventQueue, ManyEventsStressOrdering)
{
    std::vector<Step> script;
    for (int i = 0; i < 2000; ++i) {
        const double t = static_cast<double>((i * 7919) % 1000);
        script.push_back({t, i % 3, i, {}});
    }
    // Expected: a stable sort by (time, rank) keeps push order on ties.
    std::vector<int> expected(script.size());
    std::iota(expected.begin(), expected.end(), 0);
    std::stable_sort(expected.begin(), expected.end(), [&](int a, int b) {
        const Step &x = script[static_cast<std::size_t>(a)];
        const Step &y = script[static_cast<std::size_t>(b)];
        return x.time != y.time ? x.time < y.time : x.rank < y.rank;
    });
    expectFiringOrder(script, expected);
}

TEST(EventQueueContract, RejectsNonFiniteTimes)
{
    ScopedCheckFailHandler guard;
    EventQueue<int> q;
    EXPECT_THROW(q.push(std::nan(""), 0, 1), ContractViolation);
    EXPECT_THROW(q.push(std::numeric_limits<double>::infinity(), 0, 2),
                 ContractViolation);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueueContract, PopOnEmptyQueueFails)
{
    ScopedCheckFailHandler guard;
    EventQueue<int> q;
    EXPECT_THROW(q.pop(), ContractViolation);
    EXPECT_THROW(q.top(), ContractViolation);
}

} // namespace
} // namespace aiwc::sim
