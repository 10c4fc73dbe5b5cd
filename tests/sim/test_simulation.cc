#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "aiwc/base/check.hh"
#include "aiwc/sim/simulation.hh"

namespace aiwc::sim
{
namespace
{

TEST(Simulation, ClockStartsAtZero)
{
    Simulation sim;
    EXPECT_DOUBLE_EQ(sim.now(), 0.0);
}

TEST(Simulation, ClockAdvancesBeforeCallbackRuns)
{
    // Regression test: callbacks must observe their own fire time as
    // now(), not the previous event's time. (This bug once produced
    // negative queue waits in the scheduler.)
    Simulation sim;
    std::vector<Seconds> observed;
    sim.at(5.0, [&] { observed.push_back(sim.now()); });
    sim.at(10.0, [&] { observed.push_back(sim.now()); });
    sim.run();
    EXPECT_EQ(observed, (std::vector<Seconds>{5.0, 10.0}));
}

TEST(Simulation, AfterSchedulesRelativeToNow)
{
    Simulation sim;
    Seconds fired_at = -1.0;
    sim.at(3.0, [&] {
        sim.after(2.0, [&] { fired_at = sim.now(); });
    });
    sim.run();
    EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

TEST(Simulation, RunReturnsEventCount)
{
    Simulation sim;
    sim.at(1.0, [] {});
    sim.at(2.0, [] {});
    EXPECT_EQ(sim.run(), 2u);
}

TEST(Simulation, RunUntilStopsAtHorizon)
{
    Simulation sim;
    int fired = 0;
    sim.at(1.0, [&] { ++fired; });
    sim.at(2.0, [&] { ++fired; });
    sim.at(10.0, [&] { ++fired; });
    const std::size_t n = sim.runUntil(5.0);
    EXPECT_EQ(n, 2u);
    EXPECT_EQ(fired, 2);
    EXPECT_DOUBLE_EQ(sim.now(), 5.0);
    EXPECT_EQ(sim.pendingEvents(), 1u);
    sim.run();
    EXPECT_EQ(fired, 3);
}

TEST(Simulation, RunUntilOnEmptyAdvancesClock)
{
    Simulation sim;
    sim.runUntil(42.0);
    EXPECT_DOUBLE_EQ(sim.now(), 42.0);
}

TEST(Simulation, RunUntilHorizonExactlyAtNextEventFiresIt)
{
    // Boundary contract: an event AT the horizon belongs to the run.
    Simulation sim;
    int fired = 0;
    sim.at(5.0, [&] { ++fired; });
    sim.at(5.0, [&] { ++fired; });
    sim.at(5.0 + 1e-9, [&] { ++fired; });
    EXPECT_EQ(sim.runUntil(5.0), 2u);
    EXPECT_EQ(fired, 2);
    EXPECT_DOUBLE_EQ(sim.now(), 5.0);
    EXPECT_EQ(sim.pendingEvents(), 1u);
}

TEST(SimulationContract, SchedulingIntoThePastFails)
{
    ScopedCheckFailHandler guard;
    Simulation sim;
    sim.at(10.0, [] {});
    sim.run();
    ASSERT_DOUBLE_EQ(sim.now(), 10.0);
    EXPECT_THROW(sim.at(9.999, [] {}), ContractViolation);
    EXPECT_EQ(sim.pendingEvents(), 0u);
}

TEST(SimulationContract, NegativeDelayFails)
{
    ScopedCheckFailHandler guard;
    Simulation sim;
    EXPECT_THROW(sim.after(-0.5, [] {}), ContractViolation);
    EXPECT_EQ(sim.pendingEvents(), 0u);
}

TEST(SimulationContract, RejectsNullCallback)
{
    ScopedCheckFailHandler guard;
    Simulation sim;
    EXPECT_THROW(sim.at(1.0, nullptr), ContractViolation);
    EXPECT_THROW(sim.after(1.0, nullptr), ContractViolation);
    EXPECT_EQ(sim.pendingEvents(), 0u);
}

TEST(SimulationContract, NonFiniteTimesFail)
{
    ScopedCheckFailHandler guard;
    Simulation sim;
    const double nan = std::nan("");
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_THROW(sim.at(nan, [] {}), ContractViolation);
    EXPECT_THROW(sim.after(nan, [] {}), ContractViolation);
    EXPECT_THROW(sim.at(inf, [] {}), ContractViolation);
    EXPECT_THROW(sim.after(inf, [] {}), ContractViolation);
    EXPECT_THROW(sim.runUntil(nan), ContractViolation);
    EXPECT_EQ(sim.pendingEvents(), 0u);
}

TEST(Simulation, ChainedSelfScheduling)
{
    // A classic periodic tick that reschedules itself five times.
    Simulation sim;
    int ticks = 0;
    std::function<void()> tick = [&] {
        ++ticks;
        if (ticks < 5)
            sim.after(10.0, tick);
    };
    sim.after(10.0, tick);
    sim.run();
    EXPECT_EQ(ticks, 5);
    EXPECT_DOUBLE_EQ(sim.now(), 50.0);
}

} // namespace
} // namespace aiwc::sim
