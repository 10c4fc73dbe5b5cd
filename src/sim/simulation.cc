#include "aiwc/sim/simulation.hh"

#include <cmath>
#include <limits>

#include "aiwc/base/check.hh"
#include "aiwc/obs/trace.hh"

namespace aiwc::sim
{

namespace
{

/** Cached registry handles for the event-dispatch hot path. */
struct SimMetrics
{
    obs::Counter &events_fired;
    obs::Histogram &event_ns;
    obs::Histogram &queue_depth;

    static SimMetrics &
    get()
    {
        static SimMetrics metrics{
            obs::MetricsRegistry::global().counter("aiwc.sim.events_fired"),
            obs::MetricsRegistry::global().histogram("aiwc.sim.event_ns"),
            obs::MetricsRegistry::global().histogram("aiwc.sim.queue_depth"),
        };
        return metrics;
    }
};

} // namespace

void
Simulation::at(Seconds when, std::function<void()> callback)
{
    AIWC_CHECK(callback, "scheduling a null callback");
    // A NaN timestamp poisons the heap ordering silently (every
    // comparison is false), so reject it loudly here.
    AIWC_CHECK(std::isfinite(when),
               "scheduling at a non-finite time: ", when);
    AIWC_CHECK_GE(when, now_, "scheduling into the past");
    events_.push(when, 0, std::move(callback));
}

void
Simulation::after(Seconds delay, std::function<void()> callback)
{
    AIWC_CHECK(std::isfinite(delay), "non-finite delay: ", delay);
    AIWC_CHECK_GE(delay, 0.0, "negative delay");
    at(now_ + delay, std::move(callback));
}

std::size_t
Simulation::dispatch(Seconds horizon)
{
    SimMetrics &metrics = SimMetrics::get();
    std::size_t fired = 0;
    while (!events_.empty() && events_.top().time <= horizon) {
        // Advance the clock BEFORE dispatching, so the callback (and
        // anything it schedules) sees the event's own time as now().
        const Seconds next = events_.top().time;
        AIWC_CHECK_GE(next, now_, "event clock moved backwards");
        now_ = next;
        metrics.queue_depth.observe(events_.size());
        {
            obs::ScopedTimer timer(metrics.event_ns);
            events_.pop().payload();
        }
        metrics.events_fired.add(1);
        ++fired;
    }
    return fired;
}

std::size_t
Simulation::run()
{
    obs::TraceSpan span("sim.run");
    return dispatch(std::numeric_limits<Seconds>::infinity());
}

std::size_t
Simulation::runUntil(Seconds horizon)
{
    AIWC_CHECK(std::isfinite(horizon), "non-finite horizon: ", horizon);
    obs::TraceSpan span("sim.runUntil");
    const std::size_t fired = dispatch(horizon);
    if (now_ < horizon)
        now_ = horizon;
    return fired;
}

} // namespace aiwc::sim
