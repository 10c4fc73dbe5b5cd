/**
 * @file
 * Simulation clock and run loop, wrapping the event queue with a
 * monotone notion of "now" that every component reads.
 */

#pragma once

#include <functional>

#include "aiwc/common/types.hh"
#include "aiwc/sim/event_queue.hh"

namespace aiwc::sim
{

/**
 * The simulation driver: owns the clock and the event queue, and runs
 * events in order until the queue drains or a horizon is reached.
 */
class Simulation
{
  public:
    /** Current simulation time in seconds. */
    Seconds now() const { return now_; }

    /** Schedule a callback at an absolute time >= now(). */
    void at(Seconds when, std::function<void()> callback);

    /** Schedule a callback `delay` seconds from now (delay >= 0). */
    void after(Seconds delay, std::function<void()> callback);

    /**
     * Run until the queue is empty. @return number of events fired.
     */
    std::size_t run();

    /**
     * Run until the queue is empty or the next event is past the
     * horizon; the clock is left at min(horizon, last event time).
     * @return number of events fired.
     */
    std::size_t runUntil(Seconds horizon);

    /** Events still pending. */
    std::size_t pendingEvents() const { return events_.size(); }

  private:
    /** Fire every event at or before `horizon`, in queue order. */
    std::size_t dispatch(Seconds horizon);

    /** Every replay event has rank 0: it fires in (time, seq) order. */
    EventQueue<std::function<void()>> events_;
    Seconds now_ = 0.0;
};

} // namespace aiwc::sim
