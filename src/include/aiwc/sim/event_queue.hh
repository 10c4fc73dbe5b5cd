/**
 * @file
 * Discrete-event queue: the one event core shared by the cluster
 * replay (`sim::Simulation`) and the scenario cell engine.
 *
 * Events fire in (time, rank, seq) order. `rank` orders kinds of
 * events that share a timestamp; `seq` is assigned on push, so events
 * equal in time and rank fire in push order. That total order keeps
 * the whole 125-day replay and every scenario cell deterministic.
 */

#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "aiwc/base/check.hh"
#include "aiwc/common/types.hh"

namespace aiwc::sim
{

/**
 * A min-heap of timed payloads. The payload lives in the heap entry
 * itself, so a push allocates nothing beyond the heap's own growth.
 */
template <typename Payload>
class EventQueue
{
  public:
    struct Event
    {
        Seconds time;
        int rank;
        std::uint64_t seq;  //!< tie-break: push order
        Payload payload;
    };

    /** Schedule `payload` at `time`; lower ranks fire first on a tie. */
    void
    push(Seconds time, int rank, Payload payload)
    {
        // A NaN time compares false against everything and silently
        // breaks the heap order; infinity would never fire.
        AIWC_CHECK(std::isfinite(time),
                   "pushing an event at a non-finite time: ", time);
        heap_.push_back(Event{time, rank, next_seq_++, std::move(payload)});
        std::push_heap(heap_.begin(), heap_.end(), Later{});
    }

    /** The earliest event; requires !empty(). */
    const Event &
    top() const
    {
        AIWC_CHECK(!heap_.empty(), "top() on an empty event queue");
        return heap_.front();
    }

    /** Remove and return the earliest event; requires !empty(). */
    Event
    pop()
    {
        AIWC_CHECK(!heap_.empty(), "pop() on an empty event queue");
        std::pop_heap(heap_.begin(), heap_.end(), Later{});
        Event ev = std::move(heap_.back());
        heap_.pop_back();
        return ev;
    }

    bool empty() const { return heap_.empty(); }

    /** Number of pending events. */
    std::size_t size() const { return heap_.size(); }

  private:
    /** Heap order; a function object so the heap calls inline. */
    struct Later
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            if (a.time != b.time)
                return a.time > b.time;
            if (a.rank != b.rank)
                return a.rank > b.rank;
            return a.seq > b.seq;
        }
    };

    std::vector<Event> heap_;
    std::uint64_t next_seq_ = 0;
};

} // namespace aiwc::sim
