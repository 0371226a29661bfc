// The simulation kernel: a clock plus the event queue, with run-until
// semantics. MAC components hold a reference to the simulator and
// schedule relative to now(). Scheduling is the whole interface: an
// event, once scheduled, fires, and a component that changes its mind
// makes the event a no-op (see event_queue.hpp). Every object an event
// captures must therefore outlive every run_until() that may pop it.
#pragma once

#include "src/sim/event_queue.hpp"

namespace csense::sim {

/// Discrete-event simulator kernel.
class simulator {
public:
    /// Current simulation time (us).
    time_us now() const noexcept { return now_; }

    /// Schedule an action `delay` microseconds from now (delay >= 0).
    /// Actions are allocation-free inline_actions: captures must fit the
    /// 64-byte buffer (compile-time checked). Throws
    /// std::invalid_argument on a negative or NaN delay.
    void schedule_in(time_us delay, inline_action action);

    /// Schedule an action at an absolute time (>= now). Throws
    /// std::invalid_argument on a past or NaN time.
    void schedule_at(time_us at, inline_action action);

    /// Run events until the queue empties or the clock passes `until`.
    /// Events at exactly `until` are executed.
    void run_until(time_us until);

    /// Run all events to exhaustion (use only with self-limiting models).
    void run_all();

    /// Number of events executed so far.
    std::uint64_t events_executed() const noexcept { return executed_; }

private:
    /// Pop and run every event at or before `until`, advancing the
    /// clock to each event's time before its action runs.
    void drain(time_us until);

    event_queue queue_;
    time_us now_ = 0.0;
    std::uint64_t executed_ = 0;
};

}  // namespace csense::sim
