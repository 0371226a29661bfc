// Discrete-event queue with deterministic ordering: events at equal
// timestamps fire in insertion order (a strict requirement for
// reproducible MAC simulations, where DIFS expiry and slot boundaries
// coincide constantly).
//
// The queue is schedule-only: an event, once scheduled, fires. Owners
// that need to retire a timer make the event a no-op instead (the DCF
// tags each timer with a per-node generation and a superseded timer
// returns at once when it pops). So every held entry is live, and
// memory is bounded by the number of *concurrently pending* events, not
// the number ever scheduled: a fired event returns its slot to a free
// list.
//
// One binary min-heap of (time, insertion sequence) entries orders the
// events. The actions stay in a slot table the entries index, so a sift
// moves 24-byte entries, never the 96-byte actions, and once the heap
// and the slot table reach their high-water marks neither scheduling
// nor popping allocates.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "src/sim/inline_action.hpp"

namespace csense::sim {

/// Simulation time in microseconds. Double precision keeps sub-slot
/// resolution over multi-minute runs (2^53 us ~ 285 years).
using time_us = double;

/// Deterministically ordered event queue with slot-recycling storage
/// for the scheduled actions.
class event_queue {
public:
    /// Schedule `action` at absolute time `at`.
    void schedule(time_us at, inline_action action);

    /// True when no pending events remain.
    bool empty() const noexcept { return heap_.empty(); }

    /// Number of pending events.
    std::size_t size() const noexcept { return heap_.size(); }

    /// Pop the earliest event only if it is scheduled at or before
    /// `until`; std::nullopt when the queue is empty or the next event
    /// lies beyond the horizon. The time comes back with the action so
    /// the caller can advance its clock before running it. The one pop:
    /// simulator::run_until passes its horizon, run_all +infinity.
    std::optional<std::pair<time_us, inline_action>> pop_next_at_most(
        time_us until);

    /// Size of the internal slot table: the high-water mark of
    /// *concurrently* pending events, independent of how many events were
    /// ever scheduled (the bounded-memory guarantee regression tests pin).
    std::size_t slot_count() const noexcept { return slots_.size(); }

private:
    struct entry {
        time_us at;
        std::uint64_t sequence;
        std::uint32_t slot;

        bool operator>(const entry& other) const noexcept {
            if (at != other.at) return at > other.at;
            return sequence > other.sequence;
        }
    };

    std::vector<entry> heap_;  ///< std::push_heap/pop_heap, min at front

    /// The scheduled actions, indexed by entry::slot; free_slots_ holds
    /// the indices whose action has popped.
    std::vector<inline_action> slots_;
    std::vector<std::uint32_t> free_slots_;
    std::uint64_t next_sequence_ = 0;
};

}  // namespace csense::sim
