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
// Two backends share this contract and produce identical pop order:
//
//  - calendar: a timer wheel bucketed at MAC slot granularity with a
//    near-past heap and a beyond-horizon overflow heap. Arming is O(1)
//    instead of the binary heap's O(log n) sift, which is the win when
//    thousands of nodes hold standing backoff timers (the camp05 dense
//    regime). Wheel buckets are intrusive singly-linked lists threaded
//    through a dense per-slot side array (a slot holds at most one
//    pending event), so the wheel performs zero heap allocations once
//    the slot table reaches its high-water mark.
//  - heap: the original single binary heap, kept as the reference
//    implementation for differential tests and because it is the
//    faster structure when only a handful of events are pending (small
//    simulations; mac::network picks per scale at first run).
//
// Equivalence argument (why the calendar pops in exactly (time,
// sequence) order): tick(at) = floor(at / width) is monotone in `at`,
// so an entry with a strictly smaller tick is strictly earlier. The
// wheel only holds entries with tick in (current, current + buckets) -
// one tick per bucket - while the near heap holds tick <= current and
// the overflow heap tick >= current + buckets. The near heap is a full
// (time, sequence) min-heap, and entries only ever migrate overflow ->
// wheel -> near as the current tick advances, so the near heap's top is
// always the global minimum. Entries with equal times share a tick and
// therefore meet in the near heap, where insertion order breaks the
// tie. The randomized differential test in
// tests/test_event_queue_backends.cpp checks this end to end.
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

/// Scheduler backend selection. Both pop in identical order; the
/// calendar wheel is the default, the binary heap the faster structure
/// for a handful of pending events (mac::network picks per scale).
enum class queue_backend { calendar, heap };

/// Deterministically ordered event queue with slot-recycling storage
/// for the scheduled actions.
class event_queue {
public:
    explicit event_queue(queue_backend backend = queue_backend::calendar);

    /// Switch backend while no event is pending. Returns false - leaving
    /// the queue untouched - otherwise. Lets owners that only learn
    /// their scale after construction (a network learns its node count
    /// as nodes are added) pick the backend at first run.
    bool reconfigure(queue_backend backend);

    /// Schedule `action` at absolute time `at`.
    void schedule(time_us at, inline_action action);

    /// True when no pending events remain.
    bool empty() const noexcept { return pending_ == 0; }

    /// Number of pending events.
    std::size_t size() const noexcept { return pending_; }

    /// Time of the earliest pending event; requires !empty().
    time_us next_time() const;

    /// Pop and run the earliest event; returns its time. Requires !empty().
    /// Note: the action runs with no notion of "now"; simulation kernels
    /// should use pop_next() and advance their clock before invoking.
    time_us run_next();

    /// Pop the earliest event without running it; returns its time and
    /// action so the caller can advance its clock first. Requires !empty().
    std::pair<time_us, inline_action> pop_next();

    /// Pop the earliest event only if it is scheduled at or before
    /// `until`; std::nullopt when the queue is empty or the next event
    /// lies beyond the horizon. One fused settle + pop per event instead
    /// of the next_time() + pop_next() pair - the simulation kernel's
    /// run_until loop executes hundreds of millions of events in a
    /// dense-network campaign.
    std::optional<std::pair<time_us, inline_action>> pop_next_at_most(
        time_us until);

    /// Size of the internal slot table: the high-water mark of
    /// *concurrently* pending events, independent of how many events were
    /// ever scheduled (the bounded-memory guarantee regression tests pin).
    std::size_t slot_count() const noexcept { return slots_.size(); }

    /// The backend this queue was constructed with.
    queue_backend backend() const noexcept { return backend_; }

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

    /// Wheel residency of one slot (calendar backend): the entry payload
    /// minus the slot index (the array index), plus the singly-linked
    /// intrusive bucket-list link. Kept in a dense 24-byte side array
    /// rather than next to the 96-byte action: draining a bucket walks
    /// its chain through *other* slots' nodes, and with thousands of
    /// pending timers (the camp05 regime) those touches must land in a
    /// compact, cache-resident array instead of dragging in a full
    /// action line each.
    struct wheel_node {
        time_us at;
        std::uint64_t sequence;
        std::uint32_t next;
    };

    /// Map a timestamp to its wheel tick; clamped to [0, kMaxTick] so
    /// negative and astronomically large times stay well-defined (they
    /// sort correctly via the heaps regardless).
    std::uint64_t tick_of(time_us at) const noexcept;

    /// Route a fresh entry to the near heap / wheel / overflow heap.
    void place(entry e);

    /// Establish: near_ top is the earliest pending entry with tick <=
    /// limit_tick, or no such entry exists. Advances the wheel /
    /// rebases the overflow heap only through buckets at or before
    /// limit_tick - a bounded pop (run_until's horizon) must not drag
    /// current_tick_ to some far-future event, or every later schedule
    /// would land behind the wheel in the near heap and the structure
    /// degenerates into a plain binary heap. Never changes the
    /// observable pop order.
    void settle(std::uint64_t limit_tick);

    /// Drain the first occupied wheel bucket into the near heap and
    /// advance current_tick_ to its tick, unless that tick exceeds
    /// limit_tick (returns false, state untouched). Requires
    /// wheel_count_ > 0.
    bool advance_wheel(std::uint64_t limit_tick);

    /// Re-anchor the wheel at `tick` and re-place every overflow entry.
    void rebase(std::uint64_t tick);

    queue_backend backend_ = queue_backend::calendar;

    // --- calendar backend state ---
    static constexpr std::uint32_t kNil = 0xffffffffu;  ///< list sentinel
    /// Wheel bucket width: the 802.11a/g slot time. MAC timers land on
    /// slot boundaries, so one bucket rarely holds more than a handful
    /// of events.
    static constexpr time_us kBucketWidthUs = 9.0;
    static constexpr time_us kInvBucketWidth = 1.0 / kBucketWidthUs;
    /// Wheel size (a power of two): 4096 buckets x 9 us ~ 37 ms of
    /// horizon covers every MAC timer; only long timeouts and
    /// idle-source arrivals overflow.
    static constexpr std::uint32_t kBucketCount = 4096;
    static constexpr std::uint32_t kBucketMask = kBucketCount - 1;

    /// Entries with tick <= current_tick_: a (time, sequence) min-heap.
    /// The pop path only ever pops from here.
    std::vector<entry> near_;
    /// Wheel: bucket_head_[t & kBucketMask] heads an intrusive list of
    /// exactly the entries of one tick t in (current_tick_,
    /// current_tick_ + kBucketCount). List links and entry payloads live
    /// in wheel_node_, indexed by slot - a slot has at most one pending
    /// event, so this storage tracks the slot table's high-water mark
    /// and the wheel never allocates per insert.
    std::vector<std::uint32_t> bucket_head_;
    std::vector<wheel_node> wheel_node_;  ///< indexed by slot
    /// One bit per bucket: non-empty. Scanned 64 buckets at a step.
    std::vector<std::uint64_t> occupied_;
    /// Entries with tick >= current_tick_ + kBucketCount, min-heap.
    std::vector<entry> far_;
    /// Reused by rebase() so re-anchoring allocates nothing in steady
    /// state.
    std::vector<entry> rebase_scratch_;
    std::uint64_t current_tick_ = 0;
    /// Lower bound on the tick of the earliest occupied wheel bucket:
    /// no bucket with tick in (current_tick_, wheel_hint_) is occupied.
    /// Lets a bounded advance_wheel() reject horizons before the next
    /// event in O(1) instead of re-scanning the occupancy bitmap on
    /// every run_until() that ends between events.
    std::uint64_t wheel_hint_ = 0;
    std::size_t wheel_count_ = 0;

    // --- heap backend state ---
    std::vector<entry> heap_;  ///< std::push_heap/pop_heap, min at front

    /// The scheduled actions, indexed by entry::slot; free_slots_ holds
    /// the indices whose action has popped.
    std::vector<inline_action> slots_;
    std::vector<std::uint32_t> free_slots_;
    std::uint64_t next_sequence_ = 0;
    std::size_t pending_ = 0;
};

}  // namespace csense::sim
