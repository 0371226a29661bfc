#include "src/sim/simulator.hpp"

#include <limits>
#include <stdexcept>

#include "src/core/parallel.hpp"

namespace csense::sim {
namespace {

// One cooperative cancellation check every 64k events: a packet-level
// replication can run for minutes, and shard boundaries alone would
// leave the bench watchdog waiting a whole replication before its
// cancel unwinds. The mask keeps the hot loop at one branch + one
// relaxed atomic load per slice.
constexpr std::uint64_t kCancelCheckMask = (1u << 16) - 1;

}  // namespace

// The negated compares also reject NaN, still with one compare each.
void simulator::schedule_in(time_us delay, inline_action action) {
    if (!(delay >= 0.0)) {
        throw std::invalid_argument("schedule_in: negative or NaN delay");
    }
    queue_.schedule(now_ + delay, std::move(action));
}

void simulator::schedule_at(time_us at, inline_action action) {
    if (!(at >= now_)) {
        throw std::invalid_argument("schedule_at: time in the past or NaN");
    }
    queue_.schedule(at, std::move(action));
}

void simulator::drain(time_us until) {
    while (auto next = queue_.pop_next_at_most(until)) {
        now_ = next->first;  // advance the clock before the action runs
        next->second();
        if ((++executed_ & kCancelCheckMask) == 0) {
            core::throw_if_cancelled();
        }
    }
}

void simulator::run_until(time_us until) {
    drain(until);
    if (now_ < until) now_ = until;
}

void simulator::run_all() {
    drain(std::numeric_limits<time_us>::infinity());
}

}  // namespace csense::sim
