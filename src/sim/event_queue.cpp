#include "src/sim/event_queue.hpp"

#include <algorithm>
#include <functional>

namespace csense::sim {

void event_queue::schedule(time_us at, inline_action action) {
    std::uint32_t index;
    if (!free_slots_.empty()) {
        index = free_slots_.back();
        free_slots_.pop_back();
    } else {
        index = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    }
    slots_[index] = std::move(action);
    heap_.push_back(entry{at, next_sequence_++, index});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
}

std::optional<std::pair<time_us, inline_action>> event_queue::pop_next_at_most(
    time_us until) {
    if (heap_.empty() || heap_.front().at > until) return std::nullopt;
    const entry top = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    heap_.pop_back();
    // Emplace straight into the optional: one inline_action move per
    // pop instead of two (the pair would otherwise be moved again).
    std::optional<std::pair<time_us, inline_action>> out;
    out.emplace(top.at, std::move(slots_[top.slot]));
    free_slots_.push_back(top.slot);
    return out;
}

}  // namespace csense::sim
