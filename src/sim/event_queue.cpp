#include "src/sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>

namespace csense::sim {

namespace {

/// settle() bound meaning "no bound": larger than any clamped tick.
constexpr std::uint64_t kUnboundedTick = ~std::uint64_t{0};

}  // namespace

event_queue::event_queue(queue_backend backend) { reconfigure(backend); }

bool event_queue::reconfigure(queue_backend backend) {
    if (pending_ != 0) return false;
    backend_ = backend;
    current_tick_ = 0;
    wheel_hint_ = 0;
    if (backend_ == queue_backend::calendar) {
        bucket_head_.assign(kBucketCount, kNil);
        occupied_.assign(kBucketCount / 64, 0);
    } else {
        bucket_head_.clear();
        occupied_.clear();
    }
    return true;
}

std::uint64_t event_queue::tick_of(time_us at) const noexcept {
    if (!(at > 0.0)) return 0;  // negative (and NaN) times order via near_
    // Multiply by the precomputed reciprocal: tick_of runs several
    // times per event and a divide costs ~10x a multiply. Rounding may
    // shift a boundary value by one tick relative to true division -
    // harmless, because pop order only needs tick_of to be monotone in
    // `at` (any monotone bucketing is; the near heap re-sorts by exact
    // time) and deterministic, which a fixed reciprocal is.
    const double quotient = at * kInvBucketWidth;
    // Clamp before the double -> integer cast: 4e18 < 2^62, so the
    // clamped tick still compares correctly against every real tick and
    // current_tick_ + kBucketCount cannot overflow.
    constexpr double kMaxTick = 4.0e18;
    if (quotient >= kMaxTick) return static_cast<std::uint64_t>(kMaxTick);
    return static_cast<std::uint64_t>(quotient);
}

void event_queue::place(entry e) {
    const std::uint64_t tick = tick_of(e.at);
    if (tick <= current_tick_) {
        near_.push_back(e);
        std::push_heap(near_.begin(), near_.end(), std::greater<>{});
        return;
    }
    if (tick - current_tick_ <= kBucketMask) {
        const auto b = static_cast<std::uint32_t>(tick & kBucketMask);
        wheel_node_[e.slot] = wheel_node{e.at, e.sequence, bucket_head_[b]};
        bucket_head_[b] = e.slot;
        occupied_[b >> 6] |= std::uint64_t{1} << (b & 63);
        ++wheel_count_;
        if (tick < wheel_hint_) wheel_hint_ = tick;
        return;
    }
    far_.push_back(e);
    std::push_heap(far_.begin(), far_.end(), std::greater<>{});
}

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
    const entry e{at, next_sequence_++, index};
    if (backend_ == queue_backend::heap) {
        heap_.push_back(e);
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
    } else {
        // Per-slot wheel storage grows only at the slot high-water mark.
        if (wheel_node_.size() < slots_.size()) {
            wheel_node_.resize(slots_.size());
        }
        place(e);
    }
    ++pending_;
}

bool event_queue::advance_wheel(std::uint64_t limit_tick) {
    // Nothing occupied at or before the limit: reject without scanning.
    if (wheel_hint_ > limit_tick) return false;
    // Find the first occupied bucket in circular order after the
    // current one (which is empty by the wheel invariant), 64 buckets
    // per bitmap word.
    const auto cur_pos = static_cast<std::uint32_t>(current_tick_ & kBucketMask);
    const std::uint32_t start = (cur_pos + 1) & kBucketMask;
    const auto words = static_cast<std::uint32_t>(occupied_.size());
    std::uint32_t found;
    const std::uint32_t start_word = start >> 6;
    const std::uint64_t first =
        occupied_[start_word] >> (start & 63);
    if (first != 0) {
        found = start + static_cast<std::uint32_t>(std::countr_zero(first));
    } else {
        found = 0;
        for (std::uint32_t step = 1;; ++step) {
            const std::uint32_t w = (start_word + step) & (words - 1);
            if (occupied_[w] != 0) {
                found = (w << 6) +
                        static_cast<std::uint32_t>(std::countr_zero(occupied_[w]));
                break;
            }
        }
    }
    // All entries in the found bucket share one tick; recover it from
    // the circular distance.
    const std::uint32_t delta = (found - cur_pos) & kBucketMask;
    if (current_tick_ + delta > limit_tick) {
        // The scan found the exact earliest occupied tick; remember it
        // so repeated bounded pops before that event skip the scan.
        wheel_hint_ = current_tick_ + delta;
        return false;
    }
    current_tick_ += delta;
    wheel_hint_ = current_tick_;  // drained below; next minimum unknown
    std::uint32_t s = bucket_head_[found];
    std::size_t drained = 0;
    while (s != kNil) {
        const wheel_node& node = wheel_node_[s];
        near_.push_back(entry{node.at, node.sequence, s});
        std::push_heap(near_.begin(), near_.end(), std::greater<>{});
        ++drained;
        s = node.next;
    }
    bucket_head_[found] = kNil;
    wheel_count_ -= drained;
    occupied_[found >> 6] &= ~(std::uint64_t{1} << (found & 63));
    return true;
}

void event_queue::rebase(std::uint64_t tick) {
    current_tick_ = tick;
    wheel_hint_ = tick;
    rebase_scratch_.swap(far_);  // far_ becomes the (empty) scratch
    for (const entry& e : rebase_scratch_) place(e);
    rebase_scratch_.clear();
}

void event_queue::settle(std::uint64_t limit_tick) {
    for (;;) {
        // Pull overflow entries the advancing horizon has reached. Every
        // far_ entry is later than every wheel entry (tick >= current +
        // buckets > any wheel tick), so migrating before the wheel
        // drains preserves pop order; skipping this would strand an
        // overflow event once current_tick_ moves past it.
        const std::uint64_t horizon = current_tick_ + kBucketMask + 1;
        while (!far_.empty() && tick_of(far_.front().at) < horizon) {
            const entry e = far_.front();
            std::pop_heap(far_.begin(), far_.end(), std::greater<>{});
            far_.pop_back();
            place(e);
        }
        if (!near_.empty()) return;
        if (wheel_count_ > 0) {
            if (!advance_wheel(limit_tick)) return;
            continue;
        }
        if (far_.empty()) return;  // queue is empty (pending_ == 0)
        const std::uint64_t target = tick_of(far_.front().at);
        // far_ is a min-heap, so if its top lies beyond the limit every
        // overflow entry does (tick_of is monotone): nothing to do.
        if (target > limit_tick) return;
        rebase(target);
    }
}

time_us event_queue::next_time() const {
    if (backend_ == queue_backend::heap) {
        if (heap_.empty()) {
            throw std::logic_error("event_queue::next_time: empty");
        }
        return heap_.front().at;
    }
    const_cast<event_queue*>(this)->settle(kUnboundedTick);
    if (near_.empty()) throw std::logic_error("event_queue::next_time: empty");
    return near_.front().at;
}

time_us event_queue::run_next() {
    auto [at, action] = pop_next();
    action();
    return at;
}

std::pair<time_us, inline_action> event_queue::pop_next() {
    auto next = pop_next_at_most(std::numeric_limits<time_us>::infinity());
    if (!next) throw std::logic_error("event_queue::pop_next: empty");
    return std::move(*next);
}

std::optional<std::pair<time_us, inline_action>> event_queue::pop_next_at_most(
    time_us until) {
    if (backend_ == queue_backend::heap) {
        if (heap_.empty() || heap_.front().at > until) return std::nullopt;
        const entry top = heap_.front();
        std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
        heap_.pop_back();
        std::optional<std::pair<time_us, inline_action>> out;
        out.emplace(top.at, std::move(slots_[top.slot]));
        free_slots_.push_back(top.slot);
        --pending_;
        return out;
    }
    settle(tick_of(until));
    if (near_.empty() || near_.front().at > until) return std::nullopt;
    const entry top = near_.front();
    std::pop_heap(near_.begin(), near_.end(), std::greater<>{});
    near_.pop_back();
    // Emplace straight into the optional: one inline_action move per
    // pop instead of two (the pair would otherwise be moved again).
    std::optional<std::pair<time_us, inline_action>> out;
    out.emplace(top.at, std::move(slots_[top.slot]));
    free_slots_.push_back(top.slot);
    --pending_;
    return out;
}

}  // namespace csense::sim
