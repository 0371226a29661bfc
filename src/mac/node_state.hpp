// Hot per-node MAC state, packed one cache line per node.
//
// The DCF event handlers (channel updates, backoff timers, preamble
// wakes) touch a small, fixed set of fields on every event; leaving
// them scattered inside dcf_node means a dense-network event walks a
// ~500-byte object (stats map, traffic deque, quantile bins) to flip a
// bool. dcf_hot_state gathers exactly the per-event fields, and
// node_state_pool packs all nodes' hot state into contiguous chunks so
// the working set at N=2000 is ~125 KB of adjacent lines instead of
// 2000 scattered heap objects.
//
// Pointers into the pool are stable: chunks are fixed arrays that are
// never reallocated, only appended.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/sim/event_queue.hpp"

namespace csense::mac {

/// DCF station FSM state (hoisted from dcf_node so the hot block can
/// name it; dcf_node aliases it back as `state`).
enum class dcf_state : std::uint8_t {
    idle,          ///< no packet (traffic_mode::none or drained queue)
    contending,    ///< waiting for DIFS + backoff
    transmitting,  ///< own frame on the air
    awaiting_cts,
    awaiting_ack,
    responding,    ///< SIFS gap before CTS/ACK/data-after-CTS
};

/// The per-event working set of one DCF node: channel-sense state,
/// contention counters, and the timer generation. Exactly 64 bytes.
/// The sensed power itself lives in the medium, which owns the CCA
/// decision and reports only busy/idle flips.
struct dcf_hot_state {
    // Channel state.
    sim::time_us preamble_busy_until = 0.0;
    sim::time_us nav_until = 0.0;
    sim::time_us busy_since = 0.0;
    sim::time_us busy_accum_us = 0.0;
    // Contention / timer state.
    std::uint64_t timer_generation = 0;
    std::int32_t slots_left = 0;
    std::int32_t cw = 15;
    std::int32_t retries = 0;
    dcf_state state = dcf_state::idle;
    bool energy_busy = false;
    bool have_packet = false;
    bool difs_done = false;
    std::array<std::uint8_t, 8> padding{};  ///< fills the cache line
};

static_assert(sizeof(dcf_hot_state) == 64,
              "dcf_hot_state must stay one cache line; rebalance the "
              "field layout if you add state");

/// Chunked arena of hot-state blocks with stable addresses and
/// near-contiguous layout. Owned by the network; one allocate() per
/// node, released all at once with the pool.
class node_state_pool {
public:
    dcf_hot_state* allocate() {
        if (used_ == chunks_.size() * chunk_size) {
            chunks_.push_back(std::make_unique<chunk>());
        }
        dcf_hot_state* block =
            &(*chunks_[used_ / chunk_size])[used_ % chunk_size];
        ++used_;
        *block = dcf_hot_state{};
        return block;
    }

    std::size_t size() const noexcept { return used_; }

private:
    static constexpr std::size_t chunk_size = 512;
    using chunk = std::array<dcf_hot_state, chunk_size>;
    std::vector<std::unique_ptr<chunk>> chunks_;
    std::size_t used_ = 0;
};

}  // namespace csense::mac
