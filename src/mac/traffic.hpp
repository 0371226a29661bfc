// Per-node traffic sources: the arrival process that feeds a dcf_node's
// FIFO queue. Saturated traffic has no source: the always-backlogged
// node schedules no arrival events and refills inline on packet
// completion, so every pre-existing scenario stays byte-identical. The
// unsaturated sources (Poisson, constant-bit-rate, interrupted-Poisson
// on/off) schedule arrivals as ordinary simulator events drawn from a
// per-node split RNG stream, which is what makes offered load
// deterministic at any thread count.
#pragma once

#include <memory>

#include "src/mac/wireless_config.hpp"
#include "src/sim/event_queue.hpp"
#include "src/stats/rng.hpp"

namespace csense::mac {

/// Arrival process of one node's offered traffic.
class traffic_source {
public:
    virtual ~traffic_source() = default;

    /// Gap to the next packet arrival, microseconds (> 0). Draws only
    /// from `gen`, the node's dedicated arrival stream.
    virtual sim::time_us next_interarrival_us(stats::rng& gen) = 0;
};

/// Build the source described by `config`; null for the saturated
/// model, which has no arrival process. Throws std::invalid_argument
/// on non-positive rates/durations for the models that need them.
std::unique_ptr<traffic_source> make_traffic_source(
    const traffic_config& config);

}  // namespace csense::mac
