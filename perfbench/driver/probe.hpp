// The traced run's layer probe: assembles one run through mac::network's
// public API exactly as mac::run_multi_pair does, timing each layer call
// and reading the counters only that route exposes (events executed,
// per-node DCF stats, CSR row sizes, transmission-log size).
#pragma once

#include <cstdint>

#include "driver/trace.hpp"
#include "driver/workloads.hpp"

namespace perfbench {

/// Deterministic per-layer work counts, summed over a pass's runs.
struct layer_counts {
    std::uint64_t links = 0;          ///< audible link pairs (all pairs
                                      ///< on the exact medium)
    std::uint64_t degree_sum = 0;     ///< sum of medium::neighbor_count
    std::uint64_t nodes = 0;
    std::uint64_t events = 0;         ///< simulator::events_executed
    std::uint64_t transmissions = 0;
    std::uint64_t busy_starts = 0;
    std::uint64_t chain_collisions = 0;
    std::uint64_t slot_collisions = 0;
    std::uint64_t row_visits = 0;     ///< computed: frames on air x row size
    std::uint64_t log_entries_end = 0;///< max transmission_log_size at end
    std::uint64_t data_sent = 0;
    std::uint64_t acks_sent = 0;
    std::uint64_t defer_events = 0;
    std::uint64_t rx_decoded = 0;
    std::uint64_t rx_lost = 0;
    std::uint64_t retry_drops = 0;
    std::uint64_t queue_drops = 0;
    std::uint64_t offered = 0;
    std::uint64_t epochs = 0;         ///< adaptive-CS epochs
    double final_thr_sum_dbm = 0.0;   ///< over runs; see run_summary
    std::uint64_t runs = 0;

    bool operator==(const layer_counts&) const = default;
};

/// One run of `config` over `topology`, spans recorded into `trace`.
/// Returns the same summary run_multi_pair's result gives.
run_summary probe_run(const csense::mac::multi_pair_topology& topology,
                      const csense::mac::multi_pair_config& config,
                      tracer& trace, layer_counts& counts);

}  // namespace perfbench
