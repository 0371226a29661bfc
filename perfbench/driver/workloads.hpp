// The benchmark's four workloads and the per-run outputs it validates.
//
// Every workload is a closed batch: one topology per replication, each
// replayed through all of the workload's config cells (common random
// numbers), replications back to back on one thread. The inputs derive
// only from the --seed argument.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "src/mac/multi_pair.hpp"

namespace perfbench {

/// Outputs of one simulated run, in the order they are checkpointed.
/// The traced probe must reproduce all of them bit for bit.
enum field : std::size_t {
    f_total_pps,
    f_transmissions,
    f_slot_collisions,
    f_chain_collisions,
    f_busy_starts,
    f_drop_rate,
    f_p50_us,
    f_p99_us,
    f_final_thr_dbm,  ///< mean sender threshold at run end
    n_fields,
};
using run_summary = std::array<double, n_fields>;

struct workload {
    const char* name;
    int pairs;
    double arena_m;
    double rmax_m;
    std::uint64_t campaign_salt;  ///< campaign seed = --seed ^ salt
    /// Set-up runs the offline §3 threshold solve (core layer).
    bool solves_threshold;
    /// The solved threshold replaces every cell's static CS threshold.
    bool applies_threshold;
    std::vector<csense::mac::multi_pair_config> cells;
    std::size_t replications;  ///< per pass (one campaign)
    /// Reference delivered pps: the mean over seeds of one replication's
    /// total_pps averaged over its cells, and its standard deviation
    /// across seeds. A campaign of R replications must land within five
    /// standard errors (5 * reference_sd / sqrt(R)) of reference_pps.
    double reference_pps;
    double reference_sd;
};

const std::vector<workload>& workloads();
const workload* find_workload(std::string_view name);

/// The §3 solve camp05 runs: the concurrency-vs-multiplexing crossing
/// of the expectation engine, mapped to the simulator's dBm threshold.
double solve_tuned_threshold_dbm(const workload& w, std::uint64_t seed);

/// The same mean over senders the probe computes; `fallback` (the
/// static threshold) when the run had no adaptive controllers.
double mean_threshold_dbm(const std::vector<double>& thresholds,
                          double fallback);

run_summary summarize(const csense::mac::multi_pair_result& result,
                      const csense::mac::multi_pair_config& config);

/// Structural invariants of one run: pps >= 0, busy and drop rates in
/// [0, 1], p99 >= p50 > 0. A run may deliver nothing (a carrier-sense-off
/// run whose pairs collide constantly); its replication may not.
bool summary_valid(const run_summary& s);

}  // namespace perfbench
