// Many-pair packet-level scenarios: N sender->receiver pairs on a random
// planar topology, every receiver exposed to the *cumulative*
// interference of all other senders. This is the scenario family where
// pairwise-sensing models are known to be optimistic (Fu, Liew & Huang's
// cumulative-interference analysis; Kai & Liew's critique of pairwise
// carrier-sensing models): with many senders, aggregate interference can
// break a receiver even though every individual interferer is weak.
//
// A topology is plain data (positions), so one draw can be replayed
// under several carrier-sense modes, rates, or radios - the seed x
// topology x config axes the campaign layer shards over. A matching
// analytic §3-style prediction (Shannon capacities plus the
// binary-cluster carrier-sense decision) supports model-vs-sim
// agreement checks at campaign scale.
#pragma once

#include <utility>
#include <vector>

#include "src/mac/adaptive_cs.hpp"
#include "src/mac/network.hpp"
#include "src/stats/quantile.hpp"
#include "src/stats/rng.hpp"

namespace csense::mac {

/// N sender->receiver pairs; positions in meters.
struct multi_pair_topology {
    struct position {
        double x = 0.0;
        double y = 0.0;
    };
    std::vector<position> senders;
    std::vector<position> receivers;

    std::size_t pairs() const noexcept { return senders.size(); }
};

/// Draw a random topology: senders uniform in an `arena_m`-sided square,
/// each receiver uniform in a disc of radius `rmax_m` around its sender.
multi_pair_topology sample_multi_pair_topology(int pairs, double arena_m,
                                               double rmax_m,
                                               stats::rng& gen);

/// Which per-sender bitrate-adaptation algorithm a multi-pair run
/// installs (unicast only: adaptation needs ACK feedback).
enum class rate_adapt_mode {
    off,          ///< the fixed config.rate for every pair
    arf,          ///< Auto Rate Fallback success/failure counters
    sample_rate,  ///< Bicket's SampleRate (per-sender split-RNG probing)
};

/// One simulated run's configuration.
struct multi_pair_config {
    radio_config radio;
    cs_mode sense = cs_mode::energy_and_preamble;
    const capacity::phy_rate* rate = nullptr;  ///< fixed data rate, all pairs
    double duration_us = 2e6;
    int payload_bytes = 1400;
    double alpha = 3.0;               ///< path-loss exponent for link gains
    double reference_loss_db = 47.0;  ///< loss at 1 m (5 GHz-ish)
    std::uint64_t seed = 1;

    /// Per-sender closed-loop threshold adaptation; defaults to `fixed`
    /// (off), in which case a run is byte-identical to one without any
    /// adaptation support compiled in.
    cs_adaptation_config adapt;

    /// Arrival process + queue capacity of every sender. The default
    /// (saturated) keeps the run byte-identical to the pre-queue MAC.
    traffic_config traffic;

    /// ACKed unicast to each pair's receiver instead of the historical
    /// unacknowledged broadcast. Required for rate adaptation and for
    /// retry/ACK semantics in the latency metrics.
    bool unicast = false;

    /// Bitrate adaptation per sender (requires unicast).
    rate_adapt_mode rate_adapt = rate_adapt_mode::off;

    /// Symmetric link gain for a node pair at distance `dist_m`.
    double gain_db(double dist_m) const;

    /// The energy-detection threshold (dBm) at which a sender at
    /// distance `dist_m` is exactly on the sensing edge: sensed power of
    /// a transmitter that far away. Maps the analytic model's threshold
    /// *distances* into the simulator's dBm units.
    double threshold_dbm_for_distance(double dist_m) const;

    /// Inverse of threshold_dbm_for_distance (clamped at 1 m, matching
    /// gain_db's near-field clamp).
    double distance_for_threshold_dbm(double threshold_dbm) const;
};

/// Delivered throughput of one simulated run.
struct multi_pair_result {
    std::vector<double> per_pair_pps;  ///< delivered pkt/s at receiver i
    double total_pps = 0.0;
    medium_counters counters;

    /// Adaptive carrier sense only (empty when config.adapt is `fixed`):
    /// each sender's threshold at the end of the run, and the
    /// across-sender mean threshold after every adaptation epoch.
    std::vector<double> final_cs_threshold_dbm;
    std::vector<double> mean_threshold_trajectory_dbm;

    /// Enqueue->delivery sojourn times of every delivered packet, merged
    /// across senders in pair-index order (deterministic). For
    /// unsaturated runs these are true queueing delays; saturated runs
    /// record pure service times.
    stats::streaming_quantiles sojourn_us;

    /// Offered-load accounting summed over senders (unsaturated sources
    /// only; saturated senders present no discrete arrivals).
    std::uint64_t offered_packets = 0;
    std::uint64_t queue_drops = 0;    ///< arrivals lost to full FIFOs
    std::uint64_t retry_drops = 0;    ///< unicast frames over the retry limit

    /// (queue_drops + retry_drops) / offered_packets; 0 when nothing was
    /// offered (saturated runs).
    double drop_rate = 0.0;

    /// Jain's fairness index over the per-pair throughputs.
    double jain_index() const noexcept;
};

/// Run all pairs saturated-broadcast for `duration_us` under the given
/// carrier-sense mode and measure delivery at each designated receiver.
multi_pair_result run_multi_pair(const multi_pair_topology& topology,
                                 const multi_pair_config& config);

/// Node-id pairs (a < b, in the flattened node order: sender i is node
/// 2i, receiver i is node 2i + 1) whose link is audible under the
/// config's radio audibility floor. Found through a spatial grid with
/// cell size equal to the audible range, so N-node gain setup is
/// O(N * k) instead of O(N^2); with the floor disabled every pair is
/// returned. Slight over-inclusion at the range boundary is possible
/// (and harmless - the medium re-checks the floor when it freezes the
/// neighbor lists); under-inclusion is not.
std::vector<std::pair<node_id, node_id>> audible_link_pairs(
    const multi_pair_topology& topology, const multi_pair_config& config);

/// Analytic §3-style prediction for an explicit topology, in the
/// simulator's dBm units: per-pair mean Shannon capacity under full
/// concurrency (cumulative interference) and under TDMA, plus the
/// binary-cluster carrier-sense decision (any sender pair sensed above
/// the energy-detect threshold puts the whole group into TDMA).
struct multi_pair_prediction {
    double concurrent = 0.0;    ///< per-pair mean bits/s/Hz, all senders on
    double multiplexing = 0.0;  ///< per-pair mean bits/s/Hz, 1/n share
    bool cs_defers = false;     ///< the cluster decision at cs_threshold_dbm
};

multi_pair_prediction predict_multi_pair(const multi_pair_topology& topology,
                                         const multi_pair_config& config);

}  // namespace csense::mac
