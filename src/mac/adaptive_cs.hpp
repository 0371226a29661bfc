// Closed-loop, per-node carrier-sense threshold control inside the
// packet-level DCF simulator.
//
// The paper's central claim is that a *well-tuned* energy-detection
// threshold closes most of the gap to optimal scheduling; tab02/abl05
// compute those tuned thresholds offline. This module feeds the tuning
// back into the running MAC: each sender keeps EWMA estimates of its
// sensed busy-time fraction and delivery loss rate, and a pluggable
// policy (cs_adapt_policy in src/mac/wireless_config.hpp) moves the
// node's effective cs_threshold_dbm once per adaptation epoch through
// the dcf_node::set_cs_threshold_dbm hook:
//
//  - `aimd`            raises the threshold additively while the loss
//                      EWMA stays under its target and backs it off by a
//                      fixed step when congestion shows (Chau et al.'s
//                      adaptive-CS flavour);
//  - `target_busy`     integral-controls the busy-time fraction to a set
//                      point, which places the threshold at the matching
//                      quantile of the sensed-power distribution;
//  - `iterative_fixed_point`
//                      the online analogue of Kim & Kim's iteration
//                      (src/core/adaptive_threshold.hpp): step the
//                      threshold until the link's Shannon capacity
//                      under the marginal admitted contender - sensed
//                      at exactly the current threshold power, the
//                      pairwise D >> r approximation - equals the fair
//                      half share, i.e. the same concurrency-vs-
//                      multiplexing crossing the offline model solves,
//                      driven by the fed-back receiver RSSI.
//
// Each law's gains are calibration constants in adaptive_cs.cpp
// (camp03 tuned them); only the policy, the epoch and the dither are
// per-node settings (cs_adaptation_config).
//
// Determinism: controllers are driven by a single per-network epoch
// event that visits senders in node-index order, and each controller's
// dither stream is stats::rng(seed).split(sender id) - a function of
// (seed, node index) only. Campaign replications that shard adaptive
// runs across threads therefore stay bit-identical for every worker
// count.
#pragma once

#include <cstdint>
#include <vector>

#include "src/mac/network.hpp"
#include "src/stats/rng.hpp"

namespace csense::mac {

/// One adapted sender and the receiver whose deliveries ground its loss
/// signal (in the simulator the designated receiver's
/// decode counts stand in for the receiver feedback a real adaptive MAC
/// would piggyback on ACKs).
struct adaptive_cs_link {
    node_id sender = 0;
    node_id receiver = 0;
};

/// One epoch's measurements for a single sender.
struct adaptive_cs_sample {
    double busy_fraction = 0.0;  ///< share of the epoch the CCA was busy
    double attempts = 0.0;       ///< data frames put on the air
    double delivered = 0.0;      ///< frames decoded at the paired receiver
};

/// The per-node control law. Pure state machine: feed it one sample per
/// epoch, read back the clamped threshold. Usable standalone in tests;
/// adaptive_cs_manager wires it to a live network.
class adaptive_cs_controller {
public:
    /// Hard clamp of every policy's output, dBm.
    static constexpr double min_threshold_dbm = -95.0;
    static constexpr double max_threshold_dbm = -60.0;

    /// `signal_dbm` is the sender->receiver received power, `noise_dbm`
    /// the radio noise floor, and `contenders` the number of competing
    /// senders - the quantities the fixed-point balance needs. `stream`
    /// must be a split stream keyed by the node index so runs are
    /// reproducible regardless of scheduling. Throws
    /// std::invalid_argument on nonsensical configuration.
    adaptive_cs_controller(const cs_adaptation_config& config,
                           double initial_threshold_dbm, double signal_dbm,
                           double noise_dbm, int contenders,
                           stats::rng stream);

    /// Consume one epoch of measurements; returns the new threshold,
    /// already clamped to [min_threshold_dbm, max_threshold_dbm].
    double on_epoch(const adaptive_cs_sample& sample);

    double threshold_dbm() const noexcept { return threshold_dbm_; }

private:
    cs_adaptation_config config_;
    double threshold_dbm_;
    double signal_dbm_;
    double noise_dbm_;
    int contenders_;
    stats::rng rng_;

    double busy_ewma_ = 0.0;
    double loss_ewma_ = 0.0;
};

/// Drives one controller per sender inside a running network: a single
/// recurring simulator event samples every sender's counters (in
/// node-index order), updates its controller, and installs the new
/// threshold via dcf_node::set_cs_threshold_dbm. Each controller is
/// configured from its own sender's mac_config::adapt (the per-node
/// hook), so policies may differ per node; the epoch cadence is taken
/// from the first link's config. Must outlive the network's run.
class adaptive_cs_manager {
public:
    /// `seed` must derive only from the replication's seed; controller
    /// dither streams are split(sender id) from it. Throws
    /// std::invalid_argument when `links` is empty or any sender's
    /// adaptation config is nonsensical.
    adaptive_cs_manager(network& net, std::vector<adaptive_cs_link> links,
                        std::uint64_t seed);

    /// Captures counter baselines and schedules the first epoch. Call
    /// after traffic is configured, before (or at) simulation start.
    void start();

    /// Adaptation epochs completed so far.
    std::size_t epochs() const noexcept {
        return mean_trajectory_dbm_.size();
    }

    /// Mean threshold across senders after each completed epoch.
    const std::vector<double>& mean_threshold_trajectory_dbm() const noexcept {
        return mean_trajectory_dbm_;
    }

    /// Current per-sender thresholds, in link order.
    std::vector<double> thresholds_dbm() const;

private:
    struct link_state {
        adaptive_cs_link link;
        adaptive_cs_controller controller;
        // Cumulative counters as of the previous epoch boundary.
        double busy_us = 0.0;
        std::uint64_t sent = 0;
        std::uint64_t delivered = 0;
    };

    void on_epoch();
    static std::uint64_t delivered_from(const dcf_node& receiver,
                                        node_id sender);

    network& net_;
    double epoch_us_;  ///< shared cadence: the first link's epoch_us
    std::vector<link_state> links_;
    std::vector<double> mean_trajectory_dbm_;
    bool started_ = false;
};

}  // namespace csense::mac
