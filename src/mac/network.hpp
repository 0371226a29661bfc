// Convenience assembly of a complete simulated WLAN: simulator + medium +
// nodes, built from a link-gain matrix, with helpers for the two-pair
// competition runs the thesis measures (§4 methodology).
#pragma once

#include <memory>
#include <vector>

#include "src/capacity/error_models.hpp"
#include "src/mac/dcf.hpp"
#include "src/mac/medium.hpp"

namespace csense::mac {

/// Owns every object a scenario needs, in construction order. The
/// simulator comes first, so it is destroyed last, and nothing runs
/// after the nodes die: every pending event that captures a node or the
/// medium is destroyed with the queue, never popped.
class network {
public:
    network(radio_config radio, std::uint64_t seed);

    /// Add a node with the given MAC configuration; returns its id.
    node_id add_node(const mac_config& config);

    /// Pre-size per-node storage (nodes + medium) for `nodes`
    /// registrations. Purely an allocation hint; results never depend
    /// on it.
    void reserve_nodes(std::size_t nodes);

    /// Pre-size the medium's link storage for `links` gains (see
    /// medium::reserve_links). Purely an allocation hint; results never
    /// depend on it.
    void reserve_links(std::size_t links);

    /// Symmetric link gain in dB between two existing nodes.
    void set_link_gain_db(node_id a, node_id b, double gain_db);

    sim::simulator& sim() noexcept { return sim_; }
    medium& air() noexcept { return *medium_; }
    dcf_node& node(node_id id) { return *nodes_.at(id); }
    const dcf_node& node(node_id id) const { return *nodes_.at(id); }
    std::size_t node_count() const noexcept { return nodes_.size(); }

    /// Start all traffic sources and run for `duration_us`.
    void run(sim::time_us duration_us);

private:
    sim::simulator sim_;
    capacity::logistic_per_model errors_;
    std::unique_ptr<medium> medium_;
    std::vector<std::unique_ptr<dcf_node>> nodes_;
    std::uint64_t seed_;
    bool started_ = false;
};

/// Result of one two-pair competition run.
struct pair_run_result {
    double pps_pair1 = 0.0;  ///< delivered packets/second, pair 1
    double pps_pair2 = 0.0;
    double total_pps() const noexcept { return pps_pair1 + pps_pair2; }
    medium_counters counters;
};

/// Gains between the four nodes of a two-pair scenario; indices:
/// 0 = S1, 1 = R1, 2 = S2, 3 = R2.
struct two_pair_gains {
    double s1_r1 = 0.0;
    double s2_r2 = 0.0;
    double s1_s2 = 0.0;
    double s1_r2 = 0.0;
    double s2_r1 = 0.0;
    double r1_r2 = 0.0;
};

/// Run both senders simultaneously (broadcast, saturated) for
/// `duration_us` under the given carrier-sense mode and measure delivered
/// throughput at each designated receiver.
pair_run_result run_two_pair_competition(
    const radio_config& radio, const two_pair_gains& gains,
    const capacity::phy_rate& rate1, const capacity::phy_rate& rate2,
    cs_mode sense, sim::time_us duration_us, int payload_bytes,
    std::uint64_t seed);

/// Run one pair alone (the thesis' multiplexing measurement); returns
/// delivered packets/second.
double run_single_pair(const radio_config& radio, double sender_gain_db,
                       const capacity::phy_rate& rate,
                       sim::time_us duration_us, int payload_bytes,
                       std::uint64_t seed);

}  // namespace csense::mac
