#include "src/mac/network.hpp"

#include <stdexcept>

namespace csense::mac {

network::network(radio_config radio, std::uint64_t seed) : seed_(seed) {
    medium_ = std::make_unique<medium>(sim_, radio, errors_, seed ^ 0xabcdef);
}

node_id network::add_node(const mac_config& config) {
    if (started_) throw std::logic_error("network::add_node: already running");
    auto node = std::make_unique<dcf_node>(
        sim_, *medium_, config,
        seed_ + 0x9e3779b9u * (nodes_.size() + 1));
    nodes_.push_back(std::move(node));
    return nodes_.back()->id();
}

void network::reserve_nodes(std::size_t nodes) {
    nodes_.reserve(nodes);
    medium_->reserve_nodes(nodes);
}

void network::reserve_links(std::size_t links) {
    medium_->reserve_links(links);
}

void network::set_link_gain_db(node_id a, node_id b, double gain_db) {
    medium_->set_link_gain_db(a, b, gain_db);
}

void network::run(sim::time_us duration_us) {
    if (!started_) {
        for (auto& node : nodes_) node->start();
        started_ = true;
    }
    sim_.run_until(sim_.now() + duration_us);
}

pair_run_result run_two_pair_competition(
    const radio_config& radio, const two_pair_gains& gains,
    const capacity::phy_rate& rate1, const capacity::phy_rate& rate2,
    cs_mode sense, sim::time_us duration_us, int payload_bytes,
    std::uint64_t seed) {
    network net(radio, seed);
    mac_config sender_cfg;
    sender_cfg.sense = sense;
    mac_config receiver_cfg;  // receivers never transmit; config irrelevant
    const node_id s1 = net.add_node(sender_cfg);
    const node_id r1 = net.add_node(receiver_cfg);
    const node_id s2 = net.add_node(sender_cfg);
    const node_id r2 = net.add_node(receiver_cfg);

    net.set_link_gain_db(s1, r1, gains.s1_r1);
    net.set_link_gain_db(s2, r2, gains.s2_r2);
    net.set_link_gain_db(s1, s2, gains.s1_s2);
    net.set_link_gain_db(s1, r2, gains.s1_r2);
    net.set_link_gain_db(s2, r1, gains.s2_r1);
    net.set_link_gain_db(r1, r2, gains.r1_r2);

    net.node(s1).set_traffic(traffic_mode::broadcast, broadcast_id,
                             rate1, payload_bytes);
    net.node(s2).set_traffic(traffic_mode::broadcast, broadcast_id,
                             rate2, payload_bytes);
    net.run(duration_us);

    pair_run_result result;
    const double seconds = duration_us / 1e6;
    const auto& stats1 = net.node(r1).stats().rx_decoded_by_src;
    const auto& stats2 = net.node(r2).stats().rx_decoded_by_src;
    const auto it1 = stats1.find(s1);
    const auto it2 = stats2.find(s2);
    result.pps_pair1 = (it1 != stats1.end()) ? it1->second / seconds : 0.0;
    result.pps_pair2 = (it2 != stats2.end()) ? it2->second / seconds : 0.0;
    result.counters = net.air().counters();
    return result;
}

double run_single_pair(const radio_config& radio, double sender_gain_db,
                       const capacity::phy_rate& rate,
                       sim::time_us duration_us, int payload_bytes,
                       std::uint64_t seed) {
    network net(radio, seed);
    mac_config cfg;  // defaults: CS on, though it is moot alone
    const node_id s = net.add_node(cfg);
    const node_id r = net.add_node(cfg);
    net.set_link_gain_db(s, r, sender_gain_db);
    net.node(s).set_traffic(traffic_mode::broadcast, broadcast_id,
                            rate, payload_bytes);
    net.run(duration_us);
    const auto& by_src = net.node(r).stats().rx_decoded_by_src;
    const auto it = by_src.find(s);
    const double seconds = duration_us / 1e6;
    return (it != by_src.end()) ? it->second / seconds : 0.0;
}

}  // namespace csense::mac
