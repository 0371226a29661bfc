#include "driver/probe.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include "src/mac/adaptive_cs.hpp"
#include "src/stats/kahan.hpp"

namespace perfbench {

using namespace csense;

namespace {

double distance(const mac::multi_pair_topology::position& a,
                const mac::multi_pair_topology::position& b) {
    return std::hypot(a.x - b.x, a.y - b.y);
}

}  // namespace

run_summary probe_run(const mac::multi_pair_topology& topology,
                      const mac::multi_pair_config& config, tracer& trace,
                      layer_counts& counts) {
    if (config.rate_adapt == mac::rate_adapt_mode::sample_rate) {
        throw std::invalid_argument("probe_run: sample_rate is not probed");
    }
    const std::size_t n = topology.pairs();
    std::vector<mac::multi_pair_topology::position> nodes;
    nodes.reserve(2 * n);
    for (std::size_t i = 0; i < n; ++i) {
        nodes.push_back(topology.senders[i]);
        nodes.push_back(topology.receivers[i]);
    }

    std::vector<std::pair<mac::node_id, mac::node_id>> links;
    {
        scoped_span s(&trace, "mac.topology.links");
        links = mac::audible_link_pairs(topology, config);
    }
    counts.links += links.size();

    // Declaration order mirrors run_multi_pair: the adapters outlive the
    // network, the adaptation manager dies before it.
    std::vector<std::unique_ptr<capacity::rate_adaptation>> adapters;
    std::unique_ptr<mac::network> net;
    std::unique_ptr<mac::adaptive_cs_manager> adaptation;
    std::vector<mac::node_id> senders(n), receivers(n);
    {
        scoped_span s(&trace, "mac.network.build");
        net = std::make_unique<mac::network>(config.radio, config.seed);
        net->reserve_nodes(2 * n);
        mac::mac_config sender_cfg;
        sender_cfg.sense = config.sense;
        sender_cfg.adapt = config.adapt;
        const mac::mac_config receiver_cfg;
        for (std::size_t i = 0; i < n; ++i) {
            senders[i] = net->add_node(sender_cfg);
            receivers[i] = net->add_node(receiver_cfg);
        }
        for (const auto& [a, b] : links) {
            net->set_link_gain_db(
                a, b, config.gain_db(distance(nodes[a], nodes[b])));
        }
        for (std::size_t i = 0; i < n; ++i) {
            mac::dcf_node& sender = net->node(senders[i]);
            if (config.unicast) {
                sender.set_traffic(mac::traffic_mode::unicast, receivers[i],
                                   *config.rate, config.payload_bytes);
            } else {
                sender.set_traffic(mac::traffic_mode::broadcast,
                                   mac::broadcast_id, *config.rate,
                                   config.payload_bytes);
            }
            if (!config.traffic.saturated()) {
                sender.set_traffic_model(config.traffic);
            }
            if (config.rate_adapt == mac::rate_adapt_mode::arf) {
                adapters.push_back(std::make_unique<capacity::arf>());
                sender.set_rate_adaptation(adapters.back().get());
            }
        }
        if (config.adapt.enabled()) {
            std::vector<mac::adaptive_cs_link> adapt_links;
            adapt_links.reserve(n);
            for (std::size_t i = 0; i < n; ++i) {
                adapt_links.push_back({senders[i], receivers[i]});
            }
            adaptation = std::make_unique<mac::adaptive_cs_manager>(
                *net, std::move(adapt_links),
                stats::rng(config.seed).split("adaptive_cs").next());
            adaptation->start();
        }
    }
    {
        scoped_span s(&trace, "sim.run");
        net->run(config.duration_us);
    }

    // Outputs, computed exactly as run_multi_pair computes them.
    run_summary out{};
    const double seconds = config.duration_us / 1e6;
    stats::kahan_sum total_pps;
    for (std::size_t i = 0; i < n; ++i) {
        const auto& by_src = net->node(receivers[i]).stats().rx_decoded_by_src;
        const auto it = by_src.find(senders[i]);
        total_pps.add(it != by_src.end() ? it->second / seconds : 0.0);
    }
    const auto& medium = net->air();
    const auto& mc = medium.counters();
    stats::streaming_quantiles sojourn;
    std::uint64_t offered = 0, queue_drops = 0, retry_drops = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const auto& sender = net->node(senders[i]);
        sojourn.merge(sender.sojourn_times());
        offered += sender.stats().offered_packets;
        queue_drops += sender.stats().queue_drops;
        retry_drops += sender.stats().data_dropped;
    }
    out[f_total_pps] = total_pps.value();
    out[f_transmissions] = static_cast<double>(mc.transmissions);
    out[f_slot_collisions] = static_cast<double>(mc.slot_collisions);
    out[f_chain_collisions] = static_cast<double>(mc.chain_collisions);
    out[f_busy_starts] = static_cast<double>(mc.busy_starts);
    out[f_drop_rate] = offered > 0
                           ? static_cast<double>(queue_drops + retry_drops) /
                                 static_cast<double>(offered)
                           : 0.0;
    out[f_p50_us] = sojourn.quantile(0.5);
    out[f_p99_us] = sojourn.quantile(0.99);
    out[f_final_thr_dbm] = mean_threshold_dbm(
        adaptation ? adaptation->thresholds_dbm() : std::vector<double>{},
        config.radio.cs_threshold_dbm);

    // Layer counts. Every run transmits, so the culled medium's
    // topology is frozen and neighbor_count is defined.
    counts.events += net->sim().events_executed();
    counts.transmissions += mc.transmissions;
    counts.busy_starts += mc.busy_starts;
    counts.chain_collisions += mc.chain_collisions;
    counts.slot_collisions += mc.slot_collisions;
    counts.log_entries_end = std::max<std::uint64_t>(
        counts.log_entries_end, medium.transmission_log_size());
    for (mac::node_id id = 0; id < net->node_count(); ++id) {
        const auto& st = net->node(id).stats();
        const std::uint64_t row = medium.neighbor_count(id);
        counts.degree_sum += row;
        counts.row_visits +=
            (st.data_sent + st.acks_sent + st.rts_sent + st.cts_sent) * row;
        counts.data_sent += st.data_sent;
        counts.acks_sent += st.acks_sent;
        counts.defer_events += st.defer_events;
        counts.rx_decoded += st.rx_data_decoded;
        counts.rx_lost += st.rx_data_lost;
        counts.retry_drops += st.data_dropped;
        counts.queue_drops += st.queue_drops;
        counts.offered += st.offered_packets;
    }
    counts.nodes += net->node_count();
    counts.epochs += adaptation ? adaptation->epochs() : 0;
    counts.final_thr_sum_dbm += out[f_final_thr_dbm];
    ++counts.runs;
    return out;
}

}  // namespace perfbench
