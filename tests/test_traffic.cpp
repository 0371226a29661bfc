// Poisson arrivals and the per-node FIFO queue: the arrival stream,
// offered-load accounting, queue overflow drops, and the sojourn-time
// metrics the unsaturated campaigns report.
#include <gtest/gtest.h>

#include <cmath>

#include "src/capacity/error_models.hpp"
#include "src/capacity/rate_table.hpp"
#include "src/mac/multi_pair.hpp"
#include "src/mac/network.hpp"

namespace {

using namespace csense::mac;
using csense::capacity::rate_by_mbps;
using csense::stats::rng;

constexpr int payload = 1400;

traffic_config poisson_cfg(double pps) {
    traffic_config tc;
    tc.model = traffic_model::poisson;
    tc.offered_load_pps = pps;
    return tc;
}

struct pair_net {
    network net;
    node_id s, r;

    explicit pair_net(std::uint64_t seed) : net(radio_config{}, seed) {
        s = net.add_node(mac_config{});
        r = net.add_node(mac_config{});
        net.set_link_gain_db(s, r, -60.0);
    }
};

TEST(TrafficQueue, PoissonArrivalsDrawFromTheNodesTrafficStream) {
    // The node's gaps are exponential draws at offered_load_pps / 1e6
    // per us from the "traffic" child of its seed's stream, so at every
    // horizon the arrival count equals the number of running sums of
    // those draws at or below it (run_until executes events at exactly
    // the horizon). One final count could match another stream by
    // chance; ten checkpoints cannot.
    csense::sim::simulator sim;
    const csense::capacity::logistic_per_model errors;
    medium air(sim, radio_config{}, errors, 1);
    dcf_node node(sim, air, mac_config{}, 12);
    node.set_traffic(traffic_mode::broadcast, broadcast_id,
                     rate_by_mbps(24.0), payload);
    node.set_traffic_model(poisson_cfg(1000.0));
    node.start();

    rng stream = rng(12).split("traffic");
    double next_arrival_us = stream.exponential(1e-3);
    std::uint64_t expected = 0;
    for (int step = 1; step <= 10; ++step) {
        const double horizon_us = 5e4 * step;
        sim.run_until(horizon_us);
        while (next_arrival_us <= horizon_us) {
            ++expected;
            next_arrival_us += stream.exponential(1e-3);
        }
        EXPECT_EQ(node.stats().offered_packets, expected)
            << "at " << horizon_us << " us";
    }
    EXPECT_GT(expected, 400u);
}

TEST(TrafficSource, SaturatedIsTheDefaultAndFlagsItself) {
    // A sender never given a traffic model is saturated: it sends
    // without waiting for, or counting, any arrival.
    EXPECT_TRUE(traffic_config{}.saturated());
    EXPECT_FALSE(poisson_cfg(100.0).saturated());
    pair_net p(3);
    dcf_node& sender = p.net.node(p.s);
    sender.set_traffic(traffic_mode::broadcast, broadcast_id,
                       rate_by_mbps(24.0), payload);
    p.net.run(1e5);
    EXPECT_GT(sender.stats().data_sent, 0u);
    EXPECT_EQ(sender.stats().offered_packets, 0u);
}

TEST(TrafficSource, FactoryRejectsNonPositiveRates) {
    // set_traffic_model validates a config before it stores it: a
    // Poisson load must be > 0 and a queue capacity must not be
    // negative.
    pair_net q(4);
    dcf_node& node = q.net.node(q.s);
    traffic_config tc = poisson_cfg(0.0);
    EXPECT_THROW(node.set_traffic_model(tc), std::invalid_argument);
    tc.offered_load_pps = -50.0;
    EXPECT_THROW(node.set_traffic_model(tc), std::invalid_argument);
    tc.offered_load_pps = std::nan("");
    EXPECT_THROW(node.set_traffic_model(tc), std::invalid_argument);
    tc = poisson_cfg(100.0);
    tc.queue_capacity = -1;
    EXPECT_THROW(node.set_traffic_model(tc), std::invalid_argument);
    // The saturated model ignores the load.
    traffic_config saturated;
    saturated.offered_load_pps = 0.0;
    EXPECT_NO_THROW(node.set_traffic_model(saturated));
}

TEST(TrafficQueue, LowLoadDeliversTheOfferedPacketsWithSmallSojourns) {
    pair_net p(17);
    p.net.node(p.s).set_traffic(traffic_mode::unicast, p.r,
                                rate_by_mbps(24.0), payload);
    p.net.node(p.s).set_traffic_model(poisson_cfg(200.0));
    p.net.run(2e6);
    const auto& stats = p.net.node(p.s).stats();
    EXPECT_NEAR(static_cast<double>(stats.offered_packets), 400.0, 80.0);
    EXPECT_EQ(stats.queue_drops, 0u);  // ~10% utilisation never overflows
    // Everything offered is delivered, modulo the odd packet in flight
    // at the end of the run.
    EXPECT_GE(stats.data_acked + 2, stats.offered_packets);
    const auto& sojourn = p.net.node(p.s).sojourn_times();
    EXPECT_EQ(sojourn.count(), stats.data_acked);
    // At 10% load the sojourn is essentially one service time: DIFS +
    // backoff + ~580 us of data airtime + SIFS + ACK.
    EXPECT_GT(sojourn.quantile(0.5), 500.0);
    EXPECT_LT(sojourn.quantile(0.99), 5'000.0);
}

TEST(TrafficQueue, OverloadFillsTheQueueAndCountsDrops) {
    pair_net p(18);
    traffic_config tc = poisson_cfg(5'000.0);  // far beyond link capacity
    tc.queue_capacity = 16;
    p.net.node(p.s).set_traffic(traffic_mode::unicast, p.r,
                                rate_by_mbps(24.0), payload);
    p.net.node(p.s).set_traffic_model(tc);
    p.net.run(2e6);
    const auto& stats = p.net.node(p.s).stats();
    EXPECT_GT(stats.queue_drops, 1000u);
    EXPECT_LT(stats.data_acked, stats.offered_packets);
    // A full 16-deep queue bounds the sojourn at ~17 service times.
    const auto& sojourn = p.net.node(p.s).sojourn_times();
    EXPECT_GT(sojourn.quantile(0.5), 5'000.0);  // queueing dominates
    EXPECT_LT(sojourn.max(), 17.5 * 2'000.0);
}

TEST(TrafficQueue, SameSeedSameArrivalsAcrossRuns) {
    auto run = [](std::uint64_t seed) {
        pair_net p(seed);
        p.net.node(p.s).set_traffic(traffic_mode::unicast, p.r,
                                    rate_by_mbps(24.0), payload);
        p.net.node(p.s).set_traffic_model(poisson_cfg(800.0));
        p.net.run(2e6);
        const auto& stats = p.net.node(p.s).stats();
        return std::tuple{stats.offered_packets, stats.data_acked,
                          p.net.node(p.s).sojourn_times().quantile(0.99),
                          p.net.node(p.s).sojourn_times().jitter()};
    };
    EXPECT_EQ(run(23), run(23));
    EXPECT_NE(std::get<0>(run(23)), std::get<0>(run(24)));
}

TEST(TrafficQueue, IdleSenderRestartsOnTheNextArrival) {
    // 50 pps against a sub-millisecond service time: nearly every packet
    // finds the sender idle with its queue drained, so deliveries track
    // arrivals one for one.
    pair_net p(29);
    p.net.node(p.s).set_traffic(traffic_mode::unicast, p.r,
                                rate_by_mbps(24.0), payload);
    p.net.node(p.s).set_traffic_model(poisson_cfg(50.0));
    p.net.run(2e6);
    const auto& stats = p.net.node(p.s).stats();
    ASSERT_GT(stats.offered_packets, 50u);
    EXPECT_EQ(stats.queue_drops, 0u);
    EXPECT_EQ(stats.data_dropped, 0u);
    EXPECT_EQ(p.net.node(p.s).queue_depth(), 0u);
    // Every arrival is delivered but at most the one in service at the
    // horizon.
    EXPECT_LE(stats.data_acked, stats.offered_packets);
    EXPECT_GE(stats.data_acked + 1, stats.offered_packets);
}

TEST(MultiPairTraffic, UnsaturatedRunReportsLatencyAndDropMetrics) {
    rng gen(3);
    const auto topology = sample_multi_pair_topology(6, 120.0, 15.0, gen);
    multi_pair_config config;
    config.rate = &rate_by_mbps(24.0);
    config.duration_us = 5e5;
    config.seed = 3;
    config.unicast = true;
    config.rate_adapt = rate_adapt_mode::arf;
    config.traffic = poisson_cfg(600.0);
    config.traffic.queue_capacity = 32;
    const auto result = run_multi_pair(topology, config);
    EXPECT_GT(result.offered_packets, 0u);
    EXPECT_GT(result.sojourn_us.count(), 0u);
    EXPECT_GT(result.sojourn_us.quantile(0.5), 0.0);
    EXPECT_GE(result.sojourn_us.quantile(0.99),
              result.sojourn_us.quantile(0.5));
    EXPECT_GE(result.drop_rate, 0.0);
    EXPECT_LE(result.drop_rate, 1.0);
    // Determinism across identical configs.
    const auto again = run_multi_pair(topology, config);
    EXPECT_EQ(result.offered_packets, again.offered_packets);
    EXPECT_EQ(result.queue_drops, again.queue_drops);
    EXPECT_EQ(result.sojourn_us.quantile(0.99),
              again.sojourn_us.quantile(0.99));
}

TEST(MultiPairTraffic, RateAdaptationRequiresUnicast) {
    rng gen(4);
    const auto topology = sample_multi_pair_topology(2, 80.0, 10.0, gen);
    multi_pair_config config;
    config.rate = &rate_by_mbps(24.0);
    config.rate_adapt = rate_adapt_mode::arf;  // but unicast left false
    EXPECT_THROW(run_multi_pair(topology, config), std::invalid_argument);
}

}  // namespace
