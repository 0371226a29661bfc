// Traffic sources and the per-node FIFO queue: arrival determinism,
// offered-load accounting, queue overflow drops, and the sojourn-time
// metrics the unsaturated campaigns report.
#include <gtest/gtest.h>

#include <vector>

#include "src/capacity/rate_table.hpp"
#include "src/mac/multi_pair.hpp"
#include "src/mac/network.hpp"
#include "src/mac/traffic.hpp"

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

std::vector<double> draw_gaps(traffic_source& source, std::uint64_t seed,
                              int count) {
    rng gen(seed);
    std::vector<double> gaps;
    gaps.reserve(count);
    for (int i = 0; i < count; ++i) {
        gaps.push_back(source.next_interarrival_us(gen));
    }
    return gaps;
}

TEST(TrafficSource, SaturatedIsTheDefaultAndFlagsItself) {
    // Saturated traffic has no arrival process, so it has no source.
    EXPECT_TRUE(traffic_config{}.saturated());
    EXPECT_EQ(make_traffic_source(traffic_config{}), nullptr);
}

TEST(TrafficSource, FactoryRejectsNonPositiveRates) {
    traffic_config tc = poisson_cfg(0.0);
    EXPECT_THROW(make_traffic_source(tc), std::invalid_argument);
    tc = poisson_cfg(100.0);
    tc.model = traffic_model::on_off;
    tc.on_mean_us = 0.0;
    EXPECT_THROW(make_traffic_source(tc), std::invalid_argument);
}

TEST(TrafficSource, PoissonIsSeedDeterministicWithTheRightMean) {
    const auto a = make_traffic_source(poisson_cfg(1000.0));
    const auto b = make_traffic_source(poisson_cfg(1000.0));
    const auto gaps_a = draw_gaps(*a, 99, 20000);
    const auto gaps_b = draw_gaps(*b, 99, 20000);
    EXPECT_EQ(gaps_a, gaps_b);  // same seed => identical arrival sequence
    double sum = 0.0;
    for (const double g : gaps_a) sum += g;
    EXPECT_NEAR(sum / gaps_a.size(), 1000.0, 20.0);  // mean 1e6/1000 us
}

TEST(TrafficSource, CbrIsFixedSpacingAndConsumesNoRandomness) {
    traffic_config tc = poisson_cfg(500.0);
    tc.model = traffic_model::cbr;
    const auto source = make_traffic_source(tc);
    // Different seeds, same sequence: CBR never touches the stream.
    EXPECT_EQ(draw_gaps(*source, 1, 100),
              draw_gaps(*make_traffic_source(tc), 2, 100));
    EXPECT_DOUBLE_EQ(draw_gaps(*source, 3, 1).front(), 2000.0);
}

TEST(TrafficSource, OnOffKeepsTheOfferedMeanButBursts) {
    traffic_config tc = poisson_cfg(1000.0);
    tc.model = traffic_model::on_off;
    tc.on_mean_us = 5'000.0;
    tc.off_mean_us = 15'000.0;  // 25% duty cycle => 4x peak rate while on
    const auto source = make_traffic_source(tc);
    const auto gaps = draw_gaps(*source, 5, 40000);
    double sum = 0.0;
    int shorter_than_peak_mean = 0;
    for (const double g : gaps) {
        sum += g;
        if (g < 250.0) ++shorter_than_peak_mean;
    }
    // Long-run mean stays the offered load...
    EXPECT_NEAR(sum / gaps.size(), 1000.0, 60.0);
    // ...but most gaps are short intra-burst ones (peak mean 250 us).
    EXPECT_GT(shorter_than_peak_mean, gaps.size() / 2);
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
    // CBR at a very low rate: every packet finds an empty pipeline, so
    // deliveries track arrivals one for one.
    pair_net p(29);
    traffic_config tc = poisson_cfg(50.0);
    tc.model = traffic_model::cbr;
    p.net.node(p.s).set_traffic(traffic_mode::unicast, p.r,
                                rate_by_mbps(24.0), payload);
    p.net.node(p.s).set_traffic_model(tc);
    p.net.run(2e6);
    const auto& stats = p.net.node(p.s).stats();
    // Arrivals at 20 ms, 40 ms, ..., 2000 ms (run_until executes events
    // at exactly the horizon); the last one never gets air time.
    EXPECT_EQ(stats.offered_packets, 100u);
    EXPECT_EQ(stats.data_acked, 99u);
    EXPECT_EQ(p.net.node(p.s).queue_depth(), 0u);
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
