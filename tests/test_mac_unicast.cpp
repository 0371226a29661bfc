// Unicast MAC paths: DATA/ACK exchange, retries, RTS/CTS with NAV, the
// §5 adaptive RTS/CTS heuristic, and rate adaptation over ACK feedback.
#include <gtest/gtest.h>

#include "src/capacity/rate_adaptation.hpp"
#include "src/capacity/rate_table.hpp"
#include "src/mac/network.hpp"

namespace {

using namespace csense::mac;
using csense::capacity::rate_by_mbps;

constexpr int payload = 1400;

struct unicast_net {
    network net;
    node_id s1, r1, s2, r2;

    explicit unicast_net(const mac_config& sender_cfg, std::uint64_t seed,
                         radio_config radio = radio_config{})
        : net(radio, seed) {
        mac_config receiver_cfg;
        s1 = net.add_node(sender_cfg);
        r1 = net.add_node(receiver_cfg);
        s2 = net.add_node(sender_cfg);
        r2 = net.add_node(receiver_cfg);
    }

    void link(node_id a, node_id b, double gain) {
        net.set_link_gain_db(a, b, gain);
    }
};

TEST(Unicast, CleanLinkAcksEverything) {
    mac_config cfg;
    unicast_net u(cfg, 31);
    u.link(u.s1, u.r1, -60.0);
    u.net.node(u.s1).set_traffic(traffic_mode::unicast, u.r1,
                                 rate_by_mbps(24.0), payload);
    u.net.run(2e6);
    const auto& stats = u.net.node(u.s1).stats();
    EXPECT_GT(stats.data_sent, 1000u);
    EXPECT_EQ(stats.data_dropped, 0u);
    // Nearly every data frame is acknowledged on a clean link.
    EXPECT_GT(stats.data_acked, stats.data_sent * 95 / 100);
    EXPECT_GT(u.net.node(u.r1).stats().acks_sent, 0u);
}

TEST(Unicast, UnicastSlowerThanBroadcastDueToAcks) {
    radio_config radio;
    mac_config cfg;
    unicast_net u(cfg, 33);
    u.link(u.s1, u.r1, -60.0);
    u.net.node(u.s1).set_traffic(traffic_mode::unicast, u.r1,
                                 rate_by_mbps(24.0), payload);
    u.net.run(2e6);
    const double unicast_pps = u.net.node(u.s1).stats().data_acked / 2.0;
    const double broadcast_pps = run_single_pair(radio, -60.0,
                                                 rate_by_mbps(24.0), 2e6,
                                                 payload, 33);
    EXPECT_LT(unicast_pps, broadcast_pps);
    EXPECT_GT(unicast_pps, 0.75 * broadcast_pps);
}

TEST(Unicast, LossyLinkRetriesAndDrops) {
    mac_config cfg;
    unicast_net u(cfg, 35);
    u.link(u.s1, u.r1, -104.0);  // SNR 6 dB: lossy at 12 Mb/s
    u.net.node(u.s1).set_traffic(traffic_mode::unicast, u.r1,
                                 rate_by_mbps(12.0), payload);
    u.net.run(3e6);
    const auto& stats = u.net.node(u.s1).stats();
    EXPECT_GT(stats.data_sent, stats.data_acked);  // retries happened
    EXPECT_GT(stats.data_dropped, 0u);             // some gave up entirely
}

TEST(Unicast, StaticRtsCtsExchangesAndDelivers) {
    mac_config cfg;
    cfg.use_rts_cts = true;
    unicast_net u(cfg, 37);
    u.link(u.s1, u.r1, -60.0);
    u.net.node(u.s1).set_traffic(traffic_mode::unicast, u.r1,
                                 rate_by_mbps(24.0), payload);
    u.net.run(2e6);
    const auto& s = u.net.node(u.s1).stats();
    const auto& r = u.net.node(u.r1).stats();
    EXPECT_GT(s.rts_sent, 1000u);
    EXPECT_GT(r.cts_sent, 1000u);
    EXPECT_GT(s.data_acked, s.data_sent * 9 / 10);
    // RTS/CTS costs airtime: fewer frames than the no-RTS case.
    mac_config plain;
    unicast_net v(plain, 37);
    v.link(v.s1, v.r1, -60.0);
    v.net.node(v.s1).set_traffic(traffic_mode::unicast, v.r1,
                                 rate_by_mbps(24.0), payload);
    v.net.run(2e6);
    EXPECT_LT(s.data_acked, v.net.node(v.s1).stats().data_acked);
}

TEST(Unicast, HiddenTerminalUnicastSuffersWithoutRts) {
    // S2 (broadcast, saturated) is hidden from S1 but deafens R1.
    mac_config cfg;
    unicast_net u(cfg, 39);
    u.link(u.s1, u.r1, -70.0);
    u.link(u.s2, u.r1, -75.0);
    u.link(u.s1, u.s2, -120.0);
    u.link(u.s2, u.r2, -60.0);
    u.net.node(u.s1).set_traffic(traffic_mode::unicast, u.r1,
                                 rate_by_mbps(24.0), payload);
    u.net.node(u.s2).set_traffic(traffic_mode::broadcast,
                                 broadcast_id, rate_by_mbps(24.0), payload);
    u.net.run(3e6);
    const auto& stats = u.net.node(u.s1).stats();
    EXPECT_LT(stats.data_acked, stats.data_sent / 4);  // mostly lost
}

TEST(Unicast, AdaptiveRtsHeuristicActivatesOnHiddenTerminal) {
    // §5: enable RTS/CTS "only when ... experiencing an extremely high
    // loss rate to some receiver in spite of a high RSSI".
    mac_config cfg;
    cfg.adaptive_rts_cts = true;
    unicast_net u(cfg, 41);
    u.link(u.s1, u.r1, -70.0);   // SNR 40 dB: high RSSI
    u.link(u.s2, u.r1, -75.0);   // hidden interferer crushes R1
    u.link(u.s1, u.s2, -120.0);
    u.link(u.s2, u.r2, -60.0);
    // R1's CTS is audible at S2, so the NAV can silence the interferer.
    u.link(u.r1, u.s2, -75.0);
    u.net.node(u.s1).set_traffic(traffic_mode::unicast, u.r1,
                                 rate_by_mbps(24.0), payload);
    u.net.node(u.s2).set_traffic(traffic_mode::broadcast,
                                 broadcast_id, rate_by_mbps(24.0), payload);
    EXPECT_FALSE(u.net.node(u.s1).rts_active());
    u.net.run(3e6);
    EXPECT_TRUE(u.net.node(u.s1).rts_active());
    EXPECT_GT(u.net.node(u.s1).stats().rts_sent, 0u);
}

TEST(Unicast, AdaptiveRtsStaysOffOnCleanLink) {
    mac_config cfg;
    cfg.adaptive_rts_cts = true;
    unicast_net u(cfg, 43);
    u.link(u.s1, u.r1, -60.0);
    u.net.node(u.s1).set_traffic(traffic_mode::unicast, u.r1,
                                 rate_by_mbps(24.0), payload);
    u.net.run(2e6);
    EXPECT_FALSE(u.net.node(u.s1).rts_active());
    EXPECT_EQ(u.net.node(u.s1).stats().rts_sent, 0u);
}

TEST(Unicast, AdaptiveRtsStaysOffOnLowSnrLink) {
    // §5's trigger needs high loss *and* high RSSI: a link that loses
    // most frames to its own low SNR gains nothing from RTS/CTS.
    mac_config cfg;
    cfg.adaptive_rts_cts = true;
    unicast_net u(cfg, 44);
    u.link(u.s1, u.r1, -100.0);  // SNR 10 dB: below 24 Mb/s' waterfall
    u.net.node(u.s1).set_traffic(traffic_mode::unicast, u.r1,
                                 rate_by_mbps(24.0), payload);
    u.net.run(2e6);
    const auto& stats = u.net.node(u.s1).stats();
    ASSERT_GT(stats.data_sent, 100u);
    // Far more than the 40% loss that would trip the trigger on its own.
    EXPECT_LT(stats.data_acked, stats.data_sent * 3 / 10);
    EXPECT_FALSE(u.net.node(u.s1).rts_active());
    EXPECT_EQ(stats.rts_sent, 0u);
}

TEST(Unicast, AdaptiveRtsImprovesHiddenTerminalGoodput) {
    auto run_with = [](bool adaptive) {
        mac_config cfg;
        cfg.adaptive_rts_cts = adaptive;
        unicast_net u(cfg, 45);
        u.link(u.s1, u.r1, -70.0);
        u.link(u.s2, u.r1, -75.0);
        u.link(u.s1, u.s2, -120.0);
        u.link(u.s2, u.r2, -60.0);
        u.link(u.r1, u.s2, -75.0);
        u.net.node(u.s1).set_traffic(traffic_mode::unicast, u.r1,
                                     rate_by_mbps(24.0), payload);
        u.net.node(u.s2).set_traffic(traffic_mode::broadcast,
                                     broadcast_id, rate_by_mbps(24.0),
                                     payload);
        u.net.run(4e6);
        return u.net.node(u.s1).stats().data_acked;
    };
    const auto without = run_with(false);
    const auto with = run_with(true);
    EXPECT_GT(with, 2 * without + 10);
}

TEST(Unicast, SampleRateAdaptsOverAckFeedback) {
    mac_config cfg;
    unicast_net u(cfg, 47);
    u.link(u.s1, u.r1, -90.0);  // SNR 20 dB: 24/36 Mb/s territory
    csense::capacity::sample_rate adapter(csense::capacity::ofdm_rates(),
                                          payload, 3);
    u.net.node(u.s1).set_traffic(traffic_mode::unicast, u.r1,
                                 rate_by_mbps(6.0), payload);
    u.net.node(u.s1).set_rate_adaptation(&adapter);
    u.net.run(4e6);
    const auto& stats = u.net.node(u.s1).stats();
    // Adaptation should land well above the 6 Mb/s floor (~ 460 pps):
    // 24+ Mb/s delivers > 1100 pps even with ACK overhead.
    EXPECT_GT(stats.data_acked / 4.0, 800.0);
}

}  // namespace
