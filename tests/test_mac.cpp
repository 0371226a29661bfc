// Packet-level MAC behaviour: saturation throughput, spatial reuse,
// fairness under mutual carrier sense, collision collapse with CS off
// (and a CS-off sender that energy flips never delay), hidden
// terminals and bitrate adaptation, the §5 pathologies (slot
// collisions, chain collisions, threshold asymmetry), and a pure
// receiver that schedules no deferral wake-ups.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "src/capacity/error_models.hpp"
#include "src/capacity/rate_table.hpp"
#include "src/mac/dcf.hpp"
#include "src/mac/medium.hpp"
#include "src/mac/network.hpp"
#include "src/sim/simulator.hpp"

namespace {

using namespace csense::mac;
using csense::capacity::ofdm_timing;
using csense::capacity::rate_by_mbps;
using csense::capacity::saturated_broadcast_pps;

constexpr int payload = 1400;
constexpr double seconds = 3.0;
constexpr double run_us = seconds * 1e6;

two_pair_gains far_pairs() {
    two_pair_gains g;
    g.s1_r1 = -60.0;
    g.s2_r2 = -60.0;
    g.s1_s2 = g.s1_r2 = g.s2_r1 = g.r1_r2 = -140.0;
    return g;
}

two_pair_gains close_pairs() {
    two_pair_gains g = far_pairs();
    g.s1_s2 = g.s1_r2 = g.s2_r1 = g.r1_r2 = -70.0;
    return g;
}

TEST(Mac, SingleSenderMatchesAnalyticThroughput) {
    radio_config radio;
    for (double mbps : {6.0, 24.0, 54.0}) {
        const auto& rate = rate_by_mbps(mbps);
        const double pps =
            run_single_pair(radio, -60.0, rate, run_us, payload, 1);
        EXPECT_NEAR(pps, saturated_broadcast_pps(rate, payload),
                    0.05 * saturated_broadcast_pps(rate, payload))
            << mbps << " Mb/s";
    }
}

TEST(Mac, WeakLinkDeliversNothing) {
    radio_config radio;
    const double pps = run_single_pair(radio, -130.0, rate_by_mbps(6.0),
                                       run_us, payload, 2);
    EXPECT_DOUBLE_EQ(pps, 0.0);
}

TEST(Mac, MarginalLinkDeliversPartially) {
    radio_config radio;
    // SNR = 15 - 105 + 95 = 5 dB: lossy at 6 Mb/s but not dead.
    const double pps = run_single_pair(radio, -105.0, rate_by_mbps(6.0),
                                       run_us, payload, 3);
    const double max_pps = saturated_broadcast_pps(rate_by_mbps(6.0), payload);
    EXPECT_GT(pps, 0.1 * max_pps);
    EXPECT_LT(pps, 0.98 * max_pps);
}

TEST(Mac, FarPairsReuseSpatially) {
    radio_config radio;
    const auto& rate = rate_by_mbps(24.0);
    const auto result = run_two_pair_competition(
        radio, far_pairs(), rate, rate, cs_mode::energy_and_preamble, run_us,
        payload, 4);
    const double alone = saturated_broadcast_pps(rate, payload);
    EXPECT_NEAR(result.total_pps(), 2.0 * alone, 0.1 * alone);
}

TEST(Mac, ClosePairsShareFairly) {
    radio_config radio;
    const auto& rate = rate_by_mbps(24.0);
    const auto result = run_two_pair_competition(
        radio, close_pairs(), rate, rate, cs_mode::energy_and_preamble,
        run_us, payload, 5);
    const double alone = saturated_broadcast_pps(rate, payload);
    // Total close to a lone sender's throughput...
    EXPECT_NEAR(result.total_pps(), alone, 0.12 * alone);
    // ...split evenly (Jain-fair within 15%).
    EXPECT_NEAR(result.pps_pair1, result.pps_pair2,
                0.15 * std::max(result.pps_pair1, result.pps_pair2));
}

TEST(Mac, DisablingCarrierSenseCollapsesClosePairs) {
    radio_config radio;
    const auto& rate = rate_by_mbps(24.0);
    const auto with_cs = run_two_pair_competition(
        radio, close_pairs(), rate, rate, cs_mode::energy_and_preamble,
        run_us, payload, 6);
    const auto without = run_two_pair_competition(
        radio, close_pairs(), rate, rate, cs_mode::disabled, run_us, payload,
        6);
    EXPECT_LT(without.total_pps(), 0.45 * with_cs.total_pps());
}

TEST(Mac, HiddenTerminalStarvesVictim) {
    radio_config radio;
    two_pair_gains g = far_pairs();
    g.s1_s2 = -120.0;  // senders mutually inaudible
    g.s2_r1 = -75.0;   // but S2 hammers R1
    g.s1_r1 = -70.0;   // SINR at R1 ~ 5 dB under concurrency
    const auto& r24 = rate_by_mbps(24.0);
    const auto hidden = run_two_pair_competition(
        radio, g, r24, r24, cs_mode::energy_and_preamble, run_us, payload, 7);
    const double alone = saturated_broadcast_pps(r24, payload);
    EXPECT_LT(hidden.pps_pair1, 0.05 * alone);   // victim starved at 24M
    EXPECT_GT(hidden.pps_pair2, 0.9 * alone);    // aggressor unaffected
}

TEST(Mac, HiddenTerminalRecoversAtLowerBitrate) {
    // The thesis' core point: with bitrate adaptation the hidden terminal
    // is "a less-than-ideal bitrate is needed to succeed", not a failure.
    radio_config radio;
    two_pair_gains g = far_pairs();
    g.s1_s2 = -120.0;
    g.s2_r1 = -75.0;
    g.s1_r1 = -70.0;
    const auto at24 = run_two_pair_competition(
        radio, g, rate_by_mbps(24.0), rate_by_mbps(24.0),
        cs_mode::energy_and_preamble, run_us, payload, 8);
    const auto at6 = run_two_pair_competition(
        radio, g, rate_by_mbps(6.0), rate_by_mbps(24.0),
        cs_mode::energy_and_preamble, run_us, payload, 8);
    EXPECT_GT(at6.pps_pair1, 10.0 * std::max(at24.pps_pair1, 1.0));
}

TEST(Mac, SlotCollisionsOccurAtExpectedRate) {
    radio_config radio;
    const auto& rate = rate_by_mbps(24.0);
    const auto result = run_two_pair_competition(
        radio, close_pairs(), rate, rate, cs_mode::energy_and_preamble,
        run_us, payload, 9);
    // Two contenders drawing from [0, 15] collide a few percent of the
    // time; over thousands of frames that is hundreds of events.
    EXPECT_GT(result.counters.slot_collisions, 20u);
    EXPECT_LT(result.counters.slot_collisions,
              result.counters.transmissions / 5);
}

TEST(Mac, ChainCollisionsWithPreambleOnlySensing) {
    // Preamble-only carrier sense misses frames whose preamble arrived
    // while the node itself was transmitting - the §5 "chain collision".
    // The pathology needs asymmetric frame lengths: a slot collision
    // seeds an overlap, the short-frame sender finishes mid-way through
    // the long frame, hears silence (it missed the preamble), and keeps
    // transmitting over it. Equal-length frames resynchronize at every
    // boundary and never enter the state.
    radio_config radio;
    const auto& slow = rate_by_mbps(6.0);   // 1892 us frames
    const auto& fast = rate_by_mbps(54.0);  // 232 us frames
    const auto preamble_only = run_two_pair_competition(
        radio, close_pairs(), slow, fast, cs_mode::preamble, run_us, payload,
        10);
    EXPECT_GT(preamble_only.counters.chain_collisions, 20u);
    // Energy sensing eliminates them.
    const auto energy = run_two_pair_competition(
        radio, close_pairs(), slow, fast, cs_mode::energy, run_us, payload,
        10);
    EXPECT_LT(energy.counters.chain_collisions,
              preamble_only.counters.chain_collisions / 5 + 1);
    // Equal rates: the two-sender system cannot sustain the chain.
    const auto symmetric = run_two_pair_competition(
        radio, close_pairs(), slow, slow, cs_mode::preamble, run_us, payload,
        10);
    EXPECT_LT(symmetric.counters.chain_collisions, 5u);
}

TEST(Mac, ThresholdAsymmetryStarvesTheDeferrer) {
    // One node's CS threshold is 25 dB too deaf: it transmits over the
    // other, while the polite node defers - the observed "threshold
    // asymmetry" pathology.
    radio_config radio;
    network net(radio, 21);
    mac_config deaf;
    // The pathology lives in energy CCA: preamble detection has no
    // calibration error, so both nodes run pure energy sensing. Close
    // pairs arrive at -55 dBm; a threshold 40 dB too high (-42 dBm)
    // makes the miscalibrated node genuinely deaf to them.
    deaf.sense = cs_mode::energy;
    mac_config polite;
    polite.sense = cs_mode::energy;
    const auto s1 = net.add_node(deaf);
    net.node(s1).set_cs_threshold_dbm(-42.0);
    const auto r1 = net.add_node(polite);
    const auto s2 = net.add_node(polite);
    const auto r2 = net.add_node(polite);
    const auto g = close_pairs();
    net.set_link_gain_db(s1, r1, g.s1_r1);
    net.set_link_gain_db(s2, r2, g.s2_r2);
    net.set_link_gain_db(s1, s2, g.s1_s2);
    net.set_link_gain_db(s1, r2, g.s1_r2);
    net.set_link_gain_db(s2, r1, g.s2_r1);
    net.set_link_gain_db(r1, r2, g.r1_r2);
    const auto& rate = rate_by_mbps(24.0);
    net.node(s1).set_traffic(traffic_mode::broadcast, broadcast_id,
                             rate, payload);
    net.node(s2).set_traffic(traffic_mode::broadcast, broadcast_id,
                             rate, payload);
    net.run(run_us);
    const double sent_deaf =
        static_cast<double>(net.node(s1).stats().data_sent);
    const double sent_polite =
        static_cast<double>(net.node(s2).stats().data_sent);
    // The thesis' description of the pathology is "a mix of concurrency
    // and unfair multiplexing", not total starvation: the polite node
    // still slips frames into the deaf node's backoff gaps, but gets a
    // clearly unfair share while the deaf node transmits at its solo rate.
    const double solo = seconds * saturated_broadcast_pps(rate, payload);
    EXPECT_GT(sent_deaf, 0.9 * solo);
    EXPECT_GT(sent_deaf, 1.3 * sent_polite);
    EXPECT_LT(sent_polite, 0.8 * solo);
    EXPECT_EQ(net.node(s1).stats().defer_events, 0u);   // truly deaf
    EXPECT_GT(net.node(s2).stats().defer_events, 500u); // constantly deferring
}

TEST(Mac, DeferEventsCountedUnderContention) {
    radio_config radio;
    const auto& rate = rate_by_mbps(24.0);
    network net(radio, 23);
    mac_config cfg;
    const auto s1 = net.add_node(cfg);
    const auto r1 = net.add_node(cfg);
    const auto s2 = net.add_node(cfg);
    const auto r2 = net.add_node(cfg);
    const auto g = close_pairs();
    net.set_link_gain_db(s1, r1, g.s1_r1);
    net.set_link_gain_db(s2, r2, g.s2_r2);
    net.set_link_gain_db(s1, s2, g.s1_s2);
    net.set_link_gain_db(s1, r2, g.s1_r2);
    net.set_link_gain_db(s2, r1, g.s2_r1);
    net.set_link_gain_db(r1, r2, g.r1_r2);
    net.node(s1).set_traffic(traffic_mode::broadcast, broadcast_id,
                             rate, payload);
    net.node(s2).set_traffic(traffic_mode::broadcast, broadcast_id,
                             rate, payload);
    net.run(run_us);
    EXPECT_GT(net.node(s1).stats().defer_events, 0u);
    EXPECT_GT(net.node(s2).stats().defer_events, 0u);
}

/// Raw medium listener that notes when the first preamble arrives.
struct first_preamble final : medium_listener {
    explicit first_preamble(const csense::sim::simulator& simulator)
        : simulator(&simulator) {}

    const csense::sim::simulator* simulator;
    double at_us = -1.0;

    void on_energy_busy(bool) override {}
    void on_preamble(csense::sim::time_us) override {
        if (at_us < 0.0) at_us = simulator->now();
    }
    void on_frame_received(const frame&, bool) override {}
    void on_tx_complete(const frame&) override {}
};

struct cs_off_start {
    double first_tx_us;
    std::uint64_t defer_events;
};

/// A saturated CS-off sender contends from t = 0; a loud neighbour (35
/// dB above the energy threshold at the sender, silent at the
/// receiver) starts a long frame at `neighbour_start_us`, or never when
/// negative. Returns when the sender's first frame went on the air.
cs_off_start run_cs_off_sender(double neighbour_start_us) {
    csense::sim::simulator sim;
    const radio_config radio;
    const csense::capacity::logistic_per_model errors;
    medium air(sim, radio, errors, 1);
    mac_config cs_off;
    cs_off.sense = cs_mode::disabled;
    dcf_node sender(sim, air, cs_off, 12);
    first_preamble receiver(sim);
    first_preamble neighbour(sim);
    const node_id nr = air.add_node(receiver);
    const node_id nn = air.add_node(neighbour);
    air.set_link_gain_db(sender.id(), nr, -60.0);
    air.set_link_gain_db(sender.id(), nn, -52.0);  // -37 dBm at the sender
    sender.set_traffic(traffic_mode::broadcast, broadcast_id,
                       rate_by_mbps(24.0), payload);
    if (neighbour_start_us >= 0.0) {
        frame loud;
        loud.src = nn;
        loud.bytes = payload;
        loud.rate = &rate_by_mbps(6.0);  // ~1.9 ms: outlasts the contention
        sim.schedule_in(neighbour_start_us, [&air, nn, loud] {
            air.start_transmission(nn, loud, true);
        });
    }
    sender.start();
    sim.run_until(1000.0);
    return {receiver.at_us - radio.cca_delay_us, sender.stats().defer_events};
}

TEST(Mac, CsOffSenderIgnoresEnergyFlips) {
    // CS off promises the sender never defers. A neighbour's energy
    // still flips its CCA (busy time is accounted for every node), but
    // the flip must neither count as a defer nor restart a running DIFS
    // or backoff: the first frame leaves exactly when it would alone.
    const cs_off_start alone = run_cs_off_sender(-1.0);
    ASSERT_GT(alone.first_tx_us, 0.0);
    ASSERT_GE(alone.first_tx_us, ofdm_timing::difs_us + 2.0 * ofdm_timing::slot_us)
        << "the seed must draw a backoff of at least two slots";
    EXPECT_EQ(alone.defer_events, 0u);

    // Flip inside DIFS, then inside the backoff.
    for (const double start_us : {10.0, ofdm_timing::difs_us + 1.0}) {
        const cs_off_start loud = run_cs_off_sender(start_us);
        EXPECT_DOUBLE_EQ(loud.first_tx_us, alone.first_tx_us)
            << "neighbour at " << start_us << " us";
        EXPECT_EQ(loud.defer_events, 0u) << "neighbour at " << start_us << " us";
    }
}

TEST(Mac, PureReceiverSchedulesNoWakeUps) {
    // A node with no traffic never contends, so the preamble and NAV
    // deferrals it hears change nothing it will do: it must schedule no
    // wake-ups for them and count no defers.
    csense::sim::simulator sim;
    const radio_config radio;
    const csense::capacity::logistic_per_model errors;
    medium air(sim, radio, errors, 1);
    mac_config sensing;
    sensing.sense = cs_mode::energy_and_preamble;
    dcf_node receiver(sim, air, sensing, 5);
    receiver.start();

    receiver.on_preamble(500.0);
    frame overheard;
    overheard.src = receiver.id() + 1;
    overheard.dst = receiver.id() + 2;  // addressed to another node
    overheard.rate = &rate_by_mbps(6.0);
    overheard.nav_duration_us = 300.0;
    for (const frame_kind kind : {frame_kind::rts, frame_kind::cts}) {
        overheard.kind = kind;
        receiver.on_frame_received(overheard, true);
    }
    sim.run_all();
    EXPECT_EQ(sim.events_executed(), 0u);
    EXPECT_EQ(receiver.stats().defer_events, 0u);
}

TEST(Mac, DeterministicGivenSeed) {
    radio_config radio;
    const auto& rate = rate_by_mbps(12.0);
    const auto a = run_two_pair_competition(radio, close_pairs(), rate, rate,
                                            cs_mode::energy_and_preamble,
                                            1e6, payload, 77);
    const auto b = run_two_pair_competition(radio, close_pairs(), rate, rate,
                                            cs_mode::energy_and_preamble,
                                            1e6, payload, 77);
    EXPECT_DOUBLE_EQ(a.pps_pair1, b.pps_pair1);
    EXPECT_DOUBLE_EQ(a.pps_pair2, b.pps_pair2);
}

TEST(Mac, MediumValidatesTopology) {
    radio_config radio;
    network net(radio, 1);
    const auto a = net.add_node(mac_config{});
    const auto b = net.add_node(mac_config{});
    EXPECT_THROW(net.set_link_gain_db(a, a, -50.0), std::invalid_argument);
    EXPECT_THROW(net.set_link_gain_db(a, 99, -50.0), std::invalid_argument);
    EXPECT_NO_THROW(net.set_link_gain_db(a, b, -50.0));
    EXPECT_DOUBLE_EQ(net.air().link_gain_db(b, a), -50.0);
    EXPECT_DOUBLE_EQ(net.air().rx_power_dbm(a, b),
                     radio.tx_power_dbm - 50.0);
}

TEST(Mac, ExternalPowerSilentAirIsNoiseFloor) {
    radio_config radio;
    network net(radio, 2);
    const auto a = net.add_node(mac_config{});
    net.add_node(mac_config{});
    EXPECT_NEAR(net.air().external_power_dbm(a), radio.noise_floor_dbm, 1e-9);
}

}  // namespace
