// Medium edge cases (§4/§5 implementation corner cases):
//  - every node reuses one transmission slot, so the medium holds one
//    slot per node however long a run lasts - also in a dense run whose
//    air is never silent - and frames keep delivering across thousands
//    of reuses;
//  - a transmitter abandons any reception in progress, the abandoned
//    frame is not delivered, and the receiver's lock state resets so it
//    can lock onto later frames;
//  - a reception settles at the worst SINR it saw, also when the
//    interferer behind it left the air long before the locked frame
//    ended;
//  - the medium-side energy-detect CCA: listeners hear busy/idle flips
//    only, a threshold step is judged against the last CCA sample, busy
//    time follows the sampled power, and a transmitter re-senses after
//    its own start;
//  - one kernel event after a start carries the frame's preamble
//    announcements, in row order, and then its CCA sample;
//  - the incremental power sums of the floor-less (exact) medium match
//    a brute-force re-sum over the active transmitters.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "src/capacity/error_models.hpp"
#include "src/capacity/rate_table.hpp"
#include "src/mac/dcf.hpp"
#include "src/mac/medium.hpp"
#include "src/mac/network.hpp"
#include "src/propagation/units.hpp"
#include "src/sim/simulator.hpp"
#include "src/stats/kahan.hpp"
#include "src/stats/rng.hpp"

namespace {

using namespace csense;
using namespace csense::mac;
using csense::capacity::rate_by_mbps;

/// Listener that records deliveries and stays silent otherwise.
struct recorder final : medium_listener {
    std::vector<std::pair<node_id, bool>> received;  ///< (src, decoded)

    void on_energy_busy(bool) override {}
    void on_preamble(sim::time_us) override {}
    void on_frame_received(const frame& f, bool decoded) override {
        received.emplace_back(f.src, decoded);
    }
    void on_tx_complete(const frame&) override {}
};

/// Listener that logs its energy-detect CCA flips with their times.
struct cca_recorder final : medium_listener {
    explicit cca_recorder(const sim::simulator& simulator)
        : simulator(&simulator) {}

    const sim::simulator* simulator;
    std::vector<std::pair<sim::time_us, bool>> flips;  ///< (time, busy)

    void on_energy_busy(bool busy) override {
        flips.emplace_back(simulator->now(), busy);
    }
    void on_preamble(sim::time_us) override {}
    void on_frame_received(const frame&, bool) override {}
    void on_tx_complete(const frame&) override {}
};

frame data_frame(node_id src, double mbps, int bytes = 1400) {
    frame f;
    f.kind = frame_kind::data;
    f.src = src;
    f.dst = broadcast_id;
    f.bytes = bytes;
    f.rate = &rate_by_mbps(mbps);
    return f;
}

TEST(Medium, SlotReuseKeepsOneSlotPerNodeAndLaterFramesStillDeliver) {
    // A single 54 Mb/s broadcast pair sends thousands of frames in a few
    // simulated seconds, all through the sender's one slot. The medium
    // must hold one slot per node, and delivery must keep working frame
    // after frame.
    radio_config radio;
    network net(radio, 123);
    const auto s = net.add_node(mac_config{});
    const auto r = net.add_node(mac_config{});
    net.set_link_gain_db(s, r, -60.0);
    net.node(s).set_traffic(traffic_mode::broadcast, broadcast_id,
                            rate_by_mbps(54.0), 1400);

    net.run(2e6);
    const auto mid = net.node(r).stats().rx_data_decoded;
    ASSERT_GT(mid, 4096u) << "needs thousands of reuses of the slot";
    EXPECT_EQ(net.air().transmission_log_size(), 2u);

    net.run(2e6);  // continue the same simulation
    const auto late = net.node(r).stats().rx_data_decoded;
    EXPECT_GT(late, mid + 1000u)
        << "frames must keep delivering through the reused slot";
    EXPECT_EQ(net.air().transmission_log_size(), 2u);
}

TEST(Medium, NeverSilentDenseRunHoldsOneSlotPerNode) {
    // 30 fully connected CS-off nodes send saturated broadcasts, so some
    // frame is on the air at every instant of the run. Memory must not
    // grow with the number of frames sent: one slot per node, whatever
    // the run length.
    constexpr node_id kNodes = 30;
    network net(radio_config{}, 99);
    mac_config cs_off;
    cs_off.sense = cs_mode::disabled;
    for (node_id i = 0; i < kNodes; ++i) net.add_node(cs_off);
    for (node_id a = 0; a < kNodes; ++a) {
        for (node_id b = a + 1; b < kNodes; ++b) {
            net.set_link_gain_db(a, b, -60.0);
        }
    }
    for (node_id i = 0; i < kNodes; ++i) {
        net.node(i).set_traffic(traffic_mode::broadcast, broadcast_id,
                                rate_by_mbps(54.0), 1400);
    }

    net.run(2e6);
    EXPECT_GT(net.air().counters().transmissions, 20'000u);
    EXPECT_LE(net.air().transmission_log_size(), kNodes);
}

TEST(Medium, TransmitterAbandonsReceptionAndLockResets) {
    sim::simulator sim;
    radio_config radio;
    const capacity::logistic_per_model errors;
    medium air(sim, radio, errors, 7);
    recorder a, b;
    const auto na = air.add_node(a);
    const auto nb = air.add_node(b);
    air.set_link_gain_db(na, nb, -60.0);

    // A starts a long frame; B locks onto it.
    const frame long_frame = data_frame(na, 6.0);     // ~1900 us airtime
    const frame short_frame = data_frame(nb, 54.0);   // ~230 us airtime
    sim.schedule_in(0.0, [&] {
        air.start_transmission(na, long_frame, true);
    });
    // Mid-frame, B transmits: it must abandon the reception in progress.
    sim.schedule_in(400.0, [&] {
        ASSERT_FALSE(air.transmitting(nb));
        air.start_transmission(nb, short_frame, true);
    });
    sim.run_until(3000.0);  // both frames have left the air
    EXPECT_TRUE(b.received.empty())
        << "the abandoned frame must not be delivered";

    // The lock state reset: B (idle again) locks onto A's next frame and
    // decodes it at clean-channel SINR.
    sim.schedule_in(100.0, [&] {
        air.start_transmission(na, data_frame(na, 6.0), true);
    });
    sim.run_until(6000.0);
    ASSERT_EQ(b.received.size(), 1u);
    EXPECT_EQ(b.received[0].first, na);
    EXPECT_TRUE(b.received[0].second) << "clean 55 dB SNR frame must decode";
}

TEST(Medium, ReceptionSettlesAtTheWorstSinrSeen) {
    // C locks onto D's long 6 Mb/s frame at 25 dB SNR. A's short 54 Mb/s
    // frame reaches C 10 dB above D's and leaves the air long before
    // D's frame ends. The reception settles at the worst SINR it saw
    // (about -10 dB), not at the clean SINR it ends with, so it fails;
    // without A the same reception decodes.
    for (const bool with_a : {false, true}) {
        sim::simulator sim;
        const radio_config radio;
        const capacity::logistic_per_model errors;
        medium air(sim, radio, errors, 11);
        recorder a, c, d;
        const auto na = air.add_node(a);
        const auto nc = air.add_node(c);
        const auto nd = air.add_node(d);
        air.set_link_gain_db(nd, nc, -70.0 - radio.tx_power_dbm);
        air.set_link_gain_db(na, nc, -60.0 - radio.tx_power_dbm);
        const frame fd = data_frame(nd, 6.0);   // ~1900 us airtime
        const frame fa = data_frame(na, 54.0);  // ~230 us airtime
        ASSERT_LT(200.0 + fa.airtime_us(), fd.airtime_us() / 2.0);
        sim.schedule_in(0.0, [&] { air.start_transmission(nd, fd, true); });
        if (with_a) {
            sim.schedule_in(200.0,
                            [&] { air.start_transmission(na, fa, true); });
        }
        sim.run_all();
        ASSERT_EQ(c.received.size(), 1u) << "with A " << with_a;
        EXPECT_EQ(c.received[0].first, nd);
        EXPECT_EQ(c.received[0].second, !with_a) << "with A " << with_a;
    }
}

TEST(Medium, AbandonedFrameStillCountsAsInterferenceElsewhere) {
    // B abandoning its reception does not take A's frame off the air: a
    // third node C locked onto a weak frame from D must still see A's
    // transmission as interference. Regression for lock bookkeeping
    // (abandon resets B's lock only, not the transmission).
    sim::simulator sim;
    radio_config radio;
    const capacity::logistic_per_model errors;
    medium air(sim, radio, errors, 9);
    recorder a, b, c, d;
    const auto na = air.add_node(a);
    const auto nb = air.add_node(b);
    const auto nc = air.add_node(c);
    const auto nd = air.add_node(d);
    air.set_link_gain_db(na, nb, -60.0);
    air.set_link_gain_db(nd, nc, -88.0);  // marginal link: 27 dB SNR...
    air.set_link_gain_db(na, nc, -90.0);  // ...A degrades it to ~2 dB SINR
    air.set_link_gain_db(na, nd, -140.0);
    air.set_link_gain_db(nb, nc, -140.0);
    air.set_link_gain_db(nb, nd, -140.0);
    air.set_link_gain_db(nc, nd, -88.0);

    // D's long frame starts first and C locks on cleanly.
    sim.schedule_in(0.0, [&] {
        air.start_transmission(nd, data_frame(nd, 24.0), true);
    });
    // A's long frame overlaps it; B abandons nothing here - it just
    // transmits to force the abandon path while C's reception runs.
    sim.schedule_in(50.0, [&] {
        air.start_transmission(na, data_frame(na, 6.0), true);
    });
    sim.schedule_in(100.0, [&] {
        air.start_transmission(nb, data_frame(nb, 54.0), true);
    });
    sim.run_until(10000.0);
    ASSERT_EQ(c.received.size(), 1u);
    EXPECT_FALSE(c.received[0].second)
        << "A's frame must stay on the air as interference at C even "
           "after B abandoned its own reception of it";
}

TEST(MediumCca, ListenersHearOnlyBusyIdleFlips) {
    // One frame, two listeners: one hears it above the -82 dBm energy
    // threshold, one below. The loud one gets exactly busy then idle,
    // each one CCA lag after the power moved; the quiet one and the
    // transmitter (its own frame is not external power) hear nothing.
    // The floor changes no decision here, so runs with and without it
    // must agree.
    for (const bool culled : {false, true}) {
        sim::simulator sim;
        radio_config radio;
        if (culled) radio.audibility_floor_dbm = radio.noise_floor_dbm - 20.0;
        const capacity::logistic_per_model errors;
        medium air(sim, radio, errors, 3);
        cca_recorder tx(sim), loud(sim), quiet(sim);
        const auto nt = air.add_node(tx);
        const auto nl = air.add_node(loud);
        const auto nq = air.add_node(quiet);
        air.set_link_gain_db(nt, nl, -85.0);   // -70 dBm at the loud node
        air.set_link_gain_db(nt, nq, -105.0);  // -90 dBm: audible, not busy
        air.set_link_gain_db(nl, nq, -140.0);
        const frame f = data_frame(nt, 6.0);
        sim.schedule_in(0.0, [&] { air.start_transmission(nt, f, true); });
        sim.run_until(10000.0);

        const double lag = radio.cca_delay_us;
        ASSERT_EQ(loud.flips.size(), 2u) << "culled " << culled;
        EXPECT_EQ(loud.flips[0], std::make_pair(lag, true));
        EXPECT_EQ(loud.flips[1], std::make_pair(f.airtime_us() + lag, false));
        EXPECT_TRUE(quiet.flips.empty()) << "culled " << culled;
        EXPECT_TRUE(tx.flips.empty()) << "culled " << culled;
    }
}

TEST(MediumCca, ThresholdStepIsJudgedAgainstTheLastSample) {
    sim::simulator sim;
    radio_config radio;
    radio.audibility_floor_dbm = radio.noise_floor_dbm - 20.0;
    const capacity::logistic_per_model errors;
    medium air(sim, radio, errors, 5);
    cca_recorder tx(sim), rx(sim);
    const auto nt = air.add_node(tx);
    const auto nr = air.add_node(rx);
    air.set_link_gain_db(nt, nr, -85.0);  // -70 dBm at rx
    sim.schedule_in(0.0, [&] {
        air.start_transmission(nt, data_frame(nt, 6.0), true);
    });
    // Inside the CCA lag the live power is already -70 dBm, but rx has
    // only sampled the silent air: a -90 dBm threshold must not flip it.
    sim.schedule_in(2.0, [&] { air.set_cca_threshold_dbm(nr, -90.0); });
    sim.run_until(3.0);
    EXPECT_TRUE(rx.flips.empty())
        << "the step was judged against the live power, not the last sample";
    sim.run_until(100.0);
    ASSERT_EQ(rx.flips.size(), 1u);
    EXPECT_EQ(rx.flips[0], std::make_pair(radio.cca_delay_us, true));

    // Mid-frame, with no new sample: raising the threshold above the
    // sampled -70 dBm flips rx idle at once, lowering it flips it back.
    air.set_cca_threshold_dbm(nr, -60.0);
    ASSERT_EQ(rx.flips.size(), 2u);
    EXPECT_EQ(rx.flips[1], std::make_pair(100.0, false));
    air.set_cca_threshold_dbm(nr, -75.0);
    ASSERT_EQ(rx.flips.size(), 3u);
    EXPECT_EQ(rx.flips[2], std::make_pair(100.0, true));
    air.set_cca_threshold_dbm(nr, -72.0);  // still below the sample
    EXPECT_EQ(rx.flips.size(), 3u) << "a step that keeps the state is silent";

    // The mW compare decides exactly like the dB one: a threshold equal
    // to the sample's dBm reading is busy, the next double above idle.
    const double sampled_dbm = air.external_power_dbm(nr);  // no change since
    air.set_cca_threshold_dbm(
        nr, std::nextafter(sampled_dbm, std::numeric_limits<double>::infinity()));
    air.set_cca_threshold_dbm(nr, sampled_dbm);
    ASSERT_EQ(rx.flips.size(), 5u);
    EXPECT_FALSE(rx.flips[3].second);
    EXPECT_TRUE(rx.flips[4].second);
}

TEST(MediumCca, BusyTimeFollowsTheSamples) {
    // Two frames reach a listening DCF node C: A's at -70 dBm (above
    // C's -82 dBm threshold) from t = 0, B's at -90 dBm (below it) from
    // t = 3000 us. Every power change is sampled one CCA lag later and
    // held until the next sample, so C was busy for exactly A's
    // airtime, starting one lag after A's start.
    sim::simulator sim;
    radio_config radio;
    radio.audibility_floor_dbm = radio.noise_floor_dbm - 20.0;
    const capacity::logistic_per_model errors;
    medium air(sim, radio, errors, 11);
    recorder a, b;
    const auto na = air.add_node(a);
    const auto nb = air.add_node(b);
    dcf_node c(sim, air, mac_config{}, 12);
    const auto nc = c.id();
    air.set_link_gain_db(na, nc, -85.0);
    air.set_link_gain_db(nb, nc, -105.0);
    air.set_link_gain_db(na, nb, -140.0);
    const frame fa = data_frame(na, 6.0);
    const frame fb = data_frame(nb, 12.0);
    sim.schedule_in(0.0, [&] { air.start_transmission(na, fa, true); });
    sim.schedule_in(3000.0, [&] { air.start_transmission(nb, fb, true); });

    const double lag = radio.cca_delay_us;
    ASSERT_LT(fa.airtime_us() + lag, 3000.0);

    sim.run_until(1000.0);  // mid-frame A: sampled at t = lag
    EXPECT_DOUBLE_EQ(c.energy_busy_time_us(), 1000.0 - lag);

    sim.run_until(6000.0);
    EXPECT_DOUBLE_EQ(c.energy_busy_time_us(), fa.airtime_us());
}

TEST(MediumCca, TransmitterSamplesItselfAfterItsOwnStart) {
    // The CCA sample that follows a start covers the transmitter too (a
    // half-duplex radio re-sensing after its own frame). A lone
    // transmitter whose threshold sits below the -95 dBm noise floor -
    // and above the -115 dBm culling floor - reads busy on its first
    // sample: it must flip exactly once, one CCA lag after its start,
    // with the floor off and on.
    for (const bool culled : {false, true}) {
        sim::simulator sim;
        radio_config radio;
        if (culled) radio.audibility_floor_dbm = radio.noise_floor_dbm - 20.0;
        const capacity::logistic_per_model errors;
        medium air(sim, radio, errors, 3);
        cca_recorder tx(sim);
        const auto nt = air.add_node(tx, -100.0);
        const frame f = data_frame(nt, 6.0);
        sim.schedule_in(10.0, [&] { air.start_transmission(nt, f, true); });
        sim.run_until(10.0 + 2.0 * f.airtime_us());

        ASSERT_EQ(tx.flips.size(), 1u) << "culled " << culled;
        EXPECT_EQ(tx.flips[0], std::make_pair(10.0 + radio.cca_delay_us, true))
            << "culled " << culled;
    }
}

/// What a listener heard, and when; kind is 'p' (on_preamble, with
/// `until`), 'b' (busy flip) or 'i' (idle flip).
struct heard {
    sim::time_us at;
    node_id id;
    char kind;
    sim::time_us until;

    bool operator==(const heard&) const = default;
};

/// Listener that appends its preambles and CCA flips to a shared log.
struct shared_logger final : medium_listener {
    shared_logger(const sim::simulator& simulator, std::vector<heard>& log)
        : simulator(&simulator), log(&log) {}

    const sim::simulator* simulator;
    std::vector<heard>* log;
    node_id id = 0;

    void on_energy_busy(bool busy) override {
        log->push_back({simulator->now(), id, busy ? 'b' : 'i', 0.0});
    }
    void on_preamble(sim::time_us until) override {
        log->push_back({simulator->now(), id, 'p', until});
    }
    void on_frame_received(const frame&, bool) override {}
    void on_tx_complete(const frame&) override {}
};

TEST(Medium, OneEventCarriesAFramesPreamblesAndItsCcaSample) {
    // Node 0 sends one 36 us frame to eight listeners at -60 dBm. One
    // CCA lag after the start, each listener hears the preamble, in
    // ascending id, and then each flips busy, in ascending id - the
    // order in which separate same-time events would fire. One lag
    // after the end each flips idle. The whole frame costs the kernel
    // three events: the after-start event, the end and the end's CCA
    // sample.
    constexpr node_id kListeners = 8;
    sim::simulator sim;
    const radio_config radio;
    const capacity::logistic_per_model errors;
    medium air(sim, radio, errors, 17);
    recorder tx;
    const auto nt = air.add_node(tx);
    std::vector<heard> log;
    std::vector<shared_logger> listeners(kListeners,
                                         shared_logger(sim, log));
    for (shared_logger& listener : listeners) {
        listener.id = air.add_node(listener);
        air.set_link_gain_db(nt, listener.id, -60.0 - radio.tx_power_dbm);
    }
    const frame f = data_frame(nt, 54.0, 100);
    ASSERT_DOUBLE_EQ(f.airtime_us(), 36.0);
    air.start_transmission(nt, f, true);  // at t = 0
    sim.run_all();

    const double lag = radio.cca_delay_us;
    std::vector<heard> expected;
    for (const char kind : {'p', 'b'}) {
        for (node_id n = 1; n <= kListeners; ++n) {
            expected.push_back({lag, n, kind, kind == 'p' ? 36.0 : 0.0});
        }
    }
    for (node_id n = 1; n <= kListeners; ++n) {
        expected.push_back({36.0 + lag, n, 'i', 0.0});
    }
    EXPECT_EQ(log, expected);
    EXPECT_EQ(sim.events_executed(), 3u);
}

TEST(MediumExactSums, IncrementalSumsMatchABruteForceReSum) {
    // Without a floor the medium is exact: at every event boundary a
    // node's external power is the noise floor plus the rx power of
    // every other node on the air. The reference re-sums that from the
    // public surface; the medium gets there through its incremental
    // row passes. Random N = 20 topology, gains spanning 70 dB, frames
    // of three airtimes started at random instants.
    constexpr node_id nodes = 20;
    stats::rng gen(2024);
    sim::simulator sim;
    const radio_config radio;
    const capacity::logistic_per_model errors;
    medium air(sim, radio, errors, 5);
    std::vector<recorder> listeners(nodes);
    for (auto& listener : listeners) air.add_node(listener);
    for (node_id a = 0; a < nodes; ++a) {
        for (node_id b = a + 1; b < nodes; ++b) {
            air.set_link_gain_db(a, b, gen.uniform(-120.0, -50.0));
        }
    }

    const double noise_mw = propagation::dbm_to_mw(radio.noise_floor_dbm);
    int checks = 0;
    int crowded_checks = 0;  ///< checks with at least three on the air
    const auto check = [&] {
        int on_air = 0;
        for (node_id n = 0; n < nodes; ++n) {
            if (air.transmitting(n)) ++on_air;
        }
        for (node_id n = 0; n < nodes; ++n) {
            stats::kahan_sum expected_mw(noise_mw);
            for (node_id m = 0; m < nodes; ++m) {
                if (m == n || !air.transmitting(m)) continue;
                expected_mw.add(propagation::dbm_to_mw(
                    radio.tx_power_dbm + air.link_gain_db(m, n)));
            }
            const double medium_mw =
                propagation::dbm_to_mw(air.external_power_dbm(n));
            ASSERT_NEAR(medium_mw, expected_mw.value(),
                        1e-9 * expected_mw.value())
                << "node " << n << " at t = " << sim.now();
        }
        ++checks;
        if (on_air >= 3) ++crowded_checks;
    };
    const std::array<double, 3> rates = {6.0, 24.0, 54.0};
    for (node_id n = 0; n < nodes; ++n) {
        for (int k = 0; k < 12; ++k) {
            const double mbps = rates[gen.uniform_int(rates.size())];
            sim.schedule_in(gen.uniform(0.0, 20'000.0), [&, n, mbps] {
                if (!air.transmitting(n)) {
                    air.start_transmission(n, data_frame(n, mbps), true);
                }
                check();
            });
        }
    }
    // Samples between starts see the state after ends as well.
    for (int k = 0; k < 400; ++k) {
        sim.schedule_in(gen.uniform(0.0, 25'000.0), check);
    }
    sim.run_all();
    check();  // all quiet again: exactly the noise floor
    EXPECT_EQ(checks, nodes * 12 + 400 + 1);
    EXPECT_GT(crowded_checks, 100) << "too few overlapping frames to test";
}

}  // namespace
