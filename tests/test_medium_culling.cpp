// The audibility floor: culled neighbor lists and the spatial-grid
// topology setup must reproduce the exact (floor-less) medium - exactly
// where the model says they are exact (sub-floor power treated as
// zero), and within a tight tolerance on end-to-end metrics over random
// topologies. Without a floor every set link is audible. Neither the
// order in which links are set nor a link reservation changes the
// medium. Also the unified bounds checking across the medium's public
// surface.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "src/capacity/error_models.hpp"
#include "src/capacity/rate_table.hpp"
#include "src/mac/adaptive_cs.hpp"
#include "src/mac/medium.hpp"
#include "src/mac/multi_pair.hpp"
#include "src/mac/network.hpp"
#include "src/sim/simulator.hpp"
#include "src/stats/rng.hpp"

namespace {

using namespace csense;
using namespace csense::mac;
using csense::capacity::rate_by_mbps;

struct recorder final : medium_listener {
    int energy_flips = 0;
    int preambles = 0;
    std::vector<std::pair<node_id, bool>> received;  ///< (src, decoded)

    void on_energy_busy(bool) override { ++energy_flips; }
    void on_preamble(sim::time_us) override { ++preambles; }
    void on_frame_received(const frame& f, bool decoded) override {
        received.emplace_back(f.src, decoded);
    }
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

TEST(MediumValidation, PublicSurfaceChecksNodeIdsUniformly) {
    sim::simulator sim;
    const capacity::logistic_per_model errors;
    medium air(sim, radio_config{}, errors, 1);
    recorder a, b;
    const auto na = air.add_node(a);
    const auto nb = air.add_node(b);
    air.set_link_gain_db(na, nb, -60.0);

    EXPECT_THROW(air.external_power_dbm(2), std::invalid_argument);
    EXPECT_THROW(air.transmitting(2), std::invalid_argument);
    EXPECT_THROW(air.link_gain_db(na, 2), std::invalid_argument);
    EXPECT_THROW(air.link_gain_db(2, nb), std::invalid_argument);
    EXPECT_THROW(air.link_gain_db(na, na), std::invalid_argument);
    EXPECT_THROW(air.rx_power_dbm(na, 2), std::invalid_argument);
    EXPECT_THROW(air.set_link_gain_db(na, 2, -60.0), std::invalid_argument);
    EXPECT_THROW(air.neighbor_count(2), std::invalid_argument);
    EXPECT_THROW(air.start_transmission(2, data_frame(2, 6.0), true),
                 std::invalid_argument);
    // Valid ids keep working.
    EXPECT_FALSE(air.transmitting(na));
    EXPECT_DOUBLE_EQ(air.link_gain_db(na, nb), -60.0);
}

TEST(MediumValidation, AudibilityFloorMustSitBelowCcaThresholds) {
    sim::simulator sim;
    const capacity::logistic_per_model errors;
    radio_config radio;
    radio.audibility_floor_dbm = radio.preamble_threshold_dbm + 1.0;
    EXPECT_THROW(medium(sim, radio, errors, 1), std::invalid_argument);
    // A floor below the preamble sensitivity but above a lowered energy
    // threshold would silently deafen energy CCA to real carriers.
    radio.cs_threshold_dbm = -105.0;
    radio.audibility_floor_dbm = -100.0;
    EXPECT_THROW(medium(sim, radio, errors, 1), std::invalid_argument);
    radio.cs_threshold_dbm = -82.0;
    radio.audibility_floor_dbm = radio.noise_floor_dbm - 20.0;
    EXPECT_NO_THROW(medium(sim, radio, errors, 1));
}

TEST(MediumValidation, CcaDelayMustLieWithinOneSlot) {
    // The after-start event reads the frame's slot one CCA lag after
    // the start, so the lag must be a real number in [0, slot_us).
    sim::simulator sim;
    const capacity::logistic_per_model errors;
    radio_config radio;
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(), -1.0,
                             capacity::ofdm_timing::slot_us}) {
        radio.cca_delay_us = bad;
        EXPECT_THROW(medium(sim, radio, errors, 1), std::invalid_argument)
            << "cca_delay_us " << bad;
    }
    for (const double good : {0.0, 4.0}) {
        radio.cca_delay_us = good;
        EXPECT_NO_THROW(medium(sim, radio, errors, 1))
            << "cca_delay_us " << good;
    }
}

TEST(MediumValidation, AdaptiveClampMustStayAboveTheFloor) {
    // run_multi_pair rejects an adaptive clamp at or below the floor up
    // front, before the medium would refuse a controller's install.
    stats::rng gen(4);
    const auto topology = mac::sample_multi_pair_topology(2, 100.0, 10.0, gen);
    multi_pair_config config;
    config.rate = &rate_by_mbps(6.0);
    config.adapt.policy = cs_adapt_policy::target_busy;
    // A floor in [-95, -92) dBm passes the medium's preamble check, but
    // the controllers' -95 dBm clamp reaches it.
    ASSERT_EQ(mac::adaptive_cs_controller::min_threshold_dbm, -95.0);
    for (const double floor : {-95.0, -94.0, -92.5}) {
        config.radio.audibility_floor_dbm = floor;
        EXPECT_THROW(mac::run_multi_pair(topology, config),
                     std::invalid_argument)
            << "floor " << floor;
    }
    config.radio.audibility_floor_dbm = -95.5;  // the clamp clears it
    EXPECT_NO_THROW(mac::run_multi_pair(topology, config));
    // A fixed threshold never visits the clamp, so the floor only has
    // to sit below the radio's thresholds.
    config.adapt.policy = cs_adapt_policy::fixed;
    config.radio.audibility_floor_dbm = -94.0;
    EXPECT_NO_THROW(mac::run_multi_pair(topology, config));
}

TEST(MediumValidation, PerNodeThresholdsMustStayAboveTheFloor) {
    // The medium holds every node's CCA threshold, so it rejects one at
    // or below the floor whichever route installs it - not only the
    // adaptive clamp run_multi_pair checks up front.
    radio_config radio;
    radio.audibility_floor_dbm = radio.noise_floor_dbm - 20.0;  // -115 dBm

    // A registration threshold on the floor: refused, nothing registered.
    {
        sim::simulator sim;
        const capacity::logistic_per_model errors;
        medium air(sim, radio, errors, 1);
        recorder listener;
        EXPECT_THROW(air.add_node(listener, radio.audibility_floor_dbm),
                     std::invalid_argument);
        EXPECT_EQ(air.node_count(), 0u);
        EXPECT_EQ(air.add_node(listener, radio.audibility_floor_dbm + 1.0),
                  0u);
        EXPECT_DOUBLE_EQ(air.cca_threshold_dbm(0),
                         radio.audibility_floor_dbm + 1.0);
    }

    // A hand-built adaptive manager has no up-front clamp check. Under a
    // floor the -95 dBm clamp reaches, the controller's step below the
    // floor is refused mid-run and the old threshold stays. On idle air
    // a lone target_busy sender steps -0.6 dB per epoch from -82 dBm:
    // epoch 20 lands at -94.0 dBm, epoch 21 at -94.6.
    radio_config near = radio;
    near.audibility_floor_dbm = -94.3;
    network adaptive(near, 2);
    mac_config sender;
    sender.adapt.policy = cs_adapt_policy::target_busy;
    const auto s = adaptive.add_node(sender);
    const auto r = adaptive.add_node(mac_config{});
    adaptive.set_link_gain_db(s, r, -60.0);
    adaptive_cs_manager manager(adaptive, {{s, r}}, 3);
    manager.start();
    EXPECT_THROW(adaptive.run(40.0 * sender.adapt.epoch_us),
                 std::invalid_argument);
    EXPECT_EQ(manager.epochs(), 20u);
    EXPECT_NEAR(adaptive.node(s).cs_threshold_dbm(), -94.0, 1e-9);

    // Direct overrides: at the floor refused, just above accepted.
    EXPECT_THROW(adaptive.node(s).set_cs_threshold_dbm(
                     near.audibility_floor_dbm),
                 std::invalid_argument);
    EXPECT_NO_THROW(adaptive.node(s).set_cs_threshold_dbm(
        near.audibility_floor_dbm + 0.5));
    EXPECT_DOUBLE_EQ(adaptive.node(s).cs_threshold_dbm(),
                     near.audibility_floor_dbm + 0.5);

    // Without a floor any threshold is legal.
    network dense(radio_config{}, 4);
    const auto d = dense.add_node(mac_config{});
    EXPECT_NO_THROW(dense.node(d).set_cs_threshold_dbm(-130.0));
}

TEST(MediumCulling, RepeatedLinkGainKeepsTheLastWrite) {
    sim::simulator sim;
    radio_config radio;
    radio.audibility_floor_dbm = radio.noise_floor_dbm - 20.0;
    const capacity::logistic_per_model errors;
    medium air(sim, radio, errors, 7);
    recorder a, b, c;
    const auto na = air.add_node(a);
    const auto nb = air.add_node(b);
    const auto nc = air.add_node(c);
    air.set_link_gain_db(na, nb, -65.0);
    air.set_link_gain_db(na, nc, -70.0);
    air.set_link_gain_db(nb, na, -60.0);  // same link, reversed ids
    EXPECT_DOUBLE_EQ(air.link_gain_db(na, nb), -60.0);
    EXPECT_DOUBLE_EQ(air.link_gain_db(nc, na), -70.0);
    // A write after a lookup still wins: it culls the a-c link.
    air.set_link_gain_db(nc, na, -150.0);
    EXPECT_DOUBLE_EQ(air.link_gain_db(na, nc), -150.0);

    sim.schedule_in(0.0, [&] {
        air.start_transmission(na, data_frame(na, 6.0), true);
    });
    sim.run_until(100.0);
    EXPECT_DOUBLE_EQ(air.link_gain_db(nb, na), -60.0);
    EXPECT_DOUBLE_EQ(air.link_gain_db(na, nc), -150.0);
    EXPECT_EQ(air.neighbor_count(na), 1u) << "a-b must count once";
    EXPECT_EQ(air.neighbor_count(nb), 1u);
    EXPECT_EQ(air.neighbor_count(nc), 0u);
    EXPECT_NEAR(air.external_power_dbm(nb), radio.tx_power_dbm - 60.0, 0.01)
        << "the frame must reach b at the last-written gain";
}

TEST(MediumCulling, LinkOrderAndReservationNeverChangeTheMedium) {
    // The same gains set in ascending key order into reserved storage
    // (reserve_links) and in descending order with no reservation build
    // the same medium: the same neighbor lists, gains and sensed power.
    constexpr node_id kNodes = 12;
    radio_config radio;
    radio.audibility_floor_dbm = radio.noise_floor_dbm - 20.0;
    const capacity::logistic_per_model errors;
    stats::rng gen(21);
    std::vector<std::pair<node_id, node_id>> links;
    std::vector<double> gains;
    for (node_id a = 0; a < kNodes; ++a) {
        for (node_id b = a + 1; b < kNodes; ++b) {
            links.emplace_back(a, b);
            gains.push_back(gen.uniform(-150.0, -50.0));  // some culled
        }
    }
    const auto observe = [&](bool ascending) {
        sim::simulator sim;
        medium air(sim, radio, errors, 7);
        std::vector<recorder> nodes(kNodes);
        for (recorder& node : nodes) air.add_node(node);
        if (ascending) air.reserve_links(links.size());
        for (std::size_t k = 0; k < links.size(); ++k) {
            const std::size_t i = ascending ? k : links.size() - 1 - k;
            air.set_link_gain_db(links[i].first, links[i].second, gains[i]);
        }
        sim.schedule_in(0.0, [&] {
            air.start_transmission(0, data_frame(0, 6.0), true);
        });
        sim.run_until(10.0);  // the frame is on the air
        std::vector<double> seen;
        for (node_id n = 1; n < kNodes; ++n) {
            seen.push_back(static_cast<double>(air.neighbor_count(n)));
            seen.push_back(air.link_gain_db(0, n));
            seen.push_back(air.external_power_dbm(n));
        }
        return seen;
    };
    EXPECT_EQ(observe(true), observe(false));
}

TEST(MediumCulling, SubFloorLinksAreCulledAndNeighborsStillServed) {
    sim::simulator sim;
    radio_config radio;
    radio.audibility_floor_dbm = radio.noise_floor_dbm - 20.0;  // -115 dBm
    const capacity::logistic_per_model errors;
    medium air(sim, radio, errors, 7);
    recorder a, b, c;
    const auto na = air.add_node(a);
    const auto nb = air.add_node(b);
    // c's threshold sits between the floor and the -95 dBm noise floor:
    // any CCA sample of c - even of the silent air - would flip it busy.
    const auto nc = air.add_node(c, -100.0);
    air.set_link_gain_db(na, nb, -60.0);   // audible, decodable
    air.set_link_gain_db(na, nc, -140.0);  // -125 dBm rx: below the floor
    air.set_link_gain_db(nb, nc, -140.0);

    sim.schedule_in(0.0, [&] {
        air.start_transmission(na, data_frame(na, 6.0), true);
    });
    sim.run_until(100.0);

    EXPECT_EQ(air.neighbor_count(na), 1u);
    EXPECT_EQ(air.neighbor_count(nb), 1u);
    EXPECT_EQ(air.neighbor_count(nc), 0u);
    // Mid-frame: the neighbor sees the power, the culled node sees
    // silence (its sub-floor rx power is modeled as exactly zero).
    EXPECT_NEAR(air.external_power_dbm(nb), radio.tx_power_dbm - 60.0, 0.1);
    EXPECT_DOUBLE_EQ(air.external_power_dbm(nc), radio.noise_floor_dbm);

    sim.run_until(5000.0);  // frame ends (~1.9 ms at 6 Mb/s)
    ASSERT_EQ(b.received.size(), 1u);
    EXPECT_EQ(b.received[0].first, na);
    EXPECT_TRUE(b.received[0].second);
    EXPECT_EQ(b.energy_flips, 2) << "-45 dBm frame: one busy, one idle flip";
    EXPECT_GT(b.preambles, 0);
    EXPECT_EQ(c.energy_flips, 0)
        << "a node outside every neighbor row must never be CCA-sampled";
    EXPECT_EQ(c.preambles, 0);
    EXPECT_TRUE(c.received.empty());
    // When the air went quiet the neighbor's power returned exactly to
    // the noise floor (the incremental sum resets when the audible set
    // empties - no drift).
    EXPECT_DOUBLE_EQ(air.external_power_dbm(nb), radio.noise_floor_dbm);
}

/// Shared setup for the end-to-end tolerance runs: a sparse arena where
/// the audibility floor actually removes most links.
multi_pair_config sparse_arena_config(bool culled) {
    multi_pair_config config;
    config.rate = &rate_by_mbps(6.0);
    config.alpha = 4.0;  // urban-ish falloff so the audible range is finite
    config.duration_us = 3e5;
    if (culled) {
        config.radio.audibility_floor_dbm =
            config.radio.noise_floor_dbm - 20.0;
    }
    return config;
}

TEST(MediumCulling, CulledMatchesExactWithinTolerance) {
    // On random N=20 topologies the culled medium's throughput/fairness
    // must agree with the exact (floor-less) medium within a tolerance
    // set by the dropped sub-floor power (< 0.2 dB of aggregate
    // interference in this arena). Both runs take the same code path,
    // so this measures the floor's approximation alone. The runs are
    // stochastic replays of the same seed, so residual divergence comes
    // only from rare PER draws flipped by the tiny SINR shift.
    for (const std::uint64_t seed : {11u, 22u, 33u}) {
        stats::rng gen(seed);
        const auto topology = mac::sample_multi_pair_topology(
            /*pairs=*/20, /*arena_m=*/400.0, /*rmax_m=*/10.0, gen);
        auto exact = sparse_arena_config(false);
        auto culled = sparse_arena_config(true);
        exact.seed = culled.seed = 1000 + seed;
        const auto exact_run = mac::run_multi_pair(topology, exact);
        const auto culled_run = mac::run_multi_pair(topology, culled);
        ASSERT_GT(exact_run.total_pps, 0.0);
        EXPECT_NEAR(culled_run.total_pps / exact_run.total_pps, 1.0, 0.05)
            << "seed " << seed;
        EXPECT_NEAR(culled_run.jain_index(), exact_run.jain_index(), 0.05)
            << "seed " << seed;
        // Same transmission counters: backoff streams are per-node and
        // the culled CCA sees the same super-threshold power.
        EXPECT_NEAR(static_cast<double>(culled_run.counters.transmissions),
                    static_cast<double>(exact_run.counters.transmissions),
                    0.02 * static_cast<double>(exact_run.counters.transmissions))
            << "seed " << seed;
    }
}

TEST(MediumCulling, FadingWidensTheCullCriterionByThreeSigma) {
    // With fading on, a link whose *mean* power sits below the floor can
    // still fade above a CCA threshold on some frames; the freeze must
    // keep any link within the 3-sigma fade allowance of the floor.
    const capacity::logistic_per_model errors;
    radio_config radio;
    radio.audibility_floor_dbm = radio.noise_floor_dbm - 20.0;  // -115 dBm
    // Mean rx power -118 dBm: below the plain floor...
    const double gain_db = -118.0 - radio.tx_power_dbm;

    sim::simulator sim_unfaded;
    medium unfaded(sim_unfaded, radio, errors, 7);
    recorder a1, b1;
    const auto ua = unfaded.add_node(a1);
    const auto ub = unfaded.add_node(b1);
    unfaded.set_link_gain_db(ua, ub, gain_db);
    sim_unfaded.schedule_in(0.0, [&] {
        unfaded.start_transmission(ua, data_frame(ua, 6.0), true);
    });
    sim_unfaded.run_until(10.0);
    EXPECT_EQ(unfaded.neighbor_count(ub), 0u) << "culled without fading";

    sim::simulator sim_faded;
    radio.fading_sigma_db = 2.0;  // effective floor: -121 dBm
    medium faded(sim_faded, radio, errors, 7);
    recorder a2, b2;
    const auto fa = faded.add_node(a2);
    const auto fb = faded.add_node(b2);
    faded.set_link_gain_db(fa, fb, gain_db);
    sim_faded.schedule_in(0.0, [&] {
        faded.start_transmission(fa, data_frame(fa, 6.0), true);
    });
    sim_faded.run_until(10.0);
    EXPECT_EQ(faded.neighbor_count(fb), 1u)
        << "a link within 3 sigma of the floor must stay audible";
}

TEST(MediumCulling, CulledMatchesExactWithFadingEnabled) {
    // With fading the two runs consume RNG differently (every frame
    // draws one fade per row neighbor, and the exact medium's rows hold
    // every link), so they diverge stochastically rather than only by
    // the dropped sub-floor power - but thanks to the 3-sigma cull
    // allowance the aggregate metrics must still agree.
    for (const std::uint64_t seed : {11u, 22u, 33u}) {
        stats::rng gen(seed);
        const auto topology = mac::sample_multi_pair_topology(20, 400.0, 10.0, gen);
        auto exact = sparse_arena_config(false);
        auto culled = sparse_arena_config(true);
        exact.radio.fading_sigma_db = culled.radio.fading_sigma_db = 3.0;
        exact.seed = culled.seed = 1000 + seed;
        const auto exact_run = mac::run_multi_pair(topology, exact);
        const auto culled_run = mac::run_multi_pair(topology, culled);
        ASSERT_GT(exact_run.total_pps, 0.0);
        EXPECT_NEAR(culled_run.total_pps / exact_run.total_pps, 1.0, 0.05)
            << "seed " << seed;
        EXPECT_NEAR(culled_run.jain_index(), exact_run.jain_index(), 0.05)
            << "seed " << seed;
    }
}

TEST(MediumCulling, CulledRunsAreDeterministic) {
    stats::rng gen(5);
    const auto topology = mac::sample_multi_pair_topology(20, 400.0, 10.0, gen);
    auto config = sparse_arena_config(true);
    config.duration_us = 2e5;

    const auto once = mac::run_multi_pair(topology, config);
    const auto again = mac::run_multi_pair(topology, config);
    EXPECT_EQ(once.per_pair_pps, again.per_pair_pps)
        << "same seed must reproduce the culled run bit-for-bit";
    EXPECT_EQ(once.counters.transmissions, again.counters.transmissions);
}

TEST(MediumCulling, GridLinkingMatchesBruteForce) {
    stats::rng gen(9);
    const auto topology = mac::sample_multi_pair_topology(60, 600.0, 15.0, gen);
    const auto config = sparse_arena_config(true);

    const auto grid_pairs = mac::audible_link_pairs(topology, config);
    std::set<std::pair<node_id, node_id>> grid_set(grid_pairs.begin(),
                                                   grid_pairs.end());
    EXPECT_EQ(grid_set.size(), grid_pairs.size()) << "duplicate pairs";

    // Brute-force reference over the flattened node order (sender i is
    // node 2i, receiver i is node 2i + 1).
    std::vector<multi_pair_topology::position> nodes;
    for (std::size_t i = 0; i < topology.pairs(); ++i) {
        nodes.push_back(topology.senders[i]);
        nodes.push_back(topology.receivers[i]);
    }
    std::size_t audible = 0, total = 0;
    for (node_id a = 0; a < nodes.size(); ++a) {
        for (node_id b = a + 1; b < nodes.size(); ++b) {
            ++total;
            const double dist = std::hypot(nodes[a].x - nodes[b].x,
                                           nodes[a].y - nodes[b].y);
            const double rx_dbm =
                config.radio.tx_power_dbm + config.gain_db(dist);
            if (rx_dbm >= config.radio.audibility_floor_dbm) {
                ++audible;
                EXPECT_TRUE(grid_set.count({a, b}))
                    << "grid dropped audible pair " << a << "," << b
                    << " at distance " << dist;
            }
        }
    }
    EXPECT_GT(audible, 0u);
    EXPECT_LT(grid_set.size(), total)
        << "the floor should cull most of this sparse arena";
    // Over-inclusion is allowed only in a hair's width at the range
    // boundary; anything more means the grid is not actually culling.
    EXPECT_LE(grid_set.size(), audible + 2);
}

TEST(MediumCulling, FloorlessMediumHearsEverySetLink) {
    // camp01-camp04 and the testbed scenarios construct their radios
    // from the defaults, where the floor is disabled: a floor at
    // -infinity. Every set link joins the neighbor lists however weak it
    // is, so the medium is exact; a link never set carries no power.
    EXPECT_FALSE(radio_config{}.audibility_enabled());
    EXPECT_FALSE(multi_pair_config{}.radio.audibility_enabled());
    const capacity::logistic_per_model errors;

    constexpr node_id nodes = 6;
    sim::simulator sim_full;
    medium full(sim_full, radio_config{}, errors, 1);
    std::vector<recorder> listeners(nodes);
    for (auto& listener : listeners) full.add_node(listener);
    for (node_id a = 0; a < nodes; ++a) {
        for (node_id b = a + 1; b < nodes; ++b) {
            full.set_link_gain_db(a, b, -100.0 * (a + b));  // down to -900 dB
        }
    }
    EXPECT_THROW(full.neighbor_count(0), std::logic_error)
        << "rows exist only once the topology froze";
    sim_full.schedule_in(0.0, [&] {
        full.start_transmission(0, data_frame(0, 6.0), true);
    });
    sim_full.run_until(100.0);
    for (node_id n = 0; n < nodes; ++n) {
        EXPECT_EQ(full.neighbor_count(n), nodes - 1u) << "node " << n;
    }

    sim::simulator sim_unset;
    medium unset(sim_unset, radio_config{}, errors, 1);
    recorder a, b, c;
    const auto na = unset.add_node(a);
    const auto nb = unset.add_node(b);
    const auto nc = unset.add_node(c);
    unset.set_link_gain_db(na, nb, -60.0);  // a-c and b-c stay unset
    EXPECT_EQ(unset.link_gain_db(na, nc),
              -std::numeric_limits<double>::infinity());
    sim_unset.schedule_in(0.0, [&] {
        unset.start_transmission(na, data_frame(na, 6.0), true);
    });
    sim_unset.run_until(100.0);
    EXPECT_EQ(unset.neighbor_count(na), 1u);
    EXPECT_EQ(unset.neighbor_count(nc), 0u);
    EXPECT_EQ(unset.external_power_dbm(nc), radio_config{}.noise_floor_dbm)
        << "an unset link must carry no power";
    sim_unset.run_until(5000.0);
    EXPECT_EQ(c.energy_flips, 0);
    EXPECT_EQ(c.preambles, 0);
    EXPECT_TRUE(c.received.empty());
    ASSERT_EQ(b.received.size(), 1u);
    EXPECT_TRUE(b.received[0].second);
}

TEST(MediumCulling, DisabledFloorReturnsAllPairs) {
    stats::rng gen(3);
    const auto topology = mac::sample_multi_pair_topology(5, 100.0, 10.0, gen);
    const auto config = sparse_arena_config(false);
    const auto pairs = mac::audible_link_pairs(topology, config);
    EXPECT_EQ(pairs.size(), 10u * 9u / 2u);
}

}  // namespace
