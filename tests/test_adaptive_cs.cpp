// The closed-loop carrier-sense controllers (src/mac/adaptive_cs.hpp):
// clamping, the disabled-policy inertness guarantee (adaptation off must
// leave runs byte-identical - the camp01/camp02 compatibility contract),
// determinism, and convergence of the online iterative fixed point to
// its closed-form equilibrium on a symmetric two-pair topology.
#include <gtest/gtest.h>

#include <cmath>

#include "src/mac/adaptive_cs.hpp"
#include "src/mac/multi_pair.hpp"
#include "src/propagation/units.hpp"

namespace {

using namespace csense;
using mac::cs_adapt_policy;

mac::cs_adaptation_config adapt_config(cs_adapt_policy policy) {
    mac::cs_adaptation_config config;
    config.policy = policy;
    return config;
}

mac::adaptive_cs_sample busy_sample(double busy) {
    mac::adaptive_cs_sample sample;
    sample.busy_fraction = busy;
    sample.attempts = 10.0;
    sample.delivered = 10.0;
    return sample;
}

constexpr double min_dbm = mac::adaptive_cs_controller::min_threshold_dbm;
constexpr double max_dbm = mac::adaptive_cs_controller::max_threshold_dbm;

TEST(AdaptiveCsController, ThresholdClampedToConfiguredRange) {
    mac::adaptive_cs_controller controller(
        adapt_config(cs_adapt_policy::target_busy), -82.0, -65.0, -95.0, 2,
        stats::rng(1));
    // A pegged-busy channel drives the threshold up; it must stop at max.
    for (int i = 0; i < 20; ++i) {
        const double thr = controller.on_epoch(busy_sample(1.0));
        EXPECT_GE(thr, min_dbm);
        EXPECT_LE(thr, max_dbm);
    }
    EXPECT_DOUBLE_EQ(controller.threshold_dbm(), max_dbm);
    // A silent channel drives it down; it must stop at min.
    for (int i = 0; i < 100; ++i) {
        const double thr = controller.on_epoch(busy_sample(0.0));
        EXPECT_GE(thr, min_dbm);
        EXPECT_LE(thr, max_dbm);
    }
    EXPECT_DOUBLE_EQ(controller.threshold_dbm(), min_dbm);
}

TEST(AdaptiveCsController, InitialThresholdClampedToo) {
    const auto config = adapt_config(cs_adapt_policy::aimd);
    mac::adaptive_cs_controller low(config, -120.0, -65.0, -95.0, 2,
                                    stats::rng(1));
    EXPECT_DOUBLE_EQ(low.threshold_dbm(), min_dbm);
    mac::adaptive_cs_controller high(config, -10.0, -65.0, -95.0, 2,
                                     stats::rng(1));
    EXPECT_DOUBLE_EQ(high.threshold_dbm(), max_dbm);
}

TEST(AdaptiveCsController, FixedPolicyNeverMoves) {
    mac::adaptive_cs_controller controller(
        adapt_config(cs_adapt_policy::fixed), -82.0, -65.0, -95.0, 2,
        stats::rng(1));
    for (int i = 0; i < 10; ++i) {
        EXPECT_DOUBLE_EQ(controller.on_epoch(busy_sample(i % 2 ? 1.0 : 0.0)),
                         -82.0);
    }
}

TEST(AdaptiveCsController, RejectsBadConfig) {
    auto config = adapt_config(cs_adapt_policy::aimd);
    config.epoch_us = 0.0;
    EXPECT_THROW(mac::adaptive_cs_controller(config, -82.0, -65.0, -95.0, 2,
                                             stats::rng(1)),
                 std::invalid_argument);
    config = adapt_config(cs_adapt_policy::aimd);
    config.jitter_db = -1.0;
    EXPECT_THROW(mac::adaptive_cs_controller(config, -82.0, -65.0, -95.0, 2,
                                             stats::rng(1)),
                 std::invalid_argument);
}

TEST(AdaptiveCsController, AimdBacksOffOnLoss) {
    mac::adaptive_cs_controller controller(
        adapt_config(cs_adapt_policy::aimd), -82.0, -65.0, -95.0, 2,
        stats::rng(1));
    // Clean epoch: the additive 0.5 dB raise.
    mac::adaptive_cs_sample clean = busy_sample(0.3);
    const double raised = controller.on_epoch(clean);
    EXPECT_DOUBLE_EQ(raised, -82.0 + 0.5);
    // Congested epoch (90% loss; its loss EWMA 0.225 passes the 0.15
    // target): the 3 dB back-off, multiplicative in linear power.
    mac::adaptive_cs_sample lossy = busy_sample(0.3);
    lossy.delivered = 1.0;
    EXPECT_DOUBLE_EQ(controller.on_epoch(lossy), raised - 3.0);
}

// Fixture: a symmetric two-pair topology; senders 60 m apart, each
// receiver 10 m from its sender on the outward side.
mac::multi_pair_topology symmetric_two_pair() {
    mac::multi_pair_topology topology;
    topology.senders = {{30.0, 60.0}, {90.0, 60.0}};
    topology.receivers = {{20.0, 60.0}, {100.0, 60.0}};
    return topology;
}

mac::multi_pair_config base_config() {
    mac::multi_pair_config config;
    config.rate = &capacity::rate_by_mbps(6.0);
    config.duration_us = 1e6;
    config.seed = 99;
    return config;
}

TEST(AdaptiveCsRun, DisabledAdaptationIsByteIdentical) {
    // The camp01/camp02 compatibility contract: policy == fixed must not
    // schedule a single epoch event, so a run is exactly (==, not
    // nearly) the run of a config that never heard of adaptation - even
    // when every other adaptation knob is set to something wild.
    const auto topology = symmetric_two_pair();
    const auto plain = mac::run_multi_pair(topology, base_config());
    auto wild = base_config();
    wild.adapt.policy = cs_adapt_policy::fixed;
    wild.adapt.epoch_us = 1.0;
    wild.adapt.jitter_db = 50.0;
    const auto same = mac::run_multi_pair(topology, wild);
    ASSERT_EQ(plain.per_pair_pps.size(), same.per_pair_pps.size());
    for (std::size_t i = 0; i < plain.per_pair_pps.size(); ++i) {
        EXPECT_DOUBLE_EQ(plain.per_pair_pps[i], same.per_pair_pps[i]);
    }
    EXPECT_EQ(plain.counters.transmissions, same.counters.transmissions);
    EXPECT_EQ(plain.counters.busy_starts, same.counters.busy_starts);
    EXPECT_TRUE(same.final_cs_threshold_dbm.empty());
    EXPECT_TRUE(same.mean_threshold_trajectory_dbm.empty());
}

TEST(AdaptiveCsRun, AdaptiveRunsAreDeterministic) {
    const auto topology = symmetric_two_pair();
    auto config = base_config();
    config.adapt.policy = cs_adapt_policy::target_busy;
    config.adapt.jitter_db = 0.5;  // exercise the per-node dither streams
    const auto a = mac::run_multi_pair(topology, config);
    const auto b = mac::run_multi_pair(topology, config);
    ASSERT_EQ(a.final_cs_threshold_dbm.size(), 2u);
    ASSERT_EQ(a.final_cs_threshold_dbm.size(),
              b.final_cs_threshold_dbm.size());
    for (std::size_t i = 0; i < a.final_cs_threshold_dbm.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.final_cs_threshold_dbm[i],
                         b.final_cs_threshold_dbm[i]);
    }
    ASSERT_EQ(a.mean_threshold_trajectory_dbm.size(),
              b.mean_threshold_trajectory_dbm.size());
    EXPECT_GT(a.mean_threshold_trajectory_dbm.size(), 10u);
    for (std::size_t i = 0; i < a.per_pair_pps.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.per_pair_pps[i], b.per_pair_pps[i]);
    }
}

TEST(AdaptiveCsRun, FixedPointMatchesClosedFormOnSymmetricTwoPair) {
    // The online iterative_fixed_point balance
    //   log2(1 + S/(N + P_thr)) = 0.5 * log2(1 + S/N)
    // has the closed-form equilibrium
    //   P_thr = S / (sqrt(1 + S/N) - 1) - N,
    // with S the sender->receiver power and N the noise floor. On a
    // symmetric topology both controllers see the same S, so both
    // settled thresholds must match the closed form.
    const auto topology = symmetric_two_pair();
    auto config = base_config();
    config.duration_us = 3e6;  // 60 epochs: well past the transient
    config.adapt.policy = cs_adapt_policy::iterative_fixed_point;
    const auto run = mac::run_multi_pair(topology, config);
    ASSERT_EQ(run.final_cs_threshold_dbm.size(), 2u);

    const double s_mw =
        propagation::dbm_to_mw(config.threshold_dbm_for_distance(10.0));
    const double n_mw = propagation::dbm_to_mw(config.radio.noise_floor_dbm);
    const double snr = s_mw / n_mw;
    const double closed_form_dbm = propagation::mw_to_dbm(
        s_mw / (std::sqrt(1.0 + snr) - 1.0) - n_mw);
    for (const double thr : run.final_cs_threshold_dbm) {
        EXPECT_NEAR(thr, closed_form_dbm, 0.75)
            << "closed form: " << closed_form_dbm;
    }
    // Symmetric topology, symmetric controllers: identical fixed points.
    EXPECT_NEAR(run.final_cs_threshold_dbm[0], run.final_cs_threshold_dbm[1],
                1e-9);
}

TEST(AdaptiveCsRun, ThresholdTrajectoryStaysInsideClampRange) {
    const auto topology = symmetric_two_pair();
    auto config = base_config();
    config.adapt.policy = cs_adapt_policy::target_busy;
    const auto run = mac::run_multi_pair(topology, config);
    ASSERT_FALSE(run.mean_threshold_trajectory_dbm.empty());
    for (const double thr : run.mean_threshold_trajectory_dbm) {
        EXPECT_GE(thr, min_dbm);
        EXPECT_LE(thr, max_dbm);
    }
    for (const double thr : run.final_cs_threshold_dbm) {
        EXPECT_GE(thr, min_dbm);
        EXPECT_LE(thr, max_dbm);
    }
}

TEST(AdaptiveCsRun, ThresholdDistanceMappingRoundTrips) {
    const auto config = base_config();
    for (const double d : {2.0, 10.0, 42.7, 120.0}) {
        EXPECT_NEAR(config.distance_for_threshold_dbm(
                        config.threshold_dbm_for_distance(d)),
                    d, 1e-9);
    }
    // The factory default maps near the model's tuned crossing distance.
    EXPECT_NEAR(config.distance_for_threshold_dbm(-82.0), 46.4, 0.1);
}

TEST(AdaptiveCsManager, RejectsEmptyLinksAndDoubleStart) {
    mac::network net(mac::radio_config{}, 7);
    mac::mac_config sender_cfg;
    sender_cfg.adapt = adapt_config(cs_adapt_policy::aimd);
    const auto s = net.add_node(sender_cfg);
    const auto r = net.add_node(sender_cfg);
    net.set_link_gain_db(s, r, -60.0);
    EXPECT_THROW(mac::adaptive_cs_manager(net, {}, 1),
                 std::invalid_argument);
    mac::adaptive_cs_manager manager(net, {{s, r}}, 1);
    manager.start();
    EXPECT_THROW(manager.start(), std::logic_error);
}

TEST(AdaptiveCsManager, ControllersReadPerNodeConfig) {
    // The manager must run each sender's own mac_config::adapt (the
    // per-node hook), not a shared config: a `fixed` sender keeps its
    // threshold while an `aimd` sender beside it moves.
    mac::network net(mac::radio_config{}, 7);
    mac::mac_config steady;
    steady.adapt = adapt_config(cs_adapt_policy::fixed);
    mac::mac_config moving;
    moving.adapt = adapt_config(cs_adapt_policy::aimd);
    const auto s1 = net.add_node(steady);
    const auto r1 = net.add_node(mac::mac_config{});
    const auto s2 = net.add_node(moving);
    const auto r2 = net.add_node(mac::mac_config{});
    net.set_link_gain_db(s1, r1, -60.0);
    net.set_link_gain_db(s2, r2, -60.0);
    mac::adaptive_cs_manager manager(net, {{s1, r1}, {s2, r2}}, 1);
    manager.start();
    net.run(10.5 * steady.adapt.epoch_us);
    ASSERT_EQ(manager.epochs(), 10u);
    const double initial = mac::radio_config{}.cs_threshold_dbm;
    EXPECT_DOUBLE_EQ(net.node(s1).cs_threshold_dbm(), initial);
    EXPECT_NE(net.node(s2).cs_threshold_dbm(), initial);
    const auto thresholds = manager.thresholds_dbm();
    ASSERT_EQ(thresholds.size(), 2u);
    EXPECT_DOUBLE_EQ(thresholds[0], initial);
    EXPECT_DOUBLE_EQ(thresholds[1], net.node(s2).cs_threshold_dbm());
}

}  // namespace
