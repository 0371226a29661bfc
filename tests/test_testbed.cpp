// Synthetic testbed: layout determinism, channel-matrix properties,
// delivery categories, the §4 experiment harness, the §5 exposed-terminal
// comparison, and the Figure 14 RSSI survey.
#include <gtest/gtest.h>

#include <cmath>

#include "src/capacity/error_models.hpp"
#include "src/testbed/experiment.hpp"
#include "src/testbed/layout.hpp"
#include "src/testbed/rssi_survey.hpp"

namespace {

using namespace csense::testbed;

TEST(Layout, CountAndBounds) {
    building b;
    const auto nodes = make_layout(b, 50, 11);
    ASSERT_EQ(nodes.size(), 50u);
    for (const auto& node : nodes) {
        EXPECT_GE(node.pos.x, 0.0);
        EXPECT_LE(node.pos.x, b.width_m);
        EXPECT_GE(node.pos.y, 0.0);
        EXPECT_LE(node.pos.y, b.depth_m);
        EXPECT_GE(node.floor, 0);
        EXPECT_LT(node.floor, b.floors);
        EXPECT_DOUBLE_EQ(node.pos.z, node.floor * b.floor_height_m);
    }
}

TEST(Layout, TwoFloorsRoughlyBalanced) {
    const auto nodes = make_layout(building{}, 50, 11);
    int floor0 = 0;
    for (const auto& node : nodes) floor0 += (node.floor == 0) ? 1 : 0;
    EXPECT_EQ(floor0, 25);
}

TEST(Layout, DeterministicPerSeed) {
    const auto a = make_layout(building{}, 30, 7);
    const auto b = make_layout(building{}, 30, 7);
    const auto c = make_layout(building{}, 30, 8);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_DOUBLE_EQ(a[i].pos.x, b[i].pos.x);
        EXPECT_DOUBLE_EQ(a[i].pos.y, b[i].pos.y);
    }
    EXPECT_NE(a[0].pos.x, c[0].pos.x);
}

TEST(Layout, DistanceAndFloors) {
    building b;
    const auto nodes = make_layout(b, 50, 11);
    // Cross-floor nodes are at least one floor height apart.
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        for (std::size_t j = i + 1; j < nodes.size(); ++j) {
            if (floors_crossed(nodes[i], nodes[j]) == 1) {
                EXPECT_GE(node_distance_m(nodes[i], nodes[j]),
                          b.floor_height_m);
            }
        }
    }
    EXPECT_THROW(make_layout(b, 0, 1), std::invalid_argument);
}

TEST(ChannelMatrix, SymmetricAndPlausible) {
    const auto bed = make_default_testbed(30, 5);
    for (std::uint32_t a = 0; a < 30; ++a) {
        for (std::uint32_t b = a + 1; b < 30; ++b) {
            EXPECT_DOUBLE_EQ(bed.matrix->gain_db(a, b),
                             bed.matrix->gain_db(b, a));
            EXPECT_LT(bed.matrix->gain_db(a, b), -40.0);  // always some loss
        }
    }
    EXPECT_THROW(bed.matrix->gain_db(0, 0), std::invalid_argument);
    EXPECT_THROW(bed.matrix->gain_db(0, 99), std::invalid_argument);
}

TEST(ChannelMatrix, SnrConsistentWithGain) {
    const auto bed = make_default_testbed(20, 5);
    const double gain = bed.matrix->gain_db(1, 2);
    EXPECT_NEAR(bed.matrix->snr_db(1, 2),
                bed.radio.tx_power_dbm + gain - bed.radio.noise_floor_dbm,
                1e-12);
}

TEST(ChannelMatrix, DeliveryMonotoneInSnrAcrossLinks) {
    const auto bed = make_default_testbed(30, 5);
    const csense::capacity::logistic_per_model errors(2.5);
    const auto& rate = csense::capacity::rate_by_mbps(6.0);
    // Collect (snr, delivery) and check rank agreement on clear cases.
    for (std::uint32_t a = 1; a < 10; ++a) {
        const double snr_a = bed.matrix->snr_db(0, a);
        const double del_a =
            bed.matrix->expected_delivery(0, a, rate, 1400, errors);
        for (std::uint32_t b = a + 1; b < 10; ++b) {
            const double snr_b = bed.matrix->snr_db(0, b);
            const double del_b =
                bed.matrix->expected_delivery(0, b, rate, 1400, errors);
            if (snr_a > snr_b + 1.0) {
                EXPECT_GE(del_a, del_b - 1e-9);
            }
            if (snr_b > snr_a + 1.0) {
                EXPECT_GE(del_b, del_a - 1e-9);
            }
        }
    }
}

TEST(ChannelMatrix, LinksByDeliveryWindowIsConsistent) {
    const auto bed = make_default_testbed(40, 5);
    const csense::capacity::logistic_per_model errors(2.5);
    const auto& rate = csense::capacity::rate_by_mbps(6.0);
    const auto links =
        bed.matrix->links_by_delivery(0.80, 0.95, rate, 1400, errors);
    EXPECT_FALSE(links.empty());
    for (const auto& l : links) {
        const double delivery =
            bed.matrix->expected_delivery(l.sender, l.receiver, rate, 1400,
                                          errors);
        EXPECT_GE(delivery, 0.80);
        EXPECT_LE(delivery, 0.95);
    }
}

TEST(Testbed, BothBandsBuiltAndDistinct) {
    const auto bed = make_default_testbed(20, 5);
    ASSERT_TRUE(bed.matrix);
    ASSERT_TRUE(bed.matrix_24ghz);
    // 5 GHz links are weaker than 2.4 GHz links on the same geometry.
    double diff = 0.0;
    for (std::uint32_t a = 0; a < 10; ++a) {
        diff += bed.matrix_24ghz->gain_db(a, a + 5) -
                bed.matrix->gain_db(a, a + 5);
    }
    EXPECT_GT(diff / 10.0, 4.0);
}

TEST(Experiment, SmallRunProducesCoherentResults) {
    const auto bed = make_default_testbed();
    auto cfg = short_range_config();
    cfg.runs = 4;
    cfg.duration_s = 1.0;
    const auto result = run_experiment(bed, cfg);
    ASSERT_EQ(result.runs.size(), 4u);
    for (const auto& r : result.runs) {
        EXPECT_GT(r.mux_pps, 0.0);
        EXPECT_GE(r.cs_pps, 0.0);
        EXPECT_GE(r.optimal_pps(), r.mux_pps);
        EXPECT_GE(r.optimal_pps(), r.conc_pps);
        EXPECT_GT(r.snr1_db, 5.0);  // category links are usable
        // CS tracks at least a third of optimal even in the worst run.
        EXPECT_GT(r.cs_pps, 0.3 * r.optimal_pps());
        // The 6 Mb/s totals are steps of the sweep the best rates
        // maximise over, so per-pair best rates never total less.
        EXPECT_GT(r.cs_base_pps, 0.0);
        EXPECT_LE(r.cs_base_pps, r.cs_pps);
        EXPECT_LE(r.conc_base_pps, r.conc_pps);
    }
    EXPECT_GT(result.avg_optimal, 0.0);
    EXPECT_GT(result.cs_fraction(), 0.5);
    EXPECT_GT(result.category_snr_db, 10.0);
}

TEST(Experiment, DeterministicPerSeed) {
    const auto bed = make_default_testbed();
    auto cfg = short_range_config();
    cfg.runs = 2;
    cfg.duration_s = 0.5;
    const auto a = run_experiment(bed, cfg);
    const auto b = run_experiment(bed, cfg);
    ASSERT_EQ(a.runs.size(), b.runs.size());
    for (std::size_t i = 0; i < a.runs.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.runs[i].cs_pps, b.runs[i].cs_pps);
        EXPECT_DOUBLE_EQ(a.runs[i].conc_pps, b.runs[i].conc_pps);
    }
}

TEST(Experiment, CategoriesDiffer) {
    const auto bed = make_default_testbed();
    const auto s = short_range_config();
    const auto l = long_range_config();
    EXPECT_GT(s.category_lo, l.category_lo);
    // Long-range category links have lower SNR on the default bed.
    const csense::capacity::logistic_per_model errors(2.5);
    const auto& rate = csense::capacity::rate_by_mbps(6.0);
    const auto short_links = bed.matrix->links_by_delivery(
        s.category_lo, s.category_hi, rate, 1400, errors);
    const auto long_links = bed.matrix->links_by_delivery(
        l.category_lo, l.category_hi, rate, 1400, errors);
    ASSERT_GT(short_links.size(), 3u);
    ASSERT_GT(long_links.size(), 3u);
    auto avg_snr = [&](const std::vector<csense::testbed::link>& links) {
        double sum = 0.0;
        for (const auto& x : links) sum += bed.matrix->snr_db(x.sender, x.receiver);
        return sum / links.size();
    };
    EXPECT_GT(avg_snr(short_links), avg_snr(long_links) + 3.0);
}

TEST(ExposedGain, AdaptationDominatesExposedExploitation) {
    // The §5 hierarchy: adaptation gain >> exposed-terminal gain, and the
    // combination adds little on top of adaptation.
    const auto bed = make_default_testbed();
    auto cfg = short_range_config();
    cfg.runs = 10;
    cfg.duration_s = 1.5;
    const auto result = exposed_gains(run_experiment(bed, cfg));
    EXPECT_GT(result.base_cs, 0.0);
    EXPECT_GT(result.adaptation_gain(), 1.5);
    EXPECT_GE(result.exposed_gain_base(), 1.0);
    EXPECT_GE(result.exposed_gain_adapted(), 1.0);
    EXPECT_LT(result.exposed_gain_adapted(), result.adaptation_gain());
    EXPECT_LT(result.exposed_gain_adapted(), 1.25);
}

TEST(RssiSurvey, RecoversChannelParameters) {
    const auto bed = make_default_testbed();
    rssi_survey_config cfg;
    const auto survey = run_rssi_survey(bed, cfg);
    EXPECT_EQ(survey.observations.size(), 50u * 49u / 2u);
    EXPECT_GT(survey.censored_count, 0);
    EXPECT_NEAR(survey.fit.alpha, survey.true_alpha, 0.5);
    EXPECT_NEAR(survey.fit.sigma_db, survey.true_sigma_db, 2.0);
    // The naive fit is biased toward a flatter slope.
    EXPECT_LT(survey.naive_fit.alpha, survey.fit.alpha);
}

TEST(RssiSurvey, ObservationsAreCensoredBelowThreshold) {
    const auto bed = make_default_testbed();
    rssi_survey_config cfg;
    const auto survey = run_rssi_survey(bed, cfg);
    for (const auto& obs : survey.observations) {
        if (!obs.censored) {
            EXPECT_GE(obs.snr_db, cfg.detection_threshold_db);
        }
        EXPECT_GT(obs.distance, 0.0);
    }
}

}  // namespace
