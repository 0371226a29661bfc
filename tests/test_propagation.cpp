// Propagation models: unit conversions, path-loss slopes, the two-ray
// far-field law, floor attenuation, shadowing fields, wideband fading
// collapse, and the §3.4 barrier physics (knife-edge diffraction, wall
// and reflection losses).
#include <gtest/gtest.h>

#include <cmath>

#include "src/propagation/diffraction.hpp"
#include "src/propagation/fading.hpp"
#include "src/propagation/path_loss.hpp"
#include "src/propagation/shadowing.hpp"
#include "src/propagation/units.hpp"

namespace {

using namespace csense::propagation;

TEST(Units, DbRoundTrip) {
    for (double db : {-40.0, -3.0, 0.0, 3.0, 20.0}) {
        EXPECT_NEAR(linear_to_db(db_to_linear(db)), db, 1e-12);
    }
    EXPECT_NEAR(db_to_linear(3.0), 1.9952623149688795, 1e-12);
    EXPECT_THROW(linear_to_db(0.0), std::domain_error);
    EXPECT_THROW(linear_to_db(-1.0), std::domain_error);
}

TEST(Units, DbmMilliwatt) {
    EXPECT_NEAR(dbm_to_mw(0.0), 1.0, 1e-12);
    EXPECT_NEAR(dbm_to_mw(30.0), 1000.0, 1e-9);
    EXPECT_NEAR(mw_to_dbm(100.0), 20.0, 1e-12);
}

TEST(Units, Wavelength) {
    EXPECT_NEAR(wavelength_m(2.4e9), 0.1249, 1e-3);
    EXPECT_NEAR(wavelength_m(5.2e9), 0.0577, 1e-3);
    EXPECT_THROW(wavelength_m(0.0), std::domain_error);
}

TEST(Units, Distances) {
    EXPECT_DOUBLE_EQ(distance(position{0, 0}, position{3, 4}), 5.0);
    EXPECT_DOUBLE_EQ(distance(position3{0, 0, 0}, position3{2, 3, 6}), 7.0);
}

class PathLossExponent : public ::testing::TestWithParam<double> {};

TEST_P(PathLossExponent, SlopeIs10AlphaPerDecade) {
    const double alpha = GetParam();
    power_law_path_loss model(alpha, 40.0);
    EXPECT_NEAR(model.loss_db(10.0) - model.loss_db(1.0), 10.0 * alpha, 1e-10);
    EXPECT_NEAR(model.loss_db(100.0) - model.loss_db(10.0), 10.0 * alpha, 1e-10);
    EXPECT_NEAR(model.loss_db(1.0), 40.0, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Alphas, PathLossExponent,
                         ::testing::Values(2.0, 3.0, 3.5, 4.0));

TEST(PathLoss, RejectsBadInput) {
    power_law_path_loss model(3.0, 40.0);
    EXPECT_THROW(model.loss_db(0.0), std::domain_error);
    EXPECT_THROW(power_law_path_loss(3.0, 40.0, 0.0), std::invalid_argument);
}

TEST(FreeSpace, MatchesFriisAtReference) {
    free_space_path_loss model(2.4e9);
    // Friis at 1 m, 2.4 GHz: 20 log10(4 pi / lambda) ~ 40.05 dB.
    EXPECT_NEAR(model.loss_db(1.0), 40.05, 0.1);
    // 20 dB per decade.
    EXPECT_NEAR(model.loss_db(100.0) - model.loss_db(10.0), 20.0, 1e-9);
}

TEST(TwoRay, FourthPowerBeyondCrossover) {
    two_ray_path_loss model(2.4e9, 10.0, 2.0);
    const double dc = model.crossover_distance_m();
    EXPECT_GT(dc, 100.0);
    // Well beyond crossover the slope approaches 40 dB per decade.
    const double slope =
        model.loss_db(100.0 * dc) - model.loss_db(10.0 * dc);
    EXPECT_NEAR(slope, 40.0, 1.0);
}

TEST(TwoRay, NearFieldOscillatesAroundFreeSpace) {
    two_ray_path_loss model(2.4e9, 10.0, 2.0);
    free_space_path_loss fs(2.4e9);
    // Close in, the two-ray loss oscillates within ~6 dB of free space
    // (constructive doubling) and deep nulls the other way.
    const double d = model.crossover_distance_m() / 30.0;
    EXPECT_GT(model.loss_db(d), fs.loss_db(d) - 7.0);
}

TEST(IndoorFloors, AttenuationPerFloor) {
    indoor_floor_path_loss model(3.0, 40.0, 9.0, 0);
    EXPECT_NEAR(model.loss_db(10.0, 2) - model.loss_db(10.0, 0), 18.0, 1e-12);
    EXPECT_THROW(indoor_floor_path_loss(3.0, 40.0, 9.0, -1),
                 std::invalid_argument);
}

TEST(IidShadowing, DeterministicAndSymmetric) {
    iid_shadowing field(8.0, 77);
    EXPECT_DOUBLE_EQ(field.shadow_db(3, 9), field.shadow_db(9, 3));
    EXPECT_DOUBLE_EQ(field.shadow_db(3, 9), field.shadow_db(3, 9));
    iid_shadowing same(8.0, 77);
    EXPECT_DOUBLE_EQ(field.shadow_db(1, 2), same.shadow_db(1, 2));
    iid_shadowing other(8.0, 78);
    EXPECT_NE(field.shadow_db(1, 2), other.shadow_db(1, 2));
}

TEST(IidShadowing, MomentsAcrossLinks) {
    iid_shadowing field(8.0, 5);
    double sum = 0.0, sum2 = 0.0;
    int n = 0;
    for (std::uint32_t a = 0; a < 80; ++a) {
        for (std::uint32_t b = a + 1; b < 80; ++b) {
            const double s = field.shadow_db(a, b);
            sum += s;
            sum2 += s * s;
            ++n;
        }
    }
    const double mean = sum / n;
    EXPECT_NEAR(mean, 0.0, 0.3);
    EXPECT_NEAR(std::sqrt(sum2 / n - mean * mean), 8.0, 0.3);
}

TEST(CorrelatedShadowing, NearbyLinksCorrelate) {
    correlated_shadowing field(8.0, 20.0, 99);
    // Two links sharing an endpoint region should be similar; links far
    // apart should not. Compare average squared difference.
    double near_diff = 0.0, far_diff = 0.0;
    const int n = 200;
    for (int i = 0; i < n; ++i) {
        const double off = i * 0.01;
        const position a{10.0 + off, 10.0};
        const position b{40.0, 10.0};
        const position a2{11.0 + off, 10.5};  // 1 m from a
        const position far{900.0 + off * 7.0, 800.0};
        const double base = field.shadow_db(a, b);
        near_diff += std::pow(base - field.shadow_db(a2, b), 2);
        far_diff += std::pow(base - field.shadow_db(far, b), 2);
    }
    EXPECT_LT(near_diff / n, far_diff / n / 4.0);
}

TEST(CorrelatedShadowing, VarianceApproximatelySigmaSquared) {
    const double sigma = 8.0;
    correlated_shadowing field(sigma, 20.0, 123);
    csense::stats::rng gen(4);
    double sum = 0.0, sum2 = 0.0;
    const int n = 4000;
    for (int i = 0; i < n; ++i) {
        const position a{gen.uniform(0.0, 2000.0), gen.uniform(0.0, 2000.0)};
        const position b{gen.uniform(0.0, 2000.0), gen.uniform(0.0, 2000.0)};
        const double s = field.shadow_db(a, b);
        sum += s;
        sum2 += s * s;
    }
    const double mean = sum / n;
    const double sd = std::sqrt(sum2 / n - mean * mean);
    EXPECT_NEAR(mean, 0.0, 0.5);
    EXPECT_NEAR(sd, sigma, 1.0);
}

TEST(WidebandFading, DiversityCollapsesVariance) {
    // The appendix's claim: wideband averaging reduces Rayleigh fading to
    // "the equivalent of a few dB".
    csense::stats::rng gen(31);
    wideband_fading narrow(1);
    wideband_fading wide(48);
    const double sigma_narrow = narrow.effective_sigma_db(gen, 20000);
    const double sigma_wide = wide.effective_sigma_db(gen, 20000);
    EXPECT_GT(sigma_narrow, 4.0);   // raw Rayleigh: ~5.6 dB
    EXPECT_LT(sigma_wide, 1.2);     // 48-subcarrier OFDM: ~0.6 dB
    EXPECT_LT(sigma_wide, sigma_narrow / 4.0);
}

TEST(WidebandFading, UnitMeanPower) {
    csense::stats::rng gen(33);
    wideband_fading fading(48);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) sum += fading.sample_power(gen);
    EXPECT_NEAR(sum / n, 1.0, 0.01);
}

TEST(KnifeEdge, GrazingIncidenceIsSixDb) {
    // v = 0 (edge exactly on the line of sight) gives ~6 dB loss.
    EXPECT_NEAR(knife_edge_loss_db(0.0), 6.0, 0.1);
}

TEST(KnifeEdge, ClearPathNoLoss) {
    EXPECT_DOUBLE_EQ(knife_edge_loss_db(-1.0), 0.0);
}

TEST(KnifeEdge, ThesisBarrierExample) {
    // §3.4: "Using the knife-edge approximation and a 5-meter distance to
    // the barrier, the diffraction loss at 2.4 GHz would be around 30 dB."
    // A strongly obstructing barrier (several meters above the path) at
    // 5 m from each endpoint lands near 30 dB.
    const double loss = knife_edge_loss_db(3.0, 5.0, 5.0, 2.4e9);
    EXPECT_NEAR(loss, 30.0, 3.0);
}

TEST(KnifeEdge, LossGrowsWithObstruction) {
    double prev = 0.0;
    for (double h = 0.0; h <= 5.0; h += 0.5) {
        const double loss = knife_edge_loss_db(h, 5.0, 5.0, 2.4e9);
        EXPECT_GE(loss, prev);
        prev = loss;
    }
}

TEST(Walls, ThesisQuotedMagnitudes) {
    // "typical attenuation through an interior wall is less than 10 dB";
    // "typical reflection losses are less than 10 dB".
    EXPECT_LT(wall_attenuation_db(wall_material::interior_wall), 10.0);
    EXPECT_LT(typical_reflection_loss_db(), 10.0);
    EXPECT_GT(wall_attenuation_db(wall_material::metal),
              wall_attenuation_db(wall_material::concrete));
    EXPECT_GT(wall_attenuation_db(wall_material::concrete),
              wall_attenuation_db(wall_material::drywall));
}

TEST(CombinePaths, StrongestPathDominates) {
    const double losses[] = {30.0, 60.0, 90.0};
    const double combined = combine_paths_db(losses, 3);
    EXPECT_LT(combined, 30.0);          // adding paths only helps
    EXPECT_NEAR(combined, 30.0, 0.01);  // but weak paths barely matter
}

TEST(CombinePaths, EqualPathsGainThreeDb) {
    const double losses[] = {40.0, 40.0};
    EXPECT_NEAR(combine_paths_db(losses, 2), 40.0 - 3.0103, 0.01);
}

TEST(CombinePaths, RejectsEmpty) {
    EXPECT_THROW(combine_paths_db(nullptr, 0), std::invalid_argument);
}

}  // namespace
