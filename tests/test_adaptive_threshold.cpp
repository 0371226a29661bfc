// The Kim & Kim iterative fixed-point threshold solver
// (src/core/adaptive_threshold.hpp): agreement with the Brent crossing
// of src/core/threshold.hpp (the closed-form answer for the
// deterministic two-pair model), trajectory bookkeeping, and the
// degenerate regimes.
#include <gtest/gtest.h>

#include <cmath>

#include "src/core/adaptive_threshold.hpp"
#include "src/core/threshold.hpp"

namespace {

using namespace csense::core;

expectation_engine make_engine(double sigma, double noise_db = -65.0) {
    model_params p;
    p.alpha = 3.0;
    p.sigma_db = sigma;
    p.noise_db = noise_db;
    quadrature_options q;
    q.radial_nodes = 32;
    q.angular_nodes = 48;
    q.shadow_nodes = 12;
    return expectation_engine(p, q, {30000, 42});
}

TEST(AdaptiveThreshold, MatchesBrentCrossingSigma0) {
    // sigma = 0 makes the two-pair model deterministic: the crossing
    // solved by Brent is the closed-form reference the iteration must
    // reproduce on the symmetric two-pair topology.
    const auto engine = make_engine(0.0);
    for (double rmax : {20.0, 55.0}) {
        const auto brent = optimal_threshold(engine, rmax);
        ASSERT_TRUE(brent.found);
        const auto fp = solve_threshold_fixed_point(engine, rmax);
        EXPECT_TRUE(fp.converged);
        EXPECT_NEAR(fp.d_thresh / brent.d_thresh, 1.0, 1e-4)
            << "rmax = " << rmax;
        // The fixed point sits on the crossing: <C_conc> = <C_mux>.
        EXPECT_NEAR(engine.expected_concurrent(rmax, fp.d_thresh),
                    engine.expected_multiplexing(rmax), 1e-4);
        EXPECT_NEAR(fp.crossing_value, engine.expected_multiplexing(rmax),
                    1e-12);
    }
}

TEST(AdaptiveThreshold, MatchesBrentCrossingShadowed) {
    const auto engine = make_engine(8.0);
    const auto brent = optimal_threshold(engine, 40.0);
    ASSERT_TRUE(brent.found);
    const auto fp = solve_threshold_fixed_point(engine, 40.0);
    EXPECT_TRUE(fp.converged);
    EXPECT_NEAR(fp.d_thresh / brent.d_thresh, 1.0, 1e-4);
}

TEST(AdaptiveThreshold, TrajectoryRecordsEveryIterate) {
    const auto engine = make_engine(0.0);
    const auto fp = solve_threshold_fixed_point(engine, 20.0);
    ASSERT_TRUE(fp.converged);
    ASSERT_EQ(fp.trajectory.size(),
              static_cast<std::size_t>(fp.iterations) + 1);
    // The iteration starts at rmax; the last iterate is the answer.
    EXPECT_DOUBLE_EQ(fp.trajectory.front(), 20.0);
    EXPECT_DOUBLE_EQ(fp.trajectory.back(), fp.d_thresh);
}

TEST(AdaptiveThreshold, ExtremeLongRangeHasNoFixedPoint) {
    // N = -20 dB: concurrency beats the fair share even collocated (the
    // CDMA-like regime); mirror optimal_threshold's found = false.
    const auto engine = make_engine(0.0, -20.0);
    const auto fp = solve_threshold_fixed_point(engine, 50.0);
    EXPECT_FALSE(fp.converged);
    EXPECT_DOUBLE_EQ(fp.d_thresh, 0.0);
}

TEST(AdaptiveThreshold, RejectsBadOptions) {
    const auto engine = make_engine(0.0);
    EXPECT_THROW(solve_threshold_fixed_point(engine, 0.0), std::domain_error);
}

}  // namespace
