// Streaming summaries (Welford): moments, merging, confidence intervals.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/stats/rng.hpp"
#include "src/stats/summary.hpp"

namespace {

using namespace csense::stats;

TEST(RunningSummary, MatchesDirectComputation) {
    const std::vector<double> data = {1.0, 2.5, -3.0, 7.25, 0.0, 4.5};
    running_summary s;
    for (double x : data) s.add(x);
    double mean = 0.0;
    for (double x : data) mean += x;
    mean /= data.size();
    double var = 0.0;
    for (double x : data) var += (x - mean) * (x - mean);
    var /= data.size() - 1;
    EXPECT_EQ(s.count(), data.size());
    EXPECT_NEAR(s.mean(), mean, 1e-12);
    EXPECT_NEAR(s.variance(), var, 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), -3.0);
    EXPECT_DOUBLE_EQ(s.max(), 7.25);
}

TEST(RunningSummary, EmptyAndSingle) {
    running_summary s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    s.add(5.0);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.stderr_mean(), 0.0);
}

TEST(RunningSummary, MergeEqualsSequential) {
    rng gen(3);
    running_summary all, a, b;
    for (int i = 0; i < 1000; ++i) {
        const double x = gen.normal(2.0, 5.0);
        all.add(x);
        (i % 2 == 0 ? a : b).add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-10);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-8);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningSummary, MergeWithEmpty) {
    running_summary a, b;
    a.add(1.0);
    a.add(2.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 2u);
    b.merge(a);
    EXPECT_EQ(b.count(), 2u);
    EXPECT_NEAR(b.mean(), 1.5, 1e-12);
}

TEST(RunningSummary, ConfidenceIntervalShrinks) {
    rng gen(5);
    running_summary small, large;
    for (int i = 0; i < 100; ++i) small.add(gen.normal());
    for (int i = 0; i < 10000; ++i) large.add(gen.normal());
    EXPECT_GT(small.ci_halfwidth(), large.ci_halfwidth());
    // 95% CI of N(0,1) mean with n = 10000 is about +-0.0196.
    EXPECT_NEAR(large.ci_halfwidth(), 1.96 / 100.0, 0.004);
}

}  // namespace
