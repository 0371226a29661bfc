// Rate adaptation algorithms: ARF counters, SampleRate's expected-time
// policy, and the thesis' best-fixed-rate oracle.
#include <gtest/gtest.h>

#include <cmath>

#include "src/capacity/rate_adaptation.hpp"

namespace {

using namespace csense::capacity;

TEST(Arf, ClimbsOnSuccess) {
    constexpr int up = arf::successes_to_climb;
    arf adapt;
    EXPECT_DOUBLE_EQ(adapt.next_rate().mbps, 6.0);
    for (int i = 0; i < up - 1; ++i) {
        adapt.report(adapt.next_rate(), true, 100.0);
    }
    EXPECT_DOUBLE_EQ(adapt.next_rate().mbps, 6.0);  // one success short
    adapt.report(adapt.next_rate(), true, 100.0);
    EXPECT_DOUBLE_EQ(adapt.next_rate().mbps, 9.0);
    for (int i = 0; i < up * 6; ++i) adapt.report(adapt.next_rate(), true, 100.0);
    EXPECT_DOUBLE_EQ(adapt.next_rate().mbps, 54.0);
    // Saturates at the top.
    for (int i = 0; i < 10; ++i) adapt.report(adapt.next_rate(), true, 100.0);
    EXPECT_DOUBLE_EQ(adapt.next_rate().mbps, 54.0);
}

TEST(Arf, FallsOnFailure) {
    constexpr int down = arf::failures_to_fall;
    arf adapt;
    for (int i = 0; i < 2 * arf::successes_to_climb; ++i) {
        adapt.report(adapt.next_rate(), true, 100.0);
    }
    EXPECT_DOUBLE_EQ(adapt.next_rate().mbps, 12.0);
    for (int i = 0; i < down - 1; ++i) {
        adapt.report(adapt.next_rate(), false, 100.0);
    }
    EXPECT_DOUBLE_EQ(adapt.next_rate().mbps, 12.0);  // one failure short
    adapt.report(adapt.next_rate(), false, 100.0);
    EXPECT_DOUBLE_EQ(adapt.next_rate().mbps, 9.0);
    // Never below the floor.
    for (int i = 0; i < 20; ++i) adapt.report(adapt.next_rate(), false, 100.0);
    EXPECT_DOUBLE_EQ(adapt.next_rate().mbps, 6.0);
}

TEST(Arf, MixedTrafficResetsCounters) {
    arf adapt;
    // One failure after every successes_to_climb - 1 successes: never a
    // full run of successes, so it stays at the bottom.
    for (int i = 0; i < 30 * arf::successes_to_climb; ++i) {
        adapt.report(adapt.next_rate(),
                     (i % arf::successes_to_climb) !=
                         arf::successes_to_climb - 1,
                     100.0);
    }
    EXPECT_DOUBLE_EQ(adapt.next_rate().mbps, 6.0);
}

TEST(Arf, RejectsBadConfig) {
    EXPECT_THROW(arf(std::vector<phy_rate>{}), std::invalid_argument);
}

TEST(SampleRate, ConvergesToBestRateUnderLossProfile) {
    // Synthetic link: delivery 100% up to 18 Mb/s, 60% at 24, 0% above.
    sample_rate adapt(ofdm_rates(), 1400, 7);
    csense::stats::rng gen(99);
    for (int i = 0; i < 4000; ++i) {
        const auto& rate = adapt.next_rate();
        double delivery = 1.0;
        if (rate.mbps == 24.0) delivery = 0.6;
        if (rate.mbps > 24.0) delivery = 0.0;
        adapt.report(rate, gen.uniform() < delivery,
                     frame_airtime_us(rate, 1400));
    }
    // Expected time: 18M lossless = 647 us; 24M at 60% = 813 us; best is 18.
    int hits_18 = 0;
    for (int i = 0; i < 200; ++i) {
        if (adapt.next_rate().mbps == 18.0) ++hits_18;
    }
    EXPECT_GT(hits_18, 150);  // mostly 18, some probes
}

TEST(SampleRate, PrefersFasterWhenLossFree) {
    sample_rate adapt(ofdm_rates(), 1400, 3);
    for (int i = 0; i < 2000; ++i) {
        const auto& rate = adapt.next_rate();
        adapt.report(rate, true, frame_airtime_us(rate, 1400));
    }
    int hits_54 = 0;
    for (int i = 0; i < 200; ++i) {
        if (adapt.next_rate().mbps == 54.0) ++hits_54;
    }
    EXPECT_GT(hits_54, 150);
}

TEST(SampleRate, ExpectedTimeInfinityWhenDead) {
    sample_rate adapt(ofdm_rates(), 1400, 5);
    for (int i = 0; i < 50; ++i) {
        adapt.report(ofdm_rates()[7], false, 100.0);
    }
    EXPECT_TRUE(std::isinf(adapt.expected_time_us(7)));
}

TEST(SampleRate, ReportsUnknownRateRejected) {
    sample_rate adapt(thesis_sweep_rates(), 1400, 5);
    EXPECT_THROW(adapt.report(rate_by_mbps(54.0), true, 100.0),
                 std::invalid_argument);
}

TEST(Oracle, PicksBaseRateAtLowSnr) {
    const logistic_per_model model;
    const auto& best =
        best_fixed_rate_oracle(thesis_sweep_rates(), model, 3.5, 1400);
    EXPECT_DOUBLE_EQ(best.mbps, 6.0);
}

TEST(Oracle, PicksTopRateAtHighSnr) {
    const logistic_per_model model;
    const auto& best =
        best_fixed_rate_oracle(thesis_sweep_rates(), model, 35.0, 1400);
    EXPECT_DOUBLE_EQ(best.mbps, 24.0);
    const auto& full =
        best_fixed_rate_oracle(ofdm_rates(), model, 35.0, 1400);
    EXPECT_DOUBLE_EQ(full.mbps, 54.0);
}

TEST(Oracle, MonotoneInSnrAndGoodputOptimal) {
    const logistic_per_model model(1.0);
    double prev_mbps = 0.0;
    for (double snr = 0.0; snr <= 30.0; snr += 0.5) {
        const auto& best = best_fixed_rate_oracle(ofdm_rates(), model, snr,
                                                  1400);
        EXPECT_GE(best.mbps, prev_mbps) << "snr = " << snr;
        prev_mbps = best.mbps;
        // The oracle's pick never has lower goodput than the naive
        // SNR-threshold table's pick.
        const auto& naive = best_rate_for_snr(snr);
        const double oracle_goodput =
            saturated_broadcast_pps(best, 1400) *
            model.delivery_rate(best, snr, 1400);
        const double naive_goodput =
            saturated_broadcast_pps(naive, 1400) *
            model.delivery_rate(naive, snr, 1400);
        EXPECT_GE(oracle_goodput, naive_goodput - 1e-9) << "snr = " << snr;
    }
}

TEST(Oracle, RejectsEmptyTable) {
    const logistic_per_model model;
    EXPECT_THROW(best_fixed_rate_oracle({}, model, 10.0, 1400),
                 std::invalid_argument);
}

}  // namespace
