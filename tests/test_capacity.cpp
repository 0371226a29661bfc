// Capacity layer: Shannon model, 802.11a rate tables, air-time
// arithmetic, and the SINR -> PER error model.
#include <gtest/gtest.h>

#include <cmath>

#include "src/capacity/error_models.hpp"
#include "src/capacity/rate_table.hpp"
#include "src/capacity/shannon.hpp"

namespace {

using namespace csense::capacity;

TEST(Shannon, KnownPoints) {
    EXPECT_DOUBLE_EQ(shannon_bits_per_hz(0.0), 0.0);
    EXPECT_DOUBLE_EQ(shannon_bits_per_hz(1.0), 1.0);
    EXPECT_DOUBLE_EQ(shannon_bits_per_hz(3.0), 2.0);
    EXPECT_NEAR(shannon_bits_per_hz_db(20.0), std::log2(101.0), 1e-12);
}

TEST(Shannon, InverseRoundTrip) {
    for (double c : {0.1, 1.0, 3.3, 8.0}) {
        EXPECT_NEAR(shannon_bits_per_hz(snr_for_bits_per_hz(c)), c, 1e-12);
    }
}

TEST(Shannon, GapReducesCapacity) {
    EXPECT_LT(gapped_shannon_bits_per_hz(100.0, 3.0),
              shannon_bits_per_hz(100.0));
    EXPECT_DOUBLE_EQ(gapped_shannon_bits_per_hz(100.0, 0.0),
                     shannon_bits_per_hz(100.0));
}

TEST(Shannon, RejectsNegativeSnr) {
    EXPECT_THROW(shannon_bits_per_hz(-0.1), std::domain_error);
    EXPECT_THROW(snr_for_bits_per_hz(-1.0), std::domain_error);
}

TEST(RateTable, EightAscendingRates) {
    const auto& rates = ofdm_rates();
    ASSERT_EQ(rates.size(), 8u);
    for (std::size_t i = 1; i < rates.size(); ++i) {
        EXPECT_GT(rates[i].mbps, rates[i - 1].mbps);
        EXPECT_GT(rates[i].min_snr_db, rates[i - 1].min_snr_db);
        EXPECT_GT(rates[i].bits_per_symbol, rates[i - 1].bits_per_symbol);
    }
    EXPECT_DOUBLE_EQ(rates.front().mbps, 6.0);
    EXPECT_DOUBLE_EQ(rates.back().mbps, 54.0);
}

TEST(RateTable, BitsPerSymbolConsistentWithMbps) {
    // 4 us per symbol: mbps = bits_per_symbol / 4.
    for (const auto& rate : ofdm_rates()) {
        EXPECT_NEAR(rate.mbps, rate.bits_per_symbol / 4.0, 1e-12);
    }
}

TEST(RateTable, ThesisSweepIsTheDriverSubset) {
    const auto& sweep = thesis_sweep_rates();
    ASSERT_EQ(sweep.size(), 5u);
    EXPECT_DOUBLE_EQ(sweep.front().mbps, 6.0);
    EXPECT_DOUBLE_EQ(sweep.back().mbps, 24.0);
}

TEST(RateTable, LookupByMbps) {
    EXPECT_EQ(rate_by_mbps(18.0).mod, modulation::qpsk);
    EXPECT_THROW(rate_by_mbps(11.0), std::invalid_argument);
}

TEST(RateTable, BestRateForSnr) {
    EXPECT_DOUBLE_EQ(best_rate_for_snr(-10.0).mbps, 6.0);  // floor rate
    EXPECT_DOUBLE_EQ(best_rate_for_snr(9.0).mbps, 12.0);
    EXPECT_DOUBLE_EQ(best_rate_for_snr(40.0).mbps, 54.0);
}

TEST(Airtime, KnownFrameDurations) {
    // 1400 B at 24 Mb/s: 22 + 11200 bits over 96 bits/symbol = 117 symbols
    // -> 20 us PLCP + 468 us = 488 us.
    EXPECT_NEAR(frame_airtime_us(rate_by_mbps(24.0), 1400), 488.0, 1e-9);
    // Same frame at 6 Mb/s: 11222 / 24 = 468 symbols -> 1892 us.
    EXPECT_NEAR(frame_airtime_us(rate_by_mbps(6.0), 1400), 1892.0, 1e-9);
    EXPECT_THROW(frame_airtime_us(rate_by_mbps(6.0), 0), std::invalid_argument);
}

TEST(Airtime, MonotoneInLengthAndRate) {
    const auto& r6 = rate_by_mbps(6.0);
    const auto& r54 = rate_by_mbps(54.0);
    EXPECT_GT(frame_airtime_us(r6, 1400), frame_airtime_us(r6, 700));
    EXPECT_GT(frame_airtime_us(r6, 1400), frame_airtime_us(r54, 1400));
}

TEST(Airtime, SaturatedBroadcastThroughput) {
    // 24 Mb/s, 1400 B: cycle = 34 (DIFS) + 67.5 (mean backoff) + 488 us.
    const double pps = saturated_broadcast_pps(rate_by_mbps(24.0), 1400);
    EXPECT_NEAR(pps, 1e6 / (34.0 + 67.5 + 488.0), 1.0);
}

TEST(ErrorModels, PerMonotoneInSnr) {
    const logistic_per_model model;
    for (const auto& rate : ofdm_rates()) {
        double prev = 1.1;
        for (double snr = -5.0; snr <= 40.0; snr += 1.0) {
            const double per = model.packet_error_rate(rate, snr, 1400);
            EXPECT_LE(per, prev + 1e-12);
            EXPECT_GE(per, 0.0);
            EXPECT_LE(per, 1.0);
            prev = per;
        }
    }
}

TEST(ErrorModels, HigherRateNeedsMoreSnr) {
    const logistic_per_model model;
    // At a mid SNR, faster modulations fail harder.
    const double snr = 12.0;
    double prev = -0.1;
    for (const auto& rate : ofdm_rates()) {
        const double per = model.packet_error_rate(rate, snr, 1400);
        EXPECT_GE(per, prev - 1e-9) << rate.mbps;
        prev = per;
    }
}

TEST(ErrorModels, LogisticCalibratedAtSensitivity) {
    const logistic_per_model model(1.0, 1000);
    for (const auto& rate : ofdm_rates()) {
        EXPECT_NEAR(model.packet_error_rate(rate, rate.min_snr_db, 1000), 0.1,
                    1e-9)
            << rate.mbps;
    }
}

TEST(ErrorModels, LongerFramesFailMore) {
    const logistic_per_model model;
    const auto& rate = rate_by_mbps(12.0);
    const double snr = rate.min_snr_db + 1.0;
    EXPECT_GT(model.packet_error_rate(rate, snr, 1400),
              model.packet_error_rate(rate, snr, 100));
}

TEST(ErrorModels, ExtremesSaturate) {
    const logistic_per_model model;
    const auto& rate = rate_by_mbps(6.0);
    EXPECT_NEAR(model.packet_error_rate(rate, 60.0, 1400), 0.0, 1e-6);
    EXPECT_NEAR(model.packet_error_rate(rate, -30.0, 1400), 1.0, 1e-6);
}

TEST(ErrorModels, DeliveryRateComplement) {
    const logistic_per_model model;
    const auto& rate = rate_by_mbps(12.0);
    EXPECT_NEAR(model.delivery_rate(rate, 9.0, 1000) +
                    model.packet_error_rate(rate, 9.0, 1000),
                1.0, 1e-12);
}

TEST(ErrorModels, RejectsBadPayload) {
    const logistic_per_model model;
    EXPECT_THROW(model.packet_error_rate(rate_by_mbps(6.0), 10.0, 0),
                 std::invalid_argument);
    EXPECT_THROW(logistic_per_model(0.0), std::invalid_argument);
}

TEST(ModulationNames, AllDistinct) {
    EXPECT_EQ(modulation_name(modulation::bpsk), "BPSK");
    EXPECT_EQ(modulation_name(modulation::qam64), "64-QAM");
}

}  // namespace
