// Compensated accumulation (src/stats/kahan.hpp): the medium's
// incremental power accounting leans on three properties - accuracy
// under large/small mixing, exact cancellation of add/sub pairs beyond
// what plain doubles give, and reset semantics. The branch-free TwoSum
// add must also match Neumaier's branching form bit for bit.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "src/stats/kahan.hpp"
#include "src/stats/rng.hpp"

namespace {

using csense::stats::kahan_sum;

TEST(KahanSum, RecoversWhatPlainSummationLoses) {
    // 1 + 1e16 - 1e16 repeated: a plain double sum drops the 1s.
    kahan_sum k;
    double plain = 0.0;
    for (int i = 0; i < 1000; ++i) {
        k.add(1.0);
        k.add(1e16);
        k.sub(1e16);
        plain += 1.0;
        plain += 1e16;
        plain -= 1e16;
    }
    EXPECT_DOUBLE_EQ(k.value(), 1000.0);
    EXPECT_NE(plain, 1000.0) << "if plain summation were exact here the "
                                "test would prove nothing";
}

TEST(KahanSum, AddendLargerThanSum) {
    // Compensation must also work when |x| > |sum|, where classic Kahan
    // summation loses the smaller operand.
    kahan_sum k;
    k.add(1.0);
    k.add(1e100);
    k.sub(1e100);
    EXPECT_DOUBLE_EQ(k.value(), 1.0);
}

TEST(KahanSum, ManyTransmitterChurnStaysNearExact) {
    // The medium's access pattern: powers spanning ~12 orders of
    // magnitude joining and leaving in random order. After removing
    // everything the compensated value must return to ~0 at a tolerance
    // far tighter than the smallest power involved.
    csense::stats::rng gen(42);
    std::vector<double> powers;
    for (int i = 0; i < 4096; ++i) {
        powers.push_back(std::pow(10.0, gen.uniform(-12.0, 0.0)));
    }
    kahan_sum k;
    for (const double p : powers) k.add(p);
    for (const double p : powers) k.sub(p);
    EXPECT_LT(std::abs(k.value()), 1e-24);
}

/// Neumaier's compensated sum: the exact rounding error of sum + x,
/// taken from whichever operand is larger behind a branch.
struct neumaier_reference {
    double sum = 0.0;
    double compensation = 0.0;

    void add(double x) {
        const double t = sum + x;
        if (std::abs(sum) >= std::abs(x)) {
            compensation += (sum - t) + x;
        } else {
            compensation += (x - t) + sum;
        }
        sum = t;
    }
    double value() const { return sum + compensation; }
};

TEST(KahanSum, TwoSumMatchesTheNeumaierBranchBitForBit) {
    // Both forms add the exact rounding error of every add, so value()
    // must agree bit for bit after every operation: 100k seeded adds and
    // subtracts, magnitudes from 1e-15 to 1e3 with random signs, at most
    // 16 live addends (like the frames on the air around one node), so
    // fresh addends often exceed the sum, and exact cancellations of the
    // whole running sum.
    csense::stats::rng gen(17);
    kahan_sum two_sum;
    neumaier_reference neumaier;
    std::vector<double> live;
    int larger_addends = 0;
    int exact_cancellations = 0;
    for (int op = 0; op < 100'000; ++op) {
        const double draw = gen.uniform();
        double x = 0.0;
        if (draw < 0.02) {
            x = -neumaier.sum;  // cancels the sum exactly
            two_sum.add(x);
        } else if (live.size() == 16 || (!live.empty() && draw < 0.5)) {
            // Take back an earlier addend, as a frame end does.
            const std::size_t i = gen.uniform_int(live.size());
            x = -live[i];
            two_sum.sub(live[i]);
            live[i] = live.back();
            live.pop_back();
        } else {
            x = std::pow(10.0, gen.uniform(-15.0, 3.0));
            if (gen.uniform() < 0.5) x = -x;
            live.push_back(x);
            two_sum.add(x);
        }
        if (std::abs(x) > std::abs(neumaier.sum)) ++larger_addends;
        neumaier.add(x);
        if (neumaier.sum == 0.0) ++exact_cancellations;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(two_sum.value()),
                  std::bit_cast<std::uint64_t>(neumaier.value()))
            << "after operation " << op;
    }
    EXPECT_GT(larger_addends, 5'000);
    EXPECT_GT(exact_cancellations, 1'000);
}

TEST(KahanSum, ResetClearsCompensation) {
    kahan_sum k;
    k.add(1e16);
    k.add(1.0);
    k.reset();
    EXPECT_EQ(k.value(), 0.0);
    k.add(2.5);
    EXPECT_DOUBLE_EQ(k.value(), 2.5);
    k.reset(7.0);
    EXPECT_EQ(k.value(), 7.0);
}

}  // namespace
