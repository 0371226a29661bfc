// Compensated floating-point accumulation (Knuth's TwoSum).
//
// The packet-level medium keeps a per-node running sum of external
// power in milliwatts that is incremented on every transmission start
// and decremented on every end. Over millions of events a plain double
// accumulator drifts (catastrophically so when large and small powers
// mix, exactly the cumulative-interference regime); the compensated sum
// keeps the error at a few ulps of the *current* value independent of
// how many updates have been applied, which is what makes incremental
// power accounting deterministic-and-accurate enough to replace full
// re-summation (src/mac/medium.cpp).
//
// Each add computes the exact rounding error of `sum + x` with Knuth's
// TwoSum - six floating-point operations and no comparison - and folds
// it into the compensation term. value() is NaN once an infinity enters
// or the sum overflows.
//
// Header-only and trivially copyable so it can live in hot per-node
// arrays.
#pragma once

namespace csense::stats {

/// Compensated summation: a running sum plus a running compensation
/// term holding the exact rounding error of every add. Unlike classic
/// Kahan it stays accurate when the addend is larger than the sum,
/// which happens constantly when a nearby transmitter joins a field of
/// weak ones.
class kahan_sum {
public:
    constexpr kahan_sum() noexcept = default;
    explicit constexpr kahan_sum(double value) noexcept : sum_(value) {}

    /// Add `x` (use a negative value to subtract; `sub` reads better).
    void add(double x) noexcept {
        // TwoSum: t + error == sum_ + x exactly, with no branch.
        const double t = sum_ + x;
        const double x_part = t - sum_;
        compensation_ += (sum_ - (t - x_part)) + (x - x_part);
        sum_ = t;
    }

    /// Subtract `x` from the running sum.
    void sub(double x) noexcept { add(-x); }

    /// Current compensated value.
    constexpr double value() const noexcept { return sum_ + compensation_; }

    /// Reset to exactly `value` with zero compensation. The medium calls
    /// this whenever a node's audible set empties (the sum is exactly
    /// zero then) and on its periodic exact refresh, so drift can never
    /// accumulate across quiet periods.
    constexpr void reset(double value = 0.0) noexcept {
        sum_ = value;
        compensation_ = 0.0;
    }

private:
    double sum_ = 0.0;
    double compensation_ = 0.0;
};

}  // namespace csense::stats
