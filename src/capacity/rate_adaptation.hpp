// Bitrate adaptation algorithms. The thesis treats adaptation as the
// MAC's most important lever (§1) and assumes a "reasonable bitrate
// adaptation algorithm (such as [Bicket05])". We provide:
//  - best_fixed_rate_oracle: the thesis' own experimental method -
//    independently identify the best rate per run;
//  - arf: Auto Rate Fallback, the classic success/failure counter;
//  - sample_rate: Bicket's SampleRate, minimizing expected air time
//    per successful packet with periodic probing.
#pragma once

#include <cstddef>
#include <vector>

#include "src/capacity/error_models.hpp"
#include "src/capacity/rate_table.hpp"
#include "src/stats/rng.hpp"

namespace csense::capacity {

/// Interface for per-packet rate selection with delivery feedback.
class rate_adaptation {
public:
    virtual ~rate_adaptation() = default;

    /// Rate to use for the next transmission.
    virtual const phy_rate& next_rate() = 0;

    /// Report the outcome of the last transmission at `rate`.
    virtual void report(const phy_rate& rate, bool delivered,
                        double airtime_us) = 0;
};

/// ARF: move up one rate after `successes_to_climb` consecutive
/// successes, down one after `failures_to_fall` consecutive failures.
class arf final : public rate_adaptation {
public:
    static constexpr int successes_to_climb = 10;
    static constexpr int failures_to_fall = 2;

    explicit arf(const std::vector<phy_rate>& table = ofdm_rates());

    const phy_rate& next_rate() override;
    void report(const phy_rate& rate, bool delivered, double airtime_us) override;

private:
    std::vector<phy_rate> table_;
    std::size_t index_ = 0;
    int successes_ = 0;
    int failures_ = 0;
};

/// SampleRate [Bicket05]: track an EWMA of per-packet air time (counting
/// retries/losses as wasted time) per rate; send at the rate with the
/// lowest expected time per delivered packet; spend ~10% of packets
/// probing other plausible rates.
class sample_rate final : public rate_adaptation {
public:
    explicit sample_rate(const std::vector<phy_rate>& table, int payload_bytes,
                         std::uint64_t seed = 1);

    const phy_rate& next_rate() override;
    void report(const phy_rate& rate, bool delivered, double airtime_us) override;

    /// Expected air time per delivered packet for a rate index (us);
    /// infinite when the rate has seen only failures.
    double expected_time_us(std::size_t index) const;

private:
    struct rate_state {
        double ewma_delivery = -1.0;  ///< -1 until first report
        std::size_t attempts = 0;
        std::size_t successes = 0;
    };

    std::size_t best_index() const;

    std::vector<phy_rate> table_;
    std::vector<rate_state> states_;
    int payload_bytes_;
    stats::rng rng_;
    std::size_t pending_index_ = 0;
};

/// The thesis' §4 oracle: evaluate the long-run delivery rate of every
/// rate in `table` at a fixed SINR using `model`, and return the rate
/// maximizing delivered packets/second of a saturated broadcast sender.
const phy_rate& best_fixed_rate_oracle(const std::vector<phy_rate>& table,
                                       const logistic_per_model& model,
                                       double sinr_db, int payload_bytes);

}  // namespace csense::capacity
