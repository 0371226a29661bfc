#include "src/capacity/rate_adaptation.hpp"

#include <limits>
#include <stdexcept>

namespace csense::capacity {

namespace {
/// SampleRate's weight of the newest outcome in a rate's delivery EWMA.
constexpr double sample_rate_ewma_weight = 0.25;
/// Share of SampleRate's packets spent probing another rate.
constexpr double sample_rate_probe_share = 0.1;
}  // namespace

arf::arf(const std::vector<phy_rate>& table) : table_(table) {
    if (table_.empty()) throw std::invalid_argument("arf: empty rate table");
}

const phy_rate& arf::next_rate() { return table_[index_]; }

void arf::report(const phy_rate&, bool delivered, double) {
    if (delivered) {
        failures_ = 0;
        if (++successes_ >= successes_to_climb && index_ + 1 < table_.size()) {
            ++index_;
            successes_ = 0;
        }
    } else {
        successes_ = 0;
        if (++failures_ >= failures_to_fall && index_ > 0) {
            --index_;
            failures_ = 0;
        }
    }
}

sample_rate::sample_rate(const std::vector<phy_rate>& table, int payload_bytes,
                         std::uint64_t seed)
    : table_(table), states_(table.size()), payload_bytes_(payload_bytes),
      rng_(seed) {
    if (table_.empty()) throw std::invalid_argument("sample_rate: empty table");
    if (payload_bytes <= 0) throw std::invalid_argument("sample_rate: payload");
}

double sample_rate::expected_time_us(std::size_t index) const {
    const auto& state = states_.at(index);
    const double airtime = frame_airtime_us(table_[index], payload_bytes_);
    if (state.ewma_delivery < 0.0) return airtime;  // unprobed: optimistic
    if (state.ewma_delivery <= 1e-6) {
        return std::numeric_limits<double>::infinity();
    }
    return airtime / state.ewma_delivery;
}

std::size_t sample_rate::best_index() const {
    std::size_t best = 0;
    double best_time = expected_time_us(0);
    for (std::size_t i = 1; i < table_.size(); ++i) {
        const double t = expected_time_us(i);
        if (t < best_time) {
            best_time = t;
            best = i;
        }
    }
    return best;
}

const phy_rate& sample_rate::next_rate() {
    const std::size_t best = best_index();
    pending_index_ = best;
    if (rng_.uniform() < sample_rate_probe_share && table_.size() > 1) {
        // Probe a random other rate whose lossless air time could beat the
        // current best's expected time (SampleRate's pruning rule).
        const double current = expected_time_us(best);
        std::vector<std::size_t> candidates;
        for (std::size_t i = 0; i < table_.size(); ++i) {
            if (i == best) continue;
            if (frame_airtime_us(table_[i], payload_bytes_) < current) {
                candidates.push_back(i);
            }
        }
        if (!candidates.empty()) {
            pending_index_ =
                candidates[rng_.uniform_int(candidates.size())];
        }
    }
    return table_[pending_index_];
}

void sample_rate::report(const phy_rate& rate, bool delivered, double) {
    for (std::size_t i = 0; i < table_.size(); ++i) {
        if (table_[i].mbps != rate.mbps) continue;
        auto& state = states_[i];
        ++state.attempts;
        if (delivered) ++state.successes;
        const double outcome = delivered ? 1.0 : 0.0;
        if (state.ewma_delivery < 0.0) {
            state.ewma_delivery = outcome;
        } else {
            state.ewma_delivery =
                (1.0 - sample_rate_ewma_weight) * state.ewma_delivery +
                sample_rate_ewma_weight * outcome;
        }
        return;
    }
    throw std::invalid_argument("sample_rate::report: rate not in table");
}

const phy_rate& best_fixed_rate_oracle(const std::vector<phy_rate>& table,
                                       const logistic_per_model& model,
                                       double sinr_db, int payload_bytes) {
    if (table.empty()) {
        throw std::invalid_argument("best_fixed_rate_oracle: empty table");
    }
    const phy_rate* best = &table.front();
    double best_goodput = -1.0;
    for (const auto& rate : table) {
        const double pps = saturated_broadcast_pps(rate, payload_bytes);
        const double goodput =
            pps * model.delivery_rate(rate, sinr_db, payload_bytes);
        if (goodput > best_goodput) {
            best_goodput = goodput;
            best = &rate;
        }
    }
    return *best;
}

}  // namespace csense::capacity
