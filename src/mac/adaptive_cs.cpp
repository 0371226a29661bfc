#include "src/mac/adaptive_cs.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/capacity/shannon.hpp"
#include "src/propagation/units.hpp"
#include "src/stats/kahan.hpp"

namespace csense::mac {

namespace {

/// Throws on nonsense; returns the config so it can gate the member
/// initializer list (the std::clamp there needs min <= max proven
/// first - inverted bounds are undefined behaviour for std::clamp).
const cs_adaptation_config& validated(const cs_adaptation_config& config) {
    if (!(config.epoch_us > 0.0)) {
        throw std::invalid_argument("cs_adaptation_config: epoch_us <= 0");
    }
    if (config.min_threshold_dbm > config.max_threshold_dbm) {
        throw std::invalid_argument("cs_adaptation_config: min > max");
    }
    if (!(config.ewma_weight > 0.0) || config.ewma_weight > 1.0) {
        throw std::invalid_argument(
            "cs_adaptation_config: ewma_weight not in (0, 1]");
    }
    if (config.jitter_db < 0.0) {
        throw std::invalid_argument("cs_adaptation_config: negative jitter");
    }
    return config;
}

}  // namespace

adaptive_cs_controller::adaptive_cs_controller(
    const cs_adaptation_config& config, double initial_threshold_dbm,
    double signal_dbm, double noise_dbm, int contenders, stats::rng stream)
    : config_(validated(config)),
      threshold_dbm_(std::clamp(initial_threshold_dbm,
                                config.min_threshold_dbm,
                                config.max_threshold_dbm)),
      signal_dbm_(signal_dbm),
      noise_dbm_(noise_dbm),
      contenders_(std::max(contenders, 1)),
      rng_(stream) {}

double adaptive_cs_controller::on_epoch(const adaptive_cs_sample& sample) {
    const double w = config_.ewma_weight;
    busy_ewma_ = (1.0 - w) * busy_ewma_ +
                 w * std::clamp(sample.busy_fraction, 0.0, 1.0);
    if (sample.attempts > 0.0) {
        const double loss = std::clamp(
            1.0 - sample.delivered / sample.attempts, 0.0, 1.0);
        loss_ewma_ = (1.0 - w) * loss_ewma_ + w * loss;
    }
    goodput_ewma_ = (1.0 - w) * goodput_ewma_ + w * sample.delivered;

    double threshold = threshold_dbm_;
    switch (config_.policy) {
        case cs_adapt_policy::fixed:
            break;
        case cs_adapt_policy::aimd:
            if (loss_ewma_ > config_.loss_target) {
                threshold -= config_.md_backoff_db;
            } else {
                threshold += config_.ai_step_db;
            }
            break;
        case cs_adapt_policy::target_busy: {
            // With n saturated senders the idle fraction at a well-tuned
            // threshold shrinks like 1/n, so the auto set point scales
            // the target with the contender count.
            const double target =
                config_.busy_target > 0.0
                    ? config_.busy_target
                    : std::clamp(1.0 - config_.busy_idle_scale /
                                           static_cast<double>(contenders_),
                                 0.10, 0.95);
            threshold += config_.busy_gain_db * (busy_ewma_ - target);
            break;
        }
        case cs_adapt_policy::iterative_fixed_point: {
            // Online Kim & Kim iteration: the marginal contender this
            // threshold admits is sensed at exactly the threshold power,
            // and (in the pairwise D >> r approximation) interferes at
            // the receiver with that same power. Step the threshold by
            // the log ratio of the link's concurrent Shannon capacity
            // under that marginal interferer to the fair half share -
            // the same damped log-domain update the offline solver
            // (src/core/adaptive_threshold.hpp) iterates, driven by the
            // fed-back receiver RSSI instead of the disc model.
            const double s_mw = propagation::dbm_to_mw(signal_dbm_);
            const double n_mw = propagation::dbm_to_mw(noise_dbm_);
            const double marginal_mw =
                n_mw + propagation::dbm_to_mw(threshold);
            const double c_conc =
                capacity::shannon_bits_per_hz(s_mw / marginal_mw);
            const double c_mux =
                0.5 * capacity::shannon_bits_per_hz(s_mw / n_mw);
            if (c_conc > 0.0 && c_mux > 0.0) {
                const double balance = std::log2(c_conc / c_mux);
                threshold +=
                    config_.fp_gain_db * std::clamp(balance, -1.0, 1.0);
            }
            break;
        }
    }
    if (config_.jitter_db > 0.0) {
        threshold += config_.jitter_db * (rng_.uniform() - 0.5);
    }
    threshold_dbm_ = std::clamp(threshold, config_.min_threshold_dbm,
                                config_.max_threshold_dbm);
    return threshold_dbm_;
}

adaptive_cs_manager::adaptive_cs_manager(network& net,
                                         std::vector<adaptive_cs_link> links,
                                         std::uint64_t seed)
    : net_(net), epoch_us_(0.0) {
    if (links.empty()) {
        throw std::invalid_argument("adaptive_cs_manager: no links");
    }
    epoch_us_ = validated(net.node(links.front().sender).config().adapt)
                    .epoch_us;
    const stats::rng base(seed);
    const double noise_dbm = net.air().radio().noise_floor_dbm;
    links_.reserve(links.size());
    for (const auto& link : links) {
        // Each controller runs its own sender's mac_config::adapt - the
        // per-node hook - so heterogeneous policies coexist; only the
        // epoch cadence is shared network-wide.
        const auto& node = net.node(link.sender);
        const double signal_dbm =
            net.air().rx_power_dbm(link.sender, link.receiver);
        links_.push_back(link_state{
            link,
            adaptive_cs_controller(
                node.config().adapt, node.cs_threshold_dbm(), signal_dbm,
                noise_dbm, static_cast<int>(links.size()),
                base.split(static_cast<std::uint64_t>(link.sender))),
            0.0, 0, 0});
    }
}

std::uint64_t adaptive_cs_manager::delivered_from(const dcf_node& receiver,
                                                  node_id sender) {
    const auto& by_src = receiver.stats().rx_decoded_by_src;
    const auto it = by_src.find(sender);
    return it != by_src.end() ? it->second : 0;
}

void adaptive_cs_manager::start() {
    if (started_) {
        throw std::logic_error("adaptive_cs_manager: started twice");
    }
    started_ = true;
    for (auto& state : links_) {
        const auto& sender = net_.node(state.link.sender);
        state.busy_us = sender.energy_busy_time_us();
        state.sent = sender.stats().data_sent;
        state.delivered =
            delivered_from(net_.node(state.link.receiver), state.link.sender);
        // Install the initial (clamped) threshold so every policy starts
        // from the same override path it will adapt through.
        net_.node(state.link.sender)
            .set_cs_threshold_dbm(state.controller.threshold_dbm());
    }
    net_.sim().schedule_in(epoch_us_, [this] { on_epoch(); });
}

void adaptive_cs_manager::on_epoch() {
    stats::kahan_sum threshold_sum;
    for (auto& state : links_) {
        auto& sender = net_.node(state.link.sender);
        const double busy_us = sender.energy_busy_time_us();
        const std::uint64_t sent = sender.stats().data_sent;
        const std::uint64_t delivered =
            delivered_from(net_.node(state.link.receiver), state.link.sender);

        adaptive_cs_sample sample;
        sample.busy_fraction = (busy_us - state.busy_us) / epoch_us_;
        sample.attempts = static_cast<double>(sent - state.sent);
        sample.delivered = static_cast<double>(delivered - state.delivered);

        state.busy_us = busy_us;
        state.sent = sent;
        state.delivered = delivered;

        sender.set_cs_threshold_dbm(state.controller.on_epoch(sample));
        threshold_sum.add(state.controller.threshold_dbm());
    }
    mean_trajectory_dbm_.push_back(threshold_sum.value() /
                                   static_cast<double>(links_.size()));
    net_.sim().schedule_in(epoch_us_, [this] { on_epoch(); });
}

std::vector<double> adaptive_cs_manager::thresholds_dbm() const {
    std::vector<double> thresholds;
    thresholds.reserve(links_.size());
    for (const auto& state : links_) {
        thresholds.push_back(state.controller.threshold_dbm());
    }
    return thresholds;
}

}  // namespace csense::mac
