#include "src/mac/adaptive_cs.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/capacity/shannon.hpp"
#include "src/propagation/units.hpp"
#include "src/stats/kahan.hpp"

namespace csense::mac {

namespace {

/// Weight of the newest epoch in the busy and loss EWMAs.
constexpr double ewma_weight = 0.25;

/// target_busy: the set point is 1 - busy_idle_scale / contenders (with
/// n saturated senders the idle fraction at a well-tuned threshold
/// shrinks like 1/n), and the threshold moves busy_gain_db per unit of
/// busy-fraction error. Calibrated against camp03 so the equilibrium
/// tracks the offline-tuned optimum across densities; larger gains
/// track faster but oscillate around the set point at high density.
constexpr double busy_idle_scale = 3.8;
constexpr double busy_gain_db = 6.0;

/// aimd: additive raise per clean epoch, back-off (multiplicative in
/// linear power) per congested one, and the loss EWMA above which an
/// epoch counts as congested.
constexpr double ai_step_db = 0.5;
constexpr double md_backoff_db = 3.0;
constexpr double loss_target = 0.15;

/// iterative_fixed_point: dB of threshold per doubling of the
/// concurrent/fair-share capacity ratio.
constexpr double fp_gain_db = 8.0;

/// Throws on nonsense; returns the config so it can gate the member
/// initializer list.
const cs_adaptation_config& validated(const cs_adaptation_config& config) {
    if (!(config.epoch_us > 0.0)) {
        throw std::invalid_argument("cs_adaptation_config: epoch_us <= 0");
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
      threshold_dbm_(std::clamp(initial_threshold_dbm, min_threshold_dbm,
                                max_threshold_dbm)),
      signal_dbm_(signal_dbm),
      noise_dbm_(noise_dbm),
      contenders_(std::max(contenders, 1)),
      rng_(stream) {}

double adaptive_cs_controller::on_epoch(const adaptive_cs_sample& sample) {
    constexpr double w = ewma_weight;
    busy_ewma_ = (1.0 - w) * busy_ewma_ +
                 w * std::clamp(sample.busy_fraction, 0.0, 1.0);
    if (sample.attempts > 0.0) {
        const double loss = std::clamp(
            1.0 - sample.delivered / sample.attempts, 0.0, 1.0);
        loss_ewma_ = (1.0 - w) * loss_ewma_ + w * loss;
    }

    double threshold = threshold_dbm_;
    switch (config_.policy) {
        case cs_adapt_policy::fixed:
            break;
        case cs_adapt_policy::aimd:
            if (loss_ewma_ > loss_target) {
                threshold -= md_backoff_db;
            } else {
                threshold += ai_step_db;
            }
            break;
        case cs_adapt_policy::target_busy: {
            const double target =
                std::clamp(1.0 - busy_idle_scale /
                                     static_cast<double>(contenders_),
                           0.10, 0.95);
            threshold += busy_gain_db * (busy_ewma_ - target);
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
                threshold += fp_gain_db * std::clamp(balance, -1.0, 1.0);
            }
            break;
        }
    }
    if (config_.jitter_db > 0.0) {
        threshold += config_.jitter_db * (rng_.uniform() - 0.5);
    }
    threshold_dbm_ =
        std::clamp(threshold, min_threshold_dbm, max_threshold_dbm);
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
