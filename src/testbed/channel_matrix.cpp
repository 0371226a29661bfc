#include "src/testbed/channel_matrix.hpp"

#include <cmath>
#include <stdexcept>

#include "src/propagation/path_loss.hpp"
#include "src/propagation/shadowing.hpp"
#include "src/stats/quadrature.hpp"

namespace csense::testbed {

channel_matrix::channel_matrix(const std::vector<placed_node>& nodes,
                               const channel_params& params,
                               mac::radio_config radio)
    : count_(nodes.size()), radio_(radio),
      gains_db_(nodes.size() * nodes.size(), -500.0) {
    if (nodes.empty()) throw std::invalid_argument("channel_matrix: no nodes");
    const propagation::indoor_floor_path_loss loss(
        params.alpha, params.reference_loss_db, params.floor_attenuation_db, 0);
    const double iid_sigma = params.sigma_db * std::sqrt(params.iid_fraction);
    const double corr_sigma =
        params.sigma_db * std::sqrt(1.0 - params.iid_fraction);
    const propagation::iid_shadowing iid(iid_sigma, params.seed);
    const propagation::correlated_shadowing corr(
        corr_sigma, params.decorrelation_m, params.seed ^ 0xc0c0c0c0);
    for (std::size_t a = 0; a < count_; ++a) {
        for (std::size_t b = a + 1; b < count_; ++b) {
            const double d = std::max(node_distance_m(nodes[a], nodes[b]), 0.5);
            const double pl =
                loss.loss_db(d, floors_crossed(nodes[a], nodes[b]));
            // Obstructions are roughly columnar: evaluate the correlated
            // field on the floor plan (x, y) regardless of floor.
            const propagation::position pa{nodes[a].pos.x, nodes[a].pos.y};
            const propagation::position pb{nodes[b].pos.x, nodes[b].pos.y};
            const double sh = corr.shadow_db(pa, pb) +
                              iid.shadow_db(nodes[a].id, nodes[b].id);
            const double gain = -(pl + sh);
            gains_db_[a * count_ + b] = gain;
            gains_db_[b * count_ + a] = gain;
        }
    }
}

double channel_matrix::gain_db(std::uint32_t a, std::uint32_t b) const {
    if (a >= count_ || b >= count_ || a == b) {
        throw std::invalid_argument("channel_matrix::gain_db: bad link");
    }
    return gains_db_[a * count_ + b];
}

double channel_matrix::snr_db(std::uint32_t a, std::uint32_t b) const {
    return radio_.tx_power_dbm + gain_db(a, b) - radio_.noise_floor_dbm;
}

double channel_matrix::expected_delivery(
    std::uint32_t tx, std::uint32_t rx, const capacity::phy_rate& rate,
    int payload_bytes, const capacity::logistic_per_model& errors) const {
    const double snr = snr_db(tx, rx);
    if (radio_.fading_sigma_db <= 0.0) {
        return errors.delivery_rate(rate, snr, payload_bytes);
    }
    return stats::normal_expectation(
        [&](double z) {
            return errors.delivery_rate(
                rate, snr + radio_.fading_sigma_db * z, payload_bytes);
        },
        24);
}

std::vector<link> channel_matrix::links_by_delivery(
    double lo, double hi, const capacity::phy_rate& rate, int payload_bytes,
    const capacity::logistic_per_model& errors) const {
    std::vector<link> result;
    for (std::uint32_t a = 0; a < count_; ++a) {
        for (std::uint32_t b = 0; b < count_; ++b) {
            if (a == b) continue;
            const double delivery =
                expected_delivery(a, b, rate, payload_bytes, errors);
            if (delivery >= lo && delivery <= hi) {
                result.push_back(link{a, b});
            }
        }
    }
    return result;
}

}  // namespace csense::testbed
