#include "src/capacity/error_models.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace csense::capacity {

logistic_per_model::logistic_per_model(double width_db, int reference_bytes)
    : width_db_(width_db), reference_bytes_(reference_bytes) {
    if (width_db <= 0.0 || reference_bytes <= 0) {
        throw std::invalid_argument("logistic_per_model: bad parameters");
    }
}

double logistic_per_model::packet_error_rate(const phy_rate& rate, double sinr_db,
                                             int payload_bytes) const {
    if (payload_bytes <= 0) {
        throw std::invalid_argument("packet_error_rate: payload must be positive");
    }
    // The rate's sensitivity is calibrated at ~10% PER for the reference
    // length; centre the logistic so PER(min_snr) = 0.1 there.
    const double offset = width_db_ * std::log(1.0 / 0.1 - 1.0);
    const double midpoint = rate.min_snr_db - offset;
    const double per_ref =
        1.0 / (1.0 + std::exp((sinr_db - midpoint) / width_db_));
    // Length scaling via the independent-bit rule.
    const double scale = static_cast<double>(payload_bytes) /
                         static_cast<double>(reference_bytes_);
    const double log_success_ref = std::log1p(-std::min(per_ref, 1.0 - 1e-15));
    return 1.0 - std::exp(scale * log_success_ref);
}

}  // namespace csense::capacity
