// SINR -> packet-error-rate model for the packet-level simulator: a
// phenomenological logistic in dB SNR centred at each rate's
// sensitivity point, the shape packet simulators such as ns-3's YANS
// model use. It produces the step-like fixed-rate behaviour §3.3.2
// contrasts with adaptive bitrate's smooth Shannon curve.
#pragma once

#include "src/capacity/rate_table.hpp"

namespace csense::capacity {

/// Logistic PER curve: PER = 1 / (1 + exp((sinr - midpoint) / width)),
/// with midpoint at the rate's sensitivity and a reference frame length;
/// longer frames shift the curve right by the independent-bit rule.
class logistic_per_model {
public:
    /// `width_db` controls the sharpness of the waterfall region
    /// (typically ~0.5-1.5 dB for OFDM with coding).
    explicit logistic_per_model(double width_db = 1.0,
                                int reference_bytes = 1000);

    /// Probability in [0, 1] that a frame of `payload_bytes` at `rate`
    /// is lost at the given SINR.
    double packet_error_rate(const phy_rate& rate, double sinr_db,
                             int payload_bytes) const;

    /// Convenience: delivery rate = 1 - PER.
    double delivery_rate(const phy_rate& rate, double sinr_db,
                         int payload_bytes) const {
        return 1.0 - packet_error_rate(rate, sinr_db, payload_bytes);
    }

private:
    double width_db_;
    int reference_bytes_;
};

}  // namespace csense::capacity
