// The frozen channel matrix of the synthetic testbed: per-pair link gains
// drawn once from the path-loss/shadowing model the thesis fits to its
// own building (alpha ~ 3.5, sigma ~ 10 dB at 2.4 GHz, Figure 14 /
// footnote 2), plus derived quantities: SNR, expected delivery rate at a
// given bitrate, and link categories for the §4 experiments.
#pragma once

#include <cstdint>
#include <vector>

#include "src/capacity/error_models.hpp"
#include "src/mac/wireless_config.hpp"
#include "src/testbed/layout.hpp"

namespace csense::testbed {

/// Propagation parameters of the synthetic building.
///
/// Shadowing is split between a spatially *correlated* field (obstacles
/// affect all links through a region coherently) and a small i.i.d.
/// residue. Purely i.i.d. shadowing - fine for the analytic model -
/// produces unphysical triangles in a concrete layout (e.g. an interferer
/// 10 m from a receiver yet inaudible to a sender 30 m away), flooding
/// the ensemble with catastrophic hidden terminals real buildings do not
/// exhibit at that rate.
struct channel_params {
    double alpha = 3.5;             ///< thesis' own-testbed fit (fn. 2)
    double sigma_db = 10.0;         ///< total shadowing std dev
    double iid_fraction = 0.25;     ///< variance fraction that is i.i.d.
    double decorrelation_m = 20.0;  ///< correlated-field length scale
    double reference_loss_db = 40.0;///< loss at 1 m, ~2.4 GHz Friis
    double floor_attenuation_db = 6.0;
    std::uint64_t seed = 1;
};

/// A directed sender -> receiver link.
struct link {
    std::uint32_t sender = 0;
    std::uint32_t receiver = 0;
};

/// Frozen channel matrix plus derived link metrics.
class channel_matrix {
public:
    channel_matrix(const std::vector<placed_node>& nodes,
                   const channel_params& params, mac::radio_config radio);

    std::size_t node_count() const noexcept { return count_; }
    const mac::radio_config& radio() const noexcept { return radio_; }

    /// Symmetric link gain in dB (median path loss + frozen shadow).
    double gain_db(std::uint32_t a, std::uint32_t b) const;

    /// Mean SNR of the link in dB (before per-packet fading).
    double snr_db(std::uint32_t a, std::uint32_t b) const;

    /// Expected delivery rate at a bitrate, averaged over per-packet
    /// fading (radio.fading_sigma_db) with the given error model.
    double expected_delivery(std::uint32_t tx, std::uint32_t rx,
                             const capacity::phy_rate& rate, int payload_bytes,
                             const capacity::logistic_per_model& errors) const;

    /// All directed links whose 6 Mb/s delivery rate falls within
    /// [lo, hi] - the thesis' link-quality category selector.
    std::vector<link> links_by_delivery(
        double lo, double hi, const capacity::phy_rate& rate,
        int payload_bytes, const capacity::logistic_per_model& errors) const;

private:
    std::size_t count_;
    mac::radio_config radio_;
    std::vector<double> gains_db_;
};

}  // namespace csense::testbed
