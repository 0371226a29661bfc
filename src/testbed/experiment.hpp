// The §4 experiment methodology, reproduced end to end:
//  - select sender -> receiver links by 6 Mb/s delivery-rate category
//    (>= 94% = "short range", 80-95% = "long range");
//  - sample competing pair-of-pairs from the category;
//  - for each run, measure multiplexing (each pair alone), concurrency
//    (carrier sense disabled, both senders saturated), and carrier sense
//    (default hardware behaviour), each repeated at every rate in
//    {6, 9, 12, 18, 24} Mb/s with the best rate identified independently
//    per transmitter (the thesis' oracle-adaptation method);
//  - report per-run points (Figures 10-13) and ensemble averages
//    (the §4.1 / §4.2 summary tables);
//  - view the short-range ensemble as the §5 informal experiment
//    (Table 5): bitrate adaptation against exposed-terminal
//    exploitation, which the thesis runs "on the short-range test set".
#pragma once

#include <memory>
#include <vector>

#include "src/testbed/channel_matrix.hpp"

namespace csense::testbed {

/// Experiment knobs. Defaults mirror the thesis.
struct experiment_config {
    int runs = 40;                 ///< competing pair-of-pairs sampled
    double duration_s = 15.0;      ///< per-measurement run time
    int payload_bytes = 1400;
    double category_lo = 0.94;     ///< delivery-rate window at 6 Mb/s
    double category_hi = 1.00;
    std::uint64_t seed = 7;
    double logistic_width_db = 2.5;///< PER waterfall width for the PHY
    /// Sender-sender RSSI band (the x-axis of Figures 11/13, which the
    /// thesis' points cover roughly uniformly): each run aims its
    /// pair-of-pairs at a target drawn uniformly from it.
    double rssi_strata_lo_db = -5.0;
    double rssi_strata_hi_db = 35.0;
    /// Worker threads for sharding runs over the campaign layer
    /// (src/sim/campaign.hpp). 0 = auto; purely a wall-clock knob -
    /// every run draws from its own split RNG stream, so results are
    /// identical for every value.
    int threads = 0;
};

/// One competing-pairs measurement (one column of Figure 10/12).
struct run_result {
    link pair1, pair2;
    double mux_pps = 0.0;          ///< (best1 + best2) / 2, each alone
    double conc_pps = 0.0;         ///< CS disabled, both saturated
    double cs_pps = 0.0;           ///< CS enabled
    double conc_pair1 = 0.0, conc_pair2 = 0.0;
    double cs_pair1 = 0.0, cs_pair2 = 0.0;
    double conc_base_pps = 0.0;    ///< CS disabled, both at 6 Mb/s
    double cs_base_pps = 0.0;      ///< CS enabled, both at 6 Mb/s
    double sender_rssi_db = 0.0;   ///< sender-sender SNR above the floor
    double snr1_db = 0.0, snr2_db = 0.0;

    /// The thesis' "optimal": best of the strategies actually measured.
    double optimal_pps() const noexcept {
        return std::max(mux_pps, conc_pps);
    }
};

/// Ensemble result: per-run points plus the summary-table averages.
struct experiment_result {
    std::vector<run_result> runs;
    double avg_mux = 0.0;
    double avg_conc = 0.0;
    double avg_cs = 0.0;
    double avg_optimal = 0.0;
    double category_snr_db = 0.0;  ///< mean SNR of the selected links

    double cs_fraction() const noexcept { return avg_cs / avg_optimal; }
    double mux_fraction() const noexcept { return avg_mux / avg_optimal; }
    double conc_fraction() const noexcept { return avg_conc / avg_optimal; }
};

/// The §5 comparison: ensemble averages for four strategies.
struct exposed_gain_result {
    double base_cs = 0.0;        ///< 6 Mb/s, carrier sense
    double base_exposed = 0.0;   ///< 6 Mb/s, best of CS / concurrency per run
    double adapted_cs = 0.0;     ///< best rate, carrier sense
    double adapted_exposed = 0.0;///< best rate, best of CS / concurrency

    /// Adaptation gain over base rate (thesis: "more than doubles").
    double adaptation_gain() const noexcept { return adapted_cs / base_cs; }
    /// Exposed-terminal gain at fixed base rate (thesis: ~1.10).
    double exposed_gain_base() const noexcept {
        return base_exposed / base_cs;
    }
    /// Exposed-terminal gain on top of adaptation (thesis: ~1.03).
    double exposed_gain_adapted() const noexcept {
        return adapted_exposed / adapted_cs;
    }
};

/// A complete synthetic testbed: layout + per-band channel matrices.
/// The thesis runs its §4 experiments in 802.11a mode (5 GHz) but its
/// Figure 14 RSSI survey at 2.4 GHz (fn. 20 notes the two are not
/// directly comparable); we build both matrices over the same layout.
struct testbed {
    std::vector<placed_node> nodes;
    channel_params channel_5ghz;
    channel_params channel_24ghz;
    mac::radio_config radio;
    std::unique_ptr<channel_matrix> matrix;       ///< 5 GHz: §4 experiments
    std::unique_ptr<channel_matrix> matrix_24ghz; ///< 2.4 GHz: Fig. 14 survey
};

/// Build the default ~50-node two-floor testbed. `fading_sigma_db`
/// introduces per-packet wideband fading residue (a few dB, per the
/// appendix's discussion).
testbed make_default_testbed(int node_count = 50, std::uint64_t seed = 11,
                             double fading_sigma_db = 5.0);

/// Run the full §4 experiment over one category window.
experiment_result run_experiment(const testbed& bed,
                                 const experiment_config& config);

/// The §5 comparison over an ensemble's runs (Table 5 views the
/// short-range one). "Perfect exposed exploitation" is the best of
/// carrier sense and concurrency per run.
exposed_gain_result exposed_gains(const experiment_result& ensemble);

/// Convenience: the thesis' two categories.
experiment_config short_range_config();
experiment_config long_range_config();

}  // namespace csense::testbed
