#include "src/testbed/experiment.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/capacity/rate_table.hpp"
#include "src/mac/network.hpp"
#include "src/sim/campaign.hpp"
#include "src/stats/rng.hpp"

namespace csense::testbed {
namespace {

/// Extract the six inter-node gains of a two-pair scenario.
mac::two_pair_gains gains_for(const channel_matrix& m, const link& p1,
                              const link& p2) {
    mac::two_pair_gains g;
    g.s1_r1 = m.gain_db(p1.sender, p1.receiver);
    g.s2_r2 = m.gain_db(p2.sender, p2.receiver);
    g.s1_s2 = m.gain_db(p1.sender, p2.sender);
    g.s1_r2 = m.gain_db(p1.sender, p2.receiver);
    g.s2_r1 = m.gain_db(p2.sender, p1.receiver);
    g.r1_r2 = m.gain_db(p1.receiver, p2.receiver);
    return g;
}

bool distinct_nodes(const link& a, const link& b) {
    return a.sender != b.sender && a.sender != b.receiver &&
           a.receiver != b.sender && a.receiver != b.receiver;
}

}  // namespace

testbed make_default_testbed(int node_count, std::uint64_t seed,
                             double fading_sigma_db) {
    testbed bed;
    building b;
    bed.nodes = make_layout(b, node_count, seed);
    bed.radio.fading_sigma_db = fading_sigma_db;
    // 5 GHz (802.11a, the §4 band): ~47 dB Friis loss at 1 m and heavier
    // floor attenuation; the same shadowing environment.
    bed.channel_5ghz.reference_loss_db = 47.0;
    bed.channel_5ghz.floor_attenuation_db = 9.0;
    bed.channel_5ghz.seed = seed ^ 0x5ca1ab1e;
    // 2.4 GHz (the Fig. 14 survey band): ~40 dB at 1 m.
    bed.channel_24ghz.reference_loss_db = 40.0;
    bed.channel_24ghz.floor_attenuation_db = 6.0;
    bed.channel_24ghz.seed = seed ^ 0x5ca1ab1e;  // same obstacles, same shadows
    bed.matrix = std::make_unique<channel_matrix>(bed.nodes, bed.channel_5ghz,
                                                  bed.radio);
    bed.matrix_24ghz = std::make_unique<channel_matrix>(
        bed.nodes, bed.channel_24ghz, bed.radio);
    return bed;
}

experiment_config short_range_config() {
    experiment_config cfg;
    cfg.category_lo = 0.94;
    cfg.category_hi = 1.00;
    // The thesis' short-range ensemble is dominated by mutually-far pairs
    // (multiplexing averages only 58% of optimal): weight the strata
    // toward low sender-sender RSSI.
    cfg.rssi_strata_lo_db = -16.0;
    cfg.rssi_strata_hi_db = 22.0;
    return cfg;
}

experiment_config long_range_config() {
    experiment_config cfg;
    cfg.category_lo = 0.80;
    cfg.category_hi = 0.95;
    // Long-range links span longer distances, so the thesis' competing
    // pairs overlap more often: weight the strata toward the transition.
    cfg.rssi_strata_lo_db = -9.0;
    cfg.rssi_strata_hi_db = 28.0;
    return cfg;
}

experiment_result run_experiment(const testbed& bed,
                                 const experiment_config& config) {
    if (!bed.matrix) throw std::invalid_argument("run_experiment: no matrix");
    const auto& matrix = *bed.matrix;
    const capacity::logistic_per_model errors(config.logistic_width_db);
    const auto& base_rate = capacity::rate_by_mbps(6.0);
    const auto candidates = matrix.links_by_delivery(
        config.category_lo, config.category_hi, base_rate,
        config.payload_bytes, errors);
    if (candidates.size() < 4) {
        throw std::runtime_error(
            "run_experiment: too few links in the delivery category");
    }

    const auto& rates = capacity::thesis_sweep_rates();
    const double duration_us = config.duration_s * 1e6;

    experiment_result result;
    double category_snr_sum = 0.0;
    for (const auto& l : candidates) {
        category_snr_sum += matrix.snr_db(l.sender, l.receiver);
    }
    result.category_snr_db =
        category_snr_sum / static_cast<double>(candidates.size());

    // Each run is one independent replication: its pair sampling and
    // every simulation inside it draw only from the run's own split RNG
    // stream, so runs shard over the campaign layer with results placed
    // by run index (identical for every thread count).
    sim::campaign_options campaign;
    campaign.replications = static_cast<std::size_t>(config.runs);
    campaign.shard_size = 1;  // one packet-level run is plenty per task
    campaign.threads = config.threads;
    campaign.seed = config.seed;
    result.runs = sim::run_replications<run_result>(campaign, [&](
        std::size_t run, stats::rng& picker) {
        // Sample two node-disjoint links from the category, aiming each
        // run at a target sender-sender RSSI so the ensemble covers the
        // near / transition / far axis the way the thesis' scatter plots
        // do.
        link p1{}, p2{};
        const double target_rssi = picker.uniform(config.rssi_strata_lo_db,
                                                  config.rssi_strata_hi_db);
        int attempts = 0;
        link closest1{}, closest2{};
        double best_miss = 1e300;
        for (;;) {
            p1 = candidates[picker.uniform_int(candidates.size())];
            p2 = candidates[picker.uniform_int(candidates.size())];
            ++attempts;
            if (!distinct_nodes(p1, p2)) {
                if (attempts > 2000) {
                    throw std::runtime_error(
                        "run_experiment: cannot find disjoint pairs");
                }
                continue;
            }
            const double rssi = matrix.snr_db(p1.sender, p2.sender);
            const double miss = std::abs(rssi - target_rssi);
            if (miss < best_miss) {
                best_miss = miss;
                closest1 = p1;
                closest2 = p2;
            }
            if (miss <= 2.0 || attempts > 400) {
                p1 = closest1;
                p2 = closest2;
                break;
            }
        }

        run_result r;
        r.pair1 = p1;
        r.pair2 = p2;
        r.snr1_db = matrix.snr_db(p1.sender, p1.receiver);
        r.snr2_db = matrix.snr_db(p2.sender, p2.receiver);
        r.sender_rssi_db = matrix.snr_db(p1.sender, p2.sender);
        const auto gains = gains_for(matrix, p1, p2);
        const std::uint64_t run_seed =
            config.seed * 1000003ULL + static_cast<std::uint64_t>(run);

        // Multiplexing: each pair alone, best rate independently.
        double best1 = 0.0, best2 = 0.0;
        for (const auto& rate : rates) {
            best1 = std::max(best1, mac::run_single_pair(
                                        bed.radio, gains.s1_r1, rate,
                                        duration_us, config.payload_bytes,
                                        run_seed ^ 0x111));
            best2 = std::max(best2, mac::run_single_pair(
                                        bed.radio, gains.s2_r2, rate,
                                        duration_us, config.payload_bytes,
                                        run_seed ^ 0x222));
        }
        r.mux_pps = 0.5 * (best1 + best2);

        // Concurrency and carrier sense: joint runs across the rate sweep,
        // each transmitter's best rate identified independently (§4). The
        // 6 Mb/s totals are the §5 base-rate strategies.
        for (const auto mode :
             {mac::cs_mode::disabled, mac::cs_mode::energy_and_preamble}) {
            double best_p1 = 0.0, best_p2 = 0.0;
            double base_total = 0.0;
            for (const auto& rate : rates) {
                const auto joint = mac::run_two_pair_competition(
                    bed.radio, gains, rate, rate, mode, duration_us,
                    config.payload_bytes, run_seed ^ 0x333);
                if (rate.mbps == base_rate.mbps) base_total = joint.total_pps();
                best_p1 = std::max(best_p1, joint.pps_pair1);
                best_p2 = std::max(best_p2, joint.pps_pair2);
            }
            if (mode == mac::cs_mode::disabled) {
                r.conc_pair1 = best_p1;
                r.conc_pair2 = best_p2;
                r.conc_pps = best_p1 + best_p2;
                r.conc_base_pps = base_total;
            } else {
                r.cs_pair1 = best_p1;
                r.cs_pair2 = best_p2;
                r.cs_pps = best_p1 + best_p2;
                r.cs_base_pps = base_total;
            }
        }
        return r;
    });

    for (const auto& r : result.runs) {
        result.avg_mux += r.mux_pps;
        result.avg_conc += r.conc_pps;
        result.avg_cs += r.cs_pps;
        result.avg_optimal += r.optimal_pps();
    }
    const auto n = static_cast<double>(result.runs.size());
    result.avg_mux /= n;
    result.avg_conc /= n;
    result.avg_cs /= n;
    result.avg_optimal /= n;
    return result;
}

exposed_gain_result exposed_gains(const experiment_result& ensemble) {
    exposed_gain_result gains;
    for (const auto& r : ensemble.runs) {
        gains.base_cs += r.cs_base_pps;
        gains.base_exposed += std::max(r.cs_base_pps, r.conc_base_pps);
        gains.adapted_cs += r.cs_pps;
        gains.adapted_exposed += std::max(r.cs_pps, r.conc_pps);
    }
    const auto n = static_cast<double>(ensemble.runs.size());
    gains.base_cs /= n;
    gains.base_exposed /= n;
    gains.adapted_cs /= n;
    gains.adapted_exposed /= n;
    return gains;
}

}  // namespace csense::testbed
