#include "driver/workloads.hpp"

#include <cmath>

#include "src/capacity/rate_table.hpp"
#include "src/core/threshold.hpp"
#include "src/stats/kahan.hpp"

namespace perfbench {

using namespace csense;

namespace {

// Simulated time per run. Shorter than the campaigns' 0.2 s so that a
// run holds enough replications for a replication-time tail; long
// enough that contention settles well past the start-up transient.
constexpr double dense_duration_us = 5e4;
constexpr double unsaturated_duration_us = 1e5;
constexpr double exact_duration_us = 1e5;

/// camp05's environment: 6 Mb/s saturated broadcast, urban alpha 4,
/// neighbor-culled medium with the floor 20 dB under the noise.
mac::multi_pair_config dense_base() {
    mac::multi_pair_config c;
    c.rate = &capacity::rate_by_mbps(6.0);
    c.alpha = 4.0;
    c.radio.audibility_floor_dbm = c.radio.noise_floor_dbm - 20.0;
    c.duration_us = dense_duration_us;
    return c;
}

std::vector<workload> build_workloads() {
    std::vector<workload> all;

    // camp05's tuned row at N = 1000: the medium's CCA fan-out and the
    // calendar queue do most of the work.
    workload tuned{"dense_tuned", 1000, 600.0, 10.0,
                   0xca4905ULL + 1000ULL * 1000, true, true,
                   {dense_base()}, 4, 194500.0, 3000.0};
    all.push_back(tuned);

    // camp05's adaptive row: same topologies and seeds, fixed-point
    // controllers from the 12 dB-deaf -70 dBm start, 20 ms epochs.
    auto adaptive_cfg = dense_base();
    adaptive_cfg.radio.cs_threshold_dbm = -70.0;
    adaptive_cfg.adapt.policy = mac::cs_adapt_policy::iterative_fixed_point;
    adaptive_cfg.adapt.epoch_us = 20'000.0;
    workload adaptive{"dense_adaptive", 1000, 600.0, 10.0,
                      0xca4905ULL + 1000ULL * 1000, true, false,
                      {adaptive_cfg}, 3, 208500.0, 4000.0};
    all.push_back(adaptive);

    // camp06 at N = 50: Poisson unicast through 32-deep FIFOs with ARF,
    // over the load x threshold grid. Heap backend; a light medium.
    workload unsat{"unsaturated_unicast", 50, 300.0, 10.0,
                   0xca4906ULL + 1000ULL * 50, false, false,
                   {}, 12, 12750.0, 950.0};
    for (const double load : {100.0, 400.0, 1600.0}) {
        for (const double thr : {-95.0, -82.0, -70.0}) {
            mac::multi_pair_config c;
            c.rate = &capacity::rate_by_mbps(24.0);
            c.alpha = 4.0;
            c.radio.audibility_floor_dbm = c.radio.noise_floor_dbm - 20.0;
            c.radio.cs_threshold_dbm = thr;
            c.unicast = true;
            c.rate_adapt = mac::rate_adapt_mode::arf;
            c.traffic.model = mac::traffic_model::poisson;
            c.traffic.queue_capacity = 32;
            c.traffic.offered_load_pps = load;
            c.duration_us = unsaturated_duration_us;
            unsat.cells.push_back(c);
        }
    }
    all.push_back(unsat);

    // camp01 at N = 20: the exact (dense-path) medium, CS on and off.
    workload exact{"exact_small", 20, 120.0, 25.0,
                   0xca4901ULL + 1000ULL * 20, false, false,
                   {}, 32, 1540.0, 350.0};
    for (const auto sense :
         {mac::cs_mode::disabled, mac::cs_mode::energy_and_preamble}) {
        mac::multi_pair_config c;
        c.rate = &capacity::rate_by_mbps(6.0);
        c.sense = sense;
        c.duration_us = exact_duration_us;
        exact.cells.push_back(c);
    }
    all.push_back(exact);
    return all;
}

}  // namespace

const std::vector<workload>& workloads() {
    static const std::vector<workload> all = build_workloads();
    return all;
}

const workload* find_workload(std::string_view name) {
    for (const auto& w : workloads()) {
        if (name == w.name) return &w;
    }
    return nullptr;
}

double solve_tuned_threshold_dbm(const workload& w, std::uint64_t seed) {
    const auto& base = w.cells.front();
    core::model_params params;
    params.alpha = base.alpha;
    params.sigma_db = 0.0;
    params.noise_db = base.radio.noise_floor_dbm -
                      (base.radio.tx_power_dbm - base.reference_loss_db);
    core::quadrature_options quad;
    quad.radial_nodes = 32;
    quad.angular_nodes = 48;
    quad.shadow_nodes = 8;
    core::mc_options mc;
    mc.seed = seed;
    mc.threads = 1;
    const core::expectation_engine engine(params, quad, mc);
    return base.threshold_dbm_for_distance(
        core::optimal_threshold(engine, w.rmax_m).d_thresh);
}

double mean_threshold_dbm(const std::vector<double>& thresholds,
                          double fallback) {
    if (thresholds.empty()) return fallback;
    stats::kahan_sum sum;
    for (const double t : thresholds) sum.add(t);
    return sum.value() / static_cast<double>(thresholds.size());
}

run_summary summarize(const mac::multi_pair_result& result,
                      const mac::multi_pair_config& config) {
    run_summary s{};
    s[f_total_pps] = result.total_pps;
    s[f_transmissions] = static_cast<double>(result.counters.transmissions);
    s[f_slot_collisions] =
        static_cast<double>(result.counters.slot_collisions);
    s[f_chain_collisions] =
        static_cast<double>(result.counters.chain_collisions);
    s[f_busy_starts] = static_cast<double>(result.counters.busy_starts);
    s[f_drop_rate] = result.drop_rate;
    s[f_p50_us] = result.sojourn_us.quantile(0.5);
    s[f_p99_us] = result.sojourn_us.quantile(0.99);
    s[f_final_thr_dbm] = mean_threshold_dbm(result.final_cs_threshold_dbm,
                                            config.radio.cs_threshold_dbm);
    return s;
}

bool summary_valid(const run_summary& s) {
    const double tx = s[f_transmissions];
    const double busy_rate = tx > 0.0 ? s[f_busy_starts] / tx : -1.0;
    return s[f_total_pps] >= 0.0 && busy_rate >= 0.0 && busy_rate <= 1.0 &&
           s[f_drop_rate] >= 0.0 && s[f_drop_rate] <= 1.0 &&
           s[f_p50_us] > 0.0 && s[f_p99_us] >= s[f_p50_us];
}

}  // namespace perfbench
