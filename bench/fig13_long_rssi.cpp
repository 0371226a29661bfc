// Figure 13: long-range throughput versus sender-sender RSSI. The same
// three regions as Figure 11, but with the transition shifted several dB
// lower (the paper: just shy of 10 dB vs ~15 dB short-range) and the
// transition mistakes being mainly undesirable concurrency.
#include <cstdio>

#include "bench/testbed_common.hpp"
#include "src/report/ascii_plot.hpp"

using namespace csense;

CSENSE_SCENARIO_EX(fig13_long_rssi,
                "Figure 13: long-range throughput vs sender-sender RSSI",
                   bench::runtime_tier::slow,
                   "views the long-range testbed ensemble (shared with "
                   "fig12 and tab04), simulated once per process") {
    bench::print_header("Figure 13 - long range throughput vs sender RSSI",
                        "transition sits lower than short range and consists "
                        "mainly of hidden-terminal-style concurrency");
    const auto& data = bench::dataset(ctx, /*short_range=*/false);

    std::printf("\n%10s %10s %10s %10s\n", "rssi dB", "mux", "conc", "CS");
    report::series s_mux{"multiplexing", {}, {}, 'm'};
    report::series s_conc{"concurrency", {}, {}, 'c'};
    report::series s_cs{"carrier sense", {}, {}, 'S'};
    for (const auto& r : data.runs) {
        std::printf("%10.1f %10.0f %10.0f %10.0f\n", r.sender_rssi_db,
                    r.mux_pps, r.conc_pps, r.cs_pps);
        s_mux.x.push_back(-r.sender_rssi_db);
        s_mux.y.push_back(r.mux_pps);
        s_conc.x.push_back(-r.sender_rssi_db);
        s_conc.y.push_back(r.conc_pps);
        s_cs.x.push_back(-r.sender_rssi_db);
        s_cs.y.push_back(r.cs_pps);
    }
    report::plot_options opts;
    opts.x_label = "-(sender-sender RSSI dB): close pairs left, far right";
    opts.y_label = "throughput (pkt/s)";
    std::printf("%s", report::render_chart({s_mux, s_conc, s_cs}, opts).c_str());

    // Transition mistakes: count undesirable concurrency (mux clearly
    // better but CS stayed concurrent) vs undesirable multiplexing.
    int undesirable_conc = 0, undesirable_mux = 0;
    for (const auto& r : data.runs) {
        if (r.mux_pps > 1.2 * r.conc_pps && r.cs_pps < 0.9 * r.mux_pps) {
            ++undesirable_conc;
        }
        if (r.conc_pps > 1.2 * r.mux_pps && r.cs_pps < 0.9 * r.conc_pps) {
            ++undesirable_mux;
        }
    }
    std::printf("\nmistake mix: %d undesirable-concurrency runs (hidden "
                "terminals) vs %d undesirable-multiplexing runs; the paper "
                "predicts the former dominates for a threshold tuned to the "
                "average case rather than long range.\n",
                undesirable_conc, undesirable_mux);
    ctx.metric("undesirable_concurrency_runs", undesirable_conc);
    ctx.metric("undesirable_multiplexing_runs", undesirable_mux);
    ctx.metric("avg_cs_pps", data.avg_cs);
    return 0;
}
