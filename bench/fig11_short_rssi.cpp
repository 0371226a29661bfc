// Figure 11: short-range throughput versus sender-sender RSSI - the
// three-region structure (close: CS = mux; transition; far: CS = conc,
// mux lags by ~2x).
#include <cstdio>

#include "bench/testbed_common.hpp"
#include "src/report/ascii_plot.hpp"

using namespace csense;

CSENSE_SCENARIO_EX(fig11_short_rssi,
                "Figure 11: short-range throughput vs sender-sender RSSI",
                   bench::runtime_tier::slow,
                   "views the short-range testbed ensemble (shared with "
                   "fig10, tab03 and tab05), simulated once per process") {
    bench::print_header("Figure 11 - short range throughput vs sender RSSI",
                        "same dataset as Figure 10, plotted against the "
                        "metric carrier sense actually thresholds on");
    const auto& data = bench::dataset(ctx, /*short_range=*/true);

    std::printf("\n%10s %10s %10s %10s\n", "rssi dB", "mux", "conc", "CS");
    report::series s_mux{"multiplexing", {}, {}, 'm'};
    report::series s_conc{"concurrency", {}, {}, 'c'};
    report::series s_cs{"carrier sense", {}, {}, 'S'};
    for (const auto& r : data.runs) {
        std::printf("%10.1f %10.0f %10.0f %10.0f\n", r.sender_rssi_db,
                    r.mux_pps, r.conc_pps, r.cs_pps);
        // The paper plots RSSI decreasing to the right; negate x.
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

    // Quantify the three regions like the paper's reading of the figure.
    double close_cs = 0, close_mux = 0, far_cs = 0, far_mux = 0, far_conc = 0;
    int n_close = 0, n_far = 0;
    for (const auto& r : data.runs) {
        if (r.sender_rssi_db > 20.0) {
            close_cs += r.cs_pps;
            close_mux += r.mux_pps;
            ++n_close;
        } else if (r.sender_rssi_db < 5.0) {
            far_cs += r.cs_pps;
            far_mux += r.mux_pps;
            far_conc += r.conc_pps;
            ++n_far;
        }
    }
    if (n_close > 0) {
        std::printf("\nclose region (RSSI > 20 dB, %d runs): CS/mux = %.2f "
                    "(paper: coincide)\n",
                    n_close, close_cs / close_mux);
        ctx.metric("close_runs", n_close);
        ctx.metric("close_cs_over_mux", close_cs / close_mux);
    }
    if (n_far > 0) {
        std::printf("far region (RSSI < 5 dB, %d runs): CS/conc = %.2f "
                    "(coincide), conc/mux = %.2f (approaching 2)\n",
                    n_far, far_cs / far_conc, far_conc / far_mux);
        ctx.metric("far_runs", n_far);
        ctx.metric("far_cs_over_conc", far_cs / far_conc);
        ctx.metric("far_conc_over_mux", far_conc / far_mux);
    }
    return 0;
}
