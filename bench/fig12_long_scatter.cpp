// Figure 12: long-range competitive comparison versus CS (pairs with
// 80-95% delivery at 6 Mb/s). Transition-region concurrency crashes pile
// up on the left of the plot, muddling the regions (as the paper notes).
#include <cstdio>

#include "bench/testbed_common.hpp"
#include "src/report/ascii_plot.hpp"

using namespace csense;

CSENSE_SCENARIO_EX(fig12_long_scatter,
                "Figure 12: long-range competitive comparison vs carrier "
                "sense",
                   bench::runtime_tier::slow,
                   "views the long-range testbed ensemble (shared with "
                   "fig13 and tab04), simulated once per process") {
    bench::print_header("Figure 12 - long range competitive comparison vs CS",
                        "pairs with 80-95% delivery at 6 Mb/s");
    const auto& data = bench::dataset(ctx, /*short_range=*/false);

    std::printf("\n%10s %10s %10s %10s\n", "CS pkt/s", "mux", "conc", "rssi");
    report::series s_mux{"multiplexing", {}, {}, 'm'};
    report::series s_conc{"concurrency", {}, {}, 'c'};
    report::series s_id{"CS identity", {}, {}, '+'};
    for (const auto& r : data.runs) {
        std::printf("%10.0f %10.0f %10.0f %10.1f\n", r.cs_pps, r.mux_pps,
                    r.conc_pps, r.sender_rssi_db);
        s_mux.x.push_back(r.cs_pps);
        s_mux.y.push_back(r.mux_pps);
        s_conc.x.push_back(r.cs_pps);
        s_conc.y.push_back(r.conc_pps);
        s_id.x.push_back(r.cs_pps);
        s_id.y.push_back(r.cs_pps);
    }
    report::plot_options opts;
    opts.x_label = "CS throughput (pkt/s)";
    opts.y_label = "throughput (pkt/s)";
    std::printf("%s", report::render_chart({s_mux, s_conc, s_id}, opts).c_str());

    // The paper's "intermediate throughput" observation: CS in transition
    // runs sits between pure concurrency and pure multiplexing because the
    // CS decision flutters (and deferral can be asymmetric).
    int intermediate = 0, transition = 0;
    for (const auto& r : data.runs) {
        if (r.sender_rssi_db < 5.0 || r.sender_rssi_db > 15.0) continue;
        ++transition;
        const double lo = std::min(r.conc_pps, r.mux_pps);
        const double hi = std::max(r.conc_pps, r.mux_pps);
        if (r.cs_pps > lo + 0.1 * (hi - lo) && r.cs_pps < hi - 0.1 * (hi - lo)) {
            ++intermediate;
        }
    }
    std::printf("\ntransition runs (5-15 dB RSSI): %d, of which %d show CS "
                "intermediate between pure concurrency and multiplexing - "
                "the paper's 'fluttering' CS decisions.\n",
                transition, intermediate);
    ctx.metric("runs", static_cast<std::int64_t>(data.runs.size()));
    ctx.metric("transition_runs", transition);
    ctx.metric("intermediate_runs", intermediate);
    ctx.metric("avg_cs_pps", data.avg_cs);
    return 0;
}
