// Figure 10: short-range competitive comparison - per-run multiplexing
// and concurrency totals plotted against the same run's carrier-sense
// total (CS on the identity line). Points at or below the identity line
// mean CS is not beaten.
#include <cstdio>

#include "bench/testbed_common.hpp"
#include "src/report/ascii_plot.hpp"

using namespace csense;

CSENSE_SCENARIO_EX(fig10_short_scatter,
                "Figure 10: short-range competitive comparison vs carrier "
                "sense",
                   bench::runtime_tier::slow,
                   "views the short-range testbed ensemble (shared with "
                   "fig11, tab03 and tab05), simulated once per process") {
    bench::print_header("Figure 10 - short range competitive comparison vs CS",
                        "pairs with >= 94% delivery at 6 Mb/s; mux and conc "
                        "totals vs the CS total per run");
    const auto& data = bench::dataset(ctx, /*short_range=*/true);

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

    int beaten = 0;
    double worst = 1.0;
    for (const auto& r : data.runs) {
        const double best = r.optimal_pps();
        if (r.cs_pps < 0.95 * best) ++beaten;
        worst = std::min(worst, r.cs_pps / best);
    }
    std::printf("\nCS beaten by > 5%% in %d of %zu runs (worst run: %.0f%% of "
                "optimal).\nPaper: 'carrier sense is quite infrequently "
                "bested by multiplexing or concurrency ... the gains are not "
                "especially compelling.'\n",
                beaten, data.runs.size(), 100.0 * worst);
    ctx.metric("runs", static_cast<std::int64_t>(data.runs.size()));
    ctx.metric("cs_beaten_runs", beaten);
    ctx.metric("worst_cs_fraction", worst);
    ctx.metric("avg_cs_pps", data.avg_cs);
    return 0;
}
