// Shared testbed-experiment driver for the §4/§5 views (Figures 10-13,
// Tables 3-5). The short- and long-range ensembles are expensive, and
// several views read the same one: fig10, fig11, tab03 and tab05 view
// the short-range ensemble, fig12, fig13 and tab04 the long-range one.
// Each ensemble is simulated once per csense_bench process and shared
// in memory; nothing is written to disk (--checkpoint stores every
// view's scenario record for reuse across processes).
#pragma once

#include <cstdio>
#include <map>
#include <string>
#include <utility>

#include "bench/common.hpp"
#include "src/testbed/experiment.hpp"

namespace csense::bench {

inline testbed::experiment_config bench_config(const scenario_context& ctx,
                                               bool short_range) {
    auto cfg = short_range ? testbed::short_range_config()
                           : testbed::long_range_config();
    cfg.seed = ctx.seed;
    cfg.threads = ctx.threads;  // wall-clock only; results are invariant
    if (fast_mode()) {
        cfg.runs = 6;
        cfg.duration_s = 1.0;
    } else {
        cfg.runs = 40;
        cfg.duration_s = 15.0;  // the thesis' run length
    }
    return cfg;
}

/// The ensemble for one category, simulated at most once per process
/// into the driver's map (scenario_context::ensembles), so every view
/// of it reads the same runs. An entry is inserted only after
/// run_experiment returns: a view cancelled by its watchdog, or one
/// that throws, leaves no partial ensemble for the next view.
inline const testbed::experiment_result& dataset(const scenario_context& ctx,
                                                 bool short_range) {
    auto& ensembles = *ctx.ensembles;
    const std::string key = short_range ? "short" : "long";
    if (const auto it = ensembles.find(key); it != ensembles.end()) {
        return it->second;
    }
    const auto cfg = bench_config(ctx, short_range);
    std::printf("(simulating %d runs x %.0f s x 20 measurements ...)\n",
                cfg.runs, cfg.duration_s);
    auto result = testbed::run_experiment(testbed::make_default_testbed(), cfg);
    return ensembles.emplace(key, std::move(result)).first->second;
}

/// Record the ensemble averages as scenario metrics.
inline void record_summary(scenario_context& ctx,
                           const testbed::experiment_result& result) {
    ctx.metric("runs", static_cast<std::int64_t>(result.runs.size()));
    ctx.metric("avg_optimal_pps", result.avg_optimal);
    ctx.metric("avg_cs_pps", result.avg_cs);
    ctx.metric("avg_mux_pps", result.avg_mux);
    ctx.metric("avg_conc_pps", result.avg_conc);
    ctx.metric("cs_fraction", result.cs_fraction());
    ctx.metric("mux_fraction", result.mux_fraction());
    ctx.metric("conc_fraction", result.conc_fraction());
}

/// Print the §4 summary block (the Tables 3/4 format).
inline void print_summary(const testbed::experiment_result& result,
                          const char* label, double paper_opt,
                          double paper_cs, double paper_mux,
                          double paper_conc) {
    std::printf("\n%s ensemble (%zu runs, category mean SNR %.1f dB):\n",
                label, result.runs.size(), result.category_snr_db);
    std::printf("  %-28s measured        paper\n", "");
    std::printf("  Optimal (max over strategies) %6.0f pkt/s   %4.0f pkt/s\n",
                result.avg_optimal, paper_opt);
    std::printf("  Carrier Sense                 %6.0f (%3.0f%%)  (%2.0f%%)\n",
                result.avg_cs, 100.0 * result.cs_fraction(), paper_cs);
    std::printf("  Multiplexing                  %6.0f (%3.0f%%)  (%2.0f%%)\n",
                result.avg_mux, 100.0 * result.mux_fraction(), paper_mux);
    std::printf("  Concurrency                   %6.0f (%3.0f%%)  (%2.0f%%)\n",
                result.avg_conc, 100.0 * result.conc_fraction(), paper_conc);
}

}  // namespace csense::bench
