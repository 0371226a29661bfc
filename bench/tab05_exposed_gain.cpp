// §5's informal experiment on the short-range test set:
//  - bitrate adaptation over {6..24} "more than doubles average
//    throughput compared to the base rate";
//  - "perfectly exploiting the exposed terminals provides just shy of 10%
//    increased throughput";
//  - combining both "yields only about 3% more than bitrate adaptation
//    alone".
// The table views the short-range ensemble that Table 3 averages
// (testbed::exposed_gains): the 6 Mb/s strategies are the base-rate
// step of each run's rate sweep.
#include <cstdio>

#include "bench/testbed_common.hpp"

using namespace csense;

CSENSE_SCENARIO_EX(tab05_exposed_gain,
                "Table 5: exposed-terminal exploitation vs bitrate "
                "adaptation",
                   bench::runtime_tier::slow,
                   "views the short-range testbed ensemble (shared with "
                   "fig10, fig11 and tab03), simulated once per process") {
    bench::print_header("Table 5 (S5) - exposed terminals vs bitrate adaptation",
                        "short-range ensemble; 'exposed exploitation' = best "
                        "of CS / pure concurrency per run");
    const auto result =
        testbed::exposed_gains(bench::dataset(ctx, /*short_range=*/true));

    std::printf("\n%-44s %10s\n", "strategy", "pkt/s");
    std::printf("%-44s %10.0f\n", "6 Mb/s base rate + carrier sense",
                result.base_cs);
    std::printf("%-44s %10.0f\n", "6 Mb/s + perfect exposed exploitation",
                result.base_exposed);
    std::printf("%-44s %10.0f\n", "bitrate adaptation + carrier sense",
                result.adapted_cs);
    std::printf("%-44s %10.0f\n", "adaptation + perfect exposed exploitation",
                result.adapted_exposed);

    std::printf("\n%-44s measured   paper\n", "gain");
    std::printf("%-44s %6.2fx    >2x\n", "bitrate adaptation over base rate",
                result.adaptation_gain());
    std::printf("%-44s %+6.1f%%   ~+10%%\n",
                "exposed exploitation at base rate",
                100.0 * (result.exposed_gain_base() - 1.0));
    std::printf("%-44s %+6.1f%%   ~+3%%\n",
                "exposed exploitation on top of adaptation",
                100.0 * (result.exposed_gain_adapted() - 1.0));
    std::printf("\nPaper: 'unless nodes are widely separated or SNRs are "
                "extremely low, adaptive bitrate is strictly more efficient' "
                "than exploiting exposed terminals.\n");
    ctx.metric("base_cs_pps", result.base_cs);
    ctx.metric("adapted_cs_pps", result.adapted_cs);
    ctx.metric("adaptation_gain", result.adaptation_gain());
    ctx.metric("exposed_gain_base", result.exposed_gain_base());
    ctx.metric("exposed_gain_adapted", result.exposed_gain_adapted());
    return 0;
}
