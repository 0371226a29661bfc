// §4.1 summary table (short range):
//   Optimal (max over strategies): 1753 pkt/s
//   Carrier Sense: 1703 pkt/s (97% opt)
//   Multiplexing:  1013 pkt/s (58% opt)
//   Concurrency:   1563 pkt/s (89% opt)
#include "bench/testbed_common.hpp"

using namespace csense;

CSENSE_SCENARIO_EX(tab03_short_summary,
                "Table 3: short-range ensemble averages per strategy",
                   bench::runtime_tier::slow,
                   "views the short-range testbed ensemble (shared with "
                   "fig10, fig11 and tab05), simulated once per process") {
    bench::print_header("Table 3 (S4.1) - short range ensemble averages",
                        "average throughput over all runs; paper's absolute "
                        "pkt/s depend on their hardware, the ratios are the "
                        "reproduction target");
    const auto& data = bench::dataset(ctx, /*short_range=*/true);
    bench::print_summary(data, "short range", 1753, 97, 58, 89);
    bench::record_summary(ctx, data);
    std::printf("\nPaper: 'Carrier sense approaches the optimal strategy "
                "quite closely, consistent with theoretical predictions for "
                "very good behavior in the short-range case.'\n");
    return 0;
}
