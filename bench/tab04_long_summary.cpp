// §4.2 summary table (long range):
//   Optimal (max over strategies): 1029 pkt/s
//   Carrier Sense: 923 pkt/s (90% opt)
//   Multiplexing:  753 pkt/s (73% opt)
//   Concurrency:   709 pkt/s (69% opt)
#include "bench/testbed_common.hpp"

using namespace csense;

CSENSE_SCENARIO_EX(tab04_long_summary,
                "Table 4: long-range ensemble averages per strategy",
                   bench::runtime_tier::slow,
                   "views the long-range testbed ensemble (shared with "
                   "fig12 and fig13), simulated once per process") {
    bench::print_header("Table 4 (S4.2) - long range ensemble averages",
                        "average throughput over all runs; ratios are the "
                        "reproduction target");
    const auto& data = bench::dataset(ctx, /*short_range=*/false);
    bench::print_summary(data, "long range", 1029, 90, 73, 69);
    bench::record_summary(ctx, data);
    std::printf("\nPaper: 'Although carrier sense in the long-range here is "
                "not quite as close to optimal as it was in the short-range "
                "..., it is still quite good overall and significantly "
                "better than either pure multiplexing or pure concurrency.'\n");
    return 0;
}
