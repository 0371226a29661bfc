// Determinism regression for the csense_bench runner: the same scenario
// with the same --seed must produce byte-identical JSON (--no-timings
// strips the only intentionally non-deterministic fields), and a
// different seed must actually reach the stats/rng seeding path and move
// the Monte Carlo metrics. fig05_cs_piecewise is used because its
// "opt_at_3rmax_norm" metric carries the U-statistic Monte Carlo term.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "src/report/json.hpp"

namespace {

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

int run_bench_in(const std::string& workdir, const std::string& filter,
                 const std::string& json_path, unsigned seed,
                 int threads = 0, const std::string& extra_env = "") {
    std::string command =
        "cd \"" + workdir + "\" && CSENSE_FAST=1 " + extra_env + " \"" +
        CSENSE_BENCH_BINARY + "\" --filter " + filter + " --seed " +
        std::to_string(seed) + " --no-timings --json \"" + json_path + "\"";
    if (threads > 0) command += " --threads " + std::to_string(threads);
    command += " > /dev/null";
    return std::system(command.c_str());
}

int run_bench(const std::string& json_path, unsigned seed) {
    return run_bench_in(".", "fig05_cs_piecewise", json_path, seed);
}

TEST(BenchDeterminism, SameSeedByteIdenticalJson) {
    const std::string dir = ::testing::TempDir();
    const std::string a = dir + "csense_bench_det_a.json";
    const std::string b = dir + "csense_bench_det_b.json";
    ASSERT_EQ(run_bench(a, 1234), 0);
    ASSERT_EQ(run_bench(b, 1234), 0);
    const std::string json_a = read_file(a);
    const std::string json_b = read_file(b);
    ASSERT_FALSE(json_a.empty());
    EXPECT_EQ(json_a, json_b)
        << "same scenario + same seed must serialise identically";
}

/// One scenario's "metrics" object from a bench document, compact; empty
/// when the document or the scenario is missing.
std::string scenario_metrics(const std::string& json_path,
                             const std::string& name) {
    const auto doc = csense::report::json_value::parse(read_file(json_path));
    const auto* list = doc ? doc->find("scenarios") : nullptr;
    for (std::size_t i = 0; list != nullptr && i < list->size(); ++i) {
        const auto* entry_name = list->at(i).find("name");
        const auto* metrics = list->at(i).find("metrics");
        if (entry_name != nullptr && metrics != nullptr &&
            entry_name->to_string_value() == name) {
            return metrics->dump(0);
        }
    }
    return "";
}

TEST(BenchDeterminism, TestbedViewsShareOneEnsembleAndWriteNothing) {
    // fig10, tab03 and tab05 view the short-range ensemble: one process
    // simulates it once, every view reads the same runs, and the run
    // leaves its working directory untouched. Each view must report what
    // it reports when run alone.
    const std::filesystem::path base =
        std::filesystem::path(::testing::TempDir()) / "csense_testbed_views";
    std::filesystem::remove_all(base);
    const auto work = base / "work";
    std::filesystem::create_directories(work);
    const std::string joint = (base / "joint.json").string();
    const std::string log = (base / "joint.log").string();
    ASSERT_EQ(std::system(("cd \"" + work.string() + "\" && CSENSE_FAST=1 \"" +
                           CSENSE_BENCH_BINARY +
                           "\" --filter fig10_short_scatter,"
                           "tab03_short_summary,tab05_exposed_gain --seed 7 "
                           "--no-timings --json \"" + joint + "\" > \"" +
                           log + "\"")
                              .c_str()),
              0);
    EXPECT_TRUE(std::filesystem::is_empty(work))
        << "the testbed views must not write to the working directory";
    const std::string output = read_file(log);
    const auto first = output.find("(simulating");
    ASSERT_NE(first, std::string::npos);
    EXPECT_EQ(output.find("(simulating", first + 1), std::string::npos)
        << "the short-range ensemble must be simulated once per process";

    for (const std::string name : {"tab03_short_summary",
                                   "tab05_exposed_gain"}) {
        const std::string alone = (base / (name + ".json")).string();
        ASSERT_EQ(run_bench_in(work.string(), name, alone, 7), 0);
        const std::string shared = scenario_metrics(joint, name);
        EXPECT_GT(shared.size(), 2u) << name << ": no metrics recorded";
        EXPECT_EQ(shared, scenario_metrics(alone, name))
            << name << ": a view must not depend on which view simulated "
               "its ensemble";
    }
    EXPECT_TRUE(std::filesystem::is_empty(work));
}

TEST(BenchDeterminism, ThreadCountInvariantJson) {
    // The deterministic parallel engine (src/core/parallel.hpp) must
    // make --threads purely a wall-clock knob: 1 vs 4 workers produce
    // byte-identical JSON. fig07 drives the quadrature + threshold-sweep
    // hot path end to end; fig05 adds the Monte Carlo U-statistic term;
    // camp01 drives the campaign layer (src/sim/campaign.hpp) sharding
    // whole packet-level simulations across workers; camp03 adds the
    // per-node adaptive-CS controllers, whose dither streams are keyed
    // by node index and must not depend on shard scheduling; camp06
    // drives the unsaturated-traffic path (per-node Poisson arrival
    // streams, FIFO queues, streaming-quantile latency merges, ARF),
    // whose arrival RNGs are split per node and whose quantile merges
    // run in pair-index order - neither may depend on thread count;
    // tab03 and tab05 run the §4 testbed experiment, whose pair-of-pairs
    // runs shard over the campaign layer.
    for (const char* filter : {"fig07_optimal_threshold",
                               "fig05_cs_piecewise",
                               "camp01_cumulative_interference",
                               "camp03_adaptive_convergence",
                               "camp06_unsaturated_load",
                               "tab03_short_summary,tab05_exposed_gain"}) {
        const std::filesystem::path base =
            std::filesystem::path(::testing::TempDir()) /
            (std::string("csense_threads_") + filter);
        std::filesystem::remove_all(base);
        std::filesystem::create_directories(base);
        const std::string t1 = (base / "t1.json").string();
        const std::string t4 = (base / "t4.json").string();
        ASSERT_EQ(run_bench_in(base.string(), filter, t1, 1, /*threads=*/1),
                  0);
        ASSERT_EQ(run_bench_in(base.string(), filter, t4, 1, /*threads=*/4),
                  0);
        const std::string json_t1 = read_file(t1);
        ASSERT_FALSE(json_t1.empty());
        EXPECT_EQ(json_t1, read_file(t4))
            << filter << ": --threads must never change the output";
    }
}

TEST(BenchDeterminism, DenseCampaignThreadInvariantJson) {
    // camp05 runs the neighbor-culled medium (audibility CSR + the
    // incremental Kahan power accounting) at scale; its replications
    // shard over the campaign layer, so --threads must stay a pure
    // wall-clock knob there too. The sweep is capped at N = 500 (the
    // same cap the CI heavy-tier smoke uses) to keep the test quick.
    const std::filesystem::path base =
        std::filesystem::path(::testing::TempDir()) / "csense_camp05_threads";
    std::filesystem::remove_all(base);
    const auto work1 = base / "t1";
    const auto work4 = base / "t4";
    std::filesystem::create_directories(work1);
    std::filesystem::create_directories(work4);
    const std::string t1 = (base / "t1.json").string();
    const std::string t4 = (base / "t4.json").string();
    ASSERT_EQ(run_bench_in(work1.string(), "camp05_dense_network", t1, 1,
                           /*threads=*/1, "CSENSE_CAMP05_NMAX=500"),
              0);
    ASSERT_EQ(run_bench_in(work4.string(), "camp05_dense_network", t4, 1,
                           /*threads=*/4, "CSENSE_CAMP05_NMAX=500"),
              0);
    const std::string json_t1 = read_file(t1);
    ASSERT_FALSE(json_t1.empty());
    EXPECT_EQ(json_t1, read_file(t4))
        << "camp05: --threads must never change the output";
}

TEST(BenchDeterminism, RepeatRecordsWallTimeStatsAndKeepsMetrics) {
    // --repeat N reruns each scenario and records per-scenario wall-time
    // stats next to the metrics; --no-timings must keep stripping every
    // wall-clock field so repeated runs stay byte-comparable.
    const std::string dir = ::testing::TempDir();
    const std::string timed = dir + "csense_repeat_timed.json";
    const std::string bare_a = dir + "csense_repeat_bare_a.json";
    const std::string bare_b = dir + "csense_repeat_bare_b.json";
    ASSERT_EQ(std::system((std::string("CSENSE_FAST=1 \"") +
                           CSENSE_BENCH_BINARY +
                           "\" --filter x01_shadowing_example --seed 3 "
                           "--repeat 2 --json \"" +
                           timed + "\" > /dev/null")
                              .c_str()),
              0);
    const std::string timed_json = read_file(timed);
    ASSERT_FALSE(timed_json.empty());
    EXPECT_NE(timed_json.find("\"repeat\": 2"), std::string::npos);
    EXPECT_NE(timed_json.find("elapsed_ms_mean"), std::string::npos);
    EXPECT_NE(timed_json.find("elapsed_ms_min"), std::string::npos);
    EXPECT_NE(timed_json.find("elapsed_ms_max"), std::string::npos);

    ASSERT_EQ(run_bench_in(".", "x01_shadowing_example", bare_a, 3), 0);
    std::string repeated =
        std::string("CSENSE_FAST=1 \"") + CSENSE_BENCH_BINARY +
        "\" --filter x01_shadowing_example --seed 3 --repeat 2 "
        "--no-timings --json \"" + bare_b + "\" > /dev/null";
    ASSERT_EQ(std::system(repeated.c_str()), 0);
    std::string json_a = read_file(bare_a);
    std::string json_b = read_file(bare_b);
    // The only legitimate difference is the "repeat" header field.
    const auto strip_repeat = [](std::string& text) {
        const auto pos = text.find("\"repeat\"");
        ASSERT_NE(pos, std::string::npos);
        text.erase(pos, text.find('\n', pos) - pos);
    };
    strip_repeat(json_a);
    strip_repeat(json_b);
    EXPECT_EQ(json_a, json_b)
        << "--repeat with --no-timings must reproduce the single-run "
           "document (metrics identical, no wall-clock fields)";
}

TEST(BenchDeterminism, FilterAcceptsCommaSeparatedGlobList) {
    // --filter 'a,b' selects the union of the globs - the mechanism the
    // BENCH_pr5.json baseline uses to cover perf_micro and camp05 in
    // one document.
    const std::string list = ::testing::TempDir() + "csense_multi_list.txt";
    ASSERT_EQ(std::system((std::string("\"") + CSENSE_BENCH_BINARY +
                           "\" --list --filter 'x01*,fn12*' > \"" + list +
                           "\"")
                              .c_str()),
              0);
    const std::string text = read_file(list);
    EXPECT_NE(text.find("x01_shadowing_example"), std::string::npos);
    EXPECT_NE(text.find("fn12_slope_bound"), std::string::npos);
    EXPECT_NE(text.find("(2 scenarios)"), std::string::npos) << text;
}

TEST(BenchDeterminism, MarkdownCatalogIsStableAndComplete) {
    // docs/scenarios.md is generated from --list-markdown (the
    // docs_scenarios CMake target); two invocations must be
    // byte-identical, and every scenario --list knows about must appear
    // as a table row, or the checked-in catalog could silently go stale.
    const std::string dir = ::testing::TempDir();
    const std::string a = dir + "csense_catalog_a.md";
    const std::string b = dir + "csense_catalog_b.md";
    const std::string list = dir + "csense_list.txt";
    ASSERT_EQ(std::system((std::string("\"") + CSENSE_BENCH_BINARY +
                           "\" --list-markdown > \"" + a + "\"")
                              .c_str()),
              0);
    ASSERT_EQ(std::system((std::string("\"") + CSENSE_BENCH_BINARY +
                           "\" --list-markdown > \"" + b + "\"")
                              .c_str()),
              0);
    const std::string catalog = read_file(a);
    ASSERT_FALSE(catalog.empty());
    EXPECT_EQ(catalog, read_file(b)) << "--list-markdown must be stable";

    ASSERT_EQ(std::system((std::string("\"") + CSENSE_BENCH_BINARY +
                           "\" --list > \"" + list + "\"")
                              .c_str()),
              0);
    std::istringstream lines(read_file(list));
    std::string line;
    int scenarios = 0;
    while (std::getline(lines, line)) {
        if (line.empty() || line[0] == '(') continue;
        const std::string name = line.substr(0, line.find(' '));
        ++scenarios;
        EXPECT_NE(catalog.find("| `" + name + "` |"), std::string::npos)
            << "scenario missing from the markdown catalog: " << name;
    }
    EXPECT_GE(scenarios, 33);
}

TEST(BenchDeterminism, DifferentSeedChangesMonteCarloMetrics) {
    const std::string dir = ::testing::TempDir();
    const std::string a = dir + "csense_bench_det_s1.json";
    const std::string b = dir + "csense_bench_det_s2.json";
    ASSERT_EQ(run_bench(a, 1), 0);
    ASSERT_EQ(run_bench(b, 2), 0);
    std::string json_a = read_file(a);
    std::string json_b = read_file(b);
    ASSERT_FALSE(json_a.empty());
    ASSERT_FALSE(json_b.empty());
    // The documents differ in the "seed" field by construction; strip it
    // so the comparison only sees scenario output.
    const auto strip_seed = [](std::string& text) {
        const auto pos = text.find("\"seed\"");
        ASSERT_NE(pos, std::string::npos);
        text.erase(pos, text.find('\n', pos) - pos);
    };
    strip_seed(json_a);
    strip_seed(json_b);
    EXPECT_NE(json_a, json_b)
        << "--seed must reach the rng path and perturb Monte Carlo metrics";
}

}  // namespace
