// Golden-JSON regression for the saturated default: every saturated
// config must reproduce the pinned event sequence bit-for-bit. The
// committed golden document is generated with
//
//   CSENSE_FAST=1 csense_bench --filter 'camp01*,camp02*,tab05*'
//       --seed 7 --no-timings --json golden.json
//
// in a fresh working directory. The filter picks the deterministic
// packet-level scenarios that exercise the MAC end to end (multi-pair
// campaigns + the two-pair exposed-terminal table) without any
// wall-clock metrics (perf_micro's ms/iter numbers are machine noise by
// design).
//
// The document was first recorded by the binary from before traffic
// sources existed, which the traffic-source / per-node-queue refactor
// reproduced exactly; running the floor-less medium on the neighbor-list
// row passes left it untouched too. It was re-pinned twice since:
//  - for a deliberate behaviour fix: an energy-detect flip no longer
//    restarts a running DIFS (or counts a defer) at a node whose carrier
//    sense ignores energy. That moved only the CS-off and preamble-only
//    metrics (camp01 n*_sim_conc_pps and the model correlations built on
//    them, camp02 mode_disabled_* and mode_preamble_*, tab05
//    exposed_gain_adapted);
//  - when Table 5 stopped sampling its own pair-of-pairs and became a
//    view of the short-range §4 ensemble (testbed::exposed_gains): its
//    five metrics now average the runs Table 3 averages. That moved only
//    tab05's entry; camp01 and camp02 stayed byte-identical.
// If this test fails, the MAC changed the saturated event sequence - a
// regression, not a baseline to re-record casually.
//
// GoldenPacketScenarios pins the packet-level scenarios that document
// leaves out - camp03-camp06 (adaptive thresholds, the dense culled
// medium, unsaturated unicast with ARF) and the §4 testbed views
// fig10-fig13, tab03 and tab04 - in a second document, generated with
//
//   CSENSE_FAST=1 csense_bench
//       --filter 'camp03*,camp04*,camp05*,camp06*,fig10*,fig11*,fig12*,fig13*,tab03*,tab04*'
//       --seed 7 --no-timings --json golden.json
//
// in a fresh working directory. A failure there means the event
// sequence of one of those runs changed.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace {

std::string read_file(const std::filesystem::path& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/// Run csense_bench in fast mode at seed 7 on `filter`, in a fresh
/// directory `work_name` under the test temp dir, and return its JSON
/// without timings.
std::string run_fast_seed7(const std::string& work_name,
                           const std::string& filter) {
    const std::filesystem::path work =
        std::filesystem::path(::testing::TempDir()) / work_name;
    std::filesystem::remove_all(work);
    std::filesystem::create_directories(work);
    const std::filesystem::path out = work / "current.json";
    const std::string command =
        "cd \"" + work.string() + "\" && CSENSE_FAST=1 \"" +
        CSENSE_BENCH_BINARY + "\" --filter '" + filter +
        "' --seed 7 --no-timings --json \"" + out.string() +
        "\" > /dev/null";
    EXPECT_EQ(std::system(command.c_str()), 0);
    return read_file(out);
}

std::string read_golden(const std::string& name) {
    return read_file(std::filesystem::path(CSENSE_GOLDEN_DIR) / name);
}

TEST(GoldenSaturated, ByteIdenticalToPreRefactorBinary) {
    const std::string golden = read_golden("saturated_fast_seed7.json");
    ASSERT_FALSE(golden.empty())
        << "missing golden document saturated_fast_seed7.json";
    const std::string current =
        run_fast_seed7("csense_golden_sat", "camp01*,camp02*,tab05*");
    ASSERT_FALSE(current.empty());
    EXPECT_EQ(current, golden)
        << "saturated configs must stay byte-identical to the committed "
           "golden document";
}

TEST(GoldenPacketScenarios, ByteIdenticalAtSeed7) {
    const std::string golden =
        read_golden("packet_scenarios_fast_seed7.json");
    ASSERT_FALSE(golden.empty())
        << "missing golden document packet_scenarios_fast_seed7.json";
    const std::string current = run_fast_seed7(
        "csense_golden_packet",
        "camp03*,camp04*,camp05*,camp06*,fig10*,fig11*,fig12*,fig13*,"
        "tab03*,tab04*");
    ASSERT_FALSE(current.empty());
    EXPECT_EQ(current, golden)
        << "the packet-level scenarios must stay byte-identical to the "
           "committed golden document: their event sequence changed";
}

}  // namespace
