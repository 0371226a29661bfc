// The bench scenario registry. Every reproduction artifact (figure,
// table, ablation, campaign, microbenchmark) is one scenario: a named
// function that prints its human-readable output and records headline
// numbers into the run's JSON document. Scenarios self-register at
// static-initialisation time via CSENSE_SCENARIO_EX (or
// CSENSE_SCENARIO_EX_ONCE), and the csense_bench driver selects them
// with --list / --filter.
// --list-markdown renders the whole registry as the docs/scenarios.md
// catalog (name, description, runtime tier, scenario-specific knobs).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/report/json.hpp"

namespace csense::store {
class result_store;
}  // namespace csense::store

namespace csense::sim {
struct campaign_unit;
}  // namespace csense::sim

namespace csense::testbed {
struct experiment_result;
}  // namespace csense::testbed

namespace csense::bench {

/// Coarse full-accuracy (no CSENSE_FAST) single-thread runtime class,
/// for the scenario catalog. Boundaries: fast < 1 s, medium 1-30 s,
/// slow > 30 s. `heavy` marks production-scale packet campaigns
/// (thousand-node topologies on the neighbor-culled medium): their
/// runtime is set by the sweep budget, and they expose a capping knob
/// (e.g. CSENSE_CAMP05_NMAX) so CI can smoke them at reduced scale.
enum class runtime_tier {
    fast,
    medium,
    slow,
    heavy,
};

/// Stable lower-case name ("fast" / "medium" / "slow" / "heavy").
std::string_view tier_name(runtime_tier tier);

/// Default per-scenario watchdog wall-clock budget for a tier, in
/// milliseconds. Budgets are deliberately generous multiples of the
/// tier's documented single-thread runtime (a loaded CI runner must
/// never trip them on a healthy scenario); `fast_mode` (CSENSE_FAST=1)
/// shrinks them alongside the simulation budgets. The csense_bench
/// driver arms a watchdog with this budget per scenario and overrides
/// it with --watchdog-ms.
std::uint64_t tier_budget_ms(runtime_tier tier, bool fast_mode);

/// Per-run state handed to each scenario.
struct scenario_context {
    /// Base RNG seed (--seed). Scenarios must derive every stochastic
    /// component from this so a run is reproducible byte-for-byte.
    std::uint64_t seed = 7;

    /// Worker threads for the expectation engines (--threads). 0 = auto
    /// (CSENSE_THREADS env, else hardware concurrency). Never emitted
    /// into metrics: output is bit-identical across thread counts.
    int threads = 0;

    /// Headline numbers recorded by the scenario; emitted under
    /// "metrics" in the --json document, in insertion order.
    report::json_value metrics = report::json_value::object();

    /// Cooperative cancellation token armed by the driver's scenario
    /// watchdog; null when no watchdog runs. The same token is installed
    /// process-wide via core::set_cancellation_token, so campaign shards
    /// and expectation-engine chunks already observe it; scenarios with
    /// long hand-rolled loops should call core::throw_if_cancelled()
    /// periodically.
    const std::atomic<bool>* cancel = nullptr;

    /// Checkpoint store (--checkpoint <dir>); null when checkpointing is
    /// off. Scenarios with expensive deterministic sub-units (campaign
    /// replications) may persist them under keys prefixed with
    /// `checkpoint_prefix` — see sim::run_replications_checkpointed.
    store::result_store* checkpoint = nullptr;

    /// Run-config fingerprint ("<scenario>?seed=..&env=..") that keys
    /// this scenario's checkpoint records; sub-unit keys must extend it.
    std::string checkpoint_prefix;

    /// Multi-process partition (--shard i/k): campaign-backed scenarios
    /// must copy these into campaign_options::process_shard(s) so each
    /// of k processes computes only its own slice of every campaign.
    /// 1/0 = unsharded. Scenario-level metrics and gates computed from
    /// a partial replication vector are meaningless under a partition;
    /// the driver discards them in shard mode.
    int shard_count = 1;
    int shard_index = 0;

    /// When non-null (shard mode), campaign-backed scenarios must also
    /// route campaign_options::unit_sink here so the driver can record
    /// every campaign's coverage promise in the shard manifest.
    std::vector<sim::campaign_unit>* campaign_units = nullptr;

    /// The §4 testbed ensembles simulated so far in this process, keyed
    /// by range ("short" / "long"); owned by the driver, read through
    /// bench::dataset (bench/testbed_common.hpp). Seed, fast mode and
    /// thread count are fixed per process, and results do not depend on
    /// the thread count, so the range alone keys an ensemble.
    std::map<std::string, testbed::experiment_result>* ensembles = nullptr;

    /// Records one named metric (number, string or bool).
    void metric(std::string_view name, report::json_value value) {
        metrics[name] = std::move(value);
    }
};

using scenario_fn = int (*)(scenario_context&);

struct scenario {
    std::string name;         ///< e.g. "fig05_cs_piecewise"
    std::string description;  ///< one line for --list
    std::string knobs;        ///< scenario-specific knobs beyond the
                              ///< global --seed/--threads/CSENSE_FAST;
                              ///< empty = none
    runtime_tier tier = runtime_tier::medium;
    /// False for scenarios that may only run once per process (e.g.
    /// perf_micro: google-benchmark's globals cannot survive a second
    /// RunSpecifiedBenchmarks). The driver caps --repeat at 1 for them.
    bool repeatable = true;
    scenario_fn run = nullptr;
};

/// Registers a scenario; called by the CSENSE_SCENARIO_EX macros.
bool register_scenario(std::string_view name, std::string_view description,
                       std::string_view knobs, runtime_tier tier,
                       bool repeatable, scenario_fn fn);

/// All registered scenarios, sorted by name (stable across link order).
const std::vector<scenario>& scenarios();

/// Case-sensitive glob match supporting '*' and '?'.
bool glob_match(std::string_view pattern, std::string_view text);

/// Renders the registry as the docs/scenarios.md catalog: a generated
/// preamble, the global-knob table, and one row per scenario with its
/// runtime tier and scenario-specific knobs. Deterministic byte-for-byte
/// for a fixed registry (`cmake --build build --target docs_scenarios`
/// regenerates the checked-in file; CI diffs it).
std::string markdown_catalog();

/// Defines and registers a scenario with catalog metadata. The tier is
/// a normal expression (qualify it as visibility requires). Usage:
///   CSENSE_SCENARIO_EX(fig05_cs_piecewise, "Figure 5 - ...",
///                      bench::runtime_tier::medium,
///                      "knob notes or \"\"") {
///       ...use ctx...
///       return 0;
///   }
#define CSENSE_SCENARIO_EX(ident, desc, tier, knobs)                        \
    static int csense_scenario_##ident(                                     \
        [[maybe_unused]] ::csense::bench::scenario_context& ctx);           \
    [[maybe_unused]] static const bool csense_scenario_reg_##ident =        \
        ::csense::bench::register_scenario(#ident, desc, knobs, tier,       \
                                           /*repeatable=*/true,             \
                                           &csense_scenario_##ident);       \
    static int csense_scenario_##ident(                                     \
        [[maybe_unused]] ::csense::bench::scenario_context& ctx)

/// CSENSE_SCENARIO_EX for a scenario that may only run once per process
/// (the driver caps --repeat at 1; see scenario::repeatable).
#define CSENSE_SCENARIO_EX_ONCE(ident, desc, tier, knobs)                    \
    static int csense_scenario_##ident(                                     \
        [[maybe_unused]] ::csense::bench::scenario_context& ctx);           \
    [[maybe_unused]] static const bool csense_scenario_reg_##ident =        \
        ::csense::bench::register_scenario(#ident, desc, knobs, tier,       \
                                           /*repeatable=*/false,            \
                                           &csense_scenario_##ident);       \
    static int csense_scenario_##ident(                                     \
        [[maybe_unused]] ::csense::bench::scenario_context& ctx)

}  // namespace csense::bench
