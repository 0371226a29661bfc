// csense_bench: the unified scenario runner. All figures, tables,
// ablations and microbenchmarks of the reproduction live behind one
// binary:
//
//   csense_bench --list                  enumerate scenarios
//   csense_bench --list-markdown         emit the docs/scenarios.md
//                                        catalog (name, description,
//                                        runtime tier, knobs) to stdout
//   csense_bench                         run everything
//   csense_bench --filter 'fig*'         run the figure scenarios
//   csense_bench --filter 'fig*,camp05*' comma-separated glob list:
//                                        run scenarios matching any glob
//                                        (zero matches is a fatal error
//                                        and suggests nearby names)
//   csense_bench --seed 1234             base seed for all RNG
//   csense_bench --threads 4             engine worker threads (0 = auto:
//                                        CSENSE_THREADS env, else hardware;
//                                        output is identical at any count)
//   csense_bench --json out.json         machine-readable results/timings
//   csense_bench --no-timings            omit wall-clock fields from the
//                                        JSON (byte-identical reruns)
//   csense_bench --repeat 3              run each scenario N times and
//                                        record mean/min/max wall time
//                                        per scenario in the JSON (perf
//                                        baselines; metrics come from
//                                        the last repetition and are
//                                        identical across repetitions
//                                        for a fixed seed; scenarios
//                                        marked non-repeatable, i.e.
//                                        perf_micro, run once; the
//                                        testbed views simulate each
//                                        ensemble once per process, so
//                                        repetitions 2..N time the view
//                                        alone)
//   csense_bench --checkpoint <dir>      crash-safe campaigns: completed
//                                        scenario results (and campaign
//                                        replication shards) persist in a
//                                        keyed result store under <dir>
//                                        as they finish; a rerun after a
//                                        crash/kill loads completed units
//                                        and the merged JSON is
//                                        byte-identical to an
//                                        uninterrupted run (with
//                                        --no-timings)
//   csense_bench --watchdog-ms <n>       per-scenario wall-clock budget
//                                        override (default: the tier
//                                        budgets in bench/registry.cpp;
//                                        0 disables the watchdog)
//   csense_bench --shard <i>/<k>         multi-process partition: this
//                                        process computes only the
//                                        campaign replications shard i
//                                        of k owns (fixed shard
//                                        boundaries, so k processes
//                                        cover every campaign disjointly)
//                                        into its own --checkpoint store,
//                                        and records a coverage manifest
//                                        on success. csense_merge splices
//                                        k such stores into one that
//                                        replays byte-identically to an
//                                        unsharded run. Requires
//                                        --checkpoint; conflicts with
//                                        --repeat. Scenario JSON records
//                                        and acceptance gates are
//                                        suppressed (a shard sees only
//                                        its slice); the merged store is
//                                        the run's result.
//
// Exit-code taxonomy (docs/robustness.md):
//   0  ok       every selected scenario completed and passed its gate
//   1  fatal    the driver could not complete the run (no scenario
//               matched, unwritable --json/--checkpoint, ...)
//   2  usage    malformed command line
//   3  partial  the run completed, but at least one scenario degraded
//               (threw or exceeded its watchdog budget — see its
//               "degraded" JSON record) or failed its acceptance gate
//
// Setting CSENSE_FAST=1 shrinks Monte Carlo / simulation budgets.
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "bench/registry.hpp"
#include "src/core/parallel.hpp"
#include "src/report/json.hpp"
#include "src/sim/campaign.hpp"
#include "src/store/result_store.hpp"
#include "src/store/run_keys.hpp"
#include "src/store/shard_merge.hpp"
#include "src/testbed/experiment.hpp"

namespace {

using csense::bench::scenario;

constexpr int kExitOk = 0;
constexpr int kExitFatal = 1;
constexpr int kExitUsage = 2;
constexpr int kExitPartial = 3;

struct options {
    bool list = false;
    bool list_markdown = false;
    bool timings = true;
    std::uint64_t seed = 7;
    int threads = 0;
    int repeat = 1;
    std::int64_t watchdog_ms = -1;  ///< -1 = tier default, 0 = disabled
    bool shard = false;             ///< --shard given (shard mode)
    int shard_index = 0;
    int shard_count = 1;
    std::string filter = "*";
    std::string json_path;
    std::string checkpoint_dir;
};

void print_usage(std::FILE* out) {
    std::fprintf(out,
                 "usage: csense_bench [--list] [--list-markdown] "
                 "[--filter <glob>] [--seed <n>] [--threads <n>] "
                 "[--repeat <n>] [--json <path>] [--no-timings] "
                 "[--checkpoint <dir>] [--watchdog-ms <n>] "
                 "[--shard <i>/<k>]\n");
}

bool parse_args(int argc, char** argv, options& opts) {
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        auto value = [&](const char* flag) -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "csense_bench: %s needs a value\n", flag);
                return nullptr;
            }
            return argv[++i];
        };
        if (arg == "--list" || arg == "-l") {
            opts.list = true;
        } else if (arg == "--list-markdown") {
            opts.list_markdown = true;
        } else if (arg == "--filter" || arg == "-f") {
            const char* v = value("--filter");
            if (v == nullptr) return false;
            opts.filter = v;
        } else if (arg == "--seed" || arg == "-s") {
            const char* v = value("--seed");
            if (v == nullptr) return false;
            // strtoull silently wraps negatives and saturates on overflow;
            // both would make distinct-looking seeds alias, so reject them.
            errno = 0;
            char* end = nullptr;
            opts.seed = std::strtoull(v, &end, 10);
            if (v[0] == '-' || end == v || *end != '\0' || errno == ERANGE) {
                std::fprintf(stderr,
                             "csense_bench: bad --seed '%s' (need an "
                             "unsigned 64-bit integer)\n", v);
                return false;
            }
        } else if (arg == "--threads" || arg == "-t") {
            const char* v = value("--threads");
            if (v == nullptr) return false;
            errno = 0;
            char* end = nullptr;
            const long n = std::strtol(v, &end, 10);
            if (end == v || *end != '\0' || errno == ERANGE || n < 0 ||
                n > 4096) {
                std::fprintf(stderr,
                             "csense_bench: bad --threads '%s' (need an "
                             "integer in [0, 4096]; 0 = auto)\n", v);
                return false;
            }
            opts.threads = static_cast<int>(n);
        } else if (arg == "--repeat" || arg == "-r") {
            const char* v = value("--repeat");
            if (v == nullptr) return false;
            errno = 0;
            char* end = nullptr;
            const long n = std::strtol(v, &end, 10);
            if (end == v || *end != '\0' || errno == ERANGE || n < 1 ||
                n > 1000) {
                std::fprintf(stderr,
                             "csense_bench: bad --repeat '%s' (need an "
                             "integer in [1, 1000])\n", v);
                return false;
            }
            opts.repeat = static_cast<int>(n);
        } else if (arg == "--watchdog-ms") {
            const char* v = value("--watchdog-ms");
            if (v == nullptr) return false;
            errno = 0;
            char* end = nullptr;
            const long long n = std::strtoll(v, &end, 10);
            if (end == v || *end != '\0' || errno == ERANGE || n < 0) {
                std::fprintf(stderr,
                             "csense_bench: bad --watchdog-ms '%s' (need a "
                             "non-negative integer; 0 disables)\n", v);
                return false;
            }
            opts.watchdog_ms = n;
        } else if (arg == "--shard") {
            const char* v = value("--shard");
            if (v == nullptr) return false;
            errno = 0;
            char* end = nullptr;
            const long index = std::strtol(v, &end, 10);
            bool ok = end != v && *end == '/' && errno != ERANGE;
            long count = 0;
            if (ok) {
                const char* count_text = end + 1;
                errno = 0;
                count = std::strtol(count_text, &end, 10);
                ok = end != count_text && *end == '\0' && errno != ERANGE;
            }
            if (!ok || count < 1 || count > 1024 || index < 0 ||
                index >= count) {
                std::fprintf(stderr,
                             "csense_bench: bad --shard '%s' (need "
                             "<i>/<k> with 0 <= i < k <= 1024)\n", v);
                return false;
            }
            opts.shard = true;
            opts.shard_index = static_cast<int>(index);
            opts.shard_count = static_cast<int>(count);
        } else if (arg == "--checkpoint") {
            const char* v = value("--checkpoint");
            if (v == nullptr) return false;
            opts.checkpoint_dir = v;
        } else if (arg == "--json" || arg == "-j") {
            const char* v = value("--json");
            if (v == nullptr) return false;
            opts.json_path = v;
        } else if (arg == "--no-timings") {
            opts.timings = false;
        } else if (arg == "--help" || arg == "-h") {
            print_usage(stdout);
            std::exit(kExitOk);
        } else {
            std::fprintf(stderr, "csense_bench: unknown argument '%s'\n",
                         argv[i]);
            print_usage(stderr);
            return false;
        }
    }
    // Cross-option constraints of shard mode: without a store the
    // computed slice would be discarded, and --repeat's timing wrappers
    // are per-process (k processes would each claim repeat-indexed
    // records for the same configuration), so both are usage errors.
    if (opts.shard && opts.checkpoint_dir.empty() && !opts.list &&
        !opts.list_markdown) {
        std::fprintf(stderr,
                     "csense_bench: --shard requires --checkpoint (each "
                     "shard persists its slice into its own store)\n");
        return false;
    }
    if (opts.shard && opts.repeat != 1) {
        std::fprintf(stderr,
                     "csense_bench: --shard cannot be combined with "
                     "--repeat (timing repetitions are per-process and "
                     "would double-count shard records)\n");
        return false;
    }
    return true;
}

std::vector<std::string> split_globs(const std::string& filter) {
    std::vector<std::string> globs;
    std::size_t begin = 0;
    while (begin <= filter.size()) {
        const std::size_t comma = filter.find(',', begin);
        const std::size_t end =
            comma == std::string::npos ? filter.size() : comma;
        if (end > begin) globs.push_back(filter.substr(begin, end - begin));
        if (comma == std::string::npos) break;
        begin = comma + 1;
    }
    return globs;
}

std::vector<const scenario*> select(const std::string& filter) {
    // --filter takes a comma-separated glob list; a scenario is selected
    // when any glob matches.
    const std::vector<std::string> globs = split_globs(filter);
    std::vector<const scenario*> selected;
    for (const auto& s : csense::bench::scenarios()) {
        for (const auto& glob : globs) {
            if (csense::bench::glob_match(glob, s.name)) {
                selected.push_back(&s);
                break;
            }
        }
    }
    return selected;
}

std::size_t levenshtein(std::string_view a, std::string_view b) {
    std::vector<std::size_t> row(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        std::size_t diag = row[0];
        row[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            const std::size_t sub = diag + (a[i - 1] == b[j - 1] ? 0 : 1);
            diag = row[j];
            row[j] = std::min({row[j] + 1, row[j - 1] + 1, sub});
        }
    }
    return row[b.size()];
}

/// Fatal-error message for a filter matching nothing: name the nearest
/// scenarios so a typo ('fig7*', 'camp5*') is a one-glance fix.
void report_no_match(const std::string& filter) {
    std::fprintf(stderr, "csense_bench: no scenario matches '%s'\n",
                 filter.c_str());
    struct ranked {
        std::size_t distance;
        const std::string* name;
    };
    std::vector<ranked> candidates;
    for (const auto& s : csense::bench::scenarios()) {
        std::size_t best = std::string::npos;
        for (const auto& glob : split_globs(filter)) {
            // Compare against the glob with its wildcards stripped; a
            // substring hit counts as an immediate near-miss.
            std::string core;
            for (const char c : glob) {
                if (c != '*' && c != '?') core += c;
            }
            if (core.empty()) continue;
            // Distances are doubled so the subsequence tier can slot
            // between exact-substring hits and one-edit prefixes.
            std::size_t d = 2 * levenshtein(core, s.name);
            if (s.name.find(core) != std::string::npos) d = 0;
            // A glob core is usually a prefix; also rank against the
            // name truncated to the core's length so long names are not
            // penalized for their tails.
            d = std::min(
                d, 2 * levenshtein(
                           core, std::string_view(s.name).substr(
                                     0, std::min(core.size(),
                                                 s.name.size()))));
            // A dropped character ('camp5' for camp05) leaves the core a
            // subsequence of the intended name; rank those right after
            // substring hits, ahead of every one-edit sibling.
            std::size_t ci = 0;
            for (const char c : s.name) {
                if (ci < core.size() && c == core[ci]) ++ci;
            }
            if (ci == core.size()) d = std::min(d, std::size_t{1});
            best = std::min(best, d);
        }
        if (best != std::string::npos) {
            candidates.push_back({best, &s.name});
        }
    }
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const ranked& a, const ranked& b) {
                         return a.distance < b.distance;
                     });
    std::string nearest;
    std::size_t shown = 0;
    for (const auto& c : candidates) {
        if (shown == 3 || c.distance > 8) break;
        if (!nearest.empty()) nearest += ", ";
        nearest += *c.name;
        ++shown;
    }
    if (!nearest.empty()) {
        std::fprintf(stderr, "  nearest scenarios: %s\n", nearest.c_str());
    }
    std::fprintf(stderr,
                 "  (use --list to see all %zu scenarios)\n",
                 csense::bench::scenarios().size());
}

/// Arms a one-shot wall-clock budget on construction; if the scenario
/// has not disarmed it within the budget, the cancellation token fires
/// and the in-flight run unwinds at its next cooperative cancellation
/// point (core::cancelled_error). Runs in bench/main.cpp so the
/// wall-clock read stays inside the determinism linter's timing
/// whitelist.
class watchdog {
public:
    watchdog(std::uint64_t budget_ms, std::atomic<bool>* cancel)
        : thread_([this, budget_ms, cancel] {
              std::unique_lock lock(mutex_);
              if (!cv_.wait_for(lock, std::chrono::milliseconds(budget_ms),
                                [this] { return disarmed_; })) {
                  cancel->store(true, std::memory_order_release);
                  fired_ = true;
              }
          }) {}

    watchdog(const watchdog&) = delete;
    watchdog& operator=(const watchdog&) = delete;
    ~watchdog() { disarm(); }

    void disarm() {
        {
            std::scoped_lock lock(mutex_);
            disarmed_ = true;
        }
        cv_.notify_all();
        if (thread_.joinable()) thread_.join();
    }

    /// True when the budget elapsed before disarm (call after disarm).
    bool fired() {
        std::scoped_lock lock(mutex_);
        return fired_;
    }

private:
    std::mutex mutex_;
    std::condition_variable cv_;
    bool disarmed_ = false;
    bool fired_ = false;
    std::thread thread_;
};

}  // namespace

int main(int argc, char** argv) {
    options opts;
    if (!parse_args(argc, argv, opts)) return kExitUsage;

    if (opts.list_markdown) {
        // The catalog always covers the whole registry (ignoring
        // --filter) so docs/scenarios.md is complete by construction.
        std::fputs(csense::bench::markdown_catalog().c_str(), stdout);
        return kExitOk;
    }

    const auto selected = select(opts.filter);
    if (selected.empty()) {
        report_no_match(opts.filter);
        return kExitFatal;
    }

    if (opts.list) {
        for (const auto* s : selected) {
            std::printf("%-28s %s\n", s->name.c_str(),
                        s->description.c_str());
        }
        std::printf("(%zu scenarios)\n", selected.size());
        return kExitOk;
    }

    std::unique_ptr<csense::store::result_store> checkpoint;
    if (!opts.checkpoint_dir.empty()) {
        try {
            checkpoint = std::make_unique<csense::store::result_store>(
                opts.checkpoint_dir,
                std::string(csense::store::kBenchStoreSchema));
        } catch (const std::exception& e) {
            std::fprintf(stderr, "csense_bench: --checkpoint: %s\n",
                         e.what());
            return kExitFatal;
        }
    }
    // The CSENSE_* env fingerprint that keys every checkpoint record
    // (CSENSE_THREADS excluded: output is thread-count invariant), so a
    // run under different knobs can never load another configuration's
    // records. Shared with csense_merge, which must agree on it
    // byte-for-byte.
    const std::string env_fp = csense::store::current_env_fingerprint();
    const bool fast = csense::bench::fast_mode();

    using clock = std::chrono::steady_clock;
    namespace report = csense::report;

    report::json_value doc = report::json_value::object();
    doc["schema"] = "csense-bench/1";
    doc["seed"] = opts.seed;
    doc["fast_mode"] = fast;
    doc["filter"] = std::string_view(opts.filter);
    doc["repeat"] = opts.repeat;
    if (opts.shard) {
        // Marks this document as one shard's partial view: it must
        // never be compared against (or mistaken for) a merged run.
        const std::string shard_label = std::to_string(opts.shard_index) +
                                        "/" +
                                        std::to_string(opts.shard_count);
        doc["shard"] = std::string_view(shard_label);
    }
    report::json_value results = report::json_value::array();

    enum class outcome { ok, gate_failed, degraded, cached };
    struct timing {
        const scenario* s;
        outcome result;
        double elapsed_ms;
    };
    std::vector<timing> timings;

    int gate_failures = 0;
    int degraded_count = 0;
    std::vector<csense::sim::campaign_unit> campaign_units;
    // The §4 testbed ensembles, each simulated by the first view that
    // needs it and read by every later one (bench/testbed_common.hpp).
    std::map<std::string, csense::testbed::experiment_result> ensembles;
    const auto run_start = clock::now();
    for (std::size_t i = 0; i < selected.size(); ++i) {
        const scenario& s = *selected[i];

        // The run-configuration fingerprint every checkpoint record of
        // this scenario keys on. Replication shards exclude the
        // repeat/timings wrapper knobs (they never reach shard payloads).
        const std::string unit_fp = csense::store::scenario_unit_fingerprint(
            s.name, opts.seed, env_fp);
        const std::string scenario_key = csense::store::scenario_record_key(
            unit_fp, opts.repeat, opts.timings);

        // Shard mode neither loads nor stores whole-scenario records:
        // this process's metrics aggregate a partial replication vector,
        // so only the per-replication records it owns are real.
        if (checkpoint != nullptr && !opts.shard) {
            if (const auto payload = checkpoint->load(scenario_key)) {
                std::string error;
                if (auto entry = report::json_value::parse(*payload, &error)) {
                    std::printf("\n### [%zu/%zu] %s (loaded from "
                                "checkpoint)\n",
                                i + 1, selected.size(), s.name.c_str());
                    const report::json_value* status = entry->find("status");
                    if (status != nullptr && status->to_int64() != 0) {
                        ++gate_failures;
                    }
                    timings.push_back({&s, outcome::cached, 0.0});
                    results.push_back(std::move(*entry));
                    continue;
                }
                // A payload that passed the store checksum but fails to
                // parse means a foreign writer; recompute and overwrite.
                std::fprintf(stderr,
                             "csense_bench: checkpoint record for %s "
                             "unparseable (%s); recomputing\n",
                             s.name.c_str(), error.c_str());
            }
        }

        // --repeat: every repetition runs the scenario in full with the
        // same seed, so metrics are identical and only wall time moves;
        // the last repetition's metrics and status are recorded, and the
        // per-scenario mean/min/max land next to them in the JSON.
        // Non-repeatable scenarios (perf_micro) are capped at one run.
        const int repeat = s.repeatable ? opts.repeat : 1;
        if (repeat < opts.repeat) {
            std::printf("\n(%s runs once: not repeatable in-process)\n",
                        s.name.c_str());
        }
        const std::uint64_t budget_ms =
            opts.watchdog_ms >= 0
                ? static_cast<std::uint64_t>(opts.watchdog_ms)
                : csense::bench::tier_budget_ms(s.tier, fast);

        int status = 0;
        std::string degraded_reason;
        std::string degraded_detail;
        double elapsed_sum_ms = 0.0;
        double elapsed_min_ms = 0.0;
        double elapsed_max_ms = 0.0;
        double elapsed_last_ms = 0.0;
        int reps_run = 0;
        csense::bench::scenario_context ctx;
        for (int rep = 0; rep < repeat; ++rep) {
            std::printf("\n### [%zu/%zu] %s", i + 1, selected.size(),
                        s.name.c_str());
            if (repeat > 1) {
                std::printf(" (repetition %d/%d)", rep + 1, repeat);
            }
            std::printf("\n");
            std::atomic<bool> cancel{false};
            ctx = csense::bench::scenario_context{};
            ctx.seed = opts.seed;
            ctx.threads = opts.threads;
            ctx.cancel = &cancel;
            ctx.checkpoint = checkpoint.get();
            ctx.checkpoint_prefix = csense::store::replication_prefix(unit_fp);
            ctx.shard_count = opts.shard_count;
            ctx.shard_index = opts.shard_index;
            ctx.campaign_units = opts.shard ? &campaign_units : nullptr;
            ctx.ensembles = &ensembles;
            csense::core::set_cancellation_token(&cancel);
            std::unique_ptr<watchdog> dog;
            if (budget_ms > 0) {
                dog = std::make_unique<watchdog>(budget_ms, &cancel);
            }
            const auto start = clock::now();
            int rep_status = 0;
            try {
                rep_status = s.run(ctx);
            } catch (const csense::core::cancelled_error&) {
                degraded_reason = "watchdog_timeout";
                degraded_detail = "exceeded the " +
                                  std::string(csense::bench::tier_name(
                                      s.tier)) +
                                  "-tier wall-clock budget";
            } catch (const std::exception& e) {
                degraded_reason = "exception";
                degraded_detail = e.what();
            } catch (...) {
                degraded_reason = "exception";
                degraded_detail = "unknown exception";
            }
            if (dog != nullptr) {
                dog->disarm();
                // A scenario that never reached a cancellation point can
                // outlive its budget and still return normally; budget
                // overruns degrade either way so tier budgets stay
                // meaningful.
                if (degraded_reason.empty() && dog->fired()) {
                    degraded_reason = "watchdog_timeout";
                    degraded_detail =
                        "completed only after the " +
                        std::string(csense::bench::tier_name(s.tier)) +
                        "-tier wall-clock budget elapsed";
                }
            }
            csense::core::set_cancellation_token(nullptr);
            elapsed_last_ms =
                std::chrono::duration<double, std::milli>(clock::now() - start)
                    .count();
            elapsed_sum_ms += elapsed_last_ms;
            elapsed_min_ms = (rep == 0) ? elapsed_last_ms
                                        : std::min(elapsed_min_ms,
                                                   elapsed_last_ms);
            elapsed_max_ms = std::max(elapsed_max_ms, elapsed_last_ms);
            ++reps_run;
            if (!degraded_reason.empty()) {
                std::printf("(%s degraded: %s — continuing with the "
                            "remaining scenarios)\n",
                            s.name.c_str(), degraded_reason.c_str());
                break;  // remaining repetitions would degrade identically
            }
            if (rep_status != 0) status = rep_status;
        }

        const bool degraded = !degraded_reason.empty();
        if (degraded) ++degraded_count;
        if (!degraded && status != 0) ++gate_failures;
        timings.push_back({&s,
                           degraded ? outcome::degraded
                           : status != 0 ? outcome::gate_failed
                                         : outcome::ok,
                           elapsed_sum_ms / reps_run});

        report::json_value entry = report::json_value::object();
        entry["name"] = std::string_view(s.name);
        entry["description"] = std::string_view(s.description);
        entry["status"] = degraded ? -1 : status;
        if (degraded) {
            report::json_value info = report::json_value::object();
            info["reason"] = std::string_view(degraded_reason);
            info["detail"] = std::string_view(degraded_detail);
            info["budget_ms"] = static_cast<std::int64_t>(budget_ms);
            entry["degraded"] = std::move(info);
        }
        entry["metrics"] = std::move(ctx.metrics);
        if (opts.timings) {
            entry["elapsed_ms"] = elapsed_last_ms;
            if (reps_run > 1) {
                entry["elapsed_ms_mean"] = elapsed_sum_ms / reps_run;
                entry["elapsed_ms_min"] = elapsed_min_ms;
                entry["elapsed_ms_max"] = elapsed_max_ms;
            }
        }
        // Completed units (including gate failures: they are complete,
        // deterministic results) checkpoint; degraded units must
        // recompute on resume, so they are never stored. Shard-mode
        // scenario records would be partial — never stored either.
        if (checkpoint != nullptr && !degraded && !opts.shard) {
            checkpoint->put(scenario_key, entry.dump(0));
        }
        results.push_back(std::move(entry));
    }

    // A shard run that completed every scenario un-degraded publishes
    // its coverage manifest: the merge tool refuses stores without one
    // (an absent manifest is exactly what a killed shard leaves behind).
    if (opts.shard && checkpoint != nullptr && degraded_count == 0) {
        csense::store::shard_manifest manifest;
        manifest.shard_index = opts.shard_index;
        manifest.shard_count = opts.shard_count;
        manifest.seed = opts.seed;
        manifest.filter = opts.filter;
        manifest.repeat = opts.repeat;
        manifest.timings = opts.timings;
        manifest.env_fp = env_fp;
        for (const auto* s : selected) {
            manifest.scenarios.push_back(s->name);
        }
        for (const auto& unit : campaign_units) {
            manifest.units.push_back(
                {unit.prefix, static_cast<std::int64_t>(unit.replications),
                 static_cast<std::int64_t>(unit.shard_size)});
        }
        if (!checkpoint->put(csense::store::kManifestKey,
                             csense::store::encode_manifest(manifest))) {
            std::fprintf(stderr,
                         "csense_bench: cannot write the shard manifest "
                         "to '%s'\n", opts.checkpoint_dir.c_str());
            return kExitFatal;
        }
    }
    const double total_ms =
        std::chrono::duration<double, std::milli>(clock::now() - run_start)
            .count();

    doc["scenarios"] = std::move(results);
    if (opts.timings) doc["total_elapsed_ms"] = total_ms;

    std::printf("\n%-28s %8s %12s\n", "scenario", "status", "elapsed");
    for (const auto& t : timings) {
        const char* label = "ok";
        switch (t.result) {
            case outcome::ok: label = "ok"; break;
            case outcome::gate_failed: label = "FAIL"; break;
            case outcome::degraded: label = "DEGRADED"; break;
            case outcome::cached: label = "cached"; break;
        }
        std::printf("%-28s %8s %10.1f ms\n", t.s->name.c_str(), label,
                    t.elapsed_ms);
    }
    std::printf("%zu scenario(s), %d failure(s), %d degraded, %.1f ms "
                "total\n",
                timings.size(), gate_failures, degraded_count, total_ms);
    if (checkpoint != nullptr) {
        const auto stats = checkpoint->stats();
        std::printf("checkpoint: %llu loaded, %llu stored, %llu "
                    "quarantined (%s)\n",
                    static_cast<unsigned long long>(stats.hits),
                    static_cast<unsigned long long>(stats.writes),
                    static_cast<unsigned long long>(stats.quarantined),
                    opts.checkpoint_dir.c_str());
    }

    if (!opts.json_path.empty()) {
        std::ofstream out(opts.json_path);
        if (!out) {
            std::fprintf(stderr, "csense_bench: cannot write '%s'\n",
                         opts.json_path.c_str());
            return kExitFatal;
        }
        out << doc.dump(2);
        std::printf("wrote %s\n", opts.json_path.c_str());
    }
    // Shard mode: gates evaluated over a partial replication vector are
    // not meaningful, so only degradation (a shard whose records cannot
    // be trusted complete) reaches the exit code.
    if (degraded_count > 0) return kExitPartial;
    if (gate_failures > 0 && !opts.shard) return kExitPartial;
    return kExitOk;
}
