// csense_perfbench: the repository benchmark driver.
//
//   csense_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--replications <r>] [--scratch <dir>] [--spans <file>]
//   csense_perfbench --list
//
// A pass is one whole workload, as a user runs it: set-up (the §3 solve
// where the workload uses one, and sampling every replication's
// topology), a campaign of replications through
// sim::run_replications_checkpointed into a fresh scratch result store
// on one thread, and one reload of every stored replication. Passes
// repeat back to back until --seconds have elapsed (at least one),
// always over the same seed-derived inputs.
//
// --trace 0 reports the end-to-end metrics, with every timing scaled to
// a nominal host speed by a reference loop timed around its pass
// (driver/calibrate.hpp). --trace 1 alternates an
// untraced pass with a traced one, whose replications run through the
// layer probe (driver/probe.hpp) with spans around every layer call,
// and reports the per-layer metrics plus the tracing overhead.
//
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics. Exit status: 0 when a result was printed, 1 on a fatal
// error, 2 on a usage error.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "driver/calibrate.hpp"
#include "driver/probe.hpp"
#include "driver/trace.hpp"
#include "driver/workloads.hpp"
#include "src/sim/campaign.hpp"
#include "src/store/result_store.hpp"

namespace fs = std::filesystem;
using namespace csense;
using namespace perfbench;

namespace {

using steady = std::chrono::steady_clock;

double seconds_since(steady::time_point t0) {
    return std::chrono::duration<double>(steady::now() - t0).count();
}

struct options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::size_t replications = 0;  ///< 0 = the workload's own count
    std::string scratch = ".bench_build/scratch";
    std::string spans;             ///< JSON-lines span dump; empty = none
};

/// One replication: every cell's run_summary, flattened (the store
/// payload). `threw` is never stored.
struct outcome {
    std::vector<double> fields;
    bool threw = false;
};

/// Everything a campaign needs before its first simulated run: the
/// cells (with the solved threshold applied where the workload does)
/// and each replication's topology and simulator seed, drawn from the
/// replication's own split stream exactly as the campaign hands it out.
struct campaign_inputs {
    double tuned_dbm = std::numeric_limits<double>::quiet_NaN();
    std::vector<mac::multi_pair_config> cells;
    std::vector<mac::multi_pair_topology> topologies;
    std::vector<std::uint64_t> sim_seeds;
};

struct pass_result {
    double wall_s = 0.0;
    std::vector<double> replication_s;
    double run_s = 0.0;         ///< inside run_multi_pair (or the probe)
    double pair_seconds = 0.0;  ///< simulated pairs x seconds
    std::vector<outcome> outcomes;
    std::vector<char> reload_ok;  ///< store round trip bit-exact
    std::uint64_t records = 0;    ///< store writes
    /// Reference-loop times (driver/calibrate.hpp), when the pass is
    /// gauged: one before each replication and one after the last. They
    /// run outside every timed interval, and wall_s excludes them.
    std::vector<double> reference_s;
    layer_counts counts;  ///< traced passes only
};

sim::campaign_options campaign_for(const workload& w, const options& opt,
                                   std::size_t replications) {
    sim::campaign_options c;
    c.replications = replications;
    c.shard_size = 1;
    c.threads = 1;
    c.seed = opt.seed ^ w.campaign_salt;
    return c;
}

campaign_inputs set_up(const workload& w, const options& opt,
                       std::size_t replications, tracer* trace) {
    campaign_inputs in;
    in.cells = w.cells;
    if (w.solves_threshold) {
        scoped_span s(trace, "core.solve");
        in.tuned_dbm = solve_tuned_threshold_dbm(w, opt.seed);
    }
    if (w.applies_threshold) {
        for (auto& c : in.cells) c.radio.cs_threshold_dbm = in.tuned_dbm;
    }
    const stats::rng base(campaign_for(w, opt, replications).seed);
    for (std::size_t i = 0; i < replications; ++i) {
        if (trace != nullptr) trace->set_replication(static_cast<long>(i));
        scoped_span s(trace, "mac.topology.sample");
        stats::rng gen = base.split(static_cast<std::uint64_t>(i));
        in.topologies.push_back(mac::sample_multi_pair_topology(
            w.pairs, w.arena_m, w.rmax_m, gen));
        in.sim_seeds.push_back(gen.next());
    }
    if (trace != nullptr) trace->set_replication(-1);
    return in;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Store hooks that time each put as one "store.put" span: the write
/// hook opens it, the rename hook (the put's last step) closes it.
struct put_spans {
    tracer* trace = nullptr;
    int open = -1;

    void close() {
        if (open >= 0) trace->close(open);
        open = -1;
    }

    store::fs_hooks hooks() {
        store::fs_hooks h;
        h.write_file = [this](const fs::path& path, std::string_view data) {
            open = trace->open("store.put");
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            out.write(data.data(), static_cast<std::streamsize>(data.size()));
            out.flush();
            const bool ok = out.good();
            if (!ok) close();
            return ok;
        };
        h.rename_file = [this](const fs::path& from, const fs::path& to) {
            std::error_code ec;
            fs::rename(from, to, ec);
            close();
            return !ec;
        };
        return h;
    }
};

/// One replication: replica `i`'s topology through every cell (common
/// random numbers). The traced variant runs the probe instead of
/// run_multi_pair.
outcome replicate(const workload& w, const campaign_inputs& in,
                  std::size_t i, tracer* trace, pass_result& r) {
    outcome o;
    try {
        for (const auto& cell : in.cells) {
            auto config = cell;
            config.seed = in.sim_seeds[i];
            const auto t0 = steady::now();
            const run_summary s =
                trace != nullptr
                    ? probe_run(in.topologies[i], config, *trace, r.counts)
                    : summarize(mac::run_multi_pair(in.topologies[i], config),
                                config);
            r.run_s += seconds_since(t0);
            r.pair_seconds += w.pairs * config.duration_us / 1e6;
            o.fields.insert(o.fields.end(), s.begin(), s.end());
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "replication failed: %s\n", e.what());
        o.threw = true;
        o.fields.assign(in.cells.size() * n_fields,
                        std::numeric_limits<double>::quiet_NaN());
    }
    return o;
}

pass_result run_pass(const workload& w, const options& opt,
                     std::size_t replications, const fs::path& store_dir,
                     tracer* trace, bool gauge) {
    fs::remove_all(store_dir);
    pass_result r;
    r.replication_s.assign(replications, 0.0);
    r.reload_ok.assign(replications, 0);
    const std::size_t width = w.cells.size() * n_fields;
    put_spans puts{trace};
    const auto t_start = steady::now();
    {
        scoped_span pass_span(trace, "workload.pass");
        const campaign_inputs in = set_up(w, opt, replications, trace);

        std::optional<store::result_store> st;
        {
            scoped_span s(trace, "store.open");
            st.emplace(store_dir, "csense-perfbench/1",
                       trace != nullptr ? puts.hooks() : store::fs_hooks{});
        }
        const auto encode = [](const outcome& o) {
            return store::encode_doubles(o.fields.data(), o.fields.size());
        };
        const auto decode = [width](std::string_view payload, outcome& o) {
            o.fields.assign(width, 0.0);
            return store::decode_doubles(payload, o.fields.data(), width);
        };
        {
            scoped_span s(trace, "sim.campaign");
            r.outcomes = sim::run_replications_checkpointed<outcome>(
                campaign_for(w, opt, replications), &*st, "rep",
                // The campaign's own stream for replication i is the one
                // set_up already drew this replication's inputs from.
                [&](std::size_t i, stats::rng&) {
                    if (gauge) r.reference_s.push_back(reference_loop_s());
                    const auto t0 = steady::now();
                    if (trace != nullptr) {
                        trace->set_replication(static_cast<long>(i));
                    }
                    outcome o;
                    {
                        scoped_span rs(trace, "replication");
                        o = replicate(w, in, i, trace, r);
                    }
                    r.replication_s[i] = seconds_since(t0);
                    return o;
                },
                encode, decode);
            if (gauge) r.reference_s.push_back(reference_loop_s());
        }
        for (std::size_t i = 0; i < replications; ++i) {
            if (trace != nullptr) trace->set_replication(static_cast<long>(i));
            std::optional<std::string> payload;
            {
                scoped_span s(trace, "store.load");
                payload = st->load("rep/rep" + std::to_string(i));
            }
            outcome reloaded;
            r.reload_ok[i] = payload && decode(*payload, reloaded) &&
                             same_bits(reloaded.fields, r.outcomes[i].fields);
        }
        if (trace != nullptr) trace->set_replication(-1);
        r.records = st->stats().writes;
    }
    r.wall_s = seconds_since(t_start);
    for (const double g : r.reference_s) r.wall_s -= g;
    fs::remove_all(store_dir);
    return r;
}

double mean(const std::vector<double>& v) {
    double sum = 0.0;
    for (const double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct metric {
    std::string name;
    double value;
    const char* unit;
};

/// This process's resident-set high-water mark (VmHWM). Unlike
/// getrusage's ru_maxrss, it starts afresh at exec, so it never reports
/// the memory of the process that launched the driver.
double peak_rss_mb() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
        }
    }
    throw std::runtime_error("peak_rss_mb: no VmHWM in /proc/self/status");
}

/// Counts the replications of `passes` that threw, broke a structural
/// invariant (per run, or delivering nothing over all of its runs),
/// failed the store round trip, or differ from the first pass (every
/// pass replays the same inputs).
std::size_t failed_replications(const workload& w,
                                const std::vector<pass_result>& passes) {
    std::size_t failed = 0;
    for (const auto& p : passes) {
        for (std::size_t i = 0; i < p.outcomes.size(); ++i) {
            const auto& o = p.outcomes[i];
            bool ok = !o.threw && p.reload_ok[i] &&
                      o.fields.size() == w.cells.size() * n_fields &&
                      same_bits(o.fields, passes.front().outcomes[i].fields);
            double delivered_pps = 0.0;
            for (std::size_t c = 0; ok && c < w.cells.size(); ++c) {
                run_summary s;
                std::copy_n(o.fields.begin() + c * n_fields, n_fields,
                            s.begin());
                ok = summary_valid(s);
                delivered_pps += s[f_total_pps];
            }
            if (!ok || !(delivered_pps > 0.0)) ++failed;
        }
    }
    return failed;
}

int usage(const char* why) {
    std::fprintf(stderr,
                 "csense_perfbench: %s\nusage: csense_perfbench --workload "
                 "<name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--replications <r>] [--scratch <dir>] [--spans <file>]\n"
                 "       csense_perfbench --list\n",
                 why);
    return 2;
}

std::optional<options> parse(int argc, char** argv, bool& list) {
    options opt;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--list") {
            list = true;
            continue;
        }
        if (i + 1 >= argc) return std::nullopt;
        const std::string value = argv[++i];
        char* end = nullptr;
        if (arg == "--workload") {
            opt.workload = value;
            have_workload = true;
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (arg == "--seconds") {
            opt.seconds = std::strtod(value.c_str(), &end);
            if (!(opt.seconds >= 0.0)) return std::nullopt;
        } else if (arg == "--trace") {
            if (value != "0" && value != "1") return std::nullopt;
            opt.trace = value == "1";
        } else if (arg == "--replications") {
            opt.replications = std::strtoull(value.c_str(), &end, 10);
            if (opt.replications < 1) return std::nullopt;
        } else if (arg == "--scratch") {
            opt.scratch = value;
        } else if (arg == "--spans") {
            opt.spans = value;
        } else {
            return std::nullopt;
        }
        if (end != nullptr && *end != '\0') return std::nullopt;
    }
    if (!have_workload && !list) return std::nullopt;
    return opt;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<metric>& metrics) {
    for (const auto& m : metrics) {
        std::printf("  %-32s %.6g %s\n", m.name.c_str(), m.value, m.unit);
    }
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    char buf[160];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const double v = std::isfinite(metrics[i].value) ? metrics[i].value
                                                          : 0.0;
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                      metrics[i].unit);
        json += buf;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

int run(const options& opt) {
    const workload* w = find_workload(opt.workload);
    if (w == nullptr) return usage("unknown workload");
    const std::size_t reps =
        opt.replications > 0 ? opt.replications : w->replications;
    const fs::path scratch = fs::path(opt.scratch) /
                             (opt.workload + "-" + std::to_string(getpid()));
    fs::create_directories(scratch);

    // Set-up is also timed on its own, repeated before every untraced
    // pass (at least 3 times, up to 50 or 20 ms), so its median is
    // steady even where one set-up takes microseconds, and its samples
    // spread over the whole run like every other timing.
    std::vector<double> setup_s;
    campaign_inputs inputs;
    const auto time_set_ups = [&] {
        const auto start = steady::now();
        for (int k = 0; k < 3 || (k < 50 && seconds_since(start) < 0.02);
             ++k) {
            const auto t = steady::now();
            auto in = set_up(*w, opt, reps, nullptr);
            setup_s.push_back(seconds_since(t));
            inputs = std::move(in);
        }
    };

    std::vector<pass_result> untraced, traced;
    std::vector<std::vector<metric>> traced_times;  // per traced pass
    std::size_t spans_first = 0;
    std::string spans_jsonl;
    double rss_mb = 0.0;  // after one whole pass, however many follow
    const auto t0 = steady::now();
    do {
        if (opt.trace) {
            untraced.push_back(
                run_pass(*w, opt, reps, scratch / "store", nullptr, false));
        } else {
            // The reference loop brackets the set-ups here, and run_pass
            // runs it between replications (driver/calibrate.hpp).
            const double ref_before = reference_loop_s();
            const std::size_t first_setup = setup_s.size();
            time_set_ups();
            untraced.push_back(
                run_pass(*w, opt, reps, scratch / "store", nullptr, true));
            const double scale =
                nominal_reference_s /
                (0.5 * (ref_before + untraced.back().reference_s.front()));
            for (std::size_t k = first_setup; k < setup_s.size(); ++k) {
                setup_s[k] *= scale;
            }
        }
        if (untraced.size() == 1) rss_mb = peak_rss_mb();
        if (!opt.trace) continue;
        tracer t;
        traced.push_back(
            run_pass(*w, opt, reps, scratch / "store", &t, false));
        const double run_s = t.total_s("sim.run");
        const auto& c = traced.back().counts;
        traced_times.push_back({
            {"core.solve_s", t.total_s("core.solve"), "s"},
            {"mac.topology.sample_s", t.total_s("mac.topology.sample"), "s"},
            {"mac.topology.links_s", t.total_s("mac.topology.links"), "s"},
            {"mac.network.build_s", t.total_s("mac.network.build"), "s"},
            {"sim.run_s", run_s, "s"},
            {"sim.ns_per_event",
             c.events > 0 ? run_s * 1e9 / static_cast<double>(c.events) : 0.0,
             "ns"},
            {"mac.medium.ns_per_tx",
             c.transmissions > 0
                 ? run_s * 1e9 / static_cast<double>(c.transmissions)
                 : 0.0,
             "ns"},
            {"store.open_s", t.total_s("store.open"), "s"},
            {"store.put_s", t.total_s("store.put"), "s"},
            {"store.load_s", t.total_s("store.load"), "s"},
            {"sim.campaign.overhead_s",
             t.total_s("sim.campaign") - t.total_s("replication"), "s"},
            {"replication.self_s", t.self_s("replication"), "s"},
            {"workload.pass.self_s", t.self_s("workload.pass"), "s"},
        });
        if (traced.size() == 1) spans_first = t.spans().size();
        t.append_jsonl(spans_jsonl, static_cast<int>(traced.size()) - 1);
    } while (seconds_since(t0) < opt.seconds);

    // Determinism re-check: replication 0 once more, outside the
    // campaign, must reproduce the first pass bit for bit.
    std::size_t attempted = 0, failed = failed_replications(*w, untraced);
    for (const auto& p : untraced) attempted += p.outcomes.size();
    {
        if (inputs.topologies.empty()) inputs = set_up(*w, opt, reps, nullptr);
        pass_result scratch_pass;
        const auto again = replicate(*w, inputs, 0, nullptr, scratch_pass);
        ++attempted;
        if (again.threw ||
            !same_bits(again.fields, untraced[0].outcomes[0].fields)) {
            std::printf("determinism re-check FAILED: replication 0 differs\n");
            ++failed;
        }
    }

    // Aggregate delivered pps against the reference: a statistical
    // tolerance, not byte identity, so a floating-point re-association
    // of the medium still passes.
    double mean_pps = 0.0;
    for (const auto& o : untraced[0].outcomes) {
        for (std::size_t c = 0; c < w->cells.size(); ++c) {
            mean_pps += o.fields[c * n_fields + f_total_pps];
        }
    }
    mean_pps /= static_cast<double>(untraced[0].outcomes.size() *
                                    w->cells.size());
    const double tolerance =
        5.0 * w->reference_sd / std::sqrt(static_cast<double>(reps));
    const bool reference_ok =
        std::fabs(mean_pps - w->reference_pps) <= tolerance;
    std::printf("%s: mean delivered %.1f pps per run (reference %.1f +- "
                "%.1f) %s\n",
                w->name, mean_pps, w->reference_pps, tolerance,
                reference_ok ? "ok" : "OUT OF TOLERANCE");
    if (w->solves_threshold) {
        double final_thr = 0.0;
        for (const auto& o : untraced[0].outcomes) {
            final_thr += o.fields[f_final_thr_dbm];
        }
        std::printf("%s: mean final sender threshold %.2f dBm (solved "
                    "threshold %.2f dBm)\n",
                    w->name, final_thr / static_cast<double>(reps),
                    inputs.tuned_dbm);
    }

    std::vector<metric> metrics;
    bool correct = reference_ok;
    if (!opt.trace) {
        // Every timing scaled to the nominal host: a replication by the
        // reference loops on either side of it, a pass by all of its
        // own. The raw walls are printed beside them.
        std::vector<double> wall, rate, reps_s;
        std::printf("pass walls, raw (s) / mean reference loop (ms):");
        for (const auto& p : untraced) {
            const auto& ref = p.reference_s;
            const double scale = nominal_reference_s / mean(ref);
            std::printf(" %.3f/%.2f", p.wall_s, 1e3 * mean(ref));
            wall.push_back(p.wall_s * scale);
            rate.push_back(p.pair_seconds / (p.run_s * scale));
            for (std::size_t i = 0; i < p.replication_s.size(); ++i) {
                reps_s.push_back(p.replication_s[i] * nominal_reference_s /
                                 (0.5 * (ref[i] + ref[i + 1])));
            }
        }
        std::printf("\n");
        std::sort(reps_s.begin(), reps_s.end());
        // Tail: the highest percentile with at least ten replications
        // beyond it, but never below the median (fewer than 22 samples).
        const std::size_t n = reps_s.size();
        const std::size_t k = std::max(n > 10 ? n - 11 : 0, n / 2);
        std::printf("replication_s_tail is p%.1f of %zu replications "
                    "(%zu beyond it)\n",
                    100.0 * static_cast<double>(k + 1) / static_cast<double>(n),
                    n, n - 1 - k);
        std::printf("failed_ratio %.6g (%zu of %zu replications)\n",
                    static_cast<double>(failed) / static_cast<double>(attempted),
                    failed, attempted);
        metrics = {
            {"setup_s", median(setup_s), "s"},
            {"wall_s", median(wall), "s"},
            {"pair_seconds_per_s", median(rate), "1/s"},
            {"replication_s_p50", median(reps_s), "s"},
            {"replication_s_tail", reps_s[k], "s"},
            {"peak_rss_mb", rss_mb, "MB"},
        };
    } else {
        attempted += traced.size() * reps;
        failed += failed_replications(*w, traced);
        // Probe vs run_multi_pair: same seed, same outputs, or the probe
        // no longer measures what the campaign runs. A flag only.
        std::size_t mismatches = 0;
        for (const auto& p : traced) {
            for (std::size_t i = 0; i < reps; ++i) {
                if (!same_bits(p.outcomes[i].fields,
                               untraced[0].outcomes[i].fields)) {
                    ++mismatches;
                }
            }
        }
        bool counts_repeat = true;
        for (const auto& p : traced) {
            counts_repeat = counts_repeat && p.counts == traced[0].counts;
        }
        if (!counts_repeat) {
            std::printf("deterministic layer counts differ between traced "
                        "passes\n");
            correct = false;
        }
        const auto& c = traced[0].counts;
        const auto count = [](std::uint64_t v) {
            return static_cast<double>(v);
        };
        for (std::size_t m = 0; m < traced_times[0].size(); ++m) {
            std::vector<double> values;
            for (const auto& pass : traced_times) {
                values.push_back(pass[m].value);
            }
            metrics.push_back({traced_times[0][m].name, median(values),
                               traced_times[0][m].unit});
        }
        std::vector<double> traced_wall, untraced_wall;
        for (const auto& p : traced) traced_wall.push_back(p.wall_s);
        for (const auto& p : untraced) untraced_wall.push_back(p.wall_s);
        const std::vector<metric> counted = {
            {"mac.topology.links", count(c.links), "count"},
            {"mac.topology.mean_degree",
             c.nodes > 0 ? count(c.degree_sum) / count(c.nodes) : 0.0,
             "count"},
            {"sim.events", count(c.events), "count"},
            {"mac.medium.transmissions", count(c.transmissions), "count"},
            {"mac.medium.busy_starts", count(c.busy_starts), "count"},
            {"mac.medium.chain_collisions", count(c.chain_collisions),
             "count"},
            {"mac.medium.slot_collisions", count(c.slot_collisions), "count"},
            {"mac.medium.row_visits", count(c.row_visits), "count"},
            {"mac.medium.log_entries_end", count(c.log_entries_end), "count"},
            {"mac.dcf.data_sent", count(c.data_sent), "count"},
            {"mac.dcf.acks_sent", count(c.acks_sent), "count"},
            {"mac.dcf.defer_events", count(c.defer_events), "count"},
            {"mac.dcf.decode_ratio",
             c.rx_decoded + c.rx_lost > 0
                 ? count(c.rx_decoded) / count(c.rx_decoded + c.rx_lost)
                 : 0.0,
             "ratio"},
            {"mac.dcf.retry_drops", count(c.retry_drops), "count"},
            {"mac.dcf.queue_drops", count(c.queue_drops), "count"},
            {"mac.dcf.offered", count(c.offered), "count"},
            {"mac.adaptive_cs.epochs", count(c.epochs), "count"},
            {"mac.adaptive_cs.final_thr_dbm",
             c.runs > 0 ? c.final_thr_sum_dbm / count(c.runs) : 0.0, "dBm"},
            {"store.records", count(traced[0].records), "count"},
            {"trace.spans", count(spans_first), "count"},
            {"trace.probe_mismatches", count(mismatches), "count"},
            {"trace.overhead_s", median(traced_wall) - median(untraced_wall),
             "s"},
        };
        metrics.insert(metrics.end(), counted.begin(), counted.end());
        std::printf("%zu traced + %zu untraced passes; probe mismatches %zu\n",
                    traced.size(), untraced.size(), mismatches);
        if (!opt.spans.empty()) {
            const fs::path path(opt.spans);
            if (path.has_parent_path()) {
                fs::create_directories(path.parent_path());
            }
            std::ofstream(path, std::ios::binary | std::ios::trunc)
                << spans_jsonl;
            std::printf("spans written to %s\n", opt.spans.c_str());
        }
    }
    fs::remove_all(scratch);
    correct = correct && failed == 0;
    print_result(correct, attempted, failed, metrics);
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    bool list = false;
    const auto opt = parse(argc, argv, list);
    if (!opt) return usage("bad arguments");
    if (list) {
        for (const auto& w : workloads()) std::printf("%s\n", w.name);
        return 0;
    }
    try {
        return run(*opt);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "csense_perfbench: %s\n", e.what());
        return 1;
    }
}
