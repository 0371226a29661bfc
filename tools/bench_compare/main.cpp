// bench_compare — perf gate over two csense_bench JSON reports.
//
// Usage:
//   bench_compare BASELINE.json NEW.json [--threshold 0.25] [--quiet]
//
// Compares, for every scenario present in both files:
//   * per-scenario elapsed time: elapsed_ms_mean/min/max when the run
//     used --repeat, else the single elapsed_ms, and
//   * per-benchmark ms/iter for perf_micro-style metrics (numeric
//     metrics whose name ends in "_ms"),
// flagging anything slower than baseline * (1 + threshold) as a
// regression (default threshold 0.25 = ±25% noise band). Scenarios or
// benchmarks present in only one file are reported but never fail the
// gate — scenario sets legitimately change across PRs. Exits 1 when at
// least one regression fired, 2 on usage/parse errors.
//
// Reports are read with report::json_value::parse, the library's
// inverse of the writer that produced them.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

#include "src/report/json.hpp"

namespace {

using csense::report::json_value;

struct timing_series {
    std::map<std::string, double> values;  // label -> ms
};

/// Extracts everything comparable from one report: scenario elapsed
/// stats plus per-benchmark ms metrics.
std::map<std::string, timing_series> extract(const json_value& doc) {
    std::map<std::string, timing_series> out;
    const json_value* scenarios = doc.find("scenarios");
    if (scenarios == nullptr || !scenarios->is_array()) return out;
    for (std::size_t i = 0; i < scenarios->size(); ++i) {
        const json_value& sc = scenarios->at(i);
        const json_value* name = sc.find("name");
        if (name == nullptr) continue;
        timing_series& series = out[name->to_string_value()];
        for (const char* key :
             {"elapsed_ms_mean", "elapsed_ms_min", "elapsed_ms_max"}) {
            if (const json_value* v = sc.find(key);
                v != nullptr && v->is_number()) {
                // key + 11 skips "elapsed_ms_", leaving mean/min/max.
                series.values[std::string("elapsed/") + (key + 11)] =
                    v->to_double();
            }
        }
        // Single-shot runs only carry elapsed_ms; use it as the mean.
        if (series.values.empty()) {
            if (const json_value* v = sc.find("elapsed_ms");
                v != nullptr && v->is_number()) {
                series.values["elapsed/mean"] = v->to_double();
            }
        }
        if (const json_value* metrics = sc.find("metrics");
            metrics != nullptr && metrics->is_object()) {
            for (std::size_t m = 0; m < metrics->size(); ++m) {
                const auto [k, v] = metrics->entry(m);
                if (v.is_number() && k.size() > 3 &&
                    k.compare(k.size() - 3, 3, "_ms") == 0) {
                    series.values["metric/" + k] = v.to_double();
                }
            }
        }
    }
    return out;
}

std::optional<json_value> read_doc(const char* path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::cerr << "bench_compare: cannot open " << path << "\n";
        return std::nullopt;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    auto doc = json_value::parse(buf.str());
    if (!doc) {
        std::cerr << "bench_compare: " << path << ": JSON parse error\n";
    }
    return doc;
}

}  // namespace

int main(int argc, char** argv) {
    const char* base_path = nullptr;
    const char* new_path = nullptr;
    double threshold = 0.25;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "--threshold") {
            if (++i >= argc) {
                std::cerr << "bench_compare: --threshold needs a value\n";
                return 2;
            }
            threshold = std::strtod(argv[i], nullptr);
            if (!(threshold > 0.0)) {
                std::cerr << "bench_compare: threshold must be > 0\n";
                return 2;
            }
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--help" || arg == "-h" ||
                   (!arg.empty() && arg.front() == '-')) {
            std::cerr << "usage: bench_compare BASELINE.json NEW.json"
                         " [--threshold FRAC] [--quiet]\n";
            return arg == "--help" || arg == "-h" ? 0 : 2;
        } else if (base_path == nullptr) {
            base_path = argv[i];
        } else if (new_path == nullptr) {
            new_path = argv[i];
        } else {
            std::cerr << "bench_compare: too many positional arguments\n";
            return 2;
        }
    }
    if (base_path == nullptr || new_path == nullptr) {
        std::cerr << "usage: bench_compare BASELINE.json NEW.json"
                     " [--threshold FRAC] [--quiet]\n";
        return 2;
    }

    const auto base_doc = read_doc(base_path);
    if (!base_doc) return 2;
    const auto new_doc = read_doc(new_path);
    if (!new_doc) return 2;
    const auto base = extract(*base_doc);
    const auto fresh = extract(*new_doc);

    int regressions = 0;
    int improvements = 0;
    int compared = 0;

    for (const auto& [name, base_series] : base) {
        const auto it = fresh.find(name);
        if (it == fresh.end()) {
            if (!quiet) {
                std::cout << "  (only in baseline) " << name << "\n";
            }
            continue;
        }
        for (const auto& [label, base_ms] : base_series.values) {
            const auto vit = it->second.values.find(label);
            if (vit == it->second.values.end()) continue;
            const double new_ms = vit->second;
            ++compared;
            if (!(base_ms > 0.0)) continue;
            const double ratio = new_ms / base_ms;
            const double pct = (ratio - 1.0) * 100.0;
            char verdict = ' ';
            if (ratio > 1.0 + threshold) {
                verdict = '!';
                ++regressions;
            } else if (ratio < 1.0 - threshold) {
                verdict = '+';
                ++improvements;
            }
            if (!quiet || verdict == '!') {
                std::printf("%c %-24s %-44s %12.4f -> %12.4f ms (%+.1f%%)%s\n",
                            verdict, name.c_str(), label.c_str(), base_ms,
                            new_ms, pct,
                            verdict == '!' ? "  REGRESSION"
                            : verdict == '+' ? "  faster"
                                             : "");
            }
        }
    }
    for (const auto& [name, series] : fresh) {
        if (base.find(name) == base.end() && !quiet) {
            std::cout << "  (new scenario) " << name << "\n";
        }
    }

    std::printf("%d timings compared (threshold ±%.0f%%): "
                "%d regression%s, %d improvement%s\n",
                compared, threshold * 100.0, regressions,
                regressions == 1 ? "" : "s", improvements,
                improvements == 1 ? "" : "s");
    if (compared == 0) {
        std::cerr << "bench_compare: nothing comparable between the two "
                     "reports\n";
        return 2;
    }
    return regressions > 0 ? 1 : 0;
}
