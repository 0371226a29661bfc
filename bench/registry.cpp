#include "bench/registry.hpp"

#include <algorithm>

namespace csense::bench {
namespace {

std::vector<scenario>& mutable_registry() {
    static std::vector<scenario> registry;
    return registry;
}

bool sorted = false;

/// Escapes '|' so free-text fields cannot break the markdown table.
std::string escape_cell(std::string_view text) {
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        if (c == '|') out += "\\|";
        else out += c;
    }
    return out;
}

}  // namespace

std::string_view tier_name(runtime_tier tier) {
    switch (tier) {
        case runtime_tier::fast: return "fast";
        case runtime_tier::medium: return "medium";
        case runtime_tier::slow: return "slow";
        case runtime_tier::heavy: return "heavy";
    }
    return "medium";
}

std::uint64_t tier_budget_ms(runtime_tier tier, bool fast_mode) {
    // Full-accuracy budgets: >= 60x the tier's upper runtime estimate
    // for fast/medium (absorbs loaded shared runners), a day-fraction
    // ceiling for slow/heavy whose runtime is set by the sweep budget.
    // Fast mode shrinks every simulation budget, so the watchdog
    // tightens accordingly (still >= 60s: CI smoke headroom).
    switch (tier) {
        case runtime_tier::fast: return fast_mode ? 60'000 : 120'000;
        case runtime_tier::medium: return fast_mode ? 120'000 : 1'800'000;
        case runtime_tier::slow: return fast_mode ? 300'000 : 7'200'000;
        case runtime_tier::heavy: return fast_mode ? 600'000 : 14'400'000;
    }
    return 1'800'000;
}

bool register_scenario(std::string_view name, std::string_view description,
                       std::string_view knobs, runtime_tier tier,
                       bool repeatable, scenario_fn fn) {
    mutable_registry().push_back({std::string(name), std::string(description),
                                  std::string(knobs), tier, repeatable, fn});
    sorted = false;
    return true;
}

const std::vector<scenario>& scenarios() {
    auto& registry = mutable_registry();
    if (!sorted) {
        // Registration order depends on link order; sort so --list and
        // the JSON document are stable.
        std::sort(registry.begin(), registry.end(),
                  [](const scenario& a, const scenario& b) {
                      return a.name < b.name;
                  });
        sorted = true;
    }
    return registry;
}

std::string markdown_catalog() {
    std::string out;
    out +=
        "# Scenario catalog\n"
        "\n"
        "<!-- Generated by `csense_bench --list-markdown`. Do not edit by\n"
        "     hand: regenerate with `cmake --build build --target\n"
        "     docs_scenarios`. CI diffs this file against the registry. -->\n"
        "\n"
        "Every reproduction artifact is one scenario behind the unified\n"
        "`csense_bench` runner. All scenarios accept the global knobs:\n"
        "\n"
        "| Global knob | Effect |\n"
        "|---|---|\n"
        "| `--seed <n>` | Base seed for every stochastic component; the "
        "same seed reproduces the run byte-for-byte |\n"
        "| `--threads <n>` | Worker threads for the expectation engines "
        "and campaign sharding; 0 = auto. Wall-clock only - never changes "
        "output |\n"
        "| `--json <path>`, `--no-timings` | Machine-readable metrics; "
        "`--no-timings` makes reruns byte-identical |\n"
        "| `CSENSE_FAST=1` | Shrinks Monte Carlo / simulation budgets for "
        "quick iteration |\n"
        "\n"
        "Runtime tiers are full-accuracy (no `CSENSE_FAST`) single-thread\n"
        "estimates: **fast** < 1 s, **medium** 1-30 s, **slow** > 30 s.\n"
        "**heavy** marks production-scale packet campaigns (thousand-node\n"
        "topologies on the neighbor-culled medium) whose runtime is set by\n"
        "the sweep budget; each exposes a capping knob so CI can smoke it\n"
        "at reduced scale.\n"
        "\n"
        "| Scenario | Tier | Description | Scenario-specific knobs |\n"
        "|---|---|---|---|\n";
    for (const auto& s : scenarios()) {
        out += "| `";
        out += s.name;
        out += "` | ";
        out += tier_name(s.tier);
        out += " | ";
        out += escape_cell(s.description);
        out += " | ";
        out += s.knobs.empty() ? std::string("-") : escape_cell(s.knobs);
        out += " |\n";
    }
    out += "\n(";
    out += std::to_string(scenarios().size());
    out += " scenarios)\n";
    return out;
}

bool glob_match(std::string_view pattern, std::string_view text) {
    // Iterative glob with '*' backtracking.
    std::size_t p = 0, t = 0;
    std::size_t star = std::string_view::npos, star_t = 0;
    while (t < text.size()) {
        // '*' must be checked before the literal branch, or a literal '*'
        // in the text would consume the wildcard as a one-character match.
        if (p < pattern.size() && pattern[p] == '*') {
            star = p++;
            star_t = t;
        } else if (p < pattern.size() &&
                   (pattern[p] == '?' || pattern[p] == text[t])) {
            ++p;
            ++t;
        } else if (star != std::string_view::npos) {
            p = star + 1;
            t = ++star_t;
        } else {
            return false;
        }
    }
    while (p < pattern.size() && pattern[p] == '*') ++p;
    return p == pattern.size();
}

}  // namespace csense::bench
