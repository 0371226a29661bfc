#include "src/store/run_keys.hpp"

#include <algorithm>
#include <vector>

extern char** environ;

namespace csense::store {

namespace {

/// Keeps the CSENSE_* entries (except CSENSE_THREADS), sorts, joins
/// with ';'.
std::string env_fingerprint_from_entries(std::vector<std::string> entries) {
    std::erase_if(entries, [](const std::string& entry) {
        const std::string_view e(entry);
        return e.rfind("CSENSE_", 0) != 0 ||
               e.rfind("CSENSE_THREADS=", 0) == 0;
    });
    std::sort(entries.begin(), entries.end());
    std::string fp;
    for (const auto& e : entries) {
        if (!fp.empty()) fp += ';';
        fp += e;
    }
    return fp;
}

}  // namespace

std::string current_env_fingerprint() {
    std::vector<std::string> entries;
    for (char** env = environ; env != nullptr && *env != nullptr; ++env) {
        entries.emplace_back(*env);
    }
    return env_fingerprint_from_entries(std::move(entries));
}

std::string scenario_unit_fingerprint(std::string_view scenario_name,
                                      std::uint64_t seed,
                                      std::string_view env_fp) {
    std::string fp;
    fp.reserve(scenario_name.size() + env_fp.size() + 40);
    fp += scenario_name;
    fp += "?seed=";
    fp += std::to_string(seed);
    fp += "&env=";
    fp += env_fp;
    return fp;
}

std::string scenario_record_key(std::string_view unit_fp, int repeat,
                                bool timings) {
    std::string key;
    key.reserve(unit_fp.size() + 40);
    key += "scenario/";
    key += unit_fp;
    key += "&repeat=";
    key += std::to_string(repeat);
    key += "&timings=";
    key += timings ? '1' : '0';
    return key;
}

std::string replication_prefix(std::string_view unit_fp) {
    std::string prefix;
    prefix.reserve(unit_fp.size() + 8);
    prefix += "shard/";
    prefix += unit_fp;
    return prefix;
}

}  // namespace csense::store
