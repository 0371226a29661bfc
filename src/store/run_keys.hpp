// The one place the checkpoint-store key scheme lives.
//
// Two binaries must agree on these strings byte-for-byte (csense_bench
// writing shard stores, csense_merge validating and splicing them), so
// the scheme is a library contract:
//
//   env fingerprint   sorted "K=V;K=V" of every CSENSE_* variable
//                     except CSENSE_THREADS (results are thread-count
//                     invariant by contract)
//   unit fingerprint  "<scenario>?seed=<n>&env=<fp>"
//   scenario record   "scenario/<unit_fp>&repeat=<n>&timings=<0|1>"
//   replication shard "shard/<unit_fp>/<campaign-suffix>/rep<i>"
//                     (the campaign suffix, e.g. "/n500", is chosen by
//                     the scenario; replication_prefix() returns the
//                     "shard/<unit_fp>" stem)
//   shard manifest    "manifest/run" — one per shard store, written by
//                     a completed `csense_bench --shard i/k` run
//
// Any change here is a store schema change: bump kBenchStoreSchema so
// old records read as stale misses instead of aliasing.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace csense::store {

/// Schema version every csense_bench checkpoint store validates
/// against.
inline constexpr std::string_view kBenchStoreSchema = "csense-bench/1";

/// Key of the per-shard run manifest record (see shard_merge.hpp).
inline constexpr std::string_view kManifestKey = "manifest/run";

/// Fingerprint of the calling process's own environment: its CSENSE_*
/// variables except CSENSE_THREADS, sorted, joined with ';'.
std::string current_env_fingerprint();

/// "<scenario>?seed=<n>&env=<fp>" — the run-configuration fingerprint
/// every checkpoint record of one scenario keys on.
std::string scenario_unit_fingerprint(std::string_view scenario_name,
                                      std::uint64_t seed,
                                      std::string_view env_fp);

/// "scenario/<unit_fp>&repeat=<n>&timings=<0|1>" — the key of the
/// completed-scenario JSON record.
std::string scenario_record_key(std::string_view unit_fp, int repeat,
                                bool timings);

/// "shard/<unit_fp>" — the stem campaign replication records hang off.
std::string replication_prefix(std::string_view unit_fp);

}  // namespace csense::store
