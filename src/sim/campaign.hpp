// Deterministic Monte-Carlo campaign layer: shard independent
// replications (seed x topology x config) of a simulation or sampling
// kernel across the process-wide thread pool (src/core/parallel.hpp).
//
// The determinism contract mirrors the expectation engine's:
//  - every replication draws from its own split RNG stream, derived only
//    from (campaign seed, replication index) - never from execution
//    order;
//  - work is split into shards whose boundaries depend only on
//    (replications, shard_size), never on the thread count;
//  - per-replication results are placed by index.
//
// Consequently `run_replications` (and its checkpointed form) is
// bit-identical to a serial loop for every `threads` value.
//
// Replication callables run concurrently on pool workers: they must not
// touch shared mutable state beyond their own index's slot. Building a
// fresh simulator/network per replication (the intended pattern) is safe.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/stats/rng.hpp"
#include "src/store/result_store.hpp"

namespace csense::sim {

/// Identity of one checkpointed campaign: the store prefix its
/// replication records live under and the coverage promise
/// ("<prefix>/rep<0..replications-1>" exist, sharded on fixed
/// `shard_size` boundaries). Reported through
/// campaign_options::unit_sink so a multi-process driver can write a
/// shard manifest and a merge tool can verify coverage.
struct campaign_unit {
    std::string prefix;
    std::size_t replications = 0;
    std::size_t shard_size = 1;
};

/// Execution knobs for one campaign.
struct campaign_options {
    /// Independent replications to run.
    std::size_t replications = 0;

    /// Replications per shard (one shard = one scheduled task). Shard
    /// boundaries depend only on (replications, shard_size), so results
    /// are placed identically for every worker count. Pick it so one
    /// shard is coarse enough to amortize scheduling (a packet-level
    /// simulation run: 1; a cheap analytic sample: hundreds).
    std::size_t shard_size = 1;

    /// Worker threads; 0 = auto (CSENSE_THREADS env, else hardware
    /// concurrency). Purely a wall-clock knob: output never depends on it.
    int threads = 0;

    /// Base seed. Replication i draws from stats::rng(seed).split(i).
    std::uint64_t seed = 42;

    /// Multi-process partition: this process computes only the campaign
    /// shards it owns — shard j (= begin / shard_size) belongs to
    /// process i when j % process_shards == i. The partition reuses the
    /// fixed shard boundaries, so k processes cover [0, replications)
    /// disjointly and their checkpoint stores merge in index order.
    /// Only run_replications_checkpointed honors these: a process shard
    /// without a store would discard its slice, so the plain drivers
    /// throw when process_shards > 1.
    int process_shards = 1;
    int process_shard = 0;

    /// When set, run_replications_checkpointed reports the campaign's
    /// identity (prefix, replications, shard_size) here before running,
    /// so the driver can record a coverage manifest.
    std::function<void(const campaign_unit&)> unit_sink;

    /// Throws std::invalid_argument on nonsensical options.
    void validate() const;
};

namespace detail {
/// Throws std::logic_error when `options` asks for a multi-process
/// partition: `what` (the calling driver) has no checkpoint store, so
/// the non-owned slice would be silently dropped.
void require_unsharded(const campaign_options& options, const char* what);
}  // namespace detail

/// Run `shard_body(begin, end)` over every shard of [0, replications),
/// sharded across the thread pool. The non-template driver behind the
/// templates below; exposed for callers that manage their own storage.
void for_each_shard(
    const campaign_options& options,
    const std::function<void(std::size_t, std::size_t)>& shard_body);

/// Run every replication and return its result by index. `replicate`
/// receives (replication index, that replication's own RNG stream).
/// Bit-identical to the serial loop for every thread count.
template <typename T, typename Replicate>
std::vector<T> run_replications(const campaign_options& options,
                                Replicate&& replicate) {
    // std::vector<bool> packs bits: concurrent per-index writes from
    // different shards would race on shared bytes. Wrap bool results in
    // a struct (or use char) instead.
    static_assert(!std::is_same_v<T, bool>,
                  "run_replications<bool> would race on vector<bool> bits");
    detail::require_unsharded(options, "run_replications");
    std::vector<T> results(options.replications);
    const stats::rng base(options.seed);
    for_each_shard(options, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
            stats::rng gen = base.split(static_cast<std::uint64_t>(i));
            results[i] = replicate(i, gen);
        }
    });
    return results;
}

/// run_replications with a per-replication checkpoint: when `checkpoint`
/// is non-null, replication i first tries to load
/// `<key_prefix>/rep<i>` from the store and `decode` it; on a hit the
/// replication is skipped, on a miss (or decode failure — a stale or
/// foreign payload) it is computed as usual and the `encode`d result is
/// stored before the call returns. Because every replication is
/// deterministic in (seed, index), a run killed mid-campaign and
/// restarted over the same store returns a vector bit-identical to an
/// uninterrupted run: `encode`/`decode` MUST round-trip exactly (see
/// store::encode_doubles). Replications shard across the pool, so the
/// store sees concurrent traffic on distinct keys only. `encode` maps
/// const T& -> std::string; `decode` maps (std::string_view, T&) ->
/// bool.
///
/// Under a multi-process partition (options.process_shards > 1) only
/// the shards this process owns are loaded/computed/stored; the
/// returned vector holds default-constructed values at every non-owned
/// index and MUST NOT feed metrics or gates — the merged store, not
/// this process's vector, is the campaign's result.
template <typename T, typename Replicate, typename Encode, typename Decode>
std::vector<T> run_replications_checkpointed(const campaign_options& options,
                                             store::result_store* checkpoint,
                                             std::string_view key_prefix,
                                             Replicate&& replicate,
                                             Encode&& encode,
                                             Decode&& decode) {
    static_assert(!std::is_same_v<T, bool>,
                  "run_replications<bool> would race on vector<bool> bits");
    if (checkpoint == nullptr) {
        return run_replications<T>(options,
                                   std::forward<Replicate>(replicate));
    }
    options.validate();
    if (options.unit_sink) {
        options.unit_sink(campaign_unit{std::string(key_prefix),
                                        options.replications,
                                        options.shard_size});
    }
    std::vector<T> results(options.replications);
    const stats::rng base(options.seed);
    for_each_shard(options, [&](std::size_t begin, std::size_t end) {
        // Multi-process partition: skip shards another process owns.
        if (options.process_shards > 1 &&
            static_cast<int>((begin / options.shard_size) %
                             static_cast<std::size_t>(
                                 options.process_shards)) !=
                options.process_shard) {
            return;
        }
        for (std::size_t i = begin; i < end; ++i) {
            const std::string key =
                std::string(key_prefix) + "/rep" + std::to_string(i);
            if (const auto payload = checkpoint->load(key);
                payload && decode(std::string_view(*payload), results[i])) {
                continue;
            }
            stats::rng gen = base.split(static_cast<std::uint64_t>(i));
            results[i] = replicate(i, gen);
            checkpoint->put(key, encode(results[i]));
        }
    });
    return results;
}

}  // namespace csense::sim
