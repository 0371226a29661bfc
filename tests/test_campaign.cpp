// The deterministic campaign layer: sharded replications must place
// results by index and reproduce the serial loop bit-for-bit at any
// thread count (the --threads-is-only-a-wall-clock-knob contract).
#include <gtest/gtest.h>

#include <filesystem>
#include <numeric>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/campaign.hpp"

namespace {

using namespace csense::sim;

campaign_options options_with(std::size_t replications, std::size_t shard,
                              int threads, std::uint64_t seed = 99) {
    campaign_options opt;
    opt.replications = replications;
    opt.shard_size = shard;
    opt.threads = threads;
    opt.seed = seed;
    return opt;
}

TEST(Campaign, MapMatchesSerialLoopBitwise) {
    // run_replications at any thread count == the hand-written serial
    // loop with the same split-RNG discipline, bit for bit.
    const std::size_t n = 1000;
    std::vector<double> serial(n);
    const csense::stats::rng base(99);
    for (std::size_t i = 0; i < n; ++i) {
        csense::stats::rng gen = base.split(i);
        serial[i] = gen.normal() + gen.uniform();
    }
    for (int threads : {1, 2, 4, 7}) {
        const auto mapped = run_replications<double>(
            options_with(n, 16, threads),
            [](std::size_t, csense::stats::rng& gen) {
                return gen.normal() + gen.uniform();
            });
        ASSERT_EQ(mapped.size(), n);
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(mapped[i], serial[i]) << "index " << i << ", threads "
                                            << threads;
        }
    }
}

TEST(Campaign, MapIsInvariantToShardSize) {
    // Shard size groups work but never changes per-index placement.
    const std::size_t n = 257;  // deliberately not a multiple of any shard
    auto run = [&](std::size_t shard) {
        return run_replications<double>(
            options_with(n, shard, 4),
            [](std::size_t i, csense::stats::rng& gen) {
                return gen.uniform() + static_cast<double>(i);
            });
    };
    const auto a = run(1);
    const auto b = run(16);
    const auto c = run(1000);  // one shard holding everything
    EXPECT_EQ(a, b);
    EXPECT_EQ(a, c);
}

TEST(Campaign, ReplicationStreamsAreDecorrelated) {
    // Adjacent replications must not share RNG state: the mean of many
    // split streams' first uniforms behaves like independent draws.
    const std::size_t n = 4000;
    const auto draws = run_replications<double>(
        options_with(n, 64, 2),
        [](std::size_t, csense::stats::rng& gen) { return gen.uniform(); });
    const double mean =
        std::accumulate(draws.begin(), draws.end(), 0.0) / double(n);
    EXPECT_NEAR(mean, 0.5, 0.03);
    std::size_t equal_neighbours = 0;
    for (std::size_t i = 1; i < n; ++i) {
        if (draws[i] == draws[i - 1]) ++equal_neighbours;
    }
    EXPECT_EQ(equal_neighbours, 0u);
}

TEST(Campaign, EmptyCampaignIsANoOp) {
    const auto results = run_replications<int>(
        options_with(0, 8, 4),
        [](std::size_t, csense::stats::rng&) { return 1; });
    EXPECT_TRUE(results.empty());
}

TEST(Campaign, RejectsBadOptions) {
    EXPECT_THROW(for_each_shard(options_with(10, 0, 1),
                                [](std::size_t, std::size_t) {}),
                 std::invalid_argument);
    EXPECT_THROW(for_each_shard(options_with(10, 4, -1),
                                [](std::size_t, std::size_t) {}),
                 std::invalid_argument);
}

TEST(Campaign, ExceptionsPropagateToCaller) {
    EXPECT_THROW(
        run_replications<int>(options_with(100, 4, 2),
                              [](std::size_t i, csense::stats::rng&) -> int {
                                  if (i == 57) {
                                      throw std::runtime_error("boom");
                                  }
                                  return 0;
                              }),
        std::runtime_error);
}

// append-based: GCC 12's -Wrestrict misfires on the
// `const char* + std::string&&` operator+ overload.
std::string shard_dir_name(int shard) {
    std::string name = "s";
    name += std::to_string(shard);
    return name;
}

TEST(Campaign, ProcessShardsPartitionReplicationsDisjointly) {
    // k process-sharded runs into k stores must together hold exactly
    // one record per replication, with payloads identical to the
    // unsharded checkpointed run's.
    const std::size_t n = 37;  // not a multiple of shard_size * k
    const int k = 3;
    const auto replicate = [](std::size_t, csense::stats::rng& gen) {
        return gen.normal();
    };
    const auto encode = [](const double& v) {
        return csense::store::encode_doubles(&v, 1);
    };
    const auto decode = [](std::string_view payload, double& v) {
        return csense::store::decode_doubles(payload, &v, 1);
    };

    namespace fs = std::filesystem;
    const fs::path base =
        fs::path(::testing::TempDir()) / "csense_campaign_pshard";
    fs::remove_all(base);
    csense::store::result_store reference(base / "ref", "test/1");
    {
        campaign_options opt = options_with(n, 4, 2);
        run_replications_checkpointed<double>(opt, &reference, "shard/unit",
                                              replicate, encode, decode);
    }
    std::size_t stored = 0;
    for (int shard = 0; shard < k; ++shard) {
        campaign_options opt = options_with(n, 4, 2);
        opt.process_shards = k;
        opt.process_shard = shard;
        csense::store::result_store store(
            base / shard_dir_name(shard), "test/1");
        run_replications_checkpointed<double>(opt, &store, "shard/unit",
                                              replicate, encode, decode);
        stored += store.stats().writes;
    }
    EXPECT_EQ(stored, n) << "the k slices must cover [0, n) exactly once";
    for (std::size_t i = 0; i < n; ++i) {
        // Built with += : GCC 12's -Wrestrict misfires on the
        // `const char* + std::string&&` overload here.
        std::string key = "shard/unit/rep";
        key += std::to_string(i);
        const auto expected = reference.load(key);
        ASSERT_TRUE(expected.has_value()) << key;
        int holders = 0;
        for (int shard = 0; shard < k; ++shard) {
            csense::store::result_store store(
                base / shard_dir_name(shard), "test/1");
            if (const auto payload = store.load(key)) {
                ++holders;
                EXPECT_EQ(*payload, *expected) << key << " in shard "
                                               << shard;
            }
        }
        EXPECT_EQ(holders, 1) << key << " must live in exactly one store";
    }
}

TEST(Campaign, UnitSinkReportsTheCampaignIdentity) {
    namespace fs = std::filesystem;
    const fs::path root =
        fs::path(::testing::TempDir()) / "csense_campaign_sink";
    fs::remove_all(root);
    csense::store::result_store store(root, "test/1");
    campaign_options opt = options_with(12, 4, 1);
    std::vector<campaign_unit> units;
    opt.unit_sink = [&units](const campaign_unit& unit) {
        units.push_back(unit);
    };
    run_replications_checkpointed<double>(
        opt, &store, "shard/unit",
        [](std::size_t, csense::stats::rng& gen) { return gen.uniform(); },
        [](const double& v) { return csense::store::encode_doubles(&v, 1); },
        [](std::string_view p, double& v) {
            return csense::store::decode_doubles(p, &v, 1);
        });
    ASSERT_EQ(units.size(), 1u);
    EXPECT_EQ(units[0].prefix, "shard/unit");
    EXPECT_EQ(units[0].replications, 12u);
    EXPECT_EQ(units[0].shard_size, 4u);
}

TEST(Campaign, ProcessShardingRequiresACheckpointStore) {
    // A plain driver has nowhere to persist the owned slice: the
    // non-owned replications would be silently dropped.
    campaign_options opt = options_with(10, 2, 1);
    opt.process_shards = 2;
    EXPECT_THROW(run_replications<int>(
                     opt, [](std::size_t, csense::stats::rng&) { return 1; }),
                 std::logic_error);
}

TEST(Campaign, RejectsBadProcessShardOptions) {
    campaign_options opt = options_with(10, 2, 1);
    opt.process_shards = 0;
    EXPECT_THROW(opt.validate(), std::invalid_argument);
    opt.process_shards = 3;
    opt.process_shard = 3;  // must be in [0, process_shards)
    EXPECT_THROW(opt.validate(), std::invalid_argument);
    opt.process_shard = -1;
    EXPECT_THROW(opt.validate(), std::invalid_argument);
}

}  // namespace
