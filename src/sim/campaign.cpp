#include "src/sim/campaign.hpp"

#include <stdexcept>

#include "src/core/parallel.hpp"

namespace csense::sim {

void campaign_options::validate() const {
    if (shard_size == 0) {
        throw std::invalid_argument("campaign_options: shard_size == 0");
    }
    if (threads < 0) {
        throw std::invalid_argument("campaign_options: negative threads");
    }
    if (process_shards < 1) {
        throw std::invalid_argument("campaign_options: process_shards < 1");
    }
    if (process_shard < 0 || process_shard >= process_shards) {
        throw std::invalid_argument(
            "campaign_options: process_shard outside [0, process_shards)");
    }
}

namespace detail {
void require_unsharded(const campaign_options& options, const char* what) {
    options.validate();
    if (options.process_shards > 1) {
        throw std::logic_error(
            std::string(what) +
            ": process_shards > 1 requires a checkpoint store "
            "(use run_replications_checkpointed)");
    }
}
}  // namespace detail

void for_each_shard(
    const campaign_options& options,
    const std::function<void(std::size_t, std::size_t)>& shard_body) {
    options.validate();
    if (options.replications == 0) return;
    core::parallel_for(options.threads, options.replications,
                       options.shard_size, shard_body);
}

}  // namespace csense::sim
