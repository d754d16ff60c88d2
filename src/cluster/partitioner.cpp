#include "cluster/partitioner.h"

#include <stdexcept>

namespace griffin::cluster {

std::string strategy_name(PartitionStrategy s) {
  switch (s) {
    case PartitionStrategy::kRoundRobin:
      return "round-robin";
    case PartitionStrategy::kRange:
      return "range";
  }
  return "?";
}

std::vector<std::uint32_t> assign_docs(PartitionStrategy strategy,
                                       std::uint64_t num_docs,
                                       std::uint32_t num_shards) {
  if (num_shards == 0) throw std::invalid_argument("num_shards must be > 0");
  std::vector<std::uint32_t> map(num_docs);
  switch (strategy) {
    case PartitionStrategy::kRoundRobin:
      for (std::uint64_t d = 0; d < num_docs; ++d) {
        map[d] = static_cast<std::uint32_t>(d % num_shards);
      }
      break;
    case PartitionStrategy::kRange: {
      // Ceil-divided contiguous ranges; the last shard may run short.
      const std::uint64_t width =
          (num_docs + num_shards - 1) / std::uint64_t{num_shards};
      for (std::uint64_t d = 0; d < num_docs; ++d) {
        map[d] =
            static_cast<std::uint32_t>(d / std::max<std::uint64_t>(width, 1));
      }
      break;
    }
  }
  return map;
}

}  // namespace griffin::cluster
