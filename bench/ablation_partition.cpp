// Ablation — MergePath partition size. GPU MergePath sizes partitions so a
// pair of staging tiles fits in shared memory (paper §3.1.2). Too-small
// partitions waste the partition-search work and under-fill warps; too-big
// ones overflow shared memory. This sweeps items-per-thread (partition size
// = items_per_thread x 128 threads). It is the only bench that runs
// mergepath_intersect with a non-default MergeTuning, so ctest byte-compares
// its fast-mode JSON (every row's KernelStats included) against the
// committed BENCH_ablation_partition.json.
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "gpu/mergepath.h"
#include "util/rng.h"

using namespace griffin;

int main() {
  bench::print_header(
      "Ablation: MergePath partition size (items per thread x 128 threads)",
      "partitions must fill warps yet fit the 48 KB shared staging tiles");

  const sim::HardwareSpec hw;
  const sim::GpuCostModel model(hw.gpu);
  const pcie::Link link(hw.pcie);
  util::Xoshiro256 rng(99);

  const std::uint64_t n = bench::fast_mode() ? 200'000 : 2'000'000;
  const auto pair = workload::make_pair_with_ratio(n, 2.0, 64'000'000, 0.4, rng);

  simt::Device dev(hw.gpu, hw.pcie.device_mem_bytes);
  auto da = dev.alloc<index::DocId>(pair.shorter.size());
  dev.upload(da, std::span<const index::DocId>(pair.shorter));
  auto db = dev.alloc<index::DocId>(pair.longer.size());
  dev.upload(db, std::span<const index::DocId>(pair.longer));

  std::printf("longer list: %llu, shorter: %llu\n\n",
              static_cast<unsigned long long>(pair.longer.size()),
              static_cast<unsigned long long>(pair.shorter.size()));
  std::printf("%-16s %12s %14s %12s\n", "items/thread", "partition",
              "kernel time(ms)", "warp cycles");

  bench::Json rows = bench::Json::array();
  for (const std::uint32_t vt : {1u, 2u, 4u, 8u, 16u, 32u}) {
    gpu::MergeTuning tuning;
    tuning.items_per_thread = vt;
    pcie::TransferLedger ledger;
    auto r = gpu::mergepath_intersect(dev, da, pair.shorter.size(), db,
                                      pair.longer.size(), link, ledger,
                                      tuning);
    const double ms = (model.kernel_time(r.stats) + ledger.total).ms();
    std::printf("%-16u %12u %14.3f %12.0f\n", vt, vt * tuning.threads, ms,
                r.stats.warp_cycles);
    bench::Json row = bench::Json::object();
    row["items_per_thread"] = vt;
    row["partition"] = vt * tuning.threads;
    row["kernel_ms"] = ms;
    row["matches"] = r.count;
    row["stats"] = bench::counters_json(r.stats);
    rows.push_back(std::move(row));
  }
  std::printf("\n(default: 8 items/thread -> 1024-element partitions, the\n"
              "ModernGPU-style setting the paper builds on)\n");

  bench::Json root = bench::Json::object();
  root["bench"] = "ablation_partition";
  root["fast_mode"] = bench::fast_mode();
  root["longer"] = static_cast<std::uint64_t>(pair.longer.size());
  root["shorter"] = static_cast<std::uint64_t>(pair.shorter.size());
  root["rows"] = std::move(rows);
  bench::write_bench_json("ablation_partition", root);
  return 0;
}
