// Figure 13 — list intersection: CPU merge, CPU binary (skip pointers),
// GPU merge (MergePath) and GPU binary search, on pairs of comparable
// lengths (ratio < 16), sweeping the longer list from 1K to 10M. The paper
// reports GPU merge up to 87x over CPU merge, GPU binary up to ~102x over
// CPU binary, and GPU merge up to 2.29x over GPU binary. GPU columns include
// transfers, allocations and kernel launches.
//
// The CPU columns additionally ablate the vector unit (DESIGN.md §13):
// scalar vs the testbed's SSE4 vs the modern AVX2 profile, for both the
// shuffle-based block merge (Lemire et al.'s measured 2-5x band) and the
// branch-bound skip/binary search (a modest 1.3-1.8x — vector compares
// only replace the last levels of each search). Outputs are bit-identical;
// only charged time moves.
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "cpu/intersect.h"
#include "gpu/binary_intersect.h"
#include "gpu/decode.h"
#include "gpu/engine.h"
#include "gpu/mergepath.h"
#include "util/rng.h"

using namespace griffin;

namespace {

const sim::HardwareSpec hw;
const sim::GpuCostModel gpu_model(hw.gpu);
const pcie::Link link_model(hw.pcie);

double cpu_merge_ms(const codec::BlockCompressedList& a,
                    const codec::BlockCompressedList& b,
                    const sim::CpuSpec& spec) {
  sim::CpuCostAccumulator acc(spec);
  std::vector<index::DocId> out;
  cpu::merge_intersect(a, b, out, acc);
  return acc.time().ms();
}

double cpu_binary_ms(const codec::BlockCompressedList& b,
                     std::span<const index::DocId> a_decoded,
                     const sim::CpuSpec& spec) {
  // Probe the shorter (already decoded) side into the longer via skips.
  sim::CpuCostAccumulator acc(spec);
  std::vector<index::DocId> out;
  cpu::skip_intersect(a_decoded, b, out, acc);
  return acc.time().ms();
}

struct GpuSide {
  simt::Device dev{hw.gpu, hw.pcie.device_mem_bytes};
  pcie::TransferLedger ledger;

  /// Upload+decode both lists, then MergePath.
  double merge_ms(const codec::BlockCompressedList& a,
                  const codec::BlockCompressedList& b) {
    sim::Duration total;
    pcie::TransferLedger led;
    gpu::DeviceList da = gpu::upload_list(dev, a, link_model, led);
    gpu::DeviceList db = gpu::upload_list(dev, b, link_model, led);
    auto outa = dev.alloc<index::DocId>(a.size());
    auto outb = dev.alloc<index::DocId>(b.size());
    led.add_alloc(link_model);
    led.add_alloc(link_model);
    total += gpu_model.kernel_time(
        gpu::decode_range(dev, da, 0, da.num_blocks(), outa));
    total += gpu_model.kernel_time(
        gpu::decode_range(dev, db, 0, db.num_blocks(), outb));
    auto r = gpu::mergepath_intersect(dev, outa, a.size(), outb, b.size(),
                                      link_model, led);
    total += gpu_model.kernel_time(r.stats);
    total += led.total;
    return total.ms();
  }

  /// Decode the shorter list, then parallel binary search into the longer
  /// (deferred payload: only candidate blocks transfer).
  double binary_ms(const codec::BlockCompressedList& a,
                   const codec::BlockCompressedList& b) {
    sim::Duration total;
    pcie::TransferLedger led;
    gpu::DeviceList da = gpu::upload_list(dev, a, link_model, led);
    auto probes = dev.alloc<index::DocId>(a.size());
    led.add_alloc(link_model);
    total += gpu_model.kernel_time(
        gpu::decode_range(dev, da, 0, da.num_blocks(), probes));
    gpu::DeviceList db = gpu::upload_list(dev, b, link_model, led, true);
    auto r = gpu::binary_search_intersect(dev, probes, a.size(), db,
                                          link_model, led, true);
    total += gpu_model.kernel_time(r.stats);
    total += led.total;
    return total.ms();
  }
};

}  // namespace

int main() {
  bench::print_header(
      "Figure 13: List Intersection Comparison (comparable lengths, ratio 4)",
      "GPU merge up to 87x over CPU merge; GPU merge ~2.3x over GPU binary");

  util::Xoshiro256 rng(321);
  const sim::CpuSpec scalar{};
  const sim::CpuSpec sse4 = sim::CpuSpec::sse4_testbed();
  const sim::CpuSpec avx2 = sim::CpuSpec::modern_avx2();
  std::printf("%-10s %11s %11s %11s %11s %11s %11s %11s %11s %8s %8s\n",
              "longer", "CPUmerge", "CMsse4", "CMavx2", "CPUbinary", "CBsse4",
              "CBavx2", "GPUmerge", "GPUbinary", "GM/CM", "GB/CB");

  bench::Json rows = bench::Json::array();
  std::vector<std::uint64_t> sizes{1'000, 10'000, 100'000, 1'000'000,
                                   10'000'000};
  if (bench::fast_mode()) sizes.pop_back();
  for (const std::uint64_t n : sizes) {
    const auto pair = workload::make_pair_with_ratio(
        n, 4.0, static_cast<index::DocId>(std::min<std::uint64_t>(
                    n * 16ull, 0xFFFFFFF0ull)),
        0.4, rng);
    const auto la = codec::BlockCompressedList::build(
        pair.shorter, codec::Scheme::kEliasFano);
    const auto lb = codec::BlockCompressedList::build(
        pair.longer, codec::Scheme::kEliasFano);

    const double cm = cpu_merge_ms(la, lb, scalar);
    const double cm4 = cpu_merge_ms(la, lb, sse4);
    const double cm8 = cpu_merge_ms(la, lb, avx2);
    const double cb = cpu_binary_ms(lb, pair.shorter, scalar);
    const double cb4 = cpu_binary_ms(lb, pair.shorter, sse4);
    const double cb8 = cpu_binary_ms(lb, pair.shorter, avx2);
    GpuSide g;
    const double gm = g.merge_ms(la, lb);
    const double gb = g.binary_ms(la, lb);

    std::printf("%-10llu %11.3f %11.3f %11.3f %11.3f %11.3f %11.3f %11.3f "
                "%11.3f %7.1fx %7.1fx\n",
                static_cast<unsigned long long>(n), cm, cm4, cm8, cb, cb4, cb8,
                gm, gb, cm / gm, cb / gb);
    bench::Json row = bench::Json::object();
    row["longer"] = n;
    row["cpu_merge_ms"] = cm;
    row["cpu_merge_sse4_ms"] = cm4;
    row["cpu_merge_avx2_ms"] = cm8;
    row["cpu_binary_ms"] = cb;
    row["cpu_binary_sse4_ms"] = cb4;
    row["cpu_binary_avx2_ms"] = cb8;
    row["gpu_merge_ms"] = gm;
    row["gpu_binary_ms"] = gb;
    row["merge_sse4_speedup"] = cm / cm4;
    row["merge_avx2_speedup"] = cm / cm8;
    row["binary_sse4_speedup"] = cb / cb4;
    row["binary_avx2_speedup"] = cb / cb8;
    rows.push_back(std::move(row));
  }

  bench::Json root = bench::Json::object();
  root["bench"] = "intersection";
  root["fast_mode"] = bench::fast_mode();
  root["rows"] = std::move(rows);
  bench::write_bench_json("intersection", root);
  return 0;
}
