// Figure 12 — decompression speed: CPU PForDelta (sequential decode of the
// whole list) vs Griffin-GPU Para-EF, grouped by list size 1K..10M. The
// paper reports speedups below 2 for short lists rising to ~29.6x at 10M:
// long lists saturate the GPU and amortize transfer/launch overheads. Times
// are simulated (sim::HardwareSpec paper testbed); the GPU column includes
// one device allocation, the payload transfer, and the kernel launch per
// list — the costs §2.3 says dominate until lists grow long.
//
// A second table ablates the CPU's vector unit per codec (DESIGN.md §13):
// the same list decodes under the scalar baseline, the testbed's SSE4 unit
// and the modern AVX2 profile. Outputs are bit-identical across presets;
// only the charged time moves, and the PFor/EF speedups should land inside
// Lemire-Boytsov-Kurz's measured 4-8x full-decode range (EXPERIMENTS.md
// "Calibration").
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "cpu/decode.h"
#include "gpu/decode.h"
#include "util/rng.h"

using namespace griffin;

namespace {

double decode_ms(const codec::BlockCompressedList& list,
                 const sim::CpuSpec& spec) {
  sim::CpuCostAccumulator acc(spec);
  std::vector<index::DocId> out;
  cpu::decode_all(list, out, acc);
  return acc.time().ms();
}

}  // namespace

int main() {
  bench::print_header(
      "Figure 12: Decompression Speed Comparison (CPU PFor vs Para-EF)",
      "speedup <2 at 1K-10K rising to ~29.6x at 10M");

  const sim::HardwareSpec hw;
  const sim::GpuCostModel gpu_model(hw.gpu);
  const pcie::Link link(hw.pcie);
  util::Xoshiro256 rng(123);

  std::printf("%-10s %14s %14s %10s\n", "list size", "CPU PFor (ms)",
              "GPU ParaEF(ms)", "speedup");

  bench::Json rows = bench::Json::array();
  std::vector<std::uint64_t> sizes{1'000, 10'000, 100'000, 1'000'000,
                                   10'000'000};
  if (bench::fast_mode()) sizes.pop_back();
  for (const std::uint64_t n : sizes) {
    const int reps = n <= 100'000 ? 3 : 1;
    double cpu_ms = 0.0, gpu_ms = 0.0;
    for (int r = 0; r < reps; ++r) {
      // Density 1/32 — the typical mid-frequency web term.
      const auto universe = static_cast<index::DocId>(
          std::min<std::uint64_t>(n * 32ull, 0xFFFFFFF0ull));
      const auto docs = workload::make_uniform_list(n, universe, rng);

      // CPU: PForDelta full decompression.
      const auto pf =
          codec::BlockCompressedList::build(docs, codec::Scheme::kPForDelta);
      sim::CpuCostAccumulator acc(hw.cpu);
      std::vector<index::DocId> out;
      cpu::decode_all(pf, out, acc);
      cpu_ms += acc.time().ms();

      // GPU: Para-EF. Payload transfer + decode kernel.
      const auto ef =
          codec::BlockCompressedList::build(docs, codec::Scheme::kEliasFano);
      simt::Device dev(hw.gpu, hw.pcie.device_mem_bytes);
      pcie::TransferLedger ledger;
      gpu::DeviceList dlist = gpu::upload_list(dev, ef, link, ledger);
      auto dout = dev.alloc<index::DocId>(ef.size());
      const auto stats =
          gpu::decode_range(dev, dlist, 0, dlist.num_blocks(), dout);
      const sim::Duration gpu_time = link.alloc_time() +
                                     link.transfer_time(ef.blob().size() * 8) +
                                     gpu_model.kernel_time(stats);
      gpu_ms += gpu_time.ms();
      (void)ledger;
    }
    cpu_ms /= reps;
    gpu_ms /= reps;
    std::printf("%-10llu %14.3f %14.3f %9.1fx\n",
                static_cast<unsigned long long>(n), cpu_ms, gpu_ms,
                cpu_ms / gpu_ms);
    bench::Json row = bench::Json::object();
    row["list_size"] = n;
    row["cpu_pfor_ms"] = cpu_ms;
    row["gpu_paraef_ms"] = gpu_ms;
    row["speedup"] = cpu_ms / gpu_ms;
    rows.push_back(std::move(row));
  }

  // ---- Scalar vs SIMD full-decode ablation, per codec ----
  const std::uint64_t abl_n = bench::fast_mode() ? 100'000 : 1'000'000;
  const auto abl_universe = static_cast<index::DocId>(abl_n * 32ull);
  const auto abl_docs = workload::make_uniform_list(abl_n, abl_universe, rng);
  const sim::CpuSpec scalar{};
  const sim::CpuSpec sse4 = sim::CpuSpec::sse4_testbed();
  const sim::CpuSpec avx2 = sim::CpuSpec::modern_avx2();

  std::printf("\nCPU vector-unit ablation: full decode of a %llu-element list"
              " (bit-identical output, charged time only)\n",
              static_cast<unsigned long long>(abl_n));
  std::printf("%-10s %12s %12s %12s %8s %8s\n", "codec", "scalar(ms)",
              "sse4 (ms)", "avx2 (ms)", "sse4", "avx2");
  struct CodecRow {
    const char* name;
    codec::Scheme scheme;
  };
  const std::vector<CodecRow> codecs{
      {"pfor", codec::Scheme::kPForDelta},
      {"ef", codec::Scheme::kEliasFano},
      {"vbyte", codec::Scheme::kVarByte},
      {"simple16", codec::Scheme::kSimple16},
  };
  bench::Json simd_rows = bench::Json::array();
  for (const auto& c : codecs) {
    const auto list = codec::BlockCompressedList::build(abl_docs, c.scheme);
    const double s = decode_ms(list, scalar);
    const double v4 = decode_ms(list, sse4);
    const double v8 = decode_ms(list, avx2);
    std::printf("%-10s %12.3f %12.3f %12.3f %7.2fx %7.2fx\n", c.name, s, v4,
                v8, s / v4, s / v8);
    bench::Json row = bench::Json::object();
    row["codec"] = c.name;
    row["scalar_ms"] = s;
    row["sse4_ms"] = v4;
    row["avx2_ms"] = v8;
    row["sse4_speedup"] = s / v4;
    row["avx2_speedup"] = s / v8;
    simd_rows.push_back(std::move(row));
  }

  bench::Json root = bench::Json::object();
  root["bench"] = "decompression";
  root["fast_mode"] = bench::fast_mode();
  root["rows"] = std::move(rows);
  root["simd_ablation_list_size"] = abl_n;
  root["simd_ablation"] = std::move(simd_rows);
  bench::write_bench_json("decompression", root);
  return 0;
}
