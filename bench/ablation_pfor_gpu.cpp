// Ablation — PForDelta ported to the GPU (the negative result of §2.3 and
// §3.1.1): the exception patch chain serializes one lane while the whole
// block stalls, and chasing compression ratio by shrinking the slot width b
// multiplies the exceptions. EF gives Griffin both the ratio and the
// parallel decode at once.
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "gpu/decode.h"
#include "util/rng.h"

using namespace griffin;

int main() {
  bench::print_header(
      "Ablation: PForDelta on the GPU vs Para-EF",
      "porting PFor to GPU is slow (serial exception chain); shrinking b for "
      "ratio makes it worse");

  const sim::HardwareSpec hw;
  const sim::GpuCostModel model(hw.gpu);
  const pcie::Link link(hw.pcie);
  util::Xoshiro256 rng(17);

  const std::uint64_t n = bench::scaled(1'000'000);
  const auto docs = workload::make_uniform_list(
      n, static_cast<index::DocId>(n * 32), rng);

  std::printf("%-18s %14s %14s %16s\n", "codec", "bits/posting",
              "decode (ms)", "exceptions/blk");

  auto run_pfor = [&](std::uint8_t forced_b, const char* label) {
    const auto list = codec::BlockCompressedList::build(
        docs, codec::Scheme::kPForDelta, forced_b);
    simt::Device dev(hw.gpu, hw.pcie.device_mem_bytes);
    pcie::TransferLedger ledger;
    gpu::DeviceList dl = gpu::upload_list(dev, list, link, ledger);
    auto out = dev.alloc<index::DocId>(list.size());
    const auto stats = gpu::decode_range(dev, dl, 0, dl.num_blocks(), out);
    double exc = 0;
    for (const auto& m : list.metas()) exc += m.hdr.pfor().n_exceptions;
    exc /= static_cast<double>(list.num_blocks());
    std::printf("%-18s %14.2f %14.3f %16.1f\n", label,
                list.bits_per_posting(),
                (link.transfer_time(list.blob().size() * 8) +
                 model.kernel_time(stats))
                    .ms(),
                exc);
  };

  run_pfor(0, "PFor (auto b)");
  run_pfor(5, "PFor (b=5)");
  run_pfor(4, "PFor (b=4)");
  run_pfor(3, "PFor (b=3)");

  {
    const auto list = codec::BlockCompressedList::build(
        docs, codec::Scheme::kEliasFano);
    simt::Device dev(hw.gpu, hw.pcie.device_mem_bytes);
    pcie::TransferLedger ledger;
    gpu::DeviceList dl = gpu::upload_list(dev, list, link, ledger);
    auto out = dev.alloc<index::DocId>(list.size());
    const auto stats = gpu::decode_range(dev, dl, 0, dl.num_blocks(), out);
    std::printf("%-18s %14.2f %14.3f %16s\n", "Para-EF",
                list.bits_per_posting(),
                (link.transfer_time(list.blob().size() * 8) +
                 model.kernel_time(stats))
                    .ms(),
                "-");
  }
  return 0;
}
