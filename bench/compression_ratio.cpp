// Table 1 — compression ratio across the codec zoo over the corpus's
// inverted lists (paper: PForDelta 3.3, EF 4.6; ratio = raw 32-bit size /
// compressed size, skip tables included), plus the adaptive per-list
// selector. CI asserts the adaptive total never exceeds the best fixed
// scheme's total (it cannot, by construction — codec/codec.h).
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "codec/block_codec.h"
#include "codec/codec.h"
#include "util/rng.h"

using namespace griffin;

int main() {
  bench::print_header(
      "Table 1: Compression Ratio Comparison",
      "PForDelta 3.3, EF 4.6 (ClueWeb12 lists; here: synthetic stand-in)");

  const auto cfg = bench::paper_corpus_config();
  util::Xoshiro256 rng(cfg.seed);

  constexpr std::size_t kNum = codec::kNumSchemes;
  std::uint64_t raw_bytes = 0;
  std::uint64_t fixed_bytes[kNum] = {};
  std::uint64_t adaptive_bytes = 0;
  std::uint64_t postings = 0;
  std::uint64_t picks[kNum] = {};  // adaptive selections per scheme

  // Sample lists across the rank spectrum (every rank would just repeat the
  // same gap statistics); weight by actual postings so the aggregate matches
  // whole-corpus ratios.
  const std::uint32_t rank_step = std::max(1u, cfg.num_terms / 64);
  for (std::uint32_t rank = 1; rank <= cfg.num_terms; rank += rank_step) {
    const std::uint64_t n = workload::list_size_for_rank(cfg, rank);
    const auto docs = workload::make_uniform_list(n, cfg.num_docs, rng);
    const double weight = static_cast<double>(rank_step);
    raw_bytes += static_cast<std::uint64_t>(weight * 4.0 * n);
    postings += static_cast<std::uint64_t>(weight * n);
    for (const codec::Scheme s : codec::all_schemes()) {
      const auto list = codec::BlockCompressedList::build(docs, s);
      fixed_bytes[static_cast<std::size_t>(s)] +=
          static_cast<std::uint64_t>(weight * list.compressed_bytes());
    }
    const codec::Scheme pick = codec::select_scheme(docs);
    picks[static_cast<std::size_t>(pick)] +=
        static_cast<std::uint64_t>(weight);
    const auto adaptive = codec::BlockCompressedList::build(docs, pick);
    adaptive_bytes +=
        static_cast<std::uint64_t>(weight * adaptive.compressed_bytes());
  }

  auto ratio_of = [&](std::uint64_t bytes) {
    return static_cast<double>(raw_bytes) / static_cast<double>(bytes);
  };
  auto bits_per_posting = [&](std::uint64_t bytes) {
    return 8.0 * static_cast<double>(bytes) / static_cast<double>(postings);
  };

  auto root = bench::Json::object();
  root["bench"] = "compression_ratio";
  root["fast_mode"] = bench::fast_mode();
  root["raw_bytes"] = raw_bytes;
  root["postings"] = postings;

  std::printf("%-12s %18s %18s\n", "Scheme", "Compression Ratio",
              "bits/posting");
  auto schemes = bench::Json::array();
  std::uint64_t best_fixed = 0;
  for (const codec::Scheme s : codec::all_schemes()) {
    const std::uint64_t bytes = fixed_bytes[static_cast<std::size_t>(s)];
    if (best_fixed == 0 || bytes < best_fixed) best_fixed = bytes;
    std::printf("%-12s %18.2f %18.2f\n", codec::scheme_name(s).c_str(),
                ratio_of(bytes), bits_per_posting(bytes));
    auto row = bench::Json::object();
    row["scheme"] = codec::scheme_name(s);
    row["compressed_bytes"] = bytes;
    row["compression_ratio"] = ratio_of(bytes);
    row["bits_per_posting"] = bits_per_posting(bytes);
    schemes.push_back(std::move(row));
  }
  std::printf("%-12s %18.2f %18.2f\n", "Adaptive", ratio_of(adaptive_bytes),
              bits_per_posting(adaptive_bytes));
  root["schemes"] = std::move(schemes);
  root["adaptive_total_bytes"] = adaptive_bytes;
  root["adaptive_compression_ratio"] = ratio_of(adaptive_bytes);
  root["adaptive_bits_per_posting"] = bits_per_posting(adaptive_bytes);
  root["best_fixed_bytes"] = best_fixed;

  std::printf("\nAdaptive picks by scheme (posting-weighted list counts):\n");
  auto picked = bench::Json::object();
  for (const codec::Scheme s : codec::all_schemes()) {
    const std::uint64_t c = picks[static_cast<std::size_t>(s)];
    if (c > 0) std::printf("  %-10s %8llu\n", codec::scheme_name(s).c_str(),
                           static_cast<unsigned long long>(c));
    picked[codec::scheme_name(s)] = c;
  }
  root["adaptive_picks"] = std::move(picked);

  const auto at = [&](codec::Scheme s) {
    return fixed_bytes[static_cast<std::size_t>(s)];
  };
  const double r_pf = ratio_of(at(codec::Scheme::kPForDelta));
  const double r_ef = ratio_of(at(codec::Scheme::kEliasFano));
  std::printf("\nEF / PForDelta ratio improvement: %.2fx (paper: 1.4x)\n",
              r_ef / r_pf);
  std::printf("Adaptive vs best fixed: %llu vs %llu bytes (%s)\n",
              static_cast<unsigned long long>(adaptive_bytes),
              static_cast<unsigned long long>(best_fixed),
              adaptive_bytes <= best_fixed ? "OK" : "REGRESSION");
  bench::write_bench_json("compression_ratio", root);
  // The selector sizes every eligible codec exactly and keeps the smallest,
  // so its total can never exceed the best fixed scheme's (codec/codec.h):
  // a violation means the selector and the encoders disagree about sizes.
  bench::Gates gates("compression_ratio");
  gates.check(adaptive_bytes <= best_fixed,
              "adaptive total exceeds the best fixed scheme's");
  return gates.exit_code();
}
