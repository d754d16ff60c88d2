// Figure 8 — the GPU/CPU crossover by list-length ratio. Pairs are grouped
// by ratio ([1,16), [16,32), ..., [512,1024)) with the longer list in
// [1M, 2M], exactly as §3.2 describes. Each pair becomes a two-term
// micro-index and runs through the real engines; the timed quantity is the
// steady-state pairwise step (intermediate result already resident on the
// executing processor), read from the engines' recorded plans:
//   CPU: merge below the skip threshold, skip-pointer search above;
//   GPU: Para-EF + MergePath below the path threshold (128), parallel
//        binary search with selective block transfer at/above.
// To make the engines' *second* intersect step exactly that steady-state
// step, the shorter list is indexed twice: step 1 intersects it with itself
// (identity), leaving it as the resident intermediate for step 2 against
// the longer list — the step this figure measures, taken from the second
// IntersectStep record of QueryResult::trace.
// The paper's observation: GPU wins while ratio < ~128 (the block size),
// CPU above — which is the rule Griffin's scheduler applies.
//
// The sweep additionally re-derives the crossover per CPU vector preset
// (DESIGN.md §13): the same pairs run through the scalar baseline, the
// paper testbed's SSE4 unit, and a modern AVX2 profile. A vectorized CPU
// pulls the measured crossover *down* from the scalar [256,512) — it wins
// more of the ratio spectrum — and the JSON records both the measured
// per-preset crossover and the scheduler's analytic threshold
// (128 x crossover_scale) alongside the modeled full-decode speedup.
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "codec/codec.h"
#include "core/hybrid_engine.h"
#include "core/scheduler.h"
#include "cpu/decode.h"
#include "cpu/simd_cost.h"

using namespace griffin;

namespace {

/// The n-th (1-based) intersect record of a recorded plan.
const core::StepRecord* nth_intersect(const std::vector<core::StepRecord>& t,
                                      int n) {
  int seen = 0;
  for (const auto& r : t) {
    if (r.kind == core::StepKind::kIntersect && ++seen == n) return &r;
  }
  return nullptr;
}

struct Preset {
  const char* name;
  sim::CpuSpec spec;
};

/// Modeled decode_all time of `list` under `spec` (the Figure 12 quantity:
/// full decompression including materialization).
double decode_ms(const codec::BlockCompressedList& list,
                 const sim::CpuSpec& spec) {
  sim::CpuCostAccumulator acc(spec);
  std::vector<codec::DocId> out;
  cpu::decode_all(list, out, acc);
  return acc.time().ms();
}

}  // namespace

int main() {
  bench::print_header(
      "Figure 8: GPU/CPU Cross-Over Point by List-Length Ratio",
      "GPU faster while ratio < ~128 (the block size); CPU above");

  util::Xoshiro256 rng(808);
  const int pairs_per_group = bench::fast_mode() ? 1 : 3;
  const std::uint64_t longer_size = bench::fast_mode() ? 400'000 : 1'500'000;
  const index::DocId universe = 48'000'000;

  const std::vector<Preset> presets{{"scalar", sim::CpuSpec{}},
                                    {"sse4", sim::CpuSpec::sse4_testbed()},
                                    {"avx2", sim::CpuSpec::modern_avx2()}};

  struct Group {
    double lo, hi;
  };
  const std::vector<Group> groups{{1, 16},   {16, 32},   {32, 64},
                                  {64, 128}, {128, 256}, {256, 512},
                                  {512, 1024}};

  std::printf("%-12s %11s %11s %11s %11s %11s %8s %8s %8s\n", "ratio group",
              "CPU (ms)", "SSE4 (ms)", "AVX2 (ms)", "GPU (ms)", "GPUpipe(ms)",
              "scalar", "sse4", "avx2");
  bench::Json rows = bench::Json::array();
  std::vector<int> crossover_group(presets.size(), -1);
  int pipelined_crossover_group = -1;
  // Modeled full-decode speedup per preset (the Figure 12 quantity), on one
  // representative long list from the sweep.
  std::vector<double> decode_speedup(presets.size(), 1.0);
  bool measured_decode = false;

  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    const double mid = std::sqrt(groups[gi].lo * groups[gi].hi);
    std::vector<double> cpu_ms(presets.size(), 0.0);
    std::vector<double> cpu_util(presets.size(), 0.0);
    double gpu_ms = 0.0, gpu_pipe_ms = 0.0, gpu_xfer_ms = 0.0;
    for (int p = 0; p < pairs_per_group; ++p) {
      const auto pair =
          workload::make_pair_with_ratio(longer_size, mid, universe, 0.4, rng);
      const auto idx =
          bench::pair_index(pair, universe, codec::Scheme::kEliasFano);
      core::Query q;
      q.terms = {0, 1, 2};
      q.k = 10;

      if (!measured_decode) {
        // One long list stands in for Figure 12's full-decode sweep: same
        // list, scalar vs vectorized charges (output bit-identical).
        const auto& list = idx.list(2).docids;
        const double scalar_ms = decode_ms(list, presets[0].spec);
        for (std::size_t pi = 0; pi < presets.size(); ++pi) {
          decode_speedup[pi] = scalar_ms / decode_ms(list, presets[pi].spec);
        }
        measured_decode = true;
      }

      for (std::size_t pi = 0; pi < presets.size(); ++pi) {
        cpu::CpuEngine cpu_engine(idx, presets[pi].spec);
        const auto cpu_res = cpu_engine.execute(q);
        const auto* cpu_step = nth_intersect(cpu_res.trace, 2);
        if (cpu_step == nullptr) {
          std::fprintf(stderr, "[crossover] missing CPU step record\n");
          continue;
        }
        cpu_ms[pi] += cpu_step->duration.ms();
        cpu_util[pi] += cpu_step->simd.utilization();
      }

      // Figure 8 measures the paper's baseline GPU path: per-step device
      // allocation and no cross-query list cache (§2.3's handicap — the
      // very overheads the λ=128 rule balances against the CPU's skip
      // advantage). The serving engines pool memory by default; turn that
      // off here to reproduce the figure's conditions.
      gpu::GpuOptions gopt;
      gopt.pooled_memory = false;
      gopt.list_cache_bytes = 0;
      gpu::GpuEngine gpu_engine(idx, {}, gopt);
      const auto gpu_res = gpu_engine.execute(q);
      const auto* gpu_step = nth_intersect(gpu_res.trace, 2);

      if (gpu_step == nullptr) {
        std::fprintf(stderr, "[crossover] missing GPU step record, skipping\n");
        continue;
      }
      gpu_ms += gpu_step->duration.ms();
      // Pipelined step time: the step's wall-clock span on the timeline
      // (first issue to last completion) — double-buffered H2D chunks ride
      // under the decode kernels, so this is below the serial duration in
      // the copy-bound regimes (DESIGN.md §10).
      gpu_pipe_ms += (gpu_step->end - gpu_step->issue).ms();
      gpu_xfer_ms += gpu_step->transfer.ms();
    }
    for (std::size_t pi = 0; pi < presets.size(); ++pi) {
      cpu_ms[pi] /= pairs_per_group;
      cpu_util[pi] /= pairs_per_group;
    }
    gpu_ms /= pairs_per_group;
    gpu_pipe_ms /= pairs_per_group;
    gpu_xfer_ms /= pairs_per_group;
    const bool cpu_wins_pipelined = cpu_ms[0] < gpu_pipe_ms;
    for (std::size_t pi = 0; pi < presets.size(); ++pi) {
      if (cpu_ms[pi] < gpu_ms && crossover_group[pi] < 0) {
        crossover_group[pi] = static_cast<int>(gi);
      }
    }
    if (cpu_wins_pipelined && pipelined_crossover_group < 0) {
      pipelined_crossover_group = static_cast<int>(gi);
    }
    std::printf(
        "[%4.0f,%4.0f) %11.3f %11.3f %11.3f %11.3f %11.3f %8s %8s %8s\n",
        groups[gi].lo, groups[gi].hi, cpu_ms[0], cpu_ms[1], cpu_ms[2], gpu_ms,
        gpu_pipe_ms, cpu_ms[0] < gpu_ms ? "CPU" : "GPU",
        cpu_ms[1] < gpu_ms ? "CPU" : "GPU", cpu_ms[2] < gpu_ms ? "CPU" : "GPU");

    bench::Json row = bench::Json::object();
    row["ratio_lo"] = groups[gi].lo;
    row["ratio_hi"] = groups[gi].hi;
    row["cpu_ms"] = cpu_ms[0];
    row["cpu_sse4_ms"] = cpu_ms[1];
    row["cpu_avx2_ms"] = cpu_ms[2];
    row["cpu_sse4_lane_util"] = cpu_util[1];
    row["cpu_avx2_lane_util"] = cpu_util[2];
    row["gpu_ms"] = gpu_ms;
    row["gpu_pipelined_ms"] = gpu_pipe_ms;
    row["gpu_transfer_ms"] = gpu_xfer_ms;
    row["winner"] = cpu_ms[0] < gpu_ms ? "cpu" : "gpu";
    row["winner_sse4"] = cpu_ms[1] < gpu_ms ? "cpu" : "gpu";
    row["winner_avx2"] = cpu_ms[2] < gpu_ms ? "cpu" : "gpu";
    row["pipelined_winner"] = cpu_wins_pipelined ? "cpu" : "gpu";
    rows.push_back(std::move(row));
  }
  bench::Json preset_rows = bench::Json::array();
  for (std::size_t pi = 0; pi < presets.size(); ++pi) {
    const int cg = crossover_group[pi];
    const double measured_ratio =
        cg >= 0 ? std::sqrt(groups[static_cast<std::size_t>(cg)].lo *
                            groups[static_cast<std::size_t>(cg)].hi)
                : -1.0;
    const double threshold = core::SchedulerOptions{}.ratio_threshold *
                             cpu::simd::crossover_scale(presets[pi].spec);
    if (cg >= 0) {
      std::printf("\n%-6s crossover enters group [%.0f,%.0f) "
                  "(measured point %.0f; scheduler threshold %.1f)",
                  presets[pi].name, groups[static_cast<std::size_t>(cg)].lo,
                  groups[static_cast<std::size_t>(cg)].hi, measured_ratio,
                  threshold);
    } else {
      std::printf("\n%-6s: no crossover within the swept ratios",
                  presets[pi].name);
    }
    bench::Json pr = bench::Json::object();
    pr["name"] = presets[pi].name;
    pr["crossover_group"] = cg;
    pr["measured_crossover_ratio"] = measured_ratio;
    pr["scheduler_threshold"] = threshold;
    pr["simd_decode_speedup"] = decode_speedup[pi];
    preset_rows.push_back(std::move(pr));
  }
  std::printf("\n(paper's rule: 128; scalar measured crossover stays above it,"
              " SIMD presets pull it toward — never below — 128.)\n");
  if (pipelined_crossover_group >= 0) {
    std::printf("With copy/compute overlap the scalar crossover shifts to "
                "[%.0f,%.0f).\n",
                groups[pipelined_crossover_group].lo,
                groups[pipelined_crossover_group].hi);
  } else {
    std::printf("With copy/compute overlap the GPU wins every swept group.\n");
  }
  std::printf("Modeled full-decode speedup vs scalar: sse4 %.2fx, avx2 %.2fx\n",
              decode_speedup[1], decode_speedup[2]);

  // Per-codec analytic crossover: the scheduler's closed-form estimates with
  // StepShape::longer_scheme set, swept over the ratio axis. One
  // representative long list per scheme supplies the actual compressed
  // bytes-per-posting for the transfer term, so both codec levers — CPU
  // decode cost and PCIe payload — move the balance point.
  std::printf("\nPer-codec analytic crossover (scheduler cost model):\n");
  std::printf("  %-10s %14s %18s\n", "codec", "bytes/posting",
              "crossover ratio");
  const core::Scheduler sched({}, sim::HardwareSpec{});
  const auto probe_docs =
      workload::make_uniform_list(longer_size, universe, rng);
  bench::Json codec_rows = bench::Json::array();
  for (const codec::Scheme s : codec::all_schemes()) {
    const auto list = codec::BlockCompressedList::build(probe_docs, s);
    const double bpe = static_cast<double>(list.compressed_bytes()) /
                       static_cast<double>(longer_size);
    double cross = -1.0;
    for (double r = 1.0; r <= 4096.0; r *= 1.05) {
      core::StepShape shape;
      shape.longer = longer_size;
      shape.shorter = std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(longer_size / r));
      shape.longer_bytes = list.compressed_bytes();
      shape.longer_scheme = s;
      if (sched.estimate_cpu(shape) < sched.estimate_gpu(shape)) {
        cross = r;
        break;
      }
    }
    if (cross >= 0) {
      std::printf("  %-10s %14.2f %18.0f\n", codec::scheme_name(s).c_str(),
                  bpe, cross);
    } else {
      std::printf("  %-10s %14.2f %18s\n", codec::scheme_name(s).c_str(), bpe,
                  "none<=4096");
    }
    bench::Json cr = bench::Json::object();
    cr["scheme"] = codec::scheme_name(s);
    cr["bytes_per_posting"] = bpe;
    cr["analytic_crossover_ratio"] = cross;
    codec_rows.push_back(std::move(cr));
  }
  std::printf("(serial-fallback codecs shift the balance toward the CPU: the "
              "GPU pays their per-posting decode penalty.)\n");

  // Three-way split band (DESIGN.md §15): the binary crossover generalizes
  // into a [lambda_lo, lambda_hi] band where the scheduler splits the step
  // across both processors. Swept analytically with the default (ratio +
  // band fall-through) policy per SIMD preset: a big resident probe, the
  // long list priced at the EF sweep list's real bytes-per-posting.
  std::printf("\nThree-way split band (default policy, probe %u):\n",
              1u << 20);
  std::printf("  %-6s %10s %10s %10s %10s\n", "preset", "lambda_lo",
              "lambda_hi", "alpha_mid", "structure");
  const auto band_list =
      codec::BlockCompressedList::build(probe_docs, codec::Scheme::kEliasFano);
  const double band_bpe = static_cast<double>(band_list.compressed_bytes()) /
                          static_cast<double>(longer_size);
  bench::Json band_rows = bench::Json::array();
  bench::Gates gates("crossover");
  for (const auto& preset : presets) {
    sim::HardwareSpec hw;
    hw.cpu = preset.spec;
    const core::Scheduler ssched({}, hw);
    const std::uint64_t probe = 1u << 20;
    double lo = -1.0, hi = -1.0;
    bool contiguous = true;  // kGpu below the band, kCpu above, splits inside
    for (double r = 1.0; r <= 4096.0; r *= 1.02) {
      core::StepShape sh;
      sh.shorter = probe;
      sh.longer = static_cast<std::uint64_t>(r * static_cast<double>(probe));
      sh.longer_bytes = static_cast<std::uint64_t>(
          band_bpe * static_cast<double>(sh.longer));
      sh.current_location = core::Placement::kCpu;
      switch (ssched.decide(sh)) {
        case core::Placement::kSplit:
          if (lo < 0) lo = r;
          if (hi >= 0) contiguous = false;  // split after the band closed
          break;
        case core::Placement::kGpu:
          if (lo >= 0) contiguous = false;  // GPU inside/after the band
          break;
        case core::Placement::kCpu:
          if (lo >= 0 && hi < 0) hi = r;  // first CPU above closes the band
          break;
      }
    }
    double alpha_mid = -1.0;
    if (lo > 0 && hi > lo) {
      core::StepShape sh;
      sh.shorter = probe;
      sh.longer = static_cast<std::uint64_t>(std::sqrt(lo * hi) *
                                             static_cast<double>(probe));
      sh.longer_bytes = static_cast<std::uint64_t>(
          band_bpe * static_cast<double>(sh.longer));
      sh.current_location = core::Placement::kCpu;
      alpha_mid = ssched.split_alpha(sh);
    }
    std::printf("  %-6s %10.1f %10.1f %10.3f %10s\n", preset.name, lo, hi,
                alpha_mid, contiguous ? "gpu|split|cpu" : "BROKEN");
    // A real band for every preset, structured gpu|split|cpu, with the
    // mid-band alpha strictly interior: both processors get real work.
    const std::string name = preset.name;
    gates.check(lo < hi, name + ": empty split band");
    gates.check(contiguous, name + ": split band not gpu|split|cpu");
    gates.check(alpha_mid > 0.0 && alpha_mid < 1.0,
                name + ": degenerate mid-band alpha");
    bench::Json br = bench::Json::object();
    br["name"] = preset.name;
    br["lambda_lo"] = lo;
    br["lambda_hi"] = hi;
    br["alpha_mid"] = alpha_mid;
    br["contiguous"] = contiguous;
    band_rows.push_back(std::move(br));
  }
  std::printf("(inside the band both processors finish in comparable time, "
              "so co-executing one step beats either alone.)\n");

  bench::Json root = bench::Json::object();
  root["bench"] = "crossover";
  root["fast_mode"] = bench::fast_mode();
  root["longer_size"] = longer_size;
  root["groups"] = std::move(rows);
  root["crossover_group"] = crossover_group[0];
  root["pipelined_crossover_group"] = pipelined_crossover_group;
  root["presets"] = std::move(preset_rows);
  root["codec_crossover"] = std::move(codec_rows);
  root["split_band"] = std::move(band_rows);
  bench::write_bench_json("crossover", root);

  // The AVX2 preset keeps its modeled full-decode win in the SIMD-BP128
  // ballpark (Lemire-Boytsov-Kurz measure 4-8x; 2x catches calibration
  // regressions, not noise), and a vectorized CPU only ever shrinks the
  // GPU-favored band: every preset crosses over, avx2 <= sse4 <= scalar.
  // (presets = scalar, sse4, avx2.)
  gates.check(decode_speedup[2] >= 2.0, "avx2 decode speedup below 2.0");
  for (std::size_t pi = 0; pi < presets.size(); ++pi) {
    gates.check(crossover_group[pi] >= 0,
                std::string(presets[pi].name) + ": no crossover in the sweep");
  }
  gates.check(crossover_group[2] <= crossover_group[1] &&
                  crossover_group[1] <= crossover_group[0],
              "SIMD presets must only pull the crossover down");
  return gates.exit_code();
}
