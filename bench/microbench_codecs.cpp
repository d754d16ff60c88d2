// google-benchmark wall-clock microbenchmarks of the host-side library
// primitives (encode/decode throughput across the codec zoo, adaptive
// selection, intersections). Unlike the figure benches — which report
// *simulated* time on the modeled K20 testbed — these measure this
// library's real speed on the build host. A custom reporter mirrors every
// run into BENCH_microbench_codecs.json.
#include <benchmark/benchmark.h>

#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "codec/block_codec.h"
#include "codec/codec.h"
#include "cpu/intersect.h"
#include "util/rng.h"
#include "workload/corpus.h"

using namespace griffin;

namespace {

std::vector<codec::DocId> docs_for(std::uint64_t n) {
  util::Xoshiro256 rng(n);
  return workload::make_uniform_list(
      n, static_cast<codec::DocId>(n * 32), rng);
}

void encode_bench(benchmark::State& state, codec::Scheme scheme) {
  const auto docs = docs_for(state.range(0));
  for (auto _ : state) {
    auto list = codec::BlockCompressedList::build(docs, scheme);
    benchmark::DoNotOptimize(list);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void decode_bench(benchmark::State& state, codec::Scheme scheme) {
  const auto docs = docs_for(state.range(0));
  const auto list = codec::BlockCompressedList::build(docs, scheme);
  std::vector<codec::DocId> out;
  for (auto _ : state) {
    list.decode_all(out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_SelectScheme(benchmark::State& state) {
  const auto docs = docs_for(state.range(0));
  for (auto _ : state) {
    const codec::Scheme s = codec::select_scheme(docs);
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_MergeIntersect(benchmark::State& state) {
  util::Xoshiro256 rng(5);
  const auto pair = workload::make_pair_with_ratio(
      state.range(0), 4.0, static_cast<codec::DocId>(state.range(0) * 16),
      0.4, rng);
  sim::CpuSpec spec;
  std::vector<codec::DocId> out;
  for (auto _ : state) {
    sim::CpuCostAccumulator acc(spec);
    cpu::merge_intersect(std::span<const codec::DocId>(pair.shorter),
                         std::span<const codec::DocId>(pair.longer), out, acc);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          (pair.shorter.size() + pair.longer.size()));
}

void BM_SkipIntersect(benchmark::State& state) {
  util::Xoshiro256 rng(6);
  const auto pair = workload::make_pair_with_ratio(
      state.range(0), 256.0, static_cast<codec::DocId>(state.range(0) * 8),
      0.4, rng);
  const auto longer = codec::BlockCompressedList::build(
      pair.longer, codec::Scheme::kEliasFano);
  sim::CpuSpec spec;
  std::vector<codec::DocId> out;
  for (auto _ : state) {
    sim::CpuCostAccumulator acc(spec);
    cpu::skip_intersect(pair.shorter, longer, out, acc);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * pair.shorter.size());
}

BENCHMARK(BM_SelectScheme)->Arg(1 << 14)->Arg(1 << 18);
BENCHMARK(BM_MergeIntersect)->Arg(1 << 16)->Arg(1 << 20);
BENCHMARK(BM_SkipIntersect)->Arg(1 << 18)->Arg(1 << 21);

/// Console output as usual, plus every run mirrored into a JSON array so
/// write_bench_json can emit the BENCH_microbench_codecs.json artifact.
class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& r : runs) {
      auto row = bench::Json::object();
      row["name"] = r.benchmark_name();
      row["real_time_ns"] = r.GetAdjustedRealTime();
      row["cpu_time_ns"] = r.GetAdjustedCPUTime();
      const auto it = r.counters.find("items_per_second");
      if (it != r.counters.end()) {
        row["items_per_second"] = static_cast<double>(it->second);
      }
      rows_.push_back(std::move(row));
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  bench::Json take_rows() { return std::move(rows_); }

 private:
  bench::Json rows_ = bench::Json::array();
};

}  // namespace

int main(int argc, char** argv) {
  // Encode and decode for every registered codec, so the list cannot drift
  // from the registry.
  for (const codec::Scheme s : codec::all_schemes()) {
    const std::string name = codec::scheme_name(s);
    for (const auto& [kind, fn] : {std::pair{"BM_Encode/", &encode_bench},
                                   std::pair{"BM_Decode/", &decode_bench}}) {
      benchmark::RegisterBenchmark((kind + name).c_str(), fn, s)
          ->Arg(1 << 14)
          ->Arg(1 << 18);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonCaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  auto root = bench::Json::object();
  root["bench"] = "microbench_codecs";
  root["runs"] = reporter.take_rows();
  bench::write_bench_json("microbench_codecs", root);
  return 0;
}
