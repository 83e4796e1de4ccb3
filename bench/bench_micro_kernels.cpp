// Micro-kernel benchmarks (google-benchmark): the runtime-substrate
// primitives the matching kernels are built from, plus small end-to-end
// algorithm runs for quick regression tracking.
//
// Results additionally land in $GRAFTMATCH_RESULTS_DIR/micro_kernels.csv
// (one row per benchmark), so the byte-array-vs-bitmap kernel choice in
// the bottom-up inner loop is a recorded measurement, not an assertion.
#include <benchmark/benchmark.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "graftmatch/engine/frontier_kernels.hpp"
#include "graftmatch/graftmatch.hpp"
#include "graftmatch/runtime/alias_table.hpp"
#include "graftmatch/runtime/atomics.hpp"
#include "graftmatch/runtime/epoch_array.hpp"
#include "graftmatch/runtime/frontier_queue.hpp"

namespace {

using namespace graftmatch;

void BM_FrontierQueueSerialPush(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  FrontierQueue<vid_t> queue(count);
  for (auto _ : state) {
    queue.clear();
    for (std::size_t i = 0; i < count; ++i) {
      queue.push(static_cast<vid_t>(i));
    }
    benchmark::DoNotOptimize(queue.items().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(count));
}
BENCHMARK(BM_FrontierQueueSerialPush)->Arg(1 << 12)->Arg(1 << 16);

void BM_FrontierQueueHandlePush(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  FrontierQueue<vid_t> queue(count);
  for (auto _ : state) {
    queue.clear();
    {
      auto handle = queue.handle();
      for (std::size_t i = 0; i < count; ++i) {
        handle.push(static_cast<vid_t>(i));
      }
    }
    benchmark::DoNotOptimize(queue.items().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(count));
}
BENCHMARK(BM_FrontierQueueHandlePush)->Arg(1 << 12)->Arg(1 << 16);

void BM_ClaimFlag(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> flags(count, 0);
  for (auto _ : state) {
    state.PauseTiming();
    std::fill(flags.begin(), flags.end(), 0);
    state.ResumeTiming();
    for (std::size_t i = 0; i < count; ++i) {
      benchmark::DoNotOptimize(claim_flag(flags[i]));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(count));
}
BENCHMARK(BM_ClaimFlag)->Arg(1 << 16);

void BM_AliasTableSample(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  std::vector<double> weights(count);
  for (std::size_t i = 0; i < count; ++i) {
    weights[i] = 1.0 / static_cast<double>(i + 1);
  }
  const AliasTable table{std::span<const double>(weights)};
  Xoshiro256 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AliasTableSample)->Arg(1 << 16);

void BM_Xoshiro(benchmark::State& state) {
  Xoshiro256 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Xoshiro);

void BM_CsrConstruction(benchmark::State& state) {
  ErdosRenyiParams params;
  params.nx = params.ny = state.range(0);
  params.edges = 8 * state.range(0);
  const BipartiteGraph prototype = generate_erdos_renyi(params);
  const EdgeList edges = prototype.to_edges();
  for (auto _ : state) {
    benchmark::DoNotOptimize(BipartiteGraph::from_edges(edges));
  }
  state.SetItemsProcessed(state.iterations() * edges.size());
}
BENCHMARK(BM_CsrConstruction)->Arg(1 << 14);

void BM_KarpSipser(benchmark::State& state) {
  ChungLuParams params;
  params.nx = params.ny = state.range(0);
  params.avg_degree = 8.0;
  const BipartiteGraph g = generate_chung_lu(params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(karp_sipser(g).cardinality());
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_KarpSipser)->Arg(1 << 14);

void BM_RandomizedGreedy(benchmark::State& state) {
  ChungLuParams params;
  params.nx = params.ny = state.range(0);
  params.avg_degree = 8.0;
  const BipartiteGraph g = generate_chung_lu(params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(randomized_greedy(g, 1).cardinality());
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_RandomizedGreedy)->Arg(1 << 14);

// End-to-end algorithm micro-runs on a fixed mid-size web-like graph.
const BipartiteGraph& micro_graph() {
  static const BipartiteGraph g = [] {
    WebCrawlParams params;
    params.nx = params.ny = 1 << 15;
    params.seed = 3;
    return generate_webcrawl(params);
  }();
  return g;
}

void BM_MsBfsGraft(benchmark::State& state) {
  const BipartiteGraph& g = micro_graph();
  const Matching initial = randomized_greedy(g, 1);
  for (auto _ : state) {
    Matching m = initial;
    const RunStats stats = ms_bfs_graft(g, m);
    benchmark::DoNotOptimize(stats.final_cardinality);
  }
}
BENCHMARK(BM_MsBfsGraft)->Unit(benchmark::kMillisecond);

// Word-vs-bit A/B on the same graph and initial matching as
// BM_MsBfsGraft: the two rows land side by side in the CSV, so the
// kernel choice stays a recorded measurement.
void BM_MsBfsGraftWord(benchmark::State& state) {
  const BipartiteGraph& g = micro_graph();
  const Matching initial = randomized_greedy(g, 1);
  RunConfig config;
  config.bottom_up_kernel = BottomUpKernel::kWord;
  for (auto _ : state) {
    Matching m = initial;
    const RunStats stats = ms_bfs_graft(g, m, config);
    benchmark::DoNotOptimize(stats.final_cardinality);
  }
}
BENCHMARK(BM_MsBfsGraftWord)->Unit(benchmark::kMillisecond);

void BM_PothenFan(benchmark::State& state) {
  const BipartiteGraph& g = micro_graph();
  const Matching initial = randomized_greedy(g, 1);
  for (auto _ : state) {
    Matching m = initial;
    const RunStats stats = pothen_fan(g, m);
    benchmark::DoNotOptimize(stats.final_cardinality);
  }
}
BENCHMARK(BM_PothenFan)->Unit(benchmark::kMillisecond);

void BM_HopcroftKarp(benchmark::State& state) {
  const BipartiteGraph& g = micro_graph();
  const Matching initial = randomized_greedy(g, 1);
  for (auto _ : state) {
    Matching m = initial;
    const RunStats stats = hopcroft_karp(g, m);
    benchmark::DoNotOptimize(stats.final_cardinality);
  }
}
BENCHMARK(BM_HopcroftKarp)->Unit(benchmark::kMillisecond);

void BM_KoenigCertificate(benchmark::State& state) {
  const BipartiteGraph& g = micro_graph();
  Matching m = randomized_greedy(g, 1);
  ms_bfs_graft(g, m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(is_maximum_matching(g, m));
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_KoenigCertificate)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------
// Bottom-up eligibility representations: byte arrays vs packed bitmap.
//
// The bottom-up inner loop asks, per reverse edge, "does x sit in an
// active tree". The pre-epoch layout answered with two DEPENDENT loads
// (root_of[x], then leaf_of[that root]); the current kernel answers
// with one bit test against the per-pass active_x bitmap. These entries
// measure exactly that load chain over a real reverse-CSR scan so the
// representation choice stays a recorded number. State is read-only per
// iteration (no claims), isolating the eligibility cost from the
// attach/queue machinery measured elsewhere.
struct BottomUpScenario {
  BipartiteGraph graph;
  std::vector<vid_t> root_of;        // byte/word layout: x -> its root
  std::vector<vid_t> leaf_of;        // byte/word layout: root -> leaf
  AtomicBitmap active;               // packed layout: one bit per x
  std::vector<std::uint8_t> visited; // byte layout: one byte per y
  AtomicBitmap visited_bits;         // packed layout: one bit per y
};

// `active_every`: 1-in-N X vertices are in a live tree (the bottom-up
// sweep runs when frontiers are LARGE, but per-edge hit rates stay well
// below 1; 1/8 is representative of mid-phase road/web instances).
// `visited_every`: 1-in-N Y vertices already visited.
const BottomUpScenario& bottom_up_scenario() {
  static const BottomUpScenario s = [] {
    BottomUpScenario out;
    WebCrawlParams params;
    params.nx = params.ny = 1 << 16;
    params.seed = 9;
    out.graph = generate_webcrawl(params);
    const vid_t nx = out.graph.num_x();
    const vid_t ny = out.graph.num_y();
    out.root_of.assign(static_cast<std::size_t>(nx), kInvalidVertex);
    out.leaf_of.assign(static_cast<std::size_t>(nx), kInvalidVertex);
    out.active.reset(static_cast<std::size_t>(nx));
    out.visited.assign(static_cast<std::size_t>(ny), 0);
    out.visited_bits.reset(static_cast<std::size_t>(ny));
    Xoshiro256 rng(41);
    for (vid_t x = 0; x < nx; ++x) {
      if (rng.below(8) != 0) continue;
      const auto root = static_cast<vid_t>(rng.below(
          static_cast<std::uint64_t>(nx)));
      out.root_of[static_cast<std::size_t>(x)] = root;
      // Half the referenced trees are dead (their root has a leaf):
      // the byte layout must pay the second load to find out.
      const bool dead = rng.below(2) == 0;
      out.leaf_of[static_cast<std::size_t>(root)] =
          dead ? root : kInvalidVertex;
      if (!dead) out.active.set_serial(static_cast<std::size_t>(x));
    }
    for (vid_t y = 0; y < ny; ++y) {
      if (rng.below(4) == 0) continue;  // 3-in-4 visited
      out.visited[static_cast<std::size_t>(y)] = 1;
      out.visited_bits.set_serial(static_cast<std::size_t>(y));
    }
    return out;
  }();
  return s;
}

// Byte/word layout: eligibility is root_of[x] (load 1) being valid and
// leaf_of[root] (dependent load 2) being clear -- the pre-epoch
// in_active_tree chain, inlined.
void BM_BottomUpEligibilityByteArrays(benchmark::State& state) {
  const BottomUpScenario& s = bottom_up_scenario();
  const engine::Adjacency adj = engine::y_adjacency(s.graph);
  const vid_t ny = s.graph.num_y();
  std::int64_t edges = 0;
  for (auto _ : state) {
    std::int64_t attached = 0;
    edges = 0;
    for (vid_t y = 0; y < ny; ++y) {
      if (s.visited[static_cast<std::size_t>(y)] != 0) continue;
      for (const vid_t x : adj.of(y)) {
        ++edges;
        const vid_t root = s.root_of[static_cast<std::size_t>(x)];
        if (root == kInvalidVertex) continue;
        if (s.leaf_of[static_cast<std::size_t>(root)] != kInvalidVertex) {
          continue;
        }
        ++attached;
        break;
      }
    }
    benchmark::DoNotOptimize(attached);
  }
  state.SetItemsProcessed(state.iterations() * edges);
}
BENCHMARK(BM_BottomUpEligibilityByteArrays)->Unit(benchmark::kMillisecond);

// Packed layout: the same scan with eligibility collapsed to one
// active_x bit test and visited packed to one bit per y.
void BM_BottomUpEligibilityBitmap(benchmark::State& state) {
  const BottomUpScenario& s = bottom_up_scenario();
  const engine::Adjacency adj = engine::y_adjacency(s.graph);
  const vid_t ny = s.graph.num_y();
  std::int64_t edges = 0;
  for (auto _ : state) {
    std::int64_t attached = 0;
    edges = 0;
    for (vid_t y = 0; y < ny; ++y) {
      if (s.visited_bits.test(static_cast<std::size_t>(y))) continue;
      for (const vid_t x : adj.of(y)) {
        ++edges;
        if (!s.active.test(static_cast<std::size_t>(x))) continue;
        ++attached;
        break;
      }
    }
    benchmark::DoNotOptimize(attached);
  }
  state.SetItemsProcessed(state.iterations() * edges);
}
BENCHMARK(BM_BottomUpEligibilityBitmap)->Unit(benchmark::kMillisecond);

// Candidate compaction: rebuild the bottom-up candidate list (all
// unvisited y) from each representation. Byte layout tests every
// element through collect_if; packed layout iterates zero bits with
// count-trailing-zeros, skipping all-ones words in one compare.
void BM_CompactUnvisitedByteArray(benchmark::State& state) {
  const BottomUpScenario& s = bottom_up_scenario();
  const vid_t ny = s.graph.num_y();
  FrontierQueue<vid_t> out(static_cast<std::size_t>(ny));
  for (auto _ : state) {
    out.clear();
    engine::collect_if(ny, out, [&](vid_t y) {
      return s.visited[static_cast<std::size_t>(y)] == 0;
    });
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(ny));
}
BENCHMARK(BM_CompactUnvisitedByteArray);

void BM_CompactUnvisitedBitmap(benchmark::State& state) {
  const BottomUpScenario& s = bottom_up_scenario();
  const vid_t ny = s.graph.num_y();
  FrontierQueue<vid_t> out(static_cast<std::size_t>(ny));
  for (auto _ : state) {
    out.clear();
    engine::for_each_zero_bit(s.visited_bits.words(),
                              static_cast<std::int64_t>(ny), out,
                              [](std::int64_t y, auto& handle) {
                                handle.push(static_cast<vid_t>(y));
                              });
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(ny));
}
BENCHMARK(BM_CompactUnvisitedBitmap);

// Claim granularity: 64 per-bit fetch_or claims vs one claim_word CAS
// per word -- the primitive trade the word-level bottom-up kernel
// makes (runtime/epoch_array.hpp).
void BM_ClaimBitsPerBit(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  AtomicBitmap bits;
  bits.reset(count);
  for (auto _ : state) {
    state.PauseTiming();
    bits.clear_all();
    state.ResumeTiming();
    std::int64_t won = 0;
    for (std::size_t i = 0; i < count; ++i) {
      won += bits.claim(i) ? 1 : 0;
    }
    benchmark::DoNotOptimize(won);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(count));
}
BENCHMARK(BM_ClaimBitsPerBit)->Arg(1 << 16);

void BM_ClaimWholeWords(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  AtomicBitmap bits;
  bits.reset(count);
  const std::size_t words = bits.word_count();
  for (auto _ : state) {
    state.PauseTiming();
    bits.clear_all();
    state.ResumeTiming();
    std::int64_t won = 0;
    for (std::size_t w = 0; w < words; ++w) {
      won += std::popcount(bits.claim_word(w, ~std::uint64_t{0}));
    }
    benchmark::DoNotOptimize(won);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(count));
}
BENCHMARK(BM_ClaimWholeWords)->Arg(1 << 16);

// Cardinality gate over both kernels with direction optimization on
// and off: every combination must reproduce the oracle cardinality on
// each roster instance (scaled by --size). A perf A/B from an arm that
// gets the answer wrong is worse than no A/B, so main() turns any
// mismatch into a nonzero exit for CI.
int run_cardinality_gate() {
  const std::vector<std::string> roster = {"hugetrace-like", "copapers-like",
                                           "wikipedia-like"};
  const BottomUpKernel kernels[] = {BottomUpKernel::kBit,
                                    BottomUpKernel::kWord};
  int failures = 0;
  std::printf("\ncardinality gate: 2 kernels x dir-opt on/off on %zu "
              "instances\n",
              roster.size());
  for (const std::string& name : roster) {
    const bench::Workload w = bench::make_workload(name);
    const std::int64_t oracle = maximum_matching_cardinality(w.graph);
    for (const BottomUpKernel kernel : kernels) {
      for (const bool direction_optimizing : {true, false}) {
        RunConfig config;
        config.direction_optimizing = direction_optimizing;
        config.bottom_up_kernel = kernel;
        Matching m = bench::make_initial_matching(w.graph);
        const RunStats stats = ms_bfs_graft(w.graph, m, config);
        if (stats.final_cardinality != oracle) {
          ++failures;
          std::fprintf(stderr,
                       "CARDINALITY MISMATCH on %s (kernel=%s dir-opt=%s): "
                       "got %lld, oracle %lld\n",
                       w.name.c_str(), to_string(kernel).c_str(),
                       direction_optimizing ? "on" : "off",
                       static_cast<long long>(stats.final_cardinality),
                       static_cast<long long>(oracle));
        }
      }
    }
  }
  std::printf("cardinality gate: %s\n",
              failures == 0 ? "all combinations match the oracle" : "FAILED");
  return failures;
}

// Console output plus a CSV artifact: every per-iteration run lands as
// one row in $GRAFTMATCH_RESULTS_DIR/micro_kernels.csv so CI can diff
// the byte-vs-bitmap numbers across commits.
class CsvTeeReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration) continue;
      double items_per_second = 0.0;
      const auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) items_per_second = it->second;
      rows_.push_back({run.benchmark_name(),
                       bench::CsvWriter::cell(run.GetAdjustedRealTime()),
                       benchmark::GetTimeUnitString(run.time_unit),
                       bench::CsvWriter::cell(items_per_second),
                       bench::CsvWriter::cell(
                           static_cast<std::int64_t>(run.iterations))});
    }
    ConsoleReporter::ReportRuns(reports);
  }

  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

 private:
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);  // consumes --benchmark_* flags
  graftmatch::bench::apply_cli_overrides(argc, argv);
  CsvTeeReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  graftmatch::bench::CsvWriter csv(
      "micro_kernels",
      {"benchmark", "real_time", "time_unit", "items_per_sec", "iterations"});
  for (const auto& row : reporter.rows()) csv.row(row);
  std::printf("CSV artifact: %s\n", csv.path().c_str());
  return run_cardinality_gate() == 0 ? 0 : 1;
}
