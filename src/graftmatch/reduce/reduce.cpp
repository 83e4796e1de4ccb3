#include "graftmatch/reduce/reduce.hpp"

#include <numeric>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "graftmatch/obs/trace.hpp"
#include "graftmatch/runtime/atomics.hpp"
#include "graftmatch/runtime/parallel.hpp"
#include "graftmatch/runtime/timer.hpp"

namespace graftmatch::reduce {
namespace {

// Below this many edges every phase runs serially; the property and
// exhaustive tests reduce hundreds of thousands of tiny graphs, and a
// fork/join per phase would dominate. Results are identical either way
// (the parallel phases are per-row; rule application is always serial).
constexpr std::int64_t kSerialThreshold = 1 << 12;

class Reducer {
 public:
  explicit Reducer(const BipartiteGraph& g)
      : g_(g),
        serial_(g.num_edges() < kSerialThreshold),
        alive_x_(static_cast<std::size_t>(g.num_x()), 1),
        alive_y_(static_cast<std::size_t>(g.num_y()), 1),
        queued_(static_cast<std::size_t>(g.num_x()), 0) {
    stats_.collected = true;
    stats_.mode = ReduceMode::kDegree1;
  }

  Reduction run() {
    Reduction out;
    out.mode = ReduceMode::kDegree1;
    out.orig_nx = g_.num_x();
    out.orig_ny = g_.num_y();

    const auto mode = static_cast<std::int64_t>(ReduceMode::kDegree1);
    obs::emit_begin(obs::names::kReduce, mode);
    {
      const Timer timer;
      run_rounds();
      stats_.reduce_seconds = timer.elapsed();
    }
    {
      const Timer timer;
      obs::emit_begin(obs::names::kReduceCompact);
      compact(out);
      obs::emit_end(obs::names::kReduceCompact,
                    out.identity ? g_.num_edges() : out.kernel.num_edges());
      stats_.compact_seconds = timer.elapsed();
    }
    obs::emit_end(obs::names::kReduce, mode);

    const BipartiteGraph& kernel = out.identity ? g_ : out.kernel;
    stats_.kernel_nx = kernel.num_x();
    stats_.kernel_ny = kernel.num_y();
    stats_.kernel_edges = kernel.num_edges();
    stats_.vertices_removed = (out.orig_nx - kernel.num_x()) +
                              (out.orig_ny - kernel.num_y());
    stats_.edges_removed = g_.num_edges() - kernel.num_edges();

    out.ops = std::move(ops_);
    out.stats = stats_;
    return out;
  }

 private:
  /// Rounds with exact live-degree counters: an X vertex's live degree
  /// is a counter that decrements when a neighbor dies -- no adjacency
  /// rescans to classify, and the whole reduction is O(nx + edges of
  /// removed vertices). Only the counter initialization is parallel;
  /// every decrement happens in the serial apply loop, so the op log
  /// is identical at every thread count.
  void run_rounds() {
    const vid_t nx = g_.num_x();
    deg_.resize(static_cast<std::size_t>(nx));
    if (serial_) {
      for (vid_t x = 0; x < nx; ++x) {
        deg_[static_cast<std::size_t>(x)] = g_.degree_x(x);
      }
    } else {
      parallel_region([&] {
#pragma omp for schedule(static)
        for (std::int64_t x = 0; x < nx; ++x) {
          deg_[static_cast<std::size_t>(x)] =
              g_.degree_x(static_cast<vid_t>(x));
        }
      });
    }

    std::vector<vid_t> candidates;
    for (vid_t x = 0; x < nx; ++x) {
      if (deg_[static_cast<std::size_t>(x)] <= 1) {
        queued_[static_cast<std::size_t>(x)] = 1;
        candidates.push_back(x);
      }
    }

    std::vector<vid_t> next;
    while (!candidates.empty()) {
      ++stats_.rounds;
      obs::emit_begin(obs::names::kReduceRound, stats_.rounds);
      std::int64_t ops_this_round = 0;
      next.clear();
      for (const vid_t x : candidates) {
        queued_[static_cast<std::size_t>(x)] = 0;
        if (!alive_x_[static_cast<std::size_t>(x)]) continue;
        if (deg_[static_cast<std::size_t>(x)] == 0) {
          alive_x_[static_cast<std::size_t>(x)] = 0;
          ++stats_.isolated_x;
          ++ops_this_round;
          continue;
        }
        // Exactly one live neighbor left; find it and force the match.
        vid_t r = kInvalidVertex;
        for (const vid_t y : g_.neighbors_of_x(x)) {
          if (alive_y_[static_cast<std::size_t>(y)]) {
            r = y;
            break;
          }
        }
        ops_.push_back({x, r});
        alive_x_[static_cast<std::size_t>(x)] = 0;
        alive_y_[static_cast<std::size_t>(r)] = 0;
        ++stats_.forced_matches;
        ++ops_this_round;
        for (const vid_t x2 : g_.neighbors_of_y(r)) {
          if (!alive_x_[static_cast<std::size_t>(x2)]) continue;
          if (--deg_[static_cast<std::size_t>(x2)] <= 1 &&
              !queued_[static_cast<std::size_t>(x2)]) {
            queued_[static_cast<std::size_t>(x2)] = 1;
            next.push_back(x2);
          }
        }
      }
      obs::emit_end(obs::names::kReduceRound, stats_.rounds, ops_this_round);
      candidates.swap(next);
    }
  }

  void compact(Reduction& out) {
    // No rule fired: the graph IS its own kernel. Skip the CSR rebuild
    // and leave kernel/maps empty (identity contract, see Reduction);
    // degree-0 Y vertices, which no rule touches anyway, stay put.
    if (ops_.empty() && stats_.isolated_x == 0) {
      out.identity = true;
      return;
    }

    // Payoff gate: compaction is a full O(n + m) CSR rebuild, so a
    // reduction that barely shrank the graph costs more than the
    // slightly smaller kernel saves. When less than 1/8 of the edges
    // AND less than 1/8 of the vertices would go, discard the log and
    // solve the original graph instead -- trivially matching-number
    // preserving, since the solver then sees every vertex the rules
    // would have matched. 1/8 tracks the break-even observed on the
    // bench suite (bench_reduce_gain).
    eid_t kernel_edges = 0;
    for (vid_t x = 0; x < g_.num_x(); ++x) {
      if (alive_x_[static_cast<std::size_t>(x)]) {
        kernel_edges += deg_[static_cast<std::size_t>(x)];
      }
    }
    // Each forced match removed one X and one Y; isolated X removed
    // themselves. (Isolated Y are only discovered during compaction
    // and count toward neither side of the gate.)
    const vid_t removed_vertices =
        2 * static_cast<vid_t>(stats_.forced_matches) + stats_.isolated_x;
    const bool edges_worth =
        (g_.num_edges() - kernel_edges) * 8 >= g_.num_edges();
    const bool vertices_worth =
        removed_vertices * 8 >= g_.num_vertices();
    if (!edges_worth && !vertices_worth) {
      ops_.clear();
      stats_.forced_matches = 0;
      stats_.isolated_x = 0;
      out.identity = true;
      return;
    }

    const vid_t nx = g_.num_x();
    const vid_t ny = g_.num_y();

    for (vid_t x = 0; x < nx; ++x) {
      if (alive_x_[static_cast<std::size_t>(x)]) {
        out.kernel_x_to_orig.push_back(x);
      }
    }
    const auto knx = static_cast<vid_t>(out.kernel_x_to_orig.size());

    // Kernel rows stay sorted and duplicate-free, so the CSR can be
    // built directly (and in parallel) without a canonicalization sort.
    std::vector<eid_t> counts(static_cast<std::size_t>(knx), 0);
    std::vector<std::uint8_t> used(static_cast<std::size_t>(ny), 0);
    const auto count_row = [&](vid_t i) {
      const vid_t x = out.kernel_x_to_orig[static_cast<std::size_t>(i)];
      eid_t degree = 0;
      for (const vid_t y : g_.neighbors_of_x(x)) {
        if (!alive_y_[static_cast<std::size_t>(y)]) continue;
        ++degree;
        // Benign same-value race across rows sharing a neighbor.
        relaxed_store(used[static_cast<std::size_t>(y)], std::uint8_t{1});
      }
      counts[static_cast<std::size_t>(i)] = degree;
    };
    if (serial_) {
      for (vid_t i = 0; i < knx; ++i) count_row(i);
    } else {
      parallel_region([&] {
#pragma omp for schedule(dynamic, 512)
        for (std::int64_t i = 0; i < knx; ++i) {
          count_row(static_cast<vid_t>(i));
        }
      });
    }

    // A live Y vertex with no live edge is dropped here: its removal
    // cannot cascade (it changes no X degree), so the rounds above
    // never need to look at the Y side.
    std::vector<vid_t> y_to_kernel(static_cast<std::size_t>(ny),
                                   kInvalidVertex);
    for (vid_t y = 0; y < ny; ++y) {
      if (!alive_y_[static_cast<std::size_t>(y)]) continue;
      if (used[static_cast<std::size_t>(y)]) {
        y_to_kernel[static_cast<std::size_t>(y)] =
            static_cast<vid_t>(out.kernel_y_to_orig.size());
        out.kernel_y_to_orig.push_back(y);
      } else {
        ++stats_.isolated_y;
      }
    }
    const auto kny = static_cast<vid_t>(out.kernel_y_to_orig.size());

    const eid_t total = exclusive_prefix_sum(counts);
    std::vector<eid_t> offsets(static_cast<std::size_t>(knx) + 1);
    for (vid_t i = 0; i < knx; ++i) {
      offsets[static_cast<std::size_t>(i)] =
          counts[static_cast<std::size_t>(i)];
    }
    offsets[static_cast<std::size_t>(knx)] = total;

    std::vector<vid_t> neighbors(static_cast<std::size_t>(total));
    const auto fill_row = [&](vid_t i) {
      const vid_t x = out.kernel_x_to_orig[static_cast<std::size_t>(i)];
      eid_t cursor = offsets[static_cast<std::size_t>(i)];
      for (const vid_t y : g_.neighbors_of_x(x)) {
        if (!alive_y_[static_cast<std::size_t>(y)]) continue;
        neighbors[static_cast<std::size_t>(cursor++)] =
            y_to_kernel[static_cast<std::size_t>(y)];
      }
    };
    if (serial_) {
      for (vid_t i = 0; i < knx; ++i) fill_row(i);
    } else {
      parallel_region([&] {
#pragma omp for schedule(dynamic, 512)
        for (std::int64_t i = 0; i < knx; ++i) {
          fill_row(static_cast<vid_t>(i));
        }
      });
    }
    out.kernel = BipartiteGraph::from_canonical_csr(std::move(offsets),
                                                    std::move(neighbors), kny);
  }

  const BipartiteGraph& g_;
  const bool serial_;
  std::vector<std::uint8_t> alive_x_;
  std::vector<std::uint8_t> alive_y_;
  std::vector<std::uint8_t> queued_;
  std::vector<eid_t> deg_;  ///< live degree of each X vertex
  std::vector<Op> ops_;
  ReduceCounters stats_;
};

}  // namespace

Reduction reduce_graph(const BipartiteGraph& g, ReduceMode mode) {
  if (mode == ReduceMode::kNone) {
    // Verbatim kernel: no rules, identity maps, empty log. (The engine
    // short-circuits this case; direct callers get sane behavior.)
    Reduction out;
    out.mode = mode;
    out.orig_nx = g.num_x();
    out.orig_ny = g.num_y();
    out.kernel = g;
    out.kernel_x_to_orig.resize(static_cast<std::size_t>(g.num_x()));
    std::iota(out.kernel_x_to_orig.begin(), out.kernel_x_to_orig.end(),
              vid_t{0});
    out.kernel_y_to_orig.resize(static_cast<std::size_t>(g.num_y()));
    std::iota(out.kernel_y_to_orig.begin(), out.kernel_y_to_orig.end(),
              vid_t{0});
    out.stats.collected = true;
    out.stats.mode = mode;
    out.stats.kernel_nx = g.num_x();
    out.stats.kernel_ny = g.num_y();
    out.stats.kernel_edges = g.num_edges();
    return out;
  }
  return Reducer(g).run();
}

Matching reconstruct_matching(const BipartiteGraph& original,
                              const Reduction& red,
                              const Matching& kernel_matching) {
  if (original.num_x() != red.orig_nx || original.num_y() != red.orig_ny) {
    throw std::invalid_argument(
        "reconstruct_matching: original graph does not match the reduction");
  }
  if (red.identity) {
    // The kernel IS the original graph (and red.kernel is empty), so a
    // kernel matching is already an original-graph matching.
    if (kernel_matching.num_x() != red.orig_nx ||
        kernel_matching.num_y() != red.orig_ny) {
      throw std::invalid_argument(
          "reconstruct_matching: matching does not fit the kernel");
    }
    return kernel_matching;
  }
  if (kernel_matching.num_x() != red.kernel.num_x() ||
      kernel_matching.num_y() != red.kernel.num_y()) {
    throw std::invalid_argument(
        "reconstruct_matching: matching does not fit the kernel");
  }

  obs::emit_begin(obs::names::kReduceReconstruct, red.stats.forced_matches);
  // Kernel matches map straight through the id maps, and forced pairs
  // are pairwise disjoint from them and from each other.
  Matching result(red.orig_nx, red.orig_ny);
  for (vid_t j = 0; j < red.kernel.num_y(); ++j) {
    const vid_t xk = kernel_matching.mate_of_y(j);
    if (xk == kInvalidVertex) continue;
    result.match(red.kernel_x_to_orig[static_cast<std::size_t>(xk)],
                 red.kernel_y_to_orig[static_cast<std::size_t>(j)]);
  }
  for (const Op& op : red.ops) {
    result.match(op.x, op.y);
  }
  obs::emit_end(obs::names::kReduceReconstruct, red.stats.forced_matches);
  return result;
}

std::string debug_summary(const Reduction& red) {
  const ReduceCounters& s = red.stats;
  std::ostringstream out;
  out << "reduce[mode=" << to_string(red.mode) << " orig=" << red.orig_nx
      << "x" << red.orig_ny << " rounds=" << s.rounds
      << " isolated=" << s.isolated_x << "+" << s.isolated_y
      << " forced=" << s.forced_matches
      << " kernel=" << s.kernel_nx << "x" << s.kernel_ny << "/"
      << s.kernel_edges << " ops=" << red.ops.size() << "]";
  return out.str();
}

}  // namespace graftmatch::reduce
