// Randomized robustness tests: the I/O layer and graph builders must
// round-trip arbitrary valid inputs and reject malformed ones without
// crashing; transforms must compose to identity.
//
// Reproducibility: every case draws its seed from a splitmix64 stream
// of one master seed (overridable via GRAFTMATCH_FUZZ_SEED for CI seed
// rotation), and every assertion prints the failing case seed -- so a
// CI log line alone is enough to replay exactly one failing case with
// Xoshiro256(seed).
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "graftmatch/baselines/hopcroft_karp.hpp"
#include "graftmatch/graph/bipartite_graph.hpp"
#include "graftmatch/graph/matching.hpp"
#include "graftmatch/graph/mm_io.hpp"
#include "graftmatch/graph/transforms.hpp"
#include "graftmatch/reduce/reduce.hpp"
#include "graftmatch/runtime/prng.hpp"
#include "graftmatch/verify/koenig.hpp"
#include "graftmatch/verify/validate.hpp"

namespace graftmatch {
namespace {

std::uint64_t master_seed() {
  if (const char* env = std::getenv("GRAFTMATCH_FUZZ_SEED")) {
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(env, &end, 10);
    if (end != env) return parsed;
  }
  return 0xF0CC1A5EEDULL;
}

/// Per-test seed stream: fold a per-test salt into the master seed so
/// tests stay independent, then hand out one splitmix64 value per case.
class CaseSeeds {
 public:
  explicit CaseSeeds(std::uint64_t salt) : state_(master_seed() ^ salt) {}
  std::uint64_t next() { return splitmix64_next(state_); }

 private:
  std::uint64_t state_;
};

EdgeList random_edge_list(Xoshiro256& rng) {
  EdgeList list;
  list.nx = 1 + static_cast<vid_t>(rng.below(40));
  list.ny = 1 + static_cast<vid_t>(rng.below(40));
  const auto edges = rng.below(200);
  for (std::uint64_t k = 0; k < edges; ++k) {
    list.edges.push_back(
        {static_cast<vid_t>(rng.below(static_cast<std::uint64_t>(list.nx))),
         static_cast<vid_t>(rng.below(static_cast<std::uint64_t>(list.ny)))});
  }
  return list;
}

TEST(Fuzz, MatrixMarketRoundTripsRandomLists) {
  CaseSeeds seeds(0x101);
  for (int round = 0; round < 200; ++round) {
    const std::uint64_t seed = seeds.next();
    Xoshiro256 rng(seed);
    EdgeList original = random_edge_list(rng);
    original.canonicalize();
    std::ostringstream out;
    write_matrix_market(out, original);
    std::istringstream in(out.str());
    const EdgeList parsed = read_matrix_market(in);
    ASSERT_EQ(parsed.nx, original.nx) << "case seed " << seed;
    ASSERT_EQ(parsed.ny, original.ny) << "case seed " << seed;
    ASSERT_EQ(parsed.edges, original.edges) << "case seed " << seed;
  }
}

TEST(Fuzz, MatrixMarketSurvivesMutations) {
  // Mutate valid files and require: either a clean parse or a clean
  // exception -- never a crash and never an out-of-range edge list.
  CaseSeeds seeds(0x202);
  for (int round = 0; round < 300; ++round) {
    const std::uint64_t seed = seeds.next();
    Xoshiro256 rng(seed);
    EdgeList original = random_edge_list(rng);
    original.canonicalize();
    std::ostringstream out;
    write_matrix_market(out, original);
    std::string text = out.str();
    // Apply 1-3 random byte mutations.
    const int mutations = 1 + static_cast<int>(rng.below(3));
    for (int k = 0; k < mutations && !text.empty(); ++k) {
      const auto at = static_cast<std::size_t>(
          rng.below(static_cast<std::uint64_t>(text.size())));
      const char replacement =
          static_cast<char>('0' + static_cast<char>(rng.below(75)));
      text[at] = replacement;
    }
    std::istringstream in(text);
    try {
      const EdgeList parsed = read_matrix_market(in);
      EXPECT_TRUE(parsed.in_bounds()) << "case seed " << seed;
    } catch (const std::runtime_error&) {
      // rejected cleanly: fine
    }
  }
}

TEST(Fuzz, CsrBuilderIdempotentUnderDuplication) {
  CaseSeeds seeds(0x303);
  for (int round = 0; round < 100; ++round) {
    const std::uint64_t seed = seeds.next();
    Xoshiro256 rng(seed);
    EdgeList list = random_edge_list(rng);
    const BipartiteGraph once = BipartiteGraph::from_edges(list);
    // Duplicate every edge; the built graph must be identical.
    EdgeList doubled = list;
    doubled.edges.insert(doubled.edges.end(), list.edges.begin(),
                         list.edges.end());
    const BipartiteGraph twice = BipartiteGraph::from_edges(doubled);
    ASSERT_EQ(once.to_edges().edges, twice.to_edges().edges)
        << "case seed " << seed;
  }
}

TEST(Fuzz, PermutationComposesToIdentity) {
  CaseSeeds seeds(0x404);
  for (int round = 0; round < 50; ++round) {
    const std::uint64_t seed = seeds.next();
    Xoshiro256 rng(seed);
    const BipartiteGraph g = BipartiteGraph::from_edges(random_edge_list(rng));
    const auto perm_x = random_permutation(g.num_x(), rng);
    const auto perm_y = random_permutation(g.num_y(), rng);
    // Invert.
    std::vector<vid_t> inv_x(perm_x.size());
    std::vector<vid_t> inv_y(perm_y.size());
    for (std::size_t i = 0; i < perm_x.size(); ++i) {
      inv_x[static_cast<std::size_t>(perm_x[i])] = static_cast<vid_t>(i);
    }
    for (std::size_t i = 0; i < perm_y.size(); ++i) {
      inv_y[static_cast<std::size_t>(perm_y[i])] = static_cast<vid_t>(i);
    }
    const BipartiteGraph there = permute(g, perm_x, perm_y);
    const BipartiteGraph back = permute(there, inv_x, inv_y);
    ASSERT_EQ(back.to_edges().edges, g.to_edges().edges)
        << "case seed " << seed;
  }
}

TEST(Fuzz, ReductionRoundTripPreservesMaximumMatching) {
  // Full kernelization round trip on arbitrary graphs: reduce, solve
  // the kernel, reconstruct, verify on the original. Failure messages
  // carry the case seed AND the reduction log summary, so a reproducer
  // pins down both the input graph and the pipeline state it reached.
  CaseSeeds seeds(0x606);
  for (int round = 0; round < 150; ++round) {
    const std::uint64_t seed = seeds.next();
    Xoshiro256 rng(seed);
    const BipartiteGraph g = BipartiteGraph::from_edges(random_edge_list(rng));
    Matching direct(g.num_x(), g.num_y());
    hopcroft_karp(g, direct);
    const reduce::Reduction red =
        reduce::reduce_graph(g, ReduceMode::kDegree1);
    const BipartiteGraph& kernel = reduce::solve_graph(red, g);
    Matching kernel_m(kernel.num_x(), kernel.num_y());
    hopcroft_karp(kernel, kernel_m);
    const Matching lifted = reduce::reconstruct_matching(g, red, kernel_m);
    const std::string ctx =
        "case seed " + std::to_string(seed) + " " + reduce::debug_summary(red);
    ASSERT_TRUE(is_valid_matching(g, lifted)) << ctx;
    ASSERT_EQ(lifted.cardinality(), direct.cardinality()) << ctx;
    ASSERT_TRUE(is_maximum_matching(g, lifted)) << ctx;
  }
}

TEST(Fuzz, ReconstructRejectsMismatchedDimensions) {
  // Handing reconstruct_matching a matching that does not fit the
  // kernel (or a graph that does not fit the reduction) must be a clean
  // invalid_argument, never a crash or a silent wrong answer.
  CaseSeeds seeds(0x707);
  for (int round = 0; round < 50; ++round) {
    const std::uint64_t seed = seeds.next();
    Xoshiro256 rng(seed);
    const BipartiteGraph g = BipartiteGraph::from_edges(random_edge_list(rng));
    const reduce::Reduction red =
        reduce::reduce_graph(g, ReduceMode::kDegree1);
    // For an identity reduction the kernel is the original graph, so a
    // +1/+2 offset from its dimensions is still a mismatch either way.
    const BipartiteGraph& kernel = reduce::solve_graph(red, g);
    const Matching wrong(kernel.num_x() + 1, kernel.num_y() + 2);
    EXPECT_THROW(reduce::reconstruct_matching(g, red, wrong),
                 std::invalid_argument)
        << "case seed " << seed;
    const BipartiteGraph other =
        BipartiteGraph::from_edges({g.num_x() + 1, g.num_y(), {}});
    const Matching kernel_m(kernel.num_x(), kernel.num_y());
    EXPECT_THROW(reduce::reconstruct_matching(other, red, kernel_m),
                 std::invalid_argument)
        << "case seed " << seed;
  }
}

TEST(Fuzz, TransposeIsInvolutive) {
  CaseSeeds seeds(0x505);
  for (int round = 0; round < 50; ++round) {
    const std::uint64_t seed = seeds.next();
    Xoshiro256 rng(seed);
    const BipartiteGraph g = BipartiteGraph::from_edges(random_edge_list(rng));
    const BipartiteGraph back = transpose(transpose(g));
    ASSERT_EQ(back.to_edges().edges, g.to_edges().edges)
        << "case seed " << seed;
  }
}

}  // namespace
}  // namespace graftmatch
