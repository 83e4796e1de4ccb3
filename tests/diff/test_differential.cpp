// Differential-oracle sweep (ctest label: diff).
//
// Every solver configuration in the roster runs on every corpus
// instance; cardinalities must agree pairwise, every matching must be
// valid, and every matching must carry a Koenig maximality certificate.
// A failure dumps a reproducer under diff_failures/ -- the assertion
// message prints the directory.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>

#include "diff_harness.hpp"

namespace graftmatch::diff {
namespace {

// The corpus master seed honors GRAFTMATCH_SEED so CI can rotate seeds
// and a dumped reproducer's "corpus master" line can be replayed.
std::uint64_t master_seed() {
  const char* env = std::getenv("GRAFTMATCH_SEED");
  if (env != nullptr) {
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(env, &end, 10);
    if (end != env) return parsed;
  }
  return 0xD1FFC0DEULL;
}

const std::vector<Instance>& corpus() {
  static const std::vector<Instance> instances = build_corpus(master_seed());
  return instances;
}

class Differential : public ::testing::Test {
 protected:
  DiffOptions options() const {
    DiffOptions opts;
    opts.master_seed = master_seed();
    return opts;
  }

  void run_family(const std::string& family) {
    int covered = 0;
    for (const Instance& instance : corpus()) {
      if (instance.family != family) continue;
      ++covered;
      const auto found = run_differential(instance, options());
      EXPECT_TRUE(found.empty())
          << "differential failures on " << instance.name
          << " (generator seed " << instance.seed << "):\n"
          << format_discrepancies(found);
    }
    ASSERT_GT(covered, 0) << "no corpus instances in family " << family;
  }
};

TEST_F(Differential, CorpusIsLargeEnoughAndNamed) {
  // The acceptance bar: >= 30 instances, unique names, every family
  // present, every graph non-degenerate.
  ASSERT_GE(corpus().size(), 30u);
  std::set<std::string> names;
  std::set<std::string> families;
  for (const Instance& instance : corpus()) {
    EXPECT_TRUE(names.insert(instance.name).second)
        << "duplicate instance name " << instance.name;
    families.insert(instance.family);
    EXPECT_GT(instance.graph.num_x(), 0) << instance.name;
    EXPECT_GT(instance.graph.num_edges(), 0) << instance.name;
  }
  const std::set<std::string> expected = {"er",      "rmat", "cl",
                                          "grid",    "road", "planted",
                                          "sbm",     "web",  "wide"};
  EXPECT_EQ(families, expected);
}

TEST_F(Differential, WideInstancesGrantTheWidestArm) {
  for (const Instance& instance : corpus()) {
    if (instance.family != "wide") continue;
    EXPECT_EQ(solve_width(instance.graph.num_edges(), kRosterWidth),
              kRosterWidth)
        << instance.name << " has " << instance.graph.num_edges()
        << " edges";
  }
}

TEST_F(Differential, CorpusIsDeterministicGivenMasterSeed) {
  const auto again = build_corpus(master_seed());
  ASSERT_EQ(again.size(), corpus().size());
  for (std::size_t i = 0; i < again.size(); ++i) {
    EXPECT_EQ(again[i].seed, corpus()[i].seed);
    EXPECT_EQ(again[i].graph.num_edges(), corpus()[i].graph.num_edges())
        << again[i].name;
  }
}

TEST_F(Differential, ErdosRenyi) { run_family("er"); }
TEST_F(Differential, Rmat) { run_family("rmat"); }
TEST_F(Differential, ChungLu) { run_family("cl"); }
TEST_F(Differential, Grid) { run_family("grid"); }
TEST_F(Differential, Road) { run_family("road"); }
TEST_F(Differential, Planted) { run_family("planted"); }
TEST_F(Differential, Sbm) { run_family("sbm"); }
TEST_F(Differential, Webcrawl) { run_family("web"); }
TEST_F(Differential, Wide) { run_family("wide"); }

TEST_F(Differential, HarnessCatchesPlantedSubMaximumSolver) {
  // Self-test: a deliberately broken "solver" that drops one matched
  // edge must trip the Koenig check and write a reproducer. This is the
  // same detection path a real lost-augmenting-path race would take.
  const Instance* planted = nullptr;
  for (const Instance& instance : corpus()) {
    if (instance.family == "planted") { planted = &instance; break; }
  }
  ASSERT_NE(planted, nullptr);

  std::vector<SolverSpec> roster = {
      {"broken-drops-one-edge", 0, [](const BipartiteGraph& g, RunStats&) {
         Matching m = karp_sipser(g, 7);
         hopcroft_karp(g, m);
         for (vid_t x = 0; x < m.num_x(); ++x) {
           if (m.is_matched_x(x)) { m.unmatch_x(x); break; }
         }
         return m;
       }}};

  DiffOptions opts = options();
  opts.failure_dir = "diff_failures_selftest";
  const auto found = run_differential(*planted, roster, opts);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].solver, "broken-drops-one-edge");
  EXPECT_NE(found[0].detail.find("not maximum"), std::string::npos)
      << found[0].detail;

  // The reproducer must exist and be a loadable Matrix Market file
  // describing the same graph.
  ASSERT_FALSE(found[0].repro_dir.empty());
  const std::filesystem::path dir(found[0].repro_dir);
  ASSERT_TRUE(std::filesystem::exists(dir / "graph.mtx"));
  ASSERT_TRUE(std::filesystem::exists(dir / "repro.txt"));
  std::ifstream mtx(dir / "graph.mtx");
  const EdgeList reloaded = read_matrix_market(mtx);
  EXPECT_EQ(reloaded.nx, planted->graph.num_x());
  EXPECT_EQ(reloaded.ny, planted->graph.num_y());
  EXPECT_EQ(static_cast<std::int64_t>(reloaded.edges.size()),
            planted->graph.num_edges());
  std::filesystem::remove_all("diff_failures_selftest");
}

}  // namespace
}  // namespace graftmatch::diff
