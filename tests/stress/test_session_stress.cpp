// Session-isolation stress harness (ctest labels: stress serve).
//
// Many SessionContexts solving concurrently in one process -- each on
// its own host thread, with randomized OpenMP widths, randomized
// per-session yield-jitter overrides, and traces armed on some
// sessions but not others -- while a MatchServer hammers the same
// engine through its own worker sessions. Designed to run under
// ThreadSanitizer (cmake -DGRAFTMATCH_SAN=tsan; ctest -L stress),
// where any cross-session sharing of probe atomics, trace rings, or
// workspace pools surfaces as a data race, suppression-free.
//
// Every randomized trial derives its seed from a fixed master seed and
// prints it on failure so CI logs are enough to replay the schedule's
// inputs.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "graftmatch/baselines/hopcroft_karp.hpp"
#include "graftmatch/engine/registry.hpp"
#include "graftmatch/gen/planted.hpp"
#include "graftmatch/obs/trace.hpp"
#include "graftmatch/runtime/atomics.hpp"
#include "graftmatch/runtime/context.hpp"
#include "graftmatch/runtime/prng.hpp"
#include "graftmatch/serve/roster.hpp"
#include "graftmatch/serve/server.hpp"
#include "test_widths.hpp"

namespace graftmatch {
namespace {

constexpr std::uint64_t kMasterSeed = 0x5E551011ULL;

class StressEnvironment : public ::testing::Environment {
 public:
  void SetUp() override { stress::set_yield_period(16); }
  void TearDown() override { stress::set_yield_period(0); }
};
[[maybe_unused]] const auto* const kEnv =
    ::testing::AddGlobalTestEnvironment(new StressEnvironment);

BipartiteGraph planted(std::uint64_t seed, std::int64_t pairs) {
  PlantedParams params;
  params.matched_pairs = pairs;
  params.surplus_rows = 40;
  params.bottleneck = 10;
  params.noise_degree = 3.0;
  params.seed = seed;
  return generate_planted(params).graph;
}

// ~4 edges per pair: every drawn width is granted (wide_edges()).
BipartiteGraph wide_planted(std::uint64_t seed, std::int64_t extra_pairs) {
  return planted(seed, wide_edges() / 3 + extra_pairs);
}

// The core claim under maximum scheduling pressure: S sessions, each on
// its own host thread with its own width/jitter/trace configuration,
// repeatedly solving distinct graphs -- every run must reach its own
// oracle at the width it drew and every armed session must flush its
// own trace.
TEST(SessionStress, ConcurrentSessionsSolveIsolated) {
  constexpr int kSessions = 4;
  constexpr int kRunsPerSession = 6;

  std::vector<BipartiteGraph> graphs;
  std::vector<std::int64_t> oracles;
  for (int s = 0; s < kSessions; ++s) {
    graphs.push_back(wide_planted(
        kMasterSeed + static_cast<std::uint64_t>(s), 500 + 60 * s));
    oracles.push_back(maximum_matching_cardinality(graphs.back()));
  }

  std::atomic<int> wrong{0};
  std::vector<std::string> failures(kSessions);
  std::vector<std::thread> threads;
  for (int s = 0; s < kSessions; ++s) {
    threads.emplace_back([&, s] {
      Xoshiro256 rng(kMasterSeed ^ static_cast<std::uint64_t>(s * 7919));
      SessionContext session;
      const SessionScope bind(session);
      const bool armed = (s % 2) == 0;
      if (armed) session.trace().arm();
      // Exercise all three jitter states: disabled, aggressive, and
      // inherit-the-process-period.
      if (s % 3 == 0) session.set_yield_period(4);
      else if (s % 3 == 1) session.clear_yield_period();
      else session.set_yield_period(0);

      for (int run = 0; run < kRunsPerSession; ++run) {
        RunConfig config;
        config.threads = random_width(rng);
        config.seed = rng();
        Matching matching(graphs[static_cast<std::size_t>(s)].num_x(),
                          graphs[static_cast<std::size_t>(s)].num_y());
        const RunStats stats =
            engine::run(session, "graft", "rgreedy",
                        graphs[static_cast<std::size_t>(s)], matching,
                        config);
        if (stats.final_cardinality != oracles[static_cast<std::size_t>(s)] ||
            stats.threads_used != config.threads) {
          wrong.fetch_add(1);
          failures[static_cast<std::size_t>(s)] =
              "run " + std::to_string(run) + " width " +
              std::to_string(config.threads) + " ran " +
              std::to_string(stats.threads_used) + " wide: got " +
              std::to_string(stats.final_cardinality) + " want " +
              std::to_string(oracles[static_cast<std::size_t>(s)]);
        }
        if (session.workspaces().outstanding() != 0) {
          wrong.fetch_add(1);
          failures[static_cast<std::size_t>(s)] = "leaked workspace lease";
        }
      }
      if (obs::compiled() && armed &&
          !session.trace().last_run().collected) {
        wrong.fetch_add(1);
        failures[static_cast<std::size_t>(s)] = "armed session lost trace";
      }
      if (!armed && session.trace().last_run().collected) {
        wrong.fetch_add(1);
        failures[static_cast<std::size_t>(s)] = "unarmed session collected";
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int s = 0; s < kSessions; ++s) {
    EXPECT_TRUE(failures[static_cast<std::size_t>(s)].empty())
        << "session " << s << ": " << failures[static_cast<std::size_t>(s)];
  }
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_FALSE(default_session().trace().last_run().collected)
      << "something emitted into the process default session";
}

// Sessions interleaved with the ambient default path: threads that
// never bind a session keep using default_session() while bound
// threads run beside them; both populations must stay correct.
TEST(SessionStress, BoundAndUnboundThreadsCoexist) {
  const BipartiteGraph bound_graph = wide_planted(kMasterSeed ^ 0xB0, 450);
  const BipartiteGraph unbound_graph = wide_planted(kMasterSeed ^ 0xC1, 350);
  const std::int64_t bound_oracle = maximum_matching_cardinality(bound_graph);
  const std::int64_t unbound_oracle =
      maximum_matching_cardinality(unbound_graph);

  std::atomic<int> wrong{0};
  constexpr int kPairs = 3;
  constexpr int kRuns = 4;
  std::vector<std::thread> threads;
  for (int p = 0; p < kPairs; ++p) {
    threads.emplace_back([&, p] {  // bound
      Xoshiro256 rng(kMasterSeed ^ static_cast<std::uint64_t>(0xAB0 + p));
      SessionContext session;
      const SessionScope bind(session);
      for (int run = 0; run < kRuns; ++run) {
        RunConfig config;
        config.threads = random_width(rng);
        Matching m(bound_graph.num_x(), bound_graph.num_y());
        const RunStats stats =
            engine::run(session, "graft", "ks", bound_graph, m, config);
        if (stats.final_cardinality != bound_oracle) wrong.fetch_add(1);
        if (stats.threads_used != config.threads) wrong.fetch_add(1);
      }
    });
    threads.emplace_back([&, p] {  // unbound: ambient = default session
      Xoshiro256 rng(kMasterSeed ^ static_cast<std::uint64_t>(0xCD0 + p));
      for (int run = 0; run < kRuns; ++run) {
        RunConfig config;
        config.threads = random_width(rng);
        Matching m(unbound_graph.num_x(), unbound_graph.num_y());
        const RunStats stats =
            engine::run("pf", "greedy", unbound_graph, m, config);
        if (stats.final_cardinality != unbound_oracle) wrong.fetch_add(1);
        if (stats.threads_used != config.threads) wrong.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(wrong.load(), 0);
}

// The serving layer under concurrent load with mixed request shapes:
// every well-formed request must come back with the oracle cardinality
// regardless of which solver/mode it chose, and malformed ones must
// come back as error responses while the counters stay consistent.
// Every graph is above the grain, so width-2 requests run 2 wide.
TEST(SessionStress, MatchServerUnderConcurrentMixedLoad) {
  constexpr std::int64_t kWidePairs = kEdgesPerThread / 3;
  serve::GraphRoster roster;
  roster.add("alpha", planted(kMasterSeed ^ 0xA1, kWidePairs + 420));
  roster.add("beta", planted(kMasterSeed ^ 0xB2, kWidePairs + 360));
  roster.add("gamma", planted(kMasterSeed ^ 0xC3, kWidePairs + 300));

  serve::ServerOptions options;
  options.workers = 4;
  options.queue_capacity = 32;
  // Concurrent same-key requests may share a solve, and every member
  // and joiner must still get a correct, audited answer.
  serve::MatchServer server(roster, options);

  const char* const solvers[] = {"graft", "pf", "hk"};
  const char* const reduces[] = {"none", "d1"};

  constexpr int kClients = 6;
  constexpr int kRequestsPerClient = 8;
  std::atomic<int> wrong{0};
  std::atomic<int> expected_failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Xoshiro256 rng(kMasterSeed ^ static_cast<std::uint64_t>(0x5EED + c));
      for (int r = 0; r < kRequestsPerClient; ++r) {
        serve::MatchRequest request;
        const bool malformed = rng.below(8) == 0;
        int width = 0;  // expected MatchResponse::threads; 0: unchecked
        if (malformed) {
          request.graph = "no-such-graph";
          expected_failures.fetch_add(1);
        } else {
          const auto& entry = roster.at(rng.below(roster.size()));
          request.graph = entry.name;
          request.solver = solvers[rng.below(3)];
          request.reduce = reduces[rng.below(2)];
          request.threads = 1 + static_cast<int>(rng.below(2));
          // hk is serial; a d1 kernel may fall below the grain.
          width = request.solver == "hk"       ? 1
                  : request.reduce == "none" ? request.threads
                                             : 0;
          // A third of the well-formed requests carry a deadline far
          // beyond any plausible backlog: the deadline bookkeeping runs
          // under load without injecting expiry nondeterminism.
          if (rng.below(3) == 0) request.deadline_ms = 60'000;
        }
        const serve::MatchResponse response = server.solve(std::move(request));
        if (malformed) {
          if (response.ok || response.error.empty()) wrong.fetch_add(1);
        } else if (!response.ok || response.expired ||
                   response.cardinality != response.maximum ||
                   response.batch < 1 || response.batch > kClients ||
                   response.threads < 1 || response.threads > 2) {
          wrong.fetch_add(1);
        } else if (response.batch == 1 && width > 0 &&
                   response.threads != width) {
          wrong.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  server.stop();

  EXPECT_EQ(wrong.load(), 0);
  const serve::ServerCounters counters = server.counters();
  EXPECT_EQ(counters.accepted + counters.rejected,
            static_cast<std::uint64_t>(kClients * kRequestsPerClient));
  EXPECT_EQ(counters.completed + counters.failed + counters.expired,
            counters.accepted)
      << "every accepted request resolves exactly once";
  EXPECT_EQ(counters.expired, 0u) << "60 s deadlines never expire here";
  EXPECT_EQ(counters.failed,
            static_cast<std::uint64_t>(expected_failures.load()));
  EXPECT_EQ(counters.rejected, 0u)
      << "closed-loop clients never outrun a queue deeper than the client "
         "count";
}

TEST(SessionStress, BatchedServerShutdownUnderOpenLoopLoad) {
  // Open-loop submitters race stop() while solves are in flight: the
  // drain contract says every future whose try_submit succeeded is
  // fulfilled -- by a served, failed, or expired response -- never
  // abandoned (a std::future_error from get() would mean a worker
  // dropped a claimed task on the floor).
  serve::GraphRoster roster;
  roster.add("alpha", planted(kMasterSeed ^ 0xD4, 380));
  roster.add("beta", planted(kMasterSeed ^ 0xE5, 320));

  serve::ServerOptions options;
  options.workers = 3;
  options.queue_capacity = 16;
  serve::MatchServer server(roster, options);

  constexpr int kSubmitters = 5;
  constexpr int kPerSubmitter = 40;
  std::vector<std::vector<std::future<serve::MatchResponse>>> accepted(
      kSubmitters);
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      Xoshiro256 rng(kMasterSeed ^ static_cast<std::uint64_t>(0xD0 + s));
      for (int r = 0; r < kPerSubmitter; ++r) {
        serve::MatchRequest request;
        request.graph = rng.below(2) == 0 ? "alpha" : "beta";
        if (rng.below(4) == 0) request.deadline_ms = 1;  // may expire
        std::future<serve::MatchResponse> pending;
        if (server.try_submit(std::move(request), pending)) {
          accepted[static_cast<std::size_t>(s)].push_back(
              std::move(pending));
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  server.stop();
  for (std::thread& submitter : submitters) submitter.join();

  std::uint64_t total_accepted = 0;
  std::uint64_t served = 0;
  for (auto& futures : accepted) {
    for (auto& future : futures) {
      ++total_accepted;
      ASSERT_NO_THROW({
        const serve::MatchResponse response = future.get();
        if (response.ok) {
          ++served;
          EXPECT_EQ(response.cardinality, response.maximum);
        } else {
          EXPECT_TRUE(response.expired || !response.error.empty());
        }
      });
    }
  }
  const serve::ServerCounters counters = server.counters();
  EXPECT_EQ(counters.accepted, total_accepted);
  EXPECT_EQ(counters.completed + counters.failed + counters.expired,
            counters.accepted);
  EXPECT_EQ(counters.completed, served);
}

}  // namespace
}  // namespace graftmatch
