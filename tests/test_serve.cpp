// Tests for the serving layer (src/graftmatch/serve/): the bounded
// admission queue (including extract_if, which claims same-key
// requests), the key=value wire protocol and its framing (exact double
// round-trips, control-character rejection in request fields, range
// checks), the graph roster with its load-time oracle, the MatchServer
// lifecycle (admission control, shared solves for queued and joining
// same-key requests, deadline enforcement at admission and dispatch,
// width clamping, per-session workers, cardinality audit, error
// responses), and the Unix-domain-socket front end running end to end
// (including connection churn: fds deregister before close and
// finished threads are reaped).
//
// Carries the `serve` label so CI can select the serving battery on
// its own (the TSan and asan+ubsan legs run it alongside the stress
// tier).
#include <gtest/gtest.h>
#include <omp.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <future>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "graftmatch/baselines/hopcroft_karp.hpp"
#include "graftmatch/gen/planted.hpp"
#include "graftmatch/serve/bounded_queue.hpp"
#include "graftmatch/serve/protocol.hpp"
#include "graftmatch/serve/roster.hpp"
#include "graftmatch/serve/server.hpp"
#include "graftmatch/serve/uds.hpp"
#include "test_widths.hpp"

namespace graftmatch::serve {
namespace {

BipartiteGraph planted(std::uint64_t seed, std::int64_t pairs = 400) {
  PlantedParams params;
  params.matched_pairs = pairs;
  params.surplus_rows = 32;
  params.bottleneck = 8;
  params.noise_degree = 3.0;
  params.seed = seed;
  return generate_planted(params).graph;
}

GraphRoster small_roster() {
  GraphRoster roster;
  roster.add("alpha", planted(11, 400));
  roster.add("beta", planted(12, 300));
  return roster;
}

TEST(BoundedQueue, RejectsWhenFull) {
  BoundedQueue<int> queue(2);
  EXPECT_TRUE(queue.try_push(1));
  EXPECT_TRUE(queue.try_push(2));
  EXPECT_FALSE(queue.try_push(3)) << "at capacity";
  EXPECT_EQ(queue.size(), 2u);

  int out = 0;
  EXPECT_TRUE(queue.pop(out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(queue.try_push(3)) << "space freed by pop";
}

TEST(BoundedQueue, CloseDrainsBacklogThenReportsClosed) {
  BoundedQueue<int> queue(4);
  EXPECT_TRUE(queue.try_push(1));
  EXPECT_TRUE(queue.try_push(2));
  queue.close();
  EXPECT_FALSE(queue.try_push(3)) << "closed queues admit nothing";

  int out = 0;
  EXPECT_TRUE(queue.pop(out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(queue.pop(out));
  EXPECT_EQ(out, 2);
  EXPECT_FALSE(queue.pop(out)) << "closed and drained";
}

TEST(BoundedQueue, CloseWakesBlockedConsumer) {
  BoundedQueue<int> queue(1);
  std::thread consumer([&] {
    int out = 0;
    EXPECT_FALSE(queue.pop(out));
  });
  queue.close();
  consumer.join();
}

TEST(BoundedQueue, ExtractIfClaimsMatchesAndPreservesTheRest) {
  BoundedQueue<int> queue(8);
  for (const int value : {1, 2, 3, 4, 5, 6}) {
    ASSERT_TRUE(queue.try_push(int{value}));
  }
  std::vector<int> evens;
  EXPECT_EQ(queue.extract_if([](int v) { return v % 2 == 0; }, evens), 3u);
  EXPECT_EQ(evens, (std::vector<int>{2, 4, 6}));

  // The odd items kept their relative order.
  int out = 0;
  for (const int expected : {1, 3, 5}) {
    ASSERT_TRUE(queue.pop(out));
    EXPECT_EQ(out, expected);
  }
  EXPECT_EQ(queue.size(), 0u);
}

TEST(BatchKey, GroupsOnSolveIdentityNotThreads) {
  MatchRequest a;
  a.graph = "alpha";
  MatchRequest b = a;
  b.threads = 8;  // width is an execution hint, not part of the answer
  EXPECT_EQ(batch_key(a), batch_key(b));

  MatchRequest c = a;
  c.reduce = "d1";
  EXPECT_FALSE(batch_key(a) == batch_key(c));

  // The bottom-up kernel is part of the answer's provenance and of
  // request validation, so it splits groups too.
  MatchRequest e = a;
  e.kernel = "word";
  EXPECT_FALSE(batch_key(a) == batch_key(e));
}

TEST(Protocol, RequestRoundTrip) {
  MatchRequest request;
  request.graph = "alpha";
  request.solver = "pf";
  request.initializer = "greedy";
  request.threads = 3;
  request.reduce = "d1";
  request.kernel = "word";

  MatchRequest decoded;
  std::string error;
  ASSERT_TRUE(decode_request(encode_request(request), decoded, error))
      << error;
  EXPECT_EQ(decoded.graph, "alpha");
  EXPECT_EQ(decoded.solver, "pf");
  EXPECT_EQ(decoded.initializer, "greedy");
  EXPECT_EQ(decoded.threads, 3);
  EXPECT_EQ(decoded.reduce, "d1");
  EXPECT_EQ(decoded.kernel, "word");
}

TEST(Protocol, RequestDefaultsAndUnknownKeys) {
  MatchRequest decoded;
  std::string error;
  // Minimal payload with an unknown key a newer peer might send.
  ASSERT_TRUE(decode_request("graph=g\nfuture_knob=7\n", decoded, error))
      << error;
  EXPECT_EQ(decoded.graph, "g");
  EXPECT_EQ(decoded.solver, "graft");
  EXPECT_EQ(decoded.initializer, "ks");
  EXPECT_EQ(decoded.threads, 0);
  EXPECT_EQ(decoded.kernel, "bit");
}

TEST(Protocol, DirselAndKernelRejectControlCharacters) {
  MatchRequest decoded;
  std::string error;
  EXPECT_FALSE(decode_request("graph=g\nkernel=wo\trd\n", decoded, error));
  // Unknown-but-clean values pass the wire layer; the server rejects
  // them at config-parse time with a named error (see MatchServer
  // tests), keeping the protocol forward compatible.
  EXPECT_TRUE(decode_request("graph=g\nkernel=someday\n", decoded, error))
      << error;
  EXPECT_EQ(decoded.kernel, "someday");
  // `dirsel` is no longer a field: like any unknown key it is skipped
  // unread, so not even a control character in it fails the frame.
  EXPECT_TRUE(decode_request("graph=g\ndirsel=ad\x01aptive\n", decoded,
                             error))
      << error;
  EXPECT_EQ(decoded.graph, "g");
}

TEST(Protocol, RequestValidation) {
  MatchRequest decoded;
  std::string error;
  EXPECT_FALSE(decode_request("solver=graft\n", decoded, error))
      << "graph is required";
  EXPECT_FALSE(decode_request("graph=g\nthreads=abc\n", decoded, error));
  EXPECT_FALSE(decode_request("not a key value line\n", decoded, error));
}

TEST(Protocol, ThreadsOutsideIntRangeIsADecodeError) {
  // 2^32 + 1 once truncated to a width of 1; it must fail loudly.
  MatchRequest decoded;
  std::string error;
  EXPECT_FALSE(
      decode_request("graph=g\nthreads=4294967297\n", decoded, error));
  EXPECT_NE(error.find("threads"), std::string::npos) << error;
  EXPECT_FALSE(
      decode_request("graph=g\nthreads=-4294967297\n", decoded, error));
  ASSERT_TRUE(decode_request("graph=g\nthreads=2147483647\n", decoded, error))
      << error;
  EXPECT_EQ(decoded.threads, std::numeric_limits<int>::max());
}

TEST(Protocol, ResponseRoundTripIncludingErrorWithEquals) {
  MatchResponse response;
  response.ok = false;
  response.rejected = true;
  response.error = "audit failed: served=41, oracle=42";  // '=' in value
  response.graph = "alpha";
  response.solver = "graft";
  response.initializer = "ks";
  response.cardinality = 41;
  response.maximum = 42;
  response.seconds = 0.125;
  response.session = 9;
  response.threads = 2;

  MatchResponse decoded;
  std::string error;
  ASSERT_TRUE(decode_response(encode_response(response), decoded, error))
      << error;
  EXPECT_FALSE(decoded.ok);
  EXPECT_TRUE(decoded.rejected);
  EXPECT_EQ(decoded.error, response.error);
  EXPECT_EQ(decoded.cardinality, 41);
  EXPECT_EQ(decoded.maximum, 42);
  EXPECT_DOUBLE_EQ(decoded.seconds, 0.125);
  EXPECT_EQ(decoded.session, 9u);
  EXPECT_EQ(decoded.threads, 2);
}

TEST(Protocol, EncoderSanitizesNewlines) {
  MatchResponse response;
  response.ok = false;
  response.error = "line one\nline two";
  MatchResponse decoded;
  std::string error;
  ASSERT_TRUE(decode_response(encode_response(response), decoded, error))
      << error;
  EXPECT_EQ(decoded.error, "line one line two");
}

TEST(Protocol, DoubleRoundTripIsExact) {
  // The `seconds` a client reads must be bit-for-bit the value the
  // server measured. The old 6-significant-digit ostream encoding
  // fails every case below.
  for (const double seconds :
       {0.1234567890123456, 1.0 / 3.0, 9876.543219876543, 5.4321e-9,
        123456.78901234567}) {
    MatchResponse response;
    response.ok = true;
    response.seconds = seconds;
    MatchResponse decoded;
    std::string error;
    ASSERT_TRUE(decode_response(encode_response(response), decoded, error))
        << error;
    EXPECT_EQ(decoded.seconds, seconds) << "lossy encode of " << seconds;
  }
}

TEST(Protocol, DoubleDecodingIsStrict) {
  MatchResponse decoded;
  std::string error;
  // Trailing junk, hex floats, and inf/nan spellings must all be
  // rejected, not locale-/parser-dependently half-accepted.
  for (const char* bad : {"1.5x", "0x1p3", "inf", "nan", "1,5", ""}) {
    EXPECT_FALSE(decode_response(std::string("ok=1\nseconds=") + bad + "\n",
                                 decoded, error))
        << "accepted seconds=" << bad;
  }
}

TEST(Protocol, RequestFieldsRejectControlCharacters) {
  // A graph named "a\nb" must fail loudly at encode time -- the old
  // sanitizer rewrote it to "a b", so the server looked up (and
  // reported errors about) a name the client never sent.
  MatchRequest request;
  request.graph = "a\nb";
  EXPECT_THROW(encode_request(request), std::invalid_argument);
  request.graph = "alpha";
  request.solver = "gra\rft";
  EXPECT_THROW(encode_request(request), std::invalid_argument);
  request.solver = "graft";
  request.initializer = "k\ts";
  EXPECT_THROW(encode_request(request), std::invalid_argument);
  request.initializer = "ks";
  request.reduce = std::string("d1\x01", 3);
  EXPECT_THROW(encode_request(request), std::invalid_argument);
  request.reduce = "none";
  request.kernel = "bit\x7f";
  EXPECT_THROW(encode_request(request), std::invalid_argument);
  request.kernel = "bit";
  EXPECT_NO_THROW(encode_request(request)) << "clean fields encode fine";

  // Decode side: a hand-built payload smuggling a control character
  // into a lookup field is a decode error, not a silent rewrite.
  MatchRequest decoded;
  std::string error;
  EXPECT_FALSE(decode_request("graph=a\tb\n", decoded, error));
  EXPECT_FALSE(decode_request("graph=g\nsolver=p\x01f\n", decoded, error));
  EXPECT_TRUE(decode_request("graph=g\n", decoded, error)) << error;
}

TEST(Protocol, DeadlineAndBatchFieldsRoundTrip) {
  MatchRequest request;
  request.graph = "alpha";
  request.deadline_ms = 750;
  MatchRequest decoded_request;
  std::string error;
  ASSERT_TRUE(
      decode_request(encode_request(request), decoded_request, error))
      << error;
  EXPECT_EQ(decoded_request.deadline_ms, 750);

  // No deadline -> the field is not even emitted (old peers never see
  // it).
  request.deadline_ms = 0;
  EXPECT_EQ(encode_request(request).find("deadline_ms"), std::string::npos);

  MatchResponse response;
  response.ok = false;
  response.expired = true;
  response.error = "deadline exceeded (750 ms) before dispatch";
  response.batch = 5;
  MatchResponse decoded_response;
  ASSERT_TRUE(
      decode_response(encode_response(response), decoded_response, error))
      << error;
  EXPECT_TRUE(decoded_response.expired);
  EXPECT_EQ(decoded_response.batch, 5);

  // Defaults when the fields are absent (an old server's response).
  ASSERT_TRUE(decode_response("ok=1\n", decoded_response, error)) << error;
  EXPECT_FALSE(decoded_response.expired);
  EXPECT_EQ(decoded_response.batch, 1);
}

TEST(Protocol, FramesRoundTripOverSocketpair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

  EXPECT_TRUE(write_frame(fds[0], "graph=alpha\n"));
  EXPECT_TRUE(write_frame(fds[0], ""));  // empty payload is a valid frame
  std::string payload;
  EXPECT_TRUE(read_frame(fds[1], payload));
  EXPECT_EQ(payload, "graph=alpha\n");
  EXPECT_TRUE(read_frame(fds[1], payload));
  EXPECT_TRUE(payload.empty());

  ::close(fds[0]);
  EXPECT_FALSE(read_frame(fds[1], payload)) << "clean EOF reads false";
  ::close(fds[1]);
}

TEST(Protocol, FrameRejectsOversizedLength) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // A length prefix far beyond kMaxFrameBytes must be refused without
  // attempting the allocation.
  const unsigned char header[4] = {0xff, 0xff, 0xff, 0x7f};
  ASSERT_EQ(::write(fds[0], header, sizeof(header)),
            static_cast<ssize_t>(sizeof(header)));
  std::string payload;
  EXPECT_FALSE(read_frame(fds[1], payload));
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(Roster, OracleMatchesHopcroftKarpAndLookupWorks) {
  const GraphRoster roster = small_roster();
  ASSERT_EQ(roster.size(), 2u);
  const RosterEntry* alpha = roster.find("alpha");
  ASSERT_NE(alpha, nullptr);
  EXPECT_EQ(alpha->maximum_cardinality,
            maximum_matching_cardinality(alpha->graph));
  EXPECT_EQ(roster.find("gamma"), nullptr);
  EXPECT_EQ(&roster.at(0), roster.find("alpha"));
}

TEST(Roster, DuplicateNamesThrow) {
  GraphRoster roster;
  roster.add("alpha", planted(1, 50));
  EXPECT_THROW(roster.add("alpha", planted(2, 50)), std::invalid_argument);
}

TEST(MatchServer, ServesCorrectCardinalities) {
  const GraphRoster roster = small_roster();
  MatchServer server(roster);

  for (const RosterEntry& entry : roster.entries()) {
    MatchRequest request;
    request.graph = entry.name;
    const MatchResponse response = server.solve(std::move(request));
    EXPECT_TRUE(response.ok) << response.error;
    EXPECT_EQ(response.cardinality, entry.maximum_cardinality);
    EXPECT_EQ(response.maximum, entry.maximum_cardinality);
    EXPECT_NE(response.session, 0u);
  }
  const ServerCounters counters = server.counters();
  EXPECT_EQ(counters.accepted, roster.size());
  EXPECT_EQ(counters.completed, roster.size());
  EXPECT_EQ(counters.failed, 0u);
  EXPECT_EQ(counters.rejected, 0u);
}

TEST(MatchServer, BadRequestsGetErrorResponsesNotCrashes) {
  const GraphRoster roster = small_roster();
  MatchServer server(roster);

  const auto expect_error = [&](MatchRequest request) {
    const MatchResponse response = server.solve(std::move(request));
    EXPECT_FALSE(response.ok);
    EXPECT_FALSE(response.error.empty());
    EXPECT_FALSE(response.rejected) << "failures are not rejections";
  };

  MatchRequest request;
  request.graph = "no-such-graph";
  expect_error(request);

  request.graph = "alpha";
  request.solver = "no-such-solver";
  expect_error(request);

  request.solver = "graft";
  request.initializer = "no-such-init";
  expect_error(request);

  request.initializer = "ks";
  request.reduce = "bogus";
  expect_error(request);

  request.reduce = "none";
  request.kernel = "bogus";
  expect_error(request);

  EXPECT_EQ(server.counters().failed, 5u);
  EXPECT_EQ(server.counters().completed, 0u);
}

TEST(MatchServer, SolverAndModeSelectionPerRequest) {
  const GraphRoster roster = small_roster();
  MatchServer server(roster);

  for (const char* solver : {"graft", "pf", "hk"}) {
    MatchRequest request;
    request.graph = "alpha";
    request.solver = solver;
    const MatchResponse response = server.solve(std::move(request));
    EXPECT_TRUE(response.ok) << solver << ": " << response.error;
    EXPECT_EQ(response.cardinality, roster.find("alpha")->maximum_cardinality)
        << solver;
  }

  MatchRequest request;
  request.graph = "beta";
  request.reduce = "d1";
  const MatchResponse response = server.solve(std::move(request));
  EXPECT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.cardinality, roster.find("beta")->maximum_cardinality);

  // The kernel knob rides the same path: both arms must serve the
  // oracle cardinality (the server's audit would flag a miss even if
  // this EXPECT did not).
  for (const char* kernel : {"bit", "word"}) {
    MatchRequest knob_request;
    knob_request.graph = "alpha";
    knob_request.kernel = kernel;
    const MatchResponse knob_response = server.solve(std::move(knob_request));
    EXPECT_TRUE(knob_response.ok) << kernel << ": " << knob_response.error;
    EXPECT_EQ(knob_response.cardinality,
              roster.find("alpha")->maximum_cardinality)
        << kernel;
  }
}

// Frames from peers that still send removed knobs. `shard` and `dirsel`
// are no longer protocol fields, so decode_request skips them like any
// unknown key and the request is served normally; `d1d2` is no longer
// a reduce mode, so the request fails with a named error instead of
// falling back.
TEST(MatchServer, RemovedKnobFramesDecodeAndFailCleanly) {
  const GraphRoster roster = small_roster();
  MatchServer server(roster);
  std::string error;

  MatchRequest legacy;
  ASSERT_TRUE(decode_request("graph=alpha\nshard=dm\n", legacy, error))
      << error;
  const MatchResponse served = server.solve(std::move(legacy));
  EXPECT_TRUE(served.ok) << served.error;
  EXPECT_EQ(served.cardinality, roster.find("alpha")->maximum_cardinality);

  MatchRequest directed;
  ASSERT_TRUE(
      decode_request("graph=alpha\ndirsel=adaptive\n", directed, error))
      << error;
  const MatchResponse served_directed = server.solve(std::move(directed));
  EXPECT_TRUE(served_directed.ok) << served_directed.error;
  EXPECT_EQ(served_directed.cardinality,
            roster.find("alpha")->maximum_cardinality);

  MatchRequest folded;
  ASSERT_TRUE(decode_request("graph=alpha\nreduce=d1d2\n", folded, error))
      << error;
  const MatchResponse refused = server.solve(std::move(folded));
  EXPECT_FALSE(refused.ok);
  EXPECT_NE(refused.error.find("unknown reduce mode"), std::string::npos)
      << refused.error;
}

TEST(MatchServer, AdmissionControlRejectsBeyondCapacity) {
  const GraphRoster roster = small_roster();
  ServerOptions options;
  options.workers = 1;
  options.queue_capacity = 2;
  options.autostart = false;  // nothing drains while we fill
  MatchServer server(roster, options);

  MatchRequest request;
  request.graph = "alpha";
  std::future<MatchResponse> first, second, overflow;
  EXPECT_TRUE(server.try_submit(request, first));
  EXPECT_TRUE(server.try_submit(request, second));
  EXPECT_FALSE(server.try_submit(request, overflow)) << "queue is full";

  // The blocking path feels the same backpressure as a fast failure.
  const MatchResponse rejected = server.solve(request);
  EXPECT_FALSE(rejected.ok);
  EXPECT_TRUE(rejected.rejected);

  server.start();  // accepted requests still get real answers
  const MatchResponse response_1 = first.get();
  const MatchResponse response_2 = second.get();
  EXPECT_TRUE(response_1.ok) << response_1.error;
  EXPECT_TRUE(response_2.ok) << response_2.error;

  const ServerCounters counters = server.counters();
  EXPECT_EQ(counters.accepted, 2u);
  EXPECT_EQ(counters.rejected, 2u);
  EXPECT_EQ(counters.completed, 2u);
}

TEST(MatchServer, ConcurrentClientsAllGetCorrectAnswers) {
  const GraphRoster roster = small_roster();
  ServerOptions options;
  options.workers = 3;
  MatchServer server(roster, options);

  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 6;
  std::vector<int> wrong(kClients, 0);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kRequestsPerClient; ++r) {
        const RosterEntry& entry =
            roster.at(static_cast<std::size_t>(r + c) % roster.size());
        MatchRequest request;
        request.graph = entry.name;
        const MatchResponse response = server.solve(std::move(request));
        if (!response.ok ||
            response.cardinality != entry.maximum_cardinality) {
          ++wrong[static_cast<std::size_t>(c)];
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(wrong[static_cast<std::size_t>(c)], 0) << "client " << c;
  }
  const ServerCounters counters = server.counters();
  EXPECT_EQ(counters.completed,
            static_cast<std::uint64_t>(kClients * kRequestsPerClient));
  EXPECT_EQ(counters.failed, 0u);
}

TEST(MatchServer, StopAnswersPendingRequests) {
  const GraphRoster roster = small_roster();
  ServerOptions options;
  options.workers = 1;
  options.autostart = false;
  MatchServer server(roster, options);

  MatchRequest request;
  request.graph = "beta";
  std::future<MatchResponse> pending;
  ASSERT_TRUE(server.try_submit(request, pending));
  server.start();
  server.stop();  // close + drain + join: the future must be fulfilled
  const MatchResponse response = pending.get();
  EXPECT_TRUE(response.ok) << response.error;
}

TEST(MatchServer, CoalescesSameKeyBacklogIntoOneSolve) {
  const GraphRoster roster = small_roster();
  ServerOptions options;
  options.workers = 1;
  options.autostart = false;  // queue the whole group before any drain
  MatchServer server(roster, options);

  MatchRequest request;
  request.graph = "alpha";
  constexpr std::size_t kGroup = 4;
  std::vector<std::future<MatchResponse>> pending(kGroup);
  for (auto& future : pending) {
    ASSERT_TRUE(server.try_submit(request, future));
  }
  server.start();

  for (auto& future : pending) {
    const MatchResponse response = future.get();
    EXPECT_TRUE(response.ok) << response.error;
    EXPECT_EQ(response.cardinality,
              roster.find("alpha")->maximum_cardinality);
    EXPECT_EQ(response.batch, static_cast<int>(kGroup))
        << "every member rode the same solve";
  }
  const ServerCounters counters = server.counters();
  EXPECT_EQ(counters.batches, 1u) << "one dispatch for the whole group";
  EXPECT_EQ(counters.coalesced, kGroup);
  EXPECT_EQ(counters.completed, kGroup);
}

TEST(MatchServer, MixedKeysSplitIntoPerKeyBatches) {
  const GraphRoster roster = small_roster();
  ServerOptions options;
  options.workers = 1;
  options.autostart = false;
  MatchServer server(roster, options);

  // Interleaved keys: alpha, beta, alpha, beta. Coalescing must group
  // by key, not by queue adjacency.
  std::vector<std::future<MatchResponse>> pending(4);
  for (std::size_t i = 0; i < pending.size(); ++i) {
    MatchRequest request;
    request.graph = i % 2 == 0 ? "alpha" : "beta";
    ASSERT_TRUE(server.try_submit(std::move(request), pending[i]));
  }
  server.start();

  for (std::size_t i = 0; i < pending.size(); ++i) {
    const MatchResponse response = pending[i].get();
    const std::string expected = i % 2 == 0 ? "alpha" : "beta";
    EXPECT_TRUE(response.ok) << response.error;
    EXPECT_EQ(response.graph, expected) << "answer matches the request key";
    EXPECT_EQ(response.cardinality,
              roster.find(expected)->maximum_cardinality);
    EXPECT_EQ(response.batch, 2);
  }
  EXPECT_EQ(server.counters().batches, 2u);
}

TEST(MatchServer, KernelSplitsBatchesSoEveryMemberIsValidated) {
  // Regression: the key once ignored the kernel, so a malformed member
  // queued behind a default request rode the default seed's solve and
  // came back ok=1 batch=2 instead of a request error.
  const GraphRoster roster = small_roster();
  ServerOptions options;
  options.workers = 1;
  options.autostart = false;
  MatchServer server(roster, options);

  MatchRequest plain;
  plain.graph = "alpha";
  MatchRequest bogus = plain;
  bogus.kernel = "nonsense";
  MatchRequest word = plain;
  word.kernel = "word";
  std::future<MatchResponse> plain_pending, bogus_pending, word_pending;
  ASSERT_TRUE(server.try_submit(plain, plain_pending));
  ASSERT_TRUE(server.try_submit(bogus, bogus_pending));
  ASSERT_TRUE(server.try_submit(word, word_pending));
  server.start();

  const MatchResponse plain_response = plain_pending.get();
  EXPECT_TRUE(plain_response.ok) << plain_response.error;
  EXPECT_EQ(plain_response.batch, 1);

  const MatchResponse bogus_response = bogus_pending.get();
  EXPECT_FALSE(bogus_response.ok);
  EXPECT_NE(bogus_response.error.find("unknown kernel arm"),
            std::string::npos)
      << bogus_response.error;
  EXPECT_EQ(bogus_response.batch, 1);

  const MatchResponse word_response = word_pending.get();
  EXPECT_TRUE(word_response.ok) << word_response.error;
  EXPECT_EQ(word_response.batch, 1)
      << "a valid non-default kernel is not folded into the default group";
  EXPECT_EQ(word_response.cardinality,
            roster.find("alpha")->maximum_cardinality);

  const ServerCounters counters = server.counters();
  EXPECT_EQ(counters.batches, 3u);
  EXPECT_EQ(counters.coalesced, 0u);
  EXPECT_EQ(counters.failed, 1u);
}

TEST(MatchServer, DeadlinePassedInQueueYieldsExpiredResponse) {
  const GraphRoster roster = small_roster();
  ServerOptions options;
  options.workers = 1;
  options.autostart = false;  // hold the request in the queue past its
                              // deadline
  MatchServer server(roster, options);

  MatchRequest request;
  request.graph = "alpha";
  request.deadline_ms = 1;
  std::future<MatchResponse> pending;
  ASSERT_TRUE(server.try_submit(std::move(request), pending));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server.start();

  const MatchResponse response = pending.get();
  EXPECT_FALSE(response.ok);
  EXPECT_TRUE(response.expired);
  EXPECT_FALSE(response.rejected) << "expiry is not an admission rejection";
  EXPECT_NE(response.error.find("deadline exceeded"), std::string::npos)
      << response.error;

  const ServerCounters counters = server.counters();
  EXPECT_EQ(counters.expired, 1u);
  EXPECT_EQ(counters.completed, 0u) << "nothing was solved";
  EXPECT_EQ(counters.accepted, counters.completed + counters.failed +
                                   counters.expired);
}

TEST(MatchServer, ExpiredMembersDoNotPoisonTheirBatch) {
  const GraphRoster roster = small_roster();
  ServerOptions options;
  options.workers = 1;
  options.autostart = false;
  MatchServer server(roster, options);

  MatchRequest doomed;
  doomed.graph = "alpha";
  doomed.deadline_ms = 1;
  MatchRequest fine;
  fine.graph = "alpha";  // same key: both land in one batch
  std::future<MatchResponse> doomed_pending, fine_pending;
  ASSERT_TRUE(server.try_submit(std::move(doomed), doomed_pending));
  ASSERT_TRUE(server.try_submit(std::move(fine), fine_pending));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server.start();

  const MatchResponse expired = doomed_pending.get();
  EXPECT_TRUE(expired.expired);
  const MatchResponse served = fine_pending.get();
  EXPECT_TRUE(served.ok) << served.error;
  EXPECT_EQ(served.cardinality, roster.find("alpha")->maximum_cardinality);
  EXPECT_EQ(served.batch, 1) << "the expired member left a group of one";
}

TEST(MatchServer, AdmissionGateRejectsUnmeetableDeadlines) {
  const GraphRoster roster = small_roster();
  ServerOptions options;
  options.workers = 1;
  options.autostart = false;
  options.queue_capacity = 16;
  // Deterministic gate: pretend each request takes 50 ms, so 4 queued
  // requests imply a 200 ms backlog.
  options.assumed_service_ms = 50.0;
  MatchServer server(roster, options);
  EXPECT_DOUBLE_EQ(server.service_estimate_ms(), 50.0);

  MatchRequest request;
  request.graph = "alpha";
  std::vector<std::future<MatchResponse>> backlog(4);
  for (auto& future : backlog) {
    ASSERT_TRUE(server.try_submit(request, future));
  }

  MatchRequest tight;
  tight.graph = "alpha";
  tight.deadline_ms = 10;  // backlog says ~200 ms: hopeless
  std::future<MatchResponse> rejected_future;
  std::string reason;
  EXPECT_FALSE(server.try_submit(tight, rejected_future, &reason));
  EXPECT_NE(reason.find("unmeetable"), std::string::npos) << reason;

  MatchRequest roomy;
  roomy.graph = "alpha";
  roomy.deadline_ms = 10'000;  // plenty of headroom: admitted
  std::future<MatchResponse> admitted;
  EXPECT_TRUE(server.try_submit(std::move(roomy), admitted));

  EXPECT_EQ(server.counters().rejected, 1u);
  server.start();  // drain so every accepted future resolves
  for (auto& future : backlog) {
    EXPECT_TRUE(future.get().ok);
  }
  EXPECT_TRUE(admitted.get().ok);
}

TEST(MatchServer, StopUnderLoadFulfillsEveryAcceptedPromise) {
  const GraphRoster roster = small_roster();
  ServerOptions options;
  options.workers = 2;
  options.queue_capacity = 8;  // small: submitters race a shrinking door
  MatchServer server(roster, options);

  // Four submitters race stop(): every future whose try_submit said
  // "accepted" must still resolve to a real response -- a broken
  // promise (std::future_error on get) means stop() dropped work it
  // had admitted.
  constexpr int kSubmitters = 4;
  constexpr int kPerSubmitter = 12;
  std::vector<std::vector<std::future<MatchResponse>>> accepted(kSubmitters);
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      for (int r = 0; r < kPerSubmitter; ++r) {
        MatchRequest request;
        request.graph = s % 2 == 0 ? "alpha" : "beta";
        if (r % 3 == 0) request.deadline_ms = 1;  // some will expire
        std::future<MatchResponse> pending;
        if (server.try_submit(std::move(request), pending)) {
          accepted[static_cast<std::size_t>(s)].push_back(
              std::move(pending));
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  server.stop();  // races the submitters AND the in-flight batches
  for (std::thread& submitter : submitters) submitter.join();

  std::size_t total_accepted = 0;
  for (auto& futures : accepted) {
    for (auto& future : futures) {
      ++total_accepted;
      ASSERT_NO_THROW({
        const MatchResponse response = future.get();
        // ok, failed, or expired are all legitimate; silence is not.
        if (!response.ok) {
          EXPECT_TRUE(!response.error.empty() || response.expired);
        }
      });
    }
  }
  const ServerCounters counters = server.counters();
  EXPECT_EQ(counters.accepted, total_accepted);
  EXPECT_EQ(counters.accepted,
            counters.completed + counters.failed + counters.expired)
      << "every accepted request is accounted for";
}

TEST(MatchServer, SameKeyRequestsJoinTheRunningSolve) {
  // One worker, several closed-loop submitters of the same question:
  // while a solve runs, the others' requests join it (or are claimed
  // from the queue with it) instead of waiting for solves of their own.
  const GraphRoster roster = small_roster();
  ServerOptions options;
  options.workers = 1;
  MatchServer server(roster, options);

  constexpr int kSubmitters = 4;
  constexpr int kPerSubmitter = 16;
  std::vector<std::vector<MatchResponse>> responses(kSubmitters);
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      for (int r = 0; r < kPerSubmitter; ++r) {
        MatchRequest request;
        request.graph = "alpha";
        responses[static_cast<std::size_t>(s)].push_back(
            server.solve(std::move(request)));
      }
    });
  }
  for (std::thread& submitter : submitters) submitter.join();

  // A solve that answered g requests shows up as g responses reporting
  // batch == g, so per batch value the response count is a multiple of
  // it, and count / g is that value's number of solves.
  const std::int64_t maximum = roster.find("alpha")->maximum_cardinality;
  std::map<int, std::uint64_t> responses_by_batch;
  for (const auto& mine : responses) {
    for (const MatchResponse& response : mine) {
      EXPECT_TRUE(response.ok) << response.error;
      EXPECT_EQ(response.cardinality, maximum);
      EXPECT_GE(response.batch, 1);
      EXPECT_LE(response.batch, kSubmitters)
          << "each closed-loop submitter has one request outstanding";
      ++responses_by_batch[response.batch];
    }
  }
  std::uint64_t solves = 0;
  std::uint64_t answered = 0;
  for (const auto& [batch, count] : responses_by_batch) {
    EXPECT_EQ(count % static_cast<std::uint64_t>(batch), 0u)
        << "batch " << batch;
    solves += count / static_cast<std::uint64_t>(batch);
    answered += count;
  }
  const ServerCounters counters = server.counters();
  EXPECT_EQ(counters.completed, answered)
      << "the batch values of distinct solves sum to completed";
  EXPECT_EQ(counters.batches, solves);
  EXPECT_LT(counters.batches, counters.completed)
      << "identical concurrent requests shared no solve";
  EXPECT_EQ(counters.accepted, counters.completed);

  // After stop() nothing joins or queues: the request is rejected.
  server.stop();
  MatchRequest late;
  late.graph = "alpha";
  std::future<MatchResponse> never;
  std::string reason;
  EXPECT_FALSE(server.try_submit(late, never, &reason));
  EXPECT_NE(reason.find("stopped"), std::string::npos) << reason;
  EXPECT_EQ(server.counters().rejected, 1u);
  EXPECT_EQ(server.counters().accepted, answered);
}

TEST(MatchServer, ClampsRequestedWidthToTheCoreCount) {
  // The width comes off the wire; the server must not hand an
  // arbitrary value to the OpenMP runtime. Five over the core count is
  // enough to show the clamp without starting a flood of threads. The
  // graph would grant the unclamped width, so only the clamp narrows it.
  const int cores = omp_get_num_procs();
  GraphRoster roster;
  roster.add("wide", graph_for_width(cores + 5, [](int k) {
               return planted(13, 5000 * k);
             }));
  MatchServer server(roster);
  MatchRequest request;
  request.graph = "wide";
  request.threads = cores + 5;
  const MatchResponse wide = server.solve(request);
  EXPECT_TRUE(wide.ok) << wide.error;
  EXPECT_EQ(wide.threads, cores);

  request.threads = 0;  // server default (1)
  const MatchResponse fallback = server.solve(request);
  EXPECT_TRUE(fallback.ok) << fallback.error;
  EXPECT_EQ(fallback.threads, 1);
}

TEST(MatchServer, ReportsTheWidthTheSolveUsed) {
  // MatchResponse::threads is the width the solve ran at; hk is serial.
  if (omp_get_num_procs() < 2) GTEST_SKIP() << "needs 2 cores to ask for 2";
  const GraphRoster roster = small_roster();
  MatchServer server(roster);
  MatchRequest request;
  request.graph = "alpha";
  request.solver = "hk";
  request.threads = 2;
  const MatchResponse response = server.solve(request);
  EXPECT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.threads, 1);
}

TEST(MatchServer, FarDeadlineSaturatesInsteadOfExpiring) {
  // now + INT64_MAX ms once overflowed the clock, so "practically no
  // deadline" read as already passed and the request came back expired.
  const GraphRoster roster = small_roster();
  MatchServer server(roster);
  MatchRequest request;
  request.graph = "alpha";
  request.deadline_ms = std::numeric_limits<std::int64_t>::max();
  const MatchResponse response = server.solve(request);
  EXPECT_TRUE(response.ok) << response.error;
  EXPECT_FALSE(response.expired);
  EXPECT_EQ(response.cardinality, roster.find("alpha")->maximum_cardinality);
}

TEST(Uds, EndToEndOverRealSocket) {
  const GraphRoster roster = small_roster();
  MatchServer server(roster);
  // Tests run with the binary dir as cwd; a relative path keeps us
  // under sockaddr_un's 108-byte limit regardless of build-tree depth.
  UdsServer uds(server, "test_serve_uds.sock");
  std::string error;
  ASSERT_TRUE(uds.start(error)) << error;

  UdsClient client;
  ASSERT_TRUE(client.connect("test_serve_uds.sock", error)) << error;

  MatchRequest request;
  request.graph = "alpha";
  MatchResponse response;
  ASSERT_TRUE(client.request(request, response, error)) << error;
  EXPECT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.cardinality, roster.find("alpha")->maximum_cardinality);

  // Same connection, second exchange: the per-connection loop persists.
  request.graph = "beta";
  ASSERT_TRUE(client.request(request, response, error)) << error;
  EXPECT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.cardinality, roster.find("beta")->maximum_cardinality);

  client.close();
  uds.stop();
  EXPECT_FALSE(uds.running());
}

TEST(Uds, MalformedPayloadGetsErrorResponse) {
  const GraphRoster roster = small_roster();
  MatchServer server(roster);
  UdsServer uds(server, "test_serve_uds_bad.sock");
  std::string error;
  ASSERT_TRUE(uds.start(error)) << error;

  // A request whose graph field is empty fails decode_request on the
  // server side; the connection must answer with an error response
  // instead of dropping.
  UdsClient client;
  ASSERT_TRUE(client.connect("test_serve_uds_bad.sock", error)) << error;
  MatchResponse response;
  MatchRequest empty;  // graph stays empty -> decode_request fails
  ASSERT_TRUE(client.request(empty, response, error)) << error;
  EXPECT_FALSE(response.ok);
  EXPECT_FALSE(response.error.empty());

  uds.stop();
}

TEST(Uds, RestartAfterStopReusesPath) {
  const GraphRoster roster = small_roster();
  MatchServer server(roster);
  UdsServer first(server, "test_serve_uds_restart.sock");
  std::string error;
  ASSERT_TRUE(first.start(error)) << error;
  first.stop();

  UdsServer second(server, "test_serve_uds_restart.sock");
  ASSERT_TRUE(second.start(error)) << error;
  UdsClient client;
  ASSERT_TRUE(client.connect("test_serve_uds_restart.sock", error)) << error;
  MatchRequest request;
  request.graph = "alpha";
  MatchResponse response;
  ASSERT_TRUE(client.request(request, response, error)) << error;
  EXPECT_TRUE(response.ok) << response.error;
  second.stop();
}

TEST(Uds, ClientRefusesRequestWithControlCharacters) {
  const GraphRoster roster = small_roster();
  MatchServer server(roster);
  UdsServer uds(server, "test_serve_uds_ctrl.sock");
  std::string error;
  ASSERT_TRUE(uds.start(error)) << error;

  UdsClient client;
  ASSERT_TRUE(client.connect("test_serve_uds_ctrl.sock", error)) << error;
  MatchRequest request;
  request.graph = "al\npha";  // would have been looked up as "al pha"
  MatchResponse response;
  EXPECT_FALSE(client.request(request, response, error));
  EXPECT_NE(error.find("control character"), std::string::npos) << error;

  // The connection survives the refused request (nothing was sent).
  request.graph = "alpha";
  ASSERT_TRUE(client.request(request, response, error)) << error;
  EXPECT_TRUE(response.ok) << response.error;
  uds.stop();
}

TEST(Uds, ConnectionChurnDeregistersAndReaps) {
  const GraphRoster roster = small_roster();
  MatchServer server(roster);
  UdsServer uds(server, "test_serve_uds_churn.sock");
  std::string error;
  ASSERT_TRUE(uds.start(error)) << error;

  // Rapid connect/request/disconnect cycles: every serving thread must
  // deregister its fd (before closing it) and get reaped by the accept
  // loop -- the old server grew one dead thread per connection forever.
  constexpr int kChurn = 24;
  for (int i = 0; i < kChurn; ++i) {
    UdsClient client;
    ASSERT_TRUE(client.connect("test_serve_uds_churn.sock", error)) << error;
    MatchRequest request;
    request.graph = i % 2 == 0 ? "alpha" : "beta";
    MatchResponse response;
    ASSERT_TRUE(client.request(request, response, error)) << error;
    EXPECT_TRUE(response.ok) << response.error;
    client.close();
  }

  // The accept loop reaps on every poll tick (<= 100 ms apart); after
  // all clients are gone the tracked set must drain to zero.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (uds.tracked_connections() > 0 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(uds.tracked_connections(), 0u)
      << "finished connections were never reaped";

  // And the server still accepts fresh connections afterwards.
  UdsClient client;
  ASSERT_TRUE(client.connect("test_serve_uds_churn.sock", error)) << error;
  MatchRequest request;
  request.graph = "alpha";
  MatchResponse response;
  ASSERT_TRUE(client.request(request, response, error)) << error;
  EXPECT_TRUE(response.ok) << response.error;
  uds.stop();
  EXPECT_EQ(uds.tracked_connections(), 0u);
}

TEST(Uds, BatchedRequestsOverSocketCarryGroupSize) {
  const GraphRoster roster = small_roster();
  ServerOptions options;
  options.workers = 1;
  MatchServer server(roster, options);
  UdsServer uds(server, "test_serve_uds_batch.sock");
  std::string error;
  ASSERT_TRUE(uds.start(error)) << error;

  // Several socket clients issue the same request concurrently; the
  // responses must be correct however the requests share solves, and
  // each must report a plausible group size.
  constexpr int kClients = 4;
  std::vector<std::thread> clients;
  std::vector<int> batch_seen(kClients, 0);
  std::vector<int> failures(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      UdsClient client;
      std::string client_error;
      if (!client.connect("test_serve_uds_batch.sock", client_error)) {
        ++failures[static_cast<std::size_t>(c)];
        return;
      }
      MatchRequest request;
      request.graph = "alpha";
      MatchResponse response;
      if (!client.request(request, response, client_error) || !response.ok ||
          response.cardinality != roster.find("alpha")->maximum_cardinality) {
        ++failures[static_cast<std::size_t>(c)];
        return;
      }
      batch_seen[static_cast<std::size_t>(c)] = response.batch;
    });
  }
  for (std::thread& thread : clients) thread.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[static_cast<std::size_t>(c)], 0) << "client " << c;
    EXPECT_GE(batch_seen[static_cast<std::size_t>(c)], 1);
    EXPECT_LE(batch_seen[static_cast<std::size_t>(c)], kClients);
  }
  uds.stop();
}

}  // namespace
}  // namespace graftmatch::serve
