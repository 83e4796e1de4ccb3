// perfbench: runs ONE workload of the graftmatch benchmark and prints
// one JSON line of raw results for run.py to report.
//
// It calls the library only through its public entry points
// (suite generators, the Hopcroft-Karp oracle, engine::run, the
// initializer/solver registries, MatchServer + UdsServer/UdsClient,
// DynamicMatcher, validate_matching) and reads only the counters the
// library already returns (RunStats, ServerCounters, RunStats::dynamic,
// SessionContext::region_epoch(), workspaces().created()). It adds no
// tracing inside the library: in the traced pass (--trace 1) it records
// its own spans around each call into a layer and arms the session's
// existing obs trace.
//
// Workloads (see NOTE.md for why each exists):
//   skew   copapers-like, engine::run("graft", "rgreedy"), 1-thread and
//          wide (nproc - 1 threads) ops interleaved
//   serve  MatchServer behind a UdsServer socket, 4 closed-loop clients
//          (1 client in the interleaved single-client blocks)
//   churn  DynamicMatcher replaying remove+re-add batches of 64 edges;
//          a wide and a 1-thread matcher take turns
//
// Usage:
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--spans PATH] [--socket PATH]
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "graftmatch/baselines/hopcroft_karp.hpp"
#include "graftmatch/dynamic/dynamic_matcher.hpp"
#include "graftmatch/engine/registry.hpp"
#include "graftmatch/gen/suite.hpp"
#include "graftmatch/runtime/cli.hpp"
#include "graftmatch/runtime/context.hpp"
#include "graftmatch/runtime/prng.hpp"
#include "graftmatch/runtime/system_info.hpp"
#include "graftmatch/serve/roster.hpp"
#include "graftmatch/serve/server.hpp"
#include "graftmatch/serve/uds.hpp"
#include "graftmatch/verify/validate.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_LIB_FLAGS
#define PERFBENCH_LIB_FLAGS "unknown"
#endif

namespace {

using namespace graftmatch;
using Clock = std::chrono::steady_clock;

// ---- workload constants (NOTE.md explains the choices) ----------------
constexpr double kSkewSize = 0.5;
constexpr double kServeSize = 0.05;  // one small graph per class
// The served roster is matchd's default deployment (generator seed 1);
// --seed drives the traffic, i.e. which graph each request names.
constexpr std::uint64_t kServeRosterSeed = 1;
// rmat-like at this size keeps most of its working set in the private
// L2; at 0.25 the batch time doubled whenever other tenants of the host
// contended for the shared L3, while at 0.05 it moved ~20%.
constexpr double kChurnSize = 0.05;
constexpr int kChurnBatch = 64;      // edges removed, then re-added
constexpr double kChurnWindow = 0.1; // share of the shuffled edge list
constexpr int kServeClients = 4;
constexpr int kSetups = 3;           // setup_s is their median
// skew cycles through every pairing of this many graphs and
// this many initializer seeds, all derived from --seed. The work of one
// solve (phases, edges) depends on both: on one kkt_power-like graph
// the rgreedy seed alone moves the edges traversed by up to 70%. One
// run's medians then describe the workload, not one lucky pairing.
constexpr int kSolveInstances = 4;
constexpr int kInitSeeds = 4;
// ops_per_s is the median rate over blocks of this many churn pairs (one
// batch per matcher each); skew uses one cycle of combos.
constexpr int kChurnRateBlock = 256;
// Churn counters are reported over this many measured batches of the
// 1-thread matcher, so they compare exactly across same-seed runs. It
// spans a staleness re-solve (one every ~740 batches at this size).
constexpr int kChurnExactBatches = 1024;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolated percentile, p in [0, 1].
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

/// ops_per_s: ops completed per second of the timed window, with the
/// correctness checks (run inside the window, outside each op's timing)
/// taken out. The window is cut into blocks and the median block rate is
/// reported, so a burst of host steal over a few seconds of the window
/// moves it no more than it moves the median op time.
class BlockRate {
 public:
  BlockRate() : start_(Clock::now()) {}
  void op() { ++ops_; }
  void exclude(double seconds) { excluded_ += seconds; }
  void close_block() {
    const auto now = Clock::now();
    const double busy =
        std::chrono::duration<double>(now - start_).count() - excluded_;
    if (ops_ > 0 && busy > 0.0) rates_.push_back(ops_ / busy);
    start_ = now;
    ops_ = 0.0;
    excluded_ = 0.0;
  }
  /// Closes a trailing partial block only when no whole block completed.
  double median_rate() {
    if (rates_.empty()) close_block();
    return median(rates_);
  }
  std::int64_t blocks() const {
    return static_cast<std::int64_t>(rates_.size());
  }

 private:
  Clock::time_point start_;
  double ops_ = 0.0;
  double excluded_ = 0.0;
  std::vector<double> rates_;
};

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

struct Usage {
  double cpu_s = 0.0;
  double minflt = 0.0;
  double nvcsw = 0.0;
  double nivcsw = 0.0;
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                       ru.ru_stime.tv_usec);
  u.minflt = static_cast<double>(ru.ru_minflt);
  u.nvcsw = static_cast<double>(ru.ru_nvcsw);
  u.nivcsw = static_cast<double>(ru.ru_nivcsw);
  return u;
}

Usage operator-(const Usage& a, const Usage& b) {
  return {a.cpu_s - b.cpu_s, a.minflt - b.minflt, a.nvcsw - b.nvcsw,
          a.nivcsw - b.nivcsw};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Host probe: a fixed-length dependent-load chase over one 8 MiB
/// single-cycle permutation built from a fixed seed, so every run does
/// identical work. Reported only to show whether a run landed in a slow
/// host phase; never used to scale a metric.
double pointer_chase_ns() {
  constexpr std::size_t kEntries = std::size_t{1} << 21;
  std::vector<std::uint32_t> next(kEntries);
  std::iota(next.begin(), next.end(), 0u);
  Xoshiro256 rng(0x5eedf00dULL);
  for (std::size_t i = kEntries - 1; i > 0; --i) {  // Sattolo: one cycle
    std::swap(next[i], next[rng.below(i)]);
  }
  std::uint32_t at = 0;
  const auto t0 = Clock::now();
  for (std::size_t step = 0; step < kEntries; ++step) at = next[at];
  const double ns = seconds_since(t0) * 1e9 / static_cast<double>(kEntries);
  if (at == 0xffffffffu) std::fprintf(stderr, "unreachable\n");
  return ns;
}

// ---- spans (traced pass only) ------------------------------------------

struct Span {
  std::string name;
  std::int64_t op = -1;  ///< op id shared by the spans of one op; -1 = setup
  int parent = -1;       ///< index into the span log, -1 = root
  int width = 0;         ///< solver width (or clients) the op ran at
  double start = 0.0;    ///< seconds since the process started
  double end = 0.0;
};

/// In-memory span log: written out at exit, self time derived from it.
class SpanLog {
 public:
  SpanLog(bool enabled, Clock::time_point origin)
      : enabled_(enabled), origin_(origin) {}

  bool enabled() const noexcept { return enabled_; }

  int open(const char* name, std::int64_t op, int width, int parent = -1) {
    if (!enabled_) return -1;
    const double start = now();
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, op, parent, width, start, 0.0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int index) {
    if (index < 0) return;
    const double end = now();
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(index)].end = end;
  }

  /// Duration minus the part covered by the span's direct children.
  /// Call only after every recording thread has finished.
  std::vector<double> self_seconds() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end - spans_[i].start;
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
      }
    }
    return self;
  }

  /// Median self time, in ms, of the spans named `name` at `width`.
  double median_self_ms(const std::string& name, int width) const {
    const std::vector<double> self = self_seconds();
    std::vector<double> ms;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name == name && spans_[i].width == width) {
        ms.push_back(self[i] * 1e3);
      }
    }
    return median(ms);
  }

  void write(const std::string& path) const {
    if (!enabled_ || path.empty()) return;
    std::ofstream out(path);
    const std::vector<double> self = self_seconds();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"name\":\"" << s.name
          << "\",\"op\":" << s.op << ",\"parent\":" << s.parent
          << ",\"width\":" << s.width << ",\"start_s\":" << s.start
          << ",\"end_s\":" << s.end << ",\"self_s\":" << self[i] << "}\n";
    }
  }

 private:
  double now() const { return seconds_since(origin_); }

  bool enabled_;
  Clock::time_point origin_;
  std::mutex mutex_;  // serve clients record spans concurrently
  std::vector<Span> spans_;
};

/// RAII span; a no-op when the log is disabled.
class SpanScope {
 public:
  SpanScope(SpanLog& log, const char* name, std::int64_t op, int width,
            int parent = -1)
      : log_(log), index_(log.open(name, op, width, parent)) {}
  ~SpanScope() { log_.close(index_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  int index() const noexcept { return index_; }

 private:
  SpanLog& log_;
  int index_;
};

// ---- results -----------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
  std::int64_t samples = 0;  ///< 0 = not a sampled timing
};

struct Results {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, std::int64_t> failures;  ///< reason -> count
  std::map<std::string, Metric> metrics;
  /// Counters that repeat exactly at a fixed seed (run.py compares them
  /// across same-seed runs).
  std::map<std::string, std::int64_t> exact;

  void set(const std::string& name, double value, const std::string& unit,
           std::int64_t samples = 0) {
    metrics[name] = {value, unit, samples};
  }
  void set_exact(const std::string& name, std::int64_t value,
                 const std::string& unit = "count") {
    set(name, static_cast<double>(value), unit);
    exact[name] = value;
  }
  /// Record one checked op; `reason` empty means it passed.
  void check(const std::string& reason) {
    ++attempted;
    if (!reason.empty()) {
      ++failed;
      ++failures[reason];
    }
  }
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string fmt(double v) {
  std::ostringstream out;
  out.precision(17);
  out << v;
  return out.str();
}

// ---- options -------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
  std::string socket_path = ".bench_build/perfbench.sock";
};

int nproc() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

/// The width of the wide ops: every online CPU but one. The spare CPU
/// takes the OS, the runner and the other threads of the process, so a
/// level barrier of the solver does not wait for a team thread parked
/// behind one of them. Two at least, so the widths stay distinct.
int wide_width() { return std::max(2, nproc() - 1); }

/// The widths of the interleaved ops: 1 thread (Fig. 5's baseline) and
/// wide_width(). Suffix "_1t" names the 1-thread variant.
std::string width_suffix(int width) { return width == 1 ? "_1t" : ""; }

// ---- skew: one op = a maximum matching from scratch -----------------------

struct SolveInstance {
  BipartiteGraph graph;
  std::int64_t oracle = 0;
};

struct SolveState {
  std::vector<SolveInstance> instances;
  std::unique_ptr<SessionContext> session;
};

/// Checks one solve: cardinality equals the oracle and the matching is
/// valid. Returns the failure reason, or "" on success.
std::string check_solve(const BipartiteGraph& g, const Matching& m,
                        const RunStats& stats, std::int64_t oracle) {
  if (stats.final_cardinality != oracle) {
    return "reported cardinality differs from the Hopcroft-Karp oracle";
  }
  if (m.cardinality() != oracle) {
    return "matching cardinality differs from the Hopcroft-Karp oracle";
  }
  const std::string invalid = validate_matching(g, m);
  return invalid.empty() ? "" : "invalid matching: " + invalid;
}

/// One per-layer metric read from a RunStats.
struct StatField {
  const char* name;
  const char* unit;
  double (*get)(const RunStats&);
};

/// Step times and search rate, reported at both widths.
const StatField kStepFields[] = {
    {"core.top_down_ms", "ms",
     [](const RunStats& s) { return s.step_seconds.top_down * 1e3; }},
    {"core.bottom_up_ms", "ms",
     [](const RunStats& s) { return s.step_seconds.bottom_up * 1e3; }},
    {"core.augment_ms", "ms",
     [](const RunStats& s) { return s.step_seconds.augment * 1e3; }},
    {"core.graft_ms", "ms",
     [](const RunStats& s) { return s.step_seconds.graft * 1e3; }},
    {"core.statistics_ms", "ms",
     [](const RunStats& s) { return s.step_seconds.statistics * 1e3; }},
    {"core.other_ms", "ms",
     [](const RunStats& s) { return s.step_seconds.other * 1e3; }},
    {"core.mteps", "MTEPS", [](const RunStats& s) { return s.mteps(); }},
};

/// Work counts: exact at 1 thread (suffix _1t), medians at nproc.
const StatField kCountFields[] = {
    {"init.cardinality", "count",
     [](const RunStats& s) { return double(s.initial_cardinality); }},
    {"core.phases", "count", [](const RunStats& s) { return double(s.phases); }},
    {"core.edges", "count",
     [](const RunStats& s) { return double(s.edges_traversed); }},
    {"core.augmentations", "count",
     [](const RunStats& s) { return double(s.augmentations); }},
    {"core.bottom_up_levels", "count",
     [](const RunStats& s) { return double(s.direction.bottom_up_levels); }},
    {"core.switches", "count",
     [](const RunStats& s) { return double(s.direction.switches); }},
    {"core.pool_builds", "count",
     [](const RunStats& s) { return double(s.bookkeeping.pool_builds); }},
    {"core.pool_reinserts", "count",
     [](const RunStats& s) { return double(s.bookkeeping.pool_reinserts); }},
};

/// Trace-derived counters of the armed runs, at nproc.
const StatField kObsFields[] = {
    {"obs.events", "count", [](const RunStats& s) { return double(s.obs.events); }},
    {"obs.dropped", "count",
     [](const RunStats& s) { return double(s.obs.dropped); }},
    {"obs.levels", "count", [](const RunStats& s) { return double(s.obs.levels); }},
    {"obs.frontier_peak", "count",
     [](const RunStats& s) { return double(s.obs.frontier_peak); }},
    {"obs.grafts", "count", [](const RunStats& s) { return double(s.obs.grafts); }},
    {"obs.rebuilds", "count",
     [](const RunStats& s) { return double(s.obs.rebuilds); }},
};

double median_of(const std::vector<RunStats>& runs, const StatField& field) {
  std::vector<double> v;
  for (const RunStats& s : runs) v.push_back(field.get(s));
  return median(v);
}

/// The exact counters of one 1-thread solve.
std::map<std::string, std::int64_t> solve_counters(
    const RunStats& stats, std::uint64_t regions) {
  std::map<std::string, std::int64_t> counters;
  for (const StatField& field : kCountFields) {
    counters[std::string(field.name) + "_1t"] =
        static_cast<std::int64_t>(field.get(stats));
  }
  counters["runtime.regions_1t"] = static_cast<std::int64_t>(regions);
  return counters;
}

struct SolveSample {
  double ms = 0.0;
  RunStats stats;
  std::uint64_t regions = 0;
  Usage usage;
};

SolveSample timed_engine_run(SessionContext& session, const BipartiteGraph& g,
                             int width, std::uint64_t seed, Matching& m) {
  RunConfig config;
  config.threads = width;
  config.seed = seed;
  m = Matching(g.num_x(), g.num_y());
  const std::uint64_t regions0 = session.region_epoch().load();
  const Usage u0 = usage_now();
  const auto t0 = Clock::now();
  SolveSample s;
  s.stats = engine::run(session, "graft", "rgreedy", g, m, config);
  s.ms = seconds_since(t0) * 1e3;
  s.usage = usage_now() - u0;
  s.regions = session.region_epoch().load() - regions0;
  return s;
}

void run_skew_workload(const Options& opt, Results& r, SpanLog& spans) {
  const int wide = wide_width();
  const int widths[2] = {1, wide};
  std::vector<std::uint64_t> init_seeds;
  for (int j = 0; j < kInitSeeds; ++j) {
    init_seeds.push_back(opt.seed * 0x9e3779b97f4a7c15ULL +
                         static_cast<std::uint64_t>(j) + 1);
  }
  constexpr int kCombos = kSolveInstances * kInitSeeds;

  // Setup, repeated; setup_s is the median. Each one generates the
  // graphs, computes their oracles, opens a session and warms it up.
  std::vector<double> setup_s;
  std::vector<double> gen_s;
  std::vector<double> oracle_s;
  std::unique_ptr<SolveState> state;
  for (int k = 0; k < kSetups; ++k) {
    state.reset();
    const auto t0 = Clock::now();
    auto next = std::make_unique<SolveState>();
    double gen = 0.0;
    double oracle = 0.0;
    for (int i = 0; i < kSolveInstances; ++i) {
      SolveInstance inst;
      {
        SpanScope span(spans, "gen.build", -1, 0);
        const auto tg = Clock::now();
        inst.graph = suite_instance("copapers-like").factory(
            kSkewSize,
            opt.seed * kSolveInstances + static_cast<std::uint64_t>(i));
        gen += seconds_since(tg);
      }
      {
        SpanScope span(spans, "verify.oracle", -1, 0);
        const auto to = Clock::now();
        inst.oracle = maximum_matching_cardinality(inst.graph);
        oracle += seconds_since(to);
      }
      next->instances.push_back(std::move(inst));
    }
    gen_s.push_back(gen);
    oracle_s.push_back(oracle);
    next->session = std::make_unique<SessionContext>();
    for (const SolveInstance& inst : next->instances) {
      for (const int w : widths) {
        Matching m;
        const SolveSample s = timed_engine_run(*next->session, inst.graph, w,
                                               init_seeds.front(), m);
        r.check(check_solve(inst.graph, m, s.stats, inst.oracle));
      }
    }
    setup_s.push_back(seconds_since(t0));
    state = std::move(next);
  }
  SessionContext& session = *state->session;
  r.set("setup_s", median(setup_s), "s", kSetups);
  r.set("gen.build_s", median(gen_s), "s");
  std::int64_t edges = 0;
  for (const SolveInstance& inst : state->instances) {
    edges += inst.graph.num_edges();
  }
  r.set_exact("gen.edges", edges);
  r.set("verify.oracle_s", median(oracle_s), "s");

  std::map<int, std::vector<double>> op_ms;        // engine::run, untraced
  std::map<int, std::vector<double>> traced_ms;    // engine::run, obs armed
  std::map<int, std::vector<RunStats>> stats;      // untraced runs
  std::map<int, std::vector<double>> regions;
  std::map<int, std::vector<Usage>> usage;
  std::map<int, std::vector<RunStats>> obs_stats;  // armed runs
  std::vector<double> check_ms;
  BlockRate rate;  // one block per cycle of combos, restarted below
  // The 1-thread counters of the first op of each (graph, seed) combo.
  std::vector<std::map<std::string, std::int64_t>> exact_first(kCombos);

  // Runs one op at `width` and checks it outside the timed window.
  auto solve_and_check = [&](const SolveInstance& inst, int combo,
                             std::uint64_t seed, int width,
                             std::int64_t op) -> SolveSample {
    const auto index = static_cast<std::size_t>(combo);
    Matching m;
    SolveSample s;
    {
      SpanScope span(spans, "engine.run", op, width);
      s = timed_engine_run(session, inst.graph, width, seed, m);
    }
    const auto tc = Clock::now();
    std::string reason;
    {
      SpanScope span(spans, "verify.check", op, width);
      reason = check_solve(inst.graph, m, s.stats, inst.oracle);
      if (reason.empty() && width == 1) {
        const auto counters = solve_counters(s.stats, s.regions);
        if (exact_first[index].empty()) exact_first[index] = counters;
        if (counters != exact_first[index]) {
          reason = "1-thread counters differ between ops of one run";
        }
      }
    }
    const double check_s = seconds_since(tc);
    check_ms.push_back(check_s * 1e3);
    rate.op();
    rate.exclude(check_s);
    r.check(reason);
    return s;
  };

  const auto window_start = Clock::now();
  rate = BlockRate();
  std::int64_t op = 0;
  for (int pair = 0; seconds_since(window_start) < opt.seconds; ++pair) {
    const int combo = pair % kCombos;
    const SolveInstance& inst =
        state->instances[static_cast<std::size_t>(combo % kSolveInstances)];
    const std::uint64_t solve_seed =
        init_seeds[static_cast<std::size_t>(combo / kSolveInstances)];
    const BipartiteGraph& g = inst.graph;
    // Alternate which width goes first, once per cycle of combos, so
    // neither always follows the other's cache and thread-pool state.
    const int flip = (pair / kCombos) % 2;
    const int order[2] = {widths[flip], widths[1 - flip]};
    for (const int width : order) {
      const SolveSample s =
          solve_and_check(inst, combo, solve_seed, width, op++);
      op_ms[width].push_back(s.ms);
      stats[width].push_back(s.stats);
      regions[width].push_back(static_cast<double>(s.regions));
      usage[width].push_back(s.usage);
      if (!spans.enabled()) continue;

      // Traced pass: the same op split at the layer boundaries (init,
      // then the solver), then once more with the session's obs trace
      // armed.
      {
        SpanScope parent(spans, "op.decomposed", op, width);
        RunConfig config;
        config.threads = width;
        config.seed = solve_seed;
        Matching m;
        {
          SpanScope span(spans, "init", op, width, parent.index());
          m = engine::make_initial_matching(session, "rgreedy", g, config);
        }
        RunStats solved;
        {
          SpanScope span(spans, "core.solve", op, width, parent.index());
          solved = engine::find_solver("graft").run(session, g, m, config);
        }
        r.check(check_solve(g, m, solved, inst.oracle));
      }
      session.trace().arm();
      Matching m;
      SolveSample armed;
      {
        SpanScope span(spans, "engine.run.traced", op, width);
        armed = timed_engine_run(session, g, width, solve_seed, m);
      }
      session.trace().disarm();
      r.check(check_solve(g, m, armed.stats, inst.oracle));
      traced_ms[width].push_back(armed.ms);
      obs_stats[width].push_back(armed.stats);
    }
    if (combo == kCombos - 1) rate.close_block();
  }
  const double window_s = seconds_since(window_start);

  // End-to-end metrics, from the untraced engine::run ops.
  const std::vector<double>& wide_ms = op_ms[wide];
  const auto n_wide = static_cast<std::int64_t>(wide_ms.size());
  r.set("op_ms", median(wide_ms), "ms", n_wide);
  r.set("op_ms.p90", percentile(wide_ms, 0.9), "ms", n_wide);
  r.set("op_ms_1t", median(op_ms[1]), "ms",
        static_cast<std::int64_t>(op_ms[1].size()));
  r.set("ops_per_s", rate.median_rate(), "1/s", rate.blocks());
  r.set("window_s", window_s, "s");

  // Exact counters (summed over the combos) are reported on every pass,
  // so run.py compares them across same-seed runs of either kind.
  std::map<std::string, std::int64_t> exact_sum;
  for (const auto& counters : exact_first) {
    for (const auto& [name, value] : counters) exact_sum[name] += value;
  }
  if (exact_first.back().empty()) {
    r.check("window too short to solve every combo at 1 thread");
  }
  for (const auto& [name, value] : exact_sum) r.set_exact(name, value);
  if (!spans.enabled()) return;

  // Per-layer metrics, per width.
  for (const int width : {wide, 1}) {
    const std::string sfx = width_suffix(width);
    const double init_ms = spans.median_self_ms("init", width);
    const double solve_ms = spans.median_self_ms("core.solve", width);
    r.set("init.ms" + sfx, init_ms, "ms");
    r.set("core.solve_ms" + sfx, solve_ms, "ms");
    r.set("engine.overhead_ms" + sfx,
          spans.median_self_ms("engine.run", width) - init_ms - solve_ms,
          "ms");
    for (const StatField& field : kStepFields) {
      r.set(field.name + sfx, median_of(stats[width], field), field.unit);
    }
    const std::pair<const char*, double Usage::*> usage_fields[] = {
        {"proc.cpu_s", &Usage::cpu_s},
        {"proc.minflt", &Usage::minflt},
        {"proc.nvcsw", &Usage::nvcsw},
        {"proc.nivcsw", &Usage::nivcsw}};
    for (const auto& [name, member] : usage_fields) {
      std::vector<double> v;
      for (const Usage& u : usage[width]) v.push_back(u.*member);
      r.set(name + sfx, median(v), member == &Usage::cpu_s ? "s" : "count");
    }
    r.set("obs.overhead" + sfx,
          median(traced_ms[width]) / median(op_ms[width]) - 1.0, "1");
    if (width == 1) continue;  // the 1-thread counts are exact, set above
    for (const StatField& field : kCountFields) {
      r.set(field.name, median_of(stats[width], field), field.unit);
    }
    for (const StatField& field : kObsFields) {
      r.set(field.name, median_of(obs_stats[width], field), field.unit);
    }
    r.set("runtime.regions", median(regions[width]), "count");
  }
  r.set("core.speedup", median(op_ms[1]) / median(op_ms[wide]), "1");
  r.set("verify.check_ms", median(check_ms), "ms");
  r.set("runtime.workspaces_created",
        static_cast<double>(session.workspaces().created()), "count");
}

// ---- serve: closed-loop clients over the Unix-domain socket ---------------

struct ServeSample {
  double latency_ms = 0.0;
  double check_ms = 0.0;  ///< check_response, after the round trip
  double solve_ms = 0.0;  ///< response.seconds, server-side
  int batch = 1;
  bool single = false;    ///< sent during a single-client block
};

/// Block schedule shared by the client threads. The main thread flips
/// `mode`; clients start a request only when the mode lets them, and
/// the main thread waits for in-flight requests to drain before
/// switching, so a single-client block never overlaps a 4-client one.
struct BlockControl {
  enum Mode { kPause, kMulti, kSingle, kStop };
  std::mutex mutex;
  std::condition_variable cv;
  Mode mode = kPause;
  int in_flight = 0;
};

struct ServeState {
  serve::GraphRoster roster;
  std::unique_ptr<serve::MatchServer> server;
  std::unique_ptr<serve::UdsServer> uds;
  std::vector<std::unique_ptr<serve::UdsClient>> clients;
  std::vector<Xoshiro256> pickers;  ///< per-client seeded graph choice
};

std::string check_response(const serve::GraphRoster& roster,
                           const serve::MatchRequest& request, bool transport,
                           const std::string& error,
                           const serve::MatchResponse& response) {
  if (!transport) return "transport failure: " + error;
  if (response.rejected) return "request rejected";
  if (response.expired) return "request expired";
  if (!response.ok) return "response not ok: " + response.error;
  const serve::RosterEntry* entry = roster.find(request.graph);
  if (entry == nullptr) return "unknown roster graph";
  if (response.cardinality != entry->maximum_cardinality ||
      response.maximum != entry->maximum_cardinality) {
    return "served cardinality differs from the roster maximum";
  }
  return "";
}

void run_serve_workload(const Options& opt, Results& r, SpanLog& spans) {
  const std::vector<std::string> names = {"kkt_power-like", "copapers-like",
                                          "wikipedia-like"};
  std::vector<double> setup_s;
  std::vector<double> gen_s;
  std::vector<double> oracle_s;
  std::unique_ptr<ServeState> state;
  std::mutex result_mutex;  // guards r and check_ms across client threads
  std::int64_t edges = 0;

  auto one_request = [&](ServeState& s, int client, std::int64_t op,
                         int width, ServeSample* sample) {
    serve::MatchRequest request;
    request.graph = names[s.pickers[static_cast<std::size_t>(client)].below(
        names.size())];
    serve::MatchResponse response;
    std::string error;
    bool transport = false;
    const auto t0 = Clock::now();
    {
      SpanScope span(spans, "serve.request", op, width);
      transport = s.clients[static_cast<std::size_t>(client)]->request(
          request, response, error);
    }
    const double latency_ms = seconds_since(t0) * 1e3;
    const auto tc = Clock::now();
    std::string reason;
    {
      SpanScope span(spans, "verify.check", op, width);
      reason = check_response(s.roster, request, transport, error, response);
    }
    if (sample != nullptr) {
      sample->check_ms = seconds_since(tc) * 1e3;
      sample->latency_ms = latency_ms;
      sample->solve_ms = response.seconds * 1e3;
      sample->batch = response.batch;
    }
    return reason;
  };

  for (int k = 0; k < kSetups; ++k) {
    state.reset();
    const auto t0 = Clock::now();
    auto next = std::make_unique<ServeState>();
    double gen = 0.0;
    double oracle = 0.0;
    edges = 0;
    for (std::size_t i = 0; i < names.size(); ++i) {
      const auto tg = Clock::now();
      BipartiteGraph graph = [&] {
        SpanScope span(spans, "gen.build", -1, 0);
        return suite_instance(names[i]).factory(kServeSize, kServeRosterSeed);
      }();
      gen += seconds_since(tg);
      edges += graph.num_edges();
      const auto to = Clock::now();
      {
        SpanScope span(spans, "verify.oracle", -1, 0);
        next->roster.add(names[i], std::move(graph));  // computes the oracle
      }
      oracle += seconds_since(to);
    }
    gen_s.push_back(gen);
    oracle_s.push_back(oracle);
    next->server = std::make_unique<serve::MatchServer>(next->roster);
    next->uds = std::make_unique<serve::UdsServer>(*next->server,
                                                    opt.socket_path);
    std::string error;
    if (!next->uds->start(error)) {
      throw std::runtime_error("serve: cannot start the socket server: " +
                               error);
    }
    for (int c = 0; c < kServeClients; ++c) {
      next->clients.push_back(std::make_unique<serve::UdsClient>());
      if (!next->clients.back()->connect(opt.socket_path, error)) {
        throw std::runtime_error("serve: cannot connect: " + error);
      }
      next->pickers.emplace_back(opt.seed * 0x100000001b3ULL +
                                 static_cast<std::uint64_t>(c));
    }
    // Warm-up: every client, concurrently, a few requests.
    std::vector<std::thread> warm;
    for (int c = 0; c < kServeClients; ++c) {
      warm.emplace_back([&, c] {
        for (int i = 0; i < 16; ++i) {
          const std::string reason =
              one_request(*next, c, -1, kServeClients, nullptr);
          const std::lock_guard<std::mutex> lock(result_mutex);
          r.check(reason);
        }
      });
    }
    for (std::thread& t : warm) t.join();
    setup_s.push_back(seconds_since(t0));
    state = std::move(next);
  }
  r.set("setup_s", median(setup_s), "s", kSetups);
  r.set("gen.build_s", median(gen_s), "s");
  r.set_exact("gen.edges", edges);
  r.set("verify.oracle_s", median(oracle_s), "s");

  // Timed window: 4-client blocks alternating with 1-client blocks.
  BlockControl control;
  std::vector<std::vector<ServeSample>> samples(kServeClients);
  std::vector<double> check_ms;
  std::int64_t next_op = 0;
  std::vector<std::thread> clients;
  for (int c = 0; c < kServeClients; ++c) {
    clients.emplace_back([&, c] {
      for (;;) {
        bool single = false;
        std::int64_t op = 0;
        {
          std::unique_lock<std::mutex> lock(control.mutex);
          control.cv.wait(lock, [&] {
            return control.mode == BlockControl::kStop ||
                   control.mode == BlockControl::kMulti ||
                   (control.mode == BlockControl::kSingle && c == 0);
          });
          if (control.mode == BlockControl::kStop) return;
          single = control.mode == BlockControl::kSingle;
          ++control.in_flight;
          op = next_op++;
        }
        ServeSample sample;
        sample.single = single;
        const std::string reason = one_request(
            *state, c, op, single ? 1 : kServeClients, &sample);
        {
          const std::lock_guard<std::mutex> lock(result_mutex);
          r.check(reason);
          check_ms.push_back(sample.check_ms);
        }
        samples[static_cast<std::size_t>(c)].push_back(sample);
        {
          const std::lock_guard<std::mutex> lock(control.mutex);
          --control.in_flight;
        }
        control.cv.notify_all();
      }
    });
  }

  const serve::ServerCounters before = state->server->counters();
  double multi_s = 0.0;
  std::int64_t multi_requests = 0;
  const auto window_start = Clock::now();
  constexpr double kMultiBlock = 0.6;   // seconds
  constexpr double kSingleBlock = 0.3;
  for (int block = 0; seconds_since(window_start) < opt.seconds; ++block) {
    const bool single = block % 2 == 1;
    const auto tb = Clock::now();
    {
      const std::lock_guard<std::mutex> lock(control.mutex);
      control.mode = single ? BlockControl::kSingle : BlockControl::kMulti;
    }
    control.cv.notify_all();
    std::this_thread::sleep_for(
        std::chrono::duration<double>(single ? kSingleBlock : kMultiBlock));
    {
      std::unique_lock<std::mutex> lock(control.mutex);
      control.mode = BlockControl::kPause;
      control.cv.wait(lock, [&] { return control.in_flight == 0; });
    }
    if (!single) multi_s += seconds_since(tb);
  }
  const double window_s = seconds_since(window_start);
  const serve::ServerCounters after = state->server->counters();
  {
    const std::lock_guard<std::mutex> lock(control.mutex);
    control.mode = BlockControl::kStop;
  }
  control.cv.notify_all();
  for (std::thread& t : clients) t.join();
  for (auto& c : state->clients) c->close();
  state->uds->stop();
  state->server->stop();

  std::vector<double> multi_ms, single_ms, queue_ms, solve_ms, batch;
  for (const auto& per_client : samples) {
    for (const ServeSample& s : per_client) {
      if (s.single) {
        single_ms.push_back(s.latency_ms);
        continue;
      }
      ++multi_requests;
      multi_ms.push_back(s.latency_ms);
      queue_ms.push_back(s.latency_ms - s.solve_ms);
      solve_ms.push_back(s.solve_ms);
      batch.push_back(s.batch);
    }
  }
  const auto n_multi = static_cast<std::int64_t>(multi_ms.size());
  r.set("op_ms", median(multi_ms), "ms", n_multi);
  r.set("op_ms.p90", percentile(multi_ms, 0.9), "ms", n_multi);
  r.set("op_ms_1t", median(single_ms), "ms",
        static_cast<std::int64_t>(single_ms.size()));
  r.set("ops_per_s", static_cast<double>(multi_requests) / multi_s, "1/s",
        n_multi);
  r.set("window_s", window_s, "s");
  if (!spans.enabled()) return;

  r.set("serve.p99_ms", percentile(multi_ms, 0.99), "ms", n_multi);
  r.set("serve.queue_ms", median(queue_ms), "ms");
  r.set("serve.solve_ms", median(solve_ms), "ms");
  r.set("serve.batch_mean", mean(batch), "1");
  const double completed =
      static_cast<double>(after.completed - before.completed);
  r.set("serve.solves_per_request",
        completed > 0.0
            ? static_cast<double>(after.batches - before.batches) / completed
            : 0.0,
        "1");
  r.set("serve.rejected", static_cast<double>(after.rejected - before.rejected),
        "count");
  r.set("serve.expired", static_cast<double>(after.expired - before.expired),
        "count");
  r.set("verify.check_ms", median(check_ms), "ms");
}

// ---- churn: remove then re-add a batch of edges ---------------------------

struct ChurnState {
  BipartiteGraph graph;
  std::int64_t oracle = 0;
  std::vector<Edge> window;  ///< the churned slice of the shuffled edges
  std::unique_ptr<SessionContext> wide_session;
  std::unique_ptr<SessionContext> narrow_session;
  std::unique_ptr<dynamic::DynamicMatcher> wide;    ///< nproc solves
  std::unique_ptr<dynamic::DynamicMatcher> narrow;  ///< 1-thread solves
};

std::vector<Edge> churn_batch(const std::vector<Edge>& window,
                              std::int64_t index) {
  std::vector<Edge> batch;
  batch.reserve(kChurnBatch);
  const auto n = static_cast<std::int64_t>(window.size());
  for (int k = 0; k < kChurnBatch; ++k) {
    batch.push_back(
        window[static_cast<std::size_t>((index * kChurnBatch + k) % n)]);
  }
  return batch;
}

std::string check_churn(const ChurnState& s,
                        const dynamic::DynamicMatcher& matcher) {
  if (matcher.cardinality() != s.oracle) {
    return "cardinality after re-add differs from the input maximum";
  }
  const std::string invalid = validate_matching(s.graph, matcher.matching());
  return invalid.empty() ? "" : "invalid matching after re-add: " + invalid;
}

std::map<std::string, std::int64_t> churn_counters(
    const DynamicCounters& now, const DynamicCounters& base) {
  return {
      {"dynamic.reaugment_searches",
       now.reaugment_searches - base.reaugment_searches},
      {"dynamic.reaugment_paths", now.reaugment_paths - base.reaugment_paths},
      {"dynamic.sweep_rounds", now.sweep_rounds - base.sweep_rounds},
      {"dynamic.direct_matches", now.direct_matches - base.direct_matches},
      {"dynamic.resolves", now.resolves - base.resolves},
      {"dynamic.compactions", now.compactions - base.compactions},
      {"dynamic.overlay_peak", now.overlay_peak},
  };
}

void run_churn_workload(const Options& opt, Results& r, SpanLog& spans) {
  const int wide = wide_width();
  std::vector<double> setup_s;
  std::vector<double> gen_s;
  std::vector<double> oracle_s;
  std::unique_ptr<ChurnState> state;
  std::int64_t batch_index = 0;

  for (int k = 0; k < kSetups; ++k) {
    state.reset();
    const auto t0 = Clock::now();
    auto next = std::make_unique<ChurnState>();
    {
      SpanScope span(spans, "gen.build", -1, 0);
      const auto tg = Clock::now();
      next->graph = suite_instance("rmat-like").factory(kChurnSize, opt.seed);
      gen_s.push_back(seconds_since(tg));
    }
    {
      SpanScope span(spans, "verify.oracle", -1, 0);
      const auto to = Clock::now();
      next->oracle = maximum_matching_cardinality(next->graph);
      oracle_s.push_back(seconds_since(to));
    }
    // bench_churn's stream: a seeded shuffle, then a 10% window cycled
    // in consecutive batches.
    std::vector<Edge> edges = next->graph.to_edges().edges;
    Xoshiro256 rng(opt.seed ^ static_cast<std::uint64_t>(kChurnBatch));
    for (std::size_t i = edges.size(); i > 1; --i) {
      std::swap(edges[rng.below(i)], edges[i - 1]);
    }
    const std::size_t window = std::max<std::size_t>(
        kChurnBatch, static_cast<std::size_t>(
                         kChurnWindow * static_cast<double>(edges.size())));
    edges.resize(std::min(edges.size(), window));
    next->window = std::move(edges);

    dynamic::DynamicConfig config;
    config.run.seed = opt.seed;
    config.run.threads = wide;
    next->wide_session = std::make_unique<SessionContext>();
    next->wide = std::make_unique<dynamic::DynamicMatcher>(
        *next->wide_session, next->graph, config);
    config.run.threads = 1;
    next->narrow_session = std::make_unique<SessionContext>();
    next->narrow = std::make_unique<dynamic::DynamicMatcher>(
        *next->narrow_session, next->graph, config);
    batch_index = 0;
    for (int warm = 0; warm < 16; ++warm, ++batch_index) {
      const std::vector<Edge> batch = churn_batch(next->window, batch_index);
      for (dynamic::DynamicMatcher* m : {next->wide.get(), next->narrow.get()}) {
        m->remove_edges(batch);
        m->add_edges(batch);
        r.check(check_churn(*next, *m));
      }
    }
    setup_s.push_back(seconds_since(t0));
    state = std::move(next);
  }
  r.set("setup_s", median(setup_s), "s", kSetups);
  r.set("gen.build_s", median(gen_s), "s");
  r.set_exact("gen.edges", state->graph.num_edges());
  r.set("verify.oracle_s", median(oracle_s), "s");

  std::map<int, std::vector<double>> op_ms;
  std::vector<double> armed_ms;  // wide matcher, session trace armed
  std::vector<double> remove_ms, add_ms, check_ms, events, dropped;
  const DynamicCounters wide0 = state->wide->stats().dynamic;
  const DynamicCounters narrow0 = state->narrow->stats().dynamic;
  std::map<std::string, std::int64_t> exact;
  std::int64_t wide_ops = 0;

  const auto window_start = Clock::now();
  BlockRate rate;
  std::int64_t op = 0;
  for (int pair = 0; seconds_since(window_start) < opt.seconds;
       ++pair, ++batch_index) {
    const std::vector<Edge> batch = churn_batch(state->window, batch_index);
    dynamic::DynamicMatcher* order[2] = {state->wide.get(),
                                         state->narrow.get()};
    if (pair % 2 == 1) std::swap(order[0], order[1]);
    for (dynamic::DynamicMatcher* matcher : order) {
      const bool is_wide = matcher == state->wide.get();
      const int width = is_wide ? wide : 1;
      // In the traced pass every other wide batch runs with the
      // session's obs trace armed (obs.overhead compares the two).
      const bool armed = spans.enabled() && is_wide && pair % 4 >= 2;
      SessionContext& session =
          is_wide ? *state->wide_session : *state->narrow_session;
      if (armed) {
        session.trace().arm();
        session.trace().begin_run("churn.batch", width);
      }
      const auto t0 = Clock::now();
      double t_remove = 0.0;
      {
        SpanScope parent(spans, "dynamic.batch", op, width);
        {
          SpanScope span(spans, "dynamic.remove", op, width, parent.index());
          matcher->remove_edges(batch);
          t_remove = seconds_since(t0);
        }
        SpanScope span(spans, "dynamic.add", op, width, parent.index());
        matcher->add_edges(batch);
      }
      const double ms = seconds_since(t0) * 1e3;
      if (armed) {
        session.trace().end_run();
        session.trace().disarm();
        events.push_back(
            static_cast<double>(session.trace().last_run().events.size()));
        dropped.push_back(
            static_cast<double>(session.trace().last_run().dropped));
        armed_ms.push_back(ms);
      } else {
        op_ms[width].push_back(ms);
        if (is_wide) {
          remove_ms.push_back(t_remove * 1e3);
          add_ms.push_back(ms - t_remove * 1e3);
        }
      }
      wide_ops += is_wide ? 1 : 0;
      const auto tc = Clock::now();
      {
        SpanScope span(spans, "verify.check", op, width);
        r.check(check_churn(*state, *matcher));
      }
      const double check_s = seconds_since(tc);
      check_ms.push_back(check_s * 1e3);
      rate.op();
      rate.exclude(check_s);
      ++op;
    }
    if ((pair + 1) % kChurnRateBlock == 0) rate.close_block();
    if (pair + 1 == kChurnExactBatches) {
      exact = churn_counters(state->narrow->stats().dynamic, narrow0);
    }
  }
  const double window_s = seconds_since(window_start);
  const std::vector<double>& wide_ms = op_ms[wide];
  r.set("op_ms", median(wide_ms), "ms",
        static_cast<std::int64_t>(wide_ms.size()));
  r.set("op_ms.p90", percentile(wide_ms, 0.9), "ms",
        static_cast<std::int64_t>(wide_ms.size()));
  r.set("op_ms_1t", median(op_ms[1]), "ms",
        static_cast<std::int64_t>(op_ms[1].size()));
  r.set("ops_per_s", rate.median_rate(), "1/s", rate.blocks());
  r.set("window_s", window_s, "s");
  if (exact.empty()) {
    r.check("window too short for " + std::to_string(kChurnExactBatches) +
            " exact-count batches");
  }
  for (const auto& [name, value] : exact) r.set_exact(name, value);
  if (!spans.enabled()) return;

  const DynamicCounters w = state->wide->stats().dynamic;
  const auto per_op = [&](double total) {
    return wide_ops > 0 ? total / static_cast<double>(wide_ops) : 0.0;
  };
  r.set("dynamic.remove_ms", median(remove_ms), "ms");
  r.set("dynamic.add_ms", median(add_ms), "ms");
  // apply_seconds times the whole batch; its self time, the overlay
  // mutation, excludes the repair, re-solve and compaction timed inside.
  const double apply_self =
      (w.apply_seconds - wide0.apply_seconds) -
      (w.reaugment_seconds - wide0.reaugment_seconds) -
      (w.resolve_seconds - wide0.resolve_seconds) -
      (w.compact_seconds - wide0.compact_seconds);
  r.set("dynamic.apply_ms", per_op(apply_self) * 1e3, "ms");
  r.set("dynamic.reaugment_ms",
        per_op(w.reaugment_seconds - wide0.reaugment_seconds) * 1e3, "ms");
  r.set("obs.events", median(events), "count");
  r.set("obs.dropped", median(dropped), "count");
  r.set("obs.overhead", median(armed_ms) / median(wide_ms) - 1.0, "1");
  r.set("verify.check_ms", median(check_ms), "ms");
  r.set("runtime.workspaces_created",
        static_cast<double>(state->wide_session->workspaces().created()),
        "count");
}

// ---- main ------------------------------------------------------------------

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
    const char* value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = static_cast<std::uint64_t>(
          cli::parse_int_arg("--seed", value, 0, 1LL << 62));
    } else if (arg == "--seconds") {
      opt.seconds = cli::parse_double_arg("--seconds", value, 0.1, 3600.0);
    } else if (arg == "--trace") {
      opt.trace = cli::parse_int_arg("--trace", value, 0, 1) == 1;
    } else if (arg == "--spans") {
      opt.spans_path = value;
    } else if (arg == "--socket") {
      opt.socket_path = value;
    } else {
      throw std::invalid_argument("unknown flag " + arg);
    }
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const auto origin = Clock::now();
  Options opt;
  try {
    opt = parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  SpanLog spans(opt.trace, origin);
  Results r;
  const double chase_before = pointer_chase_ns();
  try {
    if (opt.workload == "skew") {
      run_skew_workload(opt, r, spans);
    } else if (opt.workload == "serve") {
      run_serve_workload(opt, r, spans);
    } else if (opt.workload == "churn") {
      run_churn_workload(opt, r, spans);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   opt.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  r.set("peak_rss_mb", peak_rss_mb(), "MB");
  const double chase_after = pointer_chase_ns();
  r.set("host.chase_ns", chase_before, "ns");
  r.set("host.chase_ns.after", chase_after, "ns");
  spans.write(opt.spans_path);

  const SystemInfo info = query_system_info();
  std::ostringstream out;
  out << "{\"workload\":\"" << opt.workload << "\",\"seed\":" << opt.seed
      << ",\"trace\":" << (opt.trace ? 1 : 0)
      << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
      << ",\"failures\":{";
  bool first = true;
  for (const auto& [reason, count] : r.failures) {
    out << (first ? "" : ",") << "\"" << json_escape(reason) << "\":" << count;
    first = false;
  }
  out << "},\"metrics\":{";
  first = true;
  for (const auto& [name, m] : r.metrics) {
    out << (first ? "" : ",") << "\"" << name << "\":{\"value\":"
        << fmt(m.value) << ",\"unit\":\"" << m.unit
        << "\",\"samples\":" << m.samples << "}";
    first = false;
  }
  out << "},\"exact\":{";
  first = true;
  for (const auto& [name, value] : r.exact) {
    out << (first ? "" : ",") << "\"" << name << "\":" << value;
    first = false;
  }
  out << "},\"fingerprint\":{\"cpu_model\":\"" << json_escape(info.cpu_model)
      << "\",\"nproc\":" << nproc() << ",\"wide_threads\":" << wide_width()
      << ",\"compiler\":\""
      << json_escape(info.compiler) << "\",\"library_flags\":\""
      << json_escape(PERFBENCH_LIB_FLAGS) << "\",\"build_type\":\""
      << json_escape(PERFBENCH_BUILD_TYPE) << "\",\"ndebug\":"
#ifdef NDEBUG
      << "true"
#else
      << "false"
#endif
      << ",\"openmp\":\"" << json_escape(info.openmp_version) << "\"}}";
  std::printf("%s\n", out.str().c_str());
  return 0;
}
