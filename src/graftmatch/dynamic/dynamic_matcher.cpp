#include "graftmatch/dynamic/dynamic_matcher.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "graftmatch/engine/registry.hpp"
#include "graftmatch/obs/trace.hpp"
#include "graftmatch/runtime/timer.hpp"
#include "graftmatch/verify/koenig.hpp"
#include "graftmatch/verify/validate.hpp"

namespace graftmatch::dynamic {

DynamicMatcher::DynamicMatcher(SessionContext& session, BipartiteGraph base,
                               DynamicConfig config)
    : session_(&session),
      config_(std::move(config)),
      overlay_(std::move(base)),
      matching_(overlay_.num_x(), overlay_.num_y()) {
  visited_x_.reset(static_cast<std::size_t>(overlay_.num_x()));
  visited_y_.reset(static_cast<std::size_t>(overlay_.num_y()));
  parent_y_.assign(static_cast<std::size_t>(overlay_.num_y()),
                   kInvalidVertex);
  parent_x_.assign(static_cast<std::size_t>(overlay_.num_x()),
                   kInvalidVertex);
  queue_.reserve(static_cast<std::size_t>(
      std::max(overlay_.num_x(), overlay_.num_y())));
  // The initial solve. Not counted as a staleness re-solve: the
  // `resolves` counter measures churn-triggered work.
  const SessionScope scope(*session_);
  solve_threads_ = engine::run(*session_, config_.solver, config_.initializer,
                               overlay_.base(), matching_, config_.run)
                       .threads_used;
  cardinality_ = matching_.cardinality();
  edges_at_resolve_ = overlay_.live_edges();
  if (config_.check_invariants) audit();
}

std::int64_t DynamicMatcher::add_edges(std::span<const Edge> batch) {
  const SessionScope scope(*session_);
  const Timer batch_timer;
  obs::emit_begin(obs::names::kDynamicApply,
                  static_cast<std::int64_t>(batch.size()), cardinality_);
  std::int64_t inserted = 0;
  for (const Edge& e : batch) {
    if (!overlay_.insert(e.x, e.y)) continue;
    ++inserted;
    // Fast path: a new edge with both endpoints free is itself an
    // augmenting path of length one.
    if (!matching_.is_matched_x(e.x) && !matching_.is_matched_y(e.y)) {
      matching_.match(e.x, e.y);
      ++cardinality_;
      ++counters_.direct_matches;
    }
  }
  counters_.batches += 1;
  counters_.edges_added += inserted;
  churn_since_resolve_ += inserted;
  if (inserted > 0) {
    if (staleness_tripped()) {
      full_resolve();
    } else {
      sweep_to_maximum();
      if (config_.staleness_failure_streak > 0 &&
          failure_streak_ >= config_.staleness_failure_streak) {
        full_resolve();
      }
    }
  }
  maybe_compact();
  if (config_.check_invariants) audit();
  obs::emit_end(obs::names::kDynamicApply, overlay_.live_edges(),
                cardinality_);
  counters_.apply_seconds += batch_timer.elapsed();
  return inserted;
}

std::int64_t DynamicMatcher::remove_edges(std::span<const Edge> batch) {
  const SessionScope scope(*session_);
  const Timer batch_timer;
  obs::emit_begin(obs::names::kDynamicApply,
                  static_cast<std::int64_t>(batch.size()), cardinality_);
  std::int64_t erased = 0;
  std::vector<vid_t> freed_x;
  std::vector<vid_t> freed_y;
  for (const Edge& e : batch) {
    if (!overlay_.erase(e.x, e.y)) continue;
    ++erased;
    // Erasing an unmatched edge cannot break maximality; erasing a
    // matched one frees its endpoints, the only places a new
    // augmenting path can end (see the class comment).
    if (matching_.mate_of_x(e.x) == e.y) {
      matching_.unmatch_x(e.x);
      --cardinality_;
      freed_x.push_back(e.x);
      freed_y.push_back(e.y);
    }
  }
  counters_.batches += 1;
  counters_.edges_removed += erased;
  churn_since_resolve_ += erased;
  if (staleness_tripped()) {
    full_resolve();
  } else if (!freed_x.empty()) {
    const auto freed = static_cast<std::int64_t>(freed_x.size());
    std::int64_t paths = 0;
    {
      const Timer repair_timer;
      obs::emit_begin(obs::names::kDynamicReaugment, freed);
      // One search per freed root, each against the current matching; a
      // root re-matched by an earlier repair path needs no search, and
      // a failed root stays failed (persistence). Consecutive failures
      // retain their trees (valid across sides: a dead tree is dead
      // for every root); each success invalidates the retained forest.
      bool fresh = true;
      for (const vid_t x : freed_x) {
        if (matching_.is_matched_x(x)) continue;
        const bool found = augment_from_x(x, fresh);
        note_search(found);
        fresh = found;
        paths += found;
      }
      for (const vid_t y : freed_y) {
        if (matching_.is_matched_y(y)) continue;
        const bool found = augment_from_y(y, fresh);
        note_search(found);
        fresh = found;
        paths += found;
      }
      obs::emit_end(obs::names::kDynamicReaugment,
                    static_cast<std::int64_t>(freed_x.size() +
                                              freed_y.size()),
                    paths);
      counters_.reaugment_seconds += repair_timer.elapsed();
    }
    // p == 0 proves maximality (the matching is untouched, so every
    // residual augmenting path would still have a newly-freed endpoint,
    // and every such root was searched and failed). p == k proves it by
    // counting (|M| is back to the pre-batch value, an upper bound on
    // the shrunken graph's maximum). In between, a repair path may have
    // consumed the newly-freed endpoint of a DIFFERENT deficiency path,
    // leaving an augmenting path between two old-free vertices that no
    // freed root can see -- only the global sweep proves maximality
    // there.
    if (paths > 0 && paths < freed) {
      sweep_to_maximum();
    }
    if (config_.staleness_failure_streak > 0 &&
        failure_streak_ >= config_.staleness_failure_streak) {
      full_resolve();
    }
  }
  maybe_compact();
  if (config_.check_invariants) audit();
  obs::emit_end(obs::names::kDynamicApply, overlay_.live_edges(),
                cardinality_);
  counters_.apply_seconds += batch_timer.elapsed();
  return erased;
}

bool DynamicMatcher::augment_from_x(vid_t root, bool fresh_marks) {
  ++counters_.reaugment_searches;
  if (fresh_marks) {
    visited_x_.bump();
    visited_y_.bump();
  }
  queue_.clear();
  queue_.push_back(root);
  visited_x_.stamp(static_cast<std::size_t>(root));
  for (std::size_t head = 0; head < queue_.size(); ++head) {
    const vid_t x = queue_[head];
    vid_t found = kInvalidVertex;
    overlay_.for_each_neighbor_x(x, [&](vid_t y) {
      const auto yi = static_cast<std::size_t>(y);
      if (visited_y_.valid(yi)) return true;
      visited_y_.stamp(yi);
      parent_y_[yi] = x;
      if (!matching_.is_matched_y(y)) {
        found = y;
        return false;  // free Y: augmenting path complete
      }
      const vid_t next = matching_.mate_of_y(y);
      if (!visited_x_.valid(static_cast<std::size_t>(next))) {
        visited_x_.stamp(static_cast<std::size_t>(next));
        queue_.push_back(next);
      }
      return true;
    });
    if (found != kInvalidVertex) {
      // Flip the path by walking the parent chain back to the root.
      vid_t y = found;
      while (y != kInvalidVertex) {
        const vid_t px = parent_y_[static_cast<std::size_t>(y)];
        const vid_t next = matching_.mate_of_x(px);
        matching_.unmatch_x(px);
        matching_.match(px, y);
        y = next;
      }
      ++cardinality_;
      ++counters_.reaugment_paths;
      return true;
    }
  }
  return false;
}

bool DynamicMatcher::augment_from_y(vid_t root, bool fresh_marks) {
  ++counters_.reaugment_searches;
  if (fresh_marks) {
    visited_x_.bump();
    visited_y_.bump();
  }
  queue_.clear();
  queue_.push_back(root);
  visited_y_.stamp(static_cast<std::size_t>(root));
  for (std::size_t head = 0; head < queue_.size(); ++head) {
    const vid_t y = queue_[head];
    vid_t found = kInvalidVertex;
    overlay_.for_each_neighbor_y(y, [&](vid_t x) {
      const auto xi = static_cast<std::size_t>(x);
      if (visited_x_.valid(xi)) return true;
      visited_x_.stamp(xi);
      parent_x_[xi] = y;
      if (!matching_.is_matched_x(x)) {
        found = x;
        return false;  // free X: augmenting path complete
      }
      const vid_t next = matching_.mate_of_x(x);
      if (!visited_y_.valid(static_cast<std::size_t>(next))) {
        visited_y_.stamp(static_cast<std::size_t>(next));
        queue_.push_back(next);
      }
      return true;
    });
    if (found != kInvalidVertex) {
      vid_t x = found;
      while (x != kInvalidVertex) {
        const vid_t py = parent_x_[static_cast<std::size_t>(x)];
        const vid_t next = matching_.mate_of_y(py);
        if (next != kInvalidVertex) matching_.unmatch_x(next);
        matching_.match(x, py);
        x = next;
      }
      ++cardinality_;
      ++counters_.reaugment_paths;
      return true;
    }
  }
  return false;
}

void DynamicMatcher::sweep_to_maximum() {
  const Timer sweep_timer;
  obs::emit_begin(obs::names::kDynamicReaugment);
  std::int64_t searches = 0;
  std::int64_t paths = 0;
  // Augmenting never frees a vertex, so a round with zero paths found
  // proves maximality (every free X was searched and failed). The
  // persistence argument makes round 2 that proof round in practice.
  // Within a round, consecutive failed searches retain their trees
  // (see the class comment), so a failure-dominated round -- the norm
  // on heavily deficient graphs -- costs one O(m) pass total.
  for (;;) {
    ++counters_.sweep_rounds;
    std::int64_t found = 0;
    bool any_free_y = false;
    for (vid_t y = 0; y < overlay_.num_y() && !any_free_y; ++y) {
      any_free_y = !matching_.is_matched_y(y);
    }
    if (any_free_y) {
      bool fresh = true;
      for (vid_t x = 0; x < overlay_.num_x(); ++x) {
        if (matching_.is_matched_x(x)) continue;
        ++searches;
        const bool ok = augment_from_x(x, fresh);
        note_search(ok);
        fresh = ok;
        found += ok;
      }
    }
    if (found == 0) break;
    paths += found;
  }
  obs::emit_end(obs::names::kDynamicReaugment, searches, paths);
  counters_.reaugment_seconds += sweep_timer.elapsed();
}

void DynamicMatcher::note_search(bool found_path) {
  failure_streak_ = found_path ? 0 : failure_streak_ + 1;
}

bool DynamicMatcher::staleness_tripped() const {
  const auto denom =
      static_cast<double>(std::max<std::int64_t>(edges_at_resolve_, 1));
  if (static_cast<double>(churn_since_resolve_) >
      config_.staleness_delta_fraction * denom) {
    return true;
  }
  return config_.staleness_failure_streak > 0 &&
         failure_streak_ >= config_.staleness_failure_streak;
}

void DynamicMatcher::full_resolve() {
  const Timer resolve_timer;
  counters_.overlay_peak = std::max(counters_.overlay_peak, overlay_.cost());
  if (overlay_.cost() > 0) {
    obs::emit_begin(obs::names::kDynamicCompact, overlay_.live_edges());
    overlay_.compact();
    obs::emit_end(obs::names::kDynamicCompact, overlay_.live_edges());
    ++counters_.compactions;
  }
  Matching fresh(overlay_.num_x(), overlay_.num_y());
  solve_threads_ = engine::run(*session_, config_.solver, config_.initializer,
                               overlay_.base(), fresh, config_.run)
                       .threads_used;
  matching_ = std::move(fresh);
  cardinality_ = matching_.cardinality();
  churn_since_resolve_ = 0;
  edges_at_resolve_ = overlay_.live_edges();
  failure_streak_ = 0;
  ++counters_.resolves;
  counters_.resolve_seconds += resolve_timer.elapsed();
}

void DynamicMatcher::maybe_compact() {
  counters_.overlay_peak = std::max(counters_.overlay_peak, overlay_.cost());
  if (overlay_.cost() == 0) return;
  const auto threshold =
      config_.compact_fraction * static_cast<double>(overlay_.base_edges());
  if (static_cast<double>(overlay_.cost()) <= threshold) return;
  const Timer compact_timer;
  obs::emit_begin(obs::names::kDynamicCompact, overlay_.live_edges());
  overlay_.compact();
  obs::emit_end(obs::names::kDynamicCompact, overlay_.live_edges());
  ++counters_.compactions;
  counters_.compact_seconds += compact_timer.elapsed();
}

void DynamicMatcher::compact() {
  const SessionScope scope(*session_);
  counters_.overlay_peak = std::max(counters_.overlay_peak, overlay_.cost());
  if (overlay_.cost() == 0) return;
  const Timer compact_timer;
  obs::emit_begin(obs::names::kDynamicCompact, overlay_.live_edges());
  overlay_.compact();
  obs::emit_end(obs::names::kDynamicCompact, overlay_.live_edges());
  ++counters_.compactions;
  counters_.compact_seconds += compact_timer.elapsed();
}

void DynamicMatcher::resolve() {
  const SessionScope scope(*session_);
  full_resolve();
  if (config_.check_invariants) audit();
}

void DynamicMatcher::audit() const {
  const BipartiteGraph live = overlay_.materialize();
  if (!is_valid_matching(live, matching_)) {
    throw std::logic_error("DynamicMatcher: matching invalid after batch");
  }
  if (matching_.cardinality() != cardinality_) {
    throw std::logic_error(
        "DynamicMatcher: cached cardinality out of sync with matching");
  }
  if (!is_maximum_matching(live, matching_)) {
    throw std::logic_error(
        "DynamicMatcher: matching lost maximality (Koenig certificate)");
  }
}

RunStats DynamicMatcher::stats() const {
  RunStats stats;
  stats.algorithm = "dynamic+" + config_.solver;
  stats.initial_cardinality = cardinality_;
  stats.final_cardinality = cardinality_;
  stats.augmentations = counters_.reaugment_paths;
  stats.total_path_edges = 0;
  stats.threads_used = solve_threads_;
  stats.seconds = counters_.apply_seconds;
  stats.dynamic = counters_;
  stats.dynamic.collected = true;
  return stats;
}

}  // namespace graftmatch::dynamic
