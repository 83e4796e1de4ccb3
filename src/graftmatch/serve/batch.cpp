#include "graftmatch/serve/batch.hpp"

#include <utility>

namespace graftmatch::serve {

BatchKey batch_key(const MatchRequest& request) {
  return BatchKey{request.graph, request.solver, request.initializer,
                  request.reduce, request.kernel};
}

bool BatchScheduler::next_batch(std::vector<ServerTask>& out) {
  out.clear();
  ServerTask seed;
  if (!queue_.pop(seed)) return false;
  const BatchKey key = batch_key(seed.request);
  out.push_back(std::move(seed));

  const std::size_t max = options_.max_batch > 0 ? options_.max_batch : 1;
  if (max <= 1) return true;

  const auto same_key = [&](const ServerTask& task) {
    return batch_key(task.request) == key;
  };
  // Snapshot the push sequence BEFORE the first claim: a push landing
  // between the claim and the first wait then reads as "new" (one
  // spurious re-claim) instead of silently aging past the wait token.
  std::uint64_t seen = queue_.push_sequence();
  queue_.extract_if(same_key, out, max - out.size());
  if (out.size() >= max || options_.window_us <= 0) return true;

  // Coalescing window: sleep until a new push lands (then re-claim
  // matching tasks), giving near-simultaneous requests a chance to ride
  // this solve. wait_push_until returns an unchanged sequence exactly
  // when the window expired or the queue closed -- both mean dispatch
  // with what we have.
  const auto window_deadline =
      std::chrono::steady_clock::now() +
      std::chrono::microseconds(options_.window_us);
  while (out.size() < max) {
    const std::uint64_t now = queue_.wait_push_until(seen, window_deadline);
    if (now == seen) break;
    seen = now;
    queue_.extract_if(same_key, out, max - out.size());
  }
  return true;
}

}  // namespace graftmatch::serve
