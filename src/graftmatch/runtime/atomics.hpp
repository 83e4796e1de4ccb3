// Thin helpers over std::atomic_ref for lock-free flag/pointer updates.
//
// The paper's implementation uses GCC builtins (__sync_fetch_and_add,
// __sync_fetch_and_or) directly on plain arrays. We get the same codegen
// portably with C++20 std::atomic_ref, which lets us keep the hot arrays
// as plain contiguous vectors (important for the bottom-up traversal,
// which reads them non-atomically by design where that is safe).
#pragma once

#include <atomic>
#include <cstdint>
#include <type_traits>

#if defined(GRAFTMATCH_STRESS_HOOKS)
#include <thread>

#include "graftmatch/runtime/prng.hpp"
#endif

namespace graftmatch::stress {

/// Scheduling-jitter hooks for the concurrency stress harness.
///
/// Lock-free races (flag claims, mate CAS, queue-cursor bumps) are only
/// exercised when two threads actually land in the same window, and on a
/// lightly loaded machine the windows are a handful of instructions wide.
/// When the library is compiled with -DGRAFTMATCH_STRESS_HOOKS=ON, every
/// racy primitive below calls maybe_yield() inside its window, which
/// yields the OS thread with probability 1/period. That stretches the
/// windows by whole scheduling quanta and makes lost-update bugs loud
/// under the stress tests and TSan. In normal builds the hook compiles
/// to nothing.
#if defined(GRAFTMATCH_STRESS_HOOKS)

inline constexpr bool kHooksCompiled = true;

inline std::atomic<std::uint32_t>& yield_period_ref() noexcept {
  // 0 disables jitter; N yields with probability 1/N at each hook.
  static std::atomic<std::uint32_t> period{0};
  return period;
}

/// Enable (period > 0) or disable (period == 0) jitter process-wide.
/// Sessions may override per-session via SessionContext::
/// set_yield_period (runtime/context.hpp); threads bound to such a
/// session use the override, everyone else uses this value.
inline void set_yield_period(std::uint32_t period) noexcept {
  yield_period_ref().store(period, std::memory_order_relaxed);
}

/// The period in force for the calling thread: the ambient session's
/// override when one is set, else the process-wide period above.
/// Defined in runtime/context.cpp (this header stays below context.hpp
/// in the include order).
std::uint32_t effective_yield_period() noexcept;

inline void maybe_yield() noexcept {
  const std::uint32_t period = effective_yield_period();
  if (period == 0) return;
  // Per-thread splitmix64 stream, seeded from the TLS slot address so
  // threads diverge without coordination.
  thread_local std::uint64_t state =
      0x9e3779b97f4a7c15ULL ^ reinterpret_cast<std::uintptr_t>(&state);
  if (splitmix64_next(state) % period == 0) std::this_thread::yield();
}

#else  // !GRAFTMATCH_STRESS_HOOKS

inline constexpr bool kHooksCompiled = false;
inline void set_yield_period(std::uint32_t) noexcept {}
inline void maybe_yield() noexcept {}

#endif

}  // namespace graftmatch::stress

namespace graftmatch {

/// Atomically claim a byte flag: set it to 1 and report whether this call
/// performed the transition 0 -> 1. Used to ensure each Y vertex joins
/// exactly one alternating tree in the parallel top-down step.
inline bool claim_flag(std::uint8_t& flag) noexcept {
  // Cheap non-atomic pre-check (paper Sec. III-B: "we check the visited
  // flags before performing the atomic operations").
  if (std::atomic_ref<std::uint8_t>(flag).load(std::memory_order_relaxed) !=
      0) {
    return false;
  }
  stress::maybe_yield();  // widen the check-then-claim window under stress
  return std::atomic_ref<std::uint8_t>(flag).exchange(
             1, std::memory_order_acq_rel) == 0;
}

/// Relaxed atomic store (for benign-race writes such as the leaf pointer,
/// where any single winning value is acceptable).
template <typename T>
inline void relaxed_store(T& location, T value) noexcept {
  static_assert(std::atomic_ref<T>::is_always_lock_free);
  std::atomic_ref<T>(location).store(value, std::memory_order_relaxed);
}

/// Relaxed atomic load.
template <typename T>
inline T relaxed_load(const T& location) noexcept {
  static_assert(std::atomic_ref<T>::is_always_lock_free);
  return std::atomic_ref<const T>(location).load(std::memory_order_relaxed);
}

/// Atomically claim one bit of a packed flag word: set `mask`'s bit and
/// report whether this call performed the 0 -> 1 transition. The
/// claim_flag contract on word-packed bitmaps (runtime/epoch_array.hpp);
/// the acq_rel fetch_or publishes the winner's subsequent tree-pointer
/// writes the same way claim_flag's exchange does.
inline bool claim_bit(std::uint64_t& word, std::uint64_t mask) noexcept {
  // Same cheap non-atomic pre-check as claim_flag (paper Sec. III-B).
  if (std::atomic_ref<std::uint64_t>(word).load(std::memory_order_relaxed) &
      mask) {
    return false;
  }
  stress::maybe_yield();  // widen the check-then-claim window under stress
  return (std::atomic_ref<std::uint64_t>(word).fetch_or(
              mask, std::memory_order_acq_rel) &
          mask) == 0;
}

/// Atomic fetch-or with relaxed ordering (bitmap bits whose owners need
/// no publication beyond the enclosing region join).
template <typename T>
inline T fetch_or_relaxed(T& location, T bits) noexcept {
  static_assert(std::atomic_ref<T>::is_always_lock_free);
  return std::atomic_ref<T>(location).fetch_or(bits,
                                               std::memory_order_relaxed);
}

/// Atomic fetch-add with relaxed ordering (counters, queue cursors).
template <typename T>
inline T fetch_add_relaxed(T& location, T delta) noexcept {
  static_assert(std::atomic_ref<T>::is_always_lock_free);
  return std::atomic_ref<T>(location).fetch_add(delta,
                                                std::memory_order_relaxed);
}

/// Compare-and-swap; returns true when `location` transitioned from
/// `expected` to `desired`. Used for lock-free mate claims in the
/// parallel push-relabel and Pothen-Fan baselines.
template <typename T>
inline bool cas(T& location, T expected, T desired) noexcept {
  static_assert(std::atomic_ref<T>::is_always_lock_free);
  stress::maybe_yield();  // widen read-to-CAS windows in callers
  return std::atomic_ref<T>(location).compare_exchange_strong(
      expected, desired, std::memory_order_acq_rel,
      std::memory_order_relaxed);
}

}  // namespace graftmatch
