// Epoch-versioned per-vertex state, word-packed atomic bitmaps, and
// first-touch buffers.
//
// MS-BFS-Graft keeps its alternating forest alive across phases, but the
// bookkeeping around it (visited flags, root validity, leaf freshness)
// still needs per-phase and per-pass invalidation. Invalidating by
// clearing an O(n) array every phase erases the algorithmic win on
// phase-heavy graphs, where a phase may touch only a handful of
// vertices. The containers here make invalidation O(1):
//
//  * EpochStamps -- a stamp per slot plus a current epoch; a slot is
//    valid iff its stamp equals the epoch, so "clear everything" is one
//    epoch bump. Stamps are 32-bit; the (unreachable in practice) wrap
//    after ~4e9 bumps falls back to a hard clear so stale stamps can
//    never alias a future epoch.
//
//  * AtomicBitmap -- 64 flags per word with an exactly-once claim
//    (fetch_or, same contract as claim_flag) and single-load tests.
//    One cache line covers 512 vertices, which is what makes the
//    bottom-up inner loop's membership test cheap, and whole-bitmap
//    clears touch 1/64th of the memory a byte array would.
//
//  * FirstTouchBuffer -- fixed-capacity storage allocated WITHOUT the
//    serial value-initialization std::vector performs on resize, so the
//    parallel fill that follows allocation is what faults the pages in
//    (the Graph500-style NUMA placement the paper relies on; on one
//    socket it degenerates to a parallel fill).
//
// All three are built to be REUSED: a GraftWorkspace holds them across
// runs, and reset paths only pay O(n) when dimensions actually change.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graftmatch/runtime/atomics.hpp"
#include "graftmatch/runtime/parallel.hpp"

namespace graftmatch {

/// Trivially-copyable array whose pages are faulted by the parallel
/// fill, not by allocation. Growing reallocates (old contents dropped);
/// shrinking keeps the allocation and narrows the logical size.
template <typename T>
class FirstTouchBuffer {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  /// Resize to `n` slots without initializing them. Returns true when
  /// the call had to allocate (callers then know a parallel fill will
  /// be the first touch of those pages).
  bool resize_uninit(std::size_t n) {
    const bool grew = n > capacity_;
    if (grew) {
      data_.reset(new T[n]);  // default-init: trivial T stays untouched
      capacity_ = n;
    }
    size_ = n;
    return grew;
  }

  /// Resize and parallel-fill every slot with `value`.
  void resize_fill(std::size_t n, const T& value) {
    resize_uninit(n);
    fill(value);
  }

  /// Parallel first-touch fill of the logical range.
  void fill(const T& value) { first_touch_fill(data_.get(), size_, value); }

  T& operator[](std::size_t i) noexcept { return data_[i]; }
  const T& operator[](std::size_t i) const noexcept { return data_[i]; }

  T* data() noexcept { return data_.get(); }
  const T* data() const noexcept { return data_.get(); }
  std::size_t size() const noexcept { return size_; }

  std::span<T> span() noexcept { return {data_.get(), size_}; }
  std::span<const T> span() const noexcept { return {data_.get(), size_}; }

 private:
  std::unique_ptr<T[]> data_;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

/// Validity stamps for a parallel array: slot i is "set" iff
/// stamps[i] == epoch. bump() invalidates every slot in O(1).
///
/// Concurrency contract: stamp_release/valid_acquire pair a stamp with
/// payload words written before it (store payload, release-stamp;
/// acquire-valid, read payload) -- on x86 both compile to plain moves.
/// stamp()/clear()/valid() are for single-owner or serially-read slots.
/// bump() and resets are serial-only.
class EpochStamps {
 public:
  /// (Re)size to `n` slots, all invalid, pages first-touched in
  /// parallel. Serial-only.
  void reset(std::size_t n) {
    stamps_.resize_fill(n, 0u);
    epoch_ = 1;
  }

  /// Invalidate every slot. O(1) except at the 32-bit wrap, where the
  /// stamps are hard-cleared so old stamps cannot alias the new epoch.
  void bump() {
    if (++epoch_ == 0) {
      stamps_.fill(0u);
      epoch_ = 1;
    }
  }

  bool valid(std::size_t i) const noexcept {
    return relaxed_load(stamps_[i]) == epoch_;
  }
  /// Acquire flavor: a true result orders the caller after the payload
  /// stores that preceded the matching stamp_release.
  bool valid_acquire(std::size_t i) const noexcept {
    return std::atomic_ref<const std::uint32_t>(stamps_[i]).load(
               std::memory_order_acquire) == epoch_;
  }

  void stamp(std::size_t i) noexcept { relaxed_store(stamps_[i], epoch_); }
  /// Release flavor: publishes payload stores made before this call to
  /// any thread that observes validity through valid_acquire.
  void stamp_release(std::size_t i) noexcept {
    std::atomic_ref<std::uint32_t>(stamps_[i]).store(
        epoch_, std::memory_order_release);
  }

  /// Invalidate one slot (single-owner or serial contexts).
  void clear(std::size_t i) noexcept { relaxed_store(stamps_[i], 0u); }

  std::size_t size() const noexcept { return stamps_.size(); }

 private:
  FirstTouchBuffer<std::uint32_t> stamps_;
  std::uint32_t epoch_ = 1;
};

/// Word-packed bitmap over [0, n) with atomic exactly-once claims.
class AtomicBitmap {
 public:
  static constexpr std::size_t kBitsPerWord = 64;

  /// (Re)size to `n` bits, all zero, pages first-touched in parallel.
  /// Serial-only.
  void reset(std::size_t n) {
    bits_ = n;
    words_.resize_fill((n + kBitsPerWord - 1) / kBitsPerWord,
                       std::uint64_t{0});
  }

  /// Zero every word (1/64th of a byte-array clear). A plain fill on
  /// the calling thread: the pages were first-touched by reset(), and a
  /// team would only split a few kilobytes of words across cores.
  /// Serial-only.
  void clear_all() {
    const std::span<std::uint64_t> words = words_.span();
    std::fill(words.begin(), words.end(), std::uint64_t{0});
  }

  bool test(std::size_t i) const noexcept {
    return (relaxed_load(words_[i / kBitsPerWord]) >>
            (i % kBitsPerWord)) & 1u;
  }

  /// Exactly-once claim of bit i (atomic, acq_rel): true iff this call
  /// performed the 0 -> 1 transition. The claim_flag contract on bits.
  bool claim(std::size_t i) noexcept {
    return claim_bit(words_[i / kBitsPerWord],
                     std::uint64_t{1} << (i % kBitsPerWord));
  }

  /// Set without claiming. Atomic RMW (relaxed) because 64 neighbors
  /// share each word even when each BIT has a single owner.
  void set(std::size_t i) noexcept {
    fetch_or_relaxed(words_[i / kBitsPerWord],
                     std::uint64_t{1} << (i % kBitsPerWord));
  }

  /// Plain (non-atomic) set / clear for one-thread teams and for the
  /// serial sections between parallel passes; the region fork orders
  /// them before any parallel reader.
  void set_serial(std::size_t i) noexcept {
    words_[i / kBitsPerWord] |= std::uint64_t{1} << (i % kBitsPerWord);
  }
  void clear_serial(std::size_t i) noexcept {
    words_[i / kBitsPerWord] &= ~(std::uint64_t{1} << (i % kBitsPerWord));
  }

  /// Word-granular exactly-once claim: set every bit of `mask` in word
  /// `w` that is still zero and return the subset this call won (each
  /// returned bit made its own 0 -> 1 transition here). One CAS covers
  /// up to 64 claims, which is what the word-level bottom-up kernel
  /// trades 64 fetch_or's for. Under sustained contention the CAS loop
  /// gives up after kClaimWordRetries failures and degrades to per-bit
  /// claim() -- same result, existing-path cost -- so a hot word can
  /// never livelock; `fell_back` (optional) reports that degradation
  /// for the `direction` stats block. The winning CAS is acq_rel like
  /// claim(): it publishes the claimer's subsequent tree-pointer writes.
  static constexpr int kClaimWordRetries = 4;
  std::uint64_t claim_word(std::size_t w, std::uint64_t mask,
                           bool* fell_back = nullptr) noexcept {
    if (fell_back) *fell_back = false;
    if (mask == 0) return 0;
    std::uint64_t& word = words_[w];
    std::atomic_ref<std::uint64_t> ref(word);
    std::uint64_t old = ref.load(std::memory_order_relaxed);
    for (int attempt = 0; attempt < kClaimWordRetries; ++attempt) {
      const std::uint64_t want = mask & ~old;
      if (want == 0) return 0;
      stress::maybe_yield();  // widen the read-to-CAS window under stress
      if (ref.compare_exchange_weak(old, old | want,
                                    std::memory_order_acq_rel,
                                    std::memory_order_relaxed)) {
        return want;
      }
      // old was reloaded by the failed CAS; retry against the new view.
    }
    if (fell_back) *fell_back = true;
    std::uint64_t won = 0;
    std::uint64_t pending = mask & ~old;
    while (pending != 0) {
      const std::uint64_t bit = pending & (~pending + 1);
      pending &= pending - 1;
      if (claim_bit(word, bit)) won |= bit;
    }
    return won;
  }

  /// Serial counterpart of claim_word for single-thread teams.
  std::uint64_t claim_word_serial(std::size_t w, std::uint64_t mask) noexcept {
    std::uint64_t& word = words_[w];
    const std::uint64_t won = mask & ~word;
    word |= won;
    return won;
  }

  /// claim()'s exactly-once result without the locked RMW, for
  /// single-thread teams (the kernels' serial_team() fast paths) where
  /// test-then-set is trivially exactly-once.
  bool claim_serial(std::size_t i) noexcept {
    std::uint64_t& word = words_[i / kBitsPerWord];
    const std::uint64_t mask = std::uint64_t{1} << (i % kBitsPerWord);
    if (word & mask) return false;
    word |= mask;
    return true;
  }

  std::size_t size() const noexcept { return bits_; }
  std::span<const std::uint64_t> words() const noexcept {
    return {words_.data(), words_.size()};
  }
  std::size_t word_count() const noexcept { return words_.size(); }
  /// Relaxed atomic load of one packed word -- the word-level kernel's
  /// scan read, racing benignly with concurrent claims (a stale zero
  /// bit only sends the scanner into claim_word, which re-checks).
  std::uint64_t load_word(std::size_t w) const noexcept {
    return relaxed_load(words_[w]);
  }

 private:
  FirstTouchBuffer<std::uint64_t> words_;
  std::size_t bits_ = 0;
};

}  // namespace graftmatch
