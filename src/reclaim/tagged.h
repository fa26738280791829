// TaggedReclaimer — immediate FIFO reuse; ABA safety is delegated to the
// CAS site.
//
// A retired node index goes straight back onto the retiring process's free
// list and is handed out by its next allocate. This is the reuse discipline
// of classic tag-based lock-free code (the practice the paper critiques):
// nothing prevents a node from reappearing under the same index while a
// slow reader still holds a stale snapshot, so the structure's CAS word
// must detect the recycling itself — a bounded tag (TaggedCasHead, the MS
// queue's packed (index, tag) words via util/packed_word.h idioms) or an
// LL/SC head. With k tag bits the protection is only probabilistic: E7
// measures the 2^k escape threshold, and the 1-bit-tag test in
// tests/test_structures.cpp drives the wraparound deterministically.
//
// Paired with RawCasHead this is the deliberately ABA-vulnerable
// configuration (the deterministic corruption schedule in the tests).
//
// Zero overhead: no shared state, no guards, allocate/retire are
// thread-private ring operations (util/fifo_ring.h) — the step sequence of
// the resulting structure is exactly the paper's pseudo-code.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/platform.h"
#include "reclaim/reclaimer.h"
#include "util/assert.h"
#include "util/cacheline.h"

namespace aba::reclaim {

template <Platform P>
class TaggedReclaimer {
 public:
  static constexpr const char* kName = "tagged";
  static constexpr bool kNeedsGuard = false;

  TaggedReclaimer(typename P::Env&, int n, FreeLists initial_free)
      : procs_(static_cast<std::size_t>(n)) {
    ABA_CHECK(static_cast<int>(initial_free.size()) == n);
    for (int p = 0; p < n; ++p) {
      procs_[p].free = std::move(initial_free[p]);
      pool_size_ += procs_[p].free.size();
    }
  }

  void begin_op(int /*p*/) {}
  void guard(int /*p*/, int /*slot*/, std::uint64_t /*idx*/) {}
  void end_op(int /*p*/) {}

  std::optional<std::uint64_t> allocate(int p) {
    auto& free = procs_[p].free;
    if (free.empty()) return std::nullopt;
    const std::uint64_t idx = free.front();  // FIFO: maximizes reuse churn.
    free.pop_front();
    return idx;
  }

  void retire(int p, std::uint64_t idx) { procs_[p].free.push_back(idx); }

  // Default-forward of the concept's batched verb: retire here is already
  // zero shared steps, so there is nothing to amortize.
  void retire_batch(int p, const std::uint64_t* idxs, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) retire(p, idxs[i]);
  }

  std::size_t pool_size() const { return pool_size_; }
  std::size_t unreclaimed(int /*p*/) const { return 0; }
  std::size_t free_count(int p) const { return procs_[p].free.size(); }

  // Immediate reuse holds nothing back, so the only live statistic is pool
  // occupancy; there is no protected region to phase-track.
  ReclaimStats stats() const {
    ReclaimStats s;
    s.pool_size = pool_size_;
    for (const auto& proc : procs_) s.free_nodes += proc.free.size();
    return s;
  }
  ReclaimPhase phase(int /*p*/) const { return ReclaimPhase::kIdle; }

  // All hidden state is the free lists: their *order* decides which index
  // the next allocate recycles, so it is part of the model-checker key.
  std::uint64_t fingerprint() const {
    Fingerprint fp;
    for (const auto& proc : procs_) fp.mix_range(proc.free);
    return fp.value();
  }

 private:
  // One cache line per process: the free-list header is touched on every
  // allocate/retire and must not false-share with its neighbours.
  struct alignas(util::kCacheLineSize) PerProcess {
    IndexList free;
  };

  std::vector<PerProcess> procs_;
  std::size_t pool_size_ = 0;
};

}  // namespace aba::reclaim
