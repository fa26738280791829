// LeakyReclaimer — the no-free baseline: retired nodes are never reused.
//
// Every allocate consumes a fresh index from the initial pool and retire
// only counts. Because an index never reappears, the pointer-recycling ABA
// is impossible by construction even under a raw CAS head — this is the
// "infinite tags / never reuse memory" idealization the paper's unbounded
// constructions assume away, made runnable. The price is unbounded space:
// a workload of W pushes needs a pool of W nodes, after which push reports
// pool pressure.
//
// Benches use it as the reclamation-cost floor: the delta between leaky and
// any real reclaimer is the price of that reclaimer's bookkeeping (tags:
// none; hazard: publish + fence + scans; epoch: announce + advance). Leaky
// bench cells are drain-limited — they end when the pool runs out — and the
// JSON pipeline records the actual measured ops and seconds.
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
class LeakyReclaimer {
 public:
  static constexpr const char* kName = "leaky";
  static constexpr bool kNeedsGuard = false;

  LeakyReclaimer(typename P::Env&, int n, FreeLists initial_free)
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
    const std::uint64_t idx = free.front();
    free.pop_front();
    return idx;
  }

  // The index is abandoned: safe (it can never ABA) but gone for good.
  void retire(int p, std::uint64_t /*idx*/) { ++procs_[p].leaked; }

  // Default-forward of the concept's batched verb (nothing to amortize).
  void retire_batch(int p, const std::uint64_t* idxs, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) retire(p, idxs[i]);
  }

  std::size_t pool_size() const { return pool_size_; }
  std::size_t unreclaimed(int p) const { return procs_[p].leaked; }
  std::size_t free_count(int p) const { return procs_[p].free.size(); }

  // Leaked nodes count as retired-but-unreclaimed: they are exactly the
  // garbage this baseline never collects (no regions, no phases).
  ReclaimStats stats() const {
    ReclaimStats s;
    s.pool_size = pool_size_;
    for (const auto& proc : procs_) {
      s.free_nodes += proc.free.size();
      s.retired_unreclaimed += proc.leaked;
    }
    return s;
  }
  ReclaimPhase phase(int /*p*/) const { return ReclaimPhase::kIdle; }

  // Free-list order plus the leak counters: everything the next allocate
  // (and the stats the search engine scores) can depend on.
  std::uint64_t fingerprint() const {
    Fingerprint fp;
    for (const auto& proc : procs_) {
      fp.mix_range(proc.free);
      fp.mix(proc.leaked);
    }
    return fp.value();
  }

 private:
  // One cache line per process: allocate/retire touch these fields on the
  // hot path and must not false-share with neighbouring processes.
  struct alignas(util::kCacheLineSize) PerProcess {
    IndexList free;
    std::size_t leaked = 0;
  };

  std::vector<PerProcess> procs_;
  std::size_t pool_size_ = 0;
};

}  // namespace aba::reclaim
