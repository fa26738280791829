// Contention-adaptive sharding — pick the shard count at runtime, from
// measured contention, instead of at compile time.
//
// AdaptiveWidth is the sharded router's width policy (structures/sharded.h)
// for deployments where the right shard count is not known at build time.
// The structure is the ordinary ShardedTreiberStack/MsQueue at its widest
// point, kMax shards (default 8, the widest E9 sweeps); the policy keeps a
// runtime `active` count on the power-of-two ladder 1..kMax and migrates
// no element. Puts route home = pid % active and fall through the active
// set under pool pressure, then the parked remainder (capacity stays
// elastic across the full width). Takes probe the active set home-first,
// then steal across ALL kMax shards, so a shrink strands nothing.
//
// The contention signal is the per-shard CAS-failure rate: each shard
// carries a ContentionProbe (padded relaxed counter, bumped only on failed
// CAS) and every routed operation bumps a padded per-process op counter.
// Every sample_interval ops a process tries (try-lock, never blocks the
// data path) an adaptation step: failures-per-op over the window above
// grow_threshold doubles the active count, below shrink_threshold halves
// it. Hysteresis comes from the threshold gap plus settle_checks windows
// of cooldown after every switch, so the width settles instead of
// oscillating around a boundary.
//
// Semantics are the sharded layer's relaxed pool, unchanged: the counters
// are not Platform objects (no shared steps, no schedule perturbation),
// and "empty" is a full-width per-scan observation. tests/test_sharded.cpp
// runs the sharded contract under both width policies and drives
// deterministic grow/shrink schedules.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "reclaim/reclaimer.h"
#include "reclaim/tagged.h"
#include "structures/contention.h"
#include "structures/sharded.h"
#include "util/assert.h"
#include "util/cacheline.h"
#include "util/shard.h"

namespace aba::structures {

// Tuning knobs. Defaults suit the bench loops; tests shrink the windows to
// drive decisions deterministically.
struct AdaptiveOptions {
  int initial_shards = 1;  // Clamped down to a power of two <= kMax.
  std::uint32_t sample_interval = 128;  // Per-process ops between checks.
  double grow_threshold = 0.10;    // CAS failures per op that doubles width.
  double shrink_threshold = 0.01;  // ...and that halves it.
  int settle_checks = 2;  // Windows skipped after a switch (hysteresis).
};

// The runtime width policy (see the header comment and FixedWidth in
// structures/sharded.h for the hooks the router calls).
class AdaptiveWidth {
 public:
  using Options = AdaptiveOptions;

  AdaptiveWidth(const Options& options, int n, int shards)
      : options_(options),
        max_shards_(shards),
        probes_(static_cast<std::size_t>(shards)),
        per_proc_(static_cast<std::size_t>(n)) {
    ABA_CHECK_MSG((shards & (shards - 1)) == 0,
                  "the active-width ladder is powers of two");
    ABA_CHECK(options_.initial_shards >= 1);
    ABA_CHECK(options_.sample_interval >= 1);
    active_.value.store(clamp_width(options_.initial_shards),
                        std::memory_order_relaxed);
  }

  // Current operating point (a power of two in [1, kMax]).
  int active(int /*shards*/) const {
    return active_.value.load(std::memory_order_relaxed);
  }

  // Active set home-first (pool-pressure fall-through), then the parked
  // remainder: attempts [0, active) probe cyclically within the active
  // prefix, attempts [active, kMax) are the parked shards in index order —
  // every shard visited exactly once.
  static int probe(int home, int attempt, int active) {
    return attempt < active ? util::probe_shard(home, attempt, active)
                            : attempt;
  }

  template <class Shard>
  void attach(Shard& shard, int s) {
    shard.set_contention_probe(&probes_[static_cast<std::size_t>(s)]);
  }

  void on_op(int p) {
    auto& mine = per_proc_[static_cast<std::size_t>(p)];
    mine.ops.fetch_add(1, std::memory_order_relaxed);
    if (++mine.since_check >= options_.sample_interval) {
      mine.since_check = 0;
      maybe_adapt();
    }
  }

  // Everything the next adaptation decisions read: the width, the
  // cooldown, the window's progress past its baselines, and each process's
  // distance to its next check. Absolute counts stay out — configurations
  // that differ only there have the same future.
  void mix_into(reclaim::Fingerprint& fp) const {
    fp.mix(static_cast<std::uint64_t>(active(max_shards_)));
    fp.mix(static_cast<std::uint64_t>(settle_));
    fp.mix(total_ops() - last_ops_);
    fp.mix(cas_failures() - last_fails_);
    for (const auto& proc : per_proc_) fp.mix(proc.since_check);
  }

  // Times the operating point moved (monotonic; introspection/tests).
  std::uint64_t switches() const {
    return switches_.load(std::memory_order_relaxed);
  }
  std::uint64_t cas_failures() const {
    std::uint64_t total = 0;
    for (const auto& probe : probes_) total += probe.failures();
    return total;
  }

 private:
  int clamp_width(int width) const {
    int clamped = 1;  // Non-positive inputs clamp up to the ladder's floor.
    while (clamped * 2 <= width && clamped * 2 <= max_shards_) clamped *= 2;
    return clamped;
  }

  std::uint64_t total_ops() const {
    std::uint64_t ops = 0;
    for (const auto& proc : per_proc_) {
      ops += proc.ops.load(std::memory_order_relaxed);
    }
    return ops;
  }

  // One process at a time recomputes the global failure rate; everyone
  // else skips (the data path never blocks on adaptation).
  void maybe_adapt() {
    if (adapt_lock_.value.exchange(true, std::memory_order_acquire)) return;
    const std::uint64_t ops = total_ops();
    const std::uint64_t fails = cas_failures();
    const std::uint64_t delta_ops = ops - last_ops_;
    if (delta_ops >= options_.sample_interval) {
      const std::uint64_t delta_fails = fails - last_fails_;
      last_ops_ = ops;
      last_fails_ = fails;
      if (settle_ > 0) {
        --settle_;
      } else {
        const double rate = static_cast<double>(delta_fails) /
                            static_cast<double>(delta_ops);
        const int width = active(max_shards_);
        if (rate > options_.grow_threshold && width < max_shards_) {
          switch_to(width * 2);
        } else if (rate < options_.shrink_threshold && width > 1) {
          switch_to(width / 2);
        }
      }
    }
    adapt_lock_.value.store(false, std::memory_order_release);
  }

  void switch_to(int width) {
    active_.value.store(width, std::memory_order_relaxed);
    switches_.fetch_add(1, std::memory_order_relaxed);
    settle_ = options_.settle_checks;
  }

  // Hot per-process state, one cache line each: the op counter is written
  // on every routed operation.
  struct alignas(util::kCacheLineSize) PerProcess {
    std::atomic<std::uint64_t> ops{0};
    std::uint32_t since_check = 0;  // Owner-only.
  };

  Options options_;
  int max_shards_;
  std::vector<ContentionProbe> probes_;
  std::vector<PerProcess> per_proc_;
  util::Padded<std::atomic<int>> active_;
  util::Padded<std::atomic<bool>> adapt_lock_;
  std::atomic<std::uint64_t> switches_{0};
  // Adaptation-window baselines and cooldown; touched only under adapt_lock_.
  std::uint64_t last_ops_ = 0;
  std::uint64_t last_fails_ = 0;
  int settle_ = 0;
};

template <Platform P, class Head, class R = reclaim::TaggedReclaimer<P>,
          int kMax = 8>
using AdaptiveShardedStack =
    ShardedTreiberStack<P, Head, R, kMax, AdaptiveWidth>;

template <Platform P, class R = reclaim::TaggedReclaimer<P>, int kMax = 8>
using AdaptiveShardedQueue = ShardedMsQueue<P, R, kMax, AdaptiveWidth>;

}  // namespace aba::structures
