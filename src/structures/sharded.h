// Sharded structures — scaling past single-word contention.
//
// Everything else in this repository funnels all n processes through one
// protected head word (tagged CAS, LL/SC, or a raw CAS under deferred
// reclamation); the paper's per-word time/space bounds are exactly the cost
// of protecting that word, and on hardware its cache line is a serialization
// point that flattens E9 throughput as soon as contention saturates it.
// These wrappers split one logical structure into kShards complete
// sub-structures — each shard a full TreiberStack / MsQueue with its own
// head word and its own Reclaimer instance — and route operations:
//
//   * push/enqueue go to the process's home shard (util/shard.h: dense-pid
//     mod, balanced and one integer op). Under pool pressure (the home
//     shard's reclaimer cannot produce a safe node) the operation falls
//     through the probe sequence and lands on the first shard that can —
//     capacity is elastic across shards even though index pools are not.
//   * pop/dequeue try the home shard first; on empty they steal: one
//     bounded cyclic scan of the other shards (util/shard.h probe order),
//     returning the first success. Only after every shard has reported
//     empty does the operation report empty.
//
// Semantics: each shard is linearizable as a stack/queue on its own (its
// operations are ordinary TreiberStack/MsQueue operations and sharding
// adds no shared state whatsoever — routing is arithmetic on thread-private
// values). The composite is a relaxed pool: a linearizable multiset whose
// pops return *some* pushed element (per-shard LIFO/FIFO order, no global
// order), and whose "empty" answer is a per-scan observation — each shard
// was individually observed empty at some instant inside the operation's
// window, but the composite may never have been empty at a single instant.
// tests/test_sharded.cpp checks exactly this contract: per-shard
// sub-histories linearize against the exact specs, the composite conserves
// the value multiset, and a deterministic schedule pins the steal race.
//
// The Reclaimer axis carries over unchanged and needs no cross-shard
// coordination: reclaimers manage *indices into their own shard's pool*,
// a popped node is retired to the reclaimer of the shard it was popped
// from, and no index ever crosses a shard boundary — so each shard's
// safety argument (tag width, hazard scan, epoch grace) is exactly the
// unsharded one with the same n processes.
//
// kShards is a compile-time parameter: the probe loops unroll, and under
// the native Fast policy each shard's head word is already alone on its
// cache line (native_platform.h WordStorage), so shards never false-share.
//
// How many of the kShards take new work is the router's one policy, the
// Width parameter: FixedWidth below, or AdaptiveWidth
// (structures/adaptive_sharded.h), which moves it at run time.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/platform.h"
#include "reclaim/reclaimer.h"
#include "reclaim/tagged.h"
#include "structures/ms_queue.h"
#include "structures/treiber_stack.h"
#include "util/assert.h"
#include "util/cacheline.h"
#include "util/shard.h"

namespace aba::structures {

// A width policy names its Options, is built from (options, n, kShards),
// and supplies the router's hooks: active(kShards) is the width puts route
// over, probe() the attempt-th shard of a scan, attach() sees each shard
// once, on_op(p) runs after every routed operation, and mix_into() adds
// the policy's routing state to the reclaim fingerprint.
//
// FixedWidth keeps every shard active. Its hooks are empty or fold to the
// compile-time kShards, so the sharded path pays nothing for the policy.
struct FixedWidth {
  struct Options {};

  FixedWidth(const Options& /*options*/, int /*n*/, int /*shards*/) {}

  static constexpr int active(int shards) { return shards; }
  static constexpr int probe(int home, int attempt, int active) {
    return util::probe_shard(home, attempt, active);
  }
  template <class Shard>
  static void attach(Shard& /*shard*/, int /*s*/) {}
  static void on_op(int /*p*/) {}
  static void mix_into(reclaim::Fingerprint& /*fp*/) {}
};

namespace detail {

// The shard an operation last landed on, per process. Thread-private (one
// plain store per operation, no shared steps — the sim step counts and the
// Fast≡Counted traces are unaffected), padded (util::Padded) so neighbours
// never false-share. The sharded test adapters read this to attribute each
// history op to its shard.
using LastShard = util::Padded<int>;

// The routing core both sharded structures share: owns the shard array,
// the per-process last-shard tags and the width policy, and implements the
// one probe/steal contract the tests pin — home shard first, then the
// scan, failed or empty operations charged to the home shard. The derived
// structure supplies the shards (heads vs queue options differ) and names
// the verbs (push/pop vs enqueue/dequeue).
template <class Shard, int kShards, class Width>
class ShardRouter {
  static_assert(kShards >= 1, "need at least one shard");

 public:
  static constexpr int kShardCount = kShards;

  // The shard p's last completed operation landed on (its home shard for a
  // failed put or an empty take). Thread-private; meaningful only to the
  // calling process between its own operations.
  int last_shard(int p) const {
    return last_[static_cast<std::size_t>(p)].value;
  }

  // The number of shards puts are routed over (kShardCount under
  // FixedWidth). Takes always scan all kShardCount.
  int active_shards() const { return width_.active(kShards); }
  const Width& width_policy() const { return width_; }

  const Shard& shard(int s) const { return *shards_[s]; }

  // Composite observability for the schedule-search engine: stats sum over
  // shards, and a process's phase is the most vulnerable one any shard's
  // reclaimer reports for it (a parked guard pins its node no matter which
  // shard the rest of p's operation moved on to).
  reclaim::ReclaimStats reclaim_stats() const {
    reclaim::ReclaimStats total;
    for (const auto& s : shards_) total += s->reclaimer().stats();
    return total;
  }
  reclaim::ReclaimPhase reclaim_phase(int p) const {
    reclaim::ReclaimPhase worst = reclaim::ReclaimPhase::kIdle;
    for (const auto& s : shards_) {
      const reclaim::ReclaimPhase phase = s->reclaimer().phase(p);
      if (reclaim::is_vulnerable(phase)) return phase;
      if (phase != reclaim::ReclaimPhase::kIdle) worst = phase;
    }
    return worst;
  }
  // Per-shard fingerprints plus the routing tags: the last-shard values
  // steer the next operation's probe order, so two configurations that
  // differ only there have different futures. The width policy adds its
  // own steering state (nothing under FixedWidth).
  std::uint64_t reclaim_fingerprint() const {
    reclaim::Fingerprint fp;
    for (const auto& s : shards_) {
      if constexpr (requires { s->reclaimer().fingerprint(); }) {
        fp.mix(s->reclaimer().fingerprint());
      }
    }
    for (const auto& tag : last_) {
      fp.mix(static_cast<std::uint64_t>(tag.value));
    }
    width_.mix_into(fp);
    return fp.value();
  }

  // Releases p's cached reclaimer guards on every shard (see
  // TreiberStack::detach); no-op for guard-free policies.
  void detach(int p) {
    for (auto& s : shards_) s->detach(p);
  }

 protected:
  // make_shard(s) builds shard s; the width policy then sees each shard.
  template <class MakeShard>  // MakeShard: (int s) -> std::unique_ptr<Shard>
  ShardRouter(int n, const typename Width::Options& width,
              MakeShard make_shard)
      : last_(static_cast<std::size_t>(n)), width_(width, n, kShards) {
    ABA_CHECK(n >= 1);
    for (auto& l : last_) l.value = -1;  // "No operation yet."
    for (int s = 0; s < kShards; ++s) {
      shards_[s] = make_shard(s);
      width_.attach(*shards_[s], s);
    }
  }

  // Home shard first; under pool pressure, fall through the probe sequence
  // to the first shard whose reclaimer can produce a node.
  template <class Put>  // Put: (Shard&, p) -> bool
  bool routed_put(int p, Put put) {
    const int active = width_.active(kShards);
    const int home = util::home_shard(p, active);
    for (int attempt = 0; attempt < kShards; ++attempt) {
      const int s = width_.probe(home, attempt, active);
      if (put(*shards_[s], p)) {
        land(p, s);
        return true;
      }
    }
    land(p, home);
    return false;
  }

  // Home shard first; on empty, one bounded steal scan over the others.
  // An empty result is charged to the home shard (the per-shard claim the
  // relaxed semantics make; see header comment).
  template <class Take>  // Take: (Shard&, p) -> std::optional<uint64_t>
  std::optional<std::uint64_t> routed_take(int p, Take take) {
    const int active = width_.active(kShards);
    const int home = util::home_shard(p, active);
    for (int attempt = 0; attempt < kShards; ++attempt) {
      const int s = width_.probe(home, attempt, active);
      const std::optional<std::uint64_t> value = take(*shards_[s], p);
      if (value.has_value()) {
        land(p, s);
        return value;
      }
    }
    land(p, home);
    return std::nullopt;
  }

 private:
  void land(int p, int s) {
    last_[static_cast<std::size_t>(p)].value = s;
    width_.on_op(p);
  }

  std::array<std::unique_ptr<Shard>, kShards> shards_;
  std::vector<LastShard> last_;
  [[no_unique_address]] Width width_;
};

}  // namespace detail

// ------------------------------------------------------------------- stack

template <Platform P, class Head, class R = reclaim::TaggedReclaimer<P>,
          int kShards = 4, class Width = FixedWidth>
class ShardedTreiberStack
    : public detail::ShardRouter<TreiberStack<P, Head, R>, kShards, Width> {
  static_assert(reclaim::ReclaimerFor<R, P>,
                "R must satisfy the Reclaimer concept for platform P");
  using Router = detail::ShardRouter<TreiberStack<P, Head, R>, kShards, Width>;

 public:
  using Shard = TreiberStack<P, Head, R>;

  // heads[s] becomes shard s's protected CAS site; every shard gets its own
  // pool of `per_process_per_shard` nodes per process (disjoint per-shard
  // index spaces — see the header comment on why reclaimers then compose
  // with no cross-shard coordination).
  ShardedTreiberStack(typename P::Env& env, int n,
                      std::array<std::unique_ptr<Head>, kShards> heads,
                      int per_process_per_shard,
                      typename Width::Options width = {})
      : Router(n, width, [&](int s) {
          ABA_CHECK(per_process_per_shard >= 1);
          return std::make_unique<Shard>(
              env, n, std::move(heads[static_cast<std::size_t>(s)]),
              Shard::partition(n, per_process_per_shard));
        }) {}

  // Convenience for heads constructible from (Env&, n) — RawCasHead,
  // TaggedCasHead. LL/SC heads wrap an external object; build those arrays
  // by hand.
  static std::array<std::unique_ptr<Head>, kShards> make_heads(
      typename P::Env& env, int n) {
    std::array<std::unique_ptr<Head>, kShards> heads;
    for (auto& head : heads) head = std::make_unique<Head>(env, n);
    return heads;
  }

  bool push(int p, std::uint64_t value) {
    return this->routed_put(
        p, [value](Shard& shard, int pid) { return shard.push(pid, value); });
  }

  std::optional<std::uint64_t> pop(int p) {
    return this->routed_take(
        p, [](Shard& shard, int pid) { return shard.pop(pid); });
  }

  // Uniform structure verbs (structures/concepts.h).
  bool try_push(int p, std::uint64_t value) { return push(p, value); }
  std::optional<std::uint64_t> try_pop(int p) { return pop(p); }
};

// ------------------------------------------------------------------- queue

template <Platform P, class R = reclaim::TaggedReclaimer<P>, int kShards = 4,
          class Width = FixedWidth>
class ShardedMsQueue
    : public detail::ShardRouter<MsQueue<P, R>, kShards, Width> {
  static_assert(reclaim::ReclaimerFor<R, P>,
                "R must satisfy the Reclaimer concept for platform P");
  using Router = detail::ShardRouter<MsQueue<P, R>, kShards, Width>;

 public:
  using Shard = MsQueue<P, R>;
  using QueueOptions = typename Shard::Options;

  ShardedMsQueue(typename P::Env& env, int n, int nodes_per_process_per_shard,
                 QueueOptions queue = {}, typename Width::Options width = {})
      : Router(n, width, [&](int /*s*/) {
          ABA_CHECK(nodes_per_process_per_shard >= 1);
          return std::make_unique<Shard>(env, n, nodes_per_process_per_shard,
                                         queue);
        }) {}

  bool enqueue(int p, std::uint64_t value) {
    return this->routed_put(p, [value](Shard& shard, int pid) {
      return shard.enqueue(pid, value);
    });
  }

  std::optional<std::uint64_t> dequeue(int p) {
    return this->routed_take(
        p, [](Shard& shard, int pid) { return shard.dequeue(pid); });
  }

  // Uniform structure verbs (structures/concepts.h).
  bool try_push(int p, std::uint64_t value) { return enqueue(p, value); }
  std::optional<std::uint64_t> try_pop(int p) { return dequeue(p); }
};

}  // namespace aba::structures
