// The Reclaimer concept — pluggable node-reuse policies for the index-based
// lock-free structures.
//
// The paper frames lock-free data structures as choosing among answers to
// the ABA problem: bounded tags (cheap, probabilistically correct), LL/SC
// (immune at the word, which the paper constructs from bounded CAS), or
// application-specific memory reclamation such as hazard pointers. In this
// repository the *structures* own the CAS-site policy (RawCasHead /
// TaggedCasHead / LlscHead, or the MS queue's internal tags) and a
// Reclaimer owns the orthogonal axis: when a retired node index may be
// handed out again. Five policies implement the concept:
//
//   TaggedReclaimer        — immediate FIFO reuse; safety is delegated to a
//                            bounded-tag (or LL/SC) CAS site. The regime the
//                            paper critiques as only probabilistically
//                            correct (E7 quantifies the escape probability).
//   LeakyReclaimer         — retired nodes are never reused. The no-free
//                            baseline: trivially ABA-immune (an index never
//                            reappears) and the throughput floor benches
//                            compare against.
//   HazardPointerReclaimer — per-process hazard slots; reuse of a retired
//                            node is deferred until no slot guards it
//                            (Michael). Bounded unreclaimed garbage. Its
//                            CachedGuards mode (alias
//                            CachedHazardPointerReclaimer, "hazard_cached")
//                            keeps slots published across operations so a
//                            repeat guard costs zero shared steps; see
//                            hazard_pointer.h for the detach contract.
//   EpochBasedReclaimer    — per-process epoch announcements against a
//                            global epoch; reuse is deferred two epoch
//                            advances. Amortized O(1) retire, but a single
//                            stalled reader blocks reclamation system-wide.
//                            Its DeferredAnnounce mode (alias
//                            DeferredEpochReclaimer, "epoch_deferred")
//                            caches the announcement across operations and
//                            batches retires through a per-process ring —
//                            one shared read per op steady-state, with the
//                            StoreLoad heavy side carried by the advance
//                            path (see epoch.h for the detach contract).
//
// All four operate on *node indices* into a fixed pool, not raw pointers,
// so they run unchanged on the simulator (every shared access a scheduled,
// traceable step — this is how the linearizability suite checks each
// platform × reclaimer combination) and natively. Shared state lives in
// Platform objects; per-process bookkeeping (retired/limbo lists, free
// lists) is thread-private plain memory, which costs no shared steps.
//
// The protocol a structure follows (see treiber_stack.h / ms_queue.h):
//
//   allocate(p)        — outside any begin_op/end_op region: obtain a node
//                        index whose reuse is safe, or nullopt under pool
//                        pressure. May reclaim internally (hazard scan,
//                        epoch flush).
//   begin_op(p)        — enter a protected region (epoch announce; no-op
//                        for the others).
//   guard(p, slot, i)  — publish intent to dereference node i. Only needed
//                        when kNeedsGuard; the structure must re-validate
//                        its source word after the publish (the classic
//                        publish-then-revalidate handshake) before trusting
//                        node i's fields.
//   end_op(p)          — leave the region, clearing any guards this op set
//                        (the cached-guard hazard mode deliberately leaves
//                        them published; detach(p) is its release point).
//   retire(p, i)       — after end_op: node i was unlinked by p's CAS and
//                        may be recycled once the policy's safety condition
//                        holds.
//   retire_batch(p, v, n) — retire n unlinked nodes in one call. Policies
//                        with a per-retire shared cost (epoch's stamp read,
//                        hazard's threshold check) amortize it over the
//                        batch; tagged/leaky default-forward to a retire()
//                        loop (their retire is already zero shared steps).
//
// kNeedsGuard lets no-guard policies compile the publish/revalidate steps
// out entirely (if constexpr), so the Tagged/Leaky fast paths execute the
// exact step sequence of the paper's pseudo-code — the deterministic
// step-counted schedules in the test suite rely on that.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "core/platform.h"
#include "util/assert.h"
#include "util/fifo_ring.h"

namespace aba::reclaim {

// A free list: node indices in 32-bit entries, one contiguous ring.
using IndexList = util::FifoRing<std::uint32_t>;

// Per-process initial free lists of 0-based node indices; the pool size is
// their total. Every reclaimer is constructed from (Env&, n, FreeLists).
using FreeLists = std::vector<IndexList>;

// The largest node index a list entry holds.
inline constexpr std::uint64_t kMaxListIndex =
    std::numeric_limits<std::uint32_t>::max();

// n free lists, process p's holding [first + p*k, first + (p+1)*k) in
// order, each in one allocation. An index past kMaxListIndex would be
// truncated by its entry, so such a pool is refused before any list (or
// any node) is allocated.
inline FreeLists partition_pool(int n, int k, std::uint64_t first = 0) {
  ABA_CHECK(n >= 0 && k >= 0);
  constexpr std::uint64_t kEntries = kMaxListIndex + 1;
  const std::uint64_t count =
      static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(k);
  ABA_CHECK_MSG(count <= kEntries && first <= kEntries - count,
                "node indices must fit a 32-bit free-list entry");
  FreeLists lists;
  lists.reserve(static_cast<std::size_t>(n));
  for (int p = 0; p < n; ++p) {
    lists.push_back(IndexList::iota(static_cast<std::uint32_t>(first),
                                    static_cast<std::size_t>(k)));
    first += static_cast<std::uint64_t>(k);
  }
  return lists;
}

// Where a process currently stands in its reclaimer's protocol. The value
// is thread-private bookkeeping (updated by p's own calls, read by the
// engine while every simulated process is parked at an announcement), so
// querying it costs no shared steps and cannot perturb a schedule. The
// schedule-search engine (sim/schedule_search.h) uses it to park a process
// at exactly the step the retire-bound arguments care about: a hazard guard
// that has just become visible, or an epoch announcement that now pins the
// global epoch.
enum class ReclaimPhase : std::uint8_t {
  kIdle,            // Not inside any protected region.
  kInRegion,        // begin_op ran; nothing vulnerable published yet.
  kGuardPublished,  // Hazard: a slot write is visible; the structure is
                    // about to revalidate — parking here pins the node.
  kEpochAnnounced,  // Epoch: the announcement is written; parking here
                    // freezes the global epoch for the region's duration.
  kMidRetire,       // Inside retire(), including any triggered scan.
  kMidAllocate,     // Crash-marked allocation window (leased reclaimers):
                    // in_flight[p] is set and the node is off the free list
                    // but commit(p) has not yet cleared the marker — a kill
                    // here is what the quarantine rule exists for.
};

// The phases a parked process turns into a reclamation attack.
constexpr bool is_vulnerable(ReclaimPhase phase) {
  return phase == ReclaimPhase::kGuardPublished ||
         phase == ReclaimPhase::kEpochAnnounced;
}

inline const char* to_string(ReclaimPhase phase) {
  switch (phase) {
    case ReclaimPhase::kIdle: return "idle";
    case ReclaimPhase::kInRegion: return "in-region";
    case ReclaimPhase::kGuardPublished: return "guard-published";
    case ReclaimPhase::kEpochAnnounced: return "epoch-announced";
    case ReclaimPhase::kMidRetire: return "mid-retire";
    case ReclaimPhase::kMidAllocate: return "mid-allocate";
  }
  return "?";
}

// Aggregate reclamation damage, sampled by the engine between steps. Like
// ReclaimPhase this is computed from thread-private bookkeeping (plus, for
// the epoch lag, relaxed mirror fields maintained at the write sites), so
// sampling it costs no shared steps on either platform. The schedule-search
// cost functions are thin projections of this struct.
struct ReclaimStats {
  std::size_t retired_unreclaimed = 0;  // Sum over processes: retired/limbo.
  std::size_t free_nodes = 0;           // Sum over free lists.
  std::size_t pool_size = 0;
  std::size_t guard_slots_occupied = 0;  // Hazard modes: published slots.
  std::uint64_t epoch_lag = 0;  // Epoch: global - oldest active announcement.
  // Crash-robustness accounting (reclaim/death.h). Quarantined nodes are a
  // dead process's in-flight allocations — possibly linked, so never reused;
  // at most one per crash. in_flight counts live allocated-but-unlinked
  // nodes; expropriations counts confirmed dead-lease drains by survivors.
  std::size_t quarantined = 0;
  std::size_t in_flight = 0;
  std::size_t expropriations = 0;

  ReclaimStats& operator+=(const ReclaimStats& o) {
    retired_unreclaimed += o.retired_unreclaimed;
    free_nodes += o.free_nodes;
    pool_size += o.pool_size;
    guard_slots_occupied += o.guard_slots_occupied;
    if (o.epoch_lag > epoch_lag) epoch_lag = o.epoch_lag;
    quarantined += o.quarantined;
    in_flight += o.in_flight;
    expropriations += o.expropriations;
    return *this;
  }
};

// Order-sensitive FNV-1a accumulator over 64-bit words. Reclaimers use it
// to expose a fingerprint() of their thread-private bookkeeping (free-list
// order, retired/limbo contents, published guards, in-flight markers) —
// state that SimWorld::signature_key() deliberately omits but that decides
// every future allocation and scan. The schedule-search engine folds the
// fingerprint into its DPOR state key so two configurations are merged only
// when their *reclamation futures* are identical too, not just their shared
// memory. Like ReclaimStats, computing it reads thread-private bookkeeping
// while all simulated processes are parked: no shared steps, no schedule
// perturbation.
class Fingerprint {
 public:
  Fingerprint& mix(std::uint64_t word) {
    hash_ ^= word;
    hash_ *= 0x100000001b3ull;
    return *this;
  }

  // Length-prefixed so adjacent ranges cannot alias ([1],[2] vs [1,2]).
  template <class Range>
  Fingerprint& mix_range(const Range& range) {
    mix(static_cast<std::uint64_t>(range.size()));
    for (const auto& word : range) mix(static_cast<std::uint64_t>(word));
    return *this;
  }

  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

template <class R, class P>
concept ReclaimerFor =
    Platform<P> &&
    std::constructible_from<R, typename P::Env&, int, FreeLists> &&
    requires(R r, const R cr, int p, std::uint64_t idx,
             const std::uint64_t* idxs, std::size_t count) {
      { R::kName } -> std::convertible_to<const char*>;
      { R::kNeedsGuard } -> std::convertible_to<bool>;
      { r.begin_op(p) } -> std::same_as<void>;
      { r.guard(p, 0, idx) } -> std::same_as<void>;
      { r.end_op(p) } -> std::same_as<void>;
      { r.allocate(p) } -> std::same_as<std::optional<std::uint64_t>>;
      { r.retire(p, idx) } -> std::same_as<void>;
      { r.retire_batch(p, idxs, count) } -> std::same_as<void>;
      { cr.pool_size() } -> std::same_as<std::size_t>;
      { cr.unreclaimed(p) } -> std::same_as<std::size_t>;
      { cr.stats() } -> std::same_as<ReclaimStats>;
      { cr.phase(p) } -> std::same_as<ReclaimPhase>;
    };

}  // namespace aba::reclaim
