// HazardPointerReclaimer — Michael's hazard pointers over the index pool,
// with a pluggable guard-publication mode and a pluggable bookkeeping
// backend.
//
// Each process owns kSlotsPerProcess single-writer multi-reader registers;
// guard(p, slot, i) publishes i there, and the structure re-validates its
// source word after the publish (if the word is unchanged, node i was not
// yet retired when the guard became visible, so every later scan sees it).
// retire(p, i) defers i on p's retired list; once the list reaches the scan
// threshold, scan(p) reads all H slots once (H = total slots) and releases
// every unguarded index back to p's free list.
//
// Guard modes (the Mode template parameter):
//
//   EagerGuards (default, kName "hazard") — the textbook per-op protocol:
//       every guarded dereference publishes, every end_op clears what the
//       op published. Step sequence identical to the pre-guard-cache
//       reclaimer, which the deterministic sim schedules count on.
//
//   CachedGuards (kName "hazard_cached") — guard caching: a published slot
//       STAYS published across consecutive operations on the same
//       structure. The hot path compares the requested index against the
//       process-local mirror of what the slot already holds; on a hit the
//       publish (a shared store, plus its fence on seq_cst platforms) is
//       skipped entirely and only the structure's revalidation load runs.
//       end_op clears nothing. The costs move:
//         * a process's slots pin up to kSlotsPerProcess nodes between
//           operations — including, transiently, its own latest retiree —
//           so the unreclaimed bound gains +H but stays independent of
//           stall duration;
//         * a process that stops operating on this structure must call
//           detach(p) (the epoch-style explicit clear) or its cached
//           guards pin those nodes indefinitely. allocate(p) self-heals
//           under pool pressure: it runs outside any protected region, so
//           it may drop p's own cached guards and rescan.
//       The hit/miss decision is a pure function of the operation sequence
//       (process-local state only), so sim runs stay deterministic and
//       Fast ≡ Counted trace equivalence holds.
//
// Books (the Book template parameter; reclaim/private_book.h lists the
// interface): PrivateBook<P> (default) keeps slots as Platform registers and
// lists in thread-private memory — the in-process tier every sim fixture
// and native bench runs. shm::LeasedBook (shm/leased_reclaimer.h) keeps the
// same state in a shared arena under pid leases — the crash-robust
// cross-process tier (LeasedHazardReclaimer and friends are aliases of this
// class over it). The protocol below is the same for both.
//
// Fences: on platforms that opt into an asymmetric StoreLoad scheme
// (PlatformFenceT, see util/asymmetric_fence.h and the FastAsymmetric
// native policy), every performed publish is followed by Fence::light()
// (a compiler barrier) and every scan opens with Fence::heavy() (the
// membarrier/mprotect side). Scans amortize the heavy fence: on such
// platforms the scan threshold is raised to at least kHeavyScanFloor
// retires so the per-op share of the syscall stays in the noise. On
// seq_cst platforms both fences are no-ops and the threshold is the
// standard 2·H rule.
//
// Guarantees (docs/RECLAMATION.md has the comparison table):
//   space  — unreclaimed garbage is bounded: per process at most the scan
//            threshold + H guarded nodes, independent of stalled readers'
//            *duration* (a stalled reader pins at most its own slots).
//   time   — retire is O(1) amortized; every threshold retires pay one
//            O(H) scan (plus one heavy fence on asymmetric platforms).
//            guard costs at most one shared write plus the structure's
//            revalidation read per dereference — zero shared writes on a
//            cached hit.
//
// The paper's trichotomy: this is the application-specific reclamation
// answer to ABA, contrasted with bounded tags (TaggedReclaimer + tagged
// head) and LL/SC (which the paper constructs from bounded CAS).
//
// Memory orderings: publish-then-revalidate is a StoreLoad pattern (the
// guard write must be visible before the revalidation read of a different
// word), exactly like the Figure 4 announce-array register. On native
// platforms run it under seq_cst orderings — Counted or Fast — or under
// FastAsymmetric, where the fence pair above replaces seq_cst's per-access
// cost. Never under plain FastRelaxed.
//
// Crash robustness (reclaim/death.h): every scan first sweeps the book for
// dead processes and — after the two-phase suspect/confirm handshake —
// expropriates them: clears their published guards, and the book splices
// their retired and free lists into the scanning process's and quarantines
// their in-flight allocation. Entry points self-check the caller's own
// death state (veto a false suspicion, self-fence via LeaseRevoked once
// expropriated). With PrivateBook and no oracle installed (the default)
// every one of these paths is inert and the step sequence is exactly the
// classic protocol — the committed schedule corpus replays bit-identically.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <vector>

#include "core/platform.h"
#include "reclaim/private_book.h"
#include "reclaim/reclaimer.h"
#include "util/assert.h"
#include "util/cacheline.h"

namespace aba::reclaim {

// Guard-publication modes (see the header comment).
struct EagerGuards {
  static constexpr bool kCached = false;
};
struct CachedGuards {
  static constexpr bool kCached = true;
};

template <Platform P, class Mode = EagerGuards, class Book = PrivateBook<P>>
class HazardPointerReclaimer {
 public:
  using Env = typename Book::Env;
  using Fence = typename Book::Fence;
  static constexpr bool kCachesGuards = Mode::kCached;
  static constexpr const char* kName =
      Book::kCrossProcess ? (kCachesGuards ? "leased_hazard_cached"
                                           : "leased_hazard")
                          : (kCachesGuards ? "hazard_cached" : "hazard");
  static constexpr bool kNeedsGuard = true;
  // Two slots cover every structure here: the Treiber stack guards the head
  // node (slot 0); the MS queue guards head (0) and head->next (1).
  static constexpr int kSlotsPerProcess = 2;
  // On platforms with a real heavy fence (asymmetric scheme), scans batch
  // at least this many retires so the membarrier cost amortizes to noise.
  static constexpr std::size_t kHeavyScanFloor = 256;
  static constexpr bool kHeavyScan = !std::is_same_v<Fence, util::NoFence>;

  HazardPointerReclaimer(Env& env, int n, FreeLists initial_free)
      : n_(n),
        book_(env, n, std::move(initial_free)),
        slots_(env, "hp.slot", n, kNone),
        locals_(static_cast<std::size_t>(n)) {}

  // Installs the liveness oracle that arms the expropriation paths (books
  // with a pluggable oracle only). Not a transfer of ownership; pass
  // nullptr to disarm. Call before any process operates.
  void set_death_oracle(const DeathOracle* oracle)
    requires requires(Book& b, const DeathOracle* o) { b.set_death_oracle(o); }
  {
    book_.set_death_oracle(oracle);
  }

  void begin_op(int p) {
    book_.enter(p);
    locals_[p].phase = ReclaimPhase::kInRegion;
  }

  // Publishes node `idx` in (p, slot). At most one shared write; zero when
  // the cached mode finds the slot already naming idx. The *structure*
  // must re-read its source word afterwards and retry if it moved.
  void guard(int p, int slot, std::uint64_t idx) {
    ABA_ASSERT(slot >= 0 && slot < kSlotsPerProcess);
    const std::uint64_t word = idx + 1;
    // The phase marker flips before returning either way: a cache hit
    // protects exactly like a fresh publish, and the caller is now headed
    // into its revalidation read — the worst step to park at.
    locals_[p].phase = ReclaimPhase::kGuardPublished;
    if (!kCachesGuards || slots_.mirror(p, slot) != word) {
      slots_.write(p, slot, word);
      Fence::light();
    }
    book_.park(p, kParkGuardPublished);
  }

  // Eager mode: clears only the slots this op actually published (tracked
  // by the mirror), so an op that never guarded pays no shared steps here.
  // Cached mode: nothing — the published guards ARE the cache.
  void end_op(int p) {
    if constexpr (!kCachesGuards) detach(p);
    locals_[p].phase = ReclaimPhase::kIdle;
  }

  // The epoch-style explicit clear: drops every guard p has published.
  // Call when p stops operating on this structure (a structure switch, a
  // worker retiring) — in the cached mode this is the only way p's slots
  // release their last pinned nodes.
  void detach(int p) {
    for (int slot = 0; slot < kSlotsPerProcess; ++slot) {
      if (slots_.mirror(p, slot) != kNone) slots_.write(p, slot, kNone);
    }
  }

  std::optional<std::uint64_t> allocate(int p) {
    book_.enter(p);
    if (book_.free_empty(p)) {
      scan(p);  // Pool pressure: reclaim eagerly.
      if constexpr (kCachesGuards) {
        // Still dry? allocate runs outside any protected region, so p's
        // cached guards protect nothing in flight — drop them (they may
        // pin p's own recent retirees) and rescan.
        if (book_.free_empty(p) && has_published(p)) {
          detach(p);
          scan(p);
        }
      }
    }
    const std::optional<std::uint64_t> idx = book_.take_free(p);
    if (Book::kCrossProcess && idx) {
      // The crash-marked window opens: the node stays marked in flight
      // through the structure's linking CAS until commit(p).
      locals_[p].resume = locals_[p].phase;
      locals_[p].phase = ReclaimPhase::kMidAllocate;
    }
    return idx;
  }

  // The structure's linking CAS for p's in-flight node just succeeded: the
  // node is reachable, no longer at risk of being stranded by p's death.
  void commit(int p) {
    book_.commit(p);
    if constexpr (Book::kCrossProcess) locals_[p].phase = locals_[p].resume;
  }

  void retire(int p, std::uint64_t idx) {
    book_.enter(p);
    const ReclaimPhase resume = locals_[p].phase;
    locals_[p].phase = ReclaimPhase::kMidRetire;
    book_.begin_retire(p, idx);
    book_.end_retire(p, idx, 0);
    if (book_.unreclaimed(p) >= scan_threshold()) scan(p);
    locals_[p].phase = resume;
  }

  // Batch hand-off (the Reclaimer concept's batched verb): the whole batch
  // lands on the retired list under ONE threshold check, so at most one
  // scan (and one heavy fence) runs regardless of the batch size.
  void retire_batch(int p, const std::uint64_t* idxs, std::size_t count) {
    book_.enter(p);
    if (count == 0) return;
    const ReclaimPhase resume = locals_[p].phase;
    locals_[p].phase = ReclaimPhase::kMidRetire;
    for (std::size_t done = 0; done < count;) {
      const std::size_t chunk = book_.stage(p, idxs + done, count - done);
      book_.record_staged(p, idxs + done, chunk, 0);
      done += chunk;
    }
    if (book_.unreclaimed(p) >= scan_threshold()) scan(p);
    locals_[p].phase = resume;
  }

  // Reads every hazard slot once and frees p's retired nodes that no slot
  // guards. O(H + retired) local work, H shared reads — and, on asymmetric
  // platforms, the one heavy fence that makes every reader's pending guard
  // publish visible before the slot reads.
  void scan(int p) {
    Fence::heavy();
    // Dead-lease sweep first, so a dead process's just-cleared guards are
    // already gone from the slot reads below and its spliced-in retirees
    // get filtered in this very scan — a confirmed death is fully drained
    // within the same scan that confirms it.
    book_.sweep(p, [this](int q) {
      for (int slot = 0; slot < kSlotsPerProcess; ++slot) {
        slots_.clear_if_set(q, slot, kNone);
      }
    });
    std::vector<std::uint64_t> guarded;
    guarded.reserve(slots_.size());
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      const std::uint64_t word = slots_.read(i);
      if (word != kNone) guarded.push_back(word - 1);
    }
    book_.release(p, [&guarded](std::uint64_t idx, std::uint64_t) {
      return std::find(guarded.begin(), guarded.end(), idx) == guarded.end();
    });
  }

  // 2·H — scans amortize to O(1) shared reads per retire while unreclaimed
  // garbage stays linear in the slot count — raised to the batch floor on
  // platforms where each scan also pays a heavy fence.
  std::size_t scan_threshold() const {
    const std::size_t base = 2 * slots_.size();
    if constexpr (kHeavyScan) return std::max(base, kHeavyScanFloor);
    return base;
  }

  std::size_t pool_size() const { return book_.pool_size(); }
  std::size_t unreclaimed(int p) const { return book_.unreclaimed(p); }
  std::size_t free_count(int p) const { return book_.free_count(p); }

  // Engine-side observability (reclaimer.h): step-free views only, so
  // sampling between steps is free.
  ReclaimStats stats() const {
    ReclaimStats s = book_.stats();
    for (int p = 0; p < n_; ++p) {
      for (int slot = 0; slot < kSlotsPerProcess; ++slot) {
        if (slots_.peek(p, slot) != kNone) ++s.guard_slots_occupied;
      }
    }
    return s;
  }
  ReclaimPhase phase(int p) const { return locals_[p].phase; }

  // The state the simulator's signature key misses: the book (lists,
  // markers, death state), the slot mirrors (where the next guard lands)
  // and each process's protocol position.
  std::uint64_t fingerprint() const {
    Fingerprint fp;
    book_.fingerprint_into(fp);
    slots_.fingerprint_into(fp);
    for (const Local& local : locals_) {
      fp.mix(static_cast<std::uint64_t>(local.phase));
      fp.mix(static_cast<std::uint64_t>(local.resume));
    }
    return fp.value();
  }

 private:
  static constexpr std::uint64_t kNone = 0;  // Indices are stored +1.

  bool has_published(int p) const {
    for (int slot = 0; slot < kSlotsPerProcess; ++slot) {
      if (slots_.mirror(p, slot) != kNone) return true;
    }
    return false;
  }

  // Protocol position for the schedule-search engine (reclaimer.h), one
  // line per process; resume is the phase commit() restores.
  struct alignas(util::kCacheLineSize) Local {
    ReclaimPhase phase = ReclaimPhase::kIdle;
    ReclaimPhase resume = ReclaimPhase::kIdle;
  };

  int n_;
  Book book_;
  typename Book::template Words<kSlotsPerProcess> slots_;
  std::vector<Local> locals_;
};

// The guard-caching instantiation under its own name (the reclaimer axis
// treats it as a fifth policy: same safety argument as hazard, different
// hot-path cost model).
template <Platform P>
using CachedHazardPointerReclaimer = HazardPointerReclaimer<P, CachedGuards>;

}  // namespace aba::reclaim
