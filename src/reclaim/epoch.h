// EpochBasedReclaimer — epoch-based reclamation (Fraser-style EBR) over the
// index pool, with a pluggable announce mode.
//
// One global epoch counter (a WritableCas) plus one announcement register
// per process. begin_op(p) reads the global epoch and announces it,
// validating that the epoch did not move past the announcement (see the
// method comment); end_op(p) announces quiescence (eager mode). No
// per-dereference guards: an op pins *every* node reachable during its
// region at once, which is the whole appeal — dereference is free, and
// retire is one shared read plus thread-private work (the index appended to
// a limbo list stamped with the current global epoch). The epoch advances
// from e to e+1 only when every non-quiescent announcement equals e, so
// once the global epoch reaches s+2 no active region can still hold a node
// stamped s — that is the classic two-epoch grace period under which limbo
// nodes flow back to the free list.
//
// Announce modes (the Mode template parameter, mirroring the hazard
// reclaimer's EagerGuards/CachedGuards):
//
//   EagerAnnounce (default, kName "epoch") — the textbook per-op protocol:
//       every begin_op announces, every end_op writes quiescent. The
//       announce-then-validate pair is a StoreLoad pattern, so on native
//       platforms it needs seq_cst orderings — run it on Counted or Fast,
//       not FastRelaxed/FastAsymmetric (E9's matrix makes that carve-out).
//       Step sequence identical to the pre-mode reclaimer, which the
//       committed schedule corpus counts on.
//
//   DeferredAnnounce (alias DeferredEpochReclaimer, kName "epoch_deferred")
//       — announcement caching + light announce / heavy advance:
//       * The announcement STAYS published across operations. begin_op
//         compares the freshly read global epoch against the thread-private
//         announce mirror; on a hit the whole op costs ONE shared read (no
//         store, no validation). On a miss the announce store is a plain
//         (relaxed-ordering) store followed by Fence::light() — a compiler
//         barrier — and the validation loop.
//       * end_op writes nothing; detach(p) is the explicit release point
//         (epoch-style, exactly the cached-hazard contract). A process that
//         stops operating must detach or its parked announcement pins the
//         epoch indefinitely.
//       * retire(p, i) lands in a per-process LocalRing batch buffer: ZERO
//         shared steps. A full batch is flushed in one shot — one global
//         read stamps the whole batch (a flush-time stamp is >= each
//         retire-time stamp, so the grace period only lengthens), then one
//         amortized advance+flush runs.
//       * try_advance is the heavy side: it opens with Fence::heavy()
//         (membarrier/mprotect on FastAsymmetric — the same amortized home
//         the hazard scan uses), which forces every in-flight light
//         announce into visibility before the announcement scan. Soundness:
//         a reader's validated announce store retired (program order) before
//         its validation load completed, and any advance past a+1 starts
//         heavy() after that load, so its scan must observe the store and
//         veto — the global epoch can never be more than one ahead of an
//         active region's announcement, same invariant as eager mode.
//       * Because the deferred end_op leaves the announcement published,
//         try_advance(p) first refreshes p's OWN stale announcement to the
//         current epoch (p is outside any region there — allocate and
//         retire run post-end_op — so the overwrite is safe); otherwise p
//         would veto every advance it attempts itself.
//       The hit/miss decision is a pure function of the operation sequence
//       (thread-private mirror vs. the read epoch), so sim runs stay
//       deterministic and the Counted ≡ Fast ≡ FastAsymmetric tokenized
//       trace equivalence holds. The protocol is the same on every
//       platform; only the fence pair degrades (NoFence on SimPlatform /
//       Counted / Fast, where orderings or the scheduler carry the edge).
//
// Cost model (the ledger tests pin this): deferred steady state is 1 shared
// read per op (begin_op hit), 0 shared stores, 0 shared RMW; each announce
// miss adds one plain store + one validation read; each kRetireBatch
// retires pay one stamp read plus one advance (O(n) announcement reads + at
// most one CAS) — amortized to ~zero per op at native batch sizes.
//
// The dual weakness, measured by the retire-bound stress test: one stalled
// reader freezes the epoch and makes *system-wide* unreclaimed garbage
// unbounded, where hazard pointers bound it by the slot count. Deferred
// mode sharpens it: an *idle* process's cached announcement pins the epoch
// too, until detach. The paper's lens: epochs answer ABA like tags with an
// unbounded tag you only advance when it is provably safe — immune like
// LL/SC, but at the cost of unbounded space under stalls (exactly the
// bounded-vs-unbounded tension Theorem 1 is about).
//
// Contract: allocate(p) must be called *outside* p's begin_op/end_op
// region — a process cannot advance the epoch past its own stale
// announcement (deferred mode self-heals: allocate under pressure flushes
// the pending batch and refreshes p's own announcement before advancing).
//
// Books (the Book template parameter; reclaim/private_book.h lists the
// interface): PrivateBook<P> (default) keeps the global epoch and the
// announcements as Platform objects and the limbo in thread-private memory;
// shm::LeasedBook (shm/leased_reclaimer.h) keeps the same state in a shared
// arena under pid leases (LeasedEpochReclaimer is an alias of this class
// over it, eager mode only). The protocol below is the same for both.
//
// Crash robustness (reclaim/death.h): a dead process's stale announcement
// would otherwise freeze the epoch forever — the catastrophic version of
// the stalled-reader weakness. Every advance attempt sweeps the book for
// dead-looking processes — not just stale announcers: a victim that died
// inside a post-region retire() has a quiescent announcement but orphaned
// bookkeeping — through the two-phase suspect/confirm handshake; the
// confirm winner expropriates: writes the victim's announcement to
// quiescent (unfreezing the epoch), re-stamps its orphans — the
// half-recorded retiree and any staged or deferred batch — with the current
// epoch (a full fresh grace period, so an orphan is bounded garbage like the
// quarantine, never a leak and never freed early), and the book splices its
// limbo and free list into its own and quarantines its in-flight
// allocation. Entry points self-check the caller's own death state and
// self-fence via LeaseRevoked once expropriated. With PrivateBook and no
// oracle every path is inert and the step sequence is the classic protocol.
#pragma once

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

// Announce modes (see the header comment).
struct EagerAnnounce {
  static constexpr bool kDeferred = false;
};
struct DeferredAnnounce {
  static constexpr bool kDeferred = true;
};

template <Platform P, class Mode = EagerAnnounce, std::size_t kBatchOverride = 0,
          class Book = PrivateBook<P>>
class EpochBasedReclaimer {
 public:
  using Env = typename Book::Env;
  using Fence = typename Book::Fence;
  static constexpr bool kDeferred = Mode::kDeferred;
  static constexpr const char* kName =
      Book::kCrossProcess ? "leased_epoch"
                          : (kDeferred ? "epoch_deferred" : "epoch");
  static constexpr bool kNeedsGuard = false;
  // Retires between advance attempts: amortizes the O(n) announcement scan.
  static constexpr std::size_t kAdvanceEvery = 4;
  // On platforms with a real heavy fence the deferred batch is raised so
  // the per-op share of the advance-side membarrier stays in the noise —
  // the same cadence as the hazard kHeavyScanFloor (256), since both sides
  // pay one membarrier per flush and the E9 batch axis shows throughput
  // still climbing past 64. Elsewhere it matches kAdvanceEvery, so the
  // deferred advance cadence equals the eager one and sim searches cross
  // the batch boundary constantly. kBatchOverride pins it for the E9
  // retire-batch-size axis.
  static constexpr bool kHeavyAdvance = !std::is_same_v<Fence, util::NoFence>;
  static constexpr std::size_t kRetireBatch =
      kBatchOverride != 0 ? kBatchOverride
                          : (kHeavyAdvance ? 256 : kAdvanceEvery);
  // Starved allocates between heavy advance re-attempts while the epoch is
  // frozen (the allocate() pressure-path throttle; heavy platforms only).
  static constexpr std::uint64_t kCoastStride = 64;
  // The eager announce-validate pair is StoreLoad-shaped with no heavy side
  // to carry it: it must not compile on platforms whose orderings are
  // relaxed-with-fence (FastAsymmetric). Deferred mode is that heavy side.
  static_assert(kDeferred || !kHeavyAdvance,
                "eager epoch needs seq_cst orderings; use "
                "DeferredEpochReclaimer on asymmetric-fence platforms");

  EpochBasedReclaimer(Env& env, int n, FreeLists initial_free)
      : n_(n),
        book_(env, n, std::move(initial_free)),
        global_(env, "epoch.global"),
        announce_(env, "epoch.announce", n, kQuiescent),
        locals_(static_cast<std::size_t>(n)) {}

  // Installs the liveness oracle that arms the expropriation paths (books
  // with a pluggable oracle only). Not a transfer of ownership; call before
  // any process operates.
  void set_death_oracle(const DeathOracle* oracle)
    requires requires(Book& b, const DeathOracle* o) { b.set_death_oracle(o); }
  {
    book_.set_death_oracle(oracle);
  }

  // Announce-then-validate: after writing the announcement we re-read the
  // global epoch and retry until it matches. Without the validation a
  // process that stalls between reading the epoch and publishing it could
  // announce an arbitrarily stale value — the epoch would meanwhile have
  // advanced past it, collapsing the grace period for nodes other readers
  // still hold. With it, once begin_op returns the global epoch can be at
  // most announce+1 for as long as this region is active (the advance rule
  // vetoes anything further), which is what the reuse bound relies on.
  //
  // Deferred mode adds the cache fast path: when the read epoch equals the
  // announcement already published (the process-local mirror — no shared
  // re-read), the store AND the validation are skipped; the old validated
  // publish still carries the invariant, because its visibility guarantee
  // is permanent once established (see the header comment).
  //
  // The announcement is visible from each write on (on asymmetric
  // platforms: from the next heavy advance on): a process parked at the
  // validation read already pins the epoch, which is exactly the worst step
  // the schedule-search engine aims for — so the phase flips before it.
  void begin_op(int p) {
    book_.enter(p);
    Local& local = locals_[p];
    if constexpr (kDeferred) {
      std::uint64_t e = global_.read();
      while (announce_.mirror(p, 0) != e) {  // A hit stores nothing.
        announce_.write(p, 0, e);
        Fence::light();
        local.phase = ReclaimPhase::kEpochAnnounced;
        e = global_.read();
      }
    } else {
      for (;;) {
        const std::uint64_t e = global_.read();
        announce_.write(p, 0, e);
        local.phase = ReclaimPhase::kEpochAnnounced;
        if (global_.read() == e) break;
      }
    }
    local.phase = ReclaimPhase::kEpochAnnounced;
    book_.park(p, kParkEpochAnnounced);
  }

  void guard(int /*p*/, int /*slot*/, std::uint64_t /*idx*/) {}

  // Eager: announce quiescence. Deferred: nothing — the published
  // announcement IS the cache; detach(p) is the release point.
  void end_op(int p) {
    if constexpr (!kDeferred) announce_.write(p, 0, kQuiescent);
    locals_[p].phase = ReclaimPhase::kIdle;
  }

  // The explicit release: announce quiescence and drop the cache. Call when
  // p stops operating on this structure — in deferred mode this is the only
  // way p's parked announcement stops pinning the epoch. No-op when already
  // quiescent (eager mode outside a region), so structures may forward it
  // unconditionally.
  void detach(int p) {
    if (announce_.mirror(p, 0) != kQuiescent) {
      announce_.write(p, 0, kQuiescent);
    }
  }

  std::optional<std::uint64_t> allocate(int p) {
    book_.enter(p);
    if (book_.free_empty(p)) {
      // Pool pressure: a fresh retiree needs two advances to mature, so try
      // up to two advance+flush rounds before reporting exhaustion. The
      // deferred batch flushes first — its nodes are invisible to flush()
      // until stamped — and each advance round self-refreshes p's own
      // parked announcement (try_advance), the self-heal that keeps
      // allocate's outside-a-region contract honest in deferred mode.
      //
      // Heavy-fence throttle (FastAsymmetric only): when the epoch is
      // frozen by a descheduled peer's cached announcement, every one of
      // these advance attempts pays the membarrier just to be vetoed by
      // the same stale announcer — an oversubscribed host can spend more
      // time in the pressure-path syscalls than in the ops. After a full
      // round fails with the epoch unmoved, coast: re-attempt the heavy
      // advance only every kCoastStride-th starved allocate (or as soon as
      // the epoch moves), and meanwhile just sweep limbo against the
      // current epoch. Coasting frees nothing new — by construction
      // nothing CAN mature while the epoch is frozen — so refusals are
      // identical; only the fence cadence changes. All throttle state is
      // process-local, and the stride bounds how long a recovered system
      // waits for its next real advance attempt.
      if constexpr (kDeferred && kHeavyAdvance) {
        Local& local = locals_[p];
        const std::uint64_t g = read_epoch();
        if (local.coast_epoch == g + 1 &&
            ++local.coast_tries % kCoastStride != 0) {
          flush(p, g);
          if (!book_.free_empty(p)) local.coast_epoch = 0;
        } else {
          flush_pending(p);
          std::uint64_t e = g;
          for (int round = 0; round < 2 && book_.free_empty(p); ++round) {
            e = try_advance(p);
            flush(p, e);
          }
          local.coast_epoch = (book_.free_empty(p) && e == g) ? g + 1 : 0;
          local.coast_tries = 0;
        }
      } else {
        if constexpr (kDeferred) flush_pending(p);
        for (int round = 0; round < 2 && book_.free_empty(p); ++round) {
          flush(p, try_advance(p));
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

  // The structure's linking CAS for p's in-flight node just succeeded.
  void commit(int p) {
    book_.commit(p);
    if constexpr (Book::kCrossProcess) locals_[p].phase = locals_[p].resume;
  }

  // Eager: stamps the node with the global epoch read *now* (one shared
  // read per retire), not with the retiring region's announced epoch: a
  // concurrent reader may have announced one epoch later than the retirer
  // and still hold a pre-unlink snapshot of this node, and the begin-time
  // stamp would let the node mature while that reader is active. With the
  // retire-time stamp g, every reader that can hold the node announced
  // a ≤ g, and the epoch cannot pass a+1 ≤ g+1 < g+2 while it is active.
  // The in-retire window around the stamp read is a crash marker: a victim
  // that dies there is re-recorded by its expropriator.
  //
  // Deferred: ZERO shared steps — the index lands in the book's deferred
  // ring; a full ring flushes the whole batch under one stamp read
  // (flush-time g' ≥ each retire-time g, so the grace period only
  // lengthens — strictly conservative) plus one amortized advance.
  void retire(int p, std::uint64_t idx) {
    book_.enter(p);
    const ReclaimPhase resume = locals_[p].phase;
    locals_[p].phase = ReclaimPhase::kMidRetire;
    if constexpr (kDeferred) {
      defer(p, idx);
    } else {
      book_.begin_retire(p, idx);
      book_.end_retire(p, idx, read_epoch());
      advance_after(p, 1);
    }
    locals_[p].phase = resume;
  }

  // Batch hand-off (the Reclaimer concept's batched verb): each staged
  // chunk is stamped under ONE global read — the whole batch is one chunk
  // unless the book bounds its staging window — then one amortized
  // advance+flush. In deferred mode the batch routes through the deferred
  // ring (flushing whenever it fills), so crash accounting is identical to
  // retire()'s.
  void retire_batch(int p, const std::uint64_t* idxs, std::size_t count) {
    book_.enter(p);
    if (count == 0) return;
    const ReclaimPhase resume = locals_[p].phase;
    locals_[p].phase = ReclaimPhase::kMidRetire;
    if constexpr (kDeferred) {
      for (std::size_t i = 0; i < count; ++i) defer(p, idxs[i]);
    } else {
      for (std::size_t done = 0; done < count;) {
        const std::size_t chunk = book_.stage(p, idxs + done, count - done);
        book_.record_staged(p, idxs + done, chunk, read_epoch());
        done += chunk;
      }
      advance_after(p, count);
    }
    locals_[p].phase = resume;
  }

  // Records p's deferred ring into limbo under one stamp read, then runs the
  // amortized advance+flush. The only shared step before the ring empties
  // is the stamp read itself, so a death at any shared step leaves the
  // batch either entirely in the ring (re-stamped by the expropriator) or
  // entirely in limbo (spliced as usual) — no half-recorded gap.
  void flush_pending(int p) {
    if (book_.deferred_count(p) == 0) return;
    book_.record_deferred(p, read_epoch());
    flush(p, try_advance(p));
  }

  // Attempts one epoch advance; returns the freshest global epoch known.
  // Advance succeeds only when every announcement is quiescent or current —
  // a single stale reader (announcement < e) vetoes it... unless the book
  // finds that reader dead, in which case the two-phase handshake runs and
  // a confirmed death is expropriated (its announcement written quiescent)
  // instead of vetoing. p is the advancing process (the splice
  // destination); p < 0 — the engine-side/test overload — never
  // expropriates (and never self-refreshes).
  //
  // Deferred mode: opens with Fence::heavy() — the advance IS the scan-
  // shaped heavy side (membarrier on FastAsymmetric; free elsewhere) that
  // makes every pending light announce visible before the scan below.
  std::uint64_t try_advance(int p = -1) {
    if constexpr (kDeferred) Fence::heavy();
    const std::uint64_t e = read_epoch();
    if constexpr (kDeferred) {
      // Self-refresh: the deferred end_op leaves p's announcement
      // published, so p's own cache would veto p's own advance forever.
      // try_advance(p) only runs outside p's regions (allocate and retire
      // are post-end_op by the structure contract), so re-announcing the
      // current epoch is safe — p holds no snapshots the old value
      // protected.
      if (p >= 0 && announce_.mirror(p, 0) != kQuiescent &&
          announce_.mirror(p, 0) != e) {
        announce_.write(p, 0, e);
        Fence::light();
      }
    }
    // Dead-lease sweep first — every dead-looking process, not just the
    // stale announcers: a process can die inside retire() *after* its
    // end_op (the structures retire post-region), with a quiescent
    // announcement but an orphaned in-retire node plus limbo and free
    // lists. Sweeping unconditionally drains those too; a confirmed death's
    // now-quiescent announcement then no longer vetoes the advance below.
    // The orphans' stamp is the epoch current at the seizure — at least the
    // epoch of the victim's unlink, so no reader that can hold an orphan
    // outlives its grace period. (The kNoRestamp lease mutant skips exactly
    // this.)
    if (p >= 0) {
      book_.sweep(p, [this, e](int q) {
        announce_.write(q, 0, kQuiescent);
        book_.restamp_orphans(q, global_.current(e));
      });
    }
    for (int q = 0; q < n_; ++q) {
      const std::uint64_t a = announce_.read(static_cast<std::size_t>(q));
      if (a == kQuiescent || a == e) continue;
      // Stale announcement by a live (or merely suspected) holder: veto.
      return e;
    }
    // CAS, not write: concurrent advancers must bump at most once from e.
    if (global_.cas(e, e + 1)) {
      global_.note(e + 1);
      return e + 1;
    }
    return e;
  }

  // Moves p's matured limbo nodes (stamped ≤ epoch − 2) to the free list.
  void flush(int p, std::uint64_t epoch) {
    book_.release(p, [epoch](std::uint64_t, std::uint64_t stamp) {
      return stamp + 2 <= epoch;
    });
  }

  // flush() against the current global epoch.
  void collect(int p) { flush(p, global_epoch()); }

  std::uint64_t global_epoch() { return global_.read(); }
  std::size_t pool_size() const { return book_.pool_size(); }
  std::size_t unreclaimed(int p) const { return book_.unreclaimed(p); }
  std::size_t free_count(int p) const { return book_.free_count(p); }
  std::size_t pending_count(int p) const { return book_.deferred_count(p); }

  // Engine-side observability (reclaimer.h). The epoch lag — how far the
  // freshest-known global epoch has left the oldest *active* announcement
  // behind — comes from the words' step-free peeks: with PrivateBook those
  // are the mirrors maintained at the write sites (reading the real
  // platform registers would cost shared steps and, on the simulator, could
  // only run on a simulated thread). The deferred cache hit updates no
  // mirror (the announcement did not change), so stats stay mirror-only
  // with no new shared steps. A lag that stays pinned at 0 while retires
  // accumulate is the signature of a frozen epoch: the stalled announcer IS
  // the current epoch's hostage. Note that in deferred mode an IDLE
  // process's parked announcement counts toward the lag — honest, because
  // it pins the epoch exactly like an active region until detach.
  ReclaimStats stats() const {
    ReclaimStats s = book_.stats();
    const std::uint64_t global = global_.peek();
    for (int q = 0; q < n_; ++q) {
      const std::uint64_t a = announce_.peek(q, 0);
      if (a != kQuiescent && global > a && global - a > s.epoch_lag) {
        s.epoch_lag = global - a;
      }
    }
    return s;
  }
  ReclaimPhase phase(int p) const { return locals_[p].phase; }

  // The state the simulator's signature key misses: the book (limbo stamps,
  // free-list order, deferred ring, crash bookkeeping), the announcement
  // mirrors, and each process's protocol position and advance counter
  // (which decides *when* the next amortized advance fires).
  std::uint64_t fingerprint() const {
    Fingerprint fp;
    book_.fingerprint_into(fp);
    global_.fingerprint_into(fp);
    announce_.fingerprint_into(fp);
    for (const Local& local : locals_) {
      fp.mix(static_cast<std::uint64_t>(local.phase));
      fp.mix(static_cast<std::uint64_t>(local.resume));
      fp.mix(local.retires_since_advance);
    }
    return fp.value();
  }

 private:
  static constexpr std::uint64_t kQuiescent = ~std::uint64_t{0};

  // A global-epoch read that also records the value as the freshest known
  // (stats only). begin_op's reads deliberately skip the record.
  std::uint64_t read_epoch() {
    const std::uint64_t e = global_.read();
    global_.note(e);
    return e;
  }

  // Deferred retire: into the book's ring, flushed once kRetireBatch wait.
  void defer(int p, std::uint64_t idx) {
    book_.defer(p, idx);
    if (book_.deferred_count(p) >= kRetireBatch) flush_pending(p);
  }

  // The amortized advance: every kAdvanceEvery retires by p pay one
  // advance attempt plus a flush.
  void advance_after(int p, std::size_t retired) {
    Local& local = locals_[p];
    local.retires_since_advance += retired;
    if (local.retires_since_advance >= kAdvanceEvery) {
      local.retires_since_advance = 0;
      flush(p, try_advance(p));
    }
  }

  // Process-local protocol state, one line per process: the phase for the
  // schedule-search engine (resume is what commit() restores), the advance
  // cadence, and the pressure-path throttle (heavy-advance platforms only):
  // g+1 of the epoch a starved advance round failed at (0 = not coasting),
  // and the starved allocates since. See allocate().
  struct alignas(util::kCacheLineSize) Local {
    ReclaimPhase phase = ReclaimPhase::kIdle;
    ReclaimPhase resume = ReclaimPhase::kIdle;
    std::size_t retires_since_advance = 0;
    std::uint64_t coast_epoch = 0;
    std::uint64_t coast_tries = 0;
  };

  int n_;
  Book book_;
  typename Book::Counter global_;
  typename Book::template Words<1> announce_;
  std::vector<Local> locals_;
};

// The deferred-announce instantiation under its own name (the reclaimer
// axis treats it as a sixth policy: same grace-period argument as epoch,
// different hot-path cost model — the guard-caching move applied to
// announcements).
template <Platform P>
using DeferredEpochReclaimer = EpochBasedReclaimer<P, DeferredAnnounce>;

}  // namespace aba::reclaim
