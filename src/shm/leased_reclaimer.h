// LeasedBook — the crash-robust cross-process bookkeeping backend of the
// two reclaimer cores (reclaim/hazard_pointer.h, reclaim/epoch.h): the same
// hazard scan and epoch advance/flush as the in-process tier, with every
// word and list in a shared arena and every process covered by a pid lease.
//
// The in-process book (reclaim/private_book.h) keeps retired/free lists in
// thread-private heap memory: correct across threads, but a SIGKILLed
// *process* takes its lists to the grave — every node it owned leaks
// forever and its published guards/announcements pin (hazard) or freeze
// (epoch) the survivors' reclamation permanently. LeasedBook moves all of
// that state into the segment:
//
//   links[pool]          — intrusive next-words; a node is on exactly one
//                          list (free, retired/limbo, or quarantine), so
//                          one word per node carries every list.
//   per-lease heads      — free_head[p], retired_head[p] (+ counters):
//                          single-owner lists. Only lease-holder p touches
//                          them while p is alive; after the pid-lease
//                          confirm CAS (pid_lease.h) exactly one survivor
//                          owns them instead and splices them into its own.
//   stamps[pool]         — retire stamps (the epoch family's; hazard
//                          leaves them 0), per node, so they travel with
//                          the nodes through a splice.
//   in_flight[p]         — take_free() records the node it is *about to*
//                          unlink from the free list before unlinking it,
//                          and commit(p) clears it after the structure's
//                          linking CAS. An expropriator that finds the
//                          marker set checks membership: still on the free
//                          list means the crash hit between intent and
//                          unlink (node is safe in the splice); otherwise
//                          the node may or may not be reachable from the
//                          structure — it is QUARANTINED, never freed, so a
//                          kill landing between the linking CAS and the
//                          bookkeeping store can never cause a double-free.
//                          Cost: at most one pool slot per crash. The window
//                          is first-class for the crash harnesses: the
//                          cores report ReclaimPhase::kMidAllocate there
//                          (kCrossProcess) and commit() parks at
//                          kParkInFlight before clearing the marker, so both
//                          the fork/SIGKILL harness and the model checker's
//                          crash grants can land a kill exactly between the
//                          linking CAS and the in_flight clear — the one
//                          window where the quarantine rule is load-bearing.
//   in_retire[p]         — the mirror marker around retire(): set (then a
//                          kParkMidRetire park point) before the node joins
//                          the retired list, cleared after. The
//                          expropriator re-homes a marked node that never
//                          made it onto the list.
//   pending[p][16]       — retire_batch's staging window: a chunk is
//                          recorded here (then the same park point) BEFORE
//                          any of it moves onto the retired list, so a kill
//                          mid-drain leaves every node either staged or
//                          already retired, never unlisted.
//   shared words         — hazard slots, epoch announcements and the global
//                          epoch (Words / Counter): arena atomics, seq_cst,
//                          so the fence pair is NoFence.
//
// Recovery bound: a death is suspected at the first survivor scan/advance
// that probes it and confirmed (then fully drained — words seized, orphans
// re-stamped, lists spliced, markers resolved, lease reaped) at the second,
// so every node a dead process owned is back in circulation within TWO
// survivor passes — except the at-most-one quarantined in-flight node,
// which is the price of never double-freeing. The epoch family additionally
// clears the dead process's frozen announcement, so the global epoch
// advances again and the spliced limbo drains by the normal two-advance
// rule.
//
// Suspicion is driven by BOTH liveness probes and heartbeat staleness: a
// sweep suspects a peer whose pid looks gone OR whose heartbeat has not
// moved across this sweeper's whole previous-to-current sweep interval
// (each sweeper remembers the last heartbeat it saw per peer). Staleness
// can only ever *suspect* — confirmation still requires the pid definitively
// gone AND the heartbeat unchanged since suspicion — so a live-but-slow
// process is vetoed back to kLive at its next entry point instead of being
// seized (the two-phase handshake in pid_lease.h). The staleness edge is
// what makes suspicion reachable on hosts where "gone" is rare or
// meaningless (the simulator, where a crashed process simply never runs
// again), and it is the decision the kStaleConfirm lease mutant removes.
//
// Host/Env templating: LeasedBook is templated over the platform Env and
// derives the lease-table type from Env::leases, so the same protocol code
// runs over the production shm arena, a plain heap arena
// (shm/lease_hosts.h, for single-process determinism tests), or the
// simulator's arena + SimPlatform-hosted lease table (sim/sim_lease.h, where
// the model checker searches the suspect/confirm/veto CASes as first-class
// steps). An Env may carry a `mutation` field (reclaim::LeaseMutation) — the
// test-only seam the lease-mutant zoo uses (kNoQuarantine in drain_dead,
// kNoRestamp in restamp_orphans); envs without the field get shipped
// behavior.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <vector>

#include "reclaim/death.h"
#include "reclaim/epoch.h"
#include "reclaim/hazard_pointer.h"
#include "reclaim/mutant.h"
#include "reclaim/private_book.h"
#include "reclaim/reclaimer.h"
#include "shm/pid_lease.h"
#include "shm/shm_platform.h"
#include "util/asymmetric_fence.h"
#include "util/assert.h"

namespace aba::shm {

namespace detail {

// The test-only mutation seam: an Env that carries a LeaseMutation opts in;
// every production Env (ShmPlatform::Env) has no such field and compiles
// straight to kNone.
template <class Env>
constexpr reclaim::LeaseMutation mutation_of(const Env& env) {
  if constexpr (requires { env.mutation; }) {
    return env.mutation;
  } else {
    return reclaim::LeaseMutation::kNone;
  }
}

// Arena-resident intrusive lists over one links[] array. Heads and links
// store index+1; 0 is the empty list / null. All operations are issued by
// the list's single owner (the lease holder, or the confirmed expropriator).
//
// Every traversal here is bounded by the pool size. A well-formed list can
// never hold more than `pool` nodes, so the caps cost nothing in the good
// case — but the link words live in the shared segment, and a peer that
// crashed mid-update (or a buggy peer) can leave a cycle behind. A survivor
// draining that peer's lists must terminate regardless; an unbounded walk
// over corrupt links would hang it inside crash recovery.
class NodeLists {
 public:
  template <class Arena>
  NodeLists(Arena& arena, const char* tag, std::size_t pool)
      : links_(arena.template place_array<std::atomic<std::uint64_t>>(tag,
                                                                      pool)),
        pool_(static_cast<std::uint64_t>(pool)) {}

  void push(std::atomic<std::uint64_t>& head, std::uint64_t idx) {
    links_[idx].store(head.load(std::memory_order_seq_cst),
                      std::memory_order_seq_cst);
    head.store(idx + 1, std::memory_order_seq_cst);
  }

  // Push for heads with MULTIPLE writers (the global quarantine: two
  // survivors confirming different victims push concurrently). The list is
  // push-only, so a CAS on the head is all the coordination needed.
  void push_shared(std::atomic<std::uint64_t>& head, std::uint64_t idx) {
    std::uint64_t h = head.load(std::memory_order_seq_cst);
    do {
      links_[idx].store(h, std::memory_order_seq_cst);
    } while (!head.compare_exchange_weak(h, idx + 1, std::memory_order_seq_cst,
                                         std::memory_order_seq_cst));
  }

  std::optional<std::uint64_t> pop(std::atomic<std::uint64_t>& head) {
    const std::uint64_t h = head.load(std::memory_order_seq_cst);
    if (h == 0) return std::nullopt;
    head.store(links_[h - 1].load(std::memory_order_seq_cst),
               std::memory_order_seq_cst);
    return h - 1;
  }

  bool contains(const std::atomic<std::uint64_t>& head,
                std::uint64_t idx) const {
    std::uint64_t steps = 0;
    for (std::uint64_t w = head.load(std::memory_order_seq_cst);
         w != 0 && steps <= pool_;
         w = links_[w - 1].load(std::memory_order_seq_cst), ++steps) {
      if (w - 1 == idx) return true;
    }
    return false;
  }

  // Moves every node of `from` onto `to`; returns how many moved. Bounded:
  // a corrupt `from` (cyclic links from a crashed peer) yields at most
  // `pool` moves instead of looping forever.
  std::uint64_t splice(std::atomic<std::uint64_t>& from,
                       std::atomic<std::uint64_t>& to) {
    std::uint64_t moved = 0;
    while (moved < pool_) {
      auto idx = pop(from);
      if (!idx) break;
      push(to, *idx);
      ++moved;
    }
    return moved;
  }

  void fingerprint_into(std::size_t pool, reclaim::Fingerprint& fp) const {
    fp.mix(static_cast<std::uint64_t>(pool));
    for (std::size_t i = 0; i < pool; ++i) {
      fp.mix(links_[i].load(std::memory_order_seq_cst));
    }
  }

 private:
  std::atomic<std::uint64_t>* links_;
  std::uint64_t pool_;
};

}  // namespace detail

template <class EnvT>
class LeasedBook {
 public:
  using Env = EnvT;
  using Leases = std::remove_pointer_t<decltype(Env::leases)>;
  using Fence = util::NoFence;  // Every arena access is seq_cst.
  static constexpr bool kCrossProcess = true;
  // Bound on one staged retire_batch chunk — and so on the nodes that can
  // be parked in a dead process's window.
  static constexpr std::size_t kPendingCap = 16;

  // n processes × k single-writer arena words, placed as one array. The
  // mirror is what THIS process last wrote: exact for its own words only —
  // a victim's mirror died with it, so seizing a victim's word always
  // stores.
  template <int k>
  class Words {
   public:
    Words(Env& env, const char* name, int n, std::uint64_t initial)
        : size_(static_cast<std::size_t>(n) * k),
          words_(env.arena->template place_array<std::atomic<std::uint64_t>>(
              name, size_)),
          mirrors_(size_, initial) {
      if (env.owner) {
        for (std::size_t i = 0; i < size_; ++i) {
          words_[i].store(initial, std::memory_order_relaxed);
        }
      }
    }

    std::size_t size() const { return size_; }
    std::uint64_t read(std::size_t flat) {
      return words_[flat].load(std::memory_order_seq_cst);
    }
    void write(int p, int i, std::uint64_t v) {
      words_[at(p, i)].store(v, std::memory_order_seq_cst);
      mirrors_[at(p, i)] = v;
    }
    std::uint64_t mirror(int p, int i) const { return mirrors_[at(p, i)]; }
    std::uint64_t peek(int p, int i) const {
      return words_[at(p, i)].load(std::memory_order_seq_cst);
    }
    void clear_if_set(int p, int i, std::uint64_t v) {
      words_[at(p, i)].store(v, std::memory_order_seq_cst);
    }
    // The words are plain process atomics, outside the simulator's
    // signature: fold them in with the mirrors.
    void fingerprint_into(reclaim::Fingerprint& fp) const {
      for (std::size_t i = 0; i < size_; ++i) {
        fp.mix(words_[i].load(std::memory_order_seq_cst));
      }
      fp.mix_range(mirrors_);
    }

   private:
    static std::size_t at(int p, int i) {
      return static_cast<std::size_t>(p) * k + static_cast<std::size_t>(i);
    }
    std::size_t size_;
    std::atomic<std::uint64_t>* words_;
    std::vector<std::uint64_t> mirrors_;
  };

  // The global epoch: one arena word, counting from 1 — 0 is what a
  // zero-filled stamp reads, so no real stamp is ever mistaken for "never
  // stamped".
  class Counter {
   public:
    Counter(Env& env, const char* name)
        : word_(env.arena->template place<std::atomic<std::uint64_t>>(name)) {
      if (env.owner) word_->store(1, std::memory_order_relaxed);
    }
    std::uint64_t read() { return word_->load(std::memory_order_seq_cst); }
    bool cas(std::uint64_t e, std::uint64_t d) {
      return word_->compare_exchange_strong(e, d, std::memory_order_seq_cst,
                                            std::memory_order_seq_cst);
    }
    void note(std::uint64_t /*v*/) {}
    // The epoch now: a sweep interleaves lease steps, during which the
    // epoch may have moved past the advance's e — re-read.
    std::uint64_t current(std::uint64_t /*e*/) const { return peek(); }
    std::uint64_t peek() const {
      return word_->load(std::memory_order_seq_cst);
    }
    void fingerprint_into(reclaim::Fingerprint& fp) const { fp.mix(peek()); }

   private:
    std::atomic<std::uint64_t>* word_;
  };

  // Places (creator) or binds (attacher) the book in one deterministic
  // burst, so creator and attachers agree on offsets.
  LeasedBook(Env& env, int n, const reclaim::FreeLists& initial)
      : leases_(env.leases),
        n_(n),
        pool_(pool_of(initial)),
        lists_(*env.arena, "book.links", pool_),
        mutation_(detail::mutation_of(env)),
        hb_seen_(static_cast<std::size_t>(n) * static_cast<std::size_t>(n),
                 0) {
    ABA_CHECK_MSG(leases_ != nullptr,
                  "leased reclaimers need Env::leases (a pid-lease table)");
    ABA_CHECK(leases_->max_procs() >= n);
    auto& a = *env.arena;
    const auto count = static_cast<std::size_t>(n);
    const auto array = [&a, count](const char* tag, std::size_t per = 1) {
      return a.template place_array<std::atomic<std::uint64_t>>(tag,
                                                                 count * per);
    };
    free_head_ = array("book.free_head");
    free_count_ = array("book.free_count");
    retired_head_ = array("book.retired_head");
    retired_count_ = array("book.retired_count");
    in_flight_ = array("book.in_flight");
    in_retire_ = array("book.in_retire");
    pending_ = array("book.pending", kPendingCap);
    pending_count_ = array("book.pending_count");
    quarantine_head_ =
        a.template place<std::atomic<std::uint64_t>>("book.quarantine_head");
    quarantine_count_ =
        a.template place<std::atomic<std::uint64_t>>("book.quarantine_count");
    expropriations_ =
        a.template place<std::atomic<std::uint64_t>>("book.expropriations");
    stamps_ = a.template place_array<std::atomic<std::uint64_t>>(
        "book.stamps", pool_);
    if (env.owner) {
      for (int p = 0; p < n; ++p) {
        for (const std::uint64_t idx : initial[static_cast<std::size_t>(p)]) {
          push_free(p, idx);
        }
      }
    }
  }

  // ---- death: the pid-lease hooks

  void enter(int p) {
    leases_->self_check(p);
    leases_->beat(p);
  }
  // Re-validates after a park point: a process expropriated while parked
  // (the simulated-kill rendezvous) must self-fence here instead of
  // touching lists that now belong to the expropriator.
  void recheck(int p) { leases_->self_check(p); }
  void park(int p, std::uint64_t point) { leases_->maybe_park(p, point); }

  // The survivor side of the handshake over the pid-lease table: suspect a
  // dead-looking (or heartbeat-stale) lease on one visit, confirm —
  // re-probing liveness — on a later one; the confirm winner seizes the
  // victim's words (the family's part), drains its lists, and reaps the
  // lease.
  template <class Seize>
  void sweep(int p, Seize&& seize) {
    for (int q = 0; q < n_; ++q) {
      if (q == p || !leases_->is_held(q)) continue;
      if (leases_->advance_death(q, stale_for(p, q)) ==
          reclaim::DeathStep::kConfirmed) {
        seize(q);
        drain_dead(p, q);
        leases_->reap(q);
      }
    }
  }

  // ---- free list and the in-flight window

  bool free_empty(int p) const {
    return free_head_[p].load(std::memory_order_seq_cst) == 0;
  }

  // The crash-safe pop: intent marker BEFORE the unlink.
  std::optional<std::uint64_t> take_free(int p) {
    const std::uint64_t h = free_head_[p].load(std::memory_order_seq_cst);
    if (h == 0) return std::nullopt;
    in_flight_[p].store(h, std::memory_order_seq_cst);
    auto popped = lists_.pop(free_head_[p]);
    free_count_[p].fetch_sub(1, std::memory_order_relaxed);
    return popped;
  }

  // Park BEFORE the marker clear: the node is (possibly) linked and still
  // marked — the exact instant the quarantine rule exists for, and the
  // instant the crash harnesses want to land a kill on.
  void commit(int p) {
    park(p, kParkInFlight);
    in_flight_[p].store(0, std::memory_order_seq_cst);
  }

  // ---- retire windows

  void begin_retire(int p, std::uint64_t idx) {
    in_retire_[p].store(idx + 1, std::memory_order_seq_cst);
    park(p, kParkMidRetire);
    recheck(p);
  }
  void end_retire(int p, std::uint64_t idx, std::uint64_t stamp) {
    push_retired(p, idx, stamp);
    in_retire_[p].store(0, std::memory_order_seq_cst);
  }

  // Stages up to kPendingCap of the batch in p's pending window — the
  // crash-safe point of record — then parks; returns the chunk size.
  std::size_t stage(int p, const std::uint64_t* idxs, std::size_t count) {
    const std::size_t chunk = std::min(count, kPendingCap);
    for (std::size_t i = 0; i < chunk; ++i) {
      pending_slot(p, i).store(idxs[i] + 1, std::memory_order_seq_cst);
    }
    pending_count_[p].store(chunk, std::memory_order_seq_cst);
    park(p, kParkMidRetire);
    recheck(p);
    return chunk;
  }
  // Each staged node reaches the retired list, then its slot clears so a
  // later sweep cannot double-record it.
  void record_staged(int p, const std::uint64_t* idxs, std::size_t chunk,
                     std::uint64_t stamp) {
    for (std::size_t i = 0; i < chunk; ++i) {
      push_retired(p, idxs[i], stamp);
      pending_slot(p, i).store(0, std::memory_order_seq_cst);
    }
    pending_count_[p].store(0, std::memory_order_seq_cst);
  }

  // Pops every retiree, frees the ones `reclaimable(index, stamp)` accepts
  // and pushes the rest back. Bounded by the pool: after an expropriation
  // this may be walking a list the victim was mutating when it died — it
  // must terminate even if the links are cyclic.
  template <class Pred>
  void release(int p, Pred&& reclaimable) {
    std::vector<std::uint64_t> keep;
    for (std::size_t seen = 0; seen < pool_; ++seen) {
      auto idx = lists_.pop(retired_head_[p]);
      if (!idx) break;
      if (reclaimable(*idx, stamp_of(*idx))) {
        push_free(p, *idx);
        retired_count_[p].fetch_sub(1, std::memory_order_relaxed);
      } else {
        keep.push_back(*idx);
      }
    }
    for (const std::uint64_t idx : keep) lists_.push(retired_head_[p], idx);
  }

  // A victim killed inside retire() can leave in_retire set with the node's
  // stamp never written (the stamp read follows the mid-retire park point),
  // and one killed mid-retire_batch leaves its staged window unstamped — a
  // stale/zero stamp would pass the two-epoch grace test immediately,
  // freeing a node that readers announced in earlier epochs may still
  // hold. Re-stamp every orphan before drain_dead re-homes it, so it waits
  // a full grace period like any other retiree. The kNoRestamp lease mutant
  // removes exactly this decision.
  void restamp_orphans(int q, std::uint64_t stamp) {
    if (mutation_ == reclaim::LeaseMutation::kNoRestamp) return;
    const std::uint64_t mr = in_retire_[q].load(std::memory_order_seq_cst);
    if (mr != 0) stamps_[mr - 1].store(stamp, std::memory_order_seq_cst);
    for (std::size_t i = 0; i < staged(q); ++i) {
      const std::uint64_t w = pending_slot(q, i).load(std::memory_order_seq_cst);
      if (w != 0) stamps_[w - 1].store(stamp, std::memory_order_seq_cst);
    }
  }

  // ---- observability

  std::size_t pool_size() const { return pool_; }
  std::size_t unreclaimed(int p) const {
    return static_cast<std::size_t>(
        retired_count_[p].load(std::memory_order_relaxed));
  }
  std::size_t free_count(int p) const {
    return static_cast<std::size_t>(
        free_count_[p].load(std::memory_order_relaxed));
  }

  reclaim::ReclaimStats stats() const {
    reclaim::ReclaimStats s;
    s.pool_size = pool_;
    for (int p = 0; p < n_; ++p) {
      s.retired_unreclaimed += unreclaimed(p);
      s.free_nodes += free_count(p);
      if (in_flight_[p].load(std::memory_order_relaxed) != 0) ++s.in_flight;
    }
    s.quarantined = static_cast<std::size_t>(
        quarantine_count_->load(std::memory_order_relaxed));
    s.expropriations = static_cast<std::size_t>(
        expropriations_->load(std::memory_order_relaxed));
    return s;
  }

  // Every book word that decides future allocations, scans and drains, the
  // per-peer heartbeat history and the lease table's own host words —
  // folded into the reclaimer fingerprint so the model checker's DPOR state
  // key can never merge two configurations whose reclamation futures
  // differ. All plain-atomic reads: safe from the engine thread.
  void fingerprint_into(reclaim::Fingerprint& fp) const {
    lists_.fingerprint_into(pool_, fp);
    for (int p = 0; p < n_; ++p) {
      fp.mix(free_head_[p].load(std::memory_order_seq_cst));
      fp.mix(free_count_[p].load(std::memory_order_seq_cst));
      fp.mix(retired_head_[p].load(std::memory_order_seq_cst));
      fp.mix(retired_count_[p].load(std::memory_order_seq_cst));
      fp.mix(in_flight_[p].load(std::memory_order_seq_cst));
      fp.mix(in_retire_[p].load(std::memory_order_seq_cst));
      fp.mix(pending_count_[p].load(std::memory_order_seq_cst));
      for (std::size_t i = 0; i < kPendingCap; ++i) {
        fp.mix(pending_slot(p, i).load(std::memory_order_seq_cst));
      }
    }
    fp.mix(quarantine_head_->load(std::memory_order_seq_cst));
    fp.mix(quarantine_count_->load(std::memory_order_seq_cst));
    fp.mix(expropriations_->load(std::memory_order_seq_cst));
    for (std::size_t i = 0; i < pool_; ++i) fp.mix(stamp_of(i));
    fp.mix_range(hb_seen_);
    fp.mix(leases_->fingerprint());
  }

 private:
  // The pool spans every index the structure may hand to retire(), not just
  // the initially-free ones — MsQueue's dummy node starts on no free list
  // but is retired (and must have a links/stamps entry) once dequeued
  // past. Size by the highest index, so links[idx] can never alias the
  // next arena placement.
  static std::size_t pool_of(const reclaim::FreeLists& initial) {
    std::size_t pool = 0;
    for (const auto& list : initial) {
      for (const std::uint64_t idx : list) {
        pool = std::max(pool, static_cast<std::size_t>(idx) + 1);
      }
    }
    return pool;
  }

  std::atomic<std::uint64_t>& pending_slot(int p, std::size_t i) const {
    return pending_[static_cast<std::size_t>(p) * kPendingCap + i];
  }
  std::size_t staged(int q) const {
    const std::uint64_t pc = pending_count_[q].load(std::memory_order_seq_cst);
    return pc < kPendingCap ? static_cast<std::size_t>(pc) : kPendingCap;
  }
  std::uint64_t stamp_of(std::uint64_t idx) const {
    return stamps_[idx].load(std::memory_order_seq_cst);
  }

  void push_free(int p, std::uint64_t idx) {
    lists_.push(free_head_[p], idx);
    free_count_[p].fetch_add(1, std::memory_order_relaxed);
  }
  void push_retired(int p, std::uint64_t idx, std::uint64_t stamp) {
    stamps_[idx].store(stamp, std::memory_order_seq_cst);
    lists_.push(retired_head_[p], idx);
    retired_count_[p].fetch_add(1, std::memory_order_relaxed);
  }
  // Re-homes a node q unlinked but may never have listed: the contains()
  // probe filters the one the crash caught between the list push and the
  // marker clear.
  void rehome(int q, std::uint64_t idx) {
    if (lists_.contains(retired_head_[q], idx)) return;
    lists_.push(retired_head_[q], idx);
    retired_count_[q].fetch_add(1, std::memory_order_relaxed);
  }

  // Heartbeat staleness: p remembers the last heartbeat it saw per peer; a
  // peer whose heartbeat has not moved since p's previous sweep is
  // suspected (never confirmed) on staleness alone. See the file comment.
  bool stale_for(int p, int q) {
    const std::size_t at =
        static_cast<std::size_t>(p) * static_cast<std::size_t>(n_) +
        static_cast<std::size_t>(q);
    const std::uint64_t hb = leases_->heartbeat(q);
    const bool stale = hb_seen_[at] != 0 && hb_seen_[at] == hb;
    hb_seen_[at] = hb;
    return stale;
  }

  // Resolves a dead q's crash markers and splices its lists into p's.
  // Caller (the confirm winner) has exclusive ownership of q.
  void drain_dead(int p, int q) {
    // Half-finished retire / retire_batch: the marked node and every
    // still-set staged slot were unlinked by q but may never have reached
    // its retired list. Bounded work: at most kPendingCap + 1 probes.
    const std::uint64_t mr = in_retire_[q].load(std::memory_order_seq_cst);
    if (mr != 0) {
      rehome(q, mr - 1);
      in_retire_[q].store(0, std::memory_order_seq_cst);
    }
    for (std::size_t i = 0; i < staged(q); ++i) {
      auto& slot = pending_slot(q, i);
      const std::uint64_t w = slot.load(std::memory_order_seq_cst);
      if (w != 0) {
        rehome(q, w - 1);
        slot.store(0, std::memory_order_seq_cst);
      }
    }
    pending_count_[q].store(0, std::memory_order_seq_cst);
    // Half-finished allocate: still on the free list means the crash hit
    // between intent and unlink (the splice below recovers it); otherwise
    // the node may be linked into the structure — quarantine, never free.
    const std::uint64_t mf = in_flight_[q].load(std::memory_order_seq_cst);
    if (mf != 0) {
      if (!lists_.contains(free_head_[q], mf - 1)) {
        if (mutation_ == reclaim::LeaseMutation::kNoQuarantine) {
          // The mutant: put the ambiguous node straight back into
          // circulation. If the kill landed after the linking CAS the node
          // is still reachable from the structure — reallocating it is the
          // double-free the quarantine exists to prevent.
          push_free(q, mf - 1);
        } else {
          // The quarantine head is the one list with concurrent pushers
          // (confirm winners of *different* victims), so it takes the CAS
          // push, not the single-owner one.
          lists_.push_shared(*quarantine_head_, mf - 1);
          quarantine_count_->fetch_add(1, std::memory_order_relaxed);
        }
      }
      in_flight_[q].store(0, std::memory_order_seq_cst);
    }
    const std::uint64_t moved_retired =
        lists_.splice(retired_head_[q], retired_head_[p]);
    retired_count_[q].store(0, std::memory_order_relaxed);
    retired_count_[p].fetch_add(moved_retired, std::memory_order_relaxed);
    const std::uint64_t moved_free = lists_.splice(free_head_[q], free_head_[p]);
    free_count_[q].store(0, std::memory_order_relaxed);
    free_count_[p].fetch_add(moved_free, std::memory_order_relaxed);
    expropriations_->fetch_add(1, std::memory_order_relaxed);
  }

  Leases* leases_;
  int n_;
  std::size_t pool_;
  detail::NodeLists lists_;
  reclaim::LeaseMutation mutation_;
  std::atomic<std::uint64_t>* free_head_;      // [n]
  std::atomic<std::uint64_t>* free_count_;     // [n]
  std::atomic<std::uint64_t>* retired_head_;   // [n]
  std::atomic<std::uint64_t>* retired_count_;  // [n]
  std::atomic<std::uint64_t>* in_flight_;      // [n], idx+1 or 0.
  std::atomic<std::uint64_t>* in_retire_;      // [n], idx+1 or 0.
  std::atomic<std::uint64_t>* pending_;        // [n * kPendingCap], idx+1.
  std::atomic<std::uint64_t>* pending_count_;  // [n], staged chunk size.
  std::atomic<std::uint64_t>* quarantine_head_;
  std::atomic<std::uint64_t>* quarantine_count_;
  std::atomic<std::uint64_t>* expropriations_;
  std::atomic<std::uint64_t>* stamps_;         // [pool], retire stamps.
  std::vector<std::uint64_t> hb_seen_;  // [n*n]: last heartbeat p saw of q.
};

// The two reclaimer cores over the leased book, per Env: the production
// shm Env, the heap/thread host (lease_hosts.h) or the simulator host
// (sim/sim_lease.h). The platform argument is nominal — the book supplies
// every word.
template <class Env, class Mode = reclaim::EagerGuards>
using LeasedHazard =
    reclaim::HazardPointerReclaimer<ShmPlatform, Mode, LeasedBook<Env>>;
template <class Env>
using LeasedEpoch = reclaim::EpochBasedReclaimer<ShmPlatform,
                                                 reclaim::EagerAnnounce, 0,
                                                 LeasedBook<Env>>;

using LeasedHazardReclaimer = LeasedHazard<ShmPlatform::Env>;
using LeasedCachedHazardReclaimer =
    LeasedHazard<ShmPlatform::Env, reclaim::CachedGuards>;
using LeasedEpochReclaimer = LeasedEpoch<ShmPlatform::Env>;

static_assert(reclaim::ReclaimerFor<LeasedHazardReclaimer, ShmPlatform>);
static_assert(reclaim::ReclaimerFor<LeasedCachedHazardReclaimer, ShmPlatform>);
static_assert(reclaim::ReclaimerFor<LeasedEpochReclaimer, ShmPlatform>);

}  // namespace aba::shm
