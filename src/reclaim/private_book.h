// PrivateBook — the in-process bookkeeping backend of the two reclaimer
// cores (reclaim/hazard_pointer.h, reclaim/epoch.h).
//
// Each reclaimer family is ONE protocol — the hazard scan, the epoch
// announce/advance/flush — written against a Book that owns everything the
// deployment tiers store or detect differently:
//
//   shared words   Words (per-process arrays of single-writer registers:
//                  hazard slots, epoch announcements, each with a
//                  process-local mirror of what its writer last stored) and
//                  Counter (the global epoch), plus the Fence pair that
//                  goes with them;
//   lists          per-process free and retired lists; a retiree carries
//                  its epoch stamp (the hazard family leaves it 0);
//   crash markers  the in-flight allocation, the in-retire node, the staged
//                  retire batch, and the quarantine;
//   death          enter/recheck self-checks, park points, and sweep — the
//                  two-phase suspect/confirm handshake whose confirm winner
//                  seizes the victim's words (the family's part) and drains
//                  its lists (the book's part).
//
// The interface both cores program against:
//
//   Book(Env&, int n, FreeLists)
//   enter(p) recheck(p) park(p, point) sweep(p, seize)       death
//   free_empty(p) take_free(p) commit(p)                     in-flight window
//   begin_retire(p, idx) end_retire(p, idx, stamp)           in-retire window
//   stage(p, idxs, count) -> chunk
//   record_staged(p, idxs, chunk, stamp)                     retire_batch window
//   release(p, reclaimable)                                  retired -> free
//   restamp_orphans(q, stamp)                                epoch seizure
//   pool_size() unreclaimed(p) free_count(p) stats() fingerprint_into(fp)
//   kCrossProcess — the crash windows are instrumented park points, so
//                   allocate reports ReclaimPhase::kMidAllocate until commit
//
// PrivateBook keeps all of it inside one process: the shared words are
// Platform objects (every access a simulator step or a counted native
// access), the free and retired lists are thread-private rings
// (util/fifo_ring.h), and death is a DeathOracle plus a per-process death
// word (reclaim/death.h). With no oracle installed every death path is inert
// and the cores run the classic protocols step for step. It also owns the
// deferred-epoch retire batch (defer / record_deferred, a per-process
// vector), which only the in-process tier instantiates. The cross-process
// backend is shm::LeasedBook (shm/leased_reclaimer.h).
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <vector>

#include "core/platform.h"
#include "reclaim/death.h"
#include "reclaim/reclaimer.h"
#include "util/assert.h"
#include "util/cacheline.h"
#include "util/fifo_ring.h"
#include "util/object_array.h"

namespace aba::reclaim {

// A retiree and the global epoch it was stamped with (0 for hazard).
struct Retired {
  std::uint64_t index;
  std::uint64_t stamp;
};

template <Platform P>
class PrivateBook {
 public:
  using Env = typename P::Env;
  using Fence = PlatformFenceT<P>;
  static constexpr bool kCrossProcess = false;

  // n processes × k single-writer registers. The mirror of (p, i) is what p
  // last wrote there — exact for every process, victims included, because
  // they are all threads of this one.
  template <int k>
  class Words {
   public:
    // One contiguous array; the native Fast policy pads each word to its
    // own cache line, so neighbouring processes' words never false-share.
    Words(Env& env, const char* name, int n, std::uint64_t initial)
        : words_(static_cast<std::size_t>(n) * k,
                 [&](std::size_t) {
                   return typename P::Register(env, name, initial,
                                               sim::BoundSpec::unbounded());
                 }),
          mirrors_(static_cast<std::size_t>(n)) {
      for (auto& m : mirrors_) m.value.fill(initial);
    }

    std::size_t size() const { return words_.size(); }
    std::uint64_t read(std::size_t flat) { return words_[flat].read(); }
    void write(int p, int i, std::uint64_t v) {
      words_[at(p, i)].write(v);
      mirrors_[p].value[i] = v;
    }
    std::uint64_t mirror(int p, int i) const { return mirrors_[p].value[i]; }
    // Engine-side view for stats: the mirror (reading the register would be
    // a step).
    std::uint64_t peek(int p, int i) const { return mirror(p, i); }
    // Resets a confirmed-dead process's word unless its mirror proves the
    // word already holds `v`.
    void clear_if_set(int p, int i, std::uint64_t v) {
      if (mirror(p, i) != v) write(p, i, v);
    }
    void fingerprint_into(Fingerprint& fp) const {
      for (const auto& m : mirrors_) fp.mix_range(m.value);
    }

   private:
    static std::size_t at(int p, int i) {
      return static_cast<std::size_t>(p) * k + static_cast<std::size_t>(i);
    }
    // One line per process: the mirror is consulted on every guard/announce.
    struct alignas(util::kCacheLineSize) Mirror {
      std::array<std::uint64_t, k> value{};
    };
    util::ObjectArray<typename P::Register> words_;
    std::vector<Mirror> mirrors_;
  };

  // The global epoch, counting from 0. note() records the freshest value a
  // process observed, relaxed because it only feeds stats (peek), never the
  // protocol.
  class Counter {
   public:
    Counter(Env& env, const char* name)
        : word_(env, name, 0, sim::BoundSpec::unbounded()) {}
    std::uint64_t read() { return word_.read(); }
    bool cas(std::uint64_t e, std::uint64_t d) { return word_.cas(e, d); }
    void note(std::uint64_t v) { noted_.store(v, std::memory_order_relaxed); }
    // The epoch now, given e read at the start of the current advance: a
    // sweep here takes no steps, so e is still current.
    std::uint64_t current(std::uint64_t e) const { return e; }
    std::uint64_t peek() const { return noted_.load(std::memory_order_relaxed); }
    void fingerprint_into(Fingerprint&) const {}

   private:
    typename P::WritableCas word_;
    std::atomic<std::uint64_t> noted_{0};
  };

  PrivateBook(Env& /*env*/, int n, FreeLists initial)
      : n_(n), procs_(static_cast<std::size_t>(n)) {
    ABA_CHECK(static_cast<int>(initial.size()) == n);
    for (int p = 0; p < n; ++p) {
      procs_[p].free = std::move(initial[p]);
      pool_size_ += procs_[p].free.size();
    }
  }

  // Installs the liveness oracle that arms sweep(). Not a transfer of
  // ownership; pass nullptr to disarm. Call before any process operates.
  void set_death_oracle(const DeathOracle* oracle) { oracle_ = oracle; }

  // ---- death

  void enter(int p) { death_self_check(procs_[p].death); }
  void recheck(int /*p*/) {}
  void park(int /*p*/, std::uint64_t /*point*/) {}

  // Every dead-looking peer advances one phase of the handshake; a confirm
  // winner calls seize(q) — the family clears q's shared words — and then
  // owns q's lists, which drain into p's. No shared steps of its own: with
  // no oracle (or no deaths) the schedule is untouched.
  template <class Seize>
  void sweep(int p, Seize&& seize) {
    if (oracle_ == nullptr) return;
    for (int q = 0; q < n_; ++q) {
      if (q == p || !oracle_->is_dead(q)) continue;
      if (advance_death(procs_[q].death) == DeathStep::kConfirmed) {
        seize(q);
        drain(p, q);
      }
    }
  }

  // ---- free list and the in-flight window

  bool free_empty(int p) const { return procs_[p].free.empty(); }

  // Pops p's next free node and marks it in flight: if p dies before its
  // linking CAS commits, an expropriator quarantines the node instead of
  // freeing it.
  std::optional<std::uint64_t> take_free(int p) {
    auto& proc = procs_[p];
    if (proc.free.empty()) return std::nullopt;
    const std::uint64_t idx = proc.free.front();
    proc.free.pop_front();
    proc.in_flight = idx + 1;
    return idx;
  }

  void commit(int p) { procs_[p].in_flight = 0; }

  // ---- retire windows

  // In-retire marker: set while idx is unlinked but on no list yet.
  void begin_retire(int p, std::uint64_t idx) {
    procs_[p].in_retire = idx + 1;
  }
  void end_retire(int p, std::uint64_t idx, std::uint64_t stamp) {
    procs_[p].retired.push_back(Retired{idx, stamp});
    procs_[p].in_retire = 0;
  }

  // A batch needs no staging here: nothing but the caller's stamp read
  // separates the call from the record, so the whole batch is one chunk.
  std::size_t stage(int /*p*/, const std::uint64_t* /*idxs*/,
                    std::size_t count) {
    return count;
  }
  void record_staged(int p, const std::uint64_t* idxs, std::size_t count,
                     std::uint64_t stamp) {
    for (std::size_t i = 0; i < count; ++i) {
      procs_[p].retired.push_back(Retired{idxs[i], stamp});
    }
  }

  // The deferred-epoch retire batch: unlinked, unstamped indices awaiting a
  // one-shot record.
  void defer(int p, std::uint64_t idx) { procs_[p].deferred.push_back(idx); }
  std::size_t deferred_count(int p) const { return procs_[p].deferred.size(); }
  void record_deferred(int p, std::uint64_t stamp) {
    auto& proc = procs_[p];
    for (const std::uint64_t idx : proc.deferred) {
      proc.retired.push_back(Retired{idx, stamp});
    }
    proc.deferred.clear();
  }

  // Moves every retiree `reclaimable(index, stamp)` accepts to p's free
  // list, keeping the rest in order: one front-to-back rotation of the
  // retired ring.
  template <class Pred>
  void release(int p, Pred&& reclaimable) {
    auto& proc = procs_[p];
    for (std::size_t left = proc.retired.size(); left > 0; --left) {
      const Retired r = proc.retired.front();
      proc.retired.pop_front();
      if (reclaimable(r.index, r.stamp)) {
        proc.free.push_back(r.index);
      } else {
        proc.retired.push_back(r);
      }
    }
  }

  // A seized victim's unrecorded retirees — its in-retire node (unless the
  // push landed) and its deferred ring — join its retired list stamped
  // `stamp`, a full fresh grace period. `stamp` is the maximum stamp in
  // flight, so appending keeps the list stamp-sorted. Bounded garbage: at
  // most one ring per crash.
  void restamp_orphans(int q, std::uint64_t stamp) {
    auto& victim = procs_[q];
    if (victim.in_retire != 0) {
      const std::uint64_t idx = victim.in_retire - 1;
      const bool listed = std::any_of(
          victim.retired.begin(), victim.retired.end(),
          [idx](const Retired& r) { return r.index == idx; });
      if (!listed) victim.retired.push_back(Retired{idx, stamp});
      victim.in_retire = 0;
    }
    record_deferred(q, stamp);
  }

  // ---- observability

  std::size_t pool_size() const { return pool_size_; }
  std::size_t unreclaimed(int p) const {
    return procs_[p].retired.size() + procs_[p].deferred.size();
  }
  std::size_t free_count(int p) const { return procs_[p].free.size(); }

  // in_retire is deliberately NOT folded into retired_unreclaimed: the
  // committed schedule corpus's golden peaks sample stats while a process
  // is parked inside retire, where the marker is transiently set.
  // Conservation tests account for it explicitly.
  ReclaimStats stats() const {
    ReclaimStats s;
    s.pool_size = pool_size_;
    for (const auto& proc : procs_) {
      s.retired_unreclaimed += proc.retired.size() + proc.deferred.size();
      s.free_nodes += proc.free.size();
      s.quarantined += proc.quarantine.size();
      if (proc.in_flight != 0) ++s.in_flight;
      s.expropriations += proc.expropriations;
    }
    return s;
  }

  // The thread-private state the simulator's signature misses: free-list
  // order and retired stamps decide what future allocations and releases
  // move, the ring what the next record stamps, and the crash bookkeeping
  // what an expropriator would drain.
  void fingerprint_into(Fingerprint& fp) const {
    for (const auto& proc : procs_) {
      fp.mix_range(proc.free);
      fp.mix(proc.retired.size());
      for (const Retired& r : proc.retired) fp.mix(r.index).mix(r.stamp);
      fp.mix(proc.deferred.size());
      for (const std::uint64_t idx : proc.deferred) fp.mix(idx);
      fp.mix(proc.in_flight);
      fp.mix(proc.in_retire);
      fp.mix_range(proc.quarantine);
      fp.mix(proc.expropriations);
      fp.mix(proc.death.load(std::memory_order_relaxed));
    }
  }

 private:
  // Thread-private bookkeeping, one cache line per process: the container
  // headers touched on every allocate/retire never false-share.
  struct alignas(util::kCacheLineSize) Proc {
    IndexList free;
    util::FifoRing<Retired> retired;
    std::vector<std::uint64_t> deferred;
    // Crash markers (reclaim/death.h), both stored +1: the allocated-but-
    // unlinked node and the unlinked-but-unrecorded retiree. quarantine
    // holds nodes this process quarantined from victims it expropriated;
    // death is its word in the suspect/confirm handshake — the one field
    // other processes write.
    std::uint64_t in_flight = 0;
    std::uint64_t in_retire = 0;
    std::vector<std::uint64_t> quarantine;
    std::size_t expropriations = 0;
    std::atomic<std::uint8_t> death{kDeathLive};
  };

  // p won the confirm CAS on q's death word: q's (orphaned, now
  // exclusively-owned) bookkeeping splices into p's. Both retired lists are
  // stamp-sorted; the merge keeps them so. No in-retire marker is left by
  // now: the epoch family's seizure re-records it (restamp_orphans), and the
  // hazard family takes no shared step while it is set.
  void drain(int p, int q) {
    auto& victim = procs_[q];
    auto& mine = procs_[p];
    util::FifoRing<Retired> merged;
    std::merge(mine.retired.begin(), mine.retired.end(),
               victim.retired.begin(), victim.retired.end(),
               std::back_inserter(merged),
               [](const Retired& a, const Retired& b) {
                 return a.stamp < b.stamp;
               });
    mine.retired = std::move(merged);
    victim.retired.clear();
    while (!victim.free.empty()) {
      mine.free.push_back(victim.free.front());
      victim.free.pop_front();
    }
    if (victim.in_flight != 0) {
      // Possibly linked by a CAS whose bookkeeping store never ran (on real
      // hardware the kill can land between the two) — quarantine, never
      // free.
      mine.quarantine.push_back(victim.in_flight - 1);
      victim.in_flight = 0;
    }
    ++mine.expropriations;
  }

  const DeathOracle* oracle_ = nullptr;
  int n_;
  std::vector<Proc> procs_;
  std::size_t pool_size_ = 0;
};

}  // namespace aba::reclaim
