// The mutant zoo — deliberately-broken reclamation variants for mutation
// testing the spec-driven schedule search. Two families live here:
//
//   * MutantTaggedReclaimer — the in-process reuse-ABA mutant (below).
//   * LeaseMutation — one-decision mutations of the crash-robust leased
//     tier (shm/pid_lease.h + shm/leased_reclaimer.h). The shm classes
//     accept a LeaseMutation and flip exactly one branch of the death
//     handshake; kNone is the shipped behavior. The sim-hosted fixtures
//     (sim/sim_lease.h, reclaim_fixture names stack_leased_mutant_*) are
//     the only place a non-kNone value is ever constructed.
//
// Never use any of this outside tests; it exists to be caught.
//
// MutantTaggedReclaimer — a deliberately-broken reclaimer for mutation
// testing the spec-driven schedule search.
//
// The correct tag-based configuration in this repository is immediate FIFO
// reuse (TaggedReclaimer) paired with a CAS site that bumps a version on
// every successful swing (TaggedCasHead::try_swing — the bump is what turns
// a recycled index into a visibly different CAS word). This mutant keeps
// the immediate-reuse discipline but its fixture wires it to a RawCasHead:
// the version bump is skipped at the one site that needed it, so a node
// index can reappear under a bit-identical head word while a parked reader
// still holds a stale snapshot — the textbook pointer-recycling ABA.
//
// Under the search engine's storm workload the failure is reachable in a
// handful of grants: park a reader mid-pop between its head read and its
// CAS, drain the stack, push a value that recycles the parked reader's
// snapshot index, and the reader's CAS succeeds against a freed node — the
// next take returns a value that was never (or already) taken, which the
// StackSpec/QueueSpec linearizability checkers reject. The mutation test
// (tests/test_model_check.cpp) asserts the spec-driven search catches this
// within a small budget while all five real reclaimers survive the same
// budget on the same workload — the contrast that proves the searcher hunts
// correctness, not just reclamation cost.
//
// Never use this outside tests; it exists to be caught.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "core/platform.h"
#include "reclaim/reclaimer.h"
#include "util/assert.h"
#include "util/cacheline.h"

namespace aba::reclaim {

// The lease-mutant zoo: each value names ONE removed safety decision in the
// leased tier's suspect/confirm expropriation machinery. The conviction
// channel for each (the workload/crash pattern a bounded DPOR search uses
// to produce a spec violation) is documented in docs/RECLAMATION.md and
// asserted by LeaseMutantCatch.* in tests/test_model_check.cpp; the identical
// search budget must leave every kNone (shipped) leased fixture clean.
enum class LeaseMutation : std::uint8_t {
  kNone = 0,         // Shipped behavior.
  kStaleConfirm,     // PidLeaseTable::advance_death confirms a kSuspect
                     // lease on staleness alone — it skips the second
                     // gone-AND-heartbeat-unmoved pass, so a live-but-slow
                     // (parked) process can be confirmed dead and its
                     // guards/lists seized while it still holds a snapshot.
  kNoQuarantine,     // LeasedBook::drain_dead frees a dead process's
                     // ambiguous in-flight node instead of quarantining it:
                     // a node that was already linked into the structure
                     // when the kill landed goes back into circulation
                     // while still reachable.
  kNoRestamp,        // LeasedBook::restamp_orphans skips the orphan
                     // re-stamp: a node orphaned mid-retire keeps its
                     // stale/zero epoch stamp, so the epoch flush frees it
                     // before readers announced in earlier epochs are done
                     // with it (the exact bug the PR 6 review fixed).
};

inline const char* to_string(LeaseMutation m) {
  switch (m) {
    case LeaseMutation::kNone: return "none";
    case LeaseMutation::kStaleConfirm: return "stale_confirm";
    case LeaseMutation::kNoQuarantine: return "no_quarantine";
    case LeaseMutation::kNoRestamp: return "no_restamp";
  }
  return "?";
}

template <Platform P>
class MutantTaggedReclaimer {
 public:
  static constexpr const char* kName = "mutant_tagged";
  static constexpr bool kNeedsGuard = false;

  MutantTaggedReclaimer(typename P::Env&, int n, FreeLists initial_free)
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
    const std::uint64_t idx = free.front();  // FIFO: the oldest retiree —
    free.pop_front();                        // exactly the index a parked
    return idx;                              // reader's snapshot still names.
  }

  void retire(int p, std::uint64_t idx) { procs_[p].free.push_back(idx); }

  void retire_batch(int p, const std::uint64_t* idxs, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) retire(p, idxs[i]);
  }

  std::size_t pool_size() const { return pool_size_; }
  std::size_t unreclaimed(int /*p*/) const { return 0; }
  std::size_t free_count(int p) const { return procs_[p].free.size(); }

  ReclaimStats stats() const {
    ReclaimStats s;
    s.pool_size = pool_size_;
    for (const auto& proc : procs_) s.free_nodes += proc.free.size();
    return s;
  }
  ReclaimPhase phase(int /*p*/) const { return ReclaimPhase::kIdle; }

  std::uint64_t fingerprint() const {
    Fingerprint fp;
    for (const auto& proc : procs_) fp.mix_range(proc.free);
    return fp.value();
  }

 private:
  struct alignas(util::kCacheLineSize) PerProcess {
    std::deque<std::uint64_t> free;
  };

  std::vector<PerProcess> procs_;
  std::size_t pool_size_ = 0;
};

}  // namespace aba::reclaim
