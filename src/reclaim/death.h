// Death detection and expropriation support for crash-robust reclamation.
//
// The delay adversaries (covering schedules, parked readers) model a process
// that is slow; the cross-process tier has to survive one that is *dead* —
// SIGKILLed while a hazard guard is published, an epoch announcement is
// frozen, or a retire is half-recorded. A dead process can never clear its
// own published state, so the reclamation paths (hazard scan, epoch advance)
// must detect the death and expropriate: clear the dead process's guards or
// announcement and drain its retired/free bookkeeping back into a survivor's.
//
// Detection is delegated to a DeathOracle. In the simulator the oracle is
// SimWorld::is_crashed (exact); in the shm tier it is kill(pid, 0) plus
// heartbeat staleness on the pid-lease table (sound for real deaths, but
// capable of *false* suspicion under pid reuse or scheduling delay). The
// expropriation protocol therefore runs a two-phase handshake over a
// per-process death state machine:
//
//     kDeathLive --suspect--> kDeathSuspect --confirm--> kDeathExpropriated
//
// A reclaimer only suspects on one scan/advance and confirms on a *later*
// one, re-consulting the oracle both times. Between the two, a
// falsely-suspected live process vetoes the suspicion: every reclaimer entry
// point self-checks its own death word and CASes kDeathSuspect back to
// kDeathLive. If the process instead finds itself already expropriated (it
// lost the race, or the oracle was simply right twice), it must self-fence:
// throw LeaseRevoked without touching any shared word, because a survivor
// now owns its guards, free list and retired list. Self-fencing instead of
// continuing is what keeps a false confirmation from corrupting the pool —
// the fenced process loses its lease, never its peers' memory safety.
//
// The state word is advanced only by CAS, so when several survivors race to
// confirm the same death exactly one wins and gains exclusive splice rights
// over the victim's lists.
//
// Nodes a victim had allocated but not yet linked (its in-flight node) are
// never freed by the expropriator — they are *quarantined*: on real hardware
// the kill can land between the linking CAS and the bookkeeping store that
// records it, and freeing a possibly-linked node is a double-free waiting to
// happen. Quarantine costs at most one node per crash, which the stats
// surface (ReclaimStats::quarantined) so tests can assert the bound.
#pragma once

#include <atomic>
#include <cstdint>

namespace aba::reclaim {

// Thrown by a reclaimer entry point when the calling process finds its own
// lease expropriated. The process must treat this as its own death: unwind
// without touching the structure again (the simulator marks the process
// crashed; a real process should release its lease slot and exit).
struct LeaseRevoked {};

// Liveness oracle consulted by scan/advance paths. is_dead(pid) must be
// *stable* for real deaths (a dead pid stays dead); it may transiently
// return true for a live process — that is exactly what the two-phase
// handshake above absorbs. Implementations: sim::SimDeathOracle (exact,
// engine-side), the shm tier's lease probe (kill(pid,0) + heartbeat).
class DeathOracle {
 public:
  virtual ~DeathOracle() = default;
  virtual bool is_dead(int pid) const = 0;
};

// Park points: the instrumented crash windows of the reclaimer protocols.
// A book that instruments them (shm::LeasedBook) lets a process stop at one
// while still holding whatever it just published — the crash harnesses
// (shm/pid_lease.h) kill it there; the in-process book ignores them.
inline constexpr std::uint64_t kParkNone = 0;
inline constexpr std::uint64_t kParkGuardPublished = 1;
inline constexpr std::uint64_t kParkEpochAnnounced = 2;
inline constexpr std::uint64_t kParkMidRetire = 3;
// Between the structure's linking CAS and commit(p)'s in-flight clear: the
// node is (possibly) reachable AND still marked — the window the quarantine
// rule exists for.
inline constexpr std::uint64_t kParkInFlight = 4;

// Death state machine values (held in a per-process std::atomic<uint8_t>).
inline constexpr std::uint8_t kDeathLive = 0;
inline constexpr std::uint8_t kDeathSuspect = 1;
inline constexpr std::uint8_t kDeathExpropriated = 2;

// What one scan/advance visit did to a dead-looking process's state word.
enum class DeathStep : std::uint8_t {
  kSuspected,            // First phase recorded; confirm on a later visit.
  kConfirmed,            // We won the confirm CAS: we own the drain.
  kAlreadyExpropriated,  // Another survivor drained it (or we did earlier).
  kVetoed,               // The process proved alive between our two visits.
};

// One visit of the two-phase handshake. The caller has already consulted
// its oracle and believes `state`'s owner is dead.
inline DeathStep advance_death(std::atomic<std::uint8_t>& state) {
  std::uint8_t s = state.load(std::memory_order_acquire);
  if (s == kDeathExpropriated) return DeathStep::kAlreadyExpropriated;
  if (s == kDeathLive) {
    state.compare_exchange_strong(s, kDeathSuspect,
                                  std::memory_order_acq_rel);
    return DeathStep::kSuspected;
  }
  // kDeathSuspect, seen on a later visit: confirm. Exactly one confirmer
  // wins; a concurrent self-check veto makes the CAS fail benignly.
  if (state.compare_exchange_strong(s, kDeathExpropriated,
                                    std::memory_order_acq_rel)) {
    return DeathStep::kConfirmed;
  }
  return s == kDeathExpropriated ? DeathStep::kAlreadyExpropriated
                                 : DeathStep::kVetoed;
}

// The victim side of the handshake, run at every reclaimer entry point on
// the caller's *own* state word: veto a pending suspicion, self-fence on
// expropriation. Costs one relaxed-ish load on the (overwhelmingly common)
// live path.
inline void death_self_check(std::atomic<std::uint8_t>& state) {
  std::uint8_t s = state.load(std::memory_order_acquire);
  if (s == kDeathLive) return;
  if (s == kDeathSuspect &&
      state.compare_exchange_strong(s, kDeathLive,
                                    std::memory_order_acq_rel)) {
    return;  // Falsely suspected; demonstrably alive — suspicion vetoed.
  }
  // Expropriated (possibly during the CAS above): a survivor owns our
  // lists now. Self-fence — unwind without another shared access.
  throw LeaseRevoked{};
}

}  // namespace aba::reclaim
