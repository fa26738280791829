// Shared vocabulary of the multi-process crash harness: the driver test
// (test_shm_crash.cpp) and the sacrificial worker (shm_crash_child.cpp)
// must construct the *same* structure over the same segment — the arena
// layout hash (shm_platform.h) checks that they did.
//
// World shape: 2 lease slots over one segment. The driver creates the
// segment and acquires slot 0; the child attaches, acquires slot 1, waits
// for the driver to plant a park request on its lease, then storms
// put/take cycles until the instrumented park point (pid_lease.h) catches
// it mid-protocol — where the driver SIGKILLs it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "shm/leased_reclaimer.h"
#include "shm/pid_lease.h"
#include "shm/shm_platform.h"
#include "shm/shm_segment.h"
#include "structures/ms_queue.h"
#include "structures/treiber_stack.h"

namespace aba::shm::crash {

inline constexpr int kProcs = 2;
inline constexpr int kDriverSlot = 0;
inline constexpr int kVictimSlot = 1;
inline constexpr int kNodesPerProc = 16;
inline constexpr std::size_t kSegmentBytes = 1 << 21;

// The two reclaimer families under test, one structure each. The cached
// hazard variant is the more crash-exposed of the two hazard modes (a
// guard outlives the operation that published it), so it is the one the
// harness kills.
using CrashStack =
    structures::TreiberStack<ShmPlatform, structures::RawCasHead<ShmPlatform>,
                             LeasedCachedHazardReclaimer>;
using CrashQueue = structures::MsQueue<ShmPlatform, LeasedEpochReclaimer>;

inline constexpr const char* kKindStackHazard = "stack_hazard_cached";
inline constexpr const char* kKindQueueEpoch = "queue_epoch";
// Same world as queue_epoch, but the worker storms retire_batch directly:
// the crash surface is the staged shm pending window (LeasedBook::stage),
// not the single-node in_retire marker.
inline constexpr const char* kKindQueueEpochBatch = "queue_epoch_batch";

// One world: segment + arena + leases + the structure named by `kind`.
// Creator and attacher run this same sequence (owner toggles placement
// vs. bind), which is exactly what the layout hash certifies.
struct CrashWorld {
  ShmSegment seg;
  ShmArena arena;
  PidLeaseTable leases;
  ShmPlatform::Env env;
  std::unique_ptr<CrashStack> stack;
  std::unique_ptr<CrashQueue> queue;

  CrashWorld(ShmSegment&& segment, bool owner, const std::string& kind)
      : seg(std::move(segment)),
        arena(seg, owner),
        leases(arena, kProcs),
        env{&arena, &leases, owner} {
    if (kind == kKindStackHazard) {
      stack = std::make_unique<CrashStack>(
          env, kProcs,
          std::make_unique<structures::RawCasHead<ShmPlatform>>(env, kProcs),
          CrashStack::partition(kProcs, kNodesPerProc));
    } else if (kind == kKindQueueEpoch || kind == kKindQueueEpochBatch) {
      queue = std::make_unique<CrashQueue>(env, kProcs, kNodesPerProc);
    } else {
      ABA_CHECK_MSG(false, "unknown crash-world kind");
    }
    if (owner) {
      seg.publish(arena.layout_hash());
    } else {
      seg.verify_layout(arena.layout_hash());
    }
  }

  bool put(int p, std::uint64_t v) {
    return stack ? stack->push(p, v) : queue->enqueue(p, v);
  }
  std::optional<std::uint64_t> take(int p) {
    return stack ? stack->pop(p) : queue->dequeue(p);
  }
  reclaim::ReclaimStats stats() const {
    return stack ? stack->reclaimer().stats() : queue->reclaimer().stats();
  }
  // One survivor reclamation pass (the unit of the recovery bound): a
  // hazard scan, or an epoch advance attempt + collection.
  void survivor_pass(int p) {
    if (stack) {
      stack->reclaimer().scan(p);
    } else {
      queue->reclaimer().try_advance(p);
      queue->reclaimer().collect(p);
    }
  }
  // One cycle of the batch-retire kind: allocate a small batch straight
  // from the pool and hand it all back through retire_batch. The park
  // point inside retire_batch sits BETWEEN staging the chunk in the shm
  // pending window and stamping/listing the nodes — at that instant the
  // window is the chunk's ONLY record, which is what the driver shoots at.
  bool batch_retire_cycle(int p) {
    std::uint64_t idxs[4];
    std::size_t got = 0;
    auto& r = queue->reclaimer();
    while (got < 4) {
      const auto idx = r.allocate(p);
      if (!idx) break;
      r.commit(p);
      idxs[got++] = *idx;
    }
    if (got == 0) return false;
    r.retire_batch(p, idxs, got);
    return true;
  }

  // Nodes the structure itself holds when empty (MS queue keeps a dummy).
  std::size_t resident_nodes() const { return queue ? 1u : 0u; }
};

}  // namespace aba::shm::crash
