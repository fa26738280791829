// In-process tests for the crash-robust cross-process tier (src/shm/):
//
//   * ShmSegment — create/attach discovery, header validation, the
//     publish/verify_layout handshake;
//   * ShmArena — deterministic placement (creator and attacher walk the
//     same construction sequence to the same offsets) and the layout-hash
//     fingerprint that turns drift into a checked error;
//   * PidLeaseTable — acquire/release/beat, the two-phase suspect/confirm
//     death handshake over real pids (a reaped child is definitively dead;
//     heartbeat movement between suspicion and confirmation cancels it —
//     the pid-recycling guard), staleness that can only ever *suspect*,
//     the self_check veto and the LeaseRevoked self-fence, and the
//     park-point rendezvous the crash harness drives workers with;
//   * the leased reclaimers — correctness of the shared-arena hazard and
//     epoch variants under multi-slot use from one process, and
//     expropriation: plant a dead pid on a lease mid-protocol and assert a
//     survivor confirms, drains, and reaps it within two scans, with pool
//     conservation intact.
//
// The REAL multi-process crash coverage (fork + SIGKILL at parked
// vulnerable instants) lives in test_shm_crash.cpp; these tests keep the
// building blocks debuggable in one process.
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>

#include "reclaim/death.h"
#include "shm/leased_reclaimer.h"
#include "shm/pid_lease.h"
#include "shm/shm_platform.h"
#include "shm/shm_segment.h"
#include "structures/ms_queue.h"
#include "structures/treiber_stack.h"

namespace aba::shm {
namespace {

// Forks a child that exits immediately and reaps it: a pid that is
// definitively dead (kill(pid, 0) == ESRCH) for the death-handshake tests.
pid_t dead_pid() {
  const pid_t pid = ::fork();
  if (pid == 0) ::_exit(0);
  int status = 0;
  ::waitpid(pid, &status, 0);
  return pid;
}

// ------------------------------------------------------------- segment

TEST(ShmSegment, CreatePublishAttachRoundTrip) {
  const std::string name = unique_segment_name();
  ShmSegment created = ShmSegment::create(name, 1 << 16, 4);
  EXPECT_TRUE(created.owner());
  EXPECT_EQ(created.max_procs(), 4);

  ShmArena arena(created, /*owner=*/true);
  auto* word = arena.place<std::atomic<std::uint64_t>>("word");
  word->store(0x5eed, std::memory_order_relaxed);
  created.publish(arena.layout_hash());

  // A second mapping of the same segment (what another process would do).
  ShmSegment attached = ShmSegment::attach(name);
  EXPECT_FALSE(attached.owner());
  EXPECT_EQ(attached.max_procs(), 4);
  ShmArena bound(attached, /*owner=*/false);
  auto* same = bound.place<std::atomic<std::uint64_t>>("word");
  attached.verify_layout(bound.layout_hash());
  EXPECT_EQ(same->load(std::memory_order_relaxed), 0x5eedu);

  // Writes through one mapping are visible through the other.
  same->store(0xbeef, std::memory_order_relaxed);
  EXPECT_EQ(word->load(std::memory_order_relaxed), 0xbeefu);
}

TEST(ShmSegment, UniqueNamesDoNotCollide) {
  const std::string a = unique_segment_name();
  const std::string b = unique_segment_name();
  EXPECT_NE(a, b);
  EXPECT_EQ(a.front(), '/');
}

// --------------------------------------------------------------- arena

TEST(ShmArena, IdenticalSequencesHashIdentically) {
  const std::string name = unique_segment_name();
  ShmSegment seg = ShmSegment::create(name, 1 << 16, 2);
  ShmArena first(seg, true);
  first.place<std::atomic<std::uint64_t>>("a");
  first.place_array<std::atomic<std::uint64_t>>("b", 7);

  ShmArena second(seg, false);  // Re-walk the same sequence, binding.
  second.place<std::atomic<std::uint64_t>>("a");
  second.place_array<std::atomic<std::uint64_t>>("b", 7);
  EXPECT_EQ(first.layout_hash(), second.layout_hash());
  EXPECT_EQ(first.bytes_used(), second.bytes_used());
}

TEST(ShmArena, DivergentSequencesHashDifferently) {
  const std::string name = unique_segment_name();
  ShmSegment seg = ShmSegment::create(name, 1 << 16, 2);
  ShmArena first(seg, true);
  first.place<std::atomic<std::uint64_t>>("a");
  ShmArena renamed(seg, false);
  renamed.place<std::atomic<std::uint64_t>>("b");  // Different name.
  EXPECT_NE(first.layout_hash(), renamed.layout_hash());

  ShmArena resized(seg, false);
  resized.place_array<std::atomic<std::uint64_t>>("a", 2);  // Different size.
  EXPECT_NE(first.layout_hash(), resized.layout_hash());
}

TEST(ShmArena, PlacementsAreCacheLineGranular) {
  const std::string name = unique_segment_name();
  ShmSegment seg = ShmSegment::create(name, 1 << 16, 2);
  ShmArena arena(seg, true);
  auto* a = arena.place<std::atomic<std::uint64_t>>("a");
  auto* b = arena.place<std::atomic<std::uint64_t>>("b");
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % util::kCacheLineSize, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % util::kCacheLineSize, 0u);
  EXPECT_GE(reinterpret_cast<char*>(b) - reinterpret_cast<char*>(a),
            static_cast<std::ptrdiff_t>(util::kCacheLineSize));
}

// --------------------------------------------------------------- leases

struct LeaseFixture {
  ShmSegment seg;
  ShmArena arena;
  PidLeaseTable leases;

  explicit LeaseFixture(int max_procs = 4)
      : seg(ShmSegment::create(unique_segment_name(), 1 << 16, max_procs)),
        arena(seg, true),
        leases(arena, max_procs) {}
};

TEST(PidLease, AcquireBeatReleaseLifecycle) {
  LeaseFixture fx;
  const int a = fx.leases.acquire();
  const int b = fx.leases.acquire();
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
  EXPECT_TRUE(fx.leases.is_live(a));
  EXPECT_TRUE(fx.leases.is_held(b));
  fx.leases.beat(a);
  EXPECT_NO_THROW(fx.leases.self_check(a));

  fx.leases.release(a);
  EXPECT_FALSE(fx.leases.is_held(a));
  // The released slot recirculates (with a fresh generation).
  EXPECT_EQ(fx.leases.acquire(), 0);
}

TEST(PidLease, DeadPidConfirmsInTwoVisitsAndReaps) {
  LeaseFixture fx;
  const int q = fx.leases.acquire();
  fx.leases.record(q).pid.store(dead_pid(), std::memory_order_release);

  EXPECT_EQ(fx.leases.advance_death(q), reclaim::DeathStep::kSuspected);
  EXPECT_TRUE(fx.leases.is_held(q)) << "suspicion must not drop the lease";
  EXPECT_EQ(fx.leases.advance_death(q), reclaim::DeathStep::kConfirmed);
  EXPECT_EQ(fx.leases.advance_death(q),
            reclaim::DeathStep::kAlreadyExpropriated);
  fx.leases.reap(q);
  EXPECT_FALSE(fx.leases.is_held(q));
}

TEST(PidLease, HeartbeatMovementCancelsSuspicion) {
  // The pid-recycling guard: between suspicion and confirmation the
  // heartbeat moved, so the lease owner (or a new process wearing the
  // recycled pid after a proper re-acquire) is treated as alive.
  LeaseFixture fx;
  const int q = fx.leases.acquire();
  fx.leases.record(q).pid.store(dead_pid(), std::memory_order_release);
  EXPECT_EQ(fx.leases.advance_death(q), reclaim::DeathStep::kSuspected);
  fx.leases.beat(q);
  EXPECT_EQ(fx.leases.advance_death(q), reclaim::DeathStep::kVetoed);
}

TEST(PidLease, StalenessAloneNeverConfirms) {
  // Our own (live) pid with a "stale" heartbeat: staleness may suspect,
  // but a process the kernel still knows can never be confirmed dead.
  LeaseFixture fx;
  const int q = fx.leases.acquire();
  EXPECT_EQ(fx.leases.advance_death(q, /*stale=*/true),
            reclaim::DeathStep::kSuspected);
  EXPECT_EQ(fx.leases.advance_death(q, /*stale=*/true),
            reclaim::DeathStep::kVetoed);
  EXPECT_TRUE(fx.leases.is_held(q));
}

TEST(PidLease, AcquireWindowPidZeroIsIndeterminate) {
  // Rewind a lease to the acquire window: kLive already published, the pid
  // store still in flight. pid_alive(0) is false, but a survivor must treat
  // the window as indeterminate — suspecting (let alone confirming) here
  // would expropriate a live, freshly-acquired lease.
  LeaseFixture fx;
  const int q = fx.leases.acquire();
  fx.leases.record(q).pid.store(0, std::memory_order_release);
  EXPECT_EQ(fx.leases.advance_death(q), reclaim::DeathStep::kVetoed);
  EXPECT_EQ(fx.leases.advance_death(q, /*stale=*/true),
            reclaim::DeathStep::kVetoed);
  EXPECT_TRUE(fx.leases.is_live(q));
}

TEST(PidLease, GenerationFencesRecycledSlot) {
  LeaseFixture fx;
  const int q = fx.leases.acquire();
  // q's owner "dies" (planted dead pid); a survivor confirms and reaps.
  fx.leases.record(q).pid.store(dead_pid(), std::memory_order_release);
  fx.leases.advance_death(q);
  ASSERT_EQ(fx.leases.advance_death(q), reclaim::DeathStep::kConfirmed);
  fx.leases.reap(q);

  // Another process (a second table instance bound to the same records)
  // reacquires the slot: it reads kLive again, but in a new generation.
  ShmArena bind(fx.seg, /*owner=*/false);
  PidLeaseTable other(bind, 4);
  ASSERT_EQ(other.acquire(), q);
  ASSERT_TRUE(other.is_live(q));

  // The original owner sees kLive wearing a generation it never installed:
  // it must self-fence, not beat or operate on the new owner's lease.
  EXPECT_THROW(fx.leases.self_check(q), reclaim::LeaseRevoked);
  EXPECT_THROW(fx.leases.beat(q), reclaim::LeaseRevoked);
  // Nor may its clean-exit path free the new owner's lease.
  fx.leases.release(q);
  EXPECT_TRUE(other.is_live(q));
  EXPECT_NO_THROW(other.self_check(q));
}

TEST(PidLease, SelfCheckVetoesSuspicionAndFencesExpropriation) {
  LeaseFixture fx;
  const int q = fx.leases.acquire();
  // Falsely suspected (stale heartbeat, live pid): self_check vetoes.
  EXPECT_EQ(fx.leases.advance_death(q, /*stale=*/true),
            reclaim::DeathStep::kSuspected);
  EXPECT_NO_THROW(fx.leases.self_check(q));
  EXPECT_TRUE(fx.leases.is_live(q));

  // Confirmed dead (planted pid): self_check must self-fence.
  fx.leases.record(q).pid.store(dead_pid(), std::memory_order_release);
  fx.leases.advance_death(q);
  ASSERT_EQ(fx.leases.advance_death(q), reclaim::DeathStep::kConfirmed);
  EXPECT_THROW(fx.leases.self_check(q), reclaim::LeaseRevoked);
}

TEST(PidLease, ParkRendezvous) {
  LeaseFixture fx;
  const int slot = fx.leases.acquire();
  auto& rec = fx.leases.record(slot);
  // No request: maybe_park returns immediately.
  fx.leases.maybe_park(slot, kParkGuardPublished);
  EXPECT_EQ(rec.park_ack.load(), kParkNone);

  // Request the guard-published point; a worker thread parks there until
  // the driver (this thread) releases it — the SIGKILL rendezvous minus
  // the kill.
  rec.park_request.store(kParkGuardPublished, std::memory_order_release);
  std::thread worker(
      [&] { fx.leases.maybe_park(slot, kParkGuardPublished); });
  while (rec.park_ack.load(std::memory_order_acquire) != kParkGuardPublished) {
    std::this_thread::yield();
  }
  rec.park_request.store(kParkNone, std::memory_order_release);
  worker.join();
  EXPECT_EQ(rec.park_ack.load(), kParkNone);
}

// ------------------------------------------------- leased reclaimers

using ShmStack = structures::TreiberStack<ShmPlatform,
                                          structures::RawCasHead<ShmPlatform>,
                                          LeasedCachedHazardReclaimer>;
using ShmEpochQueue = structures::MsQueue<ShmPlatform, LeasedEpochReclaimer>;

struct TierFixture {
  ShmSegment seg;
  ShmArena arena;
  PidLeaseTable leases;
  ShmPlatform::Env env;

  explicit TierFixture(int max_procs = 2)
      : seg(ShmSegment::create(unique_segment_name(), 1 << 21, max_procs)),
        arena(seg, true),
        leases(arena, max_procs),
        env{&arena, &leases, /*owner=*/true} {}
};

TEST(LeasedReclaimer, HazardStackPushPopAcrossSlots) {
  TierFixture fx;
  ShmStack stack(fx.env, 2,
                 std::make_unique<structures::RawCasHead<ShmPlatform>>(fx.env, 2),
                 ShmStack::partition(2, 16));
  fx.seg.publish(fx.arena.layout_hash());
  const int p0 = fx.leases.acquire();
  const int p1 = fx.leases.acquire();

  for (std::uint64_t v = 0; v < 20; ++v) {
    ASSERT_TRUE(stack.push(v % 2 == 0 ? p0 : p1, v));
  }
  for (std::uint64_t v = 0; v < 20; ++v) {
    const auto got = stack.pop(v % 2 == 0 ? p1 : p0);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, 19 - v);  // LIFO.
  }
  EXPECT_FALSE(stack.pop(p0).has_value());

  // Everything is either free or retired; nothing leaked.
  const reclaim::ReclaimStats s = stack.reclaimer().stats();
  EXPECT_EQ(s.free_nodes + s.retired_unreclaimed, s.pool_size);
  EXPECT_EQ(s.quarantined, 0u);
  EXPECT_EQ(s.expropriations, 0u);
}

TEST(LeasedReclaimer, EpochQueueFifoAcrossSlots) {
  TierFixture fx;
  ShmEpochQueue queue(fx.env, 2, 16);
  fx.seg.publish(fx.arena.layout_hash());
  const int p0 = fx.leases.acquire();
  const int p1 = fx.leases.acquire();

  for (std::uint64_t v = 0; v < 24; ++v) {
    ASSERT_TRUE(queue.enqueue(v % 2 == 0 ? p0 : p1, v));
  }
  for (std::uint64_t v = 0; v < 24; ++v) {
    const auto got = queue.dequeue(v % 2 == 0 ? p1 : p0);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, v);  // FIFO.
  }
  EXPECT_FALSE(queue.dequeue(p0).has_value());

  const reclaim::ReclaimStats s = queue.reclaimer().stats();
  // Pool = 1 dummy + 2*16; one node always lives on as the current dummy.
  EXPECT_EQ(s.free_nodes + s.retired_unreclaimed + 1, s.pool_size);
  EXPECT_EQ(s.quarantined, 0u);
}

// Kill a lease mid-protocol (planted dead pid) and let the other slot's
// storm drive the two-phase handshake: confirmed, drained, reaped — and
// the pool conserves.
TEST(LeasedReclaimer, HazardExpropriatesPlantedDeadLease) {
  TierFixture fx;
  ShmStack stack(fx.env, 2,
                 std::make_unique<structures::RawCasHead<ShmPlatform>>(fx.env, 2),
                 ShmStack::partition(2, 16));
  fx.seg.publish(fx.arena.layout_hash());
  const int p0 = fx.leases.acquire();
  const int p1 = fx.leases.acquire();

  // p1 operates — its cached guard stays published after the pop — then
  // "dies" (its lease now wears a dead pid).
  ASSERT_TRUE(stack.push(p1, 7));
  ASSERT_TRUE(stack.pop(p1).has_value());
  ASSERT_GE(stack.reclaimer().stats().guard_slots_occupied, 1u);
  fx.leases.record(p1).pid.store(dead_pid(), std::memory_order_release);

  // The survivor storms: scans at the threshold suspect, then confirm and
  // drain. 3 nodes/cycle retire-pressure over 16-node lists reaches the
  // 2·n·slots = 8 threshold fast.
  for (std::uint64_t v = 0; v < 40 &&
       stack.reclaimer().stats().expropriations == 0; ++v) {
    stack.push(p0, v);
    stack.pop(p0);
  }

  const reclaim::ReclaimStats s = stack.reclaimer().stats();
  EXPECT_EQ(s.expropriations, 1u);
  EXPECT_FALSE(fx.leases.is_held(p1)) << "confirmed lease must be reaped";
  EXPECT_EQ(s.free_nodes + s.retired_unreclaimed + s.quarantined,
            s.pool_size);
  EXPECT_LE(s.quarantined, 1u);
  // p1's guards were cleared by the expropriator; only p0's cache remains.
  EXPECT_LE(s.guard_slots_occupied, 2u);
}

TEST(LeasedReclaimer, EpochExpropriatesFrozenAnnouncement) {
  TierFixture fx;
  ShmEpochQueue queue(fx.env, 2, 16);
  fx.seg.publish(fx.arena.layout_hash());
  const int p0 = fx.leases.acquire();
  const int p1 = fx.leases.acquire();

  // Freeze p1 mid-region: announce (begin_op) without the matching end_op,
  // as if the process died right after publishing — then plant the death.
  ASSERT_TRUE(queue.enqueue(p1, 1));
  queue.reclaimer().begin_op(p1);
  fx.leases.record(p1).pid.store(dead_pid(), std::memory_order_release);

  for (std::uint64_t v = 0; v < 60 &&
       queue.reclaimer().stats().expropriations == 0; ++v) {
    queue.enqueue(p0, v);
    queue.dequeue(p0);
  }

  const reclaim::ReclaimStats s = queue.reclaimer().stats();
  EXPECT_EQ(s.expropriations, 1u);
  EXPECT_FALSE(fx.leases.is_held(p1));
  // The frozen announcement is gone, so the epoch advances again and the
  // spliced limbo matures: the storm keeps reclaiming (free list nonzero).
  EXPECT_GT(s.free_nodes, 0u);
  // One node is in the structure (p1's enqueue) plus the current dummy.
  EXPECT_EQ(s.free_nodes + s.retired_unreclaimed + s.quarantined + 2,
            s.pool_size);
}

// A process killed at the mid-retire park point leaves in_retire set with
// the node's epoch stamp never written (retire stamps after the park).
// Expropriation must re-stamp the orphan with the current epoch before
// re-homing it: with the stale/zero stamp it would pass the two-epoch grace
// test immediately and be freed while a reader announced in an earlier
// epoch still holds it.
TEST(LeasedReclaimer, EpochMidRetireOrphanKeepsGracePeriod) {
  TierFixture fx(3);
  const reclaim::FreeLists initial = reclaim::partition_pool(3, 4);
  LeasedEpochReclaimer r(fx.env, 3, initial);
  fx.seg.publish(fx.arena.layout_hash());
  const int p0 = fx.leases.acquire();
  const int p1 = fx.leases.acquire();
  const int p2 = fx.leases.acquire();

  // Push the global epoch well past the value-initialized stamp of 0, so a
  // never-stamped node would look ancient to collect().
  for (int i = 0; i < 4; ++i) r.try_advance(p0);

  // p2 enters a region: announced at the current epoch — an old-epoch
  // reader for everything retired from here on.
  r.begin_op(p2);

  // p1 allocates a node and "dies" parked mid-retire: in_retire set, the
  // stamp never written.
  const auto idx = r.allocate(p1);
  ASSERT_TRUE(idx.has_value());
  r.commit(p1);
  auto& rec = fx.leases.record(p1);
  rec.park_request.store(kParkMidRetire, std::memory_order_release);
  std::thread victim([&] {
    try {
      r.retire(p1, *idx);
    } catch (const reclaim::LeaseRevoked&) {
      // Expected: expropriated while parked; the post-park self-check
      // fences the resumed worker before it touches the drained lists.
    }
  });
  while (rec.park_ack.load(std::memory_order_acquire) != kParkMidRetire) {
    std::this_thread::yield();
  }
  rec.pid.store(dead_pid(), std::memory_order_release);

  // Two survivor advances: suspect, then confirm + re-stamp + drain.
  r.try_advance(p0);
  r.try_advance(p0);
  ASSERT_EQ(r.stats().expropriations, 1u);

  // While p2 still pins its (older) epoch, collect must keep the re-homed
  // orphan in limbo — freeing it here is the use-after-free.
  r.collect(p0);
  EXPECT_EQ(r.stats().retired_unreclaimed, 1u)
      << "orphaned mid-retire node freed without a grace period";

  // Release the park; the resumed victim self-fences on its revoked lease.
  rec.park_request.store(kParkNone, std::memory_order_release);
  victim.join();

  // Once the reader leaves, the normal two-advance rule drains the orphan
  // and the pool conserves in full.
  r.end_op(p2);
  for (int i = 0; i < 3; ++i) {
    r.try_advance(p0);
    r.collect(p0);
  }
  const reclaim::ReclaimStats s = r.stats();
  EXPECT_EQ(s.retired_unreclaimed, 0u);
  EXPECT_EQ(s.quarantined, 0u);
  EXPECT_EQ(s.free_nodes, s.pool_size);
}

// The global quarantine is the one list with concurrent pushers (confirm
// winners of different victims); its push must be lossless under
// contention, keeping the count and the list in sync.
TEST(LeasedReclaimer, SharedQuarantinePushIsLosslessUnderContention) {
  const std::string name = unique_segment_name();
  ShmSegment seg = ShmSegment::create(name, 1 << 18, 2);
  ShmArena arena(seg, true);
  constexpr std::uint64_t kNodes = 256;
  detail::NodeLists lists(arena, "links", kNodes);
  auto* head = arena.place<std::atomic<std::uint64_t>>("head");

  std::thread evens([&] {
    for (std::uint64_t i = 0; i < kNodes; i += 2) lists.push_shared(*head, i);
  });
  std::thread odds([&] {
    for (std::uint64_t i = 1; i < kNodes; i += 2) lists.push_shared(*head, i);
  });
  evens.join();
  odds.join();

  std::uint64_t seen = 0;
  for (std::uint64_t i = 0; i < kNodes; ++i) {
    if (lists.contains(*head, i)) ++seen;
  }
  EXPECT_EQ(seen, kNodes) << "concurrent pushes lost a link";
}

}  // namespace
}  // namespace aba::shm
