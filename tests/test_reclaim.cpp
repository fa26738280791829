// Tests for the memory-reclamation subsystem (src/reclaim/):
//
//   * unit semantics of each Reclaimer policy (tagged / leaky / hazard /
//     epoch) over the native platform;
//   * unit semantics of PrivateBook, the in-process bookkeeping both cores
//     share: word mirrors, release order, the suspect/confirm drain with
//     its quarantine and self-fence, the veto, and the orphan re-stamp;
//   * the reclaimer-equivalence suite — a scripted stack/queue workload on
//     the simulator must produce *identical* result sequences under all
//     four reclaimers (reclamation changes when nodes recycle, never what
//     the abstract object returns);
//   * random-schedule linearizability sweeps across (head policy ×
//     reclaimer) on the simulator — the ABA answers as one orthogonal axis;
//   * the deterministic Treiber ABA schedule that corrupts a raw-CAS head
//     under immediate reuse (test_structures.cpp) is re-run against the
//     deferred-reuse reclaimers, which survive it: reclamation as the
//     paper's third ABA answer, made into a regression test;
//   * the hazard-vs-epoch retire-bound stress: with one reader stalled,
//     hazard pointers keep unreclaimed garbage bounded by the scan
//     threshold while the epoch scheme's limbo grows without bound;
//   * the epoch worst-step schedules (EpochSchedule.*): a parked announcer
//     freezes reclamation exactly until two advances past its resume, and
//     allocate refuses to recycle inside the 2-epoch grace period — the
//     scripted seed bounds the schedule-search engine must beat
//     (tests/test_schedule_search.cpp);
//   * native (std::atomic) stress for every reclaimer;
//   * the cached-guard hazard mode (hazard_cached): step-counted unit
//     contracts (hit = zero shared steps, end_op keeps the publish, detach
//     releases), deterministic worst-step schedules (parked reader across a
//     retire storm and across a structure switch), Fast ≡ Counted ≡
//     FastAsymmetric trace equivalence, and FastAsymmetric fence stress;
//   * the deferred-announce epoch mode (epoch_deferred): the step/store/RMW
//     ledger (hit = one shared read, retire = zero shared steps, advance
//     CAS and heavy fence amortized behind the batch), the scripted
//     announce-validate race (an advancer may pass a freshly-written
//     announcement at most once), batch-buffer unit semantics, detach as
//     the release point, and the same trace-equivalence + fence stress the
//     cached-guard mode gets;
//   * retire_batch on the whole roster: observationally equivalent to the
//     retire loop, amortized to one threshold check / stamp read / batch
//     flush per call.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <tuple>
#include <vector>

#include "harness/adapters.h"
#include "harness/harness.h"
#include "native/native_platform.h"
#include "reclaim/death.h"
#include "reclaim/epoch.h"
#include "reclaim/hazard_pointer.h"
#include "reclaim/leaky.h"
#include "reclaim/private_book.h"
#include "reclaim/reclaimer.h"
#include "reclaim/tagged.h"
#include "shm/lease_hosts.h"
#include "sim/sim_platform.h"
#include "spec/lin_checker.h"
#include "spec/specs.h"
#include "structures/ms_queue.h"
#include "structures/treiber_stack.h"
#include "util/asymmetric_fence.h"
#include "util/rng.h"

namespace aba::reclaim {
namespace {

using SimP = sim::SimPlatform;
using NativeP = native::NativePlatform<native::Counted>;
using harness::WorkloadOp;
using spec::Method;

// The concept is the contract every policy (and both platforms) satisfies.
static_assert(ReclaimerFor<TaggedReclaimer<SimP>, SimP>);
static_assert(ReclaimerFor<LeakyReclaimer<SimP>, SimP>);
static_assert(ReclaimerFor<HazardPointerReclaimer<SimP>, SimP>);
static_assert(ReclaimerFor<CachedHazardPointerReclaimer<SimP>, SimP>);
static_assert(ReclaimerFor<EpochBasedReclaimer<SimP>, SimP>);
static_assert(ReclaimerFor<TaggedReclaimer<NativeP>, NativeP>);
static_assert(ReclaimerFor<LeakyReclaimer<NativeP>, NativeP>);
static_assert(ReclaimerFor<HazardPointerReclaimer<NativeP>, NativeP>);
static_assert(ReclaimerFor<CachedHazardPointerReclaimer<NativeP>, NativeP>);
static_assert(ReclaimerFor<EpochBasedReclaimer<NativeP>, NativeP>);
static_assert(ReclaimerFor<DeferredEpochReclaimer<SimP>, SimP>);
static_assert(ReclaimerFor<DeferredEpochReclaimer<NativeP>, NativeP>);
// The deferred variant is the one epoch reclaimer the asymmetric-fence
// policy admits (the eager instantiation's static_assert rejects it).
using AsymP = native::NativePlatform<native::FastAsymmetric>;
static_assert(ReclaimerFor<DeferredEpochReclaimer<AsymP>, AsymP>);

FreeLists one_process_pool(int nodes) { return partition_pool(1, nodes); }

// --------------------------------------------------- unit: partition_pool

TEST(PartitionPool, ContiguousRangesInOrder) {
  const FreeLists lists = partition_pool(3, 2, /*first=*/1);
  ASSERT_EQ(lists.size(), 3u);
  std::uint32_t next = 1;
  for (const IndexList& list : lists) {
    EXPECT_EQ(list.size(), 2u);
    EXPECT_EQ(list.capacity(), 2u) << "one allocation, no slack";
    for (const std::uint32_t idx : list) EXPECT_EQ(idx, next++);
  }
}

// A list entry is 32 bits: the last index it holds is kMaxListIndex, and a
// pool reaching past it is refused before a single list is allocated.
TEST(PartitionPool, FillsThirtyTwoBitEntriesExactly) {
  const FreeLists lists = partition_pool(2, 3, kMaxListIndex - 5);
  EXPECT_EQ(*lists[1].begin() + 2, kMaxListIndex);
}

TEST(PartitionPoolDeath, RefusesIndicesPastThirtyTwoBits) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(partition_pool(2, 3, kMaxListIndex - 4), "32-bit");
  EXPECT_DEATH(partition_pool(5, 1 << 30), "32-bit");
}

// --------------------------------------------------- unit: tagged / leaky

TEST(TaggedReclaimer, ImmediateFifoReuse) {
  typename NativeP::Env env;
  TaggedReclaimer<NativeP> r(env, 1, one_process_pool(2));
  EXPECT_EQ(r.pool_size(), 2u);
  EXPECT_EQ(r.allocate(0), std::optional<std::uint64_t>(0));
  EXPECT_EQ(r.allocate(0), std::optional<std::uint64_t>(1));
  EXPECT_EQ(r.allocate(0), std::nullopt);
  r.retire(0, 1);
  r.retire(0, 0);
  // FIFO: the first retiree is the next allocation.
  EXPECT_EQ(r.allocate(0), std::optional<std::uint64_t>(1));
  EXPECT_EQ(r.unreclaimed(0), 0u);
}

TEST(LeakyReclaimer, RetiredNodesNeverReturn) {
  typename NativeP::Env env;
  LeakyReclaimer<NativeP> r(env, 1, one_process_pool(2));
  EXPECT_EQ(r.allocate(0), std::optional<std::uint64_t>(0));
  r.retire(0, 0);
  EXPECT_EQ(r.allocate(0), std::optional<std::uint64_t>(1));
  r.retire(0, 1);
  EXPECT_EQ(r.allocate(0), std::nullopt) << "a leaky pool must drain";
  EXPECT_EQ(r.unreclaimed(0), 2u);
}

// --------------------------------------------------------- unit: hazard

TEST(HazardPointerReclaimer, GuardPinsAcrossScan) {
  typename NativeP::Env env;
  FreeLists free(2);
  free[0] = {0, 1};
  HazardPointerReclaimer<NativeP> r(env, 2, free);
  // Process 1 guards node 0; process 0 retires it.
  r.guard(1, 0, 0);
  r.retire(0, 0);
  r.scan(0);
  EXPECT_EQ(r.unreclaimed(0), 1u) << "guarded node must survive a scan";
  r.end_op(1);
  r.scan(0);
  EXPECT_EQ(r.unreclaimed(0), 0u) << "unguarded node must be reclaimed";
}

TEST(HazardPointerReclaimer, AllocateScansUnderPoolPressure) {
  typename NativeP::Env env;
  HazardPointerReclaimer<NativeP> r(env, 1, one_process_pool(1));
  EXPECT_EQ(r.allocate(0), std::optional<std::uint64_t>(0));
  r.retire(0, 0);
  // Free list is empty but node 0 is unguarded: allocate must reclaim it.
  EXPECT_EQ(r.allocate(0), std::optional<std::uint64_t>(0));
}

TEST(HazardPointerReclaimer, ThresholdTriggersScan) {
  typename NativeP::Env env;
  HazardPointerReclaimer<NativeP> r(env, 1, one_process_pool(64));
  const std::size_t threshold = r.scan_threshold();
  for (std::size_t i = 0; i < threshold; ++i) {
    auto idx = r.allocate(0);
    ASSERT_TRUE(idx.has_value());
    r.retire(0, *idx);
  }
  EXPECT_LT(r.unreclaimed(0), threshold)
      << "hitting the threshold must trigger a reclaiming scan";
}

// -------------------------------------------------- unit: cached guards
//
// The CachedGuards mode's whole point is which shared steps do NOT happen:
// a cache hit must skip the publish, end_op must clear nothing. The Counted
// native platform's step counter observes exactly the shared writes, so
// these assertions pin the step contract the bench win rests on.

TEST(CachedHazardReclaimer, GuardCacheHitSkipsThePublish) {
  typename NativeP::Env env;
  CachedHazardPointerReclaimer<NativeP> r(env, 1, one_process_pool(2));
  const std::uint64_t before = native::step_counter();
  r.guard(0, 0, 0);
  EXPECT_EQ(native::step_counter() - before, 1u) << "cold publish is a write";
  const std::uint64_t mid = native::step_counter();
  r.guard(0, 0, 0);  // Same index, same slot: the cache hit.
  r.end_op(0);       // Cached mode: guards stay published.
  EXPECT_EQ(native::step_counter() - mid, 0u)
      << "a cached hit and a cached end_op must cost zero shared steps";
  r.guard(0, 0, 1);  // Protected index changed: republish.
  EXPECT_EQ(native::step_counter() - mid, 1u);
  const std::uint64_t before_detach = native::step_counter();
  r.detach(0);  // One clear for the one published slot.
  EXPECT_EQ(native::step_counter() - before_detach, 1u);
}

TEST(CachedHazardReclaimer, EndOpKeepsTheGuardPinnedUntilDetach) {
  typename NativeP::Env env;
  FreeLists free(2);
  free[0] = {0, 1};
  CachedHazardPointerReclaimer<NativeP> r(env, 2, free);
  r.guard(1, 0, 0);
  r.end_op(1);  // Eager mode would clear here; cached keeps publishing.
  r.retire(0, 0);
  r.scan(0);
  EXPECT_EQ(r.unreclaimed(0), 1u)
      << "a guard cached across end_op must still pin";
  r.detach(1);
  r.scan(0);
  EXPECT_EQ(r.unreclaimed(0), 0u) << "detach is the release point";
}

TEST(CachedHazardReclaimer, AllocateDropsOwnCacheUnderPoolPressure) {
  typename NativeP::Env env;
  CachedHazardPointerReclaimer<NativeP> r(env, 1, one_process_pool(1));
  EXPECT_EQ(r.allocate(0), std::optional<std::uint64_t>(0));
  r.guard(0, 0, 0);
  r.end_op(0);
  r.retire(0, 0);
  // The process's own cached guard pins the pool's only node; allocate runs
  // outside any protected region, so it must self-heal: detach, rescan.
  EXPECT_EQ(r.allocate(0), std::optional<std::uint64_t>(0));
}

// ---------------------------------------------------------- unit: epoch

TEST(EpochBasedReclaimer, TwoAdvancesMatureALimboNode) {
  typename NativeP::Env env;
  EpochBasedReclaimer<NativeP> r(env, 1, one_process_pool(1));
  EXPECT_EQ(r.allocate(0), std::optional<std::uint64_t>(0));
  r.begin_op(0);
  r.end_op(0);
  r.retire(0, 0);
  EXPECT_EQ(r.unreclaimed(0), 1u);
  // Everyone quiescent: allocate's two advance+flush rounds mature it.
  EXPECT_EQ(r.allocate(0), std::optional<std::uint64_t>(0));
  EXPECT_EQ(r.unreclaimed(0), 0u);
}

TEST(EpochBasedReclaimer, ActiveReaderBlocksReclamation) {
  typename NativeP::Env env;
  FreeLists free(2);
  free[0] = {0, 1};
  EpochBasedReclaimer<NativeP> r(env, 2, free);
  r.begin_op(1);  // Reader active: epoch advance is vetoed past +1.
  ASSERT_EQ(r.allocate(0), std::optional<std::uint64_t>(0));
  r.begin_op(0);
  r.end_op(0);
  r.retire(0, 0);
  ASSERT_EQ(r.allocate(0), std::optional<std::uint64_t>(1));
  r.retire(0, 1);
  EXPECT_EQ(r.allocate(0), std::nullopt)
      << "a stalled reader must block epoch reclamation";
  r.end_op(1);  // Reader leaves: the backlog matures.
  EXPECT_TRUE(r.allocate(0).has_value());
}

// ---------------------------------------------------- unit: private book
//
// The in-process bookkeeping backend both reclaimer cores program against:
// the words' mirrors, the retired-list release, the death handshake's drain
// and the epoch seizure's orphan re-stamp, exercised without a protocol on
// top.

// A fixed liveness verdict per process.
class FixedOracle final : public DeathOracle {
 public:
  explicit FixedOracle(std::vector<bool> dead) : dead_(std::move(dead)) {}
  bool is_dead(int pid) const override { return dead_[pid]; }

 private:
  std::vector<bool> dead_;
};

// The retired list of p in order, read through release without freeing.
std::vector<Retired> retired_of(PrivateBook<NativeP>& book, int p) {
  std::vector<Retired> seen;
  book.release(p, [&seen](std::uint64_t idx, std::uint64_t stamp) {
    seen.push_back(Retired{idx, stamp});
    return false;
  });
  return seen;
}

TEST(PrivateBook, WordsMirrorTheLastWriteAndClearIfSetSkipsAKnownValue) {
  typename NativeP::Env env;
  PrivateBook<NativeP>::Words<2> words(env, "test.word", 2, 0);
  EXPECT_EQ(words.size(), 4u);
  std::uint64_t before = native::step_counter();
  words.write(1, 1, 5);
  EXPECT_EQ(native::step_counter() - before, 1u);
  EXPECT_EQ(words.mirror(1, 1), 5u);
  EXPECT_EQ(words.mirror(1, 0), 0u);
  EXPECT_EQ(words.read(3), 5u) << "(p, i) lives at flat index p*k + i";

  before = native::step_counter();
  words.clear_if_set(1, 0, 0);  // The mirror proves the word holds 0.
  EXPECT_EQ(native::step_counter() - before, 0u);
  words.clear_if_set(1, 1, 0);
  EXPECT_EQ(native::step_counter() - before, 1u);
  EXPECT_EQ(words.mirror(1, 1), 0u);
  EXPECT_EQ(words.read(3), 0u);
}

TEST(PrivateBook, ReleaseFreesAcceptedRetireesAndKeepsTheRestInOrder) {
  typename NativeP::Env env;
  PrivateBook<NativeP> book(env, 1, one_process_pool(5));
  for (std::uint64_t i = 0; i < 5; ++i) {
    ASSERT_EQ(book.take_free(0), std::optional<std::uint64_t>(i));
    book.commit(0);
    book.begin_retire(0, i);
    book.end_retire(0, i, i);
  }
  EXPECT_TRUE(book.free_empty(0));
  EXPECT_EQ(book.unreclaimed(0), 5u);

  // Release the even indices: they return in retire order, the odd ones
  // stay listed in theirs.
  book.release(0, [](std::uint64_t idx, std::uint64_t) { return idx % 2 == 0; });
  EXPECT_EQ(book.free_count(0), 3u);
  EXPECT_EQ(book.unreclaimed(0), 2u);
  const std::vector<Retired> kept = retired_of(book, 0);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].index, 1u);
  EXPECT_EQ(kept[0].stamp, 1u);
  EXPECT_EQ(kept[1].index, 3u);
  EXPECT_EQ(kept[1].stamp, 3u);
  for (std::uint64_t want : {0u, 2u, 4u}) {
    EXPECT_EQ(book.take_free(0), std::optional<std::uint64_t>(want));
  }
  EXPECT_EQ(book.take_free(0), std::nullopt);
}

TEST(PrivateBook, SweepSuspectsThenConfirmsAndDrainsTheVictim) {
  typename NativeP::Env env;
  FreeLists free(2);
  free[0] = {0, 1};
  free[1] = {2, 3, 4};
  PrivateBook<NativeP> book(env, 2, free);
  // Survivor 0 holds stamps 1 and 3; victim 1 holds stamp 2, one free node
  // and one node allocated but never committed.
  const std::uint64_t mine[] = {0, 1};
  for (const std::uint64_t idx : mine) {
    ASSERT_EQ(book.take_free(0), std::optional<std::uint64_t>(idx));
    book.commit(0);
  }
  book.record_staged(0, &mine[0], 1, 1);
  book.record_staged(0, &mine[1], 1, 3);
  ASSERT_EQ(book.take_free(1), std::optional<std::uint64_t>(2));
  book.commit(1);
  book.begin_retire(1, 2);
  book.end_retire(1, 2, 2);
  ASSERT_EQ(book.take_free(1), std::optional<std::uint64_t>(3));
  EXPECT_EQ(book.stats().in_flight, 1u);

  int seized = 0;
  const auto seize = [&seized](int q) {
    EXPECT_EQ(q, 1);
    ++seized;
  };
  book.sweep(0, seize);
  EXPECT_EQ(seized, 0) << "sweep is inert without an oracle";

  const FixedOracle oracle({false, true});
  book.set_death_oracle(&oracle);
  book.sweep(0, seize);
  EXPECT_EQ(seized, 0) << "the first visit only suspects";
  book.sweep(0, seize);
  EXPECT_EQ(seized, 1) << "the second visit confirms and seizes";
  book.sweep(0, seize);
  EXPECT_EQ(seized, 1) << "an expropriated victim is drained once";

  const ReclaimStats s = book.stats();
  EXPECT_EQ(s.expropriations, 1u);
  EXPECT_EQ(s.quarantined, 1u) << "the uncommitted node is never freed";
  EXPECT_EQ(s.in_flight, 0u);
  EXPECT_EQ(s.free_nodes, 1u);
  EXPECT_EQ(s.retired_unreclaimed, 3u);
  EXPECT_EQ(book.unreclaimed(1), 0u);
  EXPECT_EQ(book.free_count(0), 1u);
  EXPECT_EQ(book.take_free(0), std::optional<std::uint64_t>(4));

  const std::vector<Retired> merged = retired_of(book, 0);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].stamp, 1u);
  EXPECT_EQ(merged[1].stamp, 2u) << "the drain keeps the list stamp-sorted";
  EXPECT_EQ(merged[1].index, 2u);
  EXPECT_EQ(merged[2].stamp, 3u);

  EXPECT_THROW(book.enter(1), LeaseRevoked) << "the victim self-fences";
  EXPECT_NO_THROW(book.enter(0));
}

TEST(PrivateBook, SuspectedLiveProcessVetoesOnEntry) {
  typename NativeP::Env env;
  FreeLists free(2);
  free[1] = {0};
  PrivateBook<NativeP> book(env, 2, free);
  const FixedOracle oracle({false, true});  // A false suspicion of 1.
  book.set_death_oracle(&oracle);
  int seized = 0;
  const auto seize = [&seized](int) { ++seized; };

  book.sweep(0, seize);  // Suspect.
  EXPECT_NO_THROW(book.enter(1)) << "a suspected process vetoes on entry";
  book.sweep(0, seize);  // Suspects afresh instead of confirming.
  EXPECT_EQ(seized, 0);
  EXPECT_NO_THROW(book.enter(1));
  EXPECT_EQ(book.stats().expropriations, 0u);
  EXPECT_EQ(book.free_count(1), 1u) << "a vetoed process keeps its lists";
}

TEST(PrivateBook, RestampOrphansRecordsTheInRetireNodeAndTheRingOnce) {
  typename NativeP::Env env;
  FreeLists free(2);
  PrivateBook<NativeP> book(env, 2, free);

  // Process 0 stopped inside retire with its deferred ring holding two.
  book.defer(0, 4);
  book.defer(0, 5);
  book.begin_retire(0, 3);
  EXPECT_EQ(book.deferred_count(0), 2u);
  book.restamp_orphans(0, 7);
  EXPECT_EQ(book.deferred_count(0), 0u);
  std::vector<Retired> listed = retired_of(book, 0);
  ASSERT_EQ(listed.size(), 3u);
  for (const Retired& r : listed) {
    EXPECT_EQ(r.stamp, 7u) << "node " << r.index;
  }
  EXPECT_EQ(listed[0].index, 3u) << "the in-retire node, then the ring";
  EXPECT_EQ(listed[1].index, 4u);
  EXPECT_EQ(listed[2].index, 5u);
  book.restamp_orphans(0, 8);  // The marker was consumed: nothing new.
  EXPECT_EQ(retired_of(book, 0).size(), 3u);

  // Process 1 stopped after its record landed but before the marker
  // cleared: the node is already listed and must not be listed twice.
  const std::uint64_t idx = 6;
  book.begin_retire(1, idx);
  book.record_staged(1, &idx, 1, 2);
  book.restamp_orphans(1, 9);
  listed = retired_of(book, 1);
  ASSERT_EQ(listed.size(), 1u);
  EXPECT_EQ(listed[0].index, idx);
  EXPECT_EQ(listed[0].stamp, 2u);
}

// -------------------------------------------------- unit: deferred epoch
//
// The announcement-caching mode's contract, mirroring the cached-guard
// hazard unit tests: what does NOT happen (end_op writes nothing, a retire
// takes no shared step), where the cost moved (the batch flush, the
// advance), and where the release point is (detach).

TEST(DeferredEpochReclaimerUnit, RetireParksInTheBatchBufferUntilFull) {
  using R = DeferredEpochReclaimer<NativeP>;
  typename NativeP::Env env;
  R r(env, 1, one_process_pool(static_cast<int>(R::kRetireBatch) + 2));
  std::vector<std::uint64_t> nodes;
  for (std::size_t i = 0; i < R::kRetireBatch; ++i) {
    const auto idx = r.allocate(0);
    ASSERT_TRUE(idx.has_value());
    r.commit(0);
    nodes.push_back(*idx);
  }
  for (std::size_t i = 0; i + 1 < R::kRetireBatch; ++i) r.retire(0, nodes[i]);
  EXPECT_EQ(r.pending_count(0), R::kRetireBatch - 1)
      << "a deferred retire must land in the batch buffer, not limbo";
  EXPECT_EQ(r.unreclaimed(0), R::kRetireBatch - 1)
      << "buffered retirees still count as unreclaimed";
  r.retire(0, nodes.back());  // The ring fills: one-shot flush.
  EXPECT_EQ(r.pending_count(0), 0u)
      << "a full batch must flush to limbo in one shot";
  EXPECT_EQ(r.unreclaimed(0), R::kRetireBatch);
}

TEST(DeferredEpochReclaimerUnit, ParkedAnnouncementPinsEpochUntilDetach) {
  using R = DeferredEpochReclaimer<NativeP>;
  typename NativeP::Env env;
  FreeLists free(2);
  free[0] = {0, 1};
  R r(env, 2, free);
  r.begin_op(1);
  r.end_op(1);  // Deferred: p1's announcement stays published.
  ASSERT_EQ(r.allocate(0), std::optional<std::uint64_t>(0));
  r.commit(0);
  ASSERT_EQ(r.allocate(0), std::optional<std::uint64_t>(1));
  r.commit(0);
  r.retire(0, 0);
  r.retire(0, 1);
  EXPECT_EQ(r.allocate(0), std::nullopt)
      << "an IDLE process's parked announcement must pin the epoch";
  r.detach(1);
  EXPECT_TRUE(r.allocate(0).has_value()) << "detach is the release point";
}

TEST(DeferredEpochReclaimerUnit, AllocatePressureFlushesOwnPendingBatch) {
  using R = DeferredEpochReclaimer<NativeP>;
  typename NativeP::Env env;
  R r(env, 1, one_process_pool(2));
  ASSERT_EQ(r.allocate(0), std::optional<std::uint64_t>(0));
  r.commit(0);
  ASSERT_EQ(r.allocate(0), std::optional<std::uint64_t>(1));
  r.commit(0);
  r.retire(0, 0);
  r.retire(0, 1);
  ASSERT_EQ(r.pending_count(0), 2u);
  // The pool is dry and both nodes sit unstamped in the pending ring;
  // allocate must flush the batch, self-refresh its own announcement, and
  // run the two advance rounds that mature a fresh stamp.
  EXPECT_TRUE(r.allocate(0).has_value())
      << "allocate under pressure must flush the pending batch first";
  EXPECT_EQ(r.pending_count(0), 0u);
}

// ------------------------- deferred epoch: the step/store/RMW ledger
//
// The Counted native platform's three thread-local counters (steps, stores,
// RMWs) observe the exact shared-memory shape. The protocol is identical on
// every policy — only orderings and fences change — so the shape measured
// here is the shape FastAsymmetric runs with relaxed stores.

TEST(DeferredEpochLedger, SteadyStateOpIsOneReadNoStoreNoRmw) {
  using R = DeferredEpochReclaimer<NativeP>;
  typename NativeP::Env env;
  R r(env, 1, one_process_pool(16));
  // Cold region: the announce miss pays read + announce store + validate.
  const std::uint64_t s0 = native::step_counter();
  const std::uint64_t w0 = native::store_counter();
  r.begin_op(0);
  EXPECT_EQ(native::step_counter() - s0, 3u) << "miss: read, announce, validate";
  EXPECT_EQ(native::store_counter() - w0, 1u) << "miss: exactly one store";
  r.end_op(0);
  EXPECT_EQ(native::step_counter() - s0, 3u) << "deferred end_op writes nothing";
  // Steady state: the cache hit is ONE shared read — no store, no RMW.
  const std::uint64_t s1 = native::step_counter();
  const std::uint64_t w1 = native::store_counter();
  const std::uint64_t m1 = native::rmw_counter();
  r.begin_op(0);
  r.end_op(0);
  EXPECT_EQ(native::step_counter() - s1, 1u) << "hit: one epoch read";
  EXPECT_EQ(native::store_counter() - w1, 0u) << "hit: zero shared stores";
  EXPECT_EQ(native::rmw_counter() - m1, 0u) << "op path: zero shared RMW";
  // A non-boundary retire is pure thread-private work.
  const auto idx = r.allocate(0);
  ASSERT_TRUE(idx.has_value());
  r.commit(0);
  const std::uint64_t s2 = native::step_counter();
  r.retire(0, *idx);
  EXPECT_EQ(native::step_counter() - s2, 0u)
      << "a buffered retire must take zero shared steps";
}

TEST(DeferredEpochLedger, AdvanceRmwAndStoresAmortizedAcrossTheBatch) {
  using R = DeferredEpochReclaimer<NativeP>;
  typename NativeP::Env env;
  constexpr std::uint64_t kOps = 16 * R::kRetireBatch;
  R r(env, 1, one_process_pool(static_cast<int>(kOps) + 2));
  r.begin_op(0);
  r.end_op(0);
  const std::uint64_t s = native::step_counter();
  const std::uint64_t w = native::store_counter();
  const std::uint64_t m = native::rmw_counter();
  for (std::uint64_t i = 0; i < kOps; ++i) {
    const auto idx = r.allocate(0);
    ASSERT_TRUE(idx.has_value());
    r.commit(0);
    r.begin_op(0);
    r.end_op(0);
    r.retire(0, *idx);
  }
  const std::uint64_t batches = kOps / R::kRetireBatch;
  EXPECT_LE(native::rmw_counter() - m, batches + 1)
      << "at most one advance CAS per full batch — 0 RMW per op, amortized";
  // Stores: one re-announce per advance that actually moved the epoch (the
  // next begin_op misses once). Everything else is the hit path.
  EXPECT_LE(native::store_counter() - w, batches + 1)
      << "at most one announce store per batch — well under 1 per op";
  EXPECT_LE(native::step_counter() - s, 3 * kOps)
      << "the whole pipeline stays within the eager protocol's step budget";
}

TEST(DeferredEpochLedger, HeavyFencesOnlyOnTheAdvanceSide) {
  using R = DeferredEpochReclaimer<AsymP>;
  typename AsymP::Env env;
  constexpr std::uint64_t kOps = 2 * R::kRetireBatch;
  R r(env, 1, one_process_pool(static_cast<int>(kOps) + 2));
  const std::uint64_t before = util::heavy_fence_count();
  for (std::uint64_t i = 0; i < kOps; ++i) {
    const auto idx = r.allocate(0);
    ASSERT_TRUE(idx.has_value());
    r.commit(0);
    r.begin_op(0);
    r.end_op(0);
    r.retire(0, *idx);
  }
  const std::uint64_t heavies = util::heavy_fence_count() - before;
  EXPECT_GE(heavies, 1u) << "the batch flush must run the heavy advance";
  EXPECT_LE(heavies, kOps / R::kRetireBatch + 1)
      << "one heavy fence per batch: the light announce never pays it";
  r.detach(0);
}

// ----------------------------------------- equivalence across reclaimers
//
// Reclamation decides when a node index recycles — it must never change
// the abstract object's behaviour. One scripted workload, each op run to
// completion on the simulator, must yield identical (method, arg, ret)
// sequences under all four reclaimers.

using Triple = std::tuple<Method, std::uint64_t, std::uint64_t>;

std::vector<Triple> triples(const std::vector<spec::Op>& ops) {
  std::vector<Triple> out;
  out.reserve(ops.size());
  for (const auto& op : ops) out.emplace_back(op.method, op.arg, op.ret);
  return out;
}

const std::vector<WorkloadOp>& stack_script() {
  static const std::vector<WorkloadOp> script = {
      {0, Method::kPush, 10}, {1, Method::kPush, 20}, {0, Method::kPush, 30},
      {1, Method::kPop, 0},   {0, Method::kPop, 0},   {1, Method::kPush, 40},
      {0, Method::kPush, 50}, {1, Method::kPop, 0},   {0, Method::kPop, 0},
      {1, Method::kPop, 0},   {0, Method::kPop, 0},   {1, Method::kPop, 0},
      {0, Method::kPush, 60}, {1, Method::kPush, 70}, {0, Method::kPop, 0},
      {1, Method::kPop, 0},
  };
  return script;
}

template <class R>
std::vector<Triple> run_stack_script() {
  using Stack = structures::TreiberStack<SimP, structures::TaggedCasHead<SimP>, R>;
  sim::SimWorld world(2);
  spec::History history;
  // Pool ≥ pushes per process so even the leaky reclaimer never drains.
  auto invoker = std::make_unique<harness::ContainerInvoker<Stack>>(
      world, history,
      std::make_unique<Stack>(
          world, 2, std::make_unique<structures::TaggedCasHead<SimP>>(world, 2),
          Stack::partition(2, 8)));
  for (const auto& op : stack_script()) {
    invoker->invoke(op);
    world.run_to_completion(op.pid);
  }
  return triples(history.ops());
}

TEST(ReclaimerEquivalence, StackHistoriesIdenticalAcrossReclaimers) {
  const auto reference = run_stack_script<TaggedReclaimer<SimP>>();
  EXPECT_EQ(run_stack_script<LeakyReclaimer<SimP>>(), reference);
  EXPECT_EQ(run_stack_script<HazardPointerReclaimer<SimP>>(), reference);
  EXPECT_EQ(run_stack_script<CachedHazardPointerReclaimer<SimP>>(), reference);
  EXPECT_EQ(run_stack_script<EpochBasedReclaimer<SimP>>(), reference);
  EXPECT_EQ(run_stack_script<DeferredEpochReclaimer<SimP>>(), reference);
}

template <class R>
std::vector<Triple> run_queue_script() {
  using Queue = structures::MsQueue<SimP, R>;
  sim::SimWorld world(2);
  spec::History history;
  auto invoker = std::make_unique<harness::ContainerInvoker<Queue>>(
      world, history, std::make_unique<Queue>(world, 2, 8));
  static const std::vector<WorkloadOp> script = {
      {0, Method::kEnq, 10}, {1, Method::kEnq, 20}, {0, Method::kDeq, 0},
      {1, Method::kEnq, 30}, {0, Method::kEnq, 40}, {1, Method::kDeq, 0},
      {0, Method::kDeq, 0},  {1, Method::kDeq, 0},  {0, Method::kDeq, 0},
      {1, Method::kEnq, 50}, {0, Method::kEnq, 60}, {1, Method::kDeq, 0},
      {0, Method::kDeq, 0},
  };
  for (const auto& op : script) {
    invoker->invoke(op);
    world.run_to_completion(op.pid);
  }
  return triples(history.ops());
}

TEST(ReclaimerEquivalence, QueueHistoriesIdenticalAcrossReclaimers) {
  const auto reference = run_queue_script<TaggedReclaimer<SimP>>();
  EXPECT_EQ(run_queue_script<LeakyReclaimer<SimP>>(), reference);
  EXPECT_EQ(run_queue_script<HazardPointerReclaimer<SimP>>(), reference);
  EXPECT_EQ(run_queue_script<CachedHazardPointerReclaimer<SimP>>(), reference);
  EXPECT_EQ(run_queue_script<EpochBasedReclaimer<SimP>>(), reference);
  EXPECT_EQ(run_queue_script<DeferredEpochReclaimer<SimP>>(), reference);
}

// ------------------------------- linearizability: (head × reclaimer) sweep

std::vector<WorkloadOp> random_stack_workload(int n, int ops, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<WorkloadOp> workload;
  for (int pid = 0; pid < n; ++pid) {
    for (int i = 0; i < ops; ++i) {
      if (rng.chance(1, 2)) {
        workload.push_back({pid, Method::kPush, rng.below(100)});
      } else {
        workload.push_back({pid, Method::kPop, 0});
      }
    }
  }
  return workload;
}

template <class Stack>
void expect_stack_linearizable_sweep() {
  for (int n : {2, 3}) {
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
      harness::ScheduleLog log;
      const auto ops = harness::run_random_schedule(
          n,
          [n](sim::SimWorld& world,
              spec::History& history) -> std::unique_ptr<harness::Invoker> {
            return std::make_unique<harness::ContainerInvoker<Stack>>(
                world, history,
                std::make_unique<Stack>(
                    world, n,
                    std::make_unique<typename Stack::HeadPolicy>(world, n),
                    Stack::partition(n, 6)));
          },
          random_stack_workload(n, 6, seed), seed * 733 + 11, &log);
      const auto result = spec::check_linearizable<spec::StackSpec>(
          ops, spec::StackSpec::initial());
      EXPECT_TRUE(result.linearizable)
          << "n=" << n << " seed=" << seed << "\n"
          << log.to_string() << "\n"
          << spec::explain(ops, result);
    }
  }
}

// A head-policy-aware wrapper so the sweep helper can construct the head.
template <class Head, class R>
struct SweepStack : structures::TreiberStack<SimP, Head, R> {
  using HeadPolicy = Head;
  using structures::TreiberStack<SimP, Head, R>::TreiberStack;
};

using TaggedHead = structures::TaggedCasHead<SimP>;
using RawHead = structures::RawCasHead<SimP>;

TEST(ReclaimerSweep, TaggedHeadTaggedReclaimer) {
  expect_stack_linearizable_sweep<SweepStack<TaggedHead, TaggedReclaimer<SimP>>>();
}
TEST(ReclaimerSweep, TaggedHeadLeakyReclaimer) {
  expect_stack_linearizable_sweep<SweepStack<TaggedHead, LeakyReclaimer<SimP>>>();
}
TEST(ReclaimerSweep, TaggedHeadHazardReclaimer) {
  expect_stack_linearizable_sweep<
      SweepStack<TaggedHead, HazardPointerReclaimer<SimP>>>();
}
TEST(ReclaimerSweep, TaggedHeadEpochReclaimer) {
  expect_stack_linearizable_sweep<
      SweepStack<TaggedHead, EpochBasedReclaimer<SimP>>>();
}

TEST(ReclaimerSweep, TaggedHeadCachedHazardReclaimer) {
  expect_stack_linearizable_sweep<
      SweepStack<TaggedHead, CachedHazardPointerReclaimer<SimP>>>();
}
TEST(ReclaimerSweep, TaggedHeadDeferredEpochReclaimer) {
  expect_stack_linearizable_sweep<
      SweepStack<TaggedHead, DeferredEpochReclaimer<SimP>>>();
}

// With deferred reuse (or no reuse), even the raw CAS head is safe: the
// reclamation policy *is* the ABA answer.
TEST(ReclaimerSweep, RawHeadLeakyReclaimer) {
  expect_stack_linearizable_sweep<SweepStack<RawHead, LeakyReclaimer<SimP>>>();
}
TEST(ReclaimerSweep, RawHeadHazardReclaimer) {
  expect_stack_linearizable_sweep<
      SweepStack<RawHead, HazardPointerReclaimer<SimP>>>();
}
TEST(ReclaimerSweep, RawHeadEpochReclaimer) {
  expect_stack_linearizable_sweep<
      SweepStack<RawHead, EpochBasedReclaimer<SimP>>>();
}
TEST(ReclaimerSweep, RawHeadCachedHazardReclaimer) {
  expect_stack_linearizable_sweep<
      SweepStack<RawHead, CachedHazardPointerReclaimer<SimP>>>();
}
TEST(ReclaimerSweep, RawHeadDeferredEpochReclaimer) {
  expect_stack_linearizable_sweep<
      SweepStack<RawHead, DeferredEpochReclaimer<SimP>>>();
}

template <class R>
void expect_queue_linearizable_sweep() {
  using Queue = structures::MsQueue<SimP, R>;
  for (int n : {2, 3}) {
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
      util::Xoshiro256 rng(seed);
      std::vector<WorkloadOp> workload;
      for (int pid = 0; pid < n; ++pid) {
        for (int i = 0; i < 6; ++i) {
          if (rng.chance(1, 2)) {
            workload.push_back({pid, Method::kEnq, rng.below(100)});
          } else {
            workload.push_back({pid, Method::kDeq, 0});
          }
        }
      }
      harness::ScheduleLog log;
      const auto ops = harness::run_random_schedule(
          n, harness::make_factory<harness::ContainerInvoker, Queue>(n, 6),
          workload, seed * 739 + 13, &log);
      const auto result = spec::check_linearizable<spec::QueueSpec>(
          ops, spec::QueueSpec::initial());
      EXPECT_TRUE(result.linearizable)
          << "n=" << n << " seed=" << seed << "\n"
          << log.to_string() << "\n"
          << spec::explain(ops, result);
    }
  }
}

TEST(ReclaimerSweep, QueueTaggedReclaimer) {
  expect_queue_linearizable_sweep<TaggedReclaimer<SimP>>();
}
TEST(ReclaimerSweep, QueueLeakyReclaimer) {
  expect_queue_linearizable_sweep<LeakyReclaimer<SimP>>();
}
TEST(ReclaimerSweep, QueueHazardReclaimer) {
  expect_queue_linearizable_sweep<HazardPointerReclaimer<SimP>>();
}
TEST(ReclaimerSweep, QueueCachedHazardReclaimer) {
  expect_queue_linearizable_sweep<CachedHazardPointerReclaimer<SimP>>();
}
TEST(ReclaimerSweep, QueueEpochReclaimer) {
  expect_queue_linearizable_sweep<EpochBasedReclaimer<SimP>>();
}
TEST(ReclaimerSweep, QueueDeferredEpochReclaimer) {
  expect_queue_linearizable_sweep<DeferredEpochReclaimer<SimP>>();
}

// ------------------------------ deterministic ABA schedule, deferred reuse
//
// The schedule that corrupts RawCasHead + TaggedReclaimer (immediate reuse;
// see test_structures.cpp TreiberAba.RawCasHeadIsCorrupted): p1 pauses
// mid-pop holding its protection, p0 pops both nodes and pushes a value
// that under immediate reuse recycles the very node p1 observed. The
// deferred-reuse reclaimers survive: hazard keeps the guarded node out of
// circulation (p1's CAS fails benignly), epoch refuses the allocation
// while p1's region pins the epoch, leaky never recycles at all.
//
// `pause_steps` = shared steps of a pop up to and including the read of
// head->next: 2 for an unguarded pop (head load, next read), 4 for hazard
// (+ guard publish, revalidation load) and 5 for epoch (+ global-epoch
// read, announce write, announce-validation re-read).
template <class Stack>
std::vector<spec::Op> run_deferred_aba_schedule(int pause_steps) {
  sim::SimWorld world(2);
  spec::History history;
  auto invoker = std::make_unique<harness::ContainerInvoker<Stack>>(
      world, history,
      std::make_unique<Stack>(
          world, 2, std::make_unique<typename Stack::HeadPolicy>(world, 2),
          Stack::partition(2, 2)));

  auto solo = [&](const WorkloadOp& op) {
    invoker->invoke(op);
    world.run_to_completion(op.pid);
  };

  solo({0, Method::kPush, 10});  // node0
  solo({0, Method::kPush, 20});  // node1; stack: 20 -> 10.

  // p1 starts pop and pauses once it has protected-and-read node1.
  invoker->invoke({1, Method::kPop, 0});
  for (int i = 0; i < pause_steps; ++i) world.step(1);

  solo({0, Method::kPop, 0});    // 20.
  solo({0, Method::kPop, 0});    // 10.
  solo({0, Method::kPush, 30});  // The ABA bait: may it reuse node1?

  world.run_to_completion(1);
  solo({0, Method::kPop, 0});
  solo({0, Method::kPop, 0});

  return history.ops();
}

TEST(DeferredReuseAba, HazardReclaimerSurvivesRawCasSchedule) {
  using Stack = SweepStack<RawHead, HazardPointerReclaimer<SimP>>;
  const auto ops = run_deferred_aba_schedule<Stack>(/*pause_steps=*/4);
  const auto result =
      spec::check_linearizable<spec::StackSpec>(ops, spec::StackSpec::initial());
  EXPECT_TRUE(result.linearizable)
      << "hazard pointers must defuse the raw-CAS ABA\n"
      << spec::explain(ops, result);
}

TEST(DeferredReuseAba, CachedHazardReclaimerSurvivesRawCasSchedule) {
  // A cold cache publishes exactly like the eager mode, so the pause lands
  // on the same step (4: head load, guard publish, revalidation load, next
  // read); what differs is everything after — and the history must not.
  using Stack = SweepStack<RawHead, CachedHazardPointerReclaimer<SimP>>;
  const auto ops = run_deferred_aba_schedule<Stack>(/*pause_steps=*/4);
  const auto result =
      spec::check_linearizable<spec::StackSpec>(ops, spec::StackSpec::initial());
  EXPECT_TRUE(result.linearizable)
      << "cached hazard guards must defuse the raw-CAS ABA\n"
      << spec::explain(ops, result);
}

TEST(DeferredReuseAba, EpochReclaimerSurvivesRawCasSchedule) {
  using Stack = SweepStack<RawHead, EpochBasedReclaimer<SimP>>;
  const auto ops = run_deferred_aba_schedule<Stack>(/*pause_steps=*/5);
  const auto result =
      spec::check_linearizable<spec::StackSpec>(ops, spec::StackSpec::initial());
  EXPECT_TRUE(result.linearizable)
      << "an active epoch region must block the recycling\n"
      << spec::explain(ops, result);
}

TEST(DeferredReuseAba, LeakyReclaimerSurvivesRawCasSchedule) {
  using Stack = SweepStack<RawHead, LeakyReclaimer<SimP>>;
  const auto ops = run_deferred_aba_schedule<Stack>(/*pause_steps=*/2);
  const auto result =
      spec::check_linearizable<spec::StackSpec>(ops, spec::StackSpec::initial());
  EXPECT_TRUE(result.linearizable)
      << "a never-reused index cannot ABA\n"
      << spec::explain(ops, result);
}

// --------------------------------------- retire bound: hazard vs epoch
//
// One reader (p1) stalls mid-pop holding its protection while p0 cycles
// push/pop. Hazard pointers bound p0's unreclaimed garbage by the scan
// threshold — a stalled reader pins only what its slots name. The epoch
// scheme's limbo grows linearly: p1's stale announcement freezes the
// global epoch, so nothing p0 retires ever matures. This is the space
// trade-off docs/RECLAMATION.md tabulates.

constexpr int kRetireCycles = 50;

TEST(RetireBound, HazardStalledReaderKeepsGarbageBounded) {
  using Stack = SweepStack<RawHead, HazardPointerReclaimer<SimP>>;
  sim::SimWorld world(2);
  Stack stack(world, 2, std::make_unique<structures::RawCasHead<SimP>>(world, 2),
              Stack::partition(2, kRetireCycles + 2));
  world.invoke(0, [&] { stack.push(0, 1); });
  world.run_to_completion(0);

  // p1 pauses mid-pop with its guard published and validated.
  std::optional<std::uint64_t> stalled;
  world.invoke(1, [&] { stalled = stack.pop(1); });
  for (int i = 0; i < 3; ++i) world.step(1);

  world.invoke(0, [&] {
    for (int i = 0; i < kRetireCycles; ++i) {
      ABA_CHECK(stack.push(0, static_cast<std::uint64_t>(i)));
      ABA_CHECK(stack.pop(0).has_value());
    }
  });
  world.run_to_completion(0);

  EXPECT_LE(stack.reclaimer().unreclaimed(0), stack.reclaimer().scan_threshold())
      << "hazard unreclaimed garbage must stay bounded under a stalled reader";

  world.run_to_completion(1);  // Unstall so the world can shut down cleanly.
  EXPECT_TRUE(stalled.has_value());
}

TEST(RetireBound, EpochStalledReaderGrowsLimboUnbounded) {
  using Stack = SweepStack<RawHead, EpochBasedReclaimer<SimP>>;
  sim::SimWorld world(2);
  Stack stack(world, 2, std::make_unique<structures::RawCasHead<SimP>>(world, 2),
              Stack::partition(2, kRetireCycles + 2));
  world.invoke(0, [&] { stack.push(0, 1); });
  world.run_to_completion(0);

  // p1 pauses mid-pop inside its epoch region: announce published and
  // validated (begin_op's read + write + validation re-read = 3 steps).
  std::optional<std::uint64_t> stalled;
  world.invoke(1, [&] { stalled = stack.pop(1); });
  for (int i = 0; i < 3; ++i) world.step(1);

  world.invoke(0, [&] {
    for (int i = 0; i < kRetireCycles; ++i) {
      ABA_CHECK(stack.push(0, static_cast<std::uint64_t>(i)));
      ABA_CHECK(stack.pop(0).has_value());
    }
  });
  world.run_to_completion(0);

  EXPECT_EQ(stack.reclaimer().unreclaimed(0),
            static_cast<std::size_t>(kRetireCycles))
      << "a stalled epoch reader must block all reclamation";

  world.run_to_completion(1);
  EXPECT_TRUE(stalled.has_value());
}

// ------------------------------ guard-cache worst-step schedules
//
// The cached mode's new failure surface is a guard that OUTLIVES its
// operation: end_op clears nothing, so a parked (or merely idle) reader's
// slot keeps pinning whatever it last protected. These schedules park a
// reader at exactly that step and drive the two attacks the design must
// survive — a retire storm against the pin, and a structure switch that
// leaves the pin behind.

TEST(GuardCacheSchedule, ParkedReaderPlusRetireStormStaysBounded) {
  // p1 parks mid-pop with its (cold-published) guard validated — the same
  // worst step as the eager RetireBound test — then additionally FINISHES
  // its op afterwards, which in the cached mode still releases nothing.
  using Stack = SweepStack<RawHead, CachedHazardPointerReclaimer<SimP>>;
  sim::SimWorld world(2);
  Stack stack(world, 2, std::make_unique<structures::RawCasHead<SimP>>(world, 2),
              Stack::partition(2, kRetireCycles + 2));
  world.invoke(0, [&] { stack.push(0, 1); });
  world.run_to_completion(0);

  std::optional<std::uint64_t> stalled;
  world.invoke(1, [&] { stalled = stack.pop(1); });
  for (int i = 0; i < 3; ++i) world.step(1);  // head, publish, revalidate.

  world.invoke(0, [&] {
    for (int i = 0; i < kRetireCycles; ++i) {
      ABA_CHECK(stack.push(0, static_cast<std::uint64_t>(i)));
      ABA_CHECK(stack.pop(0).has_value());
    }
  });
  world.run_to_completion(0);

  EXPECT_LE(stack.reclaimer().unreclaimed(0), stack.reclaimer().scan_threshold())
      << "a parked cached guard must pin only what its slots name";

  world.run_to_completion(1);
  EXPECT_TRUE(stalled.has_value());

  // p1's completed pop retired the node its own slot still caches: a scan
  // must keep it pinned (the +H headroom the mode buys its hit rate with)…
  world.invoke(1, [&] { stack.reclaimer().scan(1); });
  world.run_to_completion(1);
  EXPECT_EQ(stack.reclaimer().unreclaimed(1), 1u)
      << "the cached guard pins p1's own retiree across end_op";

  // …until the explicit epoch-style clear.
  world.invoke(1, [&] {
    stack.detach(1);
    stack.reclaimer().scan(1);
  });
  world.run_to_completion(1);
  EXPECT_EQ(stack.reclaimer().unreclaimed(1), 0u);
}

TEST(GuardCacheSchedule, StructureSwitchKeepsPinUntilDetach) {
  // p1 loses a pop race on stack A (so its cached guard names a node that
  // p0 retired), moves on to stack B, and works there indefinitely. A's
  // node stays pinned — reclaimers are per structure, so no amount of
  // activity on B releases it — until p1 detaches from A.
  using Stack = SweepStack<RawHead, CachedHazardPointerReclaimer<SimP>>;
  sim::SimWorld world(2);
  Stack a(world, 2, std::make_unique<structures::RawCasHead<SimP>>(world, 2),
          Stack::partition(2, 4));
  Stack b(world, 2, std::make_unique<structures::RawCasHead<SimP>>(world, 2),
          Stack::partition(2, 4));

  auto solo = [&](int pid, auto&& body) {
    world.invoke(pid, std::forward<decltype(body)>(body));
    world.run_to_completion(pid);
  };

  solo(0, [&] { a.push(0, 11); });

  // p1 parks mid-pop on A with its guard on the head node validated.
  std::optional<std::uint64_t> lost;
  world.invoke(1, [&] { lost = a.pop(1); });
  for (int i = 0; i < 3; ++i) world.step(1);

  // p0 wins the node and retires it — and then detaches (p0 is the
  // hygienic process here), so from now on the ONLY thing pinning the node
  // is p1's parked cached guard.
  std::optional<std::uint64_t> won;
  solo(0, [&] { won = a.pop(0); });
  EXPECT_EQ(won, std::optional<std::uint64_t>(11));
  solo(0, [&] { a.detach(0); });
  solo(0, [&] { a.reclaimer().scan(0); });
  EXPECT_EQ(a.reclaimer().unreclaimed(0), 1u);

  // p1 resumes: its CAS fails, the retry sees A empty — and the cached
  // guard still names the node it validated, completed op or not.
  world.run_to_completion(1);
  EXPECT_EQ(lost, std::nullopt);

  // p1 switches structures and works on B; A's pin is untouched.
  solo(1, [&] {
    ABA_CHECK(b.push(1, 22));
    ABA_CHECK(b.pop(1) == std::optional<std::uint64_t>(22));
  });
  solo(0, [&] { a.reclaimer().scan(0); });
  EXPECT_EQ(a.reclaimer().unreclaimed(0), 1u)
      << "switching structures without detach must keep the pin";

  // The explicit clear on structure switch releases A's node.
  solo(1, [&] { a.detach(1); });
  solo(0, [&] { a.reclaimer().scan(0); });
  EXPECT_EQ(a.reclaimer().unreclaimed(0), 0u);
}

// ------------------------------ epoch worst-step schedules (seed corpus)
//
// The epoch analogue of the GuardCacheSchedule pattern: park the reader at
// the worst step — right after its announcement became visible (begin_op's
// read + write + validation re-read = 3 steps) — and drive a retire storm.
// These scripted schedules are the seed bounds the searched adversary
// (tests/test_schedule_search.cpp) must meet or beat, and they pin the two
// claims the epoch design makes: the backlog is exactly the storm while
// the announcer is parked (nothing leaks, nothing matures early), and the
// 2-epoch grace bound releases everything once the announcer resumes.

TEST(EpochSchedule, ParkedAnnouncerFreezesUntilTwoAdvances) {
  using Stack = SweepStack<RawHead, EpochBasedReclaimer<SimP>>;
  using R = EpochBasedReclaimer<SimP>;
  sim::SimWorld world(2);
  Stack stack(world, 2, std::make_unique<structures::RawCasHead<SimP>>(world, 2),
              Stack::partition(2, kRetireCycles + 2));
  world.invoke(0, [&] { stack.push(0, 1); });
  world.run_to_completion(0);

  // p1 parks with its announcement published and validated.
  std::optional<std::uint64_t> stalled;
  world.invoke(1, [&] { stalled = stack.pop(1); });
  for (int i = 0; i < 3; ++i) world.step(1);

  world.invoke(0, [&] {
    for (int i = 0; i < kRetireCycles; ++i) {
      ABA_CHECK(stack.push(0, static_cast<std::uint64_t>(i)));
      ABA_CHECK(stack.pop(0).has_value());
    }
  });
  world.run_to_completion(0);

  // The parked announcement freezes the epoch after at most one advance
  // (p1 announced the then-current epoch, so one bump may slip through),
  // and from then on the whole storm sits in limbo: backlog == storm.
  EXPECT_EQ(stack.reclaimer().unreclaimed(0),
            static_cast<std::size_t>(kRetireCycles))
      << "a parked announcer must freeze all reclamation";

  world.run_to_completion(1);  // The announcer resumes and completes.
  EXPECT_TRUE(stalled.has_value());

  // First advance+flush round: only the retires stamped before the single
  // slipped-through advance (kAdvanceEvery of them) are 2 epochs old.
  world.invoke(0, [&] {
    stack.reclaimer().flush(0, stack.reclaimer().try_advance());
  });
  world.run_to_completion(0);
  EXPECT_EQ(stack.reclaimer().unreclaimed(0),
            static_cast<std::size_t>(kRetireCycles) - R::kAdvanceEvery)
      << "the grace period must release exactly the 2-epoch-old stamps";

  // Second round: everything matures. The bound is tight, not approximate.
  world.invoke(0, [&] {
    stack.reclaimer().flush(0, stack.reclaimer().try_advance());
  });
  world.run_to_completion(0);
  EXPECT_EQ(stack.reclaimer().unreclaimed(0), 0u)
      << "two advances past the resume must drain the whole backlog";
}

TEST(EpochSchedule, RetireStormCannotRecycleInsideGrace) {
  // The allocation-side view of the same schedule: with the announcer
  // parked, a storm that drains its free list must hit pool pressure —
  // allocate refusing to recycle limbo nodes IS the grace bound. Pool: 4
  // nodes for p0, so the 5th push must fail while p1 is parked.
  using Stack = SweepStack<RawHead, EpochBasedReclaimer<SimP>>;
  sim::SimWorld world(2);
  Stack stack(world, 2, std::make_unique<structures::RawCasHead<SimP>>(world, 2),
              Stack::partition(2, 4));

  // p1 parks mid-pop on the empty stack: its announcement alone pins the
  // epoch (no guard, no node — the epoch scheme's whole weakness).
  std::optional<std::uint64_t> stalled;
  world.invoke(1, [&] { stalled = stack.pop(1); });
  for (int i = 0; i < 3; ++i) world.step(1);

  bool fifth_push_ok = true;
  world.invoke(0, [&] {
    for (int i = 0; i < 4; ++i) {
      ABA_CHECK(stack.push(0, static_cast<std::uint64_t>(i)));
      ABA_CHECK(stack.pop(0).has_value());
    }
    fifth_push_ok = stack.push(0, 99);
  });
  world.run_to_completion(0);
  EXPECT_FALSE(fifth_push_ok)
      << "allocate must refuse to recycle a node inside the grace period";
  EXPECT_EQ(stack.reclaimer().unreclaimed(0), 4u);

  world.run_to_completion(1);
  EXPECT_EQ(stalled, std::nullopt);  // The stack was empty throughout.

  // Announcer quiescent: two advance+flush rounds mature the limbo and the
  // same push succeeds.
  bool push_after_grace = false;
  world.invoke(0, [&] {
    stack.reclaimer().flush(0, stack.reclaimer().try_advance());
    stack.reclaimer().flush(0, stack.reclaimer().try_advance());
    push_after_grace = stack.push(0, 99);
  });
  world.run_to_completion(0);
  EXPECT_TRUE(push_after_grace)
      << "once the grace period passes, the pool must recover";
  EXPECT_EQ(stack.reclaimer().unreclaimed(0), 0u);
}

// ------------------ deferred epoch: the announce-validate race, scripted
//
// The one new window deferred mode opens: an announcer that has WRITTEN its
// announcement but not yet run its validation read, with an advancer racing
// into the gap. The invariant the design claims — and this schedule pins —
// is that the epoch can pass such an announcement at most once (the
// advance's scan sees the store: current on the first attempt, a veto from
// then on), and the resumed announcer's validation loop re-announces the
// moved epoch rather than keeping the stale one.
TEST(DeferredEpochSchedule, AdvancerRacesTheAnnounceValidateWindow) {
  using R = DeferredEpochReclaimer<SimP>;
  sim::SimWorld world(2);
  FreeLists free(2);
  free[0] = {0, 1};
  R r(world, 2, free);

  // p1 parks between its announce store and its validation read (the miss
  // path's shared steps: global read, announce write, validation read).
  world.invoke(1, [&] { r.begin_op(1); });
  world.step(1);  // global read (epoch 0)
  world.step(1);  // announce write — visible from here

  // p0 races an advance into the window. The fresh announcement equals the
  // epoch it names, so the first advance passes…
  std::uint64_t advanced = 0;
  world.invoke(0, [&] { advanced = r.try_advance(0); });
  world.run_to_completion(0);
  EXPECT_EQ(advanced, 1u) << "a current announcement does not veto";

  // …and the second is vetoed: global is now announce+1, the reuse bound.
  world.invoke(0, [&] { advanced = r.try_advance(0); });
  world.run_to_completion(0);
  EXPECT_EQ(advanced, 1u)
      << "the epoch can never be more than one past an active announcement";

  // p1 resumes: its validation read observes the moved epoch and the loop
  // re-announces it, so the region ends announced at the current epoch.
  world.run_to_completion(1);
  world.invoke(1, [&] { r.end_op(1); });
  world.run_to_completion(1);

  // The re-announcement is current — the next advance passes — and then
  // the parked (deferred) cache pins the epoch again, completed op or not.
  world.invoke(0, [&] { advanced = r.try_advance(0); });
  world.run_to_completion(0);
  EXPECT_EQ(advanced, 2u) << "the re-announced epoch is current";
  world.invoke(0, [&] { advanced = r.try_advance(0); });
  world.run_to_completion(0);
  EXPECT_EQ(advanced, 2u) << "the parked cache pins the epoch after end_op";

  // detach is the release point, exactly as in the unit contract.
  world.invoke(1, [&] { r.detach(1); });
  world.run_to_completion(1);
  world.invoke(0, [&] { advanced = r.try_advance(0); });
  world.run_to_completion(0);
  EXPECT_EQ(advanced, 3u) << "a detached process stops pinning";
}

// --------------------------------------- retire_batch, the whole roster
//
// The batched verb must be observationally equivalent to the retire loop on
// every policy; what it buys is the amortization — one FIFO append run, one
// threshold check, one stamp read, one ring hand-off — which the ledger
// assertions below pin where the platform can observe it.

TEST(RetireBatch, TaggedBatchReusesInBatchOrder) {
  typename NativeP::Env env;
  TaggedReclaimer<NativeP> r(env, 1, one_process_pool(3));
  ASSERT_TRUE(r.allocate(0).has_value());
  ASSERT_TRUE(r.allocate(0).has_value());
  ASSERT_TRUE(r.allocate(0).has_value());
  const std::uint64_t batch[] = {2, 0, 1};
  r.retire_batch(0, batch, 3);
  EXPECT_EQ(r.allocate(0), std::optional<std::uint64_t>(2));
  EXPECT_EQ(r.allocate(0), std::optional<std::uint64_t>(0));
  EXPECT_EQ(r.allocate(0), std::optional<std::uint64_t>(1));
}

TEST(RetireBatch, LeakyBatchNeverReturns) {
  typename NativeP::Env env;
  LeakyReclaimer<NativeP> r(env, 1, one_process_pool(2));
  ASSERT_TRUE(r.allocate(0).has_value());
  ASSERT_TRUE(r.allocate(0).has_value());
  const std::uint64_t batch[] = {0, 1};
  r.retire_batch(0, batch, 2);
  EXPECT_EQ(r.allocate(0), std::nullopt);
  EXPECT_EQ(r.unreclaimed(0), 2u);
}

TEST(RetireBatch, HazardBatchPaysOneScanAndRespectsGuards) {
  typename NativeP::Env env;
  // The Counted threshold is the 2·H rule: 2 · (n · slots-per-process).
  const std::size_t threshold =
      2 * 2 * HazardPointerReclaimer<NativeP>::kSlotsPerProcess;
  FreeLists free(2);
  for (std::size_t i = 0; i < threshold; ++i) free[0].push_back(i);
  HazardPointerReclaimer<NativeP> r(env, 2, free);
  ASSERT_EQ(r.scan_threshold(), threshold);
  r.guard(1, 0, 0);  // p1 pins node 0 across the whole batch.
  std::vector<std::uint64_t> batch(threshold);
  for (std::size_t i = 0; i < threshold; ++i) batch[i] = i;
  r.retire_batch(0, batch.data(), threshold);
  EXPECT_EQ(r.unreclaimed(0), 1u)
      << "one threshold scan at the end must reclaim all but the pinned node";
}

TEST(RetireBatch, EagerEpochStampsTheWholeBatchUnderOneRead) {
  using R = EpochBasedReclaimer<NativeP>;
  typename NativeP::Env env;
  R r(env, 1, one_process_pool(8));
  const std::uint64_t batch[] = {5, 6, 7};
  const std::uint64_t s = native::step_counter();
  r.retire_batch(0, batch, 3);  // 3 < kAdvanceEvery: no advance fires.
  EXPECT_EQ(native::step_counter() - s, 1u)
      << "the whole batch must be stamped under one global-epoch read";
  EXPECT_EQ(r.unreclaimed(0), 3u);
}

TEST(RetireBatch, DeferredEpochRoutesThroughThePendingRing) {
  using R = DeferredEpochReclaimer<NativeP>;
  typename NativeP::Env env;
  const auto n = static_cast<int>(R::kRetireBatch) + 1;
  R r(env, 1, one_process_pool(n + 1));
  std::vector<std::uint64_t> batch;
  for (int i = 0; i < n; ++i) {
    const auto idx = r.allocate(0);
    ASSERT_TRUE(idx.has_value());
    r.commit(0);
    batch.push_back(*idx);
  }
  r.retire_batch(0, batch.data(), batch.size());
  EXPECT_EQ(r.pending_count(0), 1u)
      << "the overflow past one full ring stays buffered";
  EXPECT_EQ(r.unreclaimed(0), R::kRetireBatch + 1);
}

// ----------------------------------------------- native stress, all four

template <class R>
struct NativeStackCase {
  using Reclaimer = R;
};

template <class Case>
class NativeReclaimStress : public ::testing::Test {};

using NativeCases = ::testing::Types<
    NativeStackCase<TaggedReclaimer<NativeP>>,
    NativeStackCase<LeakyReclaimer<NativeP>>,
    NativeStackCase<HazardPointerReclaimer<NativeP>>,
    NativeStackCase<CachedHazardPointerReclaimer<NativeP>>,
    NativeStackCase<EpochBasedReclaimer<NativeP>>,
    NativeStackCase<DeferredEpochReclaimer<NativeP>>>;
TYPED_TEST_SUITE(NativeReclaimStress, NativeCases);

TYPED_TEST(NativeReclaimStress, StackBalancedAccounting) {
  using R = typename TypeParam::Reclaimer;
  using Stack =
      structures::TreiberStack<NativeP, structures::TaggedCasHead<NativeP>, R>;
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 1500;
  typename NativeP::Env env;
  // Pool sized so even the leaky reclaimer survives every push. At 192 KB
  // it is a mapped ObjectArray, outside AddressSanitizer's heap redzones.
  Stack stack(env, kThreads,
              std::make_unique<structures::TaggedCasHead<NativeP>>(env, kThreads),
              Stack::partition(kThreads, kOpsPerThread + 1));

  std::atomic<std::uint64_t> pushed_sum{0}, popped_sum{0};
  std::atomic<std::uint64_t> pushed_count{0}, popped_count{0};
  std::vector<std::thread> threads;
  for (int tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      util::Xoshiro256 rng(static_cast<std::uint64_t>(tid) + 1);
      for (int i = 0; i < kOpsPerThread; ++i) {
        if (rng.chance(1, 2)) {
          const std::uint64_t v = rng.below(1000) + 1;
          if (stack.push(tid, v)) {
            pushed_sum.fetch_add(v);
            pushed_count.fetch_add(1);
          }
        } else {
          const auto v = stack.pop(tid);
          if (v.has_value()) {
            popped_sum.fetch_add(*v);
            popped_count.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  // Drain and account: every pushed value must be popped exactly once.
  for (;;) {
    const auto v = stack.pop(0);
    if (!v.has_value()) break;
    popped_sum.fetch_add(*v);
    popped_count.fetch_add(1);
  }
  EXPECT_EQ(pushed_sum.load(), popped_sum.load());
  EXPECT_EQ(pushed_count.load(), popped_count.load());
}

TYPED_TEST(NativeReclaimStress, QueueBalancedAccounting) {
  using R = typename TypeParam::Reclaimer;
  using Queue = structures::MsQueue<NativeP, R>;
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 1000;
  typename NativeP::Env env;
  Queue queue(env, kThreads, /*nodes_per_process=*/kOpsPerThread + 1);

  std::atomic<std::uint64_t> enq_sum{0}, deq_sum{0};
  std::atomic<std::uint64_t> enq_count{0}, deq_count{0};
  std::vector<std::thread> threads;
  for (int tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      util::Xoshiro256 rng(static_cast<std::uint64_t>(tid) + 11);
      for (int i = 0; i < kOpsPerThread; ++i) {
        if (rng.chance(1, 2)) {
          const std::uint64_t v = rng.below(1000) + 1;
          if (queue.enqueue(tid, v)) {
            enq_sum.fetch_add(v);
            enq_count.fetch_add(1);
          }
        } else {
          const auto v = queue.dequeue(tid);
          if (v.has_value()) {
            deq_sum.fetch_add(*v);
            deq_count.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  for (;;) {
    const auto v = queue.dequeue(0);
    if (!v.has_value()) break;
    deq_sum.fetch_add(*v);
    deq_count.fetch_add(1);
  }
  EXPECT_EQ(enq_sum.load(), deq_sum.load());
  EXPECT_EQ(enq_count.load(), deq_count.load());
}

// ----------------------- Fast ≡ Counted ≡ FastAsymmetric determinism
//
// Token-serialized native workload (one thread moves at a time, so the
// schedule is a pure function of (n, rounds)) over the cached-guard hazard
// stack: the platform policy changes layout, instrumentation, orderings
// and fences — never results. FastAsymmetric joins the comparison because
// the fence pair must be behaviour-invisible too.
template <class P>
std::vector<std::uint64_t> tokenized_cached_hazard_trace(int n, int rounds) {
  using Stack = structures::TreiberStack<P, structures::TaggedCasHead<P>,
                                         CachedHazardPointerReclaimer<P>>;
  typename P::Env env;
  Stack stack(env, n,
              std::make_unique<structures::TaggedCasHead<P>>(env, n),
              Stack::partition(n, rounds + 2));
  std::vector<std::uint64_t> trace(static_cast<std::size_t>(n) * rounds, 0);
  std::atomic<int> turn{0};
  std::vector<std::thread> threads;
  for (int pid = 0; pid < n; ++pid) {
    threads.emplace_back([&, pid] {
      for (int r = 0; r < rounds; ++r) {
        const int my_step = r * n + pid;
        while (turn.load() != my_step) std::this_thread::yield();
        std::uint64_t result = 0;
        if ((pid + r) % 2 == 0) {
          result = stack.push(pid, static_cast<std::uint64_t>(my_step)) ? 1 : 0;
        } else {
          const auto v = stack.pop(pid);
          result = spec::pack_opt(v.has_value(), v.has_value() ? *v : 0);
        }
        trace[static_cast<std::size_t>(my_step)] = result;
        turn.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  return trace;
}

TEST(CachedHazardNativePolicy, FastAndAsymmetricMatchCounted) {
  using CountedP = native::NativePlatform<native::Counted>;
  using FastP = native::NativePlatform<native::Fast>;
  const auto counted = tokenized_cached_hazard_trace<CountedP>(3, 48);
  const auto fast = tokenized_cached_hazard_trace<FastP>(3, 48);
  const auto asym = tokenized_cached_hazard_trace<AsymP>(3, 48);
  EXPECT_EQ(counted, fast);
  EXPECT_EQ(counted, asym);
}

// The same token-serialized determinism for the deferred epoch policy. The
// batch size differs across platforms (4 on Counted/Fast, 64 on
// FastAsymmetric — kRetireBatch is platform-derived like the hazard scan
// floor), so the pool is sized so flush cadence can never surface as a
// refused allocation: the abstract results must be flush-cadence-blind.
template <class P>
std::vector<std::uint64_t> tokenized_deferred_epoch_trace(int n, int rounds) {
  using Stack = structures::TreiberStack<P, structures::TaggedCasHead<P>,
                                         DeferredEpochReclaimer<P>>;
  typename P::Env env;
  Stack stack(env, n,
              std::make_unique<structures::TaggedCasHead<P>>(env, n),
              Stack::partition(n, rounds + 2));
  std::vector<std::uint64_t> trace(static_cast<std::size_t>(n) * rounds, 0);
  std::atomic<int> turn{0};
  std::vector<std::thread> threads;
  for (int pid = 0; pid < n; ++pid) {
    threads.emplace_back([&, pid] {
      for (int r = 0; r < rounds; ++r) {
        const int my_step = r * n + pid;
        while (turn.load() != my_step) std::this_thread::yield();
        std::uint64_t result = 0;
        if ((pid + r) % 2 == 0) {
          result = stack.push(pid, static_cast<std::uint64_t>(my_step)) ? 1 : 0;
        } else {
          const auto v = stack.pop(pid);
          result = spec::pack_opt(v.has_value(), v.has_value() ? *v : 0);
        }
        trace[static_cast<std::size_t>(my_step)] = result;
        turn.fetch_add(1);
      }
      stack.detach(pid);  // The deferred-announce structure-exit contract.
    });
  }
  for (auto& t : threads) t.join();
  return trace;
}

TEST(DeferredEpochNativePolicy, FastAndAsymmetricMatchCounted) {
  using CountedP = native::NativePlatform<native::Counted>;
  using FastP = native::NativePlatform<native::Fast>;
  const auto counted = tokenized_deferred_epoch_trace<CountedP>(3, 48);
  const auto fast = tokenized_deferred_epoch_trace<FastP>(3, 48);
  const auto asym = tokenized_deferred_epoch_trace<AsymP>(3, 48);
  EXPECT_EQ(counted, fast);
  EXPECT_EQ(counted, asym);
}

// The same token-serialized determinism for the thread-hosted leased
// reclaimers (shm/lease_hosts.h): the pid-lease death protocol runs for
// real — begin_op self-checks the lease, retires beat the heartbeat,
// staleness gets suspected and vetoed (threads of a live process are
// unconditionally alive, so the handshake can never confirm). All leased
// state lives on the heap host regardless of platform, so the platform
// policy can only touch the structure side: Counted, Fast and
// FastAsymmetric must agree result-for-result.
template <class P, class Reclaimer>
std::vector<std::uint64_t> tokenized_leased_trace(int n, int rounds) {
  using Stack =
      structures::TreiberStack<P, structures::TaggedCasHead<P>, Reclaimer>;
  typename P::Env env;
  Stack stack(env, n,
              std::make_unique<structures::TaggedCasHead<P>>(env, n),
              Stack::partition(n, rounds + 2));
  std::vector<std::uint64_t> trace(static_cast<std::size_t>(n) * rounds, 0);
  std::atomic<int> turn{0};
  std::vector<std::thread> threads;
  for (int pid = 0; pid < n; ++pid) {
    threads.emplace_back([&, pid] {
      for (int r = 0; r < rounds; ++r) {
        const int my_step = r * n + pid;
        while (turn.load() != my_step) std::this_thread::yield();
        std::uint64_t result = 0;
        if ((pid + r) % 2 == 0) {
          result = stack.push(pid, static_cast<std::uint64_t>(my_step)) ? 1 : 0;
        } else {
          const auto v = stack.pop(pid);
          result = spec::pack_opt(v.has_value(), v.has_value() ? *v : 0);
        }
        trace[static_cast<std::size_t>(my_step)] = result;
        turn.fetch_add(1);
      }
      stack.detach(pid);  // Hazard modes release their published guards.
    });
  }
  for (auto& t : threads) t.join();
  return trace;
}

template <class Reclaimer>
void expect_leased_platform_agreement() {
  using CountedP = native::NativePlatform<native::Counted>;
  using FastP = native::NativePlatform<native::Fast>;
  const auto counted = tokenized_leased_trace<CountedP, Reclaimer>(3, 48);
  const auto fast = tokenized_leased_trace<FastP, Reclaimer>(3, 48);
  const auto asym = tokenized_leased_trace<AsymP, Reclaimer>(3, 48);
  EXPECT_EQ(counted, fast);
  EXPECT_EQ(counted, asym);
}

TEST(LeasedNativePolicy, HazardFastAndAsymmetricMatchCounted) {
  expect_leased_platform_agreement<shm::ThreadLeasedHazardReclaimer>();
}

TEST(LeasedNativePolicy, CachedHazardFastAndAsymmetricMatchCounted) {
  expect_leased_platform_agreement<shm::ThreadLeasedCachedHazardReclaimer>();
}

TEST(LeasedNativePolicy, EpochFastAndAsymmetricMatchCounted) {
  expect_leased_platform_agreement<shm::ThreadLeasedEpochReclaimer>();
}

// ------------------------------- asymmetric-fence native stress
//
// The real-concurrency workout of the FastAsymmetric platform: raw CAS
// head (reclamation IS the ABA answer) + cached guards + the
// membarrier-or-fallback fence pair, checked by value conservation. Under
// TSan the fence header degrades both sides to seq_cst thread fences, so
// the sanitizer checks the protocol it can model. The two tests' node
// pools (375 KB) are mapped ObjectArrays, outside AddressSanitizer's heap
// redzones.
TEST(NativeAsymmetricFenceStress, CachedHazardStackBalancedAccounting) {
  using Stack = structures::TreiberStack<AsymP, structures::RawCasHead<AsymP>,
                                         CachedHazardPointerReclaimer<AsymP>>;
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 1500;
  typename AsymP::Env env;
  // Headroom past the asymmetric scan batch (kHeavyScanFloor retires can be
  // in flight per process) plus the cached-guard pins.
  Stack stack(env, kThreads,
              std::make_unique<structures::RawCasHead<AsymP>>(env, kThreads),
              Stack::partition(kThreads, kOpsPerThread + 1));

  std::atomic<std::uint64_t> pushed_sum{0}, popped_sum{0};
  std::vector<std::thread> threads;
  for (int tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      util::Xoshiro256 rng(static_cast<std::uint64_t>(tid) + 31);
      for (int i = 0; i < kOpsPerThread; ++i) {
        if (rng.chance(1, 2)) {
          const std::uint64_t v = rng.below(1000) + 1;
          if (stack.push(tid, v)) pushed_sum.fetch_add(v);
        } else {
          const auto v = stack.pop(tid);
          if (v.has_value()) popped_sum.fetch_add(*v);
        }
      }
      stack.detach(tid);  // The structure-exit contract of cached guards.
    });
  }
  for (auto& t : threads) t.join();
  for (;;) {
    const auto v = stack.pop(0);
    if (!v.has_value()) break;
    popped_sum.fetch_add(*v);
  }
  EXPECT_EQ(pushed_sum.load(), popped_sum.load());
}

// The deferred epoch variant under the same real-concurrency fence workout:
// raw CAS head (the epoch grace period IS the ABA answer), light announces,
// heavy batched advances. The per-thread detach matters doubly here — a
// thread that exits without it would pin the epoch for every survivor.
TEST(NativeAsymmetricFenceStress, DeferredEpochStackBalancedAccounting) {
  using Stack = structures::TreiberStack<AsymP, structures::RawCasHead<AsymP>,
                                         DeferredEpochReclaimer<AsymP>>;
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 1500;
  typename AsymP::Env env;
  // Pool headroom past the batch: kRetireBatch retires can sit unstamped in
  // each process's pending ring on top of the frozen-epoch worst case.
  Stack stack(env, kThreads,
              std::make_unique<structures::RawCasHead<AsymP>>(env, kThreads),
              Stack::partition(kThreads, kOpsPerThread + 1));

  std::atomic<std::uint64_t> pushed_sum{0}, popped_sum{0};
  std::vector<std::thread> threads;
  for (int tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      util::Xoshiro256 rng(static_cast<std::uint64_t>(tid) + 47);
      for (int i = 0; i < kOpsPerThread; ++i) {
        if (rng.chance(1, 2)) {
          const std::uint64_t v = rng.below(1000) + 1;
          if (stack.push(tid, v)) pushed_sum.fetch_add(v);
        } else {
          const auto v = stack.pop(tid);
          if (v.has_value()) popped_sum.fetch_add(*v);
        }
      }
      stack.detach(tid);  // Release the parked announcement.
    });
  }
  for (auto& t : threads) t.join();
  for (;;) {
    const auto v = stack.pop(0);
    if (!v.has_value()) break;
    popped_sum.fetch_add(*v);
  }
  EXPECT_EQ(pushed_sum.load(), popped_sum.load());
}

// The configuration the end-to-end request queue ships: the MS queue on
// FastAsymmetric with deferred epochs (packed one-line nodes, light
// announces, heavy batched advances) under real threads. Every value names
// its producer and sequence number, so beyond conservation the check is
// exactly-once delivery and per-producer FIFO as each consumer saw it. The
// pool is a fraction of the enqueues, so nodes are reused through the
// epoch grace period many times over.
TEST(NativeAsymmetricFenceStress, DeferredEpochQueueExactlyOnce) {
  using Queue = structures::MsQueue<AsymP, DeferredEpochReclaimer<AsymP>>;
  constexpr int kThreads = 3;
  constexpr std::uint64_t kPerThread = 20000;
  constexpr int kNodesPerProcess = 1024;
  typename AsymP::Env env;
  Queue queue(env, kThreads, kNodesPerProcess);
  static_assert(kPerThread > kNodesPerProcess);  // Nodes must recycle.

  const auto tag = [](int producer, std::uint64_t seq) {
    return (static_cast<std::uint64_t>(producer) << 32) | seq;
  };
  std::vector<std::vector<std::uint64_t>> seen(kThreads + 1);
  std::atomic<bool> starved{false};
  std::vector<std::thread> threads;
  for (int tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      for (std::uint64_t seq = 0; seq < kPerThread; ++seq) {
        // A refused enqueue is pool pressure: the grace period has not
        // returned enough nodes yet. Retry; a bounded wait catches a leak.
        int refusals = 0;
        while (!queue.enqueue(tid, tag(tid, seq))) {
          if (++refusals > 1'000'000) {
            starved = true;
            break;
          }
          std::this_thread::yield();
        }
        if (const auto v = queue.dequeue(tid)) {
          seen[static_cast<std::size_t>(tid)].push_back(*v);
        }
      }
      queue.detach(tid);  // Release the parked announcement.
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_FALSE(starved.load());
  while (const auto v = queue.dequeue(0)) seen[kThreads].push_back(*v);

  std::vector<std::vector<int>> delivered(
      kThreads, std::vector<int>(kPerThread, 0));
  for (const auto& consumer : seen) {
    std::vector<std::int64_t> last(kThreads, -1);
    for (const std::uint64_t v : consumer) {
      const auto producer = static_cast<std::size_t>(v >> 32);
      const std::uint64_t seq = v & 0xFFFFFFFFu;
      ASSERT_LT(producer, static_cast<std::size_t>(kThreads));
      ASSERT_LT(seq, kPerThread);
      // FIFO per producer, as this consumer saw it.
      EXPECT_GT(static_cast<std::int64_t>(seq), last[producer]);
      last[producer] = static_cast<std::int64_t>(seq);
      ++delivered[producer][seq];
    }
  }
  for (int producer = 0; producer < kThreads; ++producer) {
    for (std::uint64_t seq = 0; seq < kPerThread; ++seq) {
      EXPECT_EQ(delivered[producer][seq], 1)
          << "producer " << producer << " seq " << seq;
    }
  }
}

}  // namespace
}  // namespace aba::reclaim
