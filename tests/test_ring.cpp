// The ring-buffer family (structures/ring_buffer.h) — the workloads where
// the paper's ABA-prevention price varies by role structure:
//
//   * RingSequential — single-process sanity on the Counted native
//     platform: FIFO order across many wraps, full/empty refusal, the
//     power-of-two capacity rounding contract, and sub-word payloads.
//   * RingStepCount — the paper-facing claim, machine-checked against the
//     Counted platform's step/rmw ledgers: SpscRing performs ZERO shared
//     RMW per operation (Lamport's single-writer positions have nothing to
//     CAS), MpscRing pays exactly one CAS per push and none per pop, and
//     MpmcRing pays one CAS per side — the prevention price appearing
//     exactly where a position word acquires a second writer.
//   * RingMpmcSim — random-schedule sweeps on the simulator, every history
//     checked against the capacity-strict BoundedQueueSpec (a refused push
//     must linearize at a truly-full instant, a refused pop at a
//     truly-empty one).
//   * RingMpscSim — the same sweep role-constrained for MpscRing (pops
//     confined to the single consumer), push-heavy over tiny capacities so
//     the full boundary — and with it the MPSC stale-tail refusal window —
//     stays hot under every schedule.
//   * RingScripted — deterministic SimWorld schedules walking the
//     ABA-shaped cases by hand: a stale tail CAS held across a full ring
//     wrap must FAIL (the per-slot sequence is an unbounded tag, so the
//     recycled position can never look fresh); a pop parked between
//     claiming its position and bumping the slot sequence must make a
//     concurrent push RETRY, not refuse (the strict refusal contract); and
//     an MPSC producer whose tail read went stale (the consumer drove head
//     PAST it) must re-read and succeed — the unsigned occupancy underflow
//     must never surface as a full-report on a non-full ring.
//   * RingModelCheck — the DPOR-pruned schedule search over the ring_mpmc
//     fixture with spec verdicts on: no reachable interleaving of the
//     adversarial workload shapes produces a non-linearizable history.
//   * ShmRing — the same SpscRing construction walked by two PROCESSES
//     over a shared-memory arena (fork, attach, layout-hash handshake),
//     transferring values FIFO across the boundary. (Named off the Ring*
//     prefix on purpose: the TSan CI job's Ring* filter must not pick up a
//     forking test.)
//   * RingBatch — the batched verbs (push_n/pop_n, the
//     BatchedBoundedContainer refinement): sequential semantics (partial
//     batches are answers, not refusals; FIFO preserved across wraps), the
//     amortization ledger (ONE position update — and on MPSC/MPMC ONE CAS —
//     per batch, machine-checked like RingStepCount), and scripted SimWorld
//     schedules for the concurrent shapes (MPSC pop_n drains only the
//     contiguous published prefix; an MPMC batch reservation waits out a
//     parked peer's publish rather than losing elements).
//   * RingStress — real threads on the FastRelaxed native platform, where
//     the release-publish/acquire-read edges do the work seq_cst did in
//     the instrumented mode: per-producer FIFO and value conservation
//     under contention (also the TSan target for these structures).
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "harness/adapters.h"
#include "harness/harness.h"
#include "native/native_platform.h"
#include "shm/shm_platform.h"
#include "shm/shm_segment.h"
#include "sim/schedule_search.h"
#include "sim/sim_platform.h"
#include "sim/sim_world.h"
#include "sim/types.h"
#include "spec/lin_checker.h"
#include "spec/specs.h"
#include "structures/concepts.h"
#include "structures/ring_buffer.h"
#include "util/rng.h"

namespace aba {
namespace {

using CountedP = native::NativePlatform<native::Counted>;
using FastP = native::NativePlatform<native::FastRelaxed>;

// The family speaks the uniform container verbs on every platform.
static_assert(structures::BoundedContainer<structures::SpscRing<CountedP>>);
static_assert(structures::BoundedContainer<structures::MpscRing<CountedP>>);
static_assert(structures::BoundedContainer<structures::MpmcRing<CountedP>>);
static_assert(structures::BoundedContainer<structures::MpmcRing<sim::SimPlatform>>);
static_assert(structures::BoundedContainer<structures::SpscRing<shm::ShmPlatform>>);

// The whole concurrent family additionally speaks the batched verbs.
static_assert(structures::BatchedBoundedContainer<structures::SpscRing<CountedP>>);
static_assert(structures::BatchedBoundedContainer<structures::MpscRing<CountedP>>);
static_assert(structures::BatchedBoundedContainer<structures::MpmcRing<CountedP>>);
static_assert(
    structures::BatchedBoundedContainer<structures::MpmcRing<sim::SimPlatform>>);
static_assert(
    structures::BatchedBoundedContainer<structures::SpscRing<shm::ShmPlatform>>);

// ---------------------------------------------------------------- sequential

template <class Ring>
void expect_fifo_across_wraps(Ring& ring) {
  const std::size_t cap = ring.capacity();
  EXPECT_EQ(ring.try_pop(1), std::nullopt);
  for (std::uint64_t round = 0; round < 3; ++round) {
    for (std::uint64_t i = 0; i < cap; ++i) {
      ASSERT_TRUE(ring.try_push(0, round * 100 + i));
    }
    EXPECT_FALSE(ring.try_push(0, 999));  // Full: refuse, don't overwrite.
    EXPECT_EQ(ring.approx_size(), cap);
    for (std::uint64_t i = 0; i < cap; ++i) {
      const auto v = ring.try_pop(1);
      ASSERT_TRUE(v.has_value());
      EXPECT_EQ(*v, round * 100 + i);
    }
    EXPECT_EQ(ring.try_pop(1), std::nullopt);
    EXPECT_EQ(ring.approx_size(), 0u);
  }
}

TEST(RingSequential, SpscFifoWrapAndBoundaries) {
  CountedP::Env env;
  structures::SpscRing<CountedP> ring(env, 2, 4);
  EXPECT_EQ(ring.capacity(), 4u);
  expect_fifo_across_wraps(ring);
}

TEST(RingSequential, MpscFifoWrapAndBoundaries) {
  CountedP::Env env;
  structures::MpscRing<CountedP> ring(env, 2, 4);
  expect_fifo_across_wraps(ring);
}

TEST(RingSequential, MpmcFifoWrapAndBoundaries) {
  CountedP::Env env;
  structures::MpmcRing<CountedP> ring(env, 2, 4);
  expect_fifo_across_wraps(ring);
}

TEST(RingSequential, CapacityRoundsUpToPowerOfTwoFloorTwo) {
  CountedP::Env env;
  // A 1-slot Vyukov ring aliases the push expectation with the pop
  // expectation, so the floor is 2 everywhere in the family.
  EXPECT_EQ(structures::SpscRing<CountedP>(env, 1, 1).capacity(), 2u);
  EXPECT_EQ(structures::MpscRing<CountedP>(env, 1, 3).capacity(), 4u);
  EXPECT_EQ(structures::MpmcRing<CountedP>(env, 1, 5).capacity(), 8u);
  EXPECT_EQ(structures::MpmcRing<CountedP>(env, 1, 8).capacity(), 8u);
}

TEST(RingSequential, SubWordTrivialPayloadRidesTheWord) {
  struct Point {
    std::int16_t x;
    std::int16_t y;
    bool operator==(const Point&) const = default;
  };
  CountedP::Env env;
  structures::SpscRing<CountedP, Point> ring(env, 2, 2);
  ASSERT_TRUE(ring.try_push(0, Point{-3, 7}));
  ASSERT_TRUE(ring.try_push(0, Point{100, -200}));
  EXPECT_EQ(ring.try_pop(1), (Point{-3, 7}));
  EXPECT_EQ(ring.try_pop(1), (Point{100, -200}));
  EXPECT_EQ(ring.try_pop(1), std::nullopt);
}

// ---------------------------------------------------------------- step shape
//
// The Counted platform's thread-local ledgers make the cost claims exact:
// rmw_counter() counts CAS steps only, a strict subset of step_counter().

TEST(RingStepCount, SpscZeroRmwPerOp) {
  CountedP::Env env;
  structures::SpscRing<CountedP> ring(env, 2, 8);
  const std::uint64_t steps0 = native::step_counter();
  const std::uint64_t rmws0 = native::rmw_counter();
  // Common path, wrapping many times...
  for (std::uint64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(ring.try_push(0, i));
    ASSERT_TRUE(ring.try_pop(1).has_value());
  }
  // ...and both refusal paths (the cache-miss re-reads are plain reads).
  for (std::uint64_t i = 0; i < 8; ++i) ASSERT_TRUE(ring.try_push(0, i));
  EXPECT_FALSE(ring.try_push(0, 99));
  for (std::uint64_t i = 0; i < 8; ++i) ASSERT_TRUE(ring.try_pop(1).has_value());
  EXPECT_EQ(ring.try_pop(1), std::nullopt);
  EXPECT_GT(native::step_counter(), steps0);  // The ops did take shared steps.
  EXPECT_EQ(native::rmw_counter(), rmws0);    // None of them was an RMW.
}

TEST(RingStepCount, MpscPushPaysOneCasPopPaysNone) {
  CountedP::Env env;
  structures::MpscRing<CountedP> ring(env, 2, 8);
  const std::uint64_t push_rmws0 = native::rmw_counter();
  for (std::uint64_t i = 0; i < 8; ++i) ASSERT_TRUE(ring.try_push(0, i));
  // Uncontended: exactly one tail CAS per push, nothing else.
  EXPECT_EQ(native::rmw_counter() - push_rmws0, 8u);
  const std::uint64_t pop_rmws0 = native::rmw_counter();
  for (std::uint64_t i = 0; i < 8; ++i) ASSERT_TRUE(ring.try_pop(1).has_value());
  EXPECT_EQ(ring.try_pop(1), std::nullopt);  // Empty check is reads only.
  EXPECT_EQ(native::rmw_counter(), pop_rmws0);  // The single consumer owns head.
}

TEST(RingStepCount, MpmcPaysOneCasPerSide) {
  CountedP::Env env;
  structures::MpmcRing<CountedP> ring(env, 2, 8);
  const std::uint64_t rmws0 = native::rmw_counter();
  for (std::uint64_t i = 0; i < 4; ++i) ASSERT_TRUE(ring.try_push(0, i));
  for (std::uint64_t i = 0; i < 4; ++i) ASSERT_TRUE(ring.try_pop(1).has_value());
  // Uncontended: one position CAS per operation — the full prevention price.
  EXPECT_EQ(native::rmw_counter() - rmws0, 8u);
}

// ------------------------------------------------------------- sim sweeps

// A seeded mixed workload in the kEnq/kDeq verb vocabulary; push arguments
// are distinct so the FIFO witness is unambiguous.
std::vector<harness::WorkloadOp> ring_workload(int num_processes,
                                               int ops_per_process,
                                               std::uint64_t seed,
                                               int push_bias_pct) {
  util::Xoshiro256 rng(seed);
  std::vector<harness::WorkloadOp> workload;
  std::uint64_t next_value = 1;
  for (int p = 0; p < num_processes; ++p) {
    for (int i = 0; i < ops_per_process; ++i) {
      if (rng.below(100) < static_cast<std::uint64_t>(push_bias_pct)) {
        workload.push_back({p, spec::Method::kEnq, next_value++});
      } else {
        workload.push_back({p, spec::Method::kDeq, 0});
      }
    }
  }
  return workload;
}

TEST(RingMpmcSim, LinearizableUnderRandomSchedules) {
  constexpr int kProcs = 3;
  // Small capacities keep the full boundary hot; the push-heavy mix hits
  // refusals, the pop-heavy mix hits empties.
  for (const std::size_t cap : {std::size_t{2}, std::size_t{4}}) {
    for (const int bias : {70, 35}) {
      for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        const auto factory = [cap, kProcs](sim::SimWorld& world,
                                           spec::History& history)
            -> std::unique_ptr<harness::Invoker> {
          using Ring = structures::MpmcRing<sim::SimPlatform>;
          return std::make_unique<harness::ContainerInvoker<Ring>>(
              world, history, std::make_unique<Ring>(world, kProcs, cap));
        };
        const auto workload =
            ring_workload(kProcs, 5, seed * 1000 + cap * 10 + bias, bias);
        const auto ops =
            harness::run_random_schedule(kProcs, factory, workload, seed);
        const auto result = spec::check_linearizable<spec::BoundedQueueSpec>(
            ops, spec::BoundedQueueSpec::initial(cap));
        ASSERT_TRUE(result.linearizable)
            << "cap=" << cap << " bias=" << bias << " seed=" << seed << "\n"
            << spec::explain(ops, result);
      }
    }
  }
}

// The MPSC counterpart: pops confined to pid 0 (MpscRing's single-consumer
// contract), producers push-heavy over tiny capacities so refusals — the
// path the fresh-head guard in MpscRing::try_push protects — fire under
// most schedules. A push that reads tail, loses the CPU while the consumer
// drains head past that read, and then refuses off the underflowed
// occupancy reports full on a non-full (possibly empty) ring; the
// BoundedQueueSpec check over every history is what convicts that shape.
TEST(RingMpscSim, LinearizableUnderRandomSchedules) {
  constexpr int kProcs = 3;  // pid 0 is the single consumer; pids 1+ produce.
  for (const std::size_t cap : {std::size_t{2}, std::size_t{4}}) {
    for (const int pushes_per_producer : {3, 5}) {
      for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        std::vector<harness::WorkloadOp> workload;
        std::uint64_t next_value = 1;
        for (int p = 1; p < kProcs; ++p) {
          for (int i = 0; i < pushes_per_producer; ++i) {
            workload.push_back({p, spec::Method::kEnq, next_value++});
          }
        }
        for (int i = 0; i < pushes_per_producer + 1; ++i) {
          workload.push_back({0, spec::Method::kDeq, 0});
        }
        const auto factory = [cap, kProcs](sim::SimWorld& world,
                                           spec::History& history)
            -> std::unique_ptr<harness::Invoker> {
          using Ring = structures::MpscRing<sim::SimPlatform>;
          return std::make_unique<harness::ContainerInvoker<Ring>>(
              world, history, std::make_unique<Ring>(world, kProcs, cap));
        };
        const auto ops =
            harness::run_random_schedule(kProcs, factory, workload, seed);
        const auto result = spec::check_linearizable<spec::BoundedQueueSpec>(
            ops, spec::BoundedQueueSpec::initial(cap));
        ASSERT_TRUE(result.linearizable)
            << "cap=" << cap << " pushes=" << pushes_per_producer
            << " seed=" << seed << "\n"
            << spec::explain(ops, result);
      }
    }
  }
}

// --------------------------------------------------------------- scripted
//
// Hand-walked schedules against the exact words, the shapes the file
// comment in ring_buffer.h promises.

// A producer reads tail and its slot's sequence, then stalls while the
// other process wraps the ENTIRE capacity-2 ring (two pushes, two pops).
// The stalled CAS still expects tail == 0; with unbounded positions the
// wrap can never bring the word back to 0, so the CAS must fail — the
// recycled-slot ABA that corrupts a raw-CAS Treiber head is structurally
// absent here.
TEST(RingScripted, StaleTailCasFailsAfterFullWrap) {
  sim::SimWorld world(2);
  world.set_trace_enabled(true);
  structures::MpmcRing<sim::SimPlatform> ring(world, 2, 2);

  bool p0_pushed = false;
  world.invoke(0, [&] { p0_pushed = ring.try_push(0, 100); });
  // Execute the tail read and the slot-sequence read; leave process 0
  // POISED on its tail CAS with expected == 0.
  ASSERT_EQ(world.step(0), sim::MethodStatus::kPoised);
  ASSERT_EQ(world.step(0), sim::MethodStatus::kPoised);

  std::optional<std::uint64_t> a, b;
  world.invoke(1, [&] {
    EXPECT_TRUE(ring.try_push(1, 1));
    EXPECT_TRUE(ring.try_push(1, 2));
    a = ring.try_pop(1);
    b = ring.try_pop(1);
  });
  world.run_to_completion(1);
  world.run_to_completion(0);  // Executes the stale CAS, then retries.

  EXPECT_TRUE(p0_pushed);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*a, 1u);
  EXPECT_EQ(*b, 2u);

  // Process 0's FIRST CAS in the trace is the stale one — it must have
  // failed (tail had moved to 4 by then, and positions never repeat).
  const auto trace = world.trace_copy();
  const auto first_cas = std::find_if(
      trace.begin(), trace.end(), [](const sim::StepRecord& rec) {
        return rec.pid == 0 && rec.kind == sim::OpKind::kCas;
      });
  ASSERT_NE(first_cas, trace.end());
  EXPECT_FALSE(first_cas->cas_success);
  EXPECT_EQ(first_cas->arg0, 0u);  // It still expected the pre-wrap tail.

  // The retried push landed at a fresh position: its value drains last.
  std::optional<std::uint64_t> c;
  world.invoke(1, [&] { c = ring.try_pop(1); });
  world.run_to_completion(1);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(*c, 100u);
}

// A pop claims its position (head CAS done) but parks BEFORE bumping the
// slot sequence. To a producer the slot looks round-behind — the stale-
// sequence signal that suggests "full" — but the fresh head read shows a
// slot is spoken for, so the push must RETRY, not refuse: refusing would
// linearize a full-report at an instant the ring held capacity-1 elements.
TEST(RingScripted, ClaimedButUnbumpedPopDoesNotFakeFull) {
  sim::SimWorld world(2);
  structures::MpmcRing<sim::SimPlatform> ring(world, 2, 2);

  bool setup_ok = false;
  world.invoke(1, [&] { setup_ok = ring.try_push(1, 7) && ring.try_push(1, 8); });
  world.run_to_completion(1);
  ASSERT_TRUE(setup_ok);

  // Park process 0 mid-pop: head read, seq read, head CAS, value read all
  // executed; the slot-sequence bump is announced but not performed.
  std::optional<std::uint64_t> popped;
  world.invoke(0, [&] { popped = ring.try_pop(0); });
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(world.step(0), sim::MethodStatus::kPoised);
  }

  bool p1_pushed = false;
  world.invoke(1, [&] { p1_pushed = ring.try_push(1, 9); });
  // Five full retry loops (tail read, seq read, head read each): were the
  // push willing to refuse off the stale sequence it would have completed.
  for (int i = 0; i < 15; ++i) world.step(1);
  EXPECT_FALSE(world.is_idle(1));

  world.run_to_completion(0);  // The pop publishes the freed slot...
  world.run_to_completion(1);  // ...and the parked push claims it.
  ASSERT_TRUE(popped.has_value());
  EXPECT_EQ(*popped, 7u);
  EXPECT_TRUE(p1_pushed);
}

// The MPSC stale-tail window, walked deterministically: a producer reads
// tail (t == 0) and parks BEFORE its head read. The other process then
// pushes twice and the consumer drains twice, driving head to 2 — PAST the
// parked producer's t. The unsigned occupancy t - head underflows to a
// huge value; a push willing to refuse off it would report full on an
// EMPTY ring, an instant the strict bounded spec cannot linearize. The
// fresh-head guard must instead classify t as stale, re-read the tail, and
// complete the push.
TEST(RingScripted, MpscStaleTailDoesNotFakeFull) {
  sim::SimWorld world(2);
  structures::MpscRing<sim::SimPlatform> ring(world, 2, 2);

  bool p0_pushed = false;
  world.invoke(0, [&] { p0_pushed = ring.try_push(0, 100); });
  // Execute the tail read only; park poised on the head read.
  ASSERT_EQ(world.step(0), sim::MethodStatus::kPoised);

  bool wrapped = false;
  std::optional<std::uint64_t> a, b;
  world.invoke(1, [&] {
    wrapped = ring.try_push(1, 1) && ring.try_push(1, 2);
    a = ring.try_pop(1);
    b = ring.try_pop(1);
  });
  world.run_to_completion(1);
  ASSERT_TRUE(wrapped);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());

  // Head (== 2) is now past the stale tail read (== 0): the resumed push
  // must retry off the fresh words and land, not refuse.
  world.run_to_completion(0);
  EXPECT_TRUE(p0_pushed);

  std::optional<std::uint64_t> c;
  world.invoke(1, [&] { c = ring.try_pop(1); });
  world.run_to_completion(1);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(*c, 100u);
}

// The contrast case: with no operation in flight, a full ring refuses a
// push immediately (and solo — refusal takes no help from other processes).
TEST(RingScripted, QuiescentFullRefusesSolo) {
  sim::SimWorld world(2);
  structures::MpmcRing<sim::SimPlatform> ring(world, 2, 2);
  bool setup_ok = false;
  world.invoke(1, [&] { setup_ok = ring.try_push(1, 7) && ring.try_push(1, 8); });
  world.run_to_completion(1);
  ASSERT_TRUE(setup_ok);

  bool pushed = true;
  world.invoke(0, [&] { pushed = ring.try_push(0, 9); });
  world.run_to_completion(0);
  EXPECT_FALSE(pushed);
}

// ------------------------------------------------------------ model check
//
// The schedule-search engine over the ring_mpmc fixture (a capacity-2
// MpmcRing on the simulator, reclaimer-free) with spec verdicts on: every
// explored interleaving of every adversarial workload shape must produce a
// history the capacity-strict BoundedQueueSpec accepts. The ring is not
// solo-terminating (a producer parked between claiming a slot and publishing
// its sequence word makes a consumer spin), so its kFixtures row cuts every
// path at 256 grants.
TEST(RingModelCheck, MpmcSurvivesSpecDrivenScheduleSearch) {
  const auto factory = search::reclaim_fixture("ring_mpmc");
  const search::SearchOptions options = search::mutation_search_options();
  std::uint64_t executions = 0;
  for (const auto& candidate : search::workload_candidates("ring_mpmc", 2, 2)) {
    search::ScheduleExplorer explorer(factory, 2, candidate.workload,
                                      search::pool_pressure_cost, options);
    const auto result = explorer.run();
    executions += result.executions;
    ASSERT_TRUE(result.violations.empty())
        << candidate.name << ": " << result.violations.front().detail;
  }
  EXPECT_GT(executions, 0u);
}

// Every search of the fixture inherits the cut, with no option set: the
// corpus-depth storm search (twelve cycles, a spinning consumer) finishes
// by truncating its spin paths instead of overflowing the stack.
TEST(RingModelCheck, CorpusStormSearchIsCutAtTheFixture) {
  search::ScheduleExplorer explorer(
      search::reclaim_fixture("ring_mpmc"), 2,
      search::storm_workload("ring_mpmc", 2, 12),
      search::retired_unreclaimed_cost, search::corpus_search_options());
  const search::SearchResult result = explorer.run();
  EXPECT_GT(result.truncated_paths, 0u);
  EXPECT_GT(result.executions, 0u);
}

// ------------------------------------------------------------ cross-process
//
// (Suite deliberately NOT named Ring*: the TSan CI job filters Ring* and
// must not pick up a forking test.)
TEST(ShmRing, SpscTransfersFifoAcrossFork) {
  constexpr std::uint64_t kCount = 512;
  constexpr std::size_t kCap = 8;
  const std::string name = shm::unique_segment_name();
  shm::ShmSegment seg = shm::ShmSegment::create(name, 1 << 20, 2);
  shm::ShmArena arena(seg, /*owner=*/true);
  shm::ShmPlatform::Env env{&arena, /*leases=*/nullptr, /*owner=*/true};
  structures::SpscRing<shm::ShmPlatform> ring(env, 2, kCap);
  seg.publish(arena.layout_hash());

  const pid_t child = ::fork();
  ASSERT_NE(child, -1);
  if (child == 0) {
    // Consumer process: attach, re-walk the identical construction
    // sequence (same words, same offsets), prove it with the layout hash,
    // then drain everything in order. Exit codes carry the verdict:
    // 0 ok, 1 order violation, 2 timed out waiting for the producer.
    shm::ShmSegment attached = shm::ShmSegment::attach(name);
    shm::ShmArena bound(attached, /*owner=*/false);
    shm::ShmPlatform::Env cenv{&bound, /*leases=*/nullptr, /*owner=*/false};
    structures::SpscRing<shm::ShmPlatform> consumer(cenv, 2, kCap);
    attached.verify_layout(bound.layout_hash());
    for (std::uint64_t expect = 0; expect < kCount; ++expect) {
      std::optional<std::uint64_t> v;
      for (int spin = 0; spin < 100000 && !v; ++spin) {
        v = consumer.try_pop(1);
        if (!v) ::usleep(50);
      }
      if (!v) ::_exit(2);
      if (*v != expect) ::_exit(1);
    }
    ::_exit(0);
  }

  for (std::uint64_t i = 0; i < kCount; ++i) {
    while (!ring.try_push(0, i)) ::usleep(50);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

// ----------------------------------------------------------------- batched
//
// The push_n/pop_n verbs (BatchedBoundedContainer): partial batches are
// answers rather than refusals, FIFO survives wraps, a batch of k moves
// under ONE position update (and on the CAS rings ONE CAS), and the two
// concurrent shapes the weaker batch contract carves out — the MPSC
// published-prefix cut and the MPMC transient peer-wait — hold under
// hand-walked SimWorld schedules.

template <class Ring>
void expect_batch_fifo(Ring& ring) {
  const std::size_t cap = ring.capacity();
  std::vector<std::uint64_t> in(cap + 2), out(cap + 2);
  std::uint64_t next = 0, expect = 0;
  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < in.size(); ++i) in[i] = next + i;
    // Oversized batch: exactly cap land — partial is the answer, and the
    // elements that land are the PREFIX of the input.
    ASSERT_EQ(ring.push_n(0, in.data(), in.size()), cap);
    next += cap;
    EXPECT_EQ(ring.push_n(0, in.data(), in.size()), 0u);  // Certified full.
    EXPECT_EQ(ring.approx_size(), cap);
    // Partial drain frees exactly that much space for the next batch...
    ASSERT_EQ(ring.pop_n(1, out.data(), 2), 2u);
    for (std::size_t i = 0; i < 2; ++i) EXPECT_EQ(out[i], expect++);
    for (std::size_t i = 0; i < in.size(); ++i) in[i] = next + i;
    ASSERT_EQ(ring.push_n(0, in.data(), in.size()), 2u);
    next += 2;
    // ...and an oversized pop drains everything, FIFO across the wrap.
    ASSERT_EQ(ring.pop_n(1, out.data(), out.size()), cap);
    for (std::size_t i = 0; i < cap; ++i) EXPECT_EQ(out[i], expect++);
    EXPECT_EQ(ring.pop_n(1, out.data(), out.size()), 0u);  // Certified empty.
    EXPECT_EQ(ring.approx_size(), 0u);
  }
  // The verbs interoperate: a single-op push drains through a batch pop.
  ASSERT_TRUE(ring.try_push(0, 777));
  ASSERT_EQ(ring.pop_n(1, out.data(), out.size()), 1u);
  EXPECT_EQ(out[0], 777u);
}

TEST(RingBatch, SpscSequentialFifoPartialAndWrap) {
  CountedP::Env env;
  structures::SpscRing<CountedP> ring(env, 2, 4);
  expect_batch_fifo(ring);
}

TEST(RingBatch, MpscSequentialFifoPartialAndWrap) {
  CountedP::Env env;
  structures::MpscRing<CountedP> ring(env, 2, 4);
  expect_batch_fifo(ring);
}

TEST(RingBatch, MpmcSequentialFifoPartialAndWrap) {
  CountedP::Env env;
  structures::MpmcRing<CountedP> ring(env, 2, 4);
  expect_batch_fifo(ring);
}

// The sequential member speaks the same vocabulary (minus the pid), with
// exact capacity and the peek() window the crash sweeps walk.
TEST(RingBatch, LocalRingBatchVerbsAndPeek) {
  structures::LocalRing<std::uint64_t> ring(3);  // Exact: no rounding.
  const std::uint64_t in[4] = {1, 2, 3, 4};
  std::uint64_t out[4] = {};
  EXPECT_EQ(ring.push_n(in, 4), 3u);  // Prefix lands, capacity is exact.
  EXPECT_EQ(ring.peek(0), 1u);
  EXPECT_EQ(ring.peek(2), 3u);
  EXPECT_EQ(ring.front(), 1u);
  EXPECT_EQ(ring.pop_n(out, 2), 2u);
  EXPECT_EQ(out[0], 1u);
  EXPECT_EQ(out[1], 2u);
  const std::uint64_t more[2] = {4, 5};
  EXPECT_EQ(ring.push_n(more, 2), 2u);  // Wraps the exact-capacity buffer.
  EXPECT_EQ(ring.peek(1), 4u);
  EXPECT_EQ(ring.pop_n(out, 4), 3u);
  EXPECT_EQ(out[0], 3u);
  EXPECT_EQ(out[1], 4u);
  EXPECT_EQ(out[2], 5u);
  EXPECT_EQ(ring.pop_n(out, 4), 0u);
}

// The amortization ledger, exact on the Counted platform. SPSC: a batch of
// k costs k slot writes plus ONE position write per side (plus at most one
// cache-refresh read) — still zero RMW. The fresh producer cache covers
// k = 6 <= cap = 8 without a head read, so the push is exactly 7 steps /
// 7 stores; the pop's stale tail cache forces the one refresh read: 8 steps.
TEST(RingBatch, SpscBatchPaysOnePositionWritePerSide) {
  CountedP::Env env;
  structures::SpscRing<CountedP> ring(env, 2, 8);
  std::uint64_t in[6] = {0, 1, 2, 3, 4, 5};
  std::uint64_t out[6] = {};
  const std::uint64_t steps0 = native::step_counter();
  const std::uint64_t stores0 = native::store_counter();
  const std::uint64_t rmws0 = native::rmw_counter();
  ASSERT_EQ(ring.push_n(0, in, 6), 6u);
  EXPECT_EQ(native::step_counter() - steps0, 7u);   // 6 slots + 1 tail write.
  EXPECT_EQ(native::store_counter() - stores0, 7u); // ...and nothing else.
  const std::uint64_t steps1 = native::step_counter();
  ASSERT_EQ(ring.pop_n(1, out, 6), 6u);
  EXPECT_EQ(native::step_counter() - steps1, 8u);  // +1 tail refresh read.
  EXPECT_EQ(native::rmw_counter(), rmws0);         // Zero RMW, batched too.
}

// MPSC: ONE tail CAS reserves all k positions (vs. k CASes single-op); the
// consumer's published-prefix drain stays RMW-free and frees the whole
// batch under one head write.
TEST(RingBatch, MpscBatchPaysOneCasForTheWholeBatch) {
  CountedP::Env env;
  structures::MpscRing<CountedP> ring(env, 2, 8);
  std::uint64_t in[6] = {0, 1, 2, 3, 4, 5};
  std::uint64_t out[6] = {};
  const std::uint64_t rmws0 = native::rmw_counter();
  ASSERT_EQ(ring.push_n(0, in, 6), 6u);
  EXPECT_EQ(native::rmw_counter() - rmws0, 1u);  // k = 6 elements, one CAS.
  const std::uint64_t steps0 = native::step_counter();
  ASSERT_EQ(ring.pop_n(1, out, 6), 6u);
  // 6 seq reads + 6 value reads + ONE head write, and no RMW at all.
  EXPECT_EQ(native::step_counter() - steps0, 13u);
  EXPECT_EQ(native::rmw_counter() - rmws0, 1u);
  for (std::uint64_t i = 0; i < 6; ++i) EXPECT_EQ(out[i], i);
  // Empty probe: the first unpublished sequence ends the batch in one read.
  const std::uint64_t steps1 = native::step_counter();
  EXPECT_EQ(ring.pop_n(1, out, 6), 0u);
  EXPECT_EQ(native::step_counter() - steps1, 1u);
}

// MPMC: one CAS per SIDE per batch — the full prevention price paid once
// for k elements instead of k times.
TEST(RingBatch, MpmcBatchPaysOneCasPerSide) {
  CountedP::Env env;
  structures::MpmcRing<CountedP> ring(env, 2, 8);
  std::uint64_t in[6] = {0, 1, 2, 3, 4, 5};
  std::uint64_t out[6] = {};
  const std::uint64_t rmws0 = native::rmw_counter();
  ASSERT_EQ(ring.push_n(0, in, 6), 6u);
  EXPECT_EQ(native::rmw_counter() - rmws0, 1u);
  ASSERT_EQ(ring.pop_n(1, out, 6), 6u);
  EXPECT_EQ(native::rmw_counter() - rmws0, 2u);
  for (std::uint64_t i = 0; i < 6; ++i) EXPECT_EQ(out[i], i);
}

// The batch contract's one deliberate weakening, walked by hand: a producer
// that reserved 3 positions with its single CAS but has published only the
// first parks mid-batch. The consumer's pop_n must drain exactly the
// contiguous published prefix — one element — and STOP at the reserved-but-
// unpublished slot rather than waiting it out (that is the single-op
// contract, not the batch one). After the producer resumes, the remainder
// drains in order: the cut never reorders or loses elements.
TEST(RingBatch, MpscPopNDrainsOnlyThePublishedPrefix) {
  sim::SimWorld world(2);
  structures::MpscRing<sim::SimPlatform> ring(world, 2, 4);

  const std::uint64_t in[3] = {10, 11, 12};
  std::size_t pushed = 0;
  world.invoke(0, [&] { pushed = ring.push_n(0, in, 3); });
  // tail read, head read, the ONE reserving CAS, slot0 value, slot0 seq:
  // position 0 is published, positions 1 and 2 are reserved only.
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(world.step(0), sim::MethodStatus::kPoised);
  }

  std::uint64_t out[4] = {};
  std::size_t got = 0;
  world.invoke(1, [&] { got = ring.pop_n(1, out, 4); });
  world.run_to_completion(1);  // Must complete — no waiting on the parked peer.
  EXPECT_EQ(got, 1u);
  EXPECT_EQ(out[0], 10u);

  world.run_to_completion(0);  // The producer publishes the rest...
  EXPECT_EQ(pushed, 3u);
  world.invoke(1, [&] { got = ring.pop_n(1, out, 4); });
  world.run_to_completion(1);  // ...and the remainder drains in order.
  ASSERT_EQ(got, 2u);
  EXPECT_EQ(out[0], 11u);
  EXPECT_EQ(out[1], 12u);
}

// The MPMC batch keeps the single-op transient-wait semantics instead: a
// pop_n that claimed two positions with its head CAS finds the first slot
// unpublished (the pusher parked between ITS reserving CAS and the
// publishes) and must wait the peer out — returning fewer than it claimed
// would lose the claimed elements forever.
TEST(RingBatch, MpmcPopNWaitsOutAParkedPushersPublish) {
  sim::SimWorld world(2);
  structures::MpmcRing<sim::SimPlatform> ring(world, 2, 4);

  const std::uint64_t in[2] = {1, 2};
  std::size_t pushed = 0;
  world.invoke(0, [&] { pushed = ring.push_n(0, in, 2); });
  // tail read, head read, reserving CAS — parked before any publish.
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(world.step(0), sim::MethodStatus::kPoised);
  }

  std::uint64_t out[2] = {};
  std::size_t got = 0;
  world.invoke(1, [&] { got = ring.pop_n(1, out, 2); });
  // The pop claims both positions, then spins on slot 0's sequence; were
  // it willing to abandon the claim it would have gone idle by now.
  for (int i = 0; i < 12; ++i) world.step(1);
  EXPECT_FALSE(world.is_idle(1));

  world.run_to_completion(0);  // Publish both...
  world.run_to_completion(1);  // ...and the parked batch completes whole.
  EXPECT_EQ(pushed, 2u);
  ASSERT_EQ(got, 2u);
  EXPECT_EQ(out[0], 1u);
  EXPECT_EQ(out[1], 2u);
}

// ---------------------------------------------------------------- stress

TEST(RingStress, SpscNativeTransfersInOrder) {
  FastP::Env env;
  structures::SpscRing<FastP> ring(env, 2, 64);
  constexpr std::uint64_t kCount = 200000;
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kCount; ++i) {
      while (!ring.try_push(0, i)) std::this_thread::yield();
    }
  });
  std::uint64_t expect = 0;
  bool in_order = true;
  while (expect < kCount) {
    const auto v = ring.try_pop(1);
    if (!v) {
      std::this_thread::yield();
      continue;
    }
    if (*v != expect) {
      in_order = false;
      break;
    }
    ++expect;
  }
  producer.join();
  EXPECT_TRUE(in_order);
  EXPECT_EQ(expect, kCount);
}

// Producer p pushes (p << 32 | seq) with seq strictly increasing. In any
// linearizable FIFO, each consumer's pops are a subsequence of the global
// pop order, so every consumer must see each producer's sequence numbers
// strictly increasing — and across consumers every value appears once.
void expect_streams_conserve_and_order(
    const std::vector<std::vector<std::uint64_t>>& streams, int num_producers,
    std::uint64_t per_producer) {
  std::vector<std::uint64_t> all;
  for (const auto& stream : streams) {
    std::vector<std::int64_t> last(static_cast<std::size_t>(num_producers), -1);
    for (const std::uint64_t v : stream) {
      const auto producer = static_cast<std::size_t>(v >> 32);
      const auto seq = static_cast<std::int64_t>(v & 0xffffffffu);
      ASSERT_LT(producer, last.size());
      EXPECT_GT(seq, last[producer]);
      last[producer] = seq;
      all.push_back(v);
    }
  }
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), per_producer * static_cast<std::uint64_t>(num_producers));
  std::size_t idx = 0;
  for (std::uint64_t p = 0; p < static_cast<std::uint64_t>(num_producers); ++p) {
    for (std::uint64_t s = 0; s < per_producer; ++s) {
      EXPECT_EQ(all[idx++], (p << 32) | s);
    }
  }
}

TEST(RingStress, MpmcNativeConservesAndOrdersPerProducer) {
  FastP::Env env;
  constexpr int kProducers = 2;
  constexpr int kConsumers = 2;
  constexpr std::uint64_t kPerProducer = 50000;
  constexpr std::uint64_t kTotal = kPerProducer * kProducers;
  structures::MpmcRing<FastP> ring(env, kProducers + kConsumers, 16);

  std::atomic<std::uint64_t> consumed{0};
  std::vector<std::vector<std::uint64_t>> streams(kConsumers);
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&ring, p] {
      for (std::uint64_t s = 0; s < kPerProducer; ++s) {
        const std::uint64_t v = (static_cast<std::uint64_t>(p) << 32) | s;
        while (!ring.try_push(p, v)) std::this_thread::yield();
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&ring, &consumed, &streams, c] {
      auto& out = streams[static_cast<std::size_t>(c)];
      while (consumed.load(std::memory_order_relaxed) < kTotal) {
        const auto v = ring.try_pop(kProducers + c);
        if (v) {
          out.push_back(*v);
          consumed.fetch_add(1, std::memory_order_relaxed);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  expect_streams_conserve_and_order(streams, kProducers, kPerProducer);
}

TEST(RingStress, MpscNativeSingleConsumerSeesPerProducerOrder) {
  FastP::Env env;
  constexpr int kProducers = 3;
  constexpr std::uint64_t kPerProducer = 50000;
  constexpr std::uint64_t kTotal = kPerProducer * kProducers;
  structures::MpscRing<FastP> ring(env, kProducers + 1, 32);

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ring, p] {
      for (std::uint64_t s = 0; s < kPerProducer; ++s) {
        const std::uint64_t v = (static_cast<std::uint64_t>(p) << 32) | s;
        while (!ring.try_push(p, v)) std::this_thread::yield();
      }
    });
  }
  std::vector<std::vector<std::uint64_t>> streams(1);
  while (streams[0].size() < kTotal) {
    const auto v = ring.try_pop(kProducers);
    if (v) {
      streams[0].push_back(*v);
    } else {
      std::this_thread::yield();
    }
  }
  for (auto& t : producers) t.join();
  expect_streams_conserve_and_order(streams, kProducers, kPerProducer);
}

}  // namespace
}  // namespace aba
