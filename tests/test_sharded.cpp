// Tests for the sharding layer (structures/sharded.h, util/shard.h) under
// both width policies: FixedWidth and the contention-adaptive AdaptiveWidth
// (structures/adaptive_sharded.h).
//
// The contract under test is the relaxed-pool semantics the header
// documents: each shard's sub-history is linearizable against the *exact*
// stack/queue spec (sharding adds no shared state, so every shard is just
// an ordinary TreiberStack/MsQueue), the composite conserves the value
// multiset, and "empty" is a per-scan observation charged to the home
// shard. Coverage:
//
//   * routing units: the home-shard hash is balanced over dense pids and
//     the probe order visits every shard exactly once;
//   * sequential semantics: per-shard LIFO/FIFO, elastic push fall-through
//     under pool pressure, steal on empty home shard;
//   * the adaptive width ladder: initial_shards clamping, and the
//     shrink-strands-nothing contract (elements parked in deactivated
//     shards drain through the full-width steal scan);
//   * the reclaim fingerprint the schedule search keys states by: the
//     fixed-width formula, and the adaptive routing state it adds;
//   * the deterministic steal race: a stealer and the home-shard popper
//     compete for the same last element under a step-controlled sim
//     schedule — exactly one wins, in both resolution orders, and the
//     per-shard histories stay linearizable;
//   * deterministic adaptation: a step-controlled sim schedule forces CAS
//     failures and watches the width grow, then contention-free traffic
//     shrinks it back — both decisions exact, not statistical;
//   * random-schedule sweeps across (shards × head policy × reclaimer) and
//     with adaptation live, splitting each history by the invoker's shard
//     tags and checking every sub-history, plus multiset conservation;
//   * Fast ≡ Counted determinism on a token-serialized native workload for
//     both sharded structures under both width policies (the platform
//     policy changes layout and instrumentation, never results or width
//     decisions);
//   * native balanced-accounting stress under both width policies (the
//     suites CI's TSan job runs).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <limits>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "core/llsc_single_cas.h"
#include "harness/adapters.h"
#include "harness/harness.h"
#include "native/native_platform.h"
#include "reclaim/epoch.h"
#include "reclaim/hazard_pointer.h"
#include "reclaim/leaky.h"
#include "reclaim/tagged.h"
#include "sim/sim_platform.h"
#include "spec/specs.h"
#include "structures/adaptive_sharded.h"
#include "structures/sharded.h"
#include "test_support.h"
#include "util/rng.h"
#include "util/shard.h"

namespace aba::structures {
namespace {

using SimP = sim::SimPlatform;
using NativeP = native::NativePlatform<native::Counted>;
using harness::WorkloadOp;
using spec::Method;
using aba::testing::expect_sharded_contract;
using aba::testing::random_container_workload;

// ------------------------------------------------------------- routing

static_assert(util::home_shard(0, 4) == 0);
static_assert(util::home_shard(5, 4) == 1);
static_assert(util::home_shard(7, 1) == 0);
static_assert(util::probe_shard(2, 0, 4) == 2);
static_assert(util::probe_shard(2, 3, 4) == 1);

TEST(ShardRouting, HomeShardBalancedOverDensePids) {
  for (int shards : {1, 2, 3, 4, 8}) {
    for (int n : {1, 2, 4, 8, 13}) {
      std::vector<int> count(static_cast<std::size_t>(shards), 0);
      for (int pid = 0; pid < n; ++pid) {
        const int s = util::home_shard(pid, shards);
        ASSERT_GE(s, 0);
        ASSERT_LT(s, shards);
        ++count[static_cast<std::size_t>(s)];
      }
      const auto [lo, hi] = std::minmax_element(count.begin(), count.end());
      EXPECT_LE(*hi - *lo, 1) << "shards=" << shards << " n=" << n;
    }
  }
}

TEST(ShardRouting, ProbeVisitsEveryShardExactlyOnce) {
  for (int shards : {1, 2, 4, 8}) {
    for (int home = 0; home < shards; ++home) {
      std::vector<bool> seen(static_cast<std::size_t>(shards), false);
      for (int attempt = 0; attempt < shards; ++attempt) {
        const int s = util::probe_shard(home, attempt, shards);
        EXPECT_FALSE(seen[static_cast<std::size_t>(s)]);
        seen[static_cast<std::size_t>(s)] = true;
      }
      EXPECT_EQ(util::probe_shard(home, 0, shards), home);
    }
  }
}

// ------------------------------------------------------------- fixtures

// Sharded stack whose head policy is (Env&, n)-constructible.
template <class Head, class R, int kShards, class Width = FixedWidth>
struct SweepShardedStack : ShardedTreiberStack<SimP, Head, R, kShards, Width> {
  using Base = ShardedTreiberStack<SimP, Head, R, kShards, Width>;
  SweepShardedStack(sim::SimWorld& world, int n, int per_process_per_shard,
                    typename Width::Options width = {})
      : Base(world, n, Base::make_heads(world, n), per_process_per_shard,
             width) {}
};

// Sharded stack over per-shard Figure-3 LL/SC heads (the heads wrap
// external LL/SC objects, so the array is built by hand).
template <class R, int kShards>
struct ShardedLlscStack {
  using Llsc = core::LlscSingleCas<SimP>;
  using Head = LlscHead<Llsc>;
  using Base = ShardedTreiberStack<SimP, Head, R, kShards>;
  static constexpr int kShardCount = kShards;

  ShardedLlscStack(sim::SimWorld& world, int n, int per_process_per_shard)
      : llscs(make_llscs(world, n)),
        stack(world, n, make_heads(), per_process_per_shard) {}

  bool push(int p, std::uint64_t v) { return stack.push(p, v); }
  std::optional<std::uint64_t> pop(int p) { return stack.pop(p); }
  // Uniform container verbs (structures/concepts.h) so the wrapper feeds
  // harness::ContainerInvoker like the structures it wraps.
  bool try_push(int p, std::uint64_t v) { return stack.push(p, v); }
  std::optional<std::uint64_t> try_pop(int p) { return stack.pop(p); }
  int last_shard(int p) const { return stack.last_shard(p); }

  std::array<std::unique_ptr<Llsc>, kShards> llscs;
  Base stack;

 private:
  static std::array<std::unique_ptr<Llsc>, kShards> make_llscs(
      sim::SimWorld& world, int n) {
    std::array<std::unique_ptr<Llsc>, kShards> out;
    for (auto& l : out) {
      l = std::make_unique<Llsc>(
          world, n,
          typename Llsc::Options{.value_bits = 32,
                                 .initial_value = kNullIndex,
                                 .initially_linked = false});
    }
    return out;
  }

  std::array<std::unique_ptr<Head>, kShards> make_heads() {
    std::array<std::unique_ptr<Head>, kShards> out;
    for (int s = 0; s < kShards; ++s) {
      out[static_cast<std::size_t>(s)] = std::make_unique<Head>(*llscs[s]);
    }
    return out;
  }
};

using TaggedHead = TaggedCasHead<SimP>;
using RawHead = RawCasHead<SimP>;

template <class R>
using SweepAdaptiveStack = SweepShardedStack<TaggedHead, R, 8, AdaptiveWidth>;

// ---------------------------------------------------------- sequential

TEST(ShardedStackSequential, PerShardLifoSingleProcess) {
  sim::SimWorld world(1);
  SweepShardedStack<TaggedHead, reclaim::TaggedReclaimer<SimP>, 2> s(world, 1, 4);
  std::optional<std::uint64_t> r1, r2, r3;
  world.invoke(0, [&] {
    s.push(0, 10);
    s.push(0, 20);
    s.push(0, 30);
    r1 = s.pop(0);
    r2 = s.pop(0);
    r3 = s.pop(0);
  });
  world.run_to_completion(0);
  // pid 0's home shard is 0 and its pool never drains, so everything lands
  // on shard 0 and the composite degenerates to plain LIFO.
  EXPECT_EQ(s.active_shards(), 2) << "a fixed width is the shard count";
  EXPECT_EQ(s.last_shard(0), 0);
  EXPECT_EQ(r1, std::optional<std::uint64_t>(30));
  EXPECT_EQ(r2, std::optional<std::uint64_t>(20));
  EXPECT_EQ(r3, std::optional<std::uint64_t>(10));
}

TEST(ShardedStackSequential, PushFallsThroughOnPoolPressure) {
  sim::SimWorld world(1);
  // One node per process per shard: the second push must fall through to
  // shard 1, the third must report pool exhaustion.
  SweepShardedStack<TaggedHead, reclaim::TaggedReclaimer<SimP>, 2> s(world, 1, 1);
  bool ok1 = false, ok2 = false, ok3 = true;
  std::optional<std::uint64_t> r1, r2, r3;
  world.invoke(0, [&] {
    ok1 = s.push(0, 10);
    const int first = s.last_shard(0);
    ABA_CHECK(first == 0);
    ok2 = s.push(0, 20);
    const int second = s.last_shard(0);
    ABA_CHECK(second == 1);
    ok3 = s.push(0, 30);
    r1 = s.pop(0);  // home shard 0
    r2 = s.pop(0);  // shard 0 empty -> steals 20 from shard 1
    r3 = s.pop(0);
  });
  world.run_to_completion(0);
  EXPECT_TRUE(ok1);
  EXPECT_TRUE(ok2);
  EXPECT_FALSE(ok3);
  EXPECT_EQ(r1, std::optional<std::uint64_t>(10));
  EXPECT_EQ(r2, std::optional<std::uint64_t>(20));
  EXPECT_EQ(r3, std::nullopt);
}

TEST(ShardedStackSequential, StealRecoversAnotherHomesValues) {
  sim::SimWorld world(2);
  SweepShardedStack<TaggedHead, reclaim::TaggedReclaimer<SimP>, 2> s(world, 2, 4);
  // pid 0 is homed on shard 0, pid 1 on shard 1.
  world.invoke(0, [&] { s.push(0, 77); });
  world.run_to_completion(0);
  std::optional<std::uint64_t> got;
  world.invoke(1, [&] { got = s.pop(1); });
  world.run_to_completion(1);
  EXPECT_EQ(got, std::optional<std::uint64_t>(77));
  EXPECT_EQ(s.last_shard(1), 0) << "pid 1 must have stolen from shard 0";
}

TEST(ShardedQueueSequential, PerShardFifoAndSteal) {
  sim::SimWorld world(2);
  ShardedMsQueue<SimP, reclaim::TaggedReclaimer<SimP>, 2> q(world, 2, 4);
  std::optional<std::uint64_t> r1, r2, r3;
  world.invoke(0, [&] {
    q.enqueue(0, 10);
    q.enqueue(0, 20);
    r1 = q.dequeue(0);
    r2 = q.dequeue(0);
  });
  world.run_to_completion(0);
  EXPECT_EQ(r1, std::optional<std::uint64_t>(10));
  EXPECT_EQ(r2, std::optional<std::uint64_t>(20));
  // A value enqueued on shard 0 is visible to a consumer homed on shard 1.
  world.invoke(0, [&] { q.enqueue(0, 30); });
  world.run_to_completion(0);
  world.invoke(1, [&] { r3 = q.dequeue(1); });
  world.run_to_completion(1);
  EXPECT_EQ(r3, std::optional<std::uint64_t>(30));
  EXPECT_EQ(q.last_shard(1), 0);
}

// ------------------------------------------------- adaptive width ladder

TEST(AdaptiveWidth, InitialShardsClampToThePowerOfTwoLadder) {
  sim::SimWorld world(1);
  for (const auto& [requested, expected] :
       {std::pair{1, 1}, {2, 2}, {3, 2}, {4, 4}, {7, 4}, {8, 8}, {100, 8}}) {
    SweepAdaptiveStack<reclaim::TaggedReclaimer<SimP>> s(
        world, 1, 2, AdaptiveOptions{.initial_shards = requested});
    EXPECT_EQ(s.active_shards(), expected) << "requested " << requested;
  }
}

// A sample interval no test reaches: the width stays at initial_shards.
constexpr std::uint32_t kNeverSample =
    std::numeric_limits<std::uint32_t>::max();

TEST(AdaptiveSequential, WidthOneIsPlainLifo) {
  sim::SimWorld world(1);
  SweepAdaptiveStack<reclaim::TaggedReclaimer<SimP>> s(world, 1, 4, {});
  std::optional<std::uint64_t> r1, r2;
  world.invoke(0, [&] {
    s.push(0, 10);
    s.push(0, 20);
    r1 = s.pop(0);
    r2 = s.pop(0);
  });
  world.run_to_completion(0);
  EXPECT_EQ(s.last_shard(0), 0);
  EXPECT_EQ(r1, std::optional<std::uint64_t>(20));
  EXPECT_EQ(r2, std::optional<std::uint64_t>(10));
}

TEST(AdaptiveSequential, ShrinkStrandsNothing) {
  // Every op closes a calm window with no cooldown, so each one halves the
  // width: pid 3's first push lands at width 4 on its home shard 3, its
  // second at width 2 on shard 1, and pid 0 then pops at width 1. Both
  // elements sit in parked shards; the full-width steal scan must find
  // them.
  sim::SimWorld world(4);
  SweepAdaptiveStack<reclaim::TaggedReclaimer<SimP>> s(
      world, 4, 2,
      AdaptiveOptions{
          .initial_shards = 4, .sample_interval = 1, .settle_checks = 0});
  world.invoke(3, [&] { s.push(3, 77); });
  world.run_to_completion(3);
  EXPECT_EQ(s.last_shard(3), 3);
  world.invoke(3, [&] { s.push(3, 78); });
  world.run_to_completion(3);
  EXPECT_EQ(s.last_shard(3), 1);
  ASSERT_EQ(s.active_shards(), 1);

  std::optional<std::uint64_t> first, second, third;
  world.invoke(0, [&] { first = s.pop(0); });
  world.run_to_completion(0);
  EXPECT_EQ(first, std::optional<std::uint64_t>(78));
  EXPECT_EQ(s.last_shard(0), 1) << "the take must land on a parked shard";
  world.invoke(0, [&] { second = s.pop(0); });
  world.run_to_completion(0);
  EXPECT_EQ(second, std::optional<std::uint64_t>(77));
  EXPECT_EQ(s.last_shard(0), 3);
  world.invoke(0, [&] { third = s.pop(0); });
  world.run_to_completion(0);
  EXPECT_EQ(third, std::nullopt);
  EXPECT_EQ(s.last_shard(0), 0) << "an empty take is charged to home";
}

TEST(AdaptiveSequential, PoolPressureFallsThroughToParkedShards) {
  // Width 1 with a one-node shard-0 pool: the second push must overflow
  // into the parked remainder rather than fail (elastic capacity spans the
  // full width, not just the active prefix).
  sim::SimWorld world(1);
  SweepAdaptiveStack<reclaim::TaggedReclaimer<SimP>> s(
      world, 1, 1, AdaptiveOptions{.sample_interval = kNeverSample});
  bool ok1 = false, ok2 = false;
  std::optional<std::uint64_t> r1, r2;
  world.invoke(0, [&] {
    ok1 = s.push(0, 10);
    const int first = s.last_shard(0);
    ABA_CHECK(first == 0);
    ok2 = s.push(0, 20);
    const int second = s.last_shard(0);
    ABA_CHECK(second == 1);
    r1 = s.pop(0);
    r2 = s.pop(0);
  });
  world.run_to_completion(0);
  EXPECT_TRUE(ok1);
  EXPECT_TRUE(ok2);
  EXPECT_EQ(s.active_shards(), 1);
  EXPECT_EQ(r1, std::optional<std::uint64_t>(10));
  EXPECT_EQ(r2, std::optional<std::uint64_t>(20));
}

// --------------------------------------------------- reclaim fingerprint

// The schedule search keys its states by reclaim_fingerprint, so the value
// must move with everything that steers later routing.

// Under FixedWidth: the per-shard reclaimer fingerprints, then the landing
// tags — the formula the committed sharded corpus was recorded under.
TEST(ShardedFingerprint, FixedWidthMixesShardsThenTags) {
  using R = reclaim::CachedHazardPointerReclaimer<SimP>;
  sim::SimWorld world(2);
  SweepShardedStack<RawHead, R, 2> s(world, 2, 2);
  world.invoke(1, [&] {
    ABA_CHECK(s.push(1, 5));
    ABA_CHECK(s.push(1, 6));
    ABA_CHECK(s.pop(1).has_value());
  });
  world.run_to_completion(1);
  reclaim::Fingerprint expected;
  for (int shard = 0; shard < 2; ++shard) {
    expected.mix(s.shard(shard).reclaimer().fingerprint());
  }
  expected.mix(static_cast<std::uint64_t>(-1));  // pid 0: no op yet.
  expected.mix(1);                               // pid 1: its home shard.
  EXPECT_EQ(harness::detail::impl_reclaim_fingerprint(s), expected.value());
}

// Under AdaptiveWidth the width, the cooldown and the adaptation window
// steer routing too.
TEST(ShardedFingerprint, AdaptiveWidthMixesItsRoutingState) {
  using Stack = SweepAdaptiveStack<reclaim::CachedHazardPointerReclaimer<SimP>>;
  const AdaptiveOptions options{
      .initial_shards = 2, .sample_interval = 3, .settle_checks = 0};
  sim::SimWorld world(1);
  Stack s(world, 1, 2, options);
  const auto fingerprint = [](const Stack& stack) {
    return harness::detail::impl_reclaim_fingerprint(stack);
  };
  const std::uint64_t at_start = fingerprint(s);

  world.invoke(0, [&] {
    ABA_CHECK(s.push(0, 5));
    ABA_CHECK(s.pop(0).has_value());
  });
  world.run_to_completion(0);
  ASSERT_EQ(s.active_shards(), 2);
  const std::uint64_t after_pair = fingerprint(s);
  EXPECT_NE(after_pair, at_start) << "a push and pop on one shard";

  // The third op closes a calm window: the width halves.
  world.invoke(0, [&] { ABA_CHECK(!s.pop(0).has_value()); });
  world.run_to_completion(0);
  ASSERT_EQ(s.active_shards(), 1);
  EXPECT_NE(fingerprint(s), after_pair) << "a width switch";

  // Two fresh stacks that differ only in their width.
  sim::SimWorld narrow_world(1);
  sim::SimWorld wide_world(1);
  const Stack narrow(narrow_world, 1, 2, AdaptiveOptions{.initial_shards = 1});
  const Stack wide(wide_world, 1, 2, AdaptiveOptions{.initial_shards = 2});
  EXPECT_NE(fingerprint(narrow), fingerprint(wide));
}

// --------------------------------------------- deterministic steal races

// p0 is homed on shard 0 and holds its one element; p1 (homed on shard 1)
// scans past its empty home shard and races p0's pop for that element.
// Step budget: shard-1 pop is 1 step (null head read); shard-0 pop is head
// read + next read + CAS. Pausing p1 after 3 steps leaves it poised on the
// CAS with a stale (index, tag) snapshot.
struct StealRace {
  using Stack = SweepShardedStack<TaggedHead, reclaim::TaggedReclaimer<SimP>, 2>;
  using Invoker = harness::ShardTaggedInvoker<Stack>;

  sim::SimWorld world{2};
  spec::History history;
  std::unique_ptr<Invoker> invoker;

  StealRace() {
    invoker = std::make_unique<Invoker>(world, history,
                                        std::make_unique<Stack>(world, 2, 2));
  }

  void solo(const WorkloadOp& op) {
    invoker->invoke(op);
    world.run_to_completion(op.pid);
  }
};

TEST(ShardedStealRace, StealerWinsHomePopperScansOn) {
  StealRace t;
  t.solo({0, Method::kPush, 42});  // shard 0 now holds 42.

  // p1 starts pop: scans empty shard 1 (1 step), reads shard 0's head and
  // the node's next (2 more), pauses poised on the CAS.
  t.invoker->invoke({1, Method::kPop, 0});
  for (int i = 0; i < 3; ++i) t.world.step(1);

  // p0 starts its own pop of shard 0 and pauses at the same point (head
  // read + next read; its CAS not yet issued).
  t.invoker->invoke({0, Method::kPop, 0});
  t.world.step(0);
  t.world.step(0);

  // The stealer's CAS fires first and wins the element.
  t.world.run_to_completion(1);
  // The home popper's CAS fails, its retry sees the empty shard 0, and its
  // steal scan finds shard 1 empty too: it must report empty.
  t.world.run_to_completion(0);

  const auto ops = t.history.ops();
  ASSERT_EQ(ops.size(), 3u);
  std::uint64_t p0_ret = 0, p1_ret = 0;
  for (const auto& op : ops) {
    if (op.method != Method::kPop) continue;
    (op.pid == 0 ? p0_ret : p1_ret) = op.ret;
  }
  EXPECT_EQ(p1_ret, spec::pack_opt(true, 42)) << "the stealer must win";
  EXPECT_EQ(p0_ret, spec::pack_opt(false, 0))
      << "the home popper must observe every shard empty";
  expect_sharded_contract<spec::StackSpec>(ops, t.invoker->shard_of(), 2,
                                           Method::kPop);
}

TEST(ShardedStealRace, HomePopperWinsStealerScansOn) {
  StealRace t;
  t.solo({0, Method::kPush, 42});

  // Same pause point for the stealer...
  t.invoker->invoke({1, Method::kPop, 0});
  for (int i = 0; i < 3; ++i) t.world.step(1);

  // ...but this time the home popper runs to completion first.
  t.solo({0, Method::kPop, 0});

  // The stealer's stale CAS fails; its retry observes shard 0 empty and the
  // scan is exhausted: empty.
  t.world.run_to_completion(1);

  const auto ops = t.history.ops();
  std::uint64_t p0_ret = 0, p1_ret = 0;
  for (const auto& op : ops) {
    if (op.method != Method::kPop) continue;
    (op.pid == 0 ? p0_ret : p1_ret) = op.ret;
  }
  EXPECT_EQ(p0_ret, spec::pack_opt(true, 42)) << "the home popper must win";
  EXPECT_EQ(p1_ret, spec::pack_opt(false, 0));
  expect_sharded_contract<spec::StackSpec>(ops, t.invoker->shard_of(), 2,
                                           Method::kPop);
}

// ------------------------------------------------ deterministic adaptation

// Forces one CAS failure on p1: p1 parks poised on its push CAS (3 steps:
// value write, head load, next write), p0 completes a push moving the
// head, then p1 resumes — fail, retry, succeed.
template <class Stack>
void forced_cas_failure_round(sim::SimWorld& world, Stack& s,
                              std::uint64_t& v) {
  bool ok1 = false;
  world.invoke(1, [&s, &ok1, value = v] { ok1 = s.push(1, value); });
  for (int i = 0; i < 3; ++i) world.step(1);
  bool ok0 = false;
  world.invoke(0, [&s, &ok0, value = v + 1] { ok0 = s.push(0, value); });
  world.run_to_completion(0);
  world.run_to_completion(1);
  ABA_CHECK(ok0 && ok1);
  v += 2;
}

TEST(AdaptiveAdaptation, GrowsUnderForcedCasFailuresThenShrinksWhenCalm) {
  sim::SimWorld world(2);
  // Every op is its own adaptation window, no cooldown: each decision is
  // visible immediately, and the schedule below controls the failure rate
  // exactly.
  const AdaptiveOptions options{.initial_shards = 1,
                                .sample_interval = 1,
                                .grow_threshold = 0.40,
                                .shrink_threshold = 0.05,
                                .settle_checks = 0};
  SweepAdaptiveStack<reclaim::TaggedReclaimer<SimP>> s(world, 2, 64, options);
  ASSERT_EQ(s.active_shards(), 1);

  // p0's solo push closes a zero-failure window first (no width to shed at
  // 1), then p1's completion closes a window with 1 failure in 1 op.
  std::uint64_t v = 100;
  forced_cas_failure_round(world, s, v);
  EXPECT_EQ(s.width_policy().cas_failures(), 1u);
  EXPECT_EQ(s.active_shards(), 2) << "a hot failure window must double width";
  const auto switches_after_grow = s.width_policy().switches();
  EXPECT_EQ(switches_after_grow, 1u);

  // At width 2 the processes are homed apart (0 -> shard 0, 1 -> shard 1):
  // calm, failure-free windows must walk the width back down.
  world.invoke(0, [&] { ABA_CHECK(s.push(0, 1)); });
  world.run_to_completion(0);
  EXPECT_EQ(s.active_shards(), 1) << "a zero-failure window must halve width";
  EXPECT_EQ(s.width_policy().switches(), switches_after_grow + 1);
}

TEST(AdaptiveAdaptation, SettleChecksDampOscillation) {
  sim::SimWorld world(2);
  const AdaptiveOptions options{.initial_shards = 1,
                                .sample_interval = 1,
                                .grow_threshold = 0.40,
                                .shrink_threshold = 0.05,
                                .settle_checks = 2};
  SweepAdaptiveStack<reclaim::TaggedReclaimer<SimP>> s(world, 2, 64, options);

  std::uint64_t v = 100;
  forced_cas_failure_round(world, s, v);
  ASSERT_EQ(s.active_shards(), 2);

  // The two windows after a switch are cooldown: calm traffic must NOT
  // shrink yet…
  for (int i = 0; i < 2; ++i) {
    world.invoke(0, [&] { ABA_CHECK(s.push(0, 1)); });
    world.run_to_completion(0);
    EXPECT_EQ(s.active_shards(), 2) << "cooldown window " << i;
  }
  // …and the third may.
  world.invoke(0, [&] { ABA_CHECK(s.push(0, 1)); });
  world.run_to_completion(0);
  EXPECT_EQ(s.active_shards(), 1);
}

// --------------------------------------------- sweeps: shards × head × R

// Stack is built from (world, n, 4, width...); the history is split over
// all Stack::kShardCount shards, whatever the width did mid-run.
template <class Stack, class... Width>
void sharded_stack_sweep(Width... width) {
  constexpr int kShards = Stack::kShardCount;
  for (int n : {2, 3}) {
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      sim::SimWorld world(n);
      world.set_trace_enabled(false);
      spec::History history;
      harness::ShardTaggedInvoker<Stack> invoker(
          world, history, std::make_unique<Stack>(world, n, 4, width...));
      harness::ScheduleLog log;
      harness::drive_random_schedule(
          world, invoker, n,
          random_container_workload(n, 6, seed, Method::kPush, Method::kPop),
          seed * 811 + 17, &log);
      SCOPED_TRACE(::testing::Message() << "shards=" << kShards << " n=" << n
                                        << " seed=" << seed << "\n"
                                        << log.to_string());
      expect_sharded_contract<spec::StackSpec>(history.ops(),
                                               invoker.shard_of(), kShards,
                                               Method::kPop);
    }
  }
}

template <template <class, class, int> class StackT, class Head, class R>
void sharded_stack_sweep_over_shards() {
  sharded_stack_sweep<StackT<Head, R, 1>>();
  sharded_stack_sweep<StackT<Head, R, 2>>();
  sharded_stack_sweep<StackT<Head, R, 4>>();
}

TEST(ShardedSweep, TaggedHeadTaggedReclaimer) {
  sharded_stack_sweep_over_shards<SweepShardedStack, TaggedHead,
                                  reclaim::TaggedReclaimer<SimP>>();
}
TEST(ShardedSweep, TaggedHeadLeakyReclaimer) {
  sharded_stack_sweep_over_shards<SweepShardedStack, TaggedHead,
                                  reclaim::LeakyReclaimer<SimP>>();
}
TEST(ShardedSweep, TaggedHeadHazardReclaimer) {
  sharded_stack_sweep_over_shards<SweepShardedStack, TaggedHead,
                                  reclaim::HazardPointerReclaimer<SimP>>();
}
TEST(ShardedSweep, TaggedHeadEpochReclaimer) {
  sharded_stack_sweep_over_shards<SweepShardedStack, TaggedHead,
                                  reclaim::EpochBasedReclaimer<SimP>>();
}
// Deferred reuse keeps even a raw CAS head safe, per shard exactly as
// unsharded (the reclaimer axis carries over with no cross-shard work).
TEST(ShardedSweep, RawHeadHazardReclaimer) {
  sharded_stack_sweep_over_shards<SweepShardedStack, RawHead,
                                  reclaim::HazardPointerReclaimer<SimP>>();
}

// LL/SC heads: one Figure-3 object per shard.
template <class R, int kShards>
struct LlscSweepAdapter : ShardedLlscStack<R, kShards> {
  using ShardedLlscStack<R, kShards>::ShardedLlscStack;
};
template <class Head /*ignored*/, class R, int kShards>
using LlscSweep = LlscSweepAdapter<R, kShards>;

TEST(ShardedSweep, LlscHeadTaggedReclaimer) {
  sharded_stack_sweep_over_shards<LlscSweep, TaggedHead,
                                  reclaim::TaggedReclaimer<SimP>>();
}

// Queue is built from (world, n, 4, options...).
template <class Queue, class... Options>
void sharded_queue_sweep(Options... options) {
  constexpr int kShards = Queue::kShardCount;
  for (int n : {2, 3}) {
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      sim::SimWorld world(n);
      world.set_trace_enabled(false);
      spec::History history;
      harness::ShardTaggedInvoker<Queue> invoker(
          world, history, std::make_unique<Queue>(world, n, 4, options...));
      harness::ScheduleLog log;
      harness::drive_random_schedule(
          world, invoker, n,
          random_container_workload(n, 6, seed, Method::kEnq, Method::kDeq),
          seed * 823 + 19, &log);
      SCOPED_TRACE(::testing::Message() << "shards=" << kShards << " n=" << n
                                        << " seed=" << seed << "\n"
                                        << log.to_string());
      expect_sharded_contract<spec::QueueSpec>(history.ops(),
                                               invoker.shard_of(), kShards,
                                               Method::kDeq);
    }
  }
}

template <class R>
void sharded_queue_sweep_over_shards() {
  sharded_queue_sweep<ShardedMsQueue<SimP, R, 1>>();
  sharded_queue_sweep<ShardedMsQueue<SimP, R, 2>>();
  sharded_queue_sweep<ShardedMsQueue<SimP, R, 4>>();
}

TEST(ShardedSweep, QueueTaggedReclaimer) {
  sharded_queue_sweep_over_shards<reclaim::TaggedReclaimer<SimP>>();
}
TEST(ShardedSweep, QueueHazardReclaimer) {
  sharded_queue_sweep_over_shards<reclaim::HazardPointerReclaimer<SimP>>();
}
TEST(ShardedSweep, QueueEpochReclaimer) {
  sharded_queue_sweep<
      ShardedMsQueue<SimP, reclaim::EpochBasedReclaimer<SimP>, 2>>();
}

// The same sweeps with adaptation live: aggressive settings (tiny windows,
// no cooldown) so width movement happens inside the measured histories.
constexpr AdaptiveOptions kSweepOptions{.initial_shards = 2,
                                        .sample_interval = 2,
                                        .grow_threshold = 0.20,
                                        .shrink_threshold = 0.05,
                                        .settle_checks = 0};

template <class R>
void adaptive_queue_sweep() {
  using Queue = AdaptiveShardedQueue<SimP, R>;
  sharded_queue_sweep<Queue>(typename Queue::QueueOptions{}, kSweepOptions);
}

TEST(AdaptiveSweep, StackTaggedReclaimer) {
  sharded_stack_sweep<SweepAdaptiveStack<reclaim::TaggedReclaimer<SimP>>>(
      kSweepOptions);
}
TEST(AdaptiveSweep, StackCachedHazardReclaimer) {
  sharded_stack_sweep<
      SweepAdaptiveStack<reclaim::CachedHazardPointerReclaimer<SimP>>>(
      kSweepOptions);
}
TEST(AdaptiveSweep, StackHazardReclaimer) {
  sharded_stack_sweep<
      SweepAdaptiveStack<reclaim::HazardPointerReclaimer<SimP>>>(
      kSweepOptions);
}
TEST(AdaptiveSweep, QueueTaggedReclaimer) {
  adaptive_queue_sweep<reclaim::TaggedReclaimer<SimP>>();
}
TEST(AdaptiveSweep, QueueCachedHazardReclaimer) {
  adaptive_queue_sweep<reclaim::CachedHazardPointerReclaimer<SimP>>();
}

// ------------------------------------------- Fast ≡ Counted determinism

// Token-serialized native workload (one thread moves at a time, so the
// schedule is a pure function of (n, rounds)): the platform policy changes
// layout, instrumentation and backoff — never results. Width decisions are
// a pure function of the serialized op/failure sequence too, so the live
// width is folded into each trace entry: a policy-dependent adaptation
// fails the comparison even if every op result happens to match.
template <class P, int kShards, class Width = FixedWidth>
std::vector<std::uint64_t> tokenized_sharded_trace(
    int n, int rounds, typename Width::Options width = {}) {
  using Stack = ShardedTreiberStack<P, TaggedCasHead<P>,
                                    reclaim::TaggedReclaimer<P>, kShards,
                                    Width>;
  using Queue = ShardedMsQueue<P, reclaim::TaggedReclaimer<P>, kShards, Width>;
  typename P::Env env;
  Stack stack(env, n, Stack::make_heads(env, n), 8, width);
  Queue queue(env, n, 8, {}, width);
  std::vector<std::uint64_t> trace(static_cast<std::size_t>(n) * rounds, 0);
  std::atomic<int> turn{0};
  std::vector<std::thread> threads;
  for (int pid = 0; pid < n; ++pid) {
    threads.emplace_back([&, pid] {
      for (int r = 0; r < rounds; ++r) {
        const int my_step = r * n + pid;
        while (turn.load() != my_step) std::this_thread::yield();
        std::uint64_t result = 0;
        switch ((pid + r) % 4) {
          case 0:
            result = stack.push(pid, static_cast<std::uint64_t>(my_step)) ? 1 : 0;
            break;
          case 1: {
            const auto v = stack.pop(pid);
            result = spec::pack_opt(v.has_value(), v.has_value() ? *v : 0);
            break;
          }
          case 2:
            result = queue.enqueue(pid, static_cast<std::uint64_t>(my_step)) ? 1 : 0;
            break;
          default: {
            const auto v = queue.dequeue(pid);
            result = spec::pack_opt(v.has_value(), v.has_value() ? *v : 0);
            break;
          }
        }
        trace[static_cast<std::size_t>(my_step)] =
            (result << 8) | static_cast<std::uint64_t>(stack.active_shards());
        turn.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  return trace;
}

using CountedP = native::NativePlatform<native::Counted>;
using FastP = native::NativePlatform<native::Fast>;

TEST(ShardedNativePolicy, FastMatchesCountedOnShardedWorkload) {
  const auto counted = tokenized_sharded_trace<CountedP, 2>(3, 48);
  const auto fast = tokenized_sharded_trace<FastP, 2>(3, 48);
  EXPECT_EQ(counted, fast);
}

TEST(AdaptiveNativePolicy, FastMatchesCountedWithAdaptationLive) {
  const AdaptiveOptions options{.initial_shards = 1,
                                .sample_interval = 4,
                                .grow_threshold = 0.10,
                                .shrink_threshold = 0.01,
                                .settle_checks = 1};
  const auto counted =
      tokenized_sharded_trace<CountedP, 4, AdaptiveWidth>(3, 48, options);
  const auto fast =
      tokenized_sharded_trace<FastP, 4, AdaptiveWidth>(3, 48, options);
  EXPECT_EQ(counted, fast);
}

// ----------------------------------------------------- native stress

// Four threads of random puts and takes through the uniform verbs, then a
// quiescent drain by pid 0: with no concurrency, an empty result means
// every shard really is empty (whatever width the router settled on, and
// wherever a shrink parked elements), so every put value must surface
// exactly once. Each thread detaches at exit (cached guards release on
// structure exit; a no-op for the other reclaimers).
template <class S>
void expect_balanced_accounting(S& s, int ops_per_thread,
                                std::uint64_t seed_base) {
  constexpr int kThreads = 4;
  std::atomic<std::uint64_t> put_sum{0}, taken_sum{0};
  std::atomic<std::uint64_t> put_count{0}, taken_count{0};
  std::vector<std::thread> threads;
  for (int tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      util::Xoshiro256 rng(static_cast<std::uint64_t>(tid) + seed_base);
      for (int i = 0; i < ops_per_thread; ++i) {
        if (rng.chance(1, 2)) {
          const std::uint64_t v = rng.below(1000) + 1;
          if (s.try_push(tid, v)) {
            put_sum.fetch_add(v);
            put_count.fetch_add(1);
          }
        } else {
          const auto v = s.try_pop(tid);
          if (v.has_value()) {
            taken_sum.fetch_add(*v);
            taken_count.fetch_add(1);
          }
        }
      }
      s.detach(tid);
    });
  }
  for (auto& t : threads) t.join();

  for (;;) {
    const auto v = s.try_pop(0);
    if (!v.has_value()) break;
    taken_sum.fetch_add(*v);
    taken_count.fetch_add(1);
  }
  EXPECT_EQ(put_sum.load(), taken_sum.load());
  EXPECT_EQ(put_count.load(), taken_count.load());
  EXPECT_GE(s.active_shards(), 1);
  EXPECT_LE(s.active_shards(), S::kShardCount);
}

// Adaptation settings for the native stress: short windows so the width
// moves while the threads run.
constexpr AdaptiveOptions kStressOptions{.initial_shards = 1,
                                         .sample_interval = 64,
                                         .grow_threshold = 0.05,
                                         .shrink_threshold = 0.005,
                                         .settle_checks = 1};

TEST(ShardedNativeStress, StackBalancedAccounting) {
  using Stack = ShardedTreiberStack<NativeP, TaggedCasHead<NativeP>,
                                    reclaim::TaggedReclaimer<NativeP>, 4>;
  typename NativeP::Env env;
  Stack stack(env, 4, Stack::make_heads(env, 4), 256);
  expect_balanced_accounting(stack, 1500, 1);
}

TEST(ShardedNativeStress, StackHazardReclaimerBalancedAccounting) {
  // Raw CAS heads under deferred reclamation, sharded: the guard publish /
  // revalidate handshake runs per shard (what the TSan job watches).
  using Stack = ShardedTreiberStack<NativeP, RawCasHead<NativeP>,
                                    reclaim::HazardPointerReclaimer<NativeP>, 2>;
  typename NativeP::Env env;
  Stack stack(env, 4, Stack::make_heads(env, 4), 256);
  expect_balanced_accounting(stack, 1000, 7);
}

TEST(ShardedNativeStress, QueueBalancedAccounting) {
  using Queue = ShardedMsQueue<NativeP, reclaim::TaggedReclaimer<NativeP>, 4>;
  typename NativeP::Env env;
  Queue queue(env, 4, 256);
  expect_balanced_accounting(queue, 1000, 11);
}

TEST(AdaptiveNativeStress, StackBalancedAccounting) {
  using Stack = AdaptiveShardedStack<NativeP, TaggedCasHead<NativeP>,
                                     reclaim::TaggedReclaimer<NativeP>, 8>;
  typename NativeP::Env env;
  Stack stack(env, 4, Stack::make_heads(env, 4), 256, kStressOptions);
  expect_balanced_accounting(stack, 1500, 1);
}

TEST(AdaptiveNativeStress, QueueCachedHazardBalancedAccounting) {
  using Queue = AdaptiveShardedQueue<
      NativeP, reclaim::CachedHazardPointerReclaimer<NativeP>, 4>;
  typename NativeP::Env env;
  AdaptiveOptions options = kStressOptions;
  options.initial_shards = 2;
  Queue queue(env, 4, 256, {}, options);
  expect_balanced_accounting(queue, 1000, 17);
}

}  // namespace
}  // namespace aba::structures
