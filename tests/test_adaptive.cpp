// Tests for the contention-adaptive sharding facade
// (structures/adaptive_sharded.h).
//
// Coverage:
//   * width ladder: initial_shards clamping, the runtime set_active_shards
//     dispatch, and the probe order (active prefix first, parked remainder
//     exactly once);
//   * sequential semantics at width 1 (plain LIFO/FIFO) and the
//     shrink-strands-nothing contract: elements parked in deactivated
//     shards drain through the full-width steal scan;
//   * deterministic adaptation: a step-controlled sim schedule forces CAS
//     failures and watches the facade grow its width, then contention-free
//     traffic shrinks it back — both decisions exact, not statistical;
//   * relaxed-pool linearizability sweeps (random sim schedules, histories
//     split by landing shard, every sub-history against the exact spec,
//     multiset conservation) across reclaimers including hazard_cached;
//   * Fast ≡ Counted determinism on a token-serialized native workload
//     with adaptation live;
//   * native balanced-accounting stress with adaptation live (the suite
//     CI's TSan job runs).
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "harness/adapters.h"
#include "harness/harness.h"
#include "native/native_platform.h"
#include "reclaim/hazard_pointer.h"
#include "reclaim/tagged.h"
#include "sim/sim_platform.h"
#include "spec/lin_checker.h"
#include "spec/specs.h"
#include "structures/adaptive_sharded.h"
#include "util/rng.h"

namespace aba::structures {
namespace {

using SimP = sim::SimPlatform;
using NativeP = native::NativePlatform<native::Counted>;
using harness::WorkloadOp;
using spec::Method;

// Facade over the sim platform with (Env&, n, per_shard_pool, options)
// construction, so the tagging invokers can build it.
template <class R, int kMax = 8>
struct SweepAdaptiveStack : AdaptiveShardedStack<SimP, TaggedCasHead<SimP>, R, kMax> {
  using Base = AdaptiveShardedStack<SimP, TaggedCasHead<SimP>, R, kMax>;
  SweepAdaptiveStack(sim::SimWorld& world, int n, int per_process_per_shard,
                     AdaptiveOptions options = {})
      : Base(world, n, Base::make_heads(world, n), per_process_per_shard,
             options) {}
};

// --------------------------------------------------------- width ladder

TEST(AdaptiveWidth, InitialShardsClampToThePowerOfTwoLadder) {
  sim::SimWorld world(1);
  for (const auto [requested, expected] :
       {std::pair{1, 1}, {2, 2}, {3, 2}, {4, 4}, {7, 4}, {8, 8}, {100, 8}}) {
    SweepAdaptiveStack<reclaim::TaggedReclaimer<SimP>> s(
        world, 1, 2, AdaptiveOptions{.initial_shards = requested});
    EXPECT_EQ(s.active_shards(), expected) << "requested " << requested;
  }
}

TEST(AdaptiveWidth, SetActiveShardsIsTheRuntimeDispatch) {
  sim::SimWorld world(1);
  SweepAdaptiveStack<reclaim::TaggedReclaimer<SimP>> s(
      world, 1, 2, AdaptiveOptions{.adaptive = false});
  EXPECT_EQ(s.active_shards(), 1);
  s.set_active_shards(4);
  EXPECT_EQ(s.active_shards(), 4);
  s.set_active_shards(5);  // Rounded down the ladder.
  EXPECT_EQ(s.active_shards(), 4);
  s.set_active_shards(1);
  EXPECT_EQ(s.active_shards(), 1);
}

// ----------------------------------------------------------- sequential

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
  // Push at width 4 from a pid homed on shard 3, shrink to width 1, and pop
  // from a pid homed on shard 0: the full-width steal scan must find the
  // parked element.
  sim::SimWorld world(4);
  SweepAdaptiveStack<reclaim::TaggedReclaimer<SimP>> s(
      world, 4, 2, AdaptiveOptions{.initial_shards = 4, .adaptive = false});
  world.invoke(3, [&] { s.push(3, 77); });
  world.run_to_completion(3);
  EXPECT_EQ(s.last_shard(3), 3);

  s.set_active_shards(1);
  std::optional<std::uint64_t> got;
  world.invoke(0, [&] { got = s.pop(0); });
  world.run_to_completion(0);
  EXPECT_EQ(got, std::optional<std::uint64_t>(77));
  EXPECT_EQ(s.last_shard(0), 3) << "the take must land on the parked shard";
}

TEST(AdaptiveSequential, PoolPressureFallsThroughToParkedShards) {
  // Width 1 with a one-node shard-0 pool: the second push must overflow
  // into the parked remainder rather than fail (elastic capacity spans the
  // full width, not just the active prefix).
  sim::SimWorld world(1);
  SweepAdaptiveStack<reclaim::TaggedReclaimer<SimP>> s(
      world, 1, 1, AdaptiveOptions{.adaptive = false});
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
  EXPECT_EQ(r1, std::optional<std::uint64_t>(10));
  EXPECT_EQ(r2, std::optional<std::uint64_t>(20));
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
                                .adaptive = true,
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
  EXPECT_EQ(s.cas_failures(), 1u);
  EXPECT_EQ(s.active_shards(), 2) << "a hot failure window must double width";
  const auto switches_after_grow = s.switches();
  EXPECT_EQ(switches_after_grow, 1u);

  // At width 2 the processes are homed apart (0 -> shard 0, 1 -> shard 1):
  // calm, failure-free windows must walk the width back down.
  world.invoke(0, [&] { ABA_CHECK(s.push(0, 1)); });
  world.run_to_completion(0);
  EXPECT_EQ(s.active_shards(), 1) << "a zero-failure window must halve width";
  EXPECT_EQ(s.switches(), switches_after_grow + 1);
}

TEST(AdaptiveAdaptation, SettleChecksDampOscillation) {
  sim::SimWorld world(2);
  const AdaptiveOptions options{.initial_shards = 1,
                                .adaptive = true,
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

// --------------------------------------------- relaxed-pool sweeps

// Splits a history by the invoker's shard tags and checks each sub-history
// against Spec; also checks multiset conservation. (Same contract as the
// compile-time sharded sweep — the facade adds width movement, never new
// shared state.)
template <class Spec>
void expect_sharded_contract(const std::vector<spec::Op>& ops,
                             const std::vector<int>& shard_of, int num_shards,
                             Method take_method) {
  ASSERT_EQ(ops.size(), shard_of.size());
  std::vector<std::vector<spec::Op>> by_shard(
      static_cast<std::size_t>(num_shards));
  for (std::size_t i = 0; i < ops.size(); ++i) {
    ASSERT_GE(shard_of[i], 0) << "op " << i << " missing its shard tag";
    ASSERT_LT(shard_of[i], num_shards);
    by_shard[static_cast<std::size_t>(shard_of[i])].push_back(ops[i]);
  }
  for (int s = 0; s < num_shards; ++s) {
    const auto& sub = by_shard[static_cast<std::size_t>(s)];
    const auto result = spec::check_linearizable<Spec>(sub, Spec::initial());
    EXPECT_TRUE(result.linearizable)
        << "shard " << s << " sub-history not linearizable\n"
        << spec::explain(sub, result);
  }
  std::map<std::uint64_t, long> balance;  // pushes minus pops, per value
  for (const auto& op : ops) {
    if (op.method != take_method && op.ret == 1) ++balance[op.arg];
  }
  for (const auto& op : ops) {
    if (op.method == take_method && op.ret != 0) {
      const std::uint64_t value = op.ret - 1;  // pack_opt inverse
      auto it = balance.find(value);
      ASSERT_TRUE(it != balance.end() && it->second > 0)
          << "popped value " << value << " never pushed (or popped twice)";
      --it->second;
    }
  }
}

std::vector<WorkloadOp> random_workload(int n, int ops, std::uint64_t seed,
                                        Method put, Method take) {
  util::Xoshiro256 rng(seed);
  std::vector<WorkloadOp> workload;
  for (int pid = 0; pid < n; ++pid) {
    for (int i = 0; i < ops; ++i) {
      if (rng.chance(1, 2)) {
        workload.push_back({pid, put, rng.below(100)});
      } else {
        workload.push_back({pid, take, 0});
      }
    }
  }
  return workload;
}

// Aggressive adaptation during the sweep (tiny windows, no cooldown) so
// width movement happens inside the measured histories.
constexpr AdaptiveOptions kSweepOptions{.initial_shards = 2,
                                        .adaptive = true,
                                        .sample_interval = 2,
                                        .grow_threshold = 0.20,
                                        .shrink_threshold = 0.05,
                                        .settle_checks = 0};

template <class R>
void adaptive_stack_sweep() {
  using Stack = SweepAdaptiveStack<R>;
  for (int n : {2, 3}) {
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      sim::SimWorld world(n);
      world.set_trace_enabled(false);
      spec::History history;
      harness::ShardTaggedInvoker<Stack> invoker(
          world, history, std::make_unique<Stack>(world, n, 4, kSweepOptions));
      harness::ScheduleLog log;
      harness::drive_random_schedule(
          world, invoker, n,
          random_workload(n, 6, seed, Method::kPush, Method::kPop),
          seed * 857 + 23, &log);
      SCOPED_TRACE(::testing::Message() << "n=" << n << " seed=" << seed
                                        << "\n" << log.to_string());
      expect_sharded_contract<spec::StackSpec>(history.ops(),
                                               invoker.shard_of(),
                                               Stack::kMaxShards, Method::kPop);
    }
  }
}

TEST(AdaptiveSweep, StackTaggedReclaimer) {
  adaptive_stack_sweep<reclaim::TaggedReclaimer<SimP>>();
}
TEST(AdaptiveSweep, StackCachedHazardReclaimer) {
  adaptive_stack_sweep<reclaim::CachedHazardPointerReclaimer<SimP>>();
}
TEST(AdaptiveSweep, StackHazardReclaimer) {
  adaptive_stack_sweep<reclaim::HazardPointerReclaimer<SimP>>();
}

template <class R>
void adaptive_queue_sweep() {
  using Queue = AdaptiveShardedQueue<SimP, R>;
  for (int n : {2, 3}) {
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      sim::SimWorld world(n);
      world.set_trace_enabled(false);
      spec::History history;
      harness::ShardTaggedInvoker<Queue> invoker(
          world, history,
          std::make_unique<Queue>(world, n, 4, kSweepOptions));
      harness::ScheduleLog log;
      harness::drive_random_schedule(
          world, invoker, n,
          random_workload(n, 6, seed, Method::kEnq, Method::kDeq),
          seed * 863 + 29, &log);
      SCOPED_TRACE(::testing::Message() << "n=" << n << " seed=" << seed
                                        << "\n" << log.to_string());
      expect_sharded_contract<spec::QueueSpec>(history.ops(),
                                               invoker.shard_of(),
                                               Queue::kMaxShards, Method::kDeq);
    }
  }
}

TEST(AdaptiveSweep, QueueTaggedReclaimer) {
  adaptive_queue_sweep<reclaim::TaggedReclaimer<SimP>>();
}
TEST(AdaptiveSweep, QueueCachedHazardReclaimer) {
  adaptive_queue_sweep<reclaim::CachedHazardPointerReclaimer<SimP>>();
}

// ------------------------------------------- Fast ≡ Counted determinism

// Token-serialized native workload with adaptation live: width decisions
// are a pure function of the serialized op/failure sequence, so the
// platform policy must not change them — or any result.
template <class P>
std::vector<std::uint64_t> tokenized_adaptive_trace(int n, int rounds) {
  using Stack = AdaptiveShardedStack<P, TaggedCasHead<P>,
                                     reclaim::TaggedReclaimer<P>, 4>;
  using Queue = AdaptiveShardedQueue<P, reclaim::TaggedReclaimer<P>, 4>;
  const AdaptiveOptions options{.initial_shards = 1,
                                .adaptive = true,
                                .sample_interval = 4,
                                .grow_threshold = 0.10,
                                .shrink_threshold = 0.01,
                                .settle_checks = 1};
  typename P::Env env;
  Stack stack(env, n, Stack::make_heads(env, n), 8, options);
  Queue queue(env, n, 8, options);
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
        // Fold the live width into the trace so a policy-dependent
        // adaptation divergence fails the comparison even if every op
        // result happens to match.
        trace[static_cast<std::size_t>(my_step)] =
            (result << 8) | static_cast<std::uint64_t>(stack.active_shards());
        turn.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  return trace;
}

TEST(AdaptiveNativePolicy, FastMatchesCountedWithAdaptationLive) {
  using CountedP = native::NativePlatform<native::Counted>;
  using FastP = native::NativePlatform<native::Fast>;
  const auto counted = tokenized_adaptive_trace<CountedP>(3, 48);
  const auto fast = tokenized_adaptive_trace<FastP>(3, 48);
  EXPECT_EQ(counted, fast);
}

// ----------------------------------------------------- native stress

TEST(AdaptiveNativeStress, StackBalancedAccounting) {
  using Stack = AdaptiveShardedStack<NativeP, TaggedCasHead<NativeP>,
                                     reclaim::TaggedReclaimer<NativeP>, 8>;
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 1500;
  typename NativeP::Env env;
  const AdaptiveOptions options{.initial_shards = 1,
                                .adaptive = true,
                                .sample_interval = 64,
                                .grow_threshold = 0.05,
                                .shrink_threshold = 0.005,
                                .settle_checks = 1};
  Stack stack(env, kThreads, Stack::make_heads(env, kThreads), 256, options);

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

  // Quiescent full-width drain: whatever width the facade settled on, and
  // wherever shrink parked elements, every pushed value must surface once.
  for (;;) {
    const auto v = stack.pop(0);
    if (!v.has_value()) break;
    popped_sum.fetch_add(*v);
    popped_count.fetch_add(1);
  }
  EXPECT_EQ(pushed_sum.load(), popped_sum.load());
  EXPECT_EQ(pushed_count.load(), popped_count.load());
  const int width = stack.active_shards();
  EXPECT_GE(width, 1);
  EXPECT_LE(width, 8);
}

TEST(AdaptiveNativeStress, QueueCachedHazardBalancedAccounting) {
  using Queue = AdaptiveShardedQueue<
      NativeP, reclaim::CachedHazardPointerReclaimer<NativeP>, 4>;
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 1000;
  typename NativeP::Env env;
  const AdaptiveOptions options{.initial_shards = 2,
                                .adaptive = true,
                                .sample_interval = 64,
                                .grow_threshold = 0.05,
                                .shrink_threshold = 0.005,
                                .settle_checks = 1};
  Queue queue(env, kThreads, 256, options);

  std::atomic<std::uint64_t> enq_sum{0}, deq_sum{0};
  std::vector<std::thread> threads;
  for (int tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      util::Xoshiro256 rng(static_cast<std::uint64_t>(tid) + 17);
      for (int i = 0; i < kOpsPerThread; ++i) {
        if (rng.chance(1, 2)) {
          const std::uint64_t v = rng.below(1000) + 1;
          if (queue.enqueue(tid, v)) enq_sum.fetch_add(v);
        } else {
          const auto v = queue.dequeue(tid);
          if (v.has_value()) deq_sum.fetch_add(*v);
        }
      }
      queue.detach(tid);  // Cached guards release on structure exit.
    });
  }
  for (auto& t : threads) t.join();
  for (;;) {
    const auto v = queue.dequeue(0);
    if (!v.has_value()) break;
    deq_sum.fetch_add(*v);
  }
  EXPECT_EQ(enq_sum.load(), deq_sum.load());
}

}  // namespace
}  // namespace aba::structures
