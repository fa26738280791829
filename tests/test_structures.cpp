// Tests for the application structures: the Treiber stack with its three
// head-protection policies (raw CAS / bounded tag / LL/SC) and the Michael-
// Scott queue, all under the default immediate-reuse (tagged) reclaimer.
// The reclamation axis — hazard/epoch/leaky policies and their sweeps — is
// covered by tests/test_reclaim.cpp.
//
// The centerpiece is the deterministic ABA reproduction: one fixed schedule
// corrupts the raw-CAS stack, while the *same* schedule leaves the tagged
// and LL/SC stacks correct — the paper's motivation made into a regression
// test.
#include <gtest/gtest.h>

#include <memory>
#include <thread>

#include "core/llsc_single_cas.h"
#include "core/llsc_unbounded_tag.h"
#include "harness/adapters.h"
#include "harness/harness.h"
#include "sim/sim_platform.h"
#include "spec/lin_checker.h"
#include "spec/specs.h"
#include "structures/ms_queue.h"
#include "structures/treiber_stack.h"
#include "util/rng.h"

namespace aba::structures {
namespace {

using SimP = sim::SimPlatform;
using harness::WorkloadOp;
using spec::Method;

// ------------------------------------------------------------ fixtures

// Stack with raw CAS head.
struct RawStack {
  RawStack(sim::SimWorld& world, int n, int per_process)
      : stack(world, n, std::make_unique<RawCasHead<SimP>>(world, n),
              TreiberStack<SimP, RawCasHead<SimP>>::partition(n, per_process)) {}
  bool push(int p, std::uint64_t v) { return stack.push(p, v); }
  std::optional<std::uint64_t> pop(int p) { return stack.pop(p); }
  // Uniform container verbs (structures/concepts.h) so the wrapper feeds
  // harness::ContainerInvoker like the structures it wraps.
  bool try_push(int p, std::uint64_t v) { return stack.push(p, v); }
  std::optional<std::uint64_t> try_pop(int p) { return stack.pop(p); }
  TreiberStack<SimP, RawCasHead<SimP>> stack;
};

// Stack with (index, tag) CAS head.
struct TaggedStack {
  TaggedStack(sim::SimWorld& world, int n, int per_process, unsigned tag_bits = 16)
      : stack(world, n, std::make_unique<TaggedCasHead<SimP>>(world, n, 16, tag_bits),
              TreiberStack<SimP, TaggedCasHead<SimP>>::partition(n, per_process)) {
  }
  bool push(int p, std::uint64_t v) { return stack.push(p, v); }
  std::optional<std::uint64_t> pop(int p) { return stack.pop(p); }
  bool try_push(int p, std::uint64_t v) { return stack.push(p, v); }
  std::optional<std::uint64_t> try_pop(int p) { return stack.pop(p); }
  TreiberStack<SimP, TaggedCasHead<SimP>> stack;
};

// Stack whose head is the paper's Figure 3 LL/SC object.
struct LlscStack {
  using Llsc = core::LlscSingleCas<SimP>;
  LlscStack(sim::SimWorld& world, int n, int per_process)
      : llsc(world, n,
             Llsc::Options{.value_bits = 32,
                           .initial_value = kNullIndex,
                           .initially_linked = false}),
        stack(world, n, std::make_unique<LlscHead<Llsc>>(llsc),
              TreiberStack<SimP, LlscHead<Llsc>>::partition(n, per_process)) {}
  bool push(int p, std::uint64_t v) { return stack.push(p, v); }
  std::optional<std::uint64_t> pop(int p) { return stack.pop(p); }
  bool try_push(int p, std::uint64_t v) { return stack.push(p, v); }
  std::optional<std::uint64_t> try_pop(int p) { return stack.pop(p); }
  Llsc llsc;
  TreiberStack<SimP, LlscHead<Llsc>> stack;
};

struct SimQueue {
  SimQueue(sim::SimWorld& world, int n, int per_process, unsigned tag_bits = 16)
      : queue(world, n, per_process,
              MsQueue<SimP>::Options{.index_bits = 16, .tag_bits = tag_bits}) {}
  bool enqueue(int p, std::uint64_t v) { return queue.enqueue(p, v); }
  std::optional<std::uint64_t> dequeue(int p) { return queue.dequeue(p); }
  bool try_push(int p, std::uint64_t v) { return queue.enqueue(p, v); }
  std::optional<std::uint64_t> try_pop(int p) { return queue.dequeue(p); }
  MsQueue<SimP> queue;
};

template <class Impl, class... Args>
harness::FixtureFactory stack_factory(int n, Args... args) {
  return harness::make_factory<harness::ContainerInvoker, Impl>(n, args...);
}

// ------------------------------------------------------- sequential

TEST(TreiberStackSequential, PushPopLifo) {
  sim::SimWorld world(1);
  RawStack s(world, 1, 4);
  std::optional<std::uint64_t> r1, r2, r3;
  world.invoke(0, [&] {
    s.push(0, 10);
    s.push(0, 20);
    r1 = s.pop(0);
    r2 = s.pop(0);
    r3 = s.pop(0);
  });
  world.run_to_completion(0);
  EXPECT_EQ(r1, std::optional<std::uint64_t>(20));
  EXPECT_EQ(r2, std::optional<std::uint64_t>(10));
  EXPECT_EQ(r3, std::nullopt);
}

TEST(TreiberStackSequential, PoolExhaustionRefusesPush) {
  sim::SimWorld world(1);
  RawStack s(world, 1, 2);
  bool ok1 = false, ok2 = false, ok3 = true;
  world.invoke(0, [&] {
    ok1 = s.push(0, 1);
    ok2 = s.push(0, 2);
    ok3 = s.push(0, 3);
  });
  world.run_to_completion(0);
  EXPECT_TRUE(ok1);
  EXPECT_TRUE(ok2);
  EXPECT_FALSE(ok3);
}

TEST(TreiberStackSequential, NodesAreReusedAfterPop) {
  sim::SimWorld world(1);
  RawStack s(world, 1, 1);  // Single node: every push must reuse it.
  world.invoke(0, [&] {
    for (int i = 0; i < 10; ++i) {
      ABA_ASSERT(s.push(0, static_cast<std::uint64_t>(i)));
      ABA_ASSERT(s.pop(0) == std::optional<std::uint64_t>(i));
    }
  });
  world.run_to_completion(0);
}

TEST(MsQueueSequential, EnqueueDequeueFifo) {
  sim::SimWorld world(1);
  SimQueue q(world, 1, 4);
  std::optional<std::uint64_t> r1, r2, r3;
  world.invoke(0, [&] {
    q.enqueue(0, 10);
    q.enqueue(0, 20);
    r1 = q.dequeue(0);
    r2 = q.dequeue(0);
    r3 = q.dequeue(0);
  });
  world.run_to_completion(0);
  EXPECT_EQ(r1, std::optional<std::uint64_t>(10));
  EXPECT_EQ(r2, std::optional<std::uint64_t>(20));
  EXPECT_EQ(r3, std::nullopt);
}

TEST(MsQueueSequential, LongRunReusesNodes) {
  sim::SimWorld world(1);
  SimQueue q(world, 1, 3);
  world.invoke(0, [&] {
    for (std::uint64_t i = 0; i < 50; ++i) {
      ABA_ASSERT(q.enqueue(0, i));
      ABA_ASSERT(q.dequeue(0) == std::optional<std::uint64_t>(i));
    }
  });
  world.run_to_completion(0);
}

// --------------------------------------------- the deterministic ABA

// Drives the classic Treiber ABA schedule against a stack fixture and
// returns the recorded history:
//   p0: push(10) push(20);  p1 starts pop, pauses after reading head and
//   head->next;  p0: pop pop push(30) (reusing the node p1 holds);  p1
//   resumes. With a raw CAS head p1's CAS wrongly succeeds.
template <class Fixture>
std::vector<spec::Op> run_treiber_aba_schedule() {
  sim::SimWorld world(2);
  spec::History history;
  auto invoker = std::make_unique<harness::ContainerInvoker<Fixture>>(
      world, history, std::make_unique<Fixture>(world, 2, 2));

  auto solo = [&](const WorkloadOp& op) {
    invoker->invoke(op);
    world.run_to_completion(op.pid);
  };

  solo({0, Method::kPush, 10});  // node0
  solo({0, Method::kPush, 20});  // node1; stack: 20 -> 10.

  // p1 starts pop: execute its head-load and next-read, then pause.
  invoker->invoke({1, Method::kPop, 0});
  world.step(1);  // load head (node1).
  world.step(1);  // read node1.next (node0).

  // p0 pops both nodes and pushes 30, reusing node1 (FIFO free list:
  // after pop(20)=node1, pop(10)=node0 the free list is [node1, node0]).
  solo({0, Method::kPop, 0});   // 20.
  solo({0, Method::kPop, 0});   // 10.
  solo({0, Method::kPush, 30}); // Reuses node1: head is node1 again.

  // p1 resumes: its CAS(head: node1 -> node0) is the ABA moment.
  world.run_to_completion(1);

  // Drain: two more pops by p0 observe the aftermath.
  solo({0, Method::kPop, 0});
  solo({0, Method::kPop, 0});

  return history.ops();
}

TEST(TreiberAba, RawCasHeadIsCorrupted) {
  const auto ops = run_treiber_aba_schedule<RawStack>();
  const auto result =
      spec::check_linearizable<spec::StackSpec>(ops, spec::StackSpec::initial());
  EXPECT_FALSE(result.linearizable)
      << "the raw-CAS stack must corrupt under the ABA schedule\n"
      << spec::explain(ops, result);
}

TEST(TreiberAba, TaggedHeadSurvivesSameSchedule) {
  const auto ops = run_treiber_aba_schedule<TaggedStack>();
  const auto result =
      spec::check_linearizable<spec::StackSpec>(ops, spec::StackSpec::initial());
  EXPECT_TRUE(result.linearizable) << spec::explain(ops, result);
}

TEST(TreiberAba, LlscHeadSurvivesSameSchedule) {
  const auto ops = run_treiber_aba_schedule<LlscStack>();
  const auto result =
      spec::check_linearizable<spec::StackSpec>(ops, spec::StackSpec::initial());
  EXPECT_TRUE(result.linearizable) << spec::explain(ops, result);
}

TEST(TreiberAba, OneBitTagWrapsUnderDeepenedSchedule) {
  // A 1-bit tag survives the single ABA cycle above, but four head updates
  // (pop x3 + push, reusing the node p1 pinned) wrap the tag back to the
  // value p1 observed while leaving p1's recorded next pointer stale: the
  // CAS wrongly succeeds and the stack resurrects already-popped values.
  sim::SimWorld world(2);
  spec::History history;
  auto invoker = std::make_unique<harness::ContainerInvoker<TaggedStack>>(
      world, history,
      std::make_unique<TaggedStack>(world, 2, 3, /*tag_bits=*/1));

  auto solo = [&](const WorkloadOp& op) {
    invoker->invoke(op);
    world.run_to_completion(op.pid);
  };
  // p0's free list is exactly {node0, node1, node2}.
  solo({0, Method::kPush, 10});  // node0
  solo({0, Method::kPush, 20});  // node1
  solo({0, Method::kPush, 30});  // node2; stack: 30 -> 20 -> 10.

  // p1 starts pop: reads head = (node2, tag t) and node2.next = node1.
  invoker->invoke({1, Method::kPop, 0});
  world.step(1);
  world.step(1);

  // Four head updates: tag goes t+4 = t (mod 2); free list cycles to
  // [node2, node1, node0] so push(40) reuses node2 with next = null.
  solo({0, Method::kPop, 0});   // 30
  solo({0, Method::kPop, 0});   // 20
  solo({0, Method::kPop, 0});   // 10
  solo({0, Method::kPush, 40}); // node2 again; stack: just 40.

  // p1's CAS sees (node2, t) and succeeds, swinging head to freed node1.
  world.run_to_completion(1);
  solo({0, Method::kPop, 0});
  solo({0, Method::kPop, 0});

  const auto ops = history.ops();
  const auto result =
      spec::check_linearizable<spec::StackSpec>(ops, spec::StackSpec::initial());
  EXPECT_FALSE(result.linearizable)
      << "a 1-bit tag must wrap around and corrupt";

  // The same deepened schedule with 16 tag bits stays correct.
}

TEST(TreiberAba, WideTagSurvivesDeepenedSchedule) {
  sim::SimWorld world(2);
  spec::History history;
  auto invoker = std::make_unique<harness::ContainerInvoker<TaggedStack>>(
      world, history,
      std::make_unique<TaggedStack>(world, 2, 3, /*tag_bits=*/16));
  auto solo = [&](const WorkloadOp& op) {
    invoker->invoke(op);
    world.run_to_completion(op.pid);
  };
  solo({0, Method::kPush, 10});
  solo({0, Method::kPush, 20});
  solo({0, Method::kPush, 30});
  invoker->invoke({1, Method::kPop, 0});
  world.step(1);
  world.step(1);
  solo({0, Method::kPop, 0});
  solo({0, Method::kPop, 0});
  solo({0, Method::kPop, 0});
  solo({0, Method::kPush, 40});
  world.run_to_completion(1);
  solo({0, Method::kPop, 0});
  solo({0, Method::kPop, 0});

  const auto ops = history.ops();
  const auto result =
      spec::check_linearizable<spec::StackSpec>(ops, spec::StackSpec::initial());
  EXPECT_TRUE(result.linearizable) << spec::explain(ops, result);
}

// ------------------------------------------ pool size vs. index field

// A 4-bit tagged head stores indices up to 15. Node indices are stored +1,
// so a 16-node pool would write index 16 into the tag and read it back as
// null; the stack refuses it before allocating a node.
using TaggedSimStack = TreiberStack<SimP, TaggedCasHead<SimP>>;

TEST(HeadIndexFieldDeath, TreiberStackRejectsPoolWiderThanTaggedIndex) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        sim::SimWorld world(1);
        TaggedSimStack stack(
            world, 1, std::make_unique<TaggedCasHead<SimP>>(world, 1, 4, 16),
            TaggedSimStack::partition(1, 16));
      },
      "max_index");
}

TEST(HeadIndexField, TreiberStackFillsTaggedIndexExactly) {
  sim::SimWorld world(1);
  TaggedSimStack stack(world, 1,
                       std::make_unique<TaggedCasHead<SimP>>(world, 1, 4, 16),
                       TaggedSimStack::partition(1, 15));
  EXPECT_EQ(stack.pool_size(), 15u);
  int pushed = 0;
  std::vector<std::optional<std::uint64_t>> popped;
  world.invoke(0, [&] {
    for (std::uint64_t v = 0; v < 15; ++v) pushed += stack.push(0, v) ? 1 : 0;
    for (int i = 0; i < 16; ++i) popped.push_back(stack.pop(0));
  });
  world.run_to_completion(0);
  EXPECT_EQ(pushed, 15);
  for (std::uint64_t i = 0; i < 15; ++i) {
    EXPECT_EQ(popped[i], std::optional<std::uint64_t>(14 - i));
  }
  EXPECT_EQ(popped[15], std::nullopt);
}

// The queue reserves the all-ones index as its null marker: with 4 index
// bits the pool (dummy included) must stay below 15.
TEST(HeadIndexFieldDeath, MsQueueRejectsPoolReachingNullIndex) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        sim::SimWorld world(1);
        MsQueue<SimP> queue(world, 1, 14, {.index_bits = 4, .tag_bits = 16});
      },
      "index_mask");
}

// With 40 index bits the queue's words could name node 2^32, but a free
// list's 32-bit entry cannot: the queue refuses the pool before allocating
// a node (or a list).
TEST(HeadIndexFieldDeath, MsQueueRejectsPoolPastThirtyTwoBitLists) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        sim::SimWorld world(4);
        MsQueue<SimP> queue(world, 4, 1 << 30,
                            {.index_bits = 40, .tag_bits = 24});
      },
      "32-bit");
}

TEST(HeadIndexField, MsQueueFillsIndexBelowNull) {
  sim::SimWorld world(1);
  MsQueue<SimP> queue(world, 1, 13, {.index_bits = 4, .tag_bits = 16});
  EXPECT_EQ(queue.pool_size(), 14u);
  int enqueued = 0;
  std::vector<std::optional<std::uint64_t>> dequeued;
  world.invoke(0, [&] {
    for (std::uint64_t v = 0; v < 13; ++v) enqueued += queue.enqueue(0, v) ? 1 : 0;
    for (int i = 0; i < 14; ++i) dequeued.push_back(queue.dequeue(0));
  });
  world.run_to_completion(0);
  EXPECT_EQ(enqueued, 13);
  for (std::uint64_t i = 0; i < 13; ++i) {
    EXPECT_EQ(dequeued[i], std::optional<std::uint64_t>(i));
  }
  EXPECT_EQ(dequeued[13], std::nullopt);
}

// --------------------------------------------------- property: random

struct StackRandomCase {
  int n;
  int ops_per_process;
  std::uint64_t seed;
};

// Names each case by its fields (gtest would dump the struct's bytes).
void PrintTo(const StackRandomCase& c, std::ostream* os) {
  *os << "n" << c.n << "_ops" << c.ops_per_process << "_seed" << c.seed;
}

std::vector<StackRandomCase> stack_cases() {
  std::vector<StackRandomCase> cases;
  for (int n : {2, 3}) {
    for (std::uint64_t seed = 0; seed < 10; ++seed) cases.push_back({n, 6, seed});
  }
  return cases;
}

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

class TaggedStackRandom : public ::testing::TestWithParam<StackRandomCase> {};

TEST_P(TaggedStackRandom, Linearizable) {
  const auto param = GetParam();
  const auto ops = harness::run_random_schedule(
      param.n, stack_factory<TaggedStack>(param.n, 4),
      random_stack_workload(param.n, param.ops_per_process, param.seed),
      param.seed * 613 + 7);
  const auto result =
      spec::check_linearizable<spec::StackSpec>(ops, spec::StackSpec::initial());
  EXPECT_TRUE(result.linearizable) << spec::explain(ops, result);
}

INSTANTIATE_TEST_SUITE_P(Sweep, TaggedStackRandom,
                         ::testing::ValuesIn(stack_cases()));

class LlscStackRandom : public ::testing::TestWithParam<StackRandomCase> {};

TEST_P(LlscStackRandom, Linearizable) {
  const auto param = GetParam();
  const auto ops = harness::run_random_schedule(
      param.n, stack_factory<LlscStack>(param.n, 4),
      random_stack_workload(param.n, param.ops_per_process, param.seed),
      param.seed * 617 + 9);
  const auto result =
      spec::check_linearizable<spec::StackSpec>(ops, spec::StackSpec::initial());
  EXPECT_TRUE(result.linearizable) << spec::explain(ops, result);
}

INSTANTIATE_TEST_SUITE_P(Sweep, LlscStackRandom,
                         ::testing::ValuesIn(stack_cases()));

class MsQueueRandom : public ::testing::TestWithParam<StackRandomCase> {};

TEST_P(MsQueueRandom, Linearizable) {
  const auto param = GetParam();
  util::Xoshiro256 rng(param.seed);
  std::vector<WorkloadOp> workload;
  for (int pid = 0; pid < param.n; ++pid) {
    for (int i = 0; i < param.ops_per_process; ++i) {
      if (rng.chance(1, 2)) {
        workload.push_back({pid, Method::kEnq, rng.below(100)});
      } else {
        workload.push_back({pid, Method::kDeq, 0});
      }
    }
  }
  auto factory = [&](sim::SimWorld& world,
                     spec::History& history) -> std::unique_ptr<harness::Invoker> {
    return std::make_unique<harness::ContainerInvoker<SimQueue>>(
        world, history, std::make_unique<SimQueue>(world, param.n, 6));
  };
  const auto ops =
      harness::run_random_schedule(param.n, factory, workload, param.seed * 619);
  const auto result =
      spec::check_linearizable<spec::QueueSpec>(ops, spec::QueueSpec::initial());
  EXPECT_TRUE(result.linearizable) << spec::explain(ops, result);
}

INSTANTIATE_TEST_SUITE_P(Sweep, MsQueueRandom, ::testing::ValuesIn(stack_cases()));

}  // namespace
}  // namespace aba::structures
