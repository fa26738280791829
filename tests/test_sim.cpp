// Unit tests for the shared-memory simulator: object semantics, the
// announce-then-block step protocol, poised-operation inspection,
// configuration snapshots, determinism, and teardown.
#include <gtest/gtest.h>

#include "sim/sim_platform.h"
#include "sim/sim_world.h"

namespace aba::sim {
namespace {

TEST(SimWorld, CreateAndInspectObjects) {
  SimWorld world(2);
  const ObjectId r = world.create_object(ObjectKind::kRegister, "r", 7,
                                         BoundSpec::bounded(8));
  const ObjectId c =
      world.create_object(ObjectKind::kCas, "c", 1, BoundSpec::unbounded());
  EXPECT_EQ(world.num_objects(), 2u);
  EXPECT_EQ(world.object_value(r), 7u);
  EXPECT_EQ(world.object_value(c), 1u);
  EXPECT_EQ(world.object_info(r).name, "r");
  EXPECT_EQ(world.object_info(c).kind, ObjectKind::kCas);
}

TEST(SimWorld, InvokeAnnouncesFirstStep) {
  SimWorld world(1);
  SimPlatform::Register reg(world, "r", 0, BoundSpec::unbounded());
  const auto status = world.invoke(0, [&] { reg.write(5); });
  EXPECT_EQ(status, MethodStatus::kPoised);
  // The write is announced but not yet executed.
  EXPECT_EQ(world.object_value(0), 0u);
  const auto op = world.poised(0);
  ASSERT_TRUE(op.has_value());
  EXPECT_EQ(op->kind, OpKind::kWrite);
  EXPECT_EQ(op->arg0, 5u);
  EXPECT_EQ(world.step(0), MethodStatus::kCompleted);
  EXPECT_EQ(world.object_value(0), 5u);
  EXPECT_TRUE(world.is_idle(0));
}

TEST(SimWorld, ZeroStepMethodCompletesAtInvoke) {
  SimWorld world(1);
  int ran = 0;
  const auto status = world.invoke(0, [&] { ran = 1; });
  EXPECT_EQ(status, MethodStatus::kCompleted);
  EXPECT_EQ(ran, 1);
  EXPECT_TRUE(world.all_idle());
}

TEST(SimWorld, StepsInterleaveAcrossProcesses) {
  SimWorld world(2);
  SimPlatform::Register reg(world, "r", 0, BoundSpec::unbounded());
  std::uint64_t seen0 = 99, seen1 = 99;
  world.invoke(0, [&] {
    reg.write(1);
    seen0 = reg.read();
  });
  world.invoke(1, [&] {
    reg.write(2);
    seen1 = reg.read();
  });
  // Schedule: p0 writes 1, p1 writes 2, p0 reads (sees 2), p1 reads (sees 2).
  world.step(0);
  world.step(1);
  world.step(0);
  world.step(1);
  EXPECT_TRUE(world.all_idle());
  EXPECT_EQ(seen0, 2u);
  EXPECT_EQ(seen1, 2u);
}

TEST(SimWorld, CasSemantics) {
  SimWorld world(1);
  SimPlatform::Cas cas(world, "c", 10, BoundSpec::unbounded());
  bool ok1 = false, ok2 = false;
  world.invoke(0, [&] {
    ok1 = cas.cas(10, 20);
    ok2 = cas.cas(10, 30);  // Expected stale -> must fail.
  });
  world.run_to_completion(0);
  EXPECT_TRUE(ok1);
  EXPECT_FALSE(ok2);
  EXPECT_EQ(world.object_value(0), 20u);
}

TEST(SimWorld, WritableCasSupportsAllOps) {
  SimWorld world(1);
  SimPlatform::WritableCas obj(world, "w", 0, BoundSpec::unbounded());
  std::uint64_t seen = 0;
  bool ok = false;
  world.invoke(0, [&] {
    obj.write(5);
    ok = obj.cas(5, 6);
    seen = obj.read();
  });
  world.run_to_completion(0);
  EXPECT_TRUE(ok);
  EXPECT_EQ(seen, 6u);
}

TEST(SimWorld, PoisedCasExposesArguments) {
  SimWorld world(1);
  SimPlatform::Cas cas(world, "c", 0, BoundSpec::unbounded());
  world.invoke(0, [&] { cas.cas(3, 4); });
  const auto op = world.poised(0);
  ASSERT_TRUE(op.has_value());
  EXPECT_EQ(op->kind, OpKind::kCas);
  EXPECT_EQ(op->arg0, 3u);
  EXPECT_EQ(op->arg1, 4u);
}

TEST(SimWorld, RunToCompletionCountsSteps) {
  SimWorld world(1);
  SimPlatform::Register reg(world, "r", 0, BoundSpec::unbounded());
  world.invoke(0, [&] {
    for (int i = 0; i < 5; ++i) reg.write(i);
  });
  EXPECT_EQ(world.run_to_completion(0), 5u);
  EXPECT_EQ(world.steps_in_method(0), 5u);
}

TEST(SimWorld, MemorySnapshotReflectsValues) {
  SimWorld world(1);
  SimPlatform::Register a(world, "a", 1, BoundSpec::unbounded());
  SimPlatform::Register b(world, "b", 2, BoundSpec::unbounded());
  auto snap = world.memory_snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0], 1u);
  EXPECT_EQ(snap[1], 2u);
  world.invoke(0, [&] { b.write(9); });
  world.run_to_completion(0);
  snap = world.memory_snapshot();
  EXPECT_EQ(snap[1], 9u);
}

TEST(SimWorld, SignatureIncludesPoisedOps) {
  SimWorld world(2);
  SimPlatform::Register reg(world, "r", 0, BoundSpec::unbounded());
  const auto sig_idle = world.signature_key();
  world.invoke(0, [&] { reg.write(1); });
  const auto sig_poised = world.signature_key();
  EXPECT_NE(sig_idle, sig_poised);
  // Same poised op with different argument -> different signature.
  world.step(0);
  world.invoke(0, [&] { reg.write(2); });
  const auto sig_poised2 = world.signature_key();
  EXPECT_NE(sig_poised, sig_poised2);
}

TEST(SimWorld, TraceRecordsSteps) {
  SimWorld world(1);
  SimPlatform::Register reg(world, "r", 0, BoundSpec::unbounded());
  world.invoke(0, [&] {
    reg.write(3);
    reg.read();
  });
  world.run_to_completion(0);
  const auto trace = world.trace_copy();
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].kind, OpKind::kWrite);
  EXPECT_EQ(trace[0].arg0, 3u);
  EXPECT_EQ(trace[1].kind, OpKind::kRead);
  EXPECT_EQ(trace[1].result, 3u);
  EXPECT_LT(trace[0].time, trace[1].time);
}

TEST(SimWorld, TraceCanBeDisabled) {
  SimWorld world(1);
  SimPlatform::Register reg(world, "r", 0, BoundSpec::unbounded());
  world.set_trace_enabled(false);
  world.invoke(0, [&] { reg.write(3); });
  world.run_to_completion(0);
  EXPECT_TRUE(world.trace_copy().empty());
  EXPECT_EQ(world.total_steps(), 1u);
}

TEST(SimWorld, DeterministicReplayProducesIdenticalState) {
  auto run = [](int interleave) {
    SimWorld world(2);
    SimPlatform::WritableCas obj(world, "x", 0, BoundSpec::unbounded());
    world.invoke(0, [&] {
      obj.cas(0, 1);
      obj.cas(1, 2);
    });
    world.invoke(1, [&] {
      obj.cas(0, 10);
      obj.cas(10, 20);
    });
    if (interleave == 0) {
      world.step(0);
      world.step(1);
      world.step(0);
      world.step(1);
    } else {
      world.step(1);
      world.step(0);
      world.step(1);
      world.step(0);
    }
    return world.memory_snapshot();
  };
  // Same schedule twice -> identical; different schedule -> different result.
  EXPECT_EQ(run(0), run(0));
  EXPECT_EQ(run(1), run(1));
  EXPECT_NE(run(0), run(1));
}

// Counts the unwinds of the method frame that holds it.
struct UnwindCounter {
  int* count;
  ~UnwindCounter() { ++*count; }
};

TEST(SimWorld, DestructionWithMidMethodProcessesIsClean) {
  std::vector<int> unwound(3, 0);
  {
    SimWorld world(3);
    SimPlatform::Register reg(world, "r", 7, BoundSpec::unbounded());
    for (ProcessId pid = 0; pid < 3; ++pid) {
      world.invoke(pid, [&, pid] {
        UnwindCounter counter{&unwound[pid]};
        for (int i = 0; i < 100; ++i) reg.write(100 * pid + i);
      });
    }
    world.step(0);
    // crash() unwinds the victim's parked method before it returns.
    world.crash(1);
    EXPECT_EQ(unwound, (std::vector<int>{0, 1, 0}));
    // Only p0's first write landed; p1 died instead of taking its step.
    EXPECT_EQ(world.object_value(reg.id()), 0u);
    // Processes 0 and 2 are mid-method here; the destructor must unwind them.
  }
  EXPECT_EQ(unwound, (std::vector<int>{1, 1, 1}));
}

TEST(SimWorld, EventClockOrdersInvocationsAndSteps) {
  SimWorld world(1);
  SimPlatform::Register reg(world, "r", 0, BoundSpec::unbounded());
  const auto t0 = world.next_event_time();
  world.invoke(0, [&] { reg.write(1); });
  world.step(0);
  const auto t1 = world.next_event_time();
  EXPECT_LT(t0, t1);
  const auto trace = world.trace_copy();
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_GT(trace[0].time, t0);
  EXPECT_LT(trace[0].time, t1);
}

TEST(SimWorldDeath, BoundedObjectRejectsOverflowingWrite) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SimWorld world(1);
        SimPlatform::Register reg(world, "r", 0, BoundSpec::bounded(4));
        world.invoke(0, [&] { reg.write(16); });  // 16 needs 5 bits.
        world.run_to_completion(0);
      },
      "exceeds declared object width");
}

TEST(SimWorldDeath, CasOnPlainRegisterRejected) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SimWorld world(1);
        const ObjectId id = world.create_object(ObjectKind::kRegister, "r", 0,
                                                BoundSpec::unbounded());
        world.invoke(0, [&, id] {
          world.access(PendingOp{id, OpKind::kCas, 0, 1});
        });
        world.run_to_completion(0);
      },
      "CAS\\(\\) on a plain register");
}

TEST(SimWorldDeath, WriteOnPureCasRejected) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SimWorld world(1);
        const ObjectId id =
            world.create_object(ObjectKind::kCas, "c", 0, BoundSpec::unbounded());
        world.invoke(0, [&, id] {
          world.access(PendingOp{id, OpKind::kWrite, 1, 0});
        });
        world.run_to_completion(0);
      },
      "Write\\(\\) on a non-writable CAS");
}

// Recurses `depth` frames deep. Each frame's buffer stays live across the
// call (the callee reads it), so the stack grows by at least
// depth * sizeof(frame).
[[gnu::noinline]] int dig(int depth, volatile char* parent) {
  volatile char frame[256];
  frame[0] = static_cast<char>(parent[0] + 1);
  if (depth == 0) return frame[0];
  return dig(depth - 1, frame) + frame[0];
}

TEST(SimWorldDeath, RunawayRecursionInAMethodDies) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        // Process 1's stack is a neighbouring allocation that one and a
        // half stacks' worth of frames would reach without the guard page.
        SimWorld world(2);
        world.invoke(0, [] {
          volatile char root[1] = {0};
          dig(static_cast<int>(SimWorld::kFiberStackBytes * 3 / 2 / 256), root);
        });
      },
      "");
}

TEST(SimWorld, StepRecordToString) {
  StepRecord s{3, 1, 0, OpKind::kCas, 5, 6, 5, true};
  const std::string text = to_string(s);
  EXPECT_NE(text.find("CAS"), std::string::npos);
  EXPECT_NE(text.find("ok"), std::string::npos);
}

}  // namespace
}  // namespace aba::sim
