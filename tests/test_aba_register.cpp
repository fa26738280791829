// Tests for the ABA-detecting register implementations:
//   - Figure 4 (n+1 bounded registers, Theorem 3),
//   - the unbounded-tag baseline,
//   - Figure 5 (from LL/SC/VL, Theorem 4), composed over both the spec-level
//     unbounded-tag LL/SC and the real Figure 3 implementation.
//
// Strategy: deterministic sequential checks, deterministic adversarial
// windows (the exact races the paper's proof reasons about), seeded-random
// linearizability property sweeps, exhaustive model checking of small
// scenarios, and step-complexity/space accounting against Theorem 3.
#include <gtest/gtest.h>

#include "test_support.h"

namespace aba::testing {
namespace {

using Fig4 = core::AbaRegisterBounded<SimP>;
using UnboundedTag = core::AbaRegisterUnboundedTag<SimP>;

// ------------------------------------------------------------- sequential

TEST(Fig4Sequential, InitialReadIsClean) {
  sim::SimWorld world(2);
  Fig4 reg(world, 2, {.value_bits = 8, .seq_domain = 0, .initial_value = 42});
  std::pair<std::uint64_t, bool> r{0, true};
  world.invoke(1, [&] { r = reg.dread(1); });
  world.run_to_completion(1);
  EXPECT_EQ(r.first, 42u);
  EXPECT_FALSE(r.second);
}

TEST(Fig4Sequential, WriteThenReadFlagsOnce) {
  sim::SimWorld world(2);
  Fig4 reg(world, 2);
  world.invoke(0, [&] { reg.dwrite(0, 7); });
  world.run_to_completion(0);
  std::pair<std::uint64_t, bool> r1, r2;
  world.invoke(1, [&] { r1 = reg.dread(1); });
  world.run_to_completion(1);
  world.invoke(1, [&] { r2 = reg.dread(1); });
  world.run_to_completion(1);
  EXPECT_EQ(r1, (std::pair<std::uint64_t, bool>{7, true}));
  EXPECT_EQ(r2, (std::pair<std::uint64_t, bool>{7, false}));
}

TEST(Fig4Sequential, AbaSameValueWriteIsDetected) {
  // The headline property: rewriting the SAME value is still detected.
  sim::SimWorld world(2);
  Fig4 reg(world, 2);
  auto solo = [&](auto fn) {
    world.invoke(0, fn);
    world.run_to_completion(0);
  };
  solo([&] { reg.dwrite(0, 5); });
  std::pair<std::uint64_t, bool> r;
  world.invoke(1, [&] { r = reg.dread(1); });
  world.run_to_completion(1);
  EXPECT_EQ(r, (std::pair<std::uint64_t, bool>{5, true}));
  solo([&] { reg.dwrite(0, 5); });  // A -> A.
  world.invoke(1, [&] { r = reg.dread(1); });
  world.run_to_completion(1);
  EXPECT_EQ(r, (std::pair<std::uint64_t, bool>{5, true})) << "ABA missed";
}

TEST(Fig4Sequential, ManyWritesCycleSequenceNumbersSafely) {
  // 100 writes with reads interleaved; seq domain is only 2n+2 = 6 values,
  // so numbers recycle heavily and every write must still be detected.
  sim::SimWorld world(2);
  Fig4 reg(world, 2);
  for (int i = 0; i < 100; ++i) {
    world.invoke(0, [&] { reg.dwrite(0, 3); });
    world.run_to_completion(0);
    std::pair<std::uint64_t, bool> r;
    world.invoke(1, [&] { r = reg.dread(1); });
    world.run_to_completion(1);
    EXPECT_TRUE(r.second) << "write " << i << " missed";
  }
}

TEST(Fig4Sequential, MultiWriterDistinctPids) {
  sim::SimWorld world(3);
  Fig4 reg(world, 3);
  for (int writer : {0, 1, 2}) {
    world.invoke(writer, [&, writer] {
      reg.dwrite(writer, static_cast<std::uint64_t>(writer + 10));
    });
    world.run_to_completion(writer);
    std::pair<std::uint64_t, bool> r;
    const int reader = (writer + 1) % 3;
    world.invoke(reader, [&, reader] { r = reg.dread(reader); });
    world.run_to_completion(reader);
    EXPECT_EQ(r.first, static_cast<std::uint64_t>(writer + 10));
    EXPECT_TRUE(r.second);
  }
}

// ------------------------------------------------------ step complexity

TEST(Fig4Steps, DWriteIsTwoSteps) {
  sim::SimWorld world(4);
  Fig4 reg(world, 4);
  for (int i = 0; i < 20; ++i) {
    world.invoke(0, [&] { reg.dwrite(0, 1); });
    EXPECT_EQ(world.run_to_completion(0), 2u);
  }
}

TEST(Fig4Steps, DReadIsFourSteps) {
  sim::SimWorld world(4);
  Fig4 reg(world, 4);
  for (int i = 0; i < 20; ++i) {
    world.invoke(1, [&] { reg.dread(1); });
    EXPECT_EQ(world.run_to_completion(1), 4u);
  }
}

TEST(Fig4Steps, StepCountIndependentOfN) {
  // Theorem 3: constant step complexity. Check the counts for several n.
  for (int n : {2, 4, 8, 16, 32}) {
    sim::SimWorld world(n);
    Fig4 reg(world, n);
    world.invoke(0, [&] { reg.dwrite(0, 1); });
    EXPECT_EQ(world.run_to_completion(0), 2u) << "n=" << n;
    world.invoke(n - 1, [&] { reg.dread(n - 1); });
    EXPECT_EQ(world.run_to_completion(n - 1), 4u) << "n=" << n;
  }
}

// ---------------------------------------------------------------- space

TEST(Fig4Space, UsesExactlyNPlusOneRegisters) {
  for (int n : {1, 2, 5, 9}) {
    sim::SimWorld world(n);
    Fig4 reg(world, n);
    EXPECT_EQ(world.num_objects(), static_cast<std::size_t>(n) + 1) << "n=" << n;
    EXPECT_EQ(reg.num_shared_registers(), n + 1);
    for (std::size_t i = 0; i < world.num_objects(); ++i) {
      const auto info = world.object_info(static_cast<sim::ObjectId>(i));
      EXPECT_EQ(info.kind, sim::ObjectKind::kRegister);
      EXPECT_TRUE(info.bound.is_bounded());
    }
  }
}

TEST(Fig4Space, RegisterWidthMatchesTheorem3) {
  // Theorem 3: (b + 2 log n + O(1))-bit registers.
  for (int n : {2, 8, 64}) {
    for (unsigned b : {1u, 8u, 16u}) {
      sim::SimWorld world(n);
      Fig4 reg(world, n, {.value_bits = b, .seq_domain = 0, .initial_value = 0});
      const unsigned log_n = util::bits_for(static_cast<std::uint64_t>(n) - 1);
      EXPECT_LE(reg.x_register_bits(), b + 2 * log_n + 3) << "n=" << n;
      EXPECT_LE(reg.announce_register_bits(), 2 * log_n + 3) << "n=" << n;
    }
  }
}

// ------------------------------------------- deterministic race windows

// A DWrite completing entirely between a DRead's two X-reads: the read must
// report flag=true immediately or set local b so the NEXT read reports it.
TEST(Fig4Races, WriteBetweenTheTwoReadsOfADRead) {
  sim::SimWorld world(2);
  spec::History history;
  auto invoker = std::make_unique<harness::AbaRegInvoker<Fig4>>(
      world, history, std::make_unique<Fig4>(world, 2));

  // Reader: first complete a clean DRead.
  invoker->invoke({1, spec::Method::kDRead, 0});
  world.run_to_completion(1);

  // Reader starts its second DRead; execute the first X-read (step 1).
  invoker->invoke({1, spec::Method::kDRead, 0});
  world.step(1);  // line 38: reads X.

  // Writer performs a full DWrite of the same (initial-equal) value.
  invoker->invoke({0, spec::Method::kDWrite, 0});
  world.run_to_completion(0);

  // Reader finishes DRead #2 and runs DRead #3.
  world.run_to_completion(1);
  invoker->invoke({1, spec::Method::kDRead, 0});
  world.run_to_completion(1);

  const auto ops = history.ops();
  ASSERT_EQ(ops.size(), 4u);
  // DRead #2 or #3 must carry the flag (the write linearized after #2's
  // linearization point, so #3 reporting it is the expected outcome).
  const bool flagged = spec::dread_flag(ops[1].ret) || spec::dread_flag(ops[3].ret);
  EXPECT_TRUE(flagged);
  // And the overall history must be linearizable.
  EXPECT_TRUE(aba_reg_check(2, 0)(ops));
}

// The write lands between the read of A[q] and the announcement write: the
// announcement then names the OLD triple, and correctness hinges on the
// second X-read differing (b gets set).
TEST(Fig4Races, WriteBetweenAnnounceReadAndAnnounceWrite) {
  sim::SimWorld world(2);
  spec::History history;
  auto invoker = std::make_unique<harness::AbaRegInvoker<Fig4>>(
      world, history, std::make_unique<Fig4>(world, 2));

  invoker->invoke({1, spec::Method::kDRead, 0});
  world.step(1);  // line 38: read X.
  world.step(1);  // line 39: read A[q].

  invoker->invoke({0, spec::Method::kDWrite, 5});
  world.run_to_completion(0);

  world.run_to_completion(1);  // lines 40-41.
  invoker->invoke({1, spec::Method::kDRead, 0});
  world.run_to_completion(1);

  const auto ops = history.ops();
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_TRUE(aba_reg_check(2, 0)(ops)) << history.to_string();
  // The second DRead must observe the write's value and flag.
  EXPECT_EQ(spec::dread_value(ops[2].ret), 5u);
  EXPECT_TRUE(spec::dread_flag(ops[2].ret));
}

// Writer stalls poised-to-write while reads complete around it.
TEST(Fig4Races, StalledWriterEventuallyFlags) {
  sim::SimWorld world(2);
  spec::History history;
  auto invoker = std::make_unique<harness::AbaRegInvoker<Fig4>>(
      world, history, std::make_unique<Fig4>(world, 2));

  invoker->invoke({0, spec::Method::kDWrite, 9});
  world.step(0);  // GetSeq's announce read; writer now poised at X.Write.

  invoker->invoke({1, spec::Method::kDRead, 0});
  world.run_to_completion(1);  // Clean read (write not yet applied).

  world.run_to_completion(0);  // The write lands.

  invoker->invoke({1, spec::Method::kDRead, 0});
  world.run_to_completion(1);

  const auto ops = history.ops();
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_TRUE(aba_reg_check(2, 0)(ops)) << history.to_string();
  EXPECT_EQ(spec::dread_value(ops[2].ret), 9u);
  EXPECT_TRUE(spec::dread_flag(ops[2].ret));
}

// --------------------------------------------------- property: random

struct AbaRandomCase {
  int n;
  int ops_per_process;
  std::uint64_t seed;
};

class Fig4RandomLinearizable : public ::testing::TestWithParam<AbaRandomCase> {};

TEST_P(Fig4RandomLinearizable, HistoryIsLinearizable) {
  const auto param = GetParam();
  const auto workload =
      random_aba_workload(param.n, param.ops_per_process, 4, param.seed);
  const auto ops = harness::run_random_schedule(
      param.n, aba_reg_factory<Fig4>(param.n, {.value_bits = 4}), workload,
      param.seed * 7919 + 1);
  const auto result = spec::check_linearizable<spec::AbaRegisterSpec>(
      ops, spec::AbaRegisterSpec::initial(param.n, 0));
  EXPECT_TRUE(result.linearizable) << spec::explain(ops, result);
}

std::vector<AbaRandomCase> aba_random_cases() {
  std::vector<AbaRandomCase> cases;
  for (int n : {2, 3, 4}) {
    for (std::uint64_t seed = 0; seed < 12; ++seed) {
      cases.push_back({n, 5, seed});
    }
  }
  for (std::uint64_t seed = 100; seed < 106; ++seed) {
    cases.push_back({5, 4, seed});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, Fig4RandomLinearizable,
                         ::testing::ValuesIn(aba_random_cases()));

class UnboundedTagRandomLinearizable
    : public ::testing::TestWithParam<AbaRandomCase> {};

TEST_P(UnboundedTagRandomLinearizable, HistoryIsLinearizable) {
  const auto param = GetParam();
  const auto workload =
      random_aba_workload(param.n, param.ops_per_process, 4, param.seed);
  const auto ops = harness::run_random_schedule(
      param.n, aba_reg_factory<UnboundedTag>(param.n, {.value_bits = 4}),
      workload, param.seed * 104729 + 3);
  const auto result = spec::check_linearizable<spec::AbaRegisterSpec>(
      ops, spec::AbaRegisterSpec::initial(param.n, 0));
  EXPECT_TRUE(result.linearizable) << spec::explain(ops, result);
}

INSTANTIATE_TEST_SUITE_P(Sweep, UnboundedTagRandomLinearizable,
                         ::testing::ValuesIn(aba_random_cases()));

// Figure 5 over the unbounded-tag LL/SC (spec-like substrate).
class Fig5OverMoirRandomLinearizable
    : public ::testing::TestWithParam<AbaRandomCase> {};

TEST_P(Fig5OverMoirRandomLinearizable, HistoryIsLinearizable) {
  const auto param = GetParam();
  const auto workload =
      random_aba_workload(param.n, param.ops_per_process, 4, param.seed);
  const auto ops = harness::run_random_schedule(
      param.n, fig5_factory<core::LlscUnboundedTag<SimP>>(param.n), workload,
      param.seed * 31337 + 5);
  const auto result = spec::check_linearizable<spec::AbaRegisterSpec>(
      ops, spec::AbaRegisterSpec::initial(param.n, 0));
  EXPECT_TRUE(result.linearizable) << spec::explain(ops, result);
}

INSTANTIATE_TEST_SUITE_P(Sweep, Fig5OverMoirRandomLinearizable,
                         ::testing::ValuesIn(aba_random_cases()));

// Figure 5 composed over the real Figure 3 implementation: the full
// bounded-object stack (Corollary 1's reduction made executable).
class Fig5OverFig3RandomLinearizable
    : public ::testing::TestWithParam<AbaRandomCase> {};

TEST_P(Fig5OverFig3RandomLinearizable, HistoryIsLinearizable) {
  const auto param = GetParam();
  const auto workload =
      random_aba_workload(param.n, param.ops_per_process, 4, param.seed);
  const auto ops = harness::run_random_schedule(
      param.n, fig5_factory<core::LlscSingleCas<SimP>>(param.n), workload,
      param.seed * 27644437 + 11);
  const auto result = spec::check_linearizable<spec::AbaRegisterSpec>(
      ops, spec::AbaRegisterSpec::initial(param.n, 0));
  EXPECT_TRUE(result.linearizable) << spec::explain(ops, result);
}

INSTANTIATE_TEST_SUITE_P(Sweep, Fig5OverFig3RandomLinearizable,
                         ::testing::ValuesIn(aba_random_cases()));

// ------------------------------------------------- exhaustive (small)

TEST(Fig4Exhaustive, OneWriterOneReaderTwoOpsEach) {
  const std::vector<harness::WorkloadOp> workload = {
      {0, spec::Method::kDWrite, 1},
      {0, spec::Method::kDWrite, 1},  // Same value: ABA shape.
      {1, spec::Method::kDRead, 0},
      {1, spec::Method::kDRead, 0},
  };
  const auto result = explore_exhaustively(
      2, aba_reg_factory<Fig4>(2), search::SpecKind::kAbaRegister, workload);
  EXPECT_FALSE(result.budget_exhausted);
  EXPECT_FALSE(result.violation_found()) << first_violation(result);
}

TEST(Fig4Exhaustive, TwoReadersOneWriter) {
  const std::vector<harness::WorkloadOp> workload = {
      {0, spec::Method::kDWrite, 2},
      {1, spec::Method::kDRead, 0},
      {2, spec::Method::kDRead, 0},
      {2, spec::Method::kDRead, 0},
  };
  const auto result = explore_exhaustively(
      3, aba_reg_factory<Fig4>(3), search::SpecKind::kAbaRegister, workload);
  EXPECT_FALSE(result.budget_exhausted);
  EXPECT_FALSE(result.violation_found()) << first_violation(result);
}

TEST(Fig5Exhaustive, OverFig3SmallScenario) {
  const std::vector<harness::WorkloadOp> workload = {
      {0, spec::Method::kDWrite, 1},
      {1, spec::Method::kDRead, 0},
      {1, spec::Method::kDRead, 0},
  };
  const auto result = explore_exhaustively(
      2, fig5_factory<core::LlscSingleCas<SimP>>(2),
      search::SpecKind::kAbaRegister, workload);
  EXPECT_FALSE(result.budget_exhausted);
  EXPECT_FALSE(result.violation_found()) << first_violation(result);
}

// ------------------------------------------------ under-provisioned seq

// With a deliberately shrunk sequence domain the reuse protection breaks;
// the adversarial schedule below makes Figure 4 miss a write. This is the
// flip side of Theorem 3's bound: the 2n+2 domain is not an accident.
TEST(Fig4UnderProvisioned, TruncatedSeqDomainCanMissWrites) {
  sim::SimWorld world(2);
  spec::History history;
  // seq_domain = 2 instead of 2n+2 = 6.
  auto invoker = std::make_unique<harness::AbaRegInvoker<Fig4>>(
      world, history,
      std::make_unique<Fig4>(world, 2,
                             Fig4::Options{.value_bits = 4,
                                           .seq_domain = 2,
                                           .initial_value = 0}));

  bool missed = false;
  // Reader q stalls between its two X reads while the writer cycles the tiny
  // sequence space back to the announced pair; the flag is then wrongly
  // computed from a stale announcement in a later read.
  for (int attempt = 0; attempt < 8 && !missed; ++attempt) {
    invoker->invoke({1, spec::Method::kDRead, 0});
    world.run_to_completion(1);
    // Writer cycles: with domain 2 the (pid, seq) pairs repeat every 2
    // writes.
    for (int w = 0; w < 2; ++w) {
      invoker->invoke({0, spec::Method::kDWrite, 0});
      world.run_to_completion(0);
    }
    invoker->invoke({1, spec::Method::kDRead, 0});
    world.run_to_completion(1);
    const auto ops = history.ops();
    const auto& last = ops.back();
    if (!spec::dread_flag(last.ret)) missed = true;
  }
  EXPECT_TRUE(missed)
      << "expected the truncated sequence domain to miss a write";
}


// --------------------------------------------- property: round-robin

// A second scheduler family: round-robin with quantum q. Quantum 1 maximizes
// interleaving; large quanta approximate solo execution. All implementations
// must stay linearizable across the sweep.
class AbaRoundRobin
    : public ::testing::TestWithParam<std::tuple<int, int, std::uint64_t>> {};

TEST_P(AbaRoundRobin, HistoryIsLinearizable) {
  const auto [n, quantum, seed] = GetParam();
  const auto workload = random_aba_workload(n, 5, 4, seed);
  for (int impl = 0; impl < 3; ++impl) {
    harness::FixtureFactory factory;
    if (impl == 0) {
      factory = aba_reg_factory<Fig4>(n, {.value_bits = 4});
    } else if (impl == 1) {
      factory = aba_reg_factory<UnboundedTag>(n, {.value_bits = 4});
    } else {
      factory = fig5_factory<core::LlscSingleCas<SimP>>(n);
    }
    const auto ops = harness::run_round_robin(n, factory, workload, quantum);
    const auto result = spec::check_linearizable<spec::AbaRegisterSpec>(
        ops, spec::AbaRegisterSpec::initial(n, 0));
    EXPECT_TRUE(result.linearizable)
        << "impl=" << impl << " quantum=" << quantum << "\n"
        << spec::explain(ops, result);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AbaRoundRobin,
    ::testing::Combine(::testing::Values(2, 3, 4),
                       ::testing::Values(1, 2, 3, 7),
                       ::testing::Values(11ull, 22ull, 33ull)));

}  // namespace
}  // namespace aba::testing

