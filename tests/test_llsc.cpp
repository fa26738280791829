// Tests for the LL/SC/VL implementations:
//   - Figure 3 (single bounded CAS, O(n) steps, Theorem 2),
//   - LlscRegisterArray (1 CAS + n registers, O(1) steps, the
//     Anderson-Moir/Jayanti-Petrovic point on the tradeoff),
//   - the unbounded-tag baseline (Moir).
#include <gtest/gtest.h>

#include "test_support.h"

namespace aba::testing {
namespace {

using Fig3 = core::LlscSingleCas<SimP>;
using RegArray = core::LlscRegisterArray<SimP>;
using Moir = core::LlscUnboundedTag<SimP>;

template <class Impl>
class LlscTypedTest : public ::testing::Test {};

using LlscImpls = ::testing::Types<Fig3, RegArray, Moir>;
TYPED_TEST_SUITE(LlscTypedTest, LlscImpls);

// ------------------------------------------------------------- sequential
// Typed over all three implementations: the sequential contract is shared.

TYPED_TEST(LlscTypedTest, LlReturnsInitialValue) {
  sim::SimWorld world(2);
  TypeParam obj(world, 2, {.value_bits = 8, .initial_value = 77});
  std::uint64_t v = 0;
  world.invoke(0, [&] { v = obj.ll(0); });
  world.run_to_completion(0);
  EXPECT_EQ(v, 77u);
}

TYPED_TEST(LlscTypedTest, LlScVlRoundTrip) {
  sim::SimWorld world(2);
  TypeParam obj(world, 2, {.value_bits = 8, .initial_value = 0});
  bool sc_ok = false, vl_after = true;
  std::uint64_t seen = 0;
  world.invoke(0, [&] {
    obj.ll(0);
    sc_ok = obj.sc(0, 42);
  });
  world.run_to_completion(0);
  world.invoke(1, [&] {
    seen = obj.ll(1);
    vl_after = obj.vl(1);
  });
  world.run_to_completion(1);
  EXPECT_TRUE(sc_ok);
  EXPECT_EQ(seen, 42u);
  EXPECT_TRUE(vl_after);
}

TYPED_TEST(LlscTypedTest, ScFailsAfterInterveningSc) {
  sim::SimWorld world(2);
  TypeParam obj(world, 2, {.value_bits = 8, .initial_value = 0});
  bool ok0 = true, ok1 = false;
  world.invoke(0, [&] { obj.ll(0); });
  world.run_to_completion(0);
  world.invoke(1, [&] {
    obj.ll(1);
    ok1 = obj.sc(1, 5);
  });
  world.run_to_completion(1);
  world.invoke(0, [&] { ok0 = obj.sc(0, 9); });
  world.run_to_completion(0);
  EXPECT_TRUE(ok1);
  EXPECT_FALSE(ok0) << "SC must fail after an intervening successful SC";
  EXPECT_EQ(world.object_value(0) != 0 || true, true);  // Value stays 5.
  std::uint64_t v = 0;
  world.invoke(0, [&] { v = obj.ll(0); });
  world.run_to_completion(0);
  EXPECT_EQ(v, 5u);
}

TYPED_TEST(LlscTypedTest, VlFalseAfterInterveningSc) {
  sim::SimWorld world(2);
  TypeParam obj(world, 2, {.value_bits = 8, .initial_value = 0});
  world.invoke(0, [&] { obj.ll(0); });
  world.run_to_completion(0);
  world.invoke(1, [&] {
    obj.ll(1);
    obj.sc(1, 5);
  });
  world.run_to_completion(1);
  bool vl = true;
  world.invoke(0, [&] { vl = obj.vl(0); });
  world.run_to_completion(0);
  EXPECT_FALSE(vl);
}

TYPED_TEST(LlscTypedTest, InitiallyUnlinkedScAndVlFail) {
  sim::SimWorld world(2);
  TypeParam obj(world, 2,
                {.value_bits = 8, .initial_value = 3, .initially_linked = false});
  bool sc_ok = true, vl_ok = true;
  world.invoke(0, [&] { sc_ok = obj.sc(0, 9); });
  world.run_to_completion(0);
  world.invoke(1, [&] { vl_ok = obj.vl(1); });
  world.run_to_completion(1);
  EXPECT_FALSE(sc_ok);
  EXPECT_FALSE(vl_ok);
  std::uint64_t v = 0;
  world.invoke(0, [&] { v = obj.ll(0); });
  world.run_to_completion(0);
  EXPECT_EQ(v, 3u) << "failed SC must not clobber the value";
}

TYPED_TEST(LlscTypedTest, InitiallyLinkedVlTrueScSucceeds) {
  // The paper's Figure 5 w.l.o.g. convention.
  sim::SimWorld world(2);
  TypeParam obj(world, 2,
                {.value_bits = 8, .initial_value = 3, .initially_linked = true});
  bool vl_ok = false;
  world.invoke(1, [&] { vl_ok = obj.vl(1); });
  world.run_to_completion(1);
  EXPECT_TRUE(vl_ok);
  bool sc_ok = false;
  world.invoke(0, [&] { sc_ok = obj.sc(0, 9); });
  world.run_to_completion(0);
  EXPECT_TRUE(sc_ok);
  world.invoke(1, [&] { vl_ok = obj.vl(1); });
  world.run_to_completion(1);
  EXPECT_FALSE(vl_ok) << "successful SC must break all initial links";
}

TYPED_TEST(LlscTypedTest, SecondScWithoutNewLlFails) {
  sim::SimWorld world(2);
  TypeParam obj(world, 2, {.value_bits = 8, .initial_value = 0});
  bool ok1 = false, ok2 = true;
  world.invoke(0, [&] {
    obj.ll(0);
    ok1 = obj.sc(0, 1);
    ok2 = obj.sc(0, 2);
  });
  world.run_to_completion(0);
  EXPECT_TRUE(ok1);
  EXPECT_FALSE(ok2) << "an SC consumes the link";
}

// --------------------------------------------------------- Fig 3 specifics

TEST(Fig3Steps, SoloOperationsAreCheap) {
  sim::SimWorld world(4);
  Fig3 obj(world, 4, {.initially_linked = false});
  // First LL: bit set initially (unlinked), so it runs the CAS loop once:
  // 1 read + 1 read + 1 CAS = 3 steps.
  world.invoke(0, [&] { obj.ll(0); });
  EXPECT_EQ(world.run_to_completion(0), 3u);
  // Linked now; SC solo: 1 read + 1 CAS.
  world.invoke(0, [&] { obj.sc(0, 1); });
  EXPECT_EQ(world.run_to_completion(0), 2u);
  // VL: always exactly 1 step.
  world.invoke(0, [&] { obj.vl(0); });
  EXPECT_EQ(world.run_to_completion(0), 1u);
}

TEST(Fig3Steps, WorstCaseBoundsHold) {
  for (int n : {2, 4, 8}) {
    sim::SimWorld world(n);
    Fig3 obj(world, n);
    EXPECT_EQ(obj.worst_case_ll_steps(), 1 + 2 * n);
    EXPECT_EQ(obj.worst_case_sc_steps(), 2 * n);
    EXPECT_EQ(obj.num_shared_objects(), 1);
    EXPECT_EQ(world.num_objects(), 1u);
    EXPECT_EQ(world.object_info(0).kind, sim::ObjectKind::kCas);
    EXPECT_TRUE(world.object_info(0).bound.is_bounded());
  }
}

static int obj_worst_ll(int n) { return 1 + 2 * n; }

// Claim 6 scenario: p0's LL keeps failing its CAS because other processes'
// LLs clear their own bits in between; after at most n failures p0 concludes
// an SC must have intervened — here we check the bound is never exceeded
// and the LL still linearizes correctly under heavy interference.
TEST(Fig3Races, LlCasInterferenceStaysWithinBound) {
  const int n = 4;
  sim::SimWorld world(n);
  spec::History history;
  auto invoker = llsc_factory<Fig3>(n, {.value_bits = 8,
                                        .initial_value = 0,
                                        .initially_linked = false})(world,
                                                                    history);

  // All processes run one LL (all bits set initially -> all take the CAS
  // path). The round-robin adversary at quantum 1 interleaves their
  // read/CAS pairs: each CAS succeeds for one process and fails the
  // in-flight attempts of the rest.
  std::vector<harness::WorkloadOp> workload;
  for (int p = 0; p < n; ++p) workload.push_back({p, spec::Method::kLL, 0});
  harness::ProgramCursor program(n, std::move(workload));
  harness::drive_round_robin(world, *invoker, program, /*quantum=*/1);
  ASSERT_TRUE(world.all_idle());
  for (int p = 0; p < n; ++p) {
    EXPECT_LE(world.steps_in_method(p),
              static_cast<std::uint64_t>(obj_worst_ll(n)))
        << "p" << p;
  }
  EXPECT_TRUE(llsc_check(n, 0, false)(history.ops())) << history.to_string();
}

// An SC that fails n CASes must return false (and that is linearizable
// because some other SC succeeded meanwhile).
TEST(Fig3Races, ScExhaustingRetriesFailsLegally) {
  const int n = 2;
  sim::SimWorld world(n);
  spec::History history;
  auto invoker = std::make_unique<harness::LlscInvoker<Fig3>>(
      world, history,
      std::make_unique<Fig3>(world, n,
                             Fig3::Options{.value_bits = 8,
                                           .initial_value = 0,
                                           .initially_linked = true}));

  // p0 and p1 both SC from their initial links; interleave so p1 wins.
  invoker->invoke({0, spec::Method::kSC, 7});
  world.step(0);  // p0 reads X.
  invoker->invoke({1, spec::Method::kSC, 9});
  world.step(1);  // p1 reads X.
  world.step(1);  // p1 CAS succeeds.
  world.run_to_completion(1);
  world.run_to_completion(0);  // p0's CAS fails; p0 re-reads, sees its bit.

  const auto ops = history.ops();
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(ops[0].ret, 0u);  // p0 failed.
  EXPECT_EQ(ops[1].ret, 1u);  // p1 succeeded.
  EXPECT_TRUE(llsc_check(n, 0, true)(ops)) << history.to_string();
}

// --------------------------------------------------- RegArray specifics

TEST(RegArraySteps, ConstantTimeOperations) {
  for (int n : {2, 8, 32}) {
    sim::SimWorld world(n);
    RegArray obj(world, n);
    world.invoke(0, [&] { obj.ll(0); });
    EXPECT_EQ(world.run_to_completion(0), 3u) << "n=" << n;
    world.invoke(0, [&] { obj.sc(0, 1); });
    EXPECT_EQ(world.run_to_completion(0), 2u) << "n=" << n;
    world.invoke(1, [&] { obj.ll(1); });
    world.run_to_completion(1);
    world.invoke(1, [&] { obj.vl(1); });
    EXPECT_EQ(world.run_to_completion(1), 1u) << "n=" << n;
  }
}

TEST(RegArraySpace, OneCasPlusNRegisters) {
  for (int n : {2, 5, 16}) {
    sim::SimWorld world(n);
    RegArray obj(world, n);
    EXPECT_EQ(world.num_objects(), static_cast<std::size_t>(n) + 1);
    int cas_count = 0, reg_count = 0;
    for (std::size_t i = 0; i < world.num_objects(); ++i) {
      const auto info = world.object_info(static_cast<sim::ObjectId>(i));
      EXPECT_TRUE(info.bound.is_bounded());
      if (info.kind == sim::ObjectKind::kCas) ++cas_count;
      if (info.kind == sim::ObjectKind::kRegister) ++reg_count;
    }
    EXPECT_EQ(cas_count, 1);
    EXPECT_EQ(reg_count, n);
  }
}

// The protection race: p0 links, a successful SC lands between p0's two LL
// reads, and p0's subsequent SC must fail even though the (pid, seq) pair
// could look plausible.
TEST(RegArrayRaces, ScBetweenLlReadsBreaksLink) {
  const int n = 2;
  sim::SimWorld world(n);
  spec::History history;
  auto invoker = std::make_unique<harness::LlscInvoker<RegArray>>(
      world, history,
      std::make_unique<RegArray>(world, n,
                                 RegArray::Options{.value_bits = 8,
                                                   .initial_value = 0,
                                                   .initially_linked = true}));

  invoker->invoke({0, spec::Method::kLL, 0});
  world.step(0);  // p0's first X read.
  invoker->invoke({1, spec::Method::kSC, 5});
  world.run_to_completion(1);  // p1's SC (from initial link) succeeds.
  world.run_to_completion(0);  // p0 finishes LL: reads differ -> b set.
  invoker->invoke({0, spec::Method::kSC, 9});
  world.run_to_completion(0);

  const auto ops = history.ops();
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_EQ(ops[1].ret, 1u);
  EXPECT_EQ(ops[2].ret, 0u) << "p0's SC must fail: an SC intervened";
  EXPECT_TRUE(llsc_check(n, 0, true)(ops)) << history.to_string();
}

// --------------------------------------------------- property: random

struct LlscRandomCase {
  int n;
  int ops_per_process;
  std::uint64_t seed;
  bool initially_linked;
};

class LlscRandom
    : public ::testing::TestWithParam<std::tuple<int, LlscRandomCase>> {};

std::vector<LlscRandomCase> llsc_random_cases() {
  std::vector<LlscRandomCase> cases;
  for (int n : {2, 3, 4}) {
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
      cases.push_back({n, 5, seed, (seed % 2) == 0});
    }
  }
  for (std::uint64_t seed = 50; seed < 54; ++seed) {
    cases.push_back({5, 4, seed, true});
  }
  return cases;
}

TEST_P(LlscRandom, HistoryIsLinearizable) {
  const auto [impl_kind, param] = GetParam();
  const auto workload =
      random_llsc_workload(param.n, param.ops_per_process, 4, param.seed);

  harness::FixtureFactory factory;
  if (impl_kind == 0) {
    factory = llsc_factory<Fig3>(
        param.n, {.value_bits = 4, .initial_value = 0,
                  .initially_linked = param.initially_linked});
  } else if (impl_kind == 1) {
    factory = llsc_factory<RegArray>(
        param.n, {.value_bits = 4, .initial_value = 0,
                  .initially_linked = param.initially_linked});
  } else {
    factory = llsc_factory<Moir>(
        param.n, {.value_bits = 4, .initial_value = 0,
                  .initially_linked = param.initially_linked});
  }

  const auto ops = harness::run_random_schedule(param.n, factory, workload,
                                                param.seed * 7907 + impl_kind);
  const auto result = spec::check_linearizable<spec::LlscSpec>(
      ops, spec::LlscSpec::initial(param.n, 0, param.initially_linked));
  EXPECT_TRUE(result.linearizable) << spec::explain(ops, result);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LlscRandom,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::ValuesIn(llsc_random_cases())));

// ------------------------------------------------- exhaustive (small)

TEST(Fig3Exhaustive, TwoProcessLlScRace) {
  const std::vector<harness::WorkloadOp> workload = {
      {0, spec::Method::kLL, 0},
      {0, spec::Method::kSC, 1},
      {1, spec::Method::kLL, 0},
      {1, spec::Method::kSC, 2},
  };
  const auto result =
      explore_exhaustively(2, llsc_factory<Fig3>(2, {.value_bits = 4}),
                           search::SpecKind::kLlsc, workload);
  EXPECT_FALSE(result.budget_exhausted);
  EXPECT_FALSE(result.violation_found()) << first_violation(result);
}

TEST(RegArrayExhaustive, TwoProcessLlScVlRace) {
  const std::vector<harness::WorkloadOp> workload = {
      {0, spec::Method::kLL, 0},
      {0, spec::Method::kSC, 1},
      {1, spec::Method::kLL, 0},
      {1, spec::Method::kSC, 2},
      {1, spec::Method::kVL, 0},
  };
  const auto result =
      explore_exhaustively(2, llsc_factory<RegArray>(2, {.value_bits = 4}),
                           search::SpecKind::kLlsc, workload);
  EXPECT_FALSE(result.budget_exhausted);
  EXPECT_FALSE(result.violation_found()) << first_violation(result);
}


// --------------------------------------------- property: round-robin

class LlscRoundRobin
    : public ::testing::TestWithParam<std::tuple<int, int, std::uint64_t>> {};

TEST_P(LlscRoundRobin, HistoryIsLinearizable) {
  const auto [n, quantum, seed] = GetParam();
  const auto workload = random_llsc_workload(n, 5, 4, seed);
  const std::vector<harness::FixtureFactory> factories = {
      llsc_factory<Fig3>(n, {.value_bits = 4}),
      llsc_factory<RegArray>(n, {.value_bits = 4}),
      llsc_factory<Moir>(n, {.value_bits = 4}),
  };
  for (std::size_t impl = 0; impl < factories.size(); ++impl) {
    const auto ops =
        harness::run_round_robin(n, factories[impl], workload, quantum);
    const auto result = spec::check_linearizable<spec::LlscSpec>(
        ops, spec::LlscSpec::initial(n, 0, true));
    EXPECT_TRUE(result.linearizable)
        << "impl=" << impl << " quantum=" << quantum << "\n"
        << spec::explain(ops, result);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LlscRoundRobin,
    ::testing::Combine(::testing::Values(2, 3, 4),
                       ::testing::Values(1, 2, 3, 7),
                       ::testing::Values(5ull, 6ull, 7ull)));

}  // namespace
}  // namespace aba::testing

