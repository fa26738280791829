// Tests for the verification harness itself: schedule drivers, exhaustive
// checking of the paper's objects on the DPOR explorer, and the invoker
// adapters. The harness judges the paper's algorithms, so its own behaviour
// is pinned here — including its ability to DETECT planted bugs (a checker
// that can't fail is not evidence).
#include <gtest/gtest.h>

#include "core/aba_register_bounded.h"
#include "core/aba_register_bounded_tag_naive.h"
#include "harness/adapters.h"
#include "harness/harness.h"
#include "sim/schedule_search.h"
#include "sim/sim_platform.h"
#include "spec/lin_checker.h"
#include "spec/specs.h"
#include "test_support.h"

namespace aba::harness {
namespace {

using SimP = sim::SimPlatform;
using search::SpecKind;
using spec::Method;
using testing::explore_exhaustively;
using testing::first_violation;

using Fig3 = core::LlscSingleCas<SimP>;
using Fig4 = core::AbaRegisterBounded<SimP>;
using Naive = core::AbaRegisterBoundedTagNaive<SimP>;

// A deliberately broken ABA-detecting register: never sets the flag.
struct NeverFlags {
  struct Options {};
  NeverFlags(sim::SimWorld& world, int, Options = {})
      : x(world, "x", 0, sim::BoundSpec::unbounded()) {}
  void dwrite(int, std::uint64_t v) { x.write(v); }
  std::pair<std::uint64_t, bool> dread(int) { return {x.read(), false}; }
  SimP::Register x;
};

// A broken register whose writes never reach the word reads load: a read
// invoked after a write returned still sees the initial value. The bug is
// visible only through real-time order — a read overlapping the write may
// legally return the old value.
struct LostWrite {
  struct Options {};
  LostWrite(sim::SimWorld& world, int, Options = {})
      : x(world, "x", 0, sim::BoundSpec::unbounded()),
        y(world, "y", 0, sim::BoundSpec::unbounded()) {}
  void dwrite(int, std::uint64_t v) { y.write(v); }
  std::pair<std::uint64_t, bool> dread(int) { return {x.read(), false}; }
  SimP::Register x;
  SimP::Register y;
};

// A correct single register wrapped as read/write (sanity fixture).
struct PlainRegister {
  struct Options {};
  PlainRegister(sim::SimWorld& world, int, Options = {})
      : x(world, "x", 0, sim::BoundSpec::unbounded()) {}
  void write(int, std::uint64_t v) { x.write(v); }
  std::uint64_t read(int) { return x.read(); }
  SimP::Register x;
};

class PlainRegisterInvoker : public Invoker {
 public:
  PlainRegisterInvoker(sim::SimWorld& world, spec::History& history,
                       std::unique_ptr<PlainRegister> impl)
      : world_(world), history_(history), impl_(std::move(impl)) {}

  void invoke(const WorkloadOp& op) override {
    const auto idx =
        history_.begin_op(op.pid, op.method, op.arg, world_.next_event_time());
    if (op.method == Method::kWrite) {
      world_.invoke(op.pid, [this, op, idx] {
        impl_->write(op.pid, op.arg);
        history_.complete(idx, 0, world_.next_event_time());
      });
    } else {
      world_.invoke(op.pid, [this, op, idx] {
        // Read first: argument evaluation order is unspecified, and the
        // response time must come after the read's step.
        const std::uint64_t value = impl_->read(op.pid);
        history_.complete(idx, value, world_.next_event_time());
      });
    }
  }

 private:
  sim::SimWorld& world_;
  spec::History& history_;
  std::unique_ptr<PlainRegister> impl_;
};

FixtureFactory plain_register_factory(int n) {
  return [n](sim::SimWorld& world,
             spec::History& history) -> std::unique_ptr<Invoker> {
    return std::make_unique<PlainRegisterInvoker>(
        world, history, std::make_unique<PlainRegister>(world, n));
  };
}

auto register_check() {
  return [](const std::vector<spec::Op>& ops) {
    return static_cast<bool>(spec::check_linearizable<spec::RegisterSpec>(
        ops, spec::RegisterSpec::initial(0)));
  };
}

// The 1-bit tag register: two same-value writes wrap the tag between a
// reader's two reads in some interleaving.
FixtureFactory one_bit_naive_factory(int n) {
  return aba_reg_factory<Naive>(
      n, {.value_bits = 1, .tag_bits = 1, .initial_value = 0});
}

// ---------------------------------------------------------------- drivers

TEST(RandomSchedule, IsDeterministicPerSeed) {
  const std::vector<WorkloadOp> workload = {
      {0, Method::kWrite, 1}, {0, Method::kWrite, 2},
      {1, Method::kRead, 0},  {1, Method::kRead, 0},
  };
  const auto a = run_random_schedule(2, plain_register_factory(2), workload, 7);
  const auto b = run_random_schedule(2, plain_register_factory(2), workload, 7);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].ret, b[i].ret);
    EXPECT_EQ(a[i].invoke_ts, b[i].invoke_ts);
    EXPECT_EQ(a[i].response_ts, b[i].response_ts);
  }
}

TEST(RandomSchedule, DifferentSeedsProduceDifferentInterleavings) {
  const std::vector<WorkloadOp> workload = {
      {0, Method::kWrite, 1}, {0, Method::kWrite, 2}, {0, Method::kWrite, 3},
      {1, Method::kRead, 0},  {1, Method::kRead, 0},  {1, Method::kRead, 0},
  };
  bool any_difference = false;
  const auto base = run_random_schedule(2, plain_register_factory(2), workload, 0);
  for (std::uint64_t seed = 1; seed < 20 && !any_difference; ++seed) {
    const auto other =
        run_random_schedule(2, plain_register_factory(2), workload, seed);
    for (std::size_t i = 0; i < base.size(); ++i) {
      if (base[i].ret != other[i].ret ||
          base[i].invoke_ts != other[i].invoke_ts) {
        any_difference = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(RandomSchedule, HistoriesAreComplete) {
  const auto ops = run_random_schedule(
      2, plain_register_factory(2),
      {{0, Method::kWrite, 5}, {1, Method::kRead, 0}}, 3);
  ASSERT_EQ(ops.size(), 2u);
  for (const auto& op : ops) EXPECT_LT(op.invoke_ts, op.response_ts);
}

TEST(RoundRobin, QuantumOneInterleavesFinely) {
  const std::vector<WorkloadOp> workload = {
      {0, Method::kWrite, 1},
      {1, Method::kRead, 0},
  };
  const auto ops = run_round_robin(2, plain_register_factory(2), workload, 1);
  EXPECT_TRUE(register_check()(ops));
}

TEST(RoundRobin, LargeQuantumRunsOpsSolo) {
  const std::vector<WorkloadOp> workload = {
      {0, Method::kWrite, 9},
      {1, Method::kRead, 0},
  };
  const auto ops = run_round_robin(2, plain_register_factory(2), workload, 100);
  ASSERT_EQ(ops.size(), 2u);
  // Solo execution: the read (runs after the write completes) must see 9.
  EXPECT_EQ(ops[1].ret, 9u);
}

TEST(RoundRobin, QuantumOneTurnInvokesAndSteps) {
  // At quantum 1 an idle process's turn both invokes its next op and takes
  // the op's first step. Every op here is one step, so each responds within
  // its own turn: the history is sequential, in pid order. A rule that let
  // the invoke use up the turn would overlap the ops of each sweep.
  const std::vector<WorkloadOp> workload = {
      {0, Method::kWrite, 1}, {0, Method::kWrite, 2},
      {1, Method::kRead, 0},  {1, Method::kRead, 0},
      {2, Method::kRead, 0},  {2, Method::kRead, 0},
  };
  const auto ops = run_round_robin(3, plain_register_factory(3), workload, 1);
  ASSERT_EQ(ops.size(), 6u);
  const std::vector<int> pids = {0, 1, 2, 0, 1, 2};
  const std::vector<std::uint64_t> rets = {0, 1, 1, 0, 2, 2};
  for (std::size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(ops[i].pid, pids[i]) << "op " << i;
    EXPECT_EQ(ops[i].ret, rets[i]) << "op " << i;
    if (i + 1 < ops.size()) {
      EXPECT_LT(ops[i].response_ts, ops[i + 1].invoke_ts)
          << "op " << i << " still pending when op " << i + 1 << " began";
    }
  }
}

TEST(RoundRobin, RecordsEachMethodsWorstStepsAtResponse) {
  // The driver's cursor keeps each method's largest steps_in_method at
  // response: Figure 4's DWrite is 2 steps and its DRead 4 (Theorem 3).
  const int n = 3;
  sim::SimWorld world(n);
  spec::History history;
  auto invoker = aba_reg_factory<Fig4>(n)(world, history);
  ProgramCursor program(n, {{0, Method::kDWrite, 1},
                            {1, Method::kDRead, 0},
                            {2, Method::kDRead, 0},
                            {0, Method::kDWrite, 2}});
  int grants = 0;
  drive_round_robin(world, *invoker, program, 1,
                    [&](const sim::SimWorld&) { ++grants; });
  EXPECT_EQ(program.worst_steps(Method::kDWrite), 2u);
  EXPECT_EQ(program.worst_steps(Method::kDRead), 4u);
  EXPECT_EQ(program.worst_steps(Method::kLL), 0u);
  // One grant per invoke and per step: 4 invokes, 2*2 + 2*4 steps.
  EXPECT_EQ(grants, 4 + 4 + 8);
}

// ------------------------------------------------------------ model check

TEST(ModelCheck, CountsInterleavingsOfIndependentSteps) {
  // Two processes, each an invoke grant then one write step. The plain DFS
  // runs every order of the four grants that keeps program order: C(4,2).
  // DPOR tells orders apart by who writes last (the writes conflict) and,
  // under spec verdicts, by whether the last writer was invoked after the
  // first returned. It may skip an overlapping order whose sequential twin
  // it already checked, since overlap only loosens the history: here
  // inv0 s0 inv1 s1 covers inv0 inv1 s0 s1, leaving three executions.
  const std::vector<WorkloadOp> workload = {
      {0, Method::kWrite, 1},
      {1, Method::kWrite, 2},
  };
  const auto plain = explore_exhaustively(2, plain_register_factory(2),
                                          SpecKind::kNone, workload,
                                          /*dpor=*/false);
  EXPECT_EQ(plain.executions, 6u);
  EXPECT_FALSE(plain.budget_exhausted);
  const auto dpor = explore_exhaustively(2, plain_register_factory(2),
                                         SpecKind::kNone, workload);
  EXPECT_EQ(dpor.executions, 3u);
  EXPECT_FALSE(dpor.budget_exhausted);
}

TEST(ModelCheck, FindsPlantedViolation) {
  // NeverFlags misses any write completing between two reads; the checker
  // must find interleavings where that is illegal, and its script must
  // reconvict on replay.
  const std::vector<WorkloadOp> workload = {
      {0, Method::kDWrite, 1},
      {1, Method::kDRead, 0},
      {1, Method::kDRead, 0},
  };
  const auto result = explore_exhaustively(
      2, aba_reg_factory<NeverFlags>(2), SpecKind::kAbaRegister, workload);
  ASSERT_TRUE(result.violation_found());
  const auto replay = search::ScheduleExplorer::replay(
      search::harness_fixture(aba_reg_factory<NeverFlags>(2),
                              SpecKind::kAbaRegister),
      result.violations.front().script, search::retired_unreclaimed_cost);
  EXPECT_TRUE(replay.verdict.checked);
  EXPECT_FALSE(replay.verdict.ok) << first_violation(result);
}

TEST(ModelCheck, BudgetStopsEarly) {
  const std::vector<WorkloadOp> workload = {
      {0, Method::kDWrite, 1}, {0, Method::kDWrite, 2},
      {1, Method::kDRead, 0},  {1, Method::kDRead, 0},
      {2, Method::kDRead, 0},
  };
  const auto result =
      explore_exhaustively(3, aba_reg_factory<Fig4>(3), SpecKind::kAbaRegister,
                           workload, /*dpor=*/true, /*max_executions=*/50);
  EXPECT_TRUE(result.budget_exhausted);
  EXPECT_EQ(result.executions, 50u);
  EXPECT_FALSE(result.violation_found()) << first_violation(result);
}

TEST(ModelCheck, NaiveTagBreaksUnderExhaustiveSearchWithTinyTags) {
  // With a 1-bit tag and two same-value writes, some interleaving wraps the
  // tag between a reader's two reads — exhaustive search must find it.
  const std::vector<WorkloadOp> workload = {
      {0, Method::kDWrite, 0}, {0, Method::kDWrite, 0},
      {1, Method::kDRead, 0},  {1, Method::kDRead, 0},
  };
  const auto result = explore_exhaustively(2, one_bit_naive_factory(2),
                                           SpecKind::kAbaRegister, workload);
  EXPECT_TRUE(result.violation_found())
      << "exhaustive search must expose the 1-bit tag wraparound";
}

TEST(ModelCheck, ExhaustiveMatchesRandomOnCorrectImpl) {
  const std::vector<WorkloadOp> workload = {
      {0, Method::kDWrite, 1},
      {1, Method::kDRead, 0},
      {1, Method::kDRead, 0},
  };
  const auto result = explore_exhaustively(2, aba_reg_factory<Fig4>(2),
                                           SpecKind::kAbaRegister, workload);
  EXPECT_FALSE(result.budget_exhausted);
  EXPECT_FALSE(result.violation_found()) << first_violation(result);
}

// Sleep sets prune by trace equivalence; on the paper's objects that must
// never change a verdict. The plain DFS runs every interleaving of the
// cheapest scenarios, and both modes must agree — convicting every planted
// bug and clearing every correct object. LostWrite's violation needs a read
// invoked after a write's response, an order that commutes with nothing in
// shared memory: DPOR finds it only because invocations and responses of
// different processes count as dependent under spec verdicts.
TEST(ModelCheck, DporAgreesWithPlainDfsOnThePaperObjects) {
  const std::vector<WorkloadOp> w_rr = {
      {0, Method::kDWrite, 1}, {1, Method::kDRead, 0}, {1, Method::kDRead, 0}};
  const std::vector<WorkloadOp> ww_rr = {
      {0, Method::kDWrite, 0}, {0, Method::kDWrite, 0},
      {1, Method::kDRead, 0},  {1, Method::kDRead, 0}};
  const std::vector<WorkloadOp> llsc_race = {
      {0, Method::kLL, 0}, {0, Method::kSC, 1},
      {1, Method::kLL, 0}, {1, Method::kSC, 2}};
  const std::vector<WorkloadOp> llvl_race = {
      {0, Method::kLL, 0}, {0, Method::kVL, 0}, {0, Method::kSC, 1},
      {1, Method::kLL, 0}, {1, Method::kSC, 2}};
  struct Scenario {
    const char* name;
    FixtureFactory factory;
    SpecKind spec;
    std::vector<WorkloadOp> workload;
    bool planted_bug;
  };
  const std::vector<Scenario> scenarios = {
      {"NeverFlags w || r r", aba_reg_factory<NeverFlags>(2),
       SpecKind::kAbaRegister, w_rr, true},
      {"1-bit naive tag w w || r r", one_bit_naive_factory(2),
       SpecKind::kAbaRegister, ww_rr, true},
      {"LostWrite w w || r", aba_reg_factory<LostWrite>(2),
       SpecKind::kAbaRegister,
       {{0, Method::kDWrite, 1}, {0, Method::kDWrite, 1},
        {1, Method::kDRead, 0}},
       true},
      {"Fig4 w || r r", aba_reg_factory<Fig4>(2), SpecKind::kAbaRegister,
       w_rr, false},
      {"Fig5 over Fig3 w || r r", fig5_factory<Fig3>(2),
       SpecKind::kAbaRegister, w_rr, false},
      {"Fig3 ll sc || ll sc", llsc_factory<Fig3>(2, {.value_bits = 4}),
       SpecKind::kLlsc, llsc_race, false},
      {"Fig3 ll vl sc || ll sc", llsc_factory<Fig3>(2, {.value_bits = 4}),
       SpecKind::kLlsc, llvl_race, false},
  };
  for (const Scenario& s : scenarios) {
    SCOPED_TRACE(s.name);
    const auto dpor =
        explore_exhaustively(2, s.factory, s.spec, s.workload, true);
    const auto plain =
        explore_exhaustively(2, s.factory, s.spec, s.workload, false);
    EXPECT_FALSE(dpor.budget_exhausted);
    EXPECT_FALSE(plain.budget_exhausted);
    EXPECT_EQ(dpor.violation_found(), s.planted_bug) << first_violation(dpor);
    EXPECT_EQ(plain.violation_found(), s.planted_bug) << first_violation(plain);
    if (!s.planted_bug) {
      EXPECT_LT(dpor.executions, plain.executions);
    }
  }
}

}  // namespace
}  // namespace aba::harness
