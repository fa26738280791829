// Tests named after the paper's numbered claims: each test realizes the
// claim's statement (or its operational core) as an executable scenario.
// Together with the linearizability suites these pin the reproduction to
// the paper's own proof structure.
#include <gtest/gtest.h>

#include "core/aba_detecting_register.h"
#include "core/aba_register_bounded.h"
#include "core/aba_register_bounded_tag_naive.h"
#include "core/aba_register_from_llsc.h"
#include "core/aba_register_unbounded_tag.h"
#include "core/llsc.h"
#include "core/llsc_register_array.h"
#include "core/llsc_single_cas.h"
#include "core/llsc_unbounded_tag.h"
#include "harness/adapters.h"
#include "harness/harness.h"
#include "native/native_platform.h"
#include "sim/sim_platform.h"
#include "spec/lin_checker.h"
#include "spec/specs.h"
#include "test_support.h"

namespace aba {
namespace {

using SimP = sim::SimPlatform;
using NativeP = native::NativePlatform<>;
using testing::explore_exhaustively;
using harness::fig5_factory;
using testing::first_violation;

// ------------------------------------------------------------ API concepts

static_assert(core::AbaDetectingRegister<core::AbaRegisterBounded<SimP>>);
static_assert(core::AbaDetectingRegister<core::AbaRegisterBounded<NativeP>>);
static_assert(core::AbaDetectingRegister<core::AbaRegisterUnboundedTag<SimP>>);
static_assert(
    core::AbaDetectingRegister<core::AbaRegisterBoundedTagNaive<SimP>>);
static_assert(core::AbaDetectingRegister<
              core::AbaRegisterFromLlsc<core::LlscSingleCas<SimP>>>);
static_assert(core::AbaDetectingRegister<
              core::AbaRegisterOverLlsc<core::LlscSingleCas<SimP>>>);

static_assert(core::LlScVl<core::LlscSingleCas<SimP>>);
static_assert(core::LlScVl<core::LlscSingleCas<NativeP>>);
static_assert(core::LlScVl<core::LlscRegisterArray<SimP>>);
static_assert(core::LlScVl<core::LlscUnboundedTag<SimP>>);

static_assert(Platform<SimP>);
static_assert(Platform<NativeP>);

TEST(ApiConcepts, CompileTimeChecksHold) { SUCCEED(); }

// -------------------------------------------------- Appendix C, Claim 1
// "If b = true at rsp(dr) then some process writes to X during
//  [l(dr), rsp(dr)]; otherwise A[q] = (p,s) = (p',s') at l(dr)."
// Operational check: after a DRead whose two X-reads straddle a DWrite, the
// *next* DRead must flag; after an undisturbed DRead, a subsequent quiet
// DRead must not flag.

TEST(AppendixC_Claim1, StraddledReadPropagatesFlagThroughB) {
  sim::SimWorld world(2);
  core::AbaRegisterBounded<SimP> reg(world, 2);
  // Quiet DRead to settle state.
  world.invoke(1, [&] { reg.dread(1); });
  world.run_to_completion(1);
  // DRead with a DWrite landing between its two X reads.
  std::pair<std::uint64_t, bool> straddled;
  world.invoke(1, [&] { straddled = reg.dread(1); });
  world.step(1);  // read X
  world.step(1);  // read A[q]
  world.step(1);  // write A[q]
  world.invoke(0, [&] { reg.dwrite(0, 3); });
  world.run_to_completion(0);
  world.run_to_completion(1);  // second X read differs -> b := true
  // The write linearized after the straddled read's linearization point;
  // the NEXT read must report it even though X might compare clean.
  std::pair<std::uint64_t, bool> next;
  world.invoke(1, [&] { next = reg.dread(1); });
  world.run_to_completion(1);
  EXPECT_TRUE(straddled.second || next.second);
  EXPECT_EQ(next.first, 3u);
}

TEST(AppendixC_Claim1, QuietReadsNeverFlag) {
  sim::SimWorld world(2);
  core::AbaRegisterBounded<SimP> reg(world, 2);
  world.invoke(0, [&] { reg.dwrite(0, 9); });
  world.run_to_completion(0);
  std::pair<std::uint64_t, bool> r;
  world.invoke(1, [&] { r = reg.dread(1); });
  world.run_to_completion(1);
  EXPECT_TRUE(r.second);
  for (int i = 0; i < 10; ++i) {
    world.invoke(1, [&] { r = reg.dread(1); });
    world.run_to_completion(1);
    EXPECT_FALSE(r.second) << "quiet re-read " << i << " must not flag";
    EXPECT_EQ(r.first, 9u);
  }
}

// -------------------------------------------------- Appendix C, Claims 4/5
// Claim 4: if b=false at inv(dr2) and the announcement pair matches, no
// process wrote X between the linearization points (flag false is sound).
// Claim 5: if the announcement pair differs, some process wrote X between
// the linearization points (flag true is sound).
// Both directions are jointly captured by linearizability over adversarial
// write placements relative to a reader's 4 steps.

TEST(AppendixC_Claims4And5, WritePlacementSweepStaysLinearizable) {
  // For every position k in 0..4, run: DRead; [k steps of DRead2]; full
  // DWrite; [rest of DRead2]; DRead3 — check the whole history.
  for (int cut = 0; cut <= 4; ++cut) {
    sim::SimWorld world(2);
    spec::History history;
    using Fig4 = core::AbaRegisterBounded<SimP>;
    auto invoker = std::make_unique<harness::AbaRegInvoker<Fig4>>(
        world, history, std::make_unique<Fig4>(world, 2));
    invoker->invoke({1, spec::Method::kDRead, 0});
    world.run_to_completion(1);
    invoker->invoke({1, spec::Method::kDRead, 0});
    for (int i = 0; i < cut; ++i) world.step(1);
    invoker->invoke({0, spec::Method::kDWrite, 5});
    world.run_to_completion(0);
    world.run_to_completion(1);
    invoker->invoke({1, spec::Method::kDRead, 0});
    world.run_to_completion(1);

    const auto ops = history.ops();
    const auto result = spec::check_linearizable<spec::AbaRegisterSpec>(
        ops, spec::AbaRegisterSpec::initial(2, 0));
    EXPECT_TRUE(result.linearizable)
        << "cut=" << cut << "\n" << spec::explain(ops, result);
    // The write must be reported by read #2 or read #3.
    EXPECT_TRUE(spec::dread_flag(ops[1].ret) || spec::dread_flag(ops[3].ret))
        << "cut=" << cut;
  }
}

// -------------------------------------------------- Appendix D, Claim 6
// "If a process executes n consecutive unsuccessful CASes in LL/SC, another
//  process executed a successful CAS in line 6 of an SC meanwhile."
// Operationally: LL-only interference can never make a process's LL fail n
// times, because each interfering LL-CAS clears one bit.

TEST(AppendixD_Claim6, LlOnlyInterferenceCannotExhaustRetries) {
  const int n = 4;
  sim::SimWorld world(n);
  spec::History history;
  auto invoker = harness::llsc_factory<core::LlscSingleCas<SimP>>(
      n, {.value_bits = 8, .initial_value = 0, .initially_linked = false})(
      world, history);
  // All processes run their first LL concurrently in lock-step (the
  // round-robin adversary at quantum 1); nobody runs an SC. Every LL must
  // complete with b = false (a successful bit-clearing CAS), i.e. in at most
  // 3 + 2(n-1) steps, never taking the b=true exit.
  std::vector<harness::WorkloadOp> lls, vls;
  for (int p = 0; p < n; ++p) {
    lls.push_back({p, spec::Method::kLL, 0});
    vls.push_back({p, spec::Method::kVL, 0});
  }
  harness::ProgramCursor ll_program(n, std::move(lls));
  harness::drive_round_robin(world, *invoker, ll_program, /*quantum=*/1);
  ASSERT_TRUE(world.all_idle());
  // If some LL had taken the "n failures" exit, a subsequent VL would be
  // false despite no SC ever running — check VL is true for everyone.
  harness::ProgramCursor vl_program(n, std::move(vls));
  harness::drive_round_robin(world, *invoker, vl_program, /*quantum=*/1);
  int vls_checked = 0;
  for (const spec::Op& op : history.ops()) {
    if (op.method != spec::Method::kVL) continue;
    ++vls_checked;
    EXPECT_EQ(op.ret, 1u) << "p" << op.pid
                          << ": LL must not conclude 'SC intervened' from "
                             "LL-only interference (Claim 6)";
  }
  EXPECT_EQ(vls_checked, n);
}

// -------------------------------------------------- Appendix D, Claims 7-10
// The per-claim statements are about linearization points; their observable
// content is the success/failure pattern of SC/VL relative to intervening
// successful SCs, which the LlscSpec linearizability sweeps already check.
// Here: the specific Claim 9 pattern — an SC succeeds iff no successful SC
// linearized since the same process's last LL — under a deterministic
// tournament of all 2-process orderings.

TEST(AppendixD_Claim9, ScSuccessPatternUnderOrderingTournament) {
  for (int winner : {0, 1}) {
    sim::SimWorld world(2);
    core::LlscSingleCas<SimP> obj(
        world, 2, {.value_bits = 8, .initial_value = 0, .initially_linked = false});
    // Both LL.
    for (int p : {0, 1}) {
      world.invoke(p, [&obj, p] { obj.ll(p); });
      world.run_to_completion(p);
    }
    // `winner` SCs first (solo), the other after.
    bool first_ok = false, second_ok = true;
    world.invoke(winner, [&, winner] { first_ok = obj.sc(winner, 5); });
    world.run_to_completion(winner);
    const int loser = 1 - winner;
    world.invoke(loser, [&, loser] { second_ok = obj.sc(loser, 6); });
    world.run_to_completion(loser);
    EXPECT_TRUE(first_ok) << "winner " << winner;
    EXPECT_FALSE(second_ok) << "winner " << winner;
    // Value is the winner's.
    std::uint64_t v = 0;
    world.invoke(0, [&] { v = obj.ll(0); });
    world.run_to_completion(0);
    EXPECT_EQ(v, 5u);
  }
}

// -------------------------------------------------- Theorem 4's reduction
// The LL/SC -> ABA-detecting reduction must preserve detection through BOTH
// verified LL/SC implementations under an identical adversarial schedule.

template <class Llsc>
void reduction_detects_under_schedule() {
  sim::SimWorld world(2);
  Llsc llsc(world, 2,
            {.value_bits = 8, .initial_value = 0, .initially_linked = true});
  core::AbaRegisterFromLlsc<Llsc> reg(llsc, 2, 0);
  std::pair<std::uint64_t, bool> r;
  world.invoke(1, [&] { r = reg.dread(1); });
  world.run_to_completion(1);
  EXPECT_FALSE(r.second);
  // ABA write: restore the initial value.
  world.invoke(0, [&] { reg.dwrite(0, 0); });
  world.run_to_completion(0);
  world.invoke(1, [&] { r = reg.dread(1); });
  world.run_to_completion(1);
  EXPECT_TRUE(r.second) << "the reduction must detect the same-value write";
  EXPECT_EQ(r.first, 0u);
}

TEST(Theorem4Reduction, DetectsOverFig3) {
  reduction_detects_under_schedule<core::LlscSingleCas<SimP>>();
}

TEST(Theorem4Reduction, DetectsOverRegArray) {
  reduction_detects_under_schedule<core::LlscRegisterArray<SimP>>();
}

TEST(Theorem4Reduction, DetectsOverMoir) {
  reduction_detects_under_schedule<core::LlscUnboundedTag<SimP>>();
}

// -------------------------------------------------- cross-composition
// Fig 5 over RegArray — the third full-bounded stack — exhaustively checked
// on a small scenario.

TEST(CrossComposition, Fig5OverRegArrayExhaustive) {
  const std::vector<harness::WorkloadOp> workload = {
      {0, spec::Method::kDWrite, 1},
      {1, spec::Method::kDRead, 0},
      {1, spec::Method::kDRead, 0},
  };
  const auto result = explore_exhaustively(
      2, fig5_factory<core::LlscRegisterArray<SimP>>(2, {.value_bits = 4}),
      search::SpecKind::kAbaRegister, workload);
  EXPECT_FALSE(result.budget_exhausted);
  EXPECT_FALSE(result.violation_found()) << first_violation(result);
}

}  // namespace
}  // namespace aba
