// Tests for the lower-bound engines: Lemma 1's covering adversary and the
// Lemma 2-3 tradeoff auditor, exercised against correct, under-provisioned,
// and unbounded implementations.
#include <gtest/gtest.h>

#include "core/aba_register_bounded.h"
#include "core/aba_register_bounded_tag_naive.h"
#include "core/aba_register_unbounded_tag.h"
#include "core/llsc_single_cas.h"
#include "core/llsc_unbounded_tag.h"
#include "harness/adapters.h"
#include "lowerbound/covering_adversary.h"
#include "lowerbound/tradeoff_auditor.h"
#include "sim/sim_platform.h"

namespace aba::lowerbound {
namespace {

using SimP = sim::SimPlatform;
using harness::aba_reg_factory;
using Fig4 = core::AbaRegisterBounded<SimP>;
using NaiveTag = core::AbaRegisterBoundedTagNaive<SimP>;
using UnboundedTag = core::AbaRegisterUnboundedTag<SimP>;

// Figure 5 over Figure 3 (the all-bounded CAS-based stack used by the
// tradeoff audits) and over Moir's unbounded-tag LL/SC.
harness::FixtureFactory fig5_over_fig3_factory(int n) {
  return harness::fig5_factory<core::LlscSingleCas<SimP>>(n, {.value_bits = 4});
}

harness::FixtureFactory fig5_over_moir_factory(int n) {
  return harness::fig5_factory<core::LlscUnboundedTag<SimP>>(
      n, {.value_bits = 4});
}

// ----------------------------------------------------- covering adversary

TEST(CoveringAdversary, BreaksNaiveBoundedTagRegister) {
  // m = 1 bounded register with 4 tags: far below m >= n-1 for n = 3.
  const int n = 3;
  CoveringAdversary adversary(
      n, aba_reg_factory<NaiveTag>(
             n, {.value_bits = 4, .tag_bits = 2, .initial_value = 0}));
  const auto report = adversary.run(n - 1);
  EXPECT_TRUE(report.violation_found) << "the naive tag register must break";
  EXPECT_FALSE(report.cover_reached);
  // The contradiction: the p-dirty configuration's read misses the writes.
  EXPECT_FALSE(report.dirty_flag);
  EXPECT_FALSE(report.clean_flag);
  EXPECT_FALSE(report.violation_detail.empty());
}

TEST(CoveringAdversary, BreaksNaiveTagEvenWithWideTags) {
  // More tags only delays the pigeonhole; 5 bits = 32 configurations.
  const int n = 2;
  CoveringAdversary adversary(
      n, aba_reg_factory<NaiveTag>(
             n, {.value_bits = 1, .tag_bits = 5, .initial_value = 0}),
      CoveringAdversary::Options{.max_iterations_per_level = 256,
                                 .max_replays = 100000,
                                 .verbose_log = false});
  const auto report = adversary.run(1);
  EXPECT_TRUE(report.violation_found);
  // The chain must have run past the tag period before the repeat.
  EXPECT_GE(report.chain_iterations, 32u);
}

TEST(CoveringAdversary, Fig4ReachesFullCover) {
  for (int n : {2, 3, 4, 6}) {
    CoveringAdversary adversary(
        n, aba_reg_factory<Fig4>(n, {.value_bits = 1}));
    const auto report = adversary.run(n - 1);
    EXPECT_TRUE(report.cover_reached) << "n=" << n;
    EXPECT_FALSE(report.violation_found) << "n=" << n;
    EXPECT_EQ(report.max_cover, n - 1) << "n=" << n;
  }
}

TEST(CoveringAdversary, Fig4CoverUsesAnnounceRegisters) {
  // The n-1 covered registers are exactly the readers' announce entries —
  // the structural reason Figure 4 needs its announce array.
  const int n = 4;
  CoveringAdversary adversary(n,
                              aba_reg_factory<Fig4>(n, {.value_bits = 1}));
  const auto report = adversary.run(n - 1);
  ASSERT_TRUE(report.cover_reached);
  bool mentions_announce = false;
  for (const auto& line : report.log) {
    if (line.find("A#") != std::string::npos) mentions_announce = true;
  }
  EXPECT_TRUE(mentions_announce);
}

TEST(CoveringAdversary, UnboundedTagExhaustsBudgetWithoutRepeat) {
  // With unbounded registers, reg(D_i) never repeats: the adversary must
  // report budget exhaustion, not a violation — the paper's separation
  // between bounded and unbounded base objects.
  const int n = 2;
  CoveringAdversary adversary(
      n, aba_reg_factory<UnboundedTag>(n, {.value_bits = 1}),
      CoveringAdversary::Options{.max_iterations_per_level = 64,
                                 .max_replays = 50000,
                                 .verbose_log = false});
  const auto report = adversary.run(1);
  EXPECT_FALSE(report.violation_found);
  EXPECT_FALSE(report.cover_reached);
  EXPECT_TRUE(report.budget_exhausted);
}

TEST(CoveringAdversary, ProducesNarratedTrace) {
  const int n = 3;
  CoveringAdversary adversary(n,
                              aba_reg_factory<Fig4>(n, {.value_bits = 1}));
  const auto report = adversary.run(n - 1);
  EXPECT_FALSE(report.log.empty());
}

// ------------------------------------------------------- tradeoff auditor

TEST(TradeoffAuditor, Fig4Consistent) {
  for (int n : {2, 4, 8}) {
    TradeoffAuditor auditor(n, aba_reg_factory<Fig4>(n, {.value_bits = 1}));
    const auto report = auditor.audit();
    EXPECT_EQ(report.num_objects, n + 1) << report.summary();
    EXPECT_TRUE(report.all_bounded);
    EXPECT_FALSE(report.has_cas);
    EXPECT_EQ(report.worst_write_steps, 2u);
    EXPECT_EQ(report.worst_read_steps, 4u);
    EXPECT_TRUE(report.consistent_with_theorem1) << report.summary();
  }
}

TEST(TradeoffAuditor, Fig5OverFig3Consistent) {
  // m = 1 bounded CAS; t = O(n). Product stays above n-1 (Theorem 1(b)).
  for (int n : {2, 4, 8}) {
    TradeoffAuditor auditor(n, fig5_over_fig3_factory(n));
    const auto report = auditor.audit();
    EXPECT_EQ(report.num_objects, 1) << report.summary();
    EXPECT_TRUE(report.all_bounded);
    EXPECT_TRUE(report.has_cas);
    EXPECT_FALSE(report.has_writable_cas);
    // Worst-case WeakRead is VL + LL <= 2n+2; WeakWrite is LL + SC <= 4n+1.
    EXPECT_LE(report.t, static_cast<std::uint64_t>(4 * n + 1))
        << report.summary();
    EXPECT_TRUE(report.consistent_with_theorem1) << report.summary();
  }
}

TEST(TradeoffAuditor, Fig3ContentionApproachesWorstCase) {
  // Under the lock-step contention round, LL retry loops must actually pay
  // Theta(n) steps — the measured t grows with n.
  TradeoffAuditor a4(4, fig5_over_fig3_factory(4));
  TradeoffAuditor a8(8, fig5_over_fig3_factory(8));
  const auto r4 = a4.audit();
  const auto r8 = a8.audit();
  EXPECT_GT(r8.t, r4.t) << r4.summary() << "\n" << r8.summary();
  EXPECT_GE(r8.t, 8u);
}

TEST(TradeoffAuditor, MoirUnboundedBeatsTheBound) {
  // The unbounded-tag LL/SC gives m = 1, t = O(1): the product falls below
  // n-1 for larger n — only possible because the object is unbounded.
  const int n = 8;
  TradeoffAuditor auditor(n, fig5_over_moir_factory(n));
  const auto report = auditor.audit();
  EXPECT_FALSE(report.all_bounded);
  EXPECT_EQ(report.num_objects, 1);
  EXPECT_LE(report.t, 4u);
  EXPECT_FALSE(report.consistent_with_theorem1)
      << "unbounded implementations may beat the bounded-object bound: "
      << report.summary();
}

TEST(TradeoffAuditor, UnboundedTagRegisterBeatsTheBound) {
  const int n = 8;
  TradeoffAuditor auditor(
      n, aba_reg_factory<UnboundedTag>(n, {.value_bits = 1}));
  const auto report = auditor.audit();
  EXPECT_FALSE(report.all_bounded);
  EXPECT_EQ(report.num_objects, 1);
  EXPECT_EQ(report.t, 1u);
  EXPECT_FALSE(report.consistent_with_theorem1) << report.summary();
}

TEST(TradeoffAuditor, CensusStaysWithinLemma3Bound) {
  // Lemma 3(iii): at most t processes poised per operation class per object.
  for (int n : {3, 6}) {
    TradeoffAuditor auditor(n, fig5_over_fig3_factory(n));
    const auto report = auditor.audit();
    EXPECT_LE(report.max_cas_poise, report.t) << report.summary();
    EXPECT_LE(report.max_write_poise, report.t) << report.summary();
  }
}

TEST(TradeoffAuditor, SummaryIsInformative) {
  TradeoffAuditor auditor(3, aba_reg_factory<Fig4>(3, {.value_bits = 1}));
  const auto report = auditor.audit();
  const std::string s = report.summary();
  EXPECT_NE(s.find("n=3"), std::string::npos);
  EXPECT_NE(s.find("registers"), std::string::npos);
}

}  // namespace
}  // namespace aba::lowerbound
