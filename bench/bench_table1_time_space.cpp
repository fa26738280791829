// E4 — "Table 1": the time-space landscape of Theorem 1 / Corollary 1.
//
// For every implementation in the repository, the tradeoff auditor measures
// m (objects), t (worst-case steps under the round-robin contention
// adversary) and evaluates the paper's inequality:
//     bounded registers+CAS:   m * t  >= n-1      (Theorem 1(b))
//     bounded writable CAS:   2m * t  >= n-1      (Theorem 1(c))
//
// The reproduction target is the paper's qualitative landscape:
//   * Figure 4            — m = n+1, t = O(1): product ~ 4(n+1), consistent;
//   * Fig 5 over Fig 3    — m = 1, t = O(n): product ~ 4n, consistent;
//   * Fig 5 over RegArray — m = n+1, t = O(1): consistent (the AM/JP point);
//   * Moir (unbounded)    — m = 1, t = O(1): product BELOW n-1, which only
//     unbounded base objects may do;
//   * the naive bounded tag — also below the bound, and therefore INCORRECT
//     (its violation is exhibited by E5).
#include "bench_common.h"
#include "core/aba_register_bounded.h"
#include "core/aba_register_bounded_tag_naive.h"
#include "core/aba_register_unbounded_tag.h"
#include "core/llsc_register_array.h"
#include "core/llsc_single_cas.h"
#include "core/llsc_unbounded_tag.h"
#include "harness/adapters.h"
#include "lowerbound/tradeoff_auditor.h"
#include "sim/sim_platform.h"

namespace {

using namespace aba;
using SimP = sim::SimPlatform;

template <class Llsc>
harness::FixtureFactory fig5_factory(int n) {
  return harness::fig5_factory<Llsc>(n, {.value_bits = 4});
}

void add_row(util::Table& table, const char* name, const char* correctness,
             int n, const harness::FixtureFactory& factory) {
  const auto r = lowerbound::TradeoffAuditor(n, factory).audit();
  table.add_row(
      {name, util::Table::fmt(static_cast<std::uint64_t>(n)),
       util::Table::fmt(static_cast<std::uint64_t>(r.num_objects)),
       r.all_bounded ? "yes" : "no", util::Table::fmt(r.t),
       util::Table::fmt(r.time_space_product), util::Table::fmt(r.lower_bound),
       r.consistent_with_theorem1 ? "yes" : "NO", correctness});
}

void BM_TradeoffAudit_Fig4(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    lowerbound::TradeoffAuditor auditor(
        n, harness::aba_reg_factory<core::AbaRegisterBounded<SimP>>(
               n, {.value_bits = 1}));
    benchmark::DoNotOptimize(auditor.audit());
  }
}
BENCHMARK(BM_TradeoffAudit_Fig4)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  bench::banner("E4",
                "Theorem 1 / Corollary 1: the time-space product landscape");
  util::Table table({"implementation", "n", "m", "bounded", "t",
                     "(2)m*t", "n-1", "product>=n-1", "correct?"});
  for (int n : {4, 8, 16}) {
    add_row(table, "Fig4: n+1 registers, O(1)", "yes (E2, tests)", n,
            harness::aba_reg_factory<core::AbaRegisterBounded<SimP>>(
                n, {.value_bits = 1}));
    add_row(table, "Fig5 o Fig3: 1 CAS, O(n)", "yes (E1, E3, tests)", n,
            fig5_factory<core::LlscSingleCas<SimP>>(n));
    add_row(table, "Fig5 o RegArray: 1 CAS + n regs, O(1)", "yes (tests)", n,
            fig5_factory<core::LlscRegisterArray<SimP>>(n));
    add_row(table, "Fig5 o Moir: 1 UNBOUNDED CAS, O(1)", "yes (tests)", n,
            fig5_factory<core::LlscUnboundedTag<SimP>>(n));
    add_row(table, "unbounded-tag register", "yes (tests)", n,
            harness::aba_reg_factory<core::AbaRegisterUnboundedTag<SimP>>(
                n, {.value_bits = 1}));
    add_row(table, "naive bounded tag (1 reg)", "NO (broken, see E5)", n,
            harness::aba_reg_factory<core::AbaRegisterBoundedTagNaive<SimP>>(
                n, {.value_bits = 1, .tag_bits = 4, .initial_value = 0}));
  }
  table.print();
  bench::note(
      "\nReading the table (paper's claims):\n"
      "  * Every CORRECT implementation from BOUNDED objects sits above the\n"
      "    n-1 line - the two optimal corners are Fig4 (m=n+1, t=O(1)) and\n"
      "    Fig5 o Fig3 (m=1, t=O(n)); Fig5 o RegArray matches Anderson-Moir/\n"
      "    Jayanti-Petrovic. Their products are within a constant factor of\n"
      "    n-1, so the lower bound is asymptotically tight (Theorems 2, 3).\n"
      "  * Implementations below the line are either unbounded (allowed: the\n"
      "    bound's boundedness hypothesis fails) or incorrect (the naive tag,\n"
      "    broken by the covering adversary in E5).\n");

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
