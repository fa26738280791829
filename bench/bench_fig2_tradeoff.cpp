// E6 — Figure 2 / Lemmas 2-3: the hiding construction's measurable core.
//
// Lemma 3(iii) caps the number of processes simultaneously poised to
// Write() (respectively CAS()) any single object by the step complexity t;
// combined with the all-readers-poised configurations of the construction
// this yields the counting bound of Appendix B.2. The auditor runs the
// round-robin contention adversary, takes the census after every grant and
// reports its maxima next to the measured t.
#include "bench_common.h"
#include "core/aba_register_bounded.h"
#include "core/llsc_register_array.h"
#include "core/llsc_single_cas.h"
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

void add_row(util::Table& table, const char* name, int n,
             const harness::FixtureFactory& factory) {
  const auto r = lowerbound::TradeoffAuditor(n, factory).audit();
  table.add_row({name, util::Table::fmt(static_cast<std::uint64_t>(n)),
                 util::Table::fmt(r.t), util::Table::fmt(r.max_cas_poise),
                 util::Table::fmt(r.max_write_poise),
                 util::Table::fmt(r.max_total_poise),
                 r.max_cas_poise <= r.t && r.max_write_poise <= r.t ? "yes"
                                                                    : "NO"});
}

void BM_CensusAudit_Fig5Fig3(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    lowerbound::TradeoffAuditor auditor(
        n, fig5_factory<core::LlscSingleCas<SimP>>(n));
    benchmark::DoNotOptimize(auditor.audit());
  }
}
BENCHMARK(BM_CensusAudit_Fig5Fig3)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  bench::banner("E6",
                "Lemmas 2-3: poise census (WCov/CCov) vs step complexity t");
  util::Table table({"implementation", "n", "t (measured)", "max |CCov|",
                     "max |WCov|", "max combined", "census <= t"});
  for (int n : {3, 6, 10, 14}) {
    add_row(table, "Fig5 o Fig3 (1 CAS)", n,
            fig5_factory<core::LlscSingleCas<SimP>>(n));
    add_row(table, "Fig5 o RegArray (1 CAS + n regs)", n,
            fig5_factory<core::LlscRegisterArray<SimP>>(n));
    add_row(table, "Fig4 (registers only)", n,
            harness::aba_reg_factory<core::AbaRegisterBounded<SimP>>(
                n, {.value_bits = 1}));
  }
  table.print();
  bench::note(
      "Claim shape: for every implementation the adversarially-maximized\n"
      "per-object poise counts stay within the measured worst-case step\n"
      "complexity t, exactly as Lemma 3(iii) dictates. For Fig5 o Fig3 the\n"
      "census grows with n (all readers pile onto the single CAS object),\n"
      "which is only possible because t = O(n) there; for the O(1)-step\n"
      "implementations the census stays constant.");

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
