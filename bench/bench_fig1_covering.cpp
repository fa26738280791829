// E5 — Figure 1 / Lemma 1: the covering adversary, quantified.
//
// Two reproductions:
//   1. Against Figure 4 for growing n: the adversary reaches the full cover
//      of n-1 distinct registers (Theorem 1(a)'s bound, witnessed), with
//      the probe/replay counts showing the construction's cost.
//   2. Against the naive bounded-tag register for growing tag width: the
//      chain length until the register-configuration repeat (and with it
//      the correctness violation) grows as Theta(2^tag_bits) — bounded tags
//      only delay the pigeonhole, never escape it.
#include "bench_common.h"
#include "core/aba_register_bounded.h"
#include "core/aba_register_bounded_tag_naive.h"
#include "harness/adapters.h"
#include "lowerbound/covering_adversary.h"
#include "sim/sim_platform.h"

namespace {

using namespace aba;
using SimP = sim::SimPlatform;

void fig4_table() {
  bench::banner("E5a", "Lemma 1 vs Figure 4: the cover is reached");
  util::Table table({"n", "target cover (n-1)", "cover reached", "probes",
                     "chain iterations", "replays", "violation"});
  for (int n : {2, 3, 4, 6, 8, 12}) {
    lowerbound::CoveringAdversary adversary(
        n, harness::aba_reg_factory<core::AbaRegisterBounded<SimP>>(
               n, {.value_bits = 1}),
        lowerbound::CoveringAdversary::Options{.max_iterations_per_level = 128,
                                               .max_replays = 100000,
                                               .verbose_log = false});
    const auto r = adversary.run(n - 1);
    table.add_row({util::Table::fmt(static_cast<std::uint64_t>(n)),
                   util::Table::fmt(static_cast<std::uint64_t>(n - 1)),
                   r.cover_reached ? "yes" : "no", util::Table::fmt(r.probes),
                   util::Table::fmt(r.chain_iterations),
                   util::Table::fmt(r.replays),
                   r.violation_found ? "YES" : "none"});
  }
  table.print();
  bench::note(
      "Claim shape: the adversary covers n-1 distinct registers of Figure 4\n"
      "(its announce array) at every n — the m >= n-1 space bound is live.");
}

void naive_tag_table() {
  bench::banner("E5b", "Lemma 1 vs naive bounded tags: pigeonhole delay");
  util::Table table({"tag bits", "tag period (2^k)", "chain iterations",
                     "replays", "violation found", "clean flag", "dirty flag"});
  for (unsigned k : {1u, 2u, 3u, 4u, 5u, 6u, 7u}) {
    const int n = 2;
    lowerbound::CoveringAdversary adversary(
        n,
        harness::aba_reg_factory<core::AbaRegisterBoundedTagNaive<SimP>>(
            n, {.value_bits = 1, .tag_bits = k, .initial_value = 0}),
        lowerbound::CoveringAdversary::Options{.max_iterations_per_level = 600,
                                               .max_replays = 2000000,
                                               .verbose_log = false});
    const auto r = adversary.run(1);
    table.add_row({util::Table::fmt(static_cast<std::uint64_t>(k)),
                   util::Table::fmt(std::uint64_t{1} << k),
                   util::Table::fmt(r.chain_iterations),
                   util::Table::fmt(r.replays),
                   r.violation_found ? "yes" : "no",
                   r.clean_flag ? "T" : "F", r.dirty_flag ? "T" : "F"});
  }
  table.print();
  bench::note(
      "Claim shape: the construction needs ~2^k writer iterations before the\n"
      "register configuration repeats, then the clean/dirty witnesses split\n"
      "(dirty read returns False = a missed write). Wider tags delay the\n"
      "failure exponentially but cannot prevent it — the paper's point that\n"
      "bounded tagging is 'unsatisfactory from a theoretical perspective'.");
}

void BM_CoveringAdversary_Fig4(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    lowerbound::CoveringAdversary adversary(
        n, harness::aba_reg_factory<core::AbaRegisterBounded<SimP>>(
               n, {.value_bits = 1}),
        lowerbound::CoveringAdversary::Options{.max_iterations_per_level = 128,
                                               .max_replays = 100000,
                                               .verbose_log = false});
    benchmark::DoNotOptimize(adversary.run(n - 1));
  }
}
BENCHMARK(BM_CoveringAdversary_Fig4)->Arg(3)->Arg(6)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  fig4_table();
  naive_tag_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
