// E3 — Figure 5 / Theorem 4: an ABA-detecting register from a single
// LL/SC/VL object, two LL/SC-level operations per DRead/DWrite.
//
// Reproduces the reduction behind Corollary 1 in both directions:
//   * composed over the O(1)-step unbounded-tag LL/SC, the reduction yields
//     a constant-step ABA-detecting register from one (unbounded) object —
//     matching the trivial upper bound;
//   * composed over Figure 3 (one bounded CAS, O(n) steps), it yields an
//     ABA-detecting register from one bounded CAS with O(n) steps — exactly
//     the (m = 1, t = O(n)) corner of the tradeoff that Theorem 1(b) proves
//     unavoidable for bounded objects.
#include <utility>

#include "bench_common.h"
#include "core/aba_register_bounded.h"
#include "core/aba_register_from_llsc.h"
#include "core/llsc_single_cas.h"
#include "core/llsc_unbounded_tag.h"
#include "harness/adapters.h"
#include "native/native_platform.h"
#include "sim/sim_platform.h"

namespace {

using SimP = aba::sim::SimPlatform;
using aba::spec::Method;

// Worst-case DWrite/DRead shared steps of Figure 5 over Llsc under the
// round-robin contention adversary.
template <class Llsc>
std::pair<std::uint64_t, std::uint64_t> measure(int n, int rounds) {
  const auto run = aba::bench::run_contended(
      n, aba::harness::fig5_factory<Llsc>(n, {.value_bits = 8}),
      aba::bench::writers_and_readers(n, rounds));
  return {run.worst_steps(Method::kDWrite), run.worst_steps(Method::kDRead)};
}

void print_table() {
  aba::bench::banner("E3",
                     "Figure 5 / Theorem 4: ABA-detecting register from one "
                     "LL/SC/VL object");
  aba::util::Table table({"substrate", "n", "objects", "bounded",
                          "DWrite worst", "DRead worst", "bound"});
  for (int n : {2, 4, 8, 16}) {
    {
      auto [w, r] = measure<aba::core::LlscUnboundedTag<SimP>>(n, 24);
      table.add_row({"Moir LL/SC (unbounded tag)",
                     aba::util::Table::fmt(static_cast<std::uint64_t>(n)), "1",
                     "no", aba::util::Table::fmt(w), aba::util::Table::fmt(r),
                     "O(1)"});
    }
    {
      auto [w, r] = measure<aba::core::LlscSingleCas<SimP>>(n, 24);
      table.add_row({"Figure 3 LL/SC (1 bounded CAS)",
                     aba::util::Table::fmt(static_cast<std::uint64_t>(n)), "1",
                     "yes", aba::util::Table::fmt(w), aba::util::Table::fmt(r),
                     "O(n)"});
    }
  }
  table.print();
  aba::bench::note(
      "Claim shape: the reduction costs two LL/SC-level operations per\n"
      "DRead/DWrite (Theorem 4). Over an unbounded substrate the result is\n"
      "O(1)-step from one object; over the bounded Figure 3 substrate the\n"
      "steps grow with n — as Theorem 1(b) says they must when m = 1.\n"
      "Compare with E2: Figure 4 gets O(1) steps from bounded objects by\n"
      "paying m = n+1 instead.");
}

// ---- native timing: composed vs direct ----

aba::native::NativePlatform<>::Env g_env;

void BM_Fig5_OverMoir_Native(benchmark::State& state) {
  using Llsc = aba::core::LlscUnboundedTag<aba::native::NativePlatform<>>;
  static aba::core::AbaRegisterOverLlsc<Llsc> reg(g_env, 4, {.value_bits = 8});
  std::uint64_t i = 0;
  for (auto _ : state) {
    reg.dwrite(0, i++ & 255);
    benchmark::DoNotOptimize(reg.dread(1));
  }
}
BENCHMARK(BM_Fig5_OverMoir_Native);

void BM_Fig4_Direct_Native(benchmark::State& state) {
  using Fig4 = aba::core::AbaRegisterBounded<aba::native::NativePlatform<>>;
  static Fig4 reg(g_env, 4, {.value_bits = 8});
  std::uint64_t i = 0;
  for (auto _ : state) {
    reg.dwrite(0, i++ & 255);
    benchmark::DoNotOptimize(reg.dread(1));
  }
}
BENCHMARK(BM_Fig4_Direct_Native);

}  // namespace

int main(int argc, char** argv) {
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
