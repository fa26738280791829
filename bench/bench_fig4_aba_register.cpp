// E2 — Figure 4 / Theorem 3: multi-writer b-bit ABA-detecting register from
// n+1 bounded registers with constant step complexity.
//
// Reproduces:
//   * space: exactly n+1 registers, each (b + 2 log n + O(1)) bits wide;
//   * time: DWrite = 2 steps and DRead = 4 steps, INDEPENDENT of n and of
//     contention (the algorithm has no retry loops at all);
//   * native throughput of reads and writes under thread contention.
#include "bench_common.h"
#include "core/aba_register_bounded.h"
#include "harness/adapters.h"
#include "native/native_platform.h"
#include "sim/sim_platform.h"
#include "sim/sim_world.h"
#include "util/packed_word.h"

namespace {

using SimFig4 = aba::core::AbaRegisterBounded<aba::sim::SimPlatform>;
using NativeFig4 = aba::core::AbaRegisterBounded<aba::native::NativePlatform<>>;
using aba::spec::Method;

void print_table() {
  aba::bench::banner("E2",
                     "Figure 4 / Theorem 3: ABA-detecting register from n+1 "
                     "bounded registers");
  aba::util::Table table({"n", "registers (m)", "DWrite worst", "DRead worst",
                          "X bits", "A[] bits", "b + 2 log n + 3"});
  const unsigned b = 8;
  for (int n : {2, 4, 8, 16, 32, 64}) {
    aba::sim::SimWorld world(n);
    SimFig4 reg(world, n, {.value_bits = b});
    const auto run = aba::bench::run_contended(
        n, aba::harness::aba_reg_factory<SimFig4>(n, {.value_bits = b}),
        aba::bench::writers_and_readers(n, 24));
    const unsigned log_n = aba::util::bits_for(static_cast<std::uint64_t>(n) - 1);
    table.add_row(
        {aba::util::Table::fmt(static_cast<std::uint64_t>(n)),
         aba::util::Table::fmt(static_cast<std::uint64_t>(reg.num_shared_registers())),
         aba::util::Table::fmt(run.worst_steps(Method::kDWrite)),
         aba::util::Table::fmt(run.worst_steps(Method::kDRead)),
         aba::util::Table::fmt(static_cast<std::uint64_t>(reg.x_register_bits())),
         aba::util::Table::fmt(
             static_cast<std::uint64_t>(reg.announce_register_bits())),
         aba::util::Table::fmt(static_cast<std::uint64_t>(b + 2 * log_n + 3))});
  }
  table.print();
  aba::bench::note(
      "Claim shape: m = n+1 registers; DWrite/DRead worst-case steps are the\n"
      "constants 2 and 4 at every n and under full contention; register\n"
      "widths stay within b + 2 log n + O(1) bits (Theorem 3).");
}

// ---- native timing ----

aba::native::NativePlatform<>::Env g_env;

void BM_Fig4_SoloDWriteDRead(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  NativeFig4 reg(g_env, n, {.value_bits = 8});
  std::uint64_t i = 0;
  for (auto _ : state) {
    reg.dwrite(0, i++ & 255);
    benchmark::DoNotOptimize(reg.dread(std::max(1, n - 1)));
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_Fig4_SoloDWriteDRead)->Arg(2)->Arg(8)->Arg(64);

NativeFig4& contended_reg() {
  static NativeFig4 reg(g_env, 8, {.value_bits = 8});
  return reg;
}

void BM_Fig4_ContendedThreads(benchmark::State& state) {
  NativeFig4& reg = contended_reg();
  const int pid = state.thread_index();
  std::uint64_t i = 0;
  for (auto _ : state) {
    if (pid == 0) {
      reg.dwrite(0, i++ & 255);
    } else {
      benchmark::DoNotOptimize(reg.dread(pid));
    }
  }
  if (state.thread_index() == 0) {
    state.SetItemsProcessed(state.iterations() * state.threads());
  }
}
BENCHMARK(BM_Fig4_ContendedThreads)->Threads(1)->Threads(2)->Threads(4);

}  // namespace

int main(int argc, char** argv) {
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
