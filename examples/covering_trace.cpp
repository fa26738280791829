// covering_trace — Lemma 1's adversary, narrated (the paper's Figure 1).
//
// Runs the covering construction against three implementations and prints
// the adversary's log:
//   1. Figure 4 (correct, n+1 registers): every probe escapes the covered
//      set and the full cover of n-1 distinct registers is reached.
//   2. A naive bounded-tag register (1 register, 4 tags): probes never
//      escape, register configurations repeat, and the adversary exhibits
//      the clean/dirty contradiction as a concrete execution.
//   3. The unbounded-tag register: configurations never repeat; the
//      adversary reports that the boundedness hypothesis fails.
//
// Build & run:  cmake --build build && ./build/examples/covering_trace
#include <cstdio>

#include "core/aba_register_bounded.h"
#include "core/aba_register_bounded_tag_naive.h"
#include "core/aba_register_unbounded_tag.h"
#include "harness/adapters.h"
#include "lowerbound/covering_adversary.h"
#include "sim/sim_platform.h"

using aba::lowerbound::CoveringAdversary;
using aba::harness::aba_reg_factory;
using SimP = aba::sim::SimPlatform;

namespace {

void print_report(const char* title, const aba::lowerbound::CoveringReport& r) {
  std::printf("=== %s ===\n", title);
  for (const auto& line : r.log) std::printf("  %s\n", line.c_str());
  std::printf("  ---\n");
  std::printf("  probes=%llu chain-iterations=%llu replays=%llu\n",
              static_cast<unsigned long long>(r.probes),
              static_cast<unsigned long long>(r.chain_iterations),
              static_cast<unsigned long long>(r.replays));
  if (r.cover_reached) {
    std::printf("  RESULT: cover of %d distinct registers reached (target %d)\n",
                r.max_cover, r.target_cover);
  } else if (r.violation_found) {
    std::printf("  RESULT: correctness violation!\n    %s\n",
                r.violation_detail.c_str());
  } else if (r.budget_exhausted) {
    std::printf("  RESULT: budget exhausted without repeat or escape\n");
  }
  std::printf("\n");
}

}  // namespace

int main() {
  const int n = 4;
  std::printf("Covering adversary (Lemma 1 / Theorem 1(a)), n = %d processes\n",
              n);
  std::printf("Process 0 loops WeakWrite; processes 1..%d loop WeakRead.\n\n",
              n - 1);

  {
    using Fig4 = aba::core::AbaRegisterBounded<SimP>;
    CoveringAdversary adversary(
        n, aba_reg_factory<Fig4>(n, {.value_bits = 1}));
    print_report("Figure 4: n+1 bounded registers (correct)",
                 adversary.run(n - 1));
  }
  {
    using Naive = aba::core::AbaRegisterBoundedTagNaive<SimP>;
    CoveringAdversary adversary(
        n, aba_reg_factory<Naive>(
               n, {.value_bits = 1, .tag_bits = 2, .initial_value = 0}));
    print_report("naive bounded tag: 1 register, 4 tags (m far below n-1)",
                 adversary.run(n - 1));
  }
  {
    using Unbounded = aba::core::AbaRegisterUnboundedTag<SimP>;
    CoveringAdversary adversary(
        n, aba_reg_factory<Unbounded>(n, {.value_bits = 1}),
        CoveringAdversary::Options{.max_iterations_per_level = 48,
                                   .max_replays = 20000});
    print_report("unbounded tag: 1 unbounded register (lower bound's escape hatch)",
                 adversary.run(n - 1));
  }

  std::printf(
      "Summary: the bound m >= n-1 (Theorem 1(a)) is witnessed on the correct\n"
      "implementation, enforced against the under-provisioned one, and shown\n"
      "to require the boundedness hypothesis on the unbounded one.\n");
  return 0;
}
