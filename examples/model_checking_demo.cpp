// model_checking_demo — exhaustive verification of the paper's algorithms
// on small scenarios, one execution per trace class.
//
// The DPOR explorer (sim/schedule_search.h) runs every Mazurkiewicz trace
// class of a fixed workload: two interleavings that differ only in the
// order of commuting steps reach the same state, so one of them stands for
// both. Each explored execution's history is checked against the
// sequential specification with a Wing-Gong linearizability checker. This
// is the strongest form of evidence the repository produces for the upper
// bounds (Theorems 2-4) short of the paper's pencil-and-paper proofs.
// Exits 1 if any scenario is convicted or runs out of budget.
//
// Build & run:  cmake --build build && ./build/examples/model_checking_demo
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "core/aba_register_bounded.h"
#include "core/llsc_single_cas.h"
#include "harness/adapters.h"
#include "harness/harness.h"
#include "sim/schedule_search.h"
#include "sim/sim_platform.h"

using aba::harness::WorkloadOp;
using aba::search::SpecKind;
using aba::sim::SimPlatform;
using aba::spec::Method;

namespace {

// Explores every trace class of `workload` and prints the verdict; returns
// true iff the tree was exhausted with every history linearizable.
bool check(const char* name, int n, aba::harness::FixtureFactory factory,
           SpecKind spec, std::vector<WorkloadOp> workload) {
  aba::search::SearchOptions options;
  options.context_bound = aba::search::kUnboundedContextBound;
  options.max_executions = 200000;
  options.max_grants = std::numeric_limits<std::uint64_t>::max();
  options.check_spec = true;
  aba::search::ScheduleExplorer explorer(
      aba::search::harness_fixture(std::move(factory), spec), n,
      std::move(workload), aba::search::retired_unreclaimed_cost, options);
  const aba::search::SearchResult result = explorer.run();
  std::printf("%-48s %6llu trace classes, %s\n", name,
              static_cast<unsigned long long>(result.executions),
              result.violation_found()   ? "VIOLATION"
              : result.budget_exhausted ? "budget hit"
                                        : "all linearizable");
  if (result.violation_found()) {
    const auto& violation = result.violations.front();
    std::printf("  %s\n  replayable schedule:\n%s", violation.detail.c_str(),
                violation.script.serialize().c_str());
  }
  return !result.violation_found() && !result.budget_exhausted;
}

}  // namespace

int main() {
  std::printf("Exhaustive model checking (every trace class, DPOR)\n");
  std::printf("===================================================\n\n");

  using Fig4 = aba::core::AbaRegisterBounded<SimPlatform>;
  using Fig3 = aba::core::LlscSingleCas<SimPlatform>;

  auto fig4_factory = [](aba::sim::SimWorld& world, aba::spec::History& history)
      -> std::unique_ptr<aba::harness::Invoker> {
    return std::make_unique<aba::harness::AbaRegInvoker<Fig4>>(
        world, history,
        std::make_unique<Fig4>(world, 3, Fig4::Options{.value_bits = 4}));
  };
  auto fig3_factory = [](aba::sim::SimWorld& world, aba::spec::History& history)
      -> std::unique_ptr<aba::harness::Invoker> {
    return std::make_unique<aba::harness::LlscInvoker<Fig3>>(
        world, history,
        std::make_unique<Fig3>(world, 2,
                               Fig3::Options{.value_bits = 4,
                                             .initial_value = 0,
                                             .initially_linked = true}));
  };

  bool ok = true;
  // Scenario 1: the ABA shape — two same-value writes racing two reads.
  ok &= check("Fig4: w(1) w(1) || r || r  (ABA rewrite shape)", 3,
              fig4_factory, SpecKind::kAbaRegister,
              {{0, Method::kDWrite, 1},
               {0, Method::kDWrite, 1},
               {1, Method::kDRead, 0},
               {2, Method::kDRead, 0}});
  // Scenario 2: reader pair racing one write.
  ok &= check("Fig4: w(2) || r r || r", 3, fig4_factory,
              SpecKind::kAbaRegister,
              {{0, Method::kDWrite, 2},
               {1, Method::kDRead, 0},
               {1, Method::kDRead, 0},
               {2, Method::kDRead, 0}});
  // Scenario 3: dueling LL/SC pairs — at most one SC may win per epoch.
  ok &= check("Fig3: ll sc(1) || ll sc(2)", 2, fig3_factory, SpecKind::kLlsc,
              {{0, Method::kLL, 0},
               {0, Method::kSC, 1},
               {1, Method::kLL, 0},
               {1, Method::kSC, 2}});
  // Scenario 4: VL observing an SC race.
  ok &= check("Fig3: ll vl sc(1) || ll sc(2)", 2, fig3_factory,
              SpecKind::kLlsc,
              {{0, Method::kLL, 0},
               {0, Method::kVL, 0},
               {0, Method::kSC, 1},
               {1, Method::kLL, 0},
               {1, Method::kSC, 2}});

  if (!ok) {
    std::printf("\nAt least one scenario failed; see above.\n");
    return 1;
  }
  std::printf(
      "\nEvery trace class of every scenario produced a linearizable\n"
      "history: the Figure 3 and Figure 4 algorithms meet their\n"
      "specifications on these workloads under all schedules.\n");
  return 0;
}
