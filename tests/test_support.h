// Shared helpers for the test suites: the harness's fixture factories,
// linearizability-check closures, the exhaustive model-checking entry
// point, and workload generators.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/aba_register_bounded.h"
#include "core/aba_register_from_llsc.h"
#include "core/aba_register_unbounded_tag.h"
#include "core/llsc_register_array.h"
#include "core/llsc_single_cas.h"
#include "core/llsc_unbounded_tag.h"
#include "harness/adapters.h"
#include "harness/harness.h"
#include "sim/schedule_search.h"
#include "sim/sim_platform.h"
#include "spec/lin_checker.h"
#include "spec/specs.h"
#include "util/rng.h"

namespace aba::testing {

using SimP = sim::SimPlatform;
using harness::aba_reg_factory;
using harness::fig5_factory;
using harness::llsc_factory;

// ------------------------------------------------------- history checks

inline auto aba_reg_check(int n, std::uint64_t initial_value) {
  return [n, initial_value](const std::vector<spec::Op>& ops) {
    return static_cast<bool>(spec::check_linearizable<spec::AbaRegisterSpec>(
        ops, spec::AbaRegisterSpec::initial(n, initial_value)));
  };
}

inline auto llsc_check(int n, std::uint64_t initial_value,
                       bool initially_linked) {
  return [n, initial_value, initially_linked](const std::vector<spec::Op>& ops) {
    return static_cast<bool>(spec::check_linearizable<spec::LlscSpec>(
        ops, spec::LlscSpec::initial(n, initial_value, initially_linked)));
  };
}

// ------------------------------------------------------ model checking

// Explores every trace class of `workload` over `factory`'s implementation
// on the DPOR engine — no preemption bound, so sleep sets engage — and
// checks each completed history against `spec`, stopping at the first
// violation. dpor = false is the plain DFS over every interleaving.
inline search::SearchResult explore_exhaustively(
    int n, harness::FixtureFactory factory, search::SpecKind spec,
    std::vector<harness::WorkloadOp> workload, bool dpor = true,
    std::uint64_t max_executions = 200000) {
  search::SearchOptions options;
  options.context_bound = search::kUnboundedContextBound;
  options.max_executions = max_executions;
  options.max_grants = std::numeric_limits<std::uint64_t>::max();
  options.dpor = dpor;
  options.check_spec = true;
  search::ScheduleExplorer explorer(
      search::harness_fixture(std::move(factory), spec), n,
      std::move(workload), search::retired_unreclaimed_cost, options);
  return explorer.run();
}

// The evidence printed when an exhaustive run convicts: the first
// violation's detail and its replayable script.
inline std::string first_violation(const search::SearchResult& result) {
  if (result.violations.empty()) return "";
  return result.violations.front().detail + "\n" +
         result.violations.front().script.serialize();
}

// --------------------------------------------------------- workloads

// Random mixed DRead/DWrite workload: `ops_per_process` ops per process;
// write probability ~40%; values in [0, 2^value_bits).
inline std::vector<harness::WorkloadOp> random_aba_workload(int n,
                                                            int ops_per_process,
                                                            unsigned value_bits,
                                                            std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<harness::WorkloadOp> workload;
  for (int pid = 0; pid < n; ++pid) {
    for (int i = 0; i < ops_per_process; ++i) {
      if (rng.chance(2, 5)) {
        workload.push_back({pid, spec::Method::kDWrite,
                            rng.below(1ULL << value_bits)});
      } else {
        workload.push_back({pid, spec::Method::kDRead, 0});
      }
    }
  }
  return workload;
}

// Random mixed LL/SC/VL workload.
inline std::vector<harness::WorkloadOp> random_llsc_workload(int n,
                                                             int ops_per_process,
                                                             unsigned value_bits,
                                                             std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<harness::WorkloadOp> workload;
  for (int pid = 0; pid < n; ++pid) {
    for (int i = 0; i < ops_per_process; ++i) {
      const auto dice = rng.below(10);
      if (dice < 4) {
        workload.push_back({pid, spec::Method::kLL, 0});
      } else if (dice < 8) {
        workload.push_back({pid, spec::Method::kSC,
                            rng.below(1ULL << value_bits)});
      } else {
        workload.push_back({pid, spec::Method::kVL, 0});
      }
    }
  }
  return workload;
}

}  // namespace aba::testing
