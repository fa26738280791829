// Shared helpers for the test suites: the harness's fixture factories,
// linearizability-check closures, the exhaustive model-checking entry
// point, the committed schedule corpus, and workload generators.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
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

// Multiset conservation on a container history: every taken value was put
// successfully at least as many times as it was taken.
inline void expect_conserved(const std::vector<spec::Op>& ops,
                             spec::Method take) {
  std::map<std::uint64_t, long> balance;
  for (const auto& op : ops) {
    if (op.method != take && op.ret == 1) ++balance[op.arg];
  }
  for (const auto& op : ops) {
    if (op.method == take && op.ret != 0) {
      const std::uint64_t value = op.ret - 1;  // pack_opt inverse
      auto it = balance.find(value);
      ASSERT_TRUE(it != balance.end() && it->second > 0)
          << "taken value " << value << " never put (or taken twice)";
      --it->second;
    }
  }
}

// Splits a container history by its landing-shard tags and checks each
// sub-history against Spec, then the whole history for conservation. An
// unsharded history is one shard with every tag 0.
template <class Spec>
void expect_sharded_contract(const std::vector<spec::Op>& ops,
                             const std::vector<int>& shard_of, int num_shards,
                             spec::Method take) {
  ASSERT_EQ(ops.size(), shard_of.size());
  std::vector<std::vector<spec::Op>> by_shard(
      static_cast<std::size_t>(num_shards));
  for (std::size_t i = 0; i < ops.size(); ++i) {
    ASSERT_GE(shard_of[i], 0) << "op " << i << " missing its shard tag";
    ASSERT_LT(shard_of[i], num_shards);
    by_shard[static_cast<std::size_t>(shard_of[i])].push_back(ops[i]);
  }
  for (int s = 0; s < num_shards; ++s) {
    const auto& sub = by_shard[static_cast<std::size_t>(s)];
    const auto result = spec::check_linearizable<Spec>(sub, Spec::initial());
    EXPECT_TRUE(result.linearizable)
        << "shard " << s << " sub-history not linearizable\n"
        << spec::explain(sub, result);
  }
  expect_conserved(ops, take);
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

// ------------------------------------------------------ schedule corpus

// The committed tests/schedules/*.sched files (ABA_SCHEDULE_DIR), sorted.
inline std::vector<std::filesystem::path> corpus_files() {
  std::vector<std::filesystem::path> files;
  const std::filesystem::path dir(ABA_SCHEDULE_DIR);
  if (std::filesystem::exists(dir)) {
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.path().extension() == ".sched") files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

// One corpus file's bytes (empty if it cannot be read).
inline std::string read_text(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Reads and parses one corpus file; nullopt if it does not parse.
inline std::optional<search::ScheduleScript> load_script(
    const std::filesystem::path& path) {
  return search::ScheduleScript::parse(read_text(path));
}

// The factory a corpus script names: its `fixture` meta at its `pool` meta
// (the default per-process pool when absent).
inline search::SearchFixtureFactory fixture_of(
    const search::ScheduleScript& script) {
  const int pool = script.meta.count("pool")
                       ? std::stoi(script.meta.at("pool"))
                       : search::kDefaultPoolPerProcess;
  return search::reclaim_fixture(script.meta.at("fixture"), pool);
}

// --------------------------------------------------------- workloads

// The workload_candidates shape called `name`; empty if there is none.
inline std::vector<harness::WorkloadOp> candidate_workload(
    const std::string& fixture, int n, int cycles, const std::string& name) {
  for (auto& candidate : search::workload_candidates(fixture, n, cycles)) {
    if (candidate.name == name) return std::move(candidate.workload);
  }
  return {};
}

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

// Random put/take container workload: `ops` ops per process, each a put
// (values in [0, 100)) or a take with probability 1/2.
inline std::vector<harness::WorkloadOp> random_container_workload(
    int n, int ops, std::uint64_t seed, spec::Method put, spec::Method take) {
  util::Xoshiro256 rng(seed);
  std::vector<harness::WorkloadOp> workload;
  for (int pid = 0; pid < n; ++pid) {
    for (int i = 0; i < ops; ++i) {
      if (rng.chance(1, 2)) {
        workload.push_back({pid, put, rng.below(100)});
      } else {
        workload.push_back({pid, take, 0});
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
