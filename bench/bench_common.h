// Shared helpers for the benchmark/experiment binaries.
//
// Each binary reproduces one experiment row from docs/DESIGN.md (E1..E9):
// it prints the table/figure-equivalent the paper's claim corresponds to,
// and registers google-benchmark timings for the native-platform parts.
// The E1-E6 tables are checked row for row against tests/golden/ (ctest
// paper_tables_golden).
// E9 (bench_throughput_matrix) does not use google-benchmark; it emits the
// BENCH_native.json perf-trajectory file via bench_json.h instead.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "harness/harness.h"
#include "sim/sim_world.h"
#include "spec/history.h"
#include "util/table.h"

namespace aba::bench {

inline void banner(const char* experiment_id, const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s  %s\n", experiment_id, title);
  std::printf("================================================================\n");
}

inline void note(const std::string& text) { std::printf("%s\n", text.c_str()); }

// E2/E3's register workload: even processes loop DWrite(p & 7), odd ones
// DRead, `rounds` ops each.
inline std::vector<harness::WorkloadOp> writers_and_readers(int n,
                                                            int rounds) {
  std::vector<harness::WorkloadOp> workload;
  for (int p = 0; p < n; ++p) {
    for (int i = 0; i < rounds; ++i) {
      workload.push_back(
          p % 2 == 0
              ? harness::WorkloadOp{p, spec::Method::kDWrite,
                                    static_cast<std::uint64_t>(p & 7)}
              : harness::WorkloadOp{p, spec::Method::kDRead, 0});
    }
  }
  return workload;
}

// Runs `workload` on a fresh world under the round-robin contention
// adversary at quantum 1: each sweep gives every in-flight process exactly
// one step. The returned program's worst_steps() are the measured maxima.
inline harness::ProgramCursor run_contended(
    int n, const harness::FixtureFactory& factory,
    std::vector<harness::WorkloadOp> workload) {
  sim::SimWorld world(n);
  world.set_trace_enabled(false);
  spec::History history;
  auto invoker = factory(world, history);
  harness::ProgramCursor program(n, std::move(workload));
  harness::drive_round_robin(world, *invoker, program, /*quantum=*/1);
  return program;
}

}  // namespace aba::bench
