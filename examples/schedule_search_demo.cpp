// schedule_search_demo — runs the ScheduleExplorer against the standard
// reclaimer fixtures and (optionally) regenerates the committed worst-case
// corpus under tests/schedules/.
//
//   ./schedule_search_demo                 # search, print the summary table
//   ./schedule_search_demo --out=DIR       # also write DIR/<fixture>.sched
//   ./schedule_search_demo stack_epoch ... # restrict to named fixtures
//   ./schedule_search_demo --crashes ...   # search WITH crash grants; emits
//                                          # DIR/<fixture>.crash.sched whose
//                                          # golden bounds cover recovery
//                                          # (expropriations, final counts)
//   ./schedule_search_demo --procs=3 ...   # n>2 fixtures (extra parked
//                                          # readers); emits
//                                          # DIR/<fixture>.n3.sched
//   ./schedule_search_demo --workload-search
//                                          # outer search over the workload
//                                          # candidates (storm, double storm,
//                                          # put surge, reader pairs); emits
//                                          # DIR/<fixture>.wl.sched stamped
//                                          # with the winning shape
//   ./schedule_search_demo --convict       # spec-driven conviction search
//                                          # over the lease-mutant fixtures
//                                          # (small pool, crash grants, every
//                                          # workload candidate); emits
//                                          # DIR/<fixture>.crash.sched whose
//                                          # replay re-produces the failing
//                                          # verdict
//
// Each emitted script carries its golden bounds (expect_peak,
// expect_peak_grant, expect_grants — plus, for crash schedules, crashes,
// expect_expropriations and the drained final counts) in meta; the corpus
// gtest (ScheduleCorpus.*) replays the file twice and checks the bounds and
// bit-identical traces. Regenerate only when the searcher or the fixtures
// change, and re-run the tests afterwards.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "sim/schedule_search.h"

namespace {

using namespace aba;

constexpr int kProcs = 2;
constexpr int kCycles = 12;
constexpr int kCrashCycles = 24;

// Stamps the golden bounds the corpus test replays a worst case against.
void stamp_golden(search::ScheduleScript& script, const std::string& name,
                  const search::ReplayResult& replay) {
  script.meta["fixture"] = name;
  script.meta["cost"] = "retired_unreclaimed";
  script.meta["expect_peak"] =
      std::to_string(static_cast<long long>(replay.peak_cost));
  script.meta["expect_peak_grant"] = std::to_string(replay.peak_grant);
  script.meta["expect_grants"] = std::to_string(script.grants.size());
}

// Writes `script` to `path` below its leading `#` comment lines.
bool write_script(const std::string& path, const char* comment,
                  const search::ScheduleScript& script) {
  std::ofstream out(path);
  if (!out.good()) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << comment << script.serialize();
  std::printf("  wrote %s\n", path.c_str());
  return true;
}

// Searches with one crash grant allowed and emits the first candidate whose
// replay actually recovers (a confirmed expropriation in the drained final
// stats). Returns false if no such schedule surfaced within budget.
bool emit_crash_schedule(const std::string& name, const std::string& out_dir) {
  // A symmetric storm: whichever process the searcher kills, the survivor
  // still drives the suspect/confirm handshake to an expropriation.
  const auto factory = search::reclaim_fixture(name);
  search::ScheduleExplorer explorer(
      factory, kProcs,
      search::symmetric_storm_workload(name, kProcs, kCrashCycles),
      search::retired_unreclaimed_cost, search::crash_search_options());
  const search::SearchResult result = explorer.run();

  for (const auto& entry : result.best) {
    const bool has_crash =
        std::any_of(entry.script.grants.begin(), entry.script.grants.end(),
                    search::is_crash_grant);
    if (!has_crash) continue;
    search::ScheduleScript script = entry.script;
    const search::ReplayResult first = search::ScheduleExplorer::replay(
        factory, script, search::retired_unreclaimed_cost);
    if (first.final_stats.expropriations == 0) continue;
    const search::ReplayResult second = search::ScheduleExplorer::replay(
        factory, script, search::retired_unreclaimed_cost);
    if (first.peak_cost != second.peak_cost ||
        first.trace.size() != second.trace.size() ||
        first.final_stats.expropriations !=
            second.final_stats.expropriations) {
      std::fprintf(stderr, "%s: crash replay not deterministic — skipping\n",
                   name.c_str());
      continue;
    }

    const auto crashes = std::count_if(script.grants.begin(),
                                       script.grants.end(),
                                       search::is_crash_grant);
    stamp_golden(script, name, first);
    script.meta["crashes"] = std::to_string(crashes);
    script.meta["expect_expropriations"] =
        std::to_string(first.final_stats.expropriations);
    script.meta["expect_final_retired"] =
        std::to_string(first.final_stats.retired_unreclaimed);
    script.meta["expect_final_free"] =
        std::to_string(first.final_stats.free_nodes);
    script.meta["expect_quarantined"] =
        std::to_string(first.final_stats.quarantined);

    std::printf("%-30s %10.0f %12llu %10llu  expropriations=%zu\n",
                name.c_str(), first.peak_cost,
                static_cast<unsigned long long>(first.peak_grant),
                static_cast<unsigned long long>(result.executions),
                first.final_stats.expropriations);

    return out_dir.empty() ||
           write_script(
               out_dir + "/" + name + ".crash.sched",
               "# Searched crash schedule — a kill at a vulnerable "
               "reclamation phase plus the\n"
               "# survivor's recovery; golden bounds include the drained "
               "final stats. Found by\n"
               "# schedule_search_demo --crashes; replayed by "
               "ScheduleCorpus.* (tests/test_schedule_search.cpp).\n",
               script);
  }
  std::printf("%-30s %10s\n", name.c_str(), "(no recovering crash schedule)");
  return false;
}

// --convict: the lease-mutant conviction searches. Small pool so index
// recycling is reachable, spec verdicts on, one crash grant allowed, every
// workload candidate swept; the emitted script is the conviction itself —
// its replay must re-produce the failing verdict bit-identically. The
// budget is stamped into meta so the corpus hygiene test can re-run the
// exact search that found it.
struct ConvictBudget {
  int procs = 2;
  int pool = 2;
  int cycles = 4;
  int context_bound = 3;
  std::uint64_t max_executions = 20000;
  int max_crashes = 1;
  // When non-empty, only candidates with this name are searched — each
  // mutant's conviction channel needs one specific workload shape, and
  // sweeping the others first burns minutes of budget on shapes that
  // cannot convict (e.g. reader-only peers never scan, so they can never
  // expropriate).
  std::string workload;
  // Forced grant prefix (SearchOptions::prelude) staging a state the
  // heuristic DFS order cannot reach in budget — e.g. the no_restamp
  // channel needs the stormer's first two pushes and a reader parked
  // mid-pop before anything convicting can happen, and fewest-ops-first
  // ordering explores that start last. The searcher still discovers the
  // kill point and the whole suffix interleaving itself.
  std::vector<int> prelude;
};

bool emit_conviction(const std::string& name, const std::string& out_dir,
                     const ConvictBudget& budget) {
  const auto factory = search::reclaim_fixture(name, budget.pool);
  const search::SearchOptions options = search::conviction_search_options(
      budget.context_bound, budget.max_executions, budget.max_crashes,
      budget.prelude);
  for (const auto& candidate :
       search::workload_candidates(name, budget.procs, budget.cycles)) {
    if (!budget.workload.empty() && candidate.name != budget.workload) continue;
    search::ScheduleExplorer explorer(factory, budget.procs, candidate.workload,
                                      search::pool_pressure_cost, options);
    const search::SearchResult result = explorer.run();
    std::printf("%-38s %-13s %8llu schedules%s%s\n", name.c_str(),
                candidate.name.c_str(),
                static_cast<unsigned long long>(result.executions),
                result.budget_exhausted ? " (budget exhausted)" : "",
                result.violations.empty() ? "" : "  CONVICTED");
    if (result.violations.empty()) continue;

    search::ScheduleScript script = result.violations[0].script;
    const search::ReplayResult first = search::ScheduleExplorer::replay(
        factory, script, search::pool_pressure_cost);
    const search::ReplayResult second = search::ScheduleExplorer::replay(
        factory, script, search::pool_pressure_cost);
    if (!first.verdict.checked || first.verdict.ok) {
      std::fprintf(stderr, "%s: conviction did not replay — skipping\n",
                   name.c_str());
      continue;
    }
    if (first.trace.size() != second.trace.size() ||
        first.verdict.detail != second.verdict.detail) {
      std::fprintf(stderr, "%s: conviction replay not deterministic\n",
                   name.c_str());
      continue;
    }
    std::printf("  %s\n", result.violations[0].detail.c_str());

    const auto crashes = std::count_if(script.grants.begin(),
                                       script.grants.end(),
                                       search::is_crash_grant);
    script.meta["fixture"] = name;
    script.meta["cost"] = "pool_pressure";
    script.meta["workload"] = candidate.name;
    script.meta["pool"] = std::to_string(budget.pool);
    script.meta["crashes"] = std::to_string(crashes);
    script.meta["expect_verdict"] = "violation";
    script.meta["search_context_bound"] =
        std::to_string(budget.context_bound);
    script.meta["search_executions"] =
        std::to_string(budget.max_executions);
    script.meta["search_crashes"] = std::to_string(budget.max_crashes);
    script.meta["search_cycles"] = std::to_string(budget.cycles);
    if (!budget.prelude.empty()) {
      // The staged prefix is the script's own leading grants; the length is
      // all a re-run needs to reconstruct the exact search.
      script.meta["search_prelude"] = std::to_string(budget.prelude.size());
    }

    return out_dir.empty() ||
           write_script(
               out_dir + "/" + name + ".crash.sched",
               "# Lease-mutant conviction — a spec violation the bounded "
               "crash-enabled search\n"
               "# found against this deliberately broken reclaimer; "
               "replaying it re-produces\n"
               "# the failing verdict. Found by schedule_search_demo "
               "--convict; replayed by\n"
               "# LeaseMutantCatch.*, CorpusHygiene.* and ScheduleCorpus.* "
               "(tests/test_model_check.cpp,\n"
               "# tests/test_schedule_search.cpp).\n",
               script);
  }
  std::printf("%-38s (no conviction within budget)\n", name.c_str());
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_dir;
  bool crashes = false;
  bool workload_search = false;
  bool convict = false;
  ConvictBudget budget;
  int procs = kProcs;
  std::vector<std::string> wanted;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_dir = argv[i] + 6;
    } else if (std::strcmp(argv[i], "--crashes") == 0) {
      crashes = true;
    } else if (std::strncmp(argv[i], "--procs=", 8) == 0) {
      procs = std::atoi(argv[i] + 8);
      if (procs < 2) {
        std::fprintf(stderr, "--procs must be >= 2\n");
        return 1;
      }
    } else if (std::strcmp(argv[i], "--workload-search") == 0) {
      workload_search = true;
    } else if (std::strcmp(argv[i], "--convict") == 0) {
      convict = true;
    } else if (std::strncmp(argv[i], "--pool=", 7) == 0) {
      budget.pool = std::atoi(argv[i] + 7);
    } else if (std::strncmp(argv[i], "--cycles=", 9) == 0) {
      budget.cycles = std::atoi(argv[i] + 9);
    } else if (std::strncmp(argv[i], "--cb=", 5) == 0) {
      budget.context_bound = std::atoi(argv[i] + 5);
    } else if (std::strncmp(argv[i], "--execs=", 8) == 0) {
      budget.max_executions =
          static_cast<std::uint64_t>(std::atoll(argv[i] + 8));
    } else if (std::strncmp(argv[i], "--max-crashes=", 14) == 0) {
      budget.max_crashes = std::atoi(argv[i] + 14);
    } else if (std::strncmp(argv[i], "--workload=", 11) == 0) {
      budget.workload = argv[i] + 11;
    } else if (std::strncmp(argv[i], "--prelude=", 10) == 0) {
      // Comma-separated PIDxCOUNT runs, e.g. --prelude=0x16,2x6 = sixteen
      // grants to p0 then six to p2 before the search takes over.
      const char* s = argv[i] + 10;
      budget.prelude.clear();
      while (*s != '\0') {
        char* end = nullptr;
        const long pid = std::strtol(s, &end, 10);
        if (end == s || *end != 'x') {
          std::fprintf(stderr, "--prelude wants PIDxCOUNT[,...]\n");
          return 1;
        }
        s = end + 1;
        const long count = std::strtol(s, &end, 10);
        if (end == s || count <= 0) {
          std::fprintf(stderr, "--prelude wants PIDxCOUNT[,...]\n");
          return 1;
        }
        for (long r = 0; r < count; ++r) {
          budget.prelude.push_back(static_cast<int>(pid));
        }
        s = (*end == ',') ? end + 1 : end;
      }
    } else {
      wanted.emplace_back(argv[i]);
    }
  }
  if (convict) {
    if (wanted.empty()) {
      wanted = {"stack_leased_mutant_stale_confirm",
                "stack_leased_mutant_no_quarantine",
                "stack_leased_mutant_no_restamp"};
    }
    budget.procs = procs;
    int convicted = 0;
    for (const std::string& name : wanted) {
      if (emit_conviction(name, out_dir, budget)) ++convicted;
    }
    return convicted == static_cast<int>(wanted.size()) ? 0 : 1;
  }
  if (wanted.empty()) wanted = search::reclaim_fixture_names();
  // More processes multiply the branching factor; trim the storm length so
  // the n=3 corpus searches stay in the same time budget as n=2.
  const int cycles = procs > 2 ? 8 : kCycles;
  // DIR/<fixture>[.nN][.wl].sched — n=2 plain storms keep the bare name the
  // committed corpus already uses.
  const std::string suffix =
      (procs != kProcs ? ".n" + std::to_string(procs) : std::string()) +
      (workload_search ? ".wl" : "") + ".sched";

  std::printf("%-30s %10s %12s %10s\n", "fixture", "peak", "peak@grant",
              "schedules");
  if (crashes) {
    int emitted = 0;
    for (const std::string& name : wanted) {
      if (emit_crash_schedule(name, out_dir)) ++emitted;
    }
    return emitted > 0 ? 0 : 1;
  }
  for (const std::string& name : wanted) {
    const auto factory = search::reclaim_fixture(name);
    const search::SearchOptions options = search::corpus_search_options();
    search::SearchResult result;
    std::string winning_workload;
    if (workload_search) {
      const auto ws = search::search_workloads(
          factory, procs, search::workload_candidates(name, procs, cycles),
          search::retired_unreclaimed_cost, options);
      result = ws.best;
      winning_workload = ws.best_name;
    } else {
      search::ScheduleExplorer explorer(
          factory, procs, search::storm_workload(name, procs, cycles),
          search::retired_unreclaimed_cost, options);
      result = explorer.run();
    }
    if (result.best.empty()) {
      std::printf("%-30s %10s\n", name.c_str(), "(none)");
      continue;
    }

    search::ScheduleScript script = result.best[0].script;
    // Stamp the golden bounds the corpus test replays against, verified
    // here by two fresh replays (determinism is the whole point).
    const search::ReplayResult first = search::ScheduleExplorer::replay(
        factory, script, search::retired_unreclaimed_cost);
    const search::ReplayResult second = search::ScheduleExplorer::replay(
        factory, script, search::retired_unreclaimed_cost);
    if (first.peak_cost != result.best[0].peak_cost ||
        first.peak_cost != second.peak_cost ||
        first.peak_grant != second.peak_grant ||
        first.trace.size() != second.trace.size()) {
      std::fprintf(stderr, "%s: replay is not deterministic — not emitting\n",
                   name.c_str());
      return 1;
    }
    stamp_golden(script, name, first);

    std::printf("%-30s %10.0f %12llu %10llu%s%s\n", name.c_str(),
                first.peak_cost,
                static_cast<unsigned long long>(first.peak_grant),
                static_cast<unsigned long long>(result.executions),
                winning_workload.empty() ? "" : "  workload=",
                winning_workload.c_str());

    if (!out_dir.empty() &&
        !write_script(out_dir + "/" + name + suffix,
                      "# Searched reclamation worst case — found by "
                      "schedule_search_demo,\n"
                      "# replayed with golden bounds by ScheduleCorpus.* "
                      "(tests/test_schedule_search.cpp).\n",
                      script)) {
      return 1;
    }
  }
  return 0;
}
