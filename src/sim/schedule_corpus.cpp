// Corpus regeneration (sim/schedule_search.h): one manifest row to the full
// text of its committed tests/schedules/ file, found by the row's search and
// checked by two fresh replays. `schedule_search_demo --regenerate=DIR` and
// CorpusHygiene.EveryCommittedScriptRegeneratesByteForByte share it.
#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/schedule_search.h"
#include "util/assert.h"

namespace aba::search {

namespace {

// The `#` lines above a script: what it is, and how to rebuild it.
std::string header(CorpusMode mode) {
  std::string text;
  switch (mode) {
    case CorpusMode::kCrash:
      text =
          "# Searched crash schedule — a kill at a vulnerable reclamation "
          "phase plus the\n"
          "# survivor's recovery; golden bounds include the drained final "
          "stats.\n";
      break;
    case CorpusMode::kConviction:
      text =
          "# Lease-mutant conviction — a spec violation the bounded "
          "crash-enabled search\n"
          "# found against this deliberately broken reclaimer; replaying it "
          "re-produces\n"
          "# the failing verdict.\n";
      break;
    case CorpusMode::kPlain:
    case CorpusMode::kWorkloadSearch:
      text = "# Searched reclamation worst case with golden bounds.\n";
      break;
  }
  return text +
         "# Replayed by ScheduleCorpus.* (tests/test_schedule_search.cpp). "
         "Regenerated by\n"
         "# schedule_search_demo --regenerate=tests/schedules from its row "
         "in the corpus\n"
         "# manifest (src/sim/schedule_fixtures.cpp).\n";
}

// Two replays of one script agree on everything the goldens record.
bool replays_agree(const ReplayResult& a, const ReplayResult& b) {
  return a.peak_cost == b.peak_cost && a.peak_grant == b.peak_grant &&
         a.trace.size() == b.trace.size() &&
         a.verdict.detail == b.verdict.detail &&
         a.final_stats.expropriations == b.final_stats.expropriations;
}

long crash_count(const ScheduleScript& script) {
  return std::count_if(script.grants.begin(), script.grants.end(),
                       is_crash_grant);
}

}  // namespace

SearchOptions corpus_options(const CorpusRow& row) {
  SearchOptions options;
  switch (row.mode) {
    case CorpusMode::kCrash:
      options = crash_search_options();
      break;
    case CorpusMode::kConviction:
      options = {.top_k = 1,
                 .max_grants = 1ull << 30,  // Let max_executions be the budget.
                 .check_spec = true,
                 .stop_on_violation = true};
      break;
    case CorpusMode::kPlain:
    case CorpusMode::kWorkloadSearch:
      options = corpus_search_options();
      break;
  }
  options.context_bound = row.context_bound;
  options.max_executions = row.max_executions;
  options.max_crashes = row.max_crashes;
  for (const auto& [pid, grants] : row.prelude) {
    options.prelude.insert(options.prelude.end(), grants, pid);
  }
  return options;
}

std::vector<harness::WorkloadOp> corpus_workload(const CorpusRow& row) {
  const std::string_view name = row.workload;
  if (name == "symmetric_storm") {
    return symmetric_storm_workload(row.fixture, row.procs, row.cycles);
  }
  for (auto& candidate :
       workload_candidates(row.fixture, row.procs, row.cycles)) {
    if (candidate.name == name) return std::move(candidate.workload);
  }
  ABA_CHECK_MSG(false, "corpus row names no known workload");
  return {};
}

void stamp_golden(ScheduleScript& script, const std::string& fixture,
                  const ReplayResult& replay) {
  // [-2^63, 2^63) holds exactly the doubles a long long can take (NaN and
  // the infinities fail it too); a wrapped unsigned counter reads as ~2^64.
  const double peak = replay.peak_cost;
  ABA_CHECK_MSG(peak >= -0x1p63 && peak < 0x1p63 && peak == std::trunc(peak),
                "golden peak is not an integer a long long holds");
  script.meta["fixture"] = fixture;
  script.meta["cost"] = "retired_unreclaimed";
  script.meta["expect_peak"] = std::to_string(static_cast<long long>(peak));
  script.meta["expect_peak_grant"] = std::to_string(replay.peak_grant);
  script.meta["expect_grants"] = std::to_string(script.grants.size());
}

std::string regenerate(const CorpusRow& row) {
  const auto& rows = corpus_manifest();
  ABA_CHECK_MSG(std::count_if(rows.begin(), rows.end(),
                              [&](const CorpusRow& r) {
                                return std::string_view(r.file) == row.file;
                              }) == 1,
                "regenerate takes a file the corpus manifest names once");
  const auto fail = [&](const std::string& why) {
    throw std::runtime_error(std::string(row.file) + ": " + why);
  };
  const auto factory = reclaim_fixture(row.fixture, row.pool);
  const bool convict = row.mode == CorpusMode::kConviction;
  const CostFn cost = convict ? pool_pressure_cost : retired_unreclaimed_cost;
  const SearchOptions options = corpus_options(row);
  const SearchResult result =
      row.mode == CorpusMode::kWorkloadSearch
          ? search_workloads(
                factory, row.procs,
                workload_candidates(row.fixture, row.procs, row.cycles), cost,
                options)
                .best
          : ScheduleExplorer(factory, row.procs, corpus_workload(row), cost,
                             options)
                .run();

  if (convict) {
    if (!result.violation_found()) {
      fail("no conviction within the row's budget (" +
           std::to_string(result.executions) + " schedules)");
    }
    ScheduleScript script = result.violations[0].script;
    const ReplayResult first = ScheduleExplorer::replay(factory, script, cost);
    const ReplayResult second = ScheduleExplorer::replay(factory, script, cost);
    if (!first.verdict.checked || first.verdict.ok) {
      fail("the conviction does not replay to a violation");
    }
    if (first.verdict.detail != result.violations[0].detail ||
        !replays_agree(first, second)) {
      fail("the conviction's replay is not deterministic");
    }
    script.meta["fixture"] = row.fixture;
    script.meta["cost"] = "pool_pressure";
    script.meta["workload"] = row.workload;
    script.meta["pool"] = std::to_string(row.pool);
    script.meta["crashes"] = std::to_string(crash_count(script));
    script.meta["expect_verdict"] = "violation";
    // The budget the conviction was found within, for a reader of the file.
    script.meta["search_context_bound"] = std::to_string(row.context_bound);
    script.meta["search_executions"] = std::to_string(row.max_executions);
    script.meta["search_crashes"] = std::to_string(row.max_crashes);
    script.meta["search_cycles"] = std::to_string(row.cycles);
    if (!options.prelude.empty()) {
      script.meta["search_prelude"] = std::to_string(options.prelude.size());
    }
    return header(row.mode) + script.serialize();
  }

  // A worst case: the top schedule, or for a crash row the first top-K one
  // whose replay recovers (a confirmed expropriation in the final stats).
  const bool crash_row = row.mode == CorpusMode::kCrash;
  for (const FoundSchedule& found : result.best) {
    if (crash_row && crash_count(found.script) == 0) continue;
    ScheduleScript script = found.script;
    const ReplayResult first = ScheduleExplorer::replay(factory, script, cost);
    if (crash_row && first.final_stats.expropriations == 0) continue;
    const ReplayResult second = ScheduleExplorer::replay(factory, script, cost);
    if (first.peak_cost != found.peak_cost || !replays_agree(first, second)) {
      fail("the worst case's replay is not deterministic");
    }
    if (crash_row) {
      const auto& final_stats = first.final_stats;
      script.meta["crashes"] = std::to_string(crash_count(script));
      script.meta["expect_expropriations"] =
          std::to_string(final_stats.expropriations);
      // No count of nodes exceeds the pool: one that does is an unsigned
      // counter wrapped below zero, refused before it is stamped.
      for (const auto& [key, count] :
           {std::pair{"expect_final_retired", final_stats.retired_unreclaimed},
            std::pair{"expect_final_free", final_stats.free_nodes},
            std::pair{"expect_quarantined", final_stats.quarantined}}) {
        if (count > final_stats.pool_size) {
          fail(std::string(key) + " " + std::to_string(count) +
               " exceeds the pool of " + std::to_string(final_stats.pool_size));
        }
        script.meta[key] = std::to_string(count);
      }
    }
    stamp_golden(script, row.fixture, first);
    return header(row.mode) + script.serialize();
  }
  fail(crash_row ? "no recovering crash schedule"
                 : "the search found no schedule");
  return {};
}

}  // namespace aba::search
