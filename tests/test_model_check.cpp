// Model-checker tests (src/sim/schedule_search.h, PR 7):
//
//   * MUTATION HARNESS — the spec-driven search must convict the seeded
//     mutant reclaimer (reclaim/mutant.h: immediate FIFO reuse on a raw
//     CAS head, i.e. the classic ABA) within a small bounded budget, and
//     every shipped reclaimer must survive the *identical* budget clean.
//     The conviction is a replayable script whose replay re-produces the
//     failing verdict.
//   * DPOR REGRESSIONS — with pruning on, the bounded exhaustive search
//     must explore measurably fewer nodes and spend measurably fewer
//     replayed grants than PR 5's plain DFS while reaching the same peak
//     and the same conviction; with an unbounded context bound, sleep
//     sets + state caching must exhaust a space plain DFS cannot finish.
//   * CORPUS HYGIENE — every committed tests/schedules/*.sched file has
//     exactly one corpus-manifest row, and regenerating each row (the same
//     search::regenerate that schedule_search_demo --regenerate runs)
//     reproduces the committed bytes: golden peaks, crash recovery bounds
//     and the lease-mutant convictions alike.
//   * n>2 AND WORKLOAD SEARCH — three-process fixtures search and verify
//     clean, the outer workload search returns the argmax candidate and
//     stamps the winning shape into script meta, and crash grants compose
//     with DPOR + spec checking (conservation-only verdicts).
//   * LEASE-MUTANT ZOO (PR 10) — the shm-tier death-handshake mutants
//     (reclaim/mutant.h: LeaseMutation) are each convicted by the bounded
//     crash-enabled search of their manifest row (checked by the corpus
//     regeneration above), the shipped protocol twins survive the
//     identical budget shapes, and a searched (not scripted) mid-batch
//     crash on the pending-window reclaimer verifies clean while actually
//     exercising the survivor's re-home path.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/schedule_search.h"
#include "spec/history.h"
#include "test_support.h"
#include "util/assert.h"

namespace aba::search {
namespace {

using aba::testing::candidate_workload;
using aba::testing::corpus_files;
using aba::testing::read_text;

// The mutation harness searches with mutation_search_options(), identical
// for the mutant and every shipped reclaimer. Pool of 2 nodes/process makes
// index recycling reachable within a couple of storm cycles.
constexpr int kMutationPool = 2;
constexpr int kMutationCycles = 2;

// Runs the spec-driven search over every workload candidate and returns
// the first conviction (empty detail if the fixture survives them all).
struct SweepOutcome {
  std::string convicted_workload;
  ScheduleScript conviction;
  std::string detail;
  std::uint64_t executions = 0;
};

SweepOutcome sweep_workloads(const std::string& fixture_name) {
  SweepOutcome outcome;
  const auto factory = reclaim_fixture(fixture_name, kMutationPool);
  for (const auto& candidate :
       workload_candidates(fixture_name, 2, kMutationCycles)) {
    ScheduleExplorer explorer(factory, 2, candidate.workload,
                              pool_pressure_cost, mutation_search_options());
    const SearchResult result = explorer.run();
    outcome.executions += result.executions;
    if (!result.violations.empty()) {
      outcome.convicted_workload = candidate.name;
      outcome.conviction = result.violations[0].script;
      outcome.detail = result.violations[0].detail;
      return outcome;
    }
  }
  return outcome;
}

TEST(MutantCatch, SpecSearchConvictsTheMutantReclaimer) {
  const SweepOutcome outcome = sweep_workloads("stack_mutant_tagged");
  ASSERT_FALSE(outcome.convicted_workload.empty())
      << "the seeded ABA mutant survived every workload candidate ("
      << outcome.executions << " schedules explored)";
  EXPECT_NE(outcome.detail.find("NOT linearizable"), std::string::npos)
      << outcome.detail;

  // The conviction is evidence, not an anecdote: replaying the script on a
  // fresh fixture must re-produce a failing verdict.
  const ReplayResult replay =
      ScheduleExplorer::replay(reclaim_fixture("stack_mutant_tagged",
                                               kMutationPool),
                               outcome.conviction, pool_pressure_cost);
  EXPECT_TRUE(replay.verdict.checked);
  EXPECT_FALSE(replay.verdict.ok) << "conviction did not replay";
}

TEST(MutantCatch, AllShippedStackReclaimersSurviveTheIdenticalBudget) {
  for (const std::string& name :
       {std::string("stack_hazard"), std::string("stack_hazard_cached"),
        std::string("stack_epoch"), std::string("stack_epoch_deferred"),
        std::string("stack_tagged"), std::string("stack_leaky")}) {
    SCOPED_TRACE(name);
    const SweepOutcome outcome = sweep_workloads(name);
    EXPECT_TRUE(outcome.convicted_workload.empty())
        << name << " convicted on " << outcome.convicted_workload << ":\n"
        << outcome.detail;
  }
}

// ----------------------------------------------- lease-mutant zoo (PR 10)
//
// The shm-tier mutants each break one leg of the suspect → confirm →
// seize/veto/quarantine death handshake (src/shm/leased_reclaimer.h):
//
//   kStaleConfirm  confirms a suspicion against a stale scan count, so a
//                  *live* parked reader's lease is seized and its guarded
//                  node freed under it;
//   kNoQuarantine  frees a dead peer's in-flight allocation directly —
//                  the node may already be linked into the structure;
//   kNoRestamp     re-homes a mid-retire orphan without re-stamping it, so
//                  the epoch collector frees it against a stale stamp
//                  while a reader still holds a pre-crash snapshot of it.
//
// Each mutant's conviction is the kConviction row of the corpus manifest
// that commits it (CorpusHygiene.EveryCommittedScriptRegeneratesByteForByte
// re-runs that search, and the regenerated file pins exactly one crash and
// a deterministic failing replay).
TEST(LeaseMutantCatch, ShippedTwinsSurviveTheIdenticalBudgetShapes) {
  // Full 20000-execution survival searches of the three twins take about
  // 20 s, so each mutant's protocol twin gets the identical budget *shape*
  // of the mutant's manifest row — same processes, pool, cycles, workload,
  // context bound, crash allowance, prelude — with the execution cap
  // lowered to just past the point where the mutant convicts, so every
  // twin's clean pass discriminates: no_quarantine and no_restamp convict
  // in 5 and 474 schedules (cap 2 000), stale_confirm in about 11 200
  // (cap 12 000).
  struct Twin {
    std::string fixture;
    std::uint64_t max_executions;
  };
  const std::map<std::string, Twin> twin_of = {
      {"stack_leased_mutant_stale_confirm", {"stack_leased_hazard", 12000}},
      {"stack_leased_mutant_no_quarantine", {"stack_leased_hazard", 2000}},
      {"stack_leased_mutant_no_restamp", {"stack_leased_epoch", 2000}}};
  int rows = 0;
  for (const CorpusRow& row : corpus_manifest()) {
    if (row.mode != CorpusMode::kConviction) continue;
    ++rows;
    const Twin& twin = twin_of.at(row.fixture);
    SCOPED_TRACE(twin.fixture + " under the " + row.fixture + " budget");
    SearchOptions options = corpus_options(row);
    options.max_executions = twin.max_executions;
    ScheduleExplorer explorer(reclaim_fixture(twin.fixture, row.pool),
                              row.procs, corpus_workload(row),
                              pool_pressure_cost, options);
    const SearchResult result = explorer.run();
    EXPECT_FALSE(result.violation_found())
        << (result.violations.empty() ? std::string()
                                      : result.violations[0].detail);
    EXPECT_GT(result.executions, 0u);
  }
  EXPECT_EQ(rows, 3) << "expected the three lease-mutant conviction rows";
}

// ------------------------------------------------------ DPOR regressions

TEST(DporRegression, BoundedExhaustiveSearchPrunesNodesAndReplays) {
  // The full bounded space of the mutant's convicting workload, explored
  // to exhaustion with and without pruning. Both must convict and agree on
  // the peak; DPOR must do it in several-fold fewer nodes/executions and
  // fewer replayed grants (the node-budget fix: the live runner rides down
  // the preferred path, visited-state pruning cuts revisited subtrees).
  const auto factory = reclaim_fixture("stack_mutant_tagged", kMutationPool);
  const auto double_storm = candidate_workload(
      "stack_mutant_tagged", 2, kMutationCycles, "double_storm");
  ASSERT_FALSE(double_storm.empty());

  SearchResult results[2];
  for (const bool dpor : {true, false}) {
    SearchOptions options = mutation_search_options();
    options.max_executions = 20000;
    options.stop_on_violation = false;  // Exhaust; don't stop at the first.
    options.dpor = dpor;
    ScheduleExplorer explorer(factory, 2, double_storm,
                              pool_pressure_cost, options);
    results[dpor ? 0 : 1] = explorer.run();
  }
  const SearchResult& pruned = results[0];
  const SearchResult& plain = results[1];

  ASSERT_FALSE(pruned.budget_exhausted);
  ASSERT_FALSE(plain.budget_exhausted);
  EXPECT_TRUE(pruned.violation_found());
  EXPECT_TRUE(plain.violation_found());
  ASSERT_NE(pruned.top(), nullptr);
  ASSERT_NE(plain.top(), nullptr);
  EXPECT_EQ(pruned.top()->peak_cost, plain.top()->peak_cost);

  EXPECT_GT(pruned.pruned_states, 0u);
  EXPECT_LE(pruned.nodes * 4, plain.nodes)
      << "DPOR node reduction regressed (" << pruned.nodes << " vs "
      << plain.nodes << ")";
  EXPECT_LE(pruned.executions * 4, plain.executions);
  EXPECT_LE(pruned.replayed_grants * 2, plain.replayed_grants)
      << "prefix-replay cost regressed (" << pruned.replayed_grants << " vs "
      << plain.replayed_grants << ")";
}

TEST(DporRegression, UnboundedSearchExhaustsWherePlainDfsCannot) {
  // With no preemption budget, sleep sets engage (they are only sound
  // there — see schedule_search.h). DPOR must exhaust the full interleaving
  // space of a small storm; plain DFS must still be churning when its
  // execution budget runs dry, having entered more junctures and found
  // nothing better.
  const auto factory = reclaim_fixture("stack_epoch");
  const auto workload = storm_workload("stack_epoch", 2, 1);

  SearchOptions options;
  options.top_k = 1;
  options.context_bound = kUnboundedContextBound;
  options.max_grants = 100000000;

  options.max_executions = 100000;
  ScheduleExplorer pruned_explorer(factory, 2, workload,
                                   retired_unreclaimed_cost, options);
  const SearchResult pruned = pruned_explorer.run();

  options.dpor = false;
  options.max_executions = 1000;
  ScheduleExplorer plain_explorer(factory, 2, workload,
                                  retired_unreclaimed_cost, options);
  const SearchResult plain = plain_explorer.run();

  EXPECT_FALSE(pruned.budget_exhausted)
      << "DPOR failed to exhaust the unbounded space in "
      << pruned.executions << " executions";
  EXPECT_TRUE(plain.budget_exhausted)
      << "plain DFS finished — the fixture is too small to discriminate";
  EXPECT_GT(pruned.pruned_sleep, 0u) << "sleep sets never engaged";
  EXPECT_LT(pruned.nodes, plain.nodes);
  ASSERT_NE(pruned.top(), nullptr);
  ASSERT_NE(plain.top(), nullptr);
  // Exhaustive-with-pruning must not miss the peak the budgeted plain
  // search can reach.
  EXPECT_GE(pruned.top()->peak_cost, plain.top()->peak_cost);
}

// --------------------------------------------------------- corpus hygiene

TEST(CorpusHygiene, ManifestHasExactlyOneRowPerCommittedScript) {
  std::set<std::string> rows;
  for (const CorpusRow& row : corpus_manifest()) {
    EXPECT_TRUE(rows.insert(row.file).second)
        << "two manifest rows write " << row.file;
  }
  std::set<std::string> files;
  for (const auto& path : corpus_files()) {
    files.insert(path.filename().string());
  }
  EXPECT_EQ(rows, files)
      << "a committed script has no manifest row, or a row has no file";
}

TEST(CorpusHygiene, EveryCommittedScriptRegeneratesByteForByte) {
  // Each row's search, re-run at its recorded budget, must write back the
  // committed file exactly: a higher or lower golden peak, a different
  // crash schedule or recovery bound, or a conviction that moved or needs
  // more than the row's execution budget all show up as a byte difference.
  // regenerate() itself checks every found script with two fresh replays
  // (same peak, trace length, verdict detail and expropriations).
  for (const CorpusRow& row : corpus_manifest()) {
    SCOPED_TRACE(row.file);
    const std::string committed =
        read_text(std::filesystem::path(ABA_SCHEDULE_DIR) / row.file);
    ASSERT_FALSE(committed.empty()) << "no committed file for this row";
    try {
      EXPECT_EQ(committed, regenerate(row))
          << "regenerate with schedule_search_demo --regenerate=DIR and "
             "diff against tests/schedules/";
    } catch (const std::runtime_error& e) {
      ADD_FAILURE() << e.what();
    }
  }
}

TEST(CorpusHygiene, WrappedFinalCountIsRefusedNotStamped) {
  // The no-quarantine lease mutant frees an expropriated node that is still
  // counted as retired, so its unsigned retired_unreclaimed wraps below
  // zero, and a crash search at the crash rows' depth ranks such schedules
  // first. Regenerating its file as a crash row must refuse that count by
  // the row's error, not stamp ~2^64 as expect_final_retired.
  const auto& rows = corpus_manifest();
  const auto named = [&](std::string_view file) {
    return *std::find_if(rows.begin(), rows.end(), [&](const CorpusRow& r) {
      return r.file == file;
    });
  };
  CorpusRow row = named("stack_hazard.crash.sched");
  const CorpusRow& mutant = named("stack_leased_mutant_no_quarantine.crash.sched");
  row.file = mutant.file;
  row.fixture = mutant.fixture;
  try {
    regenerate(row);
    ADD_FAILURE() << "a crash golden of the mutant was stamped";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("expect_final_retired "
                                         "18446744073709551"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("exceeds the pool"), std::string::npos)
        << e.what();
  }
}

// ------------------------------------------- n>2, workloads, crash compose

TEST(ModelCheck, ThreeProcessSpecSearchRunsClean) {
  // Two parked readers against the storm: the n=3 shape the CI job runs
  // under its time budget. Spec verdicts on; every shipped fixture must
  // explore its budget without a violation.
  for (const std::string& name :
       {std::string("stack_hazard_cached"), std::string("queue_epoch"),
        std::string("queue_leased_epoch"),
        std::string("stack_leased_hazard_cached")}) {
    SCOPED_TRACE(name);
    SearchOptions options;
    options.top_k = 3;
    options.context_bound = 2;
    options.max_executions = 96;
    options.check_spec = true;
    ScheduleExplorer explorer(reclaim_fixture(name), 3,
                              storm_workload(name, 3, 8),
                              retired_unreclaimed_cost, options);
    const SearchResult result = explorer.run();
    EXPECT_TRUE(result.violations.empty());
    ASSERT_NE(result.top(), nullptr);
    EXPECT_GT(result.top()->peak_cost, 0.0);

    // The found worst case replays to the same peak with a clean verdict.
    const ReplayResult replay = ScheduleExplorer::replay(
        reclaim_fixture(name), result.top()->script, retired_unreclaimed_cost);
    EXPECT_EQ(replay.peak_cost, result.top()->peak_cost);
    EXPECT_TRUE(replay.verdict.checked);
    EXPECT_TRUE(replay.verdict.ok) << replay.verdict.detail;
  }
}

TEST(ModelCheck, WorkloadSearchReturnsArgmaxAndStampsMeta) {
  SearchOptions options;
  options.top_k = 2;
  options.context_bound = 3;
  options.max_executions = 48;
  const auto candidates = workload_candidates("stack_hazard_cached", 2, 6);
  const WorkloadSearchResult ws =
      search_workloads(reclaim_fixture("stack_hazard_cached"), 2, candidates,
                       retired_unreclaimed_cost, options);

  ASSERT_EQ(ws.peaks.size(), candidates.size());
  ASSERT_NE(ws.best.top(), nullptr);
  double max_peak = 0;
  for (const auto& [name, peak] : ws.peaks) max_peak = std::max(max_peak, peak);
  EXPECT_EQ(ws.best.top()->peak_cost, max_peak)
      << "best workload is not the argmax";
  bool named = false;
  for (const auto& [name, peak] : ws.peaks) {
    if (name == ws.best_name) {
      named = true;
      EXPECT_EQ(peak, ws.best.top()->peak_cost);
    }
  }
  EXPECT_TRUE(named) << ws.best_name;
  for (const FoundSchedule& found : ws.best.best) {
    ASSERT_TRUE(found.script.meta.count("workload"));
    EXPECT_EQ(found.script.meta.at("workload"), ws.best_name);
  }
}

TEST(ModelCheck, CompositeCostIsSearchableAndNamed) {
  // The epoch fixture under the composite cost: a frozen epoch AND a retire
  // backlog must coincide for a nonzero score, and the storm makes both
  // happen. Also pins the cost_by_name registry entry.
  SearchOptions options;
  options.top_k = 1;
  options.context_bound = 3;
  options.max_executions = 64;
  ScheduleExplorer explorer(reclaim_fixture("stack_epoch"), 2,
                            storm_workload("stack_epoch", 2, 8),
                            cost_by_name("epoch_lag_backlog"), options);
  const SearchResult result = explorer.run();
  ASSERT_NE(result.top(), nullptr);
  EXPECT_GT(result.top()->peak_cost, 0.0)
      << "the composite cost never fired on an epoch storm";
}

TEST(ModelCheck, CrashGrantsComposeWithDporAndSpecVerdicts) {
  // One crash allowed, DPOR on, spec checking on: crash histories are
  // checked for conservation only (the victim's pending op may have taken
  // effect without completing), so a correct reclaimer explores clean; the
  // search must actually exercise crash grants along the way.
  SearchOptions options;
  options.top_k = 4;
  options.context_bound = 3;
  options.max_executions = 48;
  options.max_crashes = 1;
  options.check_spec = true;
  ScheduleExplorer explorer(reclaim_fixture("stack_epoch"), 2,
                            storm_workload("stack_epoch", 2, 8),
                            retired_unreclaimed_cost, options);
  const SearchResult result = explorer.run();
  EXPECT_TRUE(result.violations.empty())
      << (result.violations.empty() ? "" : result.violations[0].detail);
  bool saw_crash_schedule = false;
  for (const FoundSchedule& found : result.best) {
    saw_crash_schedule =
        saw_crash_schedule ||
        std::any_of(found.script.grants.begin(), found.script.grants.end(),
                    [](int g) { return is_crash_grant(g); });
  }
  EXPECT_TRUE(saw_crash_schedule)
      << "crash-enabled search surfaced no crash schedule in its top-K";
}

TEST(ModelCheck, SearchedMidBatchCrashReHomesThePendingWindow) {
  // stack_leased_epoch_batched routes every retire through a pending window
  // that is staged before the chunk stamp (PR 9); a victim killed between
  // staging and stamping leaves window slots only the survivor's
  // drain_dead re-home path can recover. This is a *searched* test, not a
  // scripted one: the explorer chooses its own crash points (every
  // mid-retire poise is inside that window for the batched reclaimer) and
  // every explored schedule must verify clean. At least one surfaced crash
  // schedule must actually have exercised the expropriation path, and its
  // final accounting must not mint nodes: free + retired + quarantined +
  // in-flight can never exceed the pool (the remainder is
  // structure-resident).
  SearchOptions options;
  options.top_k = 8;
  options.context_bound = 3;
  options.max_executions = 400;
  options.max_crashes = 1;
  options.check_spec = true;
  const auto factory =
      reclaim_fixture("stack_leased_epoch_batched", kMutationPool);
  ScheduleExplorer explorer(
      factory, 2, storm_workload("stack_leased_epoch_batched", 2, 6),
      pool_pressure_cost, options);
  const SearchResult result = explorer.run();
  EXPECT_TRUE(result.violations.empty())
      << (result.violations.empty() ? std::string()
                                    : result.violations[0].detail);

  bool saw_expropriation = false;
  for (const FoundSchedule& found : result.best) {
    if (std::none_of(found.script.grants.begin(), found.script.grants.end(),
                     is_crash_grant)) {
      continue;
    }
    const ReplayResult replay =
        ScheduleExplorer::replay(factory, found.script, pool_pressure_cost);
    EXPECT_TRUE(replay.verdict.checked);
    EXPECT_TRUE(replay.verdict.ok) << replay.verdict.detail;
    const auto& s = replay.final_stats;
    EXPECT_LE(s.quarantined, 1u) << "quarantine must cost at most one node";
    EXPECT_LE(s.free_nodes + s.retired_unreclaimed + s.quarantined +
                  s.in_flight,
              s.pool_size)
        << "survivor-side accounting minted a node";
    saw_expropriation = saw_expropriation || s.expropriations >= 1;
  }
  EXPECT_TRUE(saw_expropriation)
      << "no surfaced crash schedule drained the dead lease";
}

}  // namespace
}  // namespace aba::search
