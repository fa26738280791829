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
//   * CORPUS HYGIENE — every committed tests/schedules/*.sched golden
//     expect_peak is still what the search finds at the committed depth
//     (equality for plain schedules; the crash emitter picks a recovering
//     candidate from the top-K, so crash goldens assert containment).
//   * n>2 AND WORKLOAD SEARCH — three-process fixtures search and verify
//     clean, the outer workload search returns the argmax candidate and
//     stamps the winning shape into script meta, and crash grants compose
//     with DPOR + spec checking (conservation-only verdicts).
//   * LEASE-MUTANT ZOO (PR 10) — the shm-tier death-handshake mutants
//     (reclaim/mutant.h: LeaseMutation) are each convicted by a bounded
//     crash-enabled search at their committed budget, the convictions
//     replay deterministically, the shipped protocol twins survive the
//     identical budget shapes, and a searched (not scripted) mid-batch
//     crash on the pending-window reclaimer verifies clean while actually
//     exercising the survivor's re-home path.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "sim/schedule_search.h"
#include "spec/history.h"
#include "test_support.h"
#include "util/assert.h"

namespace aba::search {
namespace {

using aba::testing::candidate_workload;
using aba::testing::corpus_files;
using aba::testing::fixture_of;
using aba::testing::load_script;

// The mutation-harness budget: identical for the mutant and every shipped
// reclaimer. Pool of 2 nodes/process makes index recycling reachable within
// a couple of storm cycles; context bound 3 covers the park → storm →
// resume → observe shape of a harmful ABA.
SearchOptions mutation_budget() {
  SearchOptions options;
  options.top_k = 1;
  options.context_bound = 3;
  options.max_executions = 256;
  options.check_spec = true;
  options.stop_on_violation = true;
  return options;
}
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
                              pool_pressure_cost, mutation_budget());
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
// Each budget below is the committed one (schedule_search_demo --convict,
// stamped into tests/schedules/*_leased_mutant_*.crash.sched meta). The
// no_restamp channel is unreachable for the blind fewest-ops-first DFS
// order — its budget stages the opening (the stormer's first two pushes,
// then a reader parked mid-pop) as a search prelude; the searcher still
// has to discover the kill point and every suffix interleaving itself.
struct LeaseBudget {
  std::string mutant;
  std::string shipped_twin;  // Same protocol with the mutation off.
  int procs = 2;
  int cycles = 4;
  std::string workload = "storm";
  std::vector<int> prelude;
  std::uint64_t max_executions = 20000;
};

std::vector<int> no_restamp_prelude() {
  std::vector<int> grants(16, 0);  // Stormer: two pushes staged.
  grants.insert(grants.end(), 6, 2);  // Reader: parked mid-pop, snapshot held.
  return grants;
}

LeaseBudget stale_confirm_budget() {
  return {"stack_leased_mutant_stale_confirm", "stack_leased_hazard",
          2, 4, "storm", {}, 20000};
}
LeaseBudget no_quarantine_budget() {
  return {"stack_leased_mutant_no_quarantine", "stack_leased_hazard",
          2, 5, "crossed_storm", {}, 20000};
}
LeaseBudget no_restamp_budget() {
  return {"stack_leased_mutant_no_restamp", "stack_leased_epoch",
          3, 3, "storm", no_restamp_prelude(), 20000};
}

SearchResult run_lease_search(const std::string& fixture_name,
                              const LeaseBudget& budget) {
  const SearchOptions options = conviction_search_options(
      /*context_bound=*/3, budget.max_executions, /*max_crashes=*/1,
      budget.prelude);
  const auto workload = candidate_workload(fixture_name, budget.procs,
                                           budget.cycles, budget.workload);
  ABA_CHECK_MSG(!workload.empty(), "unknown lease-budget workload");
  ScheduleExplorer explorer(reclaim_fixture(fixture_name, kMutationPool),
                            budget.procs, workload, pool_pressure_cost,
                            options);
  return explorer.run();
}

void expect_lease_conviction(const LeaseBudget& budget) {
  const SearchResult result = run_lease_search(budget.mutant, budget);
  ASSERT_TRUE(result.violation_found())
      << budget.mutant << " survived its committed budget ("
      << result.executions << " schedules explored)";
  const ScheduleScript& script = result.violations[0].script;
  EXPECT_EQ(std::count_if(script.grants.begin(), script.grants.end(),
                          is_crash_grant),
            1)
      << "a lease conviction needs exactly the one allowed crash";

  // The conviction is evidence: two fresh replays must both re-produce the
  // failing verdict and agree bit-for-bit.
  const auto factory = reclaim_fixture(budget.mutant, kMutationPool);
  const ReplayResult first =
      ScheduleExplorer::replay(factory, script, pool_pressure_cost);
  const ReplayResult second =
      ScheduleExplorer::replay(factory, script, pool_pressure_cost);
  EXPECT_TRUE(first.verdict.checked);
  EXPECT_FALSE(first.verdict.ok) << "conviction did not replay";
  EXPECT_EQ(first.verdict.detail, result.violations[0].detail);
  EXPECT_EQ(first.trace.size(), second.trace.size());
  EXPECT_EQ(first.verdict.detail, second.verdict.detail);
  EXPECT_EQ(first.peak_cost, second.peak_cost);
}

TEST(LeaseMutantCatch, StaleConfirmSeizesALiveLease) {
  expect_lease_conviction(stale_confirm_budget());
}

TEST(LeaseMutantCatch, NoQuarantineFreesAPossiblyLinkedNode) {
  expect_lease_conviction(no_quarantine_budget());
}

TEST(LeaseMutantCatch, NoRestampFreesAnOrphanUnderAParkedReader) {
  expect_lease_conviction(no_restamp_budget());
}

TEST(LeaseMutantCatch, ShippedTwinsSurviveTheIdenticalBudgetShapes) {
  // Full-budget survival of all seven shipped leased fixtures is the CI
  // model-check job's (schedule_search_demo --convict over the shipped
  // names — 20000-execution budgets run for minutes). Here each mutant's
  // protocol twin gets the identical budget *shape* — same processes,
  // pool, cycles, workload, context bound, crash allowance, prelude — with
  // the execution cap lowered to keep the suite fast. Every mutant above
  // convicts well inside this cap, so a clean pass is still discriminating.
  for (LeaseBudget budget : {stale_confirm_budget(), no_quarantine_budget(),
                             no_restamp_budget()}) {
    SCOPED_TRACE(budget.shipped_twin + " under the " + budget.mutant +
                 " budget");
    budget.max_executions = 2000;
    const SearchResult result =
        run_lease_search(budget.shipped_twin, budget);
    EXPECT_FALSE(result.violation_found())
        << (result.violations.empty() ? std::string()
                                      : result.violations[0].detail);
    EXPECT_GT(result.executions, 0u);
  }
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
    SearchOptions options = mutation_budget();
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

TEST(CorpusHygiene, GoldenPeaksAreStillTheSearchMaxima) {
  // Re-runs the search each corpus schedule was found by — same workload,
  // same cost, the committed search depth — and checks the golden
  // expect_peak is still what the search attains. A plain schedule's
  // golden must match the search maximum exactly (a higher search result
  // means the golden went stale; lower means the searcher regressed). The
  // crash emitter commits the first *recovering* top-K candidate, not
  // necessarily the argmax, so crash goldens assert the search still
  // reaches at least the committed peak.
  const auto files = corpus_files();
  ASSERT_FALSE(files.empty());
  for (const auto& path : files) {
    SCOPED_TRACE(path.filename().string());
    const auto script = load_script(path);
    ASSERT_TRUE(script.has_value());
    // Lease-mutant convictions carry expect_verdict instead of expect_peak;
    // their hygiene check (re-running the recorded conviction search) is
    // ConvictionScriptsStillConvictWithinTheirRecordedBudget below.
    if (script->meta.count("expect_verdict")) continue;
    ASSERT_TRUE(script->meta.count("fixture"));
    ASSERT_TRUE(script->meta.count("cost"));
    ASSERT_TRUE(script->meta.count("expect_peak"));

    const double golden = std::stod(script->meta.at("expect_peak"));
    const bool is_crash_script = script->meta.count("crashes") &&
                                 std::stoi(script->meta.at("crashes")) > 0;

    // The committed search depth.
    ScheduleExplorer explorer(
        fixture_of(*script), script->num_processes, script->workload,
        cost_by_name(script->meta.at("cost")),
        is_crash_script ? crash_search_options() : corpus_search_options());
    const SearchResult result = explorer.run();
    ASSERT_NE(result.top(), nullptr);
    if (is_crash_script) {
      EXPECT_GE(result.top()->peak_cost, golden)
          << "search no longer reaches the committed crash peak";
    } else {
      EXPECT_EQ(result.top()->peak_cost, golden)
          << "golden peak went stale or the searcher regressed";
    }
  }
}

TEST(CorpusHygiene, ConvictionScriptsStillConvictWithinTheirRecordedBudget) {
  // A committed conviction script is a *search certificate*, not just a
  // replayable anecdote: its meta records the full budget of the search
  // that found it (search_context_bound / search_executions /
  // search_crashes / search_cycles, plus search_prelude — the staged
  // prefix, recoverable as the script's own leading grants). Re-running
  // that exact search must convict again without exceeding the recorded
  // execution budget (≥ semantics: finding it sooner is fine; needing more
  // schedules than committed means the searcher or the mutant regressed).
  int convictions_seen = 0;
  for (const auto& path : corpus_files()) {
    SCOPED_TRACE(path.filename().string());
    const auto script = load_script(path);
    ASSERT_TRUE(script.has_value());
    if (!script->meta.count("expect_verdict")) continue;
    ++convictions_seen;
    ASSERT_EQ(script->meta.at("expect_verdict"), "violation");
    for (const char* key :
         {"fixture", "cost", "workload", "pool", "search_context_bound",
          "search_executions", "search_crashes", "search_cycles"}) {
      ASSERT_TRUE(script->meta.count(key)) << "conviction meta missing " << key;
    }
    const auto factory = fixture_of(*script);
    const CostFn cost = cost_by_name(script->meta.at("cost"));

    // The committed script still replays to the failing verdict,
    // deterministically.
    const ReplayResult first = ScheduleExplorer::replay(factory, *script, cost);
    const ReplayResult second =
        ScheduleExplorer::replay(factory, *script, cost);
    EXPECT_TRUE(first.verdict.checked);
    EXPECT_FALSE(first.verdict.ok) << "committed conviction no longer replays";
    EXPECT_EQ(first.verdict.detail, second.verdict.detail);
    EXPECT_EQ(first.trace.size(), second.trace.size());

    // The recorded search still finds it within budget.
    std::vector<int> prelude;
    if (script->meta.count("search_prelude")) {
      const std::size_t staged =
          std::stoul(script->meta.at("search_prelude"));
      ASSERT_LE(staged, script->grants.size());
      prelude.assign(script->grants.begin(),
                     script->grants.begin() +
                         static_cast<std::ptrdiff_t>(staged));
    }
    const SearchOptions options = conviction_search_options(
        std::stoi(script->meta.at("search_context_bound")),
        std::stoull(script->meta.at("search_executions")),
        std::stoi(script->meta.at("search_crashes")), std::move(prelude));
    const auto workload =
        candidate_workload(script->meta.at("fixture"), script->num_processes,
                           std::stoi(script->meta.at("search_cycles")),
                           script->meta.at("workload"));
    ASSERT_FALSE(workload.empty());
    ScheduleExplorer explorer(factory, script->num_processes, workload, cost,
                              options);
    const SearchResult result = explorer.run();
    EXPECT_TRUE(result.violation_found())
        << "the recorded search budget no longer convicts ("
        << result.executions << " schedules explored)";
    EXPECT_LE(result.executions,
              std::stoull(script->meta.at("search_executions")));
  }
  EXPECT_EQ(convictions_seen, 3)
      << "expected the three committed lease-mutant convictions";
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
