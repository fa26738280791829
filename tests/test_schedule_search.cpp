// Tests for the schedule-search engine (src/sim/schedule_search.h):
//
//   * script serialization round-trips and rejects malformed input;
//   * the searched adversary matches-or-beats the scripted park-and-storm
//     seed schedules (the GuardCacheSchedule / EpochSchedule pattern,
//     rebuilt here grant-by-grant through the same ScheduleRunner) for the
//     cached-guard hazard mode and for epochs — the ISSUE's acceptance
//     bar: search must rediscover at least what the hand-written worst
//     cases achieve;
//   * every serialized worst case replays deterministically: two replays
//     of the same script produce bit-identical step traces and the same
//     peak at the same grant;
//   * the top-K schedules the explorer finds are re-checked against the
//     structure invariants (multiset conservation + linearizability —
//     per-shard for the sharded fixture), not just random schedules:
//     a worst-case reclamation schedule must still be a correct execution;
//   * the committed corpus under tests/schedules/ (ABA_SCHEDULE_DIR)
//     replays with its golden bounds — every future reclaimer change is
//     checked against the worst schedules ever found — and with the exact
//     traces pinned in tests/golden/schedule_traces.txt.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "reclaim/reclaimer.h"
#include "sim/schedule_search.h"
#include "sim/types.h"
#include "spec/specs.h"
#include "test_support.h"
#include "util/assert.h"

namespace aba::search {
namespace {

using harness::WorkloadOp;
using spec::Method;
using aba::testing::corpus_files;
using aba::testing::expect_conserved;
using aba::testing::expect_sharded_contract;
using aba::testing::fixture_of;
using aba::testing::load_script;

constexpr int kProcs = 2;
constexpr int kCycles = 12;

std::string trace_signature(const std::vector<sim::StepRecord>& trace) {
  std::ostringstream out;
  for (const auto& step : trace) out << sim::to_string(step) << "\n";
  return out.str();
}

// The full invariant battery on one replayed schedule: conservation plus
// linearizability — whole-history for flat fixtures, per-shard when the
// fixture recorded landing shards. Crash schedules skip linearizability:
// the victim's pending op may have taken effect without completing (e.g. a
// crash mid-retire removed a value no recorded take accounts for), so only
// conservation — no value taken that was never put — still holds on the
// completed history.
void expect_schedule_invariants(const ReplayResult& replay, PutTake verbs,
                                bool has_crash = false) {
  if (has_crash) return expect_conserved(replay.history, verbs.take);
  const std::vector<int> one_shard(replay.history.size(), 0);
  const std::vector<int>& shard_of =
      replay.shard_tags.empty() ? one_shard : replay.shard_tags;
  if (verbs.take == Method::kDeq) {
    expect_sharded_contract<spec::QueueSpec>(replay.history, shard_of,
                                             replay.num_shards, verbs.take);
  } else {
    expect_sharded_contract<spec::StackSpec>(replay.history, shard_of,
                                             replay.num_shards, verbs.take);
  }
}

// The scripted seed, rebuilt grant-by-grant: complete the storm driver's
// priming put solo, drive the reader until its reclaimer reports a
// vulnerable phase (guard just published / epoch just announced), PARK it
// there, run the storm to exhaustion, then let the reader resume. Returns
// the script and its peak — the bound the searcher must meet or beat.
std::pair<ScheduleScript, double> scripted_park_and_storm(
    const std::string& fixture_name, const std::vector<WorkloadOp>& workload) {
  ScheduleRunner runner(reclaim_fixture(fixture_name)(kProcs), workload,
                       retired_unreclaimed_cost);
  runner.grant(0);  // Invoke the priming put...
  while (!runner.fixture().world->is_idle(0)) runner.grant(0);  // ...solo.
  while (runner.runnable(1) &&
         !reclaim::is_vulnerable(runner.invoker().reclaim_phase(1))) {
    runner.grant(1);
  }
  runner.grant_while_runnable(0, 1u << 20);  // The retire storm.
  while (!runner.all_done()) {
    bool moved = false;
    for (int pid = 0; pid < runner.num_processes(); ++pid) {
      if (runner.runnable(pid)) {
        runner.grant(pid);
        moved = true;
        break;
      }
    }
    ABA_CHECK_MSG(moved, "scripted seed: no runnable process but work remains");
  }
  return {runner.script(), runner.peak()};
}

// Search, then check the acceptance bar against the scripted seed: the
// best found schedule must reach at least the scripted peak, and its
// serialized script must replay deterministically (bit-identical traces,
// same peak at the same grant, twice).
void expect_search_beats_scripted(const std::string& fixture_name,
                                  double min_scripted_peak) {
  const auto factory = reclaim_fixture(fixture_name);
  const auto workload = storm_workload(fixture_name, kProcs, kCycles);

  const auto [seed_script, scripted_peak] =
      scripted_park_and_storm(fixture_name, workload);
  EXPECT_GE(scripted_peak, min_scripted_peak)
      << fixture_name << ": the scripted seed must itself do damage";

  ScheduleExplorer explorer(factory, kProcs, workload,
                            retired_unreclaimed_cost, corpus_search_options());
  const SearchResult result = explorer.run();
  ASSERT_NE(result.top(), nullptr) << fixture_name;
  EXPECT_GE(result.top()->peak_cost, scripted_peak)
      << fixture_name << ": search must rediscover the scripted worst case"
      << " (explored " << result.executions << " schedules)";

  // Serialize → parse → replay twice: deterministic to the bit.
  const std::string text = result.top()->script.serialize();
  const auto parsed = ScheduleScript::parse(text);
  ASSERT_TRUE(parsed.has_value()) << text;
  const ReplayResult first =
      ScheduleExplorer::replay(factory, *parsed, retired_unreclaimed_cost);
  const ReplayResult second =
      ScheduleExplorer::replay(factory, *parsed, retired_unreclaimed_cost);
  EXPECT_EQ(first.peak_cost, result.top()->peak_cost);
  EXPECT_EQ(first.peak_cost, second.peak_cost);
  EXPECT_EQ(first.peak_grant, second.peak_grant);
  EXPECT_EQ(trace_signature(first.trace), trace_signature(second.trace))
      << fixture_name << ": replays must be bit-identical";
}

// ------------------------------------------------------------- script

TEST(ScheduleScript, SerializeParseRoundTrip) {
  ScheduleScript script;
  script.num_processes = 2;
  script.workload = {{0, Method::kPush, 7}, {1, Method::kPop, 0},
                     {0, Method::kEnq, 9},  {1, Method::kDeq, 0}};
  script.grants = {0, 0, 1, 1, 0, 1};
  script.meta["fixture"] = "stack_epoch";
  script.meta["expect_peak"] = "13";

  const auto parsed = ScheduleScript::parse(script.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->num_processes, script.num_processes);
  EXPECT_EQ(parsed->grants, script.grants);
  EXPECT_EQ(parsed->meta, script.meta);
  ASSERT_EQ(parsed->workload.size(), script.workload.size());
  for (std::size_t i = 0; i < script.workload.size(); ++i) {
    EXPECT_EQ(parsed->workload[i].pid, script.workload[i].pid);
    EXPECT_EQ(parsed->workload[i].method, script.workload[i].method);
    EXPECT_EQ(parsed->workload[i].arg, script.workload[i].arg);
  }
}

TEST(ScheduleScript, CrashGrantsRoundTrip) {
  // Crash grants serialize as "!<pid>" tokens in the grants lines and
  // survive a serialize → parse round trip as the negative encoding.
  ScheduleScript script;
  script.num_processes = 2;
  script.workload = {{0, Method::kPush, 7}, {1, Method::kPop, 0}};
  script.grants = {0, 1, crash_grant(1), 0, 0};
  script.meta["crashes"] = "1";

  const std::string text = script.serialize();
  EXPECT_NE(text.find("!1"), std::string::npos) << text;
  const auto parsed = ScheduleScript::parse(text);
  ASSERT_TRUE(parsed.has_value()) << text;
  EXPECT_EQ(parsed->grants, script.grants);
  EXPECT_EQ(parsed->meta, script.meta);
}

TEST(ScheduleScript, ParseRejectsMalformedInput) {
  EXPECT_FALSE(ScheduleScript::parse("").has_value());
  EXPECT_FALSE(ScheduleScript::parse("not-a-script v1\nend\n").has_value());
  EXPECT_FALSE(  // Missing end marker (truncated file).
      ScheduleScript::parse("schedule-script v1\nprocesses 2\n").has_value());
  EXPECT_FALSE(  // Grant to a pid outside [0, n).
      ScheduleScript::parse(
          "schedule-script v1\nprocesses 2\ngrants 0 2\nend\n")
          .has_value());
  EXPECT_FALSE(  // Unknown method.
      ScheduleScript::parse(
          "schedule-script v1\nprocesses 1\nop 0 swap 3\nend\n")
          .has_value());
  EXPECT_FALSE(  // Crash grant naming a pid outside [0, n).
      ScheduleScript::parse(
          "schedule-script v1\nprocesses 2\ngrants 0 !2\nend\n")
          .has_value());
  EXPECT_FALSE(  // Crash token with no pid.
      ScheduleScript::parse(
          "schedule-script v1\nprocesses 2\ngrants 0 !\nend\n")
          .has_value());
  EXPECT_FALSE(  // Non-numeric grant token.
      ScheduleScript::parse(
          "schedule-script v1\nprocesses 2\ngrants 0 !x\nend\n")
          .has_value());
  EXPECT_FALSE(  // A second processes line, shrinking n under pid 3's op.
      ScheduleScript::parse("schedule-script v1\nprocesses 4\nop 3 dread 0\n"
                            "grants 3\nprocesses 2\nend\n")
          .has_value());
}

// A golden peak is written as a long long. A mutant's unsigned
// retired_unreclaimed that wraps below zero reaches the cost function as
// ~2^64, which has no long long value: stamping it must die rather than
// write an undefined conversion into the corpus.
TEST(ScheduleScriptDeath, GoldenPeakOutsideLongLongDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ScheduleScript script;
  ReplayResult replay;
  replay.peak_cost = 0x1p64;
  EXPECT_DEATH(stamp_golden(script, "stack_hazard", replay),
               "golden peak is not an integer");
  replay.peak_cost = 12.5;
  EXPECT_DEATH(stamp_golden(script, "stack_hazard", replay),
               "golden peak is not an integer");
  replay.peak_cost = 15;
  stamp_golden(script, "stack_hazard", replay);
  EXPECT_EQ(script.meta.at("expect_peak"), "15");
}

TEST(ScheduleScript, AllStandardFixturesConstruct) {
  for (const std::string& name : reclaim_fixture_names()) {
    const SearchFixture fixture = reclaim_fixture(name)(kProcs);
    EXPECT_NE(fixture.world, nullptr) << name;
    EXPECT_NE(fixture.invoker, nullptr) << name;
  }
}

// ----------------------------------------------- search vs scripted seed

TEST(ScheduleSearch, BeatsScriptedSeedStackHazardCached) {
  // The scripted bound is the hazard scan threshold (2·H = 8 for n=2): a
  // storm's retired list peaks exactly there before the scan fires.
  expect_search_beats_scripted("stack_hazard_cached", 8.0);
}

TEST(ScheduleSearch, BeatsScriptedSeedStackEpoch) {
  // A parked announcement freezes the epoch, so every storm retire stays
  // in limbo: the scripted peak is the full storm (cycles + prime).
  expect_search_beats_scripted("stack_epoch", static_cast<double>(kCycles));
}

TEST(ScheduleSearch, BeatsScriptedSeedQueueHazardCached) {
  expect_search_beats_scripted("queue_hazard_cached", 8.0);
}

TEST(ScheduleSearch, BeatsScriptedSeedQueueEpoch) {
  expect_search_beats_scripted("queue_epoch", static_cast<double>(kCycles));
}

// ------------------------------------------------- top-K invariant checks

TEST(ScheduleSearch, TopKSchedulesKeepStructureInvariants) {
  SearchOptions options;
  options.top_k = 3;
  options.max_executions = 32;
  for (const std::string& name :
       {std::string("stack_hazard"), std::string("stack_hazard_cached"),
        std::string("stack_epoch"), std::string("queue_hazard"),
        std::string("queue_hazard_cached"), std::string("queue_epoch")}) {
    const auto factory = reclaim_fixture(name);
    const auto workload = storm_workload(name, kProcs, 6);
    ScheduleExplorer explorer(factory, kProcs, workload,
                              retired_unreclaimed_cost, options);
    const SearchResult result = explorer.run();
    ASSERT_FALSE(result.best.empty()) << name;
    for (const FoundSchedule& found : result.best) {
      SCOPED_TRACE(::testing::Message()
                   << name << " peak=" << found.peak_cost);
      const ReplayResult replay = ScheduleExplorer::replay(
          factory, found.script, retired_unreclaimed_cost);
      EXPECT_EQ(replay.peak_cost, found.peak_cost)
          << "replay must reproduce the search's peak";
      expect_schedule_invariants(replay, put_take(name));
    }
  }
}

TEST(ScheduleSearch, ShardedTopKKeepsPerShardLinearizability) {
  const std::string name = "sharded_stack_hazard_cached";
  const auto factory = reclaim_fixture(name);
  const auto workload = storm_workload(name, kProcs, 6);
  SearchOptions options;
  options.top_k = 3;
  options.max_executions = 32;
  ScheduleExplorer explorer(factory, kProcs, workload,
                            retired_unreclaimed_cost, options);
  const SearchResult result = explorer.run();
  ASSERT_FALSE(result.best.empty());
  for (const FoundSchedule& found : result.best) {
    const ReplayResult replay = ScheduleExplorer::replay(
        factory, found.script, retired_unreclaimed_cost);
    ASSERT_EQ(replay.num_shards, 2);
    ASSERT_FALSE(replay.shard_tags.empty());
    expect_schedule_invariants(replay, put_take(name));
  }
}

// ------------------------------------------------------ put/take verbs

// Every registered fixture's workloads speak its spec's verbs: enq/deq
// exactly when the spec is kQueue or kRing (ring_mpmc's name says
// neither), push/pop otherwise. The spec is read off a built fixture.
TEST(ScheduleSearch, WorkloadsSpeakTheFixtureSpecsVerbs) {
  for (const std::string& name : reclaim_fixture_names()) {
    const SpecKind kind = reclaim_fixture(name)(kProcs).spec;
    const std::set<Method> verbs =
        kind == SpecKind::kQueue || kind == SpecKind::kRing
            ? std::set<Method>{Method::kEnq, Method::kDeq}
            : std::set<Method>{Method::kPush, Method::kPop};
    auto shapes = workload_candidates(name, kProcs, 2);
    shapes.push_back({"storm_workload", storm_workload(name, kProcs, 2)});
    shapes.push_back({"symmetric", symmetric_storm_workload(name, kProcs, 2)});
    for (const WorkloadCandidate& shape : shapes) {
      std::set<Method> used;
      for (const WorkloadOp& op : shape.workload) used.insert(op.method);
      EXPECT_EQ(used, verbs) << name << " " << shape.name;
    }
  }
}

// ------------------------------------------------------------- corpus

TEST(ScheduleCorpus, ReplaysAreBitIdenticalAndMatchGoldenBounds) {
  const auto files = corpus_files();
  ASSERT_FALSE(files.empty())
      << "no committed corpus under " << ABA_SCHEDULE_DIR;
  std::set<std::string> fixtures_seen;
  for (const auto& path : files) {
    SCOPED_TRACE(path.filename().string());
    const auto script = load_script(path);
    ASSERT_TRUE(script.has_value()) << "corpus file failed to parse";

    ASSERT_TRUE(script->meta.count("fixture"));
    ASSERT_TRUE(script->meta.count("cost"));
    const std::string fixture_name = script->meta.at("fixture");
    fixtures_seen.insert(fixture_name);
    const auto factory = fixture_of(*script);
    const CostFn cost = cost_by_name(script->meta.at("cost"));
    const auto crashes = std::count_if(script->grants.begin(),
                                       script->grants.end(), is_crash_grant);
    if (crashes > 0 || script->meta.count("expect_verdict")) {
      ASSERT_TRUE(script->meta.count("crashes"));
      EXPECT_EQ(crashes, std::stoll(script->meta.at("crashes")));
    }

    // Lease-mutant convictions (PR 10) are committed *because* they violate
    // the spec: replays must re-produce the failing verdict bit-identically
    // instead of matching golden peaks, and the schedule-invariant sweep
    // (which insists on a correct execution) does not apply.
    if (script->meta.count("expect_verdict")) {
      ASSERT_EQ(script->meta.at("expect_verdict"), "violation");
      const ReplayResult first =
          ScheduleExplorer::replay(factory, *script, cost);
      const ReplayResult second =
          ScheduleExplorer::replay(factory, *script, cost);
      EXPECT_TRUE(first.verdict.checked);
      EXPECT_FALSE(first.verdict.ok)
          << "committed conviction no longer replays to a violation";
      EXPECT_EQ(first.verdict.detail, second.verdict.detail);
      EXPECT_EQ(trace_signature(first.trace), trace_signature(second.trace));
      continue;
    }
    ASSERT_TRUE(script->meta.count("expect_peak"));

    const ReplayResult first = ScheduleExplorer::replay(factory, *script, cost);
    const ReplayResult second =
        ScheduleExplorer::replay(factory, *script, cost);

    // Golden bound: the peak this schedule was committed with.
    EXPECT_EQ(first.peak_cost, std::stod(script->meta.at("expect_peak")));
    if (script->meta.count("expect_peak_grant")) {
      EXPECT_EQ(first.peak_grant,
                std::stoull(script->meta.at("expect_peak_grant")));
    }
    if (script->meta.count("expect_grants")) {
      EXPECT_EQ(script->grants.size(),
                std::stoull(script->meta.at("expect_grants")))
          << "committed grant count went stale";
    }
    // Bit-identical determinism across replays.
    EXPECT_EQ(first.peak_cost, second.peak_cost);
    EXPECT_EQ(first.peak_grant, second.peak_grant);
    EXPECT_EQ(trace_signature(first.trace), trace_signature(second.trace));

    // Crash schedules carry golden *recovery* bounds: after the victim is
    // killed mid-protocol, the survivors' final reclaimer stats must land
    // exactly where they did when the schedule was committed.
    const bool has_crash = crashes > 0;
    if (has_crash) {
      ASSERT_TRUE(script->meta.count("expect_expropriations"))
          << "crash schedule missing its recovery bound";
      EXPECT_EQ(first.final_stats.expropriations,
                std::stoull(script->meta.at("expect_expropriations")));
      if (script->meta.count("expect_final_retired")) {
        EXPECT_EQ(first.final_stats.retired_unreclaimed,
                  std::stoull(script->meta.at("expect_final_retired")));
      }
      if (script->meta.count("expect_final_free")) {
        EXPECT_EQ(first.final_stats.free_nodes,
                  std::stoull(script->meta.at("expect_final_free")));
      }
      if (script->meta.count("expect_quarantined")) {
        EXPECT_EQ(first.final_stats.quarantined,
                  std::stoull(script->meta.at("expect_quarantined")));
      }
    }
    // A worst case must still be a correct execution (of the completed ops).
    expect_schedule_invariants(first, put_take(fixture_name), has_crash);
  }
  // The acceptance pair the ISSUE names must be in the committed corpus,
  // and so must the deferred-announce epoch fixtures (PR 9).
  EXPECT_TRUE(fixtures_seen.count("stack_hazard_cached")) << "corpus gap";
  EXPECT_TRUE(fixtures_seen.count("stack_epoch")) << "corpus gap";
  EXPECT_TRUE(fixtures_seen.count("stack_epoch_deferred")) << "corpus gap";
  EXPECT_TRUE(fixtures_seen.count("queue_epoch_deferred")) << "corpus gap";
}

// One golden line per corpus file: its name, an FNV-1a hash of the replayed
// trace's text plus the spec verdict, the trace length and the verdict.
std::string golden_line(const std::string& file, const ReplayResult& replay) {
  const std::string verdict = !replay.verdict.checked ? "unchecked"
                              : replay.verdict.ok     ? "ok"
                                                      : "violation";
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : trace_signature(replay.trace) + verdict + "\n" +
                          replay.verdict.detail) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  std::ostringstream out;
  out << file << " " << std::hex << std::setw(16) << std::setfill('0') << hash
      << std::dec << " " << replay.trace.size() << " " << verdict;
  return out.str();
}

// Every corpus replay is pinned to the trace it produced when
// tests/golden/schedule_traces.txt was written, so a change to the reclaim
// layer's bookkeeping that moves an allocation, a shared step or a verdict
// fails here even where the golden peaks still match. On a mismatch the
// actual block prints; copy it over the golden only for an intended
// schedule change.
TEST(ScheduleCorpus, TracesMatchGolden) {
  std::ifstream golden(std::filesystem::path(ABA_GOLDEN_DIR) /
                       "schedule_traces.txt");
  ASSERT_TRUE(golden.good()) << "no golden under " << ABA_GOLDEN_DIR;
  std::string expected;
  for (std::string line; std::getline(golden, line);) {
    if (!line.empty() && line[0] != '#') expected += line + "\n";
  }
  std::string actual;
  for (const auto& path : corpus_files()) {
    const auto script = load_script(path);
    ASSERT_TRUE(script.has_value()) << path;
    const ReplayResult replay = ScheduleExplorer::replay(
        fixture_of(*script), *script, cost_by_name(script->meta.at("cost")));
    actual += golden_line(path.filename().string(), replay) + "\n";
  }
  EXPECT_EQ(expected, actual) << "actual block:\n" << actual;
}

}  // namespace
}  // namespace aba::search
