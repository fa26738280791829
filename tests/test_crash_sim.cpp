// Crash-robustness tests over the simulator (reclaim/death.h + the crash
// support in SimWorld and the schedule-search engine):
//
//   * SimWorld crash semantics: a crashed process stops being runnable, its
//     queued workload is abandoned, its pending op stays incomplete
//     (History::completed_ops skips it), and the rest of the execution
//     drains normally;
//   * the two-phase suspect/confirm death handshake in isolation: a
//     suspicion must be confirmed on a *later* visit, a live process vetoes
//     it in between, and an expropriated process self-fences with
//     LeaseRevoked instead of touching shared state;
//   * the death-at-every-phase sweep — the ISSUE's sim-side robustness
//     gate: for every reclaimer family and every reachable ReclaimPhase,
//     kill the victim poised exactly there and assert the survivor
//     expropriates (>= 1 confirmed drain) and that the pool conserves:
//
//       free + retired + quarantined == pool − in_structure + adjust
//
//     where in_structure is computed from the *completed* history
//     (successful puts minus non-empty takes) and adjust is +1 exactly when
//     the victim died mid-retire — its take took effect (the node left the
//     structure) but the op never completed, so the history over-counts the
//     structure by one node, which the expropriator re-homed onto a
//     retired/limbo list;
//   * the searcher with max_crashes > 0 finds schedules containing crash
//     grants that replay deterministically and recover (expropriations in
//     the drained final stats).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "reclaim/death.h"
#include "reclaim/reclaimer.h"
#include "sim/schedule_search.h"
#include "spec/history.h"
#include "test_support.h"
#include "util/assert.h"

namespace aba::search {
namespace {

using aba::testing::expect_conserved;
using reclaim::ReclaimPhase;
using spec::Method;

constexpr int kProcs = 2;

// Net nodes the *completed* history left inside the structure.
long in_structure(const std::vector<spec::Op>& ops, Method take) {
  long net = 0;
  for (const auto& op : ops) {
    if (op.method != take && op.ret == 1) ++net;
    if (op.method == take && op.ret != 0) --net;
  }
  return net;
}

// ---------------------------------------------------- SimWorld crash units

TEST(CrashSim, CrashedProcessStopsAndRestDrains) {
  const std::string name = "stack_hazard";
  ScheduleRunner runner(reclaim_fixture(name)(kProcs),
                        symmetric_storm_workload(name, kProcs, 4),
                        retired_unreclaimed_cost);
  EXPECT_FALSE(runner.fixture().world->is_crashed(1));

  // Put the victim mid-op (a few granted steps into its first push), then
  // kill it there.
  runner.grant(1);
  runner.grant(1);
  runner.grant(crash_grant(1));
  EXPECT_TRUE(runner.fixture().world->is_crashed(1));
  EXPECT_FALSE(runner.runnable(1));
  EXPECT_EQ(runner.ops_remaining(1), 0) << "queued ops must be abandoned";

  // The survivor drains to completion; the whole execution counts as done
  // even though the victim never ran its remaining ops.
  while (runner.runnable(0)) runner.grant(0);
  EXPECT_TRUE(runner.all_done());

  // The victim's pending op is incomplete forever; completed_ops() skips
  // exactly that one.
  const auto ops = runner.fixture().history->completed_ops();
  for (const auto& op : ops) EXPECT_NE(op.pid, 1);
  EXPECT_LT(ops.size(), runner.fixture().history->size());
  expect_conserved(ops, Method::kPop);
}

TEST(CrashSim, CrashGrantIsRecordedInScript) {
  const std::string name = "stack_epoch";
  ScheduleRunner runner(reclaim_fixture(name)(kProcs),
                        symmetric_storm_workload(name, kProcs, 2),
                        retired_unreclaimed_cost);
  runner.grant(1);
  runner.grant(crash_grant(1));
  while (runner.runnable(0)) runner.grant(0);

  const ScheduleScript script = runner.script();
  const auto n_crash =
      std::count_if(script.grants.begin(), script.grants.end(),
                    [](int g) { return is_crash_grant(g); });
  EXPECT_EQ(n_crash, 1);
  // And it round-trips through the text form.
  const auto parsed = ScheduleScript::parse(script.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->grants, script.grants);
}

// ------------------------------------------- two-phase handshake in vitro

TEST(DeathHandshake, SuspectThenConfirmAcrossVisits) {
  std::atomic<std::uint8_t> death{reclaim::kDeathLive};
  EXPECT_EQ(reclaim::advance_death(death), reclaim::DeathStep::kSuspected);
  EXPECT_EQ(reclaim::advance_death(death), reclaim::DeathStep::kConfirmed);
  EXPECT_EQ(reclaim::advance_death(death),
            reclaim::DeathStep::kAlreadyExpropriated);
}

TEST(DeathHandshake, FalseSuspicionIsVetoedByTheLiveProcess) {
  std::atomic<std::uint8_t> death{reclaim::kDeathLive};
  // A lying oracle suspects a perfectly live process...
  EXPECT_EQ(reclaim::advance_death(death), reclaim::DeathStep::kSuspected);
  // ...which vetoes at its next reclaimer entry point (no throw)...
  EXPECT_NO_THROW(reclaim::death_self_check(death));
  EXPECT_EQ(death.load(), reclaim::kDeathLive);
  // ...so the next survivor visit starts over at suspicion, never confirm.
  EXPECT_EQ(reclaim::advance_death(death), reclaim::DeathStep::kSuspected);
}

TEST(DeathHandshake, ExpropriatedProcessSelfFences) {
  std::atomic<std::uint8_t> death{reclaim::kDeathLive};
  reclaim::advance_death(death);  // Suspect.
  reclaim::advance_death(death);  // Confirm: a survivor owns the lists now.
  EXPECT_THROW(reclaim::death_self_check(death), reclaim::LeaseRevoked);
  // Self-fencing must not have altered the word (the survivor's ownership
  // is permanent).
  EXPECT_EQ(death.load(), reclaim::kDeathExpropriated);
}

// ----------------------------------------- death at every reachable phase

// Drives victim pid 1 solo until its reclaimer reports `target`, kills it
// poised exactly there, lets the survivor storm run to completion, and
// checks expropriation + pool conservation.
void crash_sweep_case(const std::string& fixture_name, ReclaimPhase target) {
  SCOPED_TRACE(fixture_name + " @ " + std::string(reclaim::to_string(target)));
  ScheduleRunner runner(reclaim_fixture(fixture_name)(kProcs),
                        symmetric_storm_workload(fixture_name, kProcs, 32),
                        retired_unreclaimed_cost);

  bool reached = false;
  while (runner.runnable(1)) {
    if (runner.invoker().reclaim_phase(1) == target) {
      reached = true;
      break;
    }
    runner.grant(1);
  }
  ASSERT_TRUE(reached) << "victim never reached the target phase";
  runner.grant(crash_grant(1));

  while (runner.runnable(0)) runner.grant(0);
  EXPECT_TRUE(runner.all_done());

  const reclaim::ReclaimStats s = runner.invoker().reclaim_stats();
  EXPECT_GE(s.expropriations, 1u)
      << "the survivor never expropriated the dead lease";
  EXPECT_LE(s.quarantined, 1u) << "quarantine must cost at most one node";

  const Method take = put_take(fixture_name).take;
  const auto ops = runner.fixture().history->completed_ops();
  expect_conserved(ops, take);
  // Conservation: mid-retire deaths removed one node from the structure
  // without completing the op that did it (see the file comment).
  const long adjust = target == ReclaimPhase::kMidRetire ? 1 : 0;
  EXPECT_EQ(static_cast<long>(s.free_nodes + s.retired_unreclaimed +
                              s.quarantined),
            static_cast<long>(s.pool_size) - in_structure(ops, take) + adjust);
}

TEST(CrashSweep, StackHazardAllPhases) {
  for (const ReclaimPhase phase :
       {ReclaimPhase::kInRegion, ReclaimPhase::kGuardPublished,
        ReclaimPhase::kMidRetire}) {
    crash_sweep_case("stack_hazard", phase);
  }
}

TEST(CrashSweep, StackHazardCachedAllPhases) {
  for (const ReclaimPhase phase :
       {ReclaimPhase::kInRegion, ReclaimPhase::kGuardPublished,
        ReclaimPhase::kMidRetire}) {
    crash_sweep_case("stack_hazard_cached", phase);
  }
}

TEST(CrashSweep, StackEpochAllPhases) {
  // Epoch regions never report kInRegion (begin_op goes straight to the
  // announcement) and publish no guards; the reachable vulnerable phases
  // are the frozen announcement and mid-retire.
  for (const ReclaimPhase phase :
       {ReclaimPhase::kEpochAnnounced, ReclaimPhase::kMidRetire}) {
    crash_sweep_case("stack_epoch", phase);
  }
}

TEST(CrashSweep, QueueHazardAllPhases) {
  for (const ReclaimPhase phase :
       {ReclaimPhase::kInRegion, ReclaimPhase::kGuardPublished,
        ReclaimPhase::kMidRetire}) {
    crash_sweep_case("queue_hazard", phase);
  }
}

TEST(CrashSweep, QueueHazardCachedAllPhases) {
  for (const ReclaimPhase phase :
       {ReclaimPhase::kInRegion, ReclaimPhase::kGuardPublished,
        ReclaimPhase::kMidRetire}) {
    crash_sweep_case("queue_hazard_cached", phase);
  }
}

TEST(CrashSweep, QueueEpochAllPhases) {
  for (const ReclaimPhase phase :
       {ReclaimPhase::kEpochAnnounced, ReclaimPhase::kMidRetire}) {
    crash_sweep_case("queue_epoch", phase);
  }
}

// -------------------------------------------------- searched crash events

// With a crash budget the explorer must find schedules that kill a process
// at a vulnerable phase — and those schedules must replay deterministically
// and *recover* (the drained execution shows a confirmed expropriation).
void expect_searched_crash_recovers(const std::string& fixture_name) {
  SCOPED_TRACE(fixture_name);
  const auto factory = reclaim_fixture(fixture_name);
  // A symmetric 24-cycle storm: whichever process the searcher kills, the
  // survivor still retires enough to drive the two-phase handshake to
  // confirmation during the replay's drain.
  ScheduleExplorer explorer(
      factory, kProcs, symmetric_storm_workload(fixture_name, kProcs, 24),
      retired_unreclaimed_cost, crash_search_options());
  const SearchResult result = explorer.run();
  ASSERT_FALSE(result.best.empty());

  const FoundSchedule* crashed = nullptr;
  for (const FoundSchedule& found : result.best) {
    if (std::any_of(found.script.grants.begin(), found.script.grants.end(),
                    [](int g) { return is_crash_grant(g); })) {
      crashed = &found;
      break;
    }
  }
  ASSERT_NE(crashed, nullptr)
      << "search with a crash budget found no crash schedule";

  const ReplayResult first =
      ScheduleExplorer::replay(factory, crashed->script,
                               retired_unreclaimed_cost);
  const ReplayResult second =
      ScheduleExplorer::replay(factory, crashed->script,
                               retired_unreclaimed_cost);
  EXPECT_EQ(first.peak_cost, crashed->peak_cost);
  EXPECT_EQ(first.peak_cost, second.peak_cost);
  EXPECT_EQ(first.trace.size(), second.trace.size());
  EXPECT_GE(first.final_stats.expropriations, 1u)
      << "the drained replay never recovered the dead lease";
  expect_conserved(first.history, put_take(fixture_name).take);
}

TEST(CrashSearch, FindsRecoveringCrashScheduleStackHazardCached) {
  expect_searched_crash_recovers("stack_hazard_cached");
}

TEST(CrashSearch, FindsRecoveringCrashScheduleStackEpoch) {
  expect_searched_crash_recovers("stack_epoch");
}

TEST(CrashSearch, ZeroBudgetSearchStaysCrashFree) {
  const std::string name = "stack_hazard_cached";
  const auto factory = reclaim_fixture(name);
  const auto workload = storm_workload(name, kProcs, 8);
  SearchOptions options;
  options.top_k = 4;
  options.max_executions = 32;  // max_crashes stays at its default of 0.
  ScheduleExplorer explorer(factory, kProcs, workload,
                            retired_unreclaimed_cost, options);
  const SearchResult result = explorer.run();
  for (const FoundSchedule& found : result.best) {
    for (const int g : found.script.grants) EXPECT_FALSE(is_crash_grant(g));
  }
}

}  // namespace
}  // namespace aba::search
