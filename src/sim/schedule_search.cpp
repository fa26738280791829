// The schedule-search engine (sim/schedule_search.h): ScheduleRunner, the
// DPOR ScheduleExplorer with its state key, and the workload search.
#include "sim/schedule_search.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "util/assert.h"

namespace aba::search {

// ----------------------------------------------------------------- runner

ScheduleRunner::ScheduleRunner(SearchFixture fixture,
                               std::vector<harness::WorkloadOp> workload,
                               CostFn cost)
    : fixture_(std::move(fixture)),
      program_(fixture_.world->num_processes(), workload),
      cost_(std::move(cost)) {
  sample();  // Baseline (grant 0).
}

void ScheduleRunner::grant(int pid) {
  if (is_crash_grant(pid)) {
    const int victim = crash_victim(pid);
    ABA_CHECK_MSG(victim < num_processes() &&
                      !fixture_.world->is_crashed(victim),
                  "schedule crashes an unknown or already-dead process");
    fixture_.world->crash(victim);
    grants_.push_back(pid);
    sample();
    return;
  }
  ABA_CHECK_MSG(runnable(pid), "schedule grants a non-runnable process");
  program_.advance(*fixture_.world, *fixture_.invoker, pid);
  grants_.push_back(pid);
  sample();
}

void ScheduleRunner::grant_while_runnable(int pid, std::uint64_t max_grants) {
  for (std::uint64_t i = 0; i < max_grants && runnable(pid); ++i) grant(pid);
}

ScheduleScript ScheduleRunner::script() const {
  ScheduleScript script;
  script.num_processes = num_processes();
  script.workload = program_.workload();
  script.grants = grants_;
  return script;
}

void ScheduleRunner::sample() {
  const reclaim::ReclaimStats stats = fixture_.invoker->reclaim_stats();
  const double c = cost_(stats);
  if (c > peak_) {
    peak_ = c;
    peak_grant_ = grants_.size();
    peak_stats_ = stats;
  }
}

// --------------------------------------------------------------- explorer

// Live search state: a runner positioned at the end of its grant sequence
// plus the preemption accounting the context bound prunes on.
struct ScheduleExplorer::Live {
  ScheduleRunner runner;
  int last_pid = -1;
  int switches = 0;
  int crashes = 0;

  Live(SearchFixture fixture, std::vector<harness::WorkloadOp> workload,
       CostFn cost)
      : runner(std::move(fixture), std::move(workload), std::move(cost)) {}

  // Grants through the runner and keeps the preemption books: granting a
  // pid different from the last while the last is still runnable is a
  // preemption. Crash grants are not steps of any process, so they consume
  // no preemption budget; a crash of the current process just clears the
  // continuity anchor.
  void advance(int pid) {
    if (is_crash_grant(pid)) {
      runner.grant(pid);
      ++crashes;
      if (crash_victim(pid) == last_pid) last_pid = -1;
      return;
    }
    if (last_pid >= 0 && pid != last_pid && runner.runnable(last_pid)) {
      ++switches;
    }
    runner.grant(pid);
    last_pid = pid;
  }
};

ScheduleExplorer::ScheduleExplorer(SearchFixtureFactory factory,
                                   int num_processes,
                                   std::vector<harness::WorkloadOp> workload,
                                   CostFn cost, SearchOptions options)
    : factory_(std::move(factory)),
      num_processes_(num_processes),
      workload_(std::move(workload)),
      cost_(std::move(cost)),
      options_(options) {
  ABA_CHECK(num_processes_ >= 1);
}

std::unique_ptr<ScheduleExplorer::Live> ScheduleExplorer::make_live() const {
  return std::make_unique<Live>(factory_(num_processes_), workload_, cost_);
}

std::unique_ptr<ScheduleExplorer::Live> ScheduleExplorer::replay_prefix(
    const std::vector<int>& grants) const {
  auto live = make_live();
  for (const int pid : grants) live->advance(pid);
  return live;
}

// Runnable choices this juncture, context-bound-feasible only, ordered by
// the search heuristic: non-vulnerable before vulnerable (park the pinned
// reader), fewer remaining ops first (drive the designated victim into its
// protected region, then let the storm run), continuity before preemption,
// pid as the final tie-break.
std::vector<int> ScheduleExplorer::ordered_choices(Live& live) const {
  std::vector<int> choices;
  const bool last_runnable =
      live.last_pid >= 0 && live.runner.runnable(live.last_pid);
  for (const int pid : live.runner.runnable_pids()) {
    const bool preempts = last_runnable && pid != live.last_pid;
    if (preempts && live.switches >= options_.context_bound) continue;
    choices.push_back(pid);
  }
  harness::Invoker& invoker = live.runner.invoker();
  const auto rank = [&](int pid) {
    const bool vulnerable = reclaim::is_vulnerable(invoker.reclaim_phase(pid));
    return std::make_tuple(vulnerable ? 1 : 0, live.runner.ops_remaining(pid),
                           pid == live.last_pid ? 0 : 1, pid);
  };
  std::stable_sort(choices.begin(), choices.end(),
                   [&](int a, int b) { return rank(a) < rank(b); });
  // Crash choices, ranked ahead of every step grant so the preferred DFS
  // path explores the kill first: a process poised inside a vulnerable or
  // mid-retire phase may die right there, leaving its published guard or
  // frozen epoch announcement (or a half-finished retire) for the
  // survivors' expropriation path to clean up.
  if (live.crashes < options_.max_crashes) {
    std::vector<int> crash_choices;
    const sim::SimWorld& world = *live.runner.fixture().world;
    for (int pid = 0; pid < live.runner.num_processes(); ++pid) {
      if (!world.poised(pid).has_value()) continue;
      const reclaim::ReclaimPhase phase = invoker.reclaim_phase(pid);
      if (reclaim::is_vulnerable(phase) ||
          phase == reclaim::ReclaimPhase::kMidRetire ||
          phase == reclaim::ReclaimPhase::kMidAllocate) {
        crash_choices.push_back(crash_grant(pid));
      }
    }
    choices.insert(choices.begin(), crash_choices.begin(),
                   crash_choices.end());
  }
  return choices;
}

namespace {

// Violations beyond this many are still *detected* (the search stops on the
// first one by default) but not stored — each carries a full script.
constexpr std::size_t kMaxRecordedViolations = 8;

// What a grant does at the current configuration, for the independence
// relation. An invoke grant runs only process-local code up to the first
// announcement; a step grant executes the poised shared-memory op; a crash
// grant kills its victim (and death rewires reclaimer bookkeeping across
// processes via expropriation, so crashes conflict with everything).
struct GrantKind {
  bool crash = false;
  bool invoke = false;
  sim::PendingOp op;  // Valid iff step grant (!crash && !invoke).
};

GrantKind classify_grant(const sim::SimWorld& world, int grant) {
  GrantKind kind;
  if (is_crash_grant(grant)) {
    kind.crash = true;
    return kind;
  }
  const std::optional<sim::PendingOp> poised = world.poised(grant);
  if (!poised.has_value()) {
    kind.invoke = true;
    return kind;
  }
  kind.op = *poised;
  return kind;
}

// Two shared-memory steps commute iff they touch different objects or
// neither writes.
bool ops_independent(const sim::PendingOp& a, const sim::PendingOp& b) {
  if (a.obj != b.obj) return true;
  return a.kind == sim::OpKind::kRead && b.kind == sim::OpKind::kRead;
}

// The process a grant belongs to (its victim, for a crash grant). Two
// grants of the same process are always dependent: program order.
int grant_pid(int grant) {
  return is_crash_grant(grant) ? crash_victim(grant) : grant;
}

// Folds what a spec verdict judges of the history so far: each completed
// op's result and, with `real_time`, the real-time order of every
// invocation and response — op a precedes op b iff a responded before b
// was invoked. Ranking each event among the invocations pins that relation
// exactly.
void mix_history(reclaim::Fingerprint& fp, const spec::History& history,
                 bool real_time) {
  const std::vector<spec::Op> completed = history.completed_ops();
  for (const auto& op : completed) {
    fp.mix(static_cast<std::uint64_t>(op.pid));
    fp.mix(static_cast<std::uint64_t>(op.method));
    fp.mix(op.arg);
    fp.mix(op.ret);
  }
  if (!real_time) return;
  const std::vector<spec::Op> pending = history.pending_ops();
  std::vector<std::uint64_t> invoked;
  for (const auto& op : completed) invoked.push_back(op.invoke_ts);
  for (const auto& op : pending) invoked.push_back(op.invoke_ts);
  std::sort(invoked.begin(), invoked.end());
  const auto invocations_before = [&](std::uint64_t ts) {
    return static_cast<std::uint64_t>(
        std::lower_bound(invoked.begin(), invoked.end(), ts) -
        invoked.begin());
  };
  for (const auto& op : completed) {
    fp.mix(invocations_before(op.invoke_ts));
    fp.mix(invocations_before(op.response_ts));
  }
  for (const auto& op : pending) {
    fp.mix(static_cast<std::uint64_t>(op.pid));
    fp.mix(invocations_before(op.invoke_ts));
  }
}

}  // namespace

// The DPOR configuration hash: everything that determines the future of the
// search from this juncture. SimWorld::signature_key() covers object values
// and poised ops; the rest is engine-side — remaining per-process programs,
// the spent preemption/crash budget (feasible continuations depend on it),
// the continuity anchor, and the reclaimer's thread-private bookkeeping
// (reclaim::Fingerprint) that the signature cannot see. With spec verdicts
// on, the history is folded in too (mix_history): two configurations must
// agree on what they will be *judged* on, not just on what they will do.
// Real-time order joins the key only in the exhaustive mode (unbounded
// context bound, where sleep sets respect it too). Bounded searches are
// budgeted bug hunts: their key merges configurations that differ only in
// the order of one process's response and another's invocation, and the
// committed conviction budgets were recorded under that key.
std::uint64_t ScheduleExplorer::state_key(const Live& live) const {
  reclaim::Fingerprint fp;
  fp.mix_range(live.runner.fixture().world->signature_key());
  // The per-process observation hashes pin the *local* continuations, which
  // the signature deliberately omits — two program points can announce the
  // same PendingOp (a loop-top read vs its validation re-read) with very
  // different futures. Commuting independent steps leaves every process's
  // own observation sequence unchanged, so equivalent interleavings still
  // collide.
  fp.mix_range(live.runner.fixture().world->observation_hashes());
  fp.mix_range(live.runner.op_cursors());
  fp.mix(static_cast<std::uint64_t>(live.last_pid + 1));
  fp.mix(static_cast<std::uint64_t>(live.switches));
  fp.mix(static_cast<std::uint64_t>(live.crashes));
  fp.mix(live.runner.fixture().invoker->reclaim_fingerprint());
  if (options_.check_spec) {
    mix_history(fp, *live.runner.fixture().history,
                options_.context_bound >= kUnboundedContextBound);
  }
  return fp.value();
}

bool ScheduleExplorer::stopped() const {
  return result_.budget_exhausted ||
         (options_.stop_on_violation && result_.violation_found());
}

void ScheduleExplorer::record(Live& live) {
  FoundSchedule found;
  found.script = live.runner.script();
  found.peak_cost = live.runner.peak();
  found.peak_grant = live.runner.peak_grant();
  if (options_.check_spec) {
    const SpecVerdict verdict = check_history(live.runner.fixture());
    if (verdict.checked && !verdict.ok &&
        result_.violations.size() < kMaxRecordedViolations) {
      result_.violations.push_back({found.script, verdict.detail});
    }
  }
  auto& best = result_.best;
  const auto pos = std::find_if(
      best.begin(), best.end(),
      [&](const FoundSchedule& f) { return found.peak_cost > f.peak_cost; });
  best.insert(pos, std::move(found));
  if (best.size() > static_cast<std::size_t>(options_.top_k)) {
    best.resize(static_cast<std::size_t>(options_.top_k));
  }
}

void ScheduleExplorer::dfs(std::unique_ptr<Live> live, SleepSet sleep) {
  // Sleep sets are sound only when the context bound cannot exclude any
  // interleaving: a slept order's explored representative is a commutation
  // with a different preemption count, which a finite bound may have cut
  // (see the file comment in schedule_search.h).
  const bool sleep_active =
      options_.dpor && options_.context_bound >= kUnboundedContextBound;
  // Slept-choice matching. A slept entry names a *transition* (pid plus the
  // exact poised op, or the pid's next invoke), not a bare pid — the same
  // pid poised at a different op later is a different transition.
  const auto same_op = [](const sim::PendingOp& a, const sim::PendingOp& b) {
    return a.obj == b.obj && a.kind == b.kind && a.arg0 == b.arg0 &&
           a.arg1 == b.arg1;
  };
  const auto matches = [&](const SleptChoice& s, int grant,
                           const GrantKind& k) {
    return s.grant == grant && s.invoke == k.invoke &&
           (k.invoke || same_op(s.op, k.op));
  };
  // A slept entry survives past an executed grant iff the two commute:
  // different processes, no crash involved, no same-object write race.
  // Under spec verdicts an invocation also conflicts with another process's
  // response (`responded`: the executed grant finished its op), because
  // real-time order is part of what linearizability judges. Invoking after
  // that response makes the two ops ordered; the explored sibling invoked
  // first, so it only checked the weaker, overlapping history. (The reverse
  // prune is sound: a slept response past an executed invocation stands for
  // an overlapping history, and the explored sibling checked the stricter
  // ordered one.)
  const auto still_asleep = [&](const SleptChoice& s, int grant,
                                const GrantKind& k, bool responded) {
    if (k.crash) return false;
    if (grant_pid(s.grant) == grant_pid(grant)) return false;
    if (s.invoke && responded && options_.check_spec) return false;
    if (s.invoke || k.invoke) return true;
    return ops_independent(s.op, k.op);
  };
  const auto responded = [](const Live& live, int grant) {
    return live.runner.fixture().world->is_idle(grant);
  };

  for (;;) {
    if (stopped()) return;
    if (live->runner.all_done()) {
      record(*live);
      if (++result_.executions >= options_.max_executions) {
        result_.budget_exhausted = true;
      }
      return;
    }
    if (result_.grants >= options_.max_grants) {
      result_.budget_exhausted = true;
      return;
    }
    const std::uint64_t cut =
        live->runner.fixture().max_grants_per_execution;
    if (cut != 0 && live->runner.grants().size() >= cut) {
      // Bounded-wait cut for non-solo-terminating fixtures: abandon this
      // path before its spin loop exhausts the stack (see SearchFixture).
      ++result_.truncated_paths;
      return;
    }
    ++result_.nodes;

    // Visited-state dominance: a revisit whose recorded running peak is at
    // least ours already scored every completion from here at least as high
    // (peak(completion) = max(peak_so_far, future(state)), and the future
    // is a function of the state alone).
    if (options_.dpor) {
      std::uint64_t key = state_key(*live);
      if (sleep_active && !sleep.empty()) {
        // A state first explored under one sleep set must not prune a
        // revisit under a different one — the revisit may explore choices
        // the first visit slept — so the sleep set is part of the cache
        // identity. XOR keeps the key independent of entry order.
        std::uint64_t sleep_fp = 0;
        for (const SleptChoice& s : sleep) {
          reclaim::Fingerprint f;
          f.mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(s.grant)));
          f.mix(s.invoke ? 1 : 0);
          f.mix(static_cast<std::uint64_t>(s.op.obj));
          f.mix(static_cast<std::uint64_t>(s.op.kind));
          f.mix(s.op.arg0);
          f.mix(s.op.arg1);
          sleep_fp ^= f.value();
        }
        reclaim::Fingerprint f;
        f.mix(key);
        f.mix(sleep_fp);
        key = f.value();
      }
      const double peak = live->runner.peak();
      auto [it, inserted] = visited_.try_emplace(key, peak);
      if (!inserted) {
        if (it->second >= peak) {
          ++result_.pruned_states;
          return;
        }
        it->second = peak;
      }
    }

    std::vector<int> choices = ordered_choices(*live);
    ABA_CHECK_MSG(!choices.empty(),
                  "no feasible grant but work remains (context bound cannot "
                  "exclude the running process)");
    const sim::SimWorld& world = *live->runner.fixture().world;
    std::vector<GrantKind> kinds;
    kinds.reserve(choices.size());
    for (const int grant : choices) {
      kinds.push_back(classify_grant(world, grant));
    }

    // Sleep-set filter: a choice that commuted with every grant since an
    // explored sibling took it reaches a configuration in that sibling's
    // Mazurkiewicz trace — skip it here.
    if (sleep_active && !sleep.empty()) {
      std::vector<int> kept;
      std::vector<GrantKind> kept_kinds;
      for (std::size_t i = 0; i < choices.size(); ++i) {
        const bool slept = std::any_of(
            sleep.begin(), sleep.end(), [&](const SleptChoice& s) {
              return matches(s, choices[i], kinds[i]);
            });
        if (slept) {
          ++result_.pruned_sleep;
          continue;
        }
        kept.push_back(choices[i]);
        kept_kinds.push_back(kinds[i]);
      }
      choices = std::move(kept);
      kinds = std::move(kept_kinds);
      if (choices.empty()) return;  // Fully covered by explored siblings.
    }

    if (choices.size() == 1) {
      live->advance(choices[0]);
      ++result_.grants;
      if (sleep_active && !sleep.empty()) {
        // Wake slept transitions the executed grant conflicts with.
        const bool done = !kinds[0].crash && responded(*live, choices[0]);
        SleepSet kept;
        for (const SleptChoice& s : sleep) {
          if (still_asleep(s, choices[0], kinds[0], done)) kept.push_back(s);
        }
        sleep = std::move(kept);
      }
      continue;
    }

    // Branch point: the heuristic-preferred child inherits the live run
    // (no replay for the leftmost path — the fix for re-running fixture
    // setup per node); only the remaining siblings are rebuilt by prefix
    // replay (Exec(C, sigma)), and each lands directly on the child's
    // visited-state check, so a revisited subtree costs one replay, never
    // a re-exploration.
    const std::vector<int> prefix = live->runner.grants();
    bool live_used = false;
    for (std::size_t i = 0; i < choices.size(); ++i) {
      if (stopped()) return;
      std::unique_ptr<Live> child;
      if (!live_used) {
        child = std::move(live);
        live_used = true;
      } else {
        child = replay_prefix(prefix);
        result_.grants += prefix.size();
        result_.replayed_grants += prefix.size();
      }
      child->advance(choices[i]);
      ++result_.grants;
      SleepSet child_sleep;
      if (sleep_active) {
        const bool done = !kinds[i].crash && responded(*child, choices[i]);
        for (const SleptChoice& s : sleep) {
          if (still_asleep(s, choices[i], kinds[i], done)) {
            child_sleep.push_back(s);
          }
        }
        for (std::size_t j = 0; j < i; ++j) {
          if (kinds[j].crash) continue;  // Dependent with everything.
          const SleptChoice s{choices[j], kinds[j].invoke, kinds[j].op};
          if (still_asleep(s, choices[i], kinds[i], done)) {
            child_sleep.push_back(s);
          }
        }
      }
      dfs(std::move(child), std::move(child_sleep));
    }
    return;
  }
}

SearchResult ScheduleExplorer::run() {
  result_ = SearchResult{};
  visited_.clear();
  // The staged prefix, if any, is executed before the first juncture; its
  // grants count against the global budget and its switches/crashes charge
  // the same per-schedule budgets the DFS enforces (Live::advance keeps the
  // books either way), so a preluded conviction reports honest costs.
  auto live = make_live();
  for (const int grant : options_.prelude) {
    ABA_CHECK_MSG(is_crash_grant(grant) ? !live->runner.fixture()
                                               .world->is_crashed(
                                                   crash_victim(grant))
                                        : live->runner.runnable(grant),
                  "search prelude grants a process that cannot run");
    live->advance(grant);
    ++result_.grants;
  }
  dfs(std::move(live), SleepSet{});
  return std::move(result_);
}

WorkloadSearchResult search_workloads(
    const SearchFixtureFactory& factory, int num_processes,
    const std::vector<WorkloadCandidate>& candidates, const CostFn& cost,
    const SearchOptions& options) {
  ABA_CHECK_MSG(!candidates.empty(), "workload search needs candidates");
  WorkloadSearchResult result;
  bool first = true;
  for (const WorkloadCandidate& candidate : candidates) {
    ScheduleExplorer explorer(factory, num_processes, candidate.workload, cost,
                              options);
    SearchResult search = explorer.run();
    const double peak = search.top() ? search.top()->peak_cost : 0.0;
    result.peaks.emplace_back(candidate.name, peak);
    const double best_peak =
        result.best.top() ? result.best.top()->peak_cost : 0.0;
    if (first || peak > best_peak) {
      first = false;
      result.best_name = candidate.name;
      result.best = std::move(search);
    }
  }
  for (FoundSchedule& found : result.best.best) {
    found.script.meta["workload"] = result.best_name;
  }
  for (FoundViolation& violation : result.best.violations) {
    violation.script.meta["workload"] = result.best_name;
  }
  return result;
}

ReplayResult ScheduleExplorer::replay(const SearchFixtureFactory& factory,
                                      const ScheduleScript& script,
                                      const CostFn& cost) {
  SearchFixture fixture = factory(script.num_processes);
  fixture.world->set_trace_enabled(true);
  fixture.world->clear_trace();
  ScheduleRunner runner(std::move(fixture), script.workload, cost);
  for (const int pid : script.grants) runner.grant(pid);
  // Drain any remainder deterministically so the history is complete.
  while (!runner.all_done()) {
    bool moved = false;
    for (int pid = 0; pid < runner.num_processes(); ++pid) {
      if (runner.runnable(pid)) {
        runner.grant(pid);
        moved = true;
        break;
      }
    }
    ABA_CHECK_MSG(moved, "replay drain: no runnable process but work remains");
  }
  ReplayResult result;
  result.peak_cost = runner.peak();
  result.peak_grant = runner.peak_grant();
  result.peak_stats = runner.peak_stats();
  result.final_stats = runner.invoker().reclaim_stats();
  result.trace = runner.fixture().world->trace_copy();
  // completed_ops: identical to ops() for crash-free scripts; a crashed
  // process's final op never completes and is deliberately excluded.
  result.history = runner.fixture().history->completed_ops();
  if (runner.fixture().shard_tags) {
    result.shard_tags = runner.fixture().shard_tags();
  }
  result.num_shards = runner.fixture().num_shards;
  result.verdict = check_history(runner.fixture());
  return result;
}

}  // namespace aba::search
