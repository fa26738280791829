#include "harness/harness.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "util/assert.h"
#include "util/rng.h"

namespace aba::harness {

ProgramCursor::ProgramCursor(int num_processes,
                             const std::vector<WorkloadOp>& workload)
    : queues_(static_cast<std::size_t>(num_processes)),
      next_op_(static_cast<std::size_t>(num_processes), 0) {
  workload_.reserve(workload.size());
  for (const auto& op : workload) append(op);
}

void ProgramCursor::append(const WorkloadOp& op) {
  // Always on: schedule scripts parsed from files reach here too.
  ABA_CHECK(op.pid >= 0 && op.pid < num_processes());
  workload_.push_back(op);
  queues_[static_cast<std::size_t>(op.pid)].push_back(op);
}

bool ProgramCursor::runnable(const sim::SimWorld& world, int pid) const {
  if (world.poised(pid).has_value()) return true;
  const auto p = static_cast<std::size_t>(pid);
  return world.is_idle(pid) && next_op_[p] < queues_[p].size();
}

std::vector<int> ProgramCursor::runnable_pids(
    const sim::SimWorld& world) const {
  std::vector<int> pids;
  for (int pid = 0; pid < num_processes(); ++pid) {
    if (runnable(world, pid)) pids.push_back(pid);
  }
  return pids;
}

bool ProgramCursor::all_done(const sim::SimWorld& world) const {
  for (int pid = 0; pid < num_processes(); ++pid) {
    if (world.is_crashed(pid)) continue;
    const auto p = static_cast<std::size_t>(pid);
    if (!world.is_idle(pid) || next_op_[p] < queues_[p].size()) return false;
  }
  return true;
}

void ProgramCursor::advance(sim::SimWorld& world, Invoker& invoker, int pid) {
  const auto p = static_cast<std::size_t>(pid);
  if (world.poised(pid).has_value()) {
    world.step(pid);
  } else {
    ABA_ASSERT(runnable(world, pid));
    invoker.invoke(queues_[p][next_op_[p]++]);
  }
  if (world.is_idle(pid)) {
    std::uint64_t& worst = worst_steps_[queues_[p][next_op_[p] - 1].method];
    worst = std::max(worst, world.steps_in_method(pid));
  }
}

std::uint64_t ProgramCursor::worst_steps(spec::Method method) const {
  const auto it = worst_steps_.find(method);
  return it == worst_steps_.end() ? 0 : it->second;
}

int ProgramCursor::ops_remaining(const sim::SimWorld& world, int pid) const {
  if (world.is_crashed(pid)) return 0;
  const auto p = static_cast<std::size_t>(pid);
  const std::size_t queued = queues_[p].size() - next_op_[p];
  return static_cast<int>(queued) + (world.is_idle(pid) ? 0 : 1);
}

std::uint64_t schedule_seed(std::uint64_t fallback) {
  if (const char* env = std::getenv("ABA_SCHEDULE_SEED")) {
    char* end = nullptr;
    const unsigned long long pinned = std::strtoull(env, &end, 0);
    if (end != env && *end == '\0') return pinned;
    // A malformed override must not silently unpin a replay: warn once (the
    // harness is called per test, and one line per run is plenty).
    static bool warned = false;
    if (!warned) {
      warned = true;
      std::fprintf(stderr,
                   "harness: ABA_SCHEDULE_SEED=\"%s\" is not a number; "
                   "ignoring it and using per-test fallback seeds\n",
                   env);
    }
  }
  return fallback;
}

std::string ScheduleLog::to_string() const {
  std::ostringstream out;
  out << "replay: ABA_SCHEDULE_SEED=" << seed << " grants=[";
  for (std::size_t i = 0; i < grants.size(); ++i) {
    if (i > 0) out << ' ';
    out << grants[i];
  }
  out << "]";
  return out.str();
}

void drive_random_schedule(sim::SimWorld& world, Invoker& invoker,
                           int num_processes,
                           const std::vector<WorkloadOp>& workload,
                           std::uint64_t seed, ScheduleLog* log) {
  ProgramCursor program(num_processes, workload);
  ScheduleLog local;
  if (log == nullptr) log = &local;
  log->seed = schedule_seed(seed);
  log->grants.clear();
  util::Xoshiro256 rng(log->seed);

  while (!program.all_done(world)) {
    const std::vector<int> runnable = program.runnable_pids(world);
    if (runnable.empty()) {
      // Replayable forever: the message carries the seed and the full
      // grant script that reached the stuck configuration.
      const std::string detail =
          "no runnable process but work remains — " + log->to_string();
      ABA_CHECK_MSG(false, detail.c_str());
    }
    const int pid = runnable[rng.below(runnable.size())];
    log->grants.push_back(pid);
    program.advance(world, invoker, pid);
  }
}

std::vector<spec::Op> run_random_schedule(int num_processes,
                                          const FixtureFactory& factory,
                                          const std::vector<WorkloadOp>& workload,
                                          std::uint64_t seed, ScheduleLog* log) {
  sim::SimWorld world(num_processes);
  world.set_trace_enabled(false);
  spec::History history;
  auto invoker = factory(world, history);
  drive_random_schedule(world, *invoker, num_processes, workload, seed, log);
  return history.ops();
}

void drive_round_robin(sim::SimWorld& world, Invoker& invoker,
                       ProgramCursor& program, int quantum,
                       const GrantObserver& on_grant) {
  ABA_ASSERT(quantum >= 1);
  // The cursor attributes each response to the op it invoked last.
  ABA_ASSERT_MSG(world.all_idle(), "round-robin starts from a quiescent world");
  auto grant = [&](int pid) {
    program.advance(world, invoker, pid);
    if (on_grant) on_grant(world);
  };
  for (int pid = 0; !program.all_done(world);
       pid = (pid + 1) % program.num_processes()) {
    if (!program.runnable(world, pid)) continue;
    if (!world.poised(pid).has_value()) grant(pid);  // Invoke.
    for (int steps = 0; steps < quantum && world.poised(pid).has_value();
         ++steps) {
      grant(pid);
    }
  }
}

std::vector<spec::Op> run_round_robin(int num_processes,
                                      const FixtureFactory& factory,
                                      const std::vector<WorkloadOp>& workload,
                                      int quantum) {
  sim::SimWorld world(num_processes);
  world.set_trace_enabled(false);
  spec::History history;
  auto invoker = factory(world, history);
  ProgramCursor program(num_processes, workload);
  drive_round_robin(world, *invoker, program, quantum);
  return history.ops();
}

}  // namespace aba::harness
