// Test/verification harness: drives implementations in a SimWorld through
// schedules while recording linearizability histories.
//
// The harness separates two roles:
//   - a FixtureFactory builds a fresh implementation inside a given SimWorld
//     and returns an Invoker that maps abstract WorkloadOps (pid, method,
//     arg) onto method invocations that record into a History;
//   - schedule drivers (random, round-robin, and the search engine's
//     scripted runner) decide which process moves at each point. They share
//     one advance rule, ProgramCursor::advance: invoke the process's next
//     workload op if idle, otherwise grant one step. The cursor also keeps
//     each method's largest step count at response, which is where the
//     paper's step-complexity tables read their numbers.
//
// Exhaustive checking is the search engine's job: search::harness_fixture
// (sim/schedule_search.h) wraps a FixtureFactory for the DPOR explorer.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "reclaim/reclaimer.h"
#include "sim/sim_world.h"
#include "spec/history.h"

namespace aba::harness {

struct WorkloadOp {
  int pid = 0;
  spec::Method method = spec::Method::kRead;
  std::uint64_t arg = 0;
};

// Maps WorkloadOps onto method invocations of a concrete implementation.
class Invoker {
 public:
  virtual ~Invoker() = default;
  // Starts the op on its process (which must be idle). The closure records
  // invocation and response into the harness history.
  virtual void invoke(const WorkloadOp& op) = 0;

  // Reclamation observability, forwarded from the implementation under
  // test (the structure adapters in adapters.h override these whenever the
  // impl exposes a reclaimer). The schedule-search engine samples stats to
  // score a configuration and reads phases to park a process at the worst
  // step; the defaults make every other invoker a benign no-op target.
  virtual reclaim::ReclaimStats reclaim_stats() const { return {}; }
  virtual reclaim::ReclaimPhase reclaim_phase(int /*pid*/) const {
    return reclaim::ReclaimPhase::kIdle;
  }
  // Hash of the reclaimer's thread-private bookkeeping (reclaim::Fingerprint)
  // — the state SimWorld::signature_key() omits. The model checker folds it
  // into its DPOR state key; 0 for implementations with nothing hidden.
  virtual std::uint64_t reclaim_fingerprint() const { return 0; }
};

// Builds the implementation under test in `world` and returns its invoker.
// Called once per execution (the search engine re-creates everything per
// replayed path).
using FixtureFactory = std::function<std::unique_ptr<Invoker>(
    sim::SimWorld& world, spec::History& history)>;

// The per-process programs of a workload (each process's ops in program
// order) and how far each process has got through its own. Every driver
// moves processes through advance(), the one implementation of the advance
// rule.
class ProgramCursor {
 public:
  ProgramCursor(int num_processes, const std::vector<WorkloadOp>& workload);

  // Poised at a step, or idle with an op left to invoke.
  bool runnable(const sim::SimWorld& world, int pid) const;
  std::vector<int> runnable_pids(const sim::SimWorld& world) const;
  // Every live process is idle with its program consumed. A crashed process
  // is done by definition: it never runs again and its remaining queued ops
  // are abandoned with it.
  bool all_done(const sim::SimWorld& world) const;
  // Appends `op` to the end of its process's program: drivers that decide
  // op counts as they run (Lemma 1's covering adversary) grow it this way.
  void append(const WorkloadOp& op);
  // Moves `pid`, which must be runnable: one step if poised, else invoke
  // its next op.
  void advance(sim::SimWorld& world, Invoker& invoker, int pid);
  // The largest steps_in_method an op of `method` had at its response; 0
  // until one responds.
  std::uint64_t worst_steps(spec::Method method) const;
  // Queued ops plus the one in flight; 0 once the process has crashed.
  int ops_remaining(const sim::SimWorld& world, int pid) const;

  int num_processes() const { return static_cast<int>(queues_.size()); }
  const std::vector<WorkloadOp>& workload() const { return workload_; }
  // Per-process queue cursors (ops invoked so far).
  const std::vector<std::size_t>& op_cursors() const { return next_op_; }

 private:
  std::vector<WorkloadOp> workload_;
  std::vector<std::vector<WorkloadOp>> queues_;  // Per-pid, FIFO.
  std::vector<std::size_t> next_op_;             // Queue cursors.
  std::map<spec::Method, std::uint64_t> worst_steps_;
};

// ---------------------------------------------------------------------------
// Random-schedule property runner. Per-process workload queues are consumed
// in order; at every juncture a uniformly random runnable process (seeded)
// either starts its next op or executes one step. Returns the history.
// ---------------------------------------------------------------------------

// The effective seed for a random schedule: `fallback` unless the
// ABA_SCHEDULE_SEED environment variable is set, which pins EVERY random
// schedule in the process to that seed — the repro knob for a failure
// report (run the one failing test under --gtest_filter with the seed the
// failure message printed).
std::uint64_t schedule_seed(std::uint64_t fallback);

// Replay record of one random-schedule run: the effective seed and the
// step-grant script (the pid moved at each juncture — invoke-if-idle, else
// one step, exactly the advance rule the drivers use). Failure messages
// embed to_string() so any reported failure is replayable verbatim.
struct ScheduleLog {
  std::uint64_t seed = 0;
  std::vector<int> grants;

  std::string to_string() const;
};

std::vector<spec::Op> run_random_schedule(int num_processes,
                                          const FixtureFactory& factory,
                                          const std::vector<WorkloadOp>& workload,
                                          std::uint64_t seed,
                                          ScheduleLog* log = nullptr);

// The factory-free variant: drives the same uniformly random schedule over a
// caller-owned world and invoker. Use this when the invoker accumulates
// state the test needs to read after the run — e.g. the per-op shard tags
// the sharded adapters record — which the FixtureFactory interface would
// discard with the invoker at return.
void drive_random_schedule(sim::SimWorld& world, Invoker& invoker,
                           int num_processes,
                           const std::vector<WorkloadOp>& workload,
                           std::uint64_t seed, ScheduleLog* log = nullptr);

// Round-robin over processes in pid order, the paper's contention
// adversary. On its turn a process invokes its next op if it is idle, then
// takes up to `quantum` steps; the turn ends early when the op responds.
// Quantum 1 interleaves the shared steps of every in-flight op one by one
// (the lock-step schedule behind the E1-E4/E6 step counts); a large quantum
// runs each op solo.
std::vector<spec::Op> run_round_robin(int num_processes,
                                      const FixtureFactory& factory,
                                      const std::vector<WorkloadOp>& workload,
                                      int quantum);

// Called after every grant (one invoke or one step) with the configuration
// it reached; the tradeoff auditor takes its poise census here.
using GrantObserver = std::function<void(const sim::SimWorld&)>;

// The same schedule over a caller-owned world, invoker and program: the
// caller reads program.worst_steps() and the world after the run. Every
// process must be idle at the start.
void drive_round_robin(sim::SimWorld& world, Invoker& invoker,
                       ProgramCursor& program, int quantum,
                       const GrantObserver& on_grant = {});

}  // namespace aba::harness
