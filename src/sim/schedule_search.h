// ScheduleExplorer — a guided search engine over SimWorld executions that
// *finds* reclamation worst cases instead of scripting them.
//
// PR 4 shipped hand-written worst-step schedules for the cached-guard
// hazard mode (GuardCacheSchedule.*): park a reader right after its guard
// publish, then drive a retire storm against the pin. This subsystem turns
// that pattern into a search problem, in the spirit of the CHESS/DPOR line
// of systematic concurrency testing. Its ScheduleRunner also drives the
// paper's covering adversary (src/lowerbound/covering_adversary.*), whose
// configurations are grant lists over harness_fixture:
//
//   * a SCHEDULE is a script of step grants — the pid moved at each
//     juncture, where "move" means invoke-the-next-workload-op if idle,
//     else execute exactly one announced shared-memory step. This is the
//     harness drivers' advance rule, and replaying the same grant sequence
//     on a fresh fixture reconstructs the execution bit-for-bit (the
//     `Exec(C, sigma)` replay style the lower-bound proofs use);
//   * the explorer runs a bounded DFS over grant sequences with CHESS-style
//     iterative context bounding (a branch that preempts a still-runnable
//     process consumes preemption budget; following the current process is
//     free) and a priority heuristic that drives the process with the least
//     remaining work first — the designated victim reaches its protected
//     region quickly — and then PARKS any process whose reclaimer reports a
//     vulnerable phase (guard just published, epoch just announced; see
//     ReclaimPhase in reclaim/reclaimer.h), so retire storms run against
//     the pin instead of past it;
//   * configurations are scored by pluggable cost functions over the
//     engine-side ReclaimStats snapshot (retired-but-unreclaimed count,
//     pool pressure, guard-slot occupancy, epoch lag), sampled after every
//     grant; a schedule's value is its peak cost;
//   * found worst cases serialize to a compact text format; the committed
//     corpus under tests/schedules/ is replayed as ordinary gtests with
//     golden bounds, so every future reclaimer change is re-checked against
//     the worst schedules ever found.
//
// PR 7 grows the explorer into a lincheck-style model checker:
//
//   * DPOR-STYLE PRUNING — configurations are keyed on a hash of
//     SimWorld::signature_key() (object values + poised ops) extended with
//     the per-process workload cursors, the preemption/crash budget spent,
//     and the reclaimer fingerprint (reclaim::Fingerprint — the
//     thread-private free/retired/limbo bookkeeping the signature omits).
//     A revisited configuration whose recorded running peak dominates the
//     current one is pruned: any completion from here was already scored at
//     least as high (peak(completion) = max(peak_so_far, future(state))).
//     The DFS hands its live runner to the heuristic-preferred child, so
//     only non-preferred siblings pay a prefix replay — the fix for the
//     explorer re-running fixture setup per DFS node; the
//     `replayed_grants` counter measures what remains. Sleep sets skip
//     grant orders that commute with already-explored siblings (two step
//     grants are independent iff they touch different objects or are both
//     reads; invocations are local, except that under spec verdicts an
//     invocation conflicts with another process's response, whose
//     real-time order the verdict judges; crash grants conservatively
//     conflict with everything). Sleep sets prune by Mazurkiewicz-trace
//     equivalence of *final* states; a peak attained only in the skipped
//     intermediate order can in principle be missed, which is why the
//     corpus-hygiene test regenerates every committed script, golden peak
//     included, with the pruned search, and why `SearchOptions::dpor` can
//     be switched off.
//     Sleep sets engage only when context_bound == kUnboundedContextBound:
//     under a finite preemption budget they are UNSOUND, because the
//     commuted representative of a slept order can need a different number
//     of preemptions than the order it prunes — the explored sibling
//     subtree may have had its representative cut by the bound, leaving the
//     whole trace class unexplored (this exact interaction hid the mutant
//     reclaimer's ABA conviction). Bounded searches therefore prune with
//     the visited-state map only, which is sound for costs: the state key
//     pins the configuration's entire future, spent budget included. (For
//     spec verdicts only the unbounded mode's key also pins the history's
//     real-time order; see ScheduleExplorer::state_key.)
//
//   * SPEC-DRIVEN VERDICTS — each completed schedule's recorded history is
//     replayed through the fixture's sequential linearizability checker
//     (per-shard for tagging fixtures, conservation-only once a crash
//     grant truncates the victim's history), so the searcher hunts
//     correctness violations directly. The paper's own objects enter
//     through harness_fixture with the kAbaRegister / kLlsc specs. The
//     mutation test seeds a broken reclaimer (reclaim/mutant.h) and
//     asserts the search convicts it while every shipped reclaimer
//     survives the identical budget.
//
//   * WORKLOAD SEARCH — the op mix itself becomes a search dimension:
//     workload_candidates() enumerates adversarial shapes (storm, double
//     storm, put surge, symmetric pairs) and search_workloads() runs the
//     explorer over each, returning the argmax. Together with n>2 fixtures
//     (multiple parked readers vs a storm) and composite costs
//     (epoch lag × retire backlog) this is the outer loop every new
//     structure plugs into.
//
// Five translation units implement this header: schedule_search.cpp (the
// engine: ScheduleRunner, ScheduleExplorer with its DPOR state key, and
// search_workloads), schedule_script.cpp (script I/O and cost functions),
// schedule_verdicts.cpp (check_history), schedule_fixtures.cpp (the
// kFixtures registry, the corpus manifest, harness_fixture, put_take, the
// workload shapes and the search depths) and schedule_corpus.cpp
// (regenerate: one manifest row to its committed file's text). Only the
// fixtures TU sees concrete structures and reclaimers.
//
// Everything here is deterministic: the search uses no randomness, fixture
// construction is replayable, and two replays of the same script produce
// bit-identical step traces (the corpus test asserts exactly that).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "harness/harness.h"
#include "reclaim/death.h"
#include "reclaim/reclaimer.h"
#include "sim/sim_world.h"
#include "spec/history.h"

namespace aba::search {

// ------------------------------------------------------------- script

// Crash grants. A grant entry >= 0 moves that process one step; a negative
// entry kills a process at the current configuration (SimWorld::crash — it
// dies instead of executing its announced step, leaving its published
// guards/announcements in place). The encoding keeps grants a plain int
// vector: crash of pid p is stored as -(p + 1) and serialized as `!p`.
constexpr int crash_grant(int pid) { return -(pid + 1); }
constexpr bool is_crash_grant(int grant) { return grant < 0; }
constexpr int crash_victim(int grant) { return -grant - 1; }

// A replayable schedule: the workload (per-process program order) plus the
// grant sequence. `meta` carries free-form key/value annotations — the
// corpus uses `fixture`, `cost`, `expect_peak`, `expect_peak_grant` and
// `expect_grants` (golden bounds checked at replay time); crash schedules
// add `crashes` plus recovery bounds (`expect_expropriations`,
// `expect_final_retired`, `expect_final_free`, `expect_quarantined`).
struct ScheduleScript {
  int num_processes = 0;
  std::vector<harness::WorkloadOp> workload;
  std::vector<int> grants;
  std::map<std::string, std::string> meta;

  // Text form (tools/schedule_dump.py pretty-prints it):
  //   schedule-script v1
  //   processes <n>
  //   meta <key> <value...>
  //   op <pid> <method> <arg>      (push, pop, enq, deq, dread, ll, ...)
  //   grants <pid> <pid> ...
  //   end
  std::string serialize() const;
  static std::optional<ScheduleScript> parse(const std::string& text);
};

// ------------------------------------------------------------ fixtures

// The sequential specification a fixture's histories are checked against
// when the search runs with spec-driven verdicts (SearchOptions::check_spec).
// kShardedStack splits the history by the tagging adapter's landing shards
// and checks each shard as an exact stack. kRing checks against the
// capacity-strict BoundedQueueSpec (the fixture's ring_capacity feeds the
// initial state). kAbaRegister and kLlsc are the paper's objects, checked
// against AbaRegisterSpec::initial(n, 0) and LlscSpec::initial(n, 0, true)
// (initially linked, the convention Figure 5 requires), with n the
// fixture world's process count.
enum class SpecKind : std::uint8_t { kNone, kStack, kQueue, kShardedStack,
                                     kRing, kAbaRegister, kLlsc };

// One fresh instrumented execution target: the world, the history the
// invoker records into, and the invoker driving the implementation (which
// owns it). `shard_tags`, when set, exposes the tagging adapter's per-op
// landing shards so replays of sharded fixtures can re-check the per-shard
// linearizability contract.
struct SearchFixture {
  std::unique_ptr<sim::SimWorld> world;
  std::unique_ptr<spec::History> history;
  std::unique_ptr<harness::Invoker> invoker;
  std::function<const std::vector<int>&()> shard_tags;  // Null if unsharded.
  int num_shards = 1;
  SpecKind spec = SpecKind::kNone;
  // Capacity for SpecKind::kRing fixtures (BoundedQueueSpec initial state);
  // ignored by the other kinds.
  std::uint64_t ring_capacity = 0;
  // Per-schedule grant bound: every search of this fixture cuts a DFS path
  // whose grant sequence reaches this length (counted in
  // SearchResult::truncated_paths). 0 = unbounded, which is correct for the
  // lock-free fixtures — every op solo-terminates, so paths end on their
  // own. Fixtures with blocking wait loops (the bounded rings: a producer
  // parked between claiming a slot and publishing its sequence word makes a
  // consumer spin indefinitely) need this cut — each futile spin iteration
  // extends the process's observation history, so the DPOR state key never
  // recurs and the DFS would otherwise deepen one frame per grant until the
  // stack overflows.
  std::uint64_t max_grants_per_execution = 0;
  // Death oracle wired into the reclaimer (is_dead == world->is_crashed).
  // Owned here so it outlives the structure that holds a pointer to it.
  // Installing it is trace-neutral: with no crashes the reclaimers take no
  // extra shared steps, so the pre-crash corpus replays bit-identically.
  std::unique_ptr<reclaim::DeathOracle> oracle;
};

// Builds a fresh fixture for `n` processes. Must be pure: every call
// constructs an identical initial configuration (this is what makes
// replay-based backtracking and corpus replays deterministic).
using SearchFixtureFactory = std::function<SearchFixture(int n)>;

// Default per-process pool: sized so the storm workloads (tens of cycles)
// never exhaust a process's free list even when a frozen epoch keeps every
// retiree in limbo. The mutation tests shrink it so index recycling is
// reachable within a small search budget.
inline constexpr int kDefaultPoolPerProcess = 48;

// The registered fixtures over the simulator, keyed by the corpus
// `fixture` meta value. The kFixtures table in schedule_fixtures.cpp is the
// registry: one row per fixture gives its name, factory, SpecKind, pool use
// and per-schedule grant cut. ABA_CHECK-fails on an unknown name.
SearchFixtureFactory reclaim_fixture(
    const std::string& name, int pool_per_process = kDefaultPoolPerProcess);
std::vector<std::string> reclaim_fixture_names();

// The put/take verbs a container spec is written over: enq/deq for kQueue
// and kRing, push/pop otherwise. By name, the registered fixture's SpecKind
// decides (ABA_CHECK-fails on an unknown name).
struct PutTake {
  spec::Method put;
  spec::Method take;
};
PutTake put_take(SpecKind kind);
PutTake put_take(const std::string& fixture);

// The random drivers' fixture, served to the explorer: each call builds a
// fresh world and history, lets `factory` construct the implementation in
// them, and declares `spec` as the sequential spec its histories are
// checked against. This is how the paper's objects are model-checked.
SearchFixtureFactory harness_fixture(harness::FixtureFactory factory,
                                     SpecKind spec);

// The canonical adversarial workload for those fixtures: process 0 drives
// `cycles` put/take pairs (the retire storm); every other process performs
// a single take (the parkable reader). Put/take verbs follow the fixture
// (put_take).
std::vector<harness::WorkloadOp> storm_workload(const std::string& fixture,
                                                int num_processes, int cycles);

// The symmetric storm the crash searches run: every process drives `cycles`
// put/take pairs, putting pid * 1000 + c, so whichever process is killed
// the survivors still retire enough to drive the death handshake to a
// confirmed expropriation.
std::vector<harness::WorkloadOp> symmetric_storm_workload(
    const std::string& fixture, int num_processes, int cycles);

// A named workload shape for the outer (workload-dimension) search.
struct WorkloadCandidate {
  std::string name;
  std::vector<harness::WorkloadOp> workload;
};

// The adversarial op-mix candidates for a fixture: "storm" (the canonical
// seed above), "double_storm" (two stormers), "put_surge" (all puts, then
// all takes), and "reader_pairs" (each reader takes twice — two parkable
// vulnerable windows per reader). All shapes are legal at any n >= 2 and
// under pool exhaustion (a failed put is a legal no-op in the specs).
std::vector<WorkloadCandidate> workload_candidates(const std::string& fixture,
                                                   int num_processes,
                                                   int cycles);

// --------------------------------------------------------------- costs

using CostFn = std::function<double(const reclaim::ReclaimStats&)>;

double retired_unreclaimed_cost(const reclaim::ReclaimStats& s);
double pool_pressure_cost(const reclaim::ReclaimStats& s);
double guard_occupancy_cost(const reclaim::ReclaimStats& s);
double epoch_lag_cost(const reclaim::ReclaimStats& s);
// Composite: epoch lag × retired backlog. High only when a pinned epoch AND
// an accumulating limbo coincide — the system-wide unbounded-garbage shape
// the epoch reclaimer's retire-bound weakness predicts.
double epoch_lag_backlog_cost(const reclaim::ReclaimStats& s);

// Lookup by corpus meta name ("retired_unreclaimed", "pool_pressure",
// "guard_occupancy", "epoch_lag", "epoch_lag_backlog"); ABA_CHECK-fails on
// an unknown name.
CostFn cost_by_name(const std::string& name);

// ------------------------------------------------------------- verdicts

// Outcome of checking one recorded history against a fixture's sequential
// spec. `checked` is false when the fixture declares no spec (kNone).
struct SpecVerdict {
  bool checked = false;
  bool ok = true;
  std::string detail;  // Human-readable failure evidence when !ok.
};

// Replays the fixture's completed history through its sequential spec.
// Once any process has crashed (a crash grant, or a self-fence: a
// reclaim::LeaseRevoked escaping a method) the history is truncated and
// the victim's pending op may have taken effect without completing, so
// container histories are checked for multiset conservation only — no
// value taken that was never put. Each pending PUT of a crashed process
// (History::pending_ops) credits its value once, since its effect may have
// landed (e.g. a push killed between the linking CAS and the bookkeeping
// clear left its node reachable), so a survivor taking that value once is
// legal — taking any value more often than put+credit still convicts.
// kShardedStack splits by the fixture's shard_tags and checks each shard
// as an exact stack; the others run the Wing&Gong linearizability checker
// whole.
SpecVerdict check_history(const SearchFixture& fixture);

// -------------------------------------------------------------- runner

// Engine-side grant-by-grant control over one fixture: the primitive the
// explorer, the replayer, the scripted-seed tests and the covering
// adversary (lowerbound/covering_adversary.h) all share. Sampling
// happens after every grant; peak() is the running maximum of the cost.
class ScheduleRunner {
 public:
  ScheduleRunner(SearchFixture fixture,
                 std::vector<harness::WorkloadOp> workload, CostFn cost);

  // The advance rule and the process state are harness::ProgramCursor's.
  bool runnable(int pid) const {
    return program_.runnable(*fixture_.world, pid);
  }
  bool all_done() const { return program_.all_done(*fixture_.world); }
  std::vector<int> runnable_pids() const {
    return program_.runnable_pids(*fixture_.world);
  }

  // Moves `pid` (which must be runnable): invoke its next op if idle, else
  // grant one step. Records the grant and samples the cost. A negative
  // argument is a crash grant (see crash_grant above): the victim is killed
  // at the current configuration and its queued ops are abandoned.
  void grant(int pid);

  // Appends `op` to its process's program (harness::ProgramCursor::append).
  void append_op(const harness::WorkloadOp& op) { program_.append(op); }

  // Grants `pid` while it stays runnable, up to `max_grants` times.
  void grant_while_runnable(int pid, std::uint64_t max_grants);

  double peak() const { return peak_; }
  std::uint64_t peak_grant() const { return peak_grant_; }
  const reclaim::ReclaimStats& peak_stats() const { return peak_stats_; }
  const std::vector<int>& grants() const { return grants_; }
  int num_processes() const { return program_.num_processes(); }
  int ops_remaining(int pid) const {
    return program_.ops_remaining(*fixture_.world, pid);
  }
  // Per-process workload cursors — folded into the DPOR state key (two
  // configurations with equal signatures but different remaining programs
  // have different futures).
  const std::vector<std::size_t>& op_cursors() const {
    return program_.op_cursors();
  }

  const SearchFixture& fixture() const { return fixture_; }
  harness::Invoker& invoker() { return *fixture_.invoker; }

  ScheduleScript script() const;

 private:
  void sample();

  SearchFixture fixture_;
  harness::ProgramCursor program_;
  CostFn cost_;
  std::vector<int> grants_;
  double peak_ = 0;
  std::uint64_t peak_grant_ = 0;
  reclaim::ReclaimStats peak_stats_;
};

// ------------------------------------------------------------- explorer

// context_bound value meaning "no preemption budget": every interleaving is
// feasible. This is also the only setting at which sleep-set pruning
// engages — under a finite bound the commuted representative of a slept
// choice can need a different number of preemptions than the order it
// prunes, so sleep sets could cut schedules no explored sibling covers
// (see the file comment).
inline constexpr int kUnboundedContextBound = std::numeric_limits<int>::max();

struct SearchOptions {
  int top_k = 3;
  // CHESS-style preemption budget: grants that switch away from a
  // still-runnable process, beyond this many per schedule, are pruned.
  // Set to kUnboundedContextBound for exhaustive searches.
  int context_bound = 3;
  // Completed schedules to explore before stopping.
  std::uint64_t max_executions = 192;
  // Global step budget across the whole search, replays included.
  std::uint64_t max_grants = 1u << 20;
  // Crash events the search may inject per schedule. At every juncture, for
  // each process poised at a vulnerable or mid-retire ReclaimPhase, the
  // explorer also considers killing it there (ranked before step grants, so
  // the preferred DFS path explores the crash). 0 = crash-free search; the
  // default keeps all existing searches byte-identical.
  int max_crashes = 0;
  // DPOR-style pruning (see the header comment): visited-state dominance
  // and — only at context_bound == kUnboundedContextBound — sleep sets
  // over independent grants. Off = PR 5's plain bounded DFS; the
  // node-budget regression test measures the difference.
  bool dpor = true;
  // Run each completed schedule's history through the fixture's sequential
  // spec (check_history); failures are recorded in SearchResult::violations.
  bool check_spec = false;
  // Stop the search at the first spec violation (the conviction is the
  // result; the remaining budget would only find more of the same).
  bool stop_on_violation = true;
  // Forced grant prefix: the search executes exactly these grants first and
  // explores only the suffix. A staged search for crash channels that blind
  // DFS cannot reach: the heuristic path order (fewest-ops-first, crash
  // choices up front) explores a many-op stormer's early window last, so a
  // channel that needs "two pushes done and a reader parked mid-pop" before
  // anything interesting happens sits at the far end of the tree. The
  // prelude stages that state; the searcher still has to discover the kill
  // point and every suffix interleaving itself. Preemptions and crashes
  // inside the prelude are charged against the same budgets as searched
  // grants, so a conviction's recorded context bound stays honest.
  std::vector<int> prelude = {};
};

// Search depths, defined beside the fixture table: the plain worst-case
// search of the crash-free corpus rows, the crash search of the
// *.crash.sched rows with a golden peak, and the mutation harness's
// spec-driven budget, identical for a mutant and every shipped twin
// (context bound 3 covers the park → storm → resume → observe shape of a
// harmful ABA). A corpus row's own budget columns override the first two
// (corpus_options below).
SearchOptions corpus_search_options();
SearchOptions crash_search_options();
SearchOptions mutation_search_options();

struct FoundSchedule {
  ScheduleScript script;
  double peak_cost = 0;
  std::uint64_t peak_grant = 0;
};

// A schedule whose completed history failed the fixture's sequential spec —
// the model checker's conviction, replayable like any other script.
struct FoundViolation {
  ScheduleScript script;
  std::string detail;
};

struct SearchResult {
  std::vector<FoundSchedule> best;  // Sorted by peak_cost, descending.
  std::vector<FoundViolation> violations;  // check_spec failures (capped).
  std::uint64_t executions = 0;
  std::uint64_t grants = 0;
  // DPOR accounting. `nodes` counts DFS junctures entered; the pruned_*
  // counters are subtrees cut by the visited-state map and choices skipped
  // by sleep sets. replayed_grants is the share of `grants` spent
  // rebuilding sibling prefixes — the cost handing the live runner to the
  // preferred child avoids for the leftmost path, and state pruning
  // shrinks for the rest.
  std::uint64_t nodes = 0;
  std::uint64_t pruned_states = 0;
  std::uint64_t pruned_sleep = 0;
  std::uint64_t replayed_grants = 0;
  // Paths cut by SearchFixture::max_grants_per_execution before completing.
  std::uint64_t truncated_paths = 0;
  bool budget_exhausted = false;

  const FoundSchedule* top() const { return best.empty() ? nullptr : &best[0]; }
  bool violation_found() const { return !violations.empty(); }
};

// Outer search over the workload dimension: runs the explorer once per
// candidate and returns the argmax by top peak cost, with every
// candidate's peak for reporting. Each winning script is stamped with
// meta["workload"] = candidate name.
struct WorkloadSearchResult {
  std::string best_name;
  SearchResult best;
  std::vector<std::pair<std::string, double>> peaks;  // name -> top peak.
};

WorkloadSearchResult search_workloads(
    const SearchFixtureFactory& factory, int num_processes,
    const std::vector<WorkloadCandidate>& candidates, const CostFn& cost,
    const SearchOptions& options);

struct ReplayResult {
  double peak_cost = 0;
  std::uint64_t peak_grant = 0;
  reclaim::ReclaimStats peak_stats;
  // Stats after the full drain — what the crash corpus checks its recovery
  // bounds (expropriations, final retired/free, quarantined) against.
  reclaim::ReclaimStats final_stats;
  std::vector<spec::Op> history;  // Completed ops only (crashes leave one pending).
  std::vector<sim::StepRecord> trace;  // Bit-identical across replays.
  std::vector<int> shard_tags;         // Empty for unsharded fixtures.
  int num_shards = 1;
  // The history checked against the fixture's spec (check_history);
  // verdict.checked is false for fixtures that declare SpecKind::kNone.
  SpecVerdict verdict;
};

class ScheduleExplorer {
 public:
  ScheduleExplorer(SearchFixtureFactory factory, int num_processes,
                   std::vector<harness::WorkloadOp> workload, CostFn cost,
                   SearchOptions options = {});

  SearchResult run();

  // Deterministically replays `script` on a fresh fixture with tracing on.
  // Grants beyond the script (an incomplete schedule) are drained
  // lowest-runnable-pid-first so the history is always complete.
  static ReplayResult replay(const SearchFixtureFactory& factory,
                             const ScheduleScript& script, const CostFn& cost);

 private:
  struct Live;
  // A grant another branch already explored from an equivalent juncture,
  // carried down so commuting re-orderings of it are skipped. Step grants
  // remember the poised op they stood for (the pid alone is not a stable
  // transition identity — its poised op changes as it advances); invoke
  // grants are identified by the pid's cursor position via the state key.
  struct SleptChoice {
    int grant = -1;
    bool invoke = false;
    sim::PendingOp op;
  };
  using SleepSet = std::vector<SleptChoice>;

  std::unique_ptr<Live> make_live() const;
  std::unique_ptr<Live> replay_prefix(const std::vector<int>& grants) const;
  void dfs(std::unique_ptr<Live> live, SleepSet sleep);
  void record(Live& live);
  std::vector<int> ordered_choices(Live& live) const;
  std::uint64_t state_key(const Live& live) const;
  bool stopped() const;

  SearchFixtureFactory factory_;
  int num_processes_;
  std::vector<harness::WorkloadOp> workload_;
  CostFn cost_;
  SearchOptions options_;
  SearchResult result_;
  // DPOR map, per run(): best running peak recorded at each visited
  // configuration hash.
  std::unordered_map<std::uint64_t, double> visited_;
};

// --------------------------------------------------------------- corpus

// How a committed tests/schedules/*.sched file is found.
enum class CorpusMode : std::uint8_t {
  kPlain,           // The workload's worst retired_unreclaimed schedule.
  kCrash,           // The first top-K crash schedule whose replay recovers
                    // (a confirmed expropriation in the final stats).
  kWorkloadSearch,  // search_workloads over every workload candidate.
  kConviction,      // A spec violation against a deliberately broken
                    // reclaimer, under pool_pressure_cost.
};

// One committed corpus file and the whole search that regenerates it. The
// manifest (corpus_manifest(), beside kFixtures) has exactly one row per
// file under tests/schedules/; CorpusHygiene.* checks both directions.
struct CorpusRow {
  const char* file;
  const char* fixture;
  CorpusMode mode;
  int procs;
  int pool;
  int cycles;
  // A workload_candidates name, or "symmetric_storm"
  // (symmetric_storm_workload); empty for kWorkloadSearch, which tries
  // every candidate.
  const char* workload;
  int context_bound;
  std::uint64_t max_executions;
  int max_crashes;
  // Forced grant prefix (SearchOptions::prelude) as (pid, grants) runs.
  std::vector<std::pair<int, int>> prelude;
};

const std::vector<CorpusRow>& corpus_manifest();

// The row's search: its mode's options with the row's budget columns and
// prelude, and the workload it names (not for kWorkloadSearch rows).
SearchOptions corpus_options(const CorpusRow& row);
std::vector<harness::WorkloadOp> corpus_workload(const CorpusRow& row);

// Stamps the golden bounds a corpus replay is checked against: fixture,
// cost, expect_peak, expect_peak_grant and expect_grants. ABA_CHECK-fails
// on a peak that is not an integer a long long holds (a wrapped unsigned
// counter reads as about 2^64).
void stamp_golden(ScheduleScript& script, const std::string& fixture,
                  const ReplayResult& replay);

// Runs the row's search and returns the full text of its file: the `#`
// header, then the found script with its goldens stamped, each checked by
// two fresh replays. Throws std::runtime_error when the search finds no
// such schedule or a replay disagrees; ABA_CHECK-fails unless exactly one
// manifest row names row.file. `schedule_search_demo --regenerate=DIR`
// writes this text; CorpusHygiene.EveryCommittedScriptRegeneratesByteForByte
// compares it with the committed bytes.
std::string regenerate(const CorpusRow& row);

}  // namespace aba::search
