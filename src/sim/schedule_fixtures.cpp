// The fixtures of the schedule-search engine (sim/schedule_search.h): the
// kFixtures registry of every reclaimer fixture the corpus names, the
// harness fixture the paper's objects run through, the put/take verbs each
// SpecKind speaks, the workload shapes, and the corpus search depths.
#include "sim/schedule_search.h"

#include <string>
#include <utility>
#include <vector>

#include "harness/adapters.h"
#include "reclaim/epoch.h"
#include "reclaim/hazard_pointer.h"
#include "reclaim/leaky.h"
#include "reclaim/mutant.h"
#include "reclaim/tagged.h"
#include "sim/sim_lease.h"
#include "sim/sim_platform.h"
#include "structures/ms_queue.h"
#include "structures/ring_buffer.h"
#include "structures/sharded.h"
#include "structures/treiber_stack.h"
#include "util/assert.h"

namespace aba::search {

namespace {

using SimP = sim::SimPlatform;

// Death oracle over the simulator: a process is dead exactly when the
// engine crashed it. Installed unconditionally in every flat fixture —
// trace-neutral while nobody dies (see SearchFixture::oracle).
struct SimDeathOracle final : reclaim::DeathOracle {
  const sim::SimWorld* world;
  explicit SimDeathOracle(const sim::SimWorld* w) : world(w) {}
  bool is_dead(int pid) const override { return world->is_crashed(pid); }
};

SearchFixture fixture_shell(int n) {
  SearchFixture fx;
  fx.world = std::make_unique<sim::SimWorld>(n);
  // The search replays thousands of executions; tracing is re-enabled by
  // ScheduleExplorer::replay, which is when the trace matters.
  fx.world->set_trace_enabled(false);
  fx.history = std::make_unique<spec::History>();
  fx.oracle = std::make_unique<SimDeathOracle>(fx.world.get());
  return fx;
}

// Not every reclaimer has crash machinery (the tag-family ones are
// oracle-free by design); wire the oracle only where it exists.
template <class R>
void maybe_set_death_oracle(R& reclaimer, const reclaim::DeathOracle* oracle) {
  if constexpr (requires { reclaimer.set_death_oracle(oracle); }) {
    reclaimer.set_death_oracle(oracle);
  }
}

template <class R, class Head = structures::RawCasHead<SimP>>
SearchFixture make_stack_fixture(int n, int pool) {
  using Stack = structures::TreiberStack<SimP, Head, R>;
  SearchFixture fx = fixture_shell(n);
  auto stack = std::make_unique<Stack>(
      *fx.world, n, std::make_unique<Head>(*fx.world, n),
      Stack::partition(n, pool));
  maybe_set_death_oracle(stack->reclaimer(), fx.oracle.get());
  fx.invoker = std::make_unique<harness::ContainerInvoker<Stack>>(
      *fx.world, *fx.history, std::move(stack));
  return fx;
}

template <class R>
SearchFixture make_queue_fixture(int n, int pool) {
  using Queue = structures::MsQueue<SimP, R>;
  SearchFixture fx = fixture_shell(n);
  auto queue = std::make_unique<Queue>(*fx.world, n, pool);
  maybe_set_death_oracle(queue->reclaimer(), fx.oracle.get());
  fx.invoker = std::make_unique<harness::ContainerInvoker<Queue>>(
      *fx.world, *fx.history, std::move(queue));
  return fx;
}

// The MPMC ring under the model checker: no reclaimer (the per-slot
// sequence words ARE the ABA answer — there are no nodes to reclaim, so
// every cost function reads zero and the fixture is driven purely for its
// spec verdict). Capacity 2 (the minimum): the full and empty boundaries —
// where the strict-refusal contract bites — are a single op away from any
// state, so even small search budgets cross them constantly.
SearchFixture make_ring_fixture(int n, int /*pool*/) {
  using Ring = structures::MpmcRing<SimP>;
  constexpr std::size_t kCapacity = 2;
  SearchFixture fx = fixture_shell(n);
  fx.invoker = std::make_unique<harness::ContainerInvoker<Ring>>(
      *fx.world, *fx.history,
      std::make_unique<Ring>(*fx.world, n, kCapacity));
  fx.ring_capacity = kCapacity;
  return fx;
}

SearchFixture make_sharded_stack_fixture(int n, int pool) {
  using Stack =
      structures::ShardedTreiberStack<SimP, structures::RawCasHead<SimP>,
                                      reclaim::CachedHazardPointerReclaimer<SimP>,
                                      2>;
  SearchFixture fx = fixture_shell(n);
  auto invoker = std::make_unique<harness::ShardTaggedInvoker<Stack>>(
      *fx.world, *fx.history,
      std::make_unique<Stack>(*fx.world, n, Stack::make_heads(*fx.world, n),
                              pool / 2));
  auto* tagging = invoker.get();
  fx.shard_tags = [tagging]() -> const std::vector<int>& {
    return tagging->shard_of();
  };
  fx.num_shards = 2;
  fx.invoker = std::move(invoker);
  return fx;
}

// One registered fixture: its corpus `fixture` meta name, the factory, the
// spec its histories are checked against (which also picks the workloads'
// put/take verbs), and whether the per-process pool applies.
struct FixtureEntry {
  const char* name;
  SearchFixture (*make)(int n, int pool);
  SpecKind spec;
  bool uses_pool;
};

using Hazard = reclaim::HazardPointerReclaimer<SimP>;
using Cached = reclaim::CachedHazardPointerReclaimer<SimP>;
using Epoch = reclaim::EpochBasedReclaimer<SimP>;
using Deferred = reclaim::DeferredEpochReclaimer<SimP>;
using TaggedHead = structures::TaggedCasHead<SimP>;
using sim::SimLeasedHazardReclaimerT;
using sim::SimLeasedEpochReclaimerT;
using reclaim::LeaseMutation;

constexpr FixtureEntry kFixtures[] = {
    {"stack_hazard", make_stack_fixture<Hazard>, SpecKind::kStack, true},
    {"stack_hazard_cached", make_stack_fixture<Cached>, SpecKind::kStack,
     true},
    {"stack_epoch", make_stack_fixture<Epoch>, SpecKind::kStack, true},
    // Deferred-announce variant: the announcement is cached across ops and
    // only refreshed on an epoch miss, so most begin_ops take one shared
    // read and zero stores. The searcher probes the announce-validate
    // window that the caching widens.
    {"stack_epoch_deferred", make_stack_fixture<Deferred>, SpecKind::kStack,
     true},
    // The shipped immediate-reuse configuration: the TaggedCasHead's
    // per-swing version bump is what detects recycled indices.
    {"stack_tagged",
     make_stack_fixture<reclaim::TaggedReclaimer<SimP>, TaggedHead>,
     SpecKind::kStack, true},
    {"stack_leaky", make_stack_fixture<reclaim::LeakyReclaimer<SimP>>,
     SpecKind::kStack, true},
    // The seeded bug: immediate reuse on a raw head — no version bump
    // anywhere. The spec-driven search must convict this one.
    {"stack_mutant_tagged",
     make_stack_fixture<reclaim::MutantTaggedReclaimer<SimP>>,
     SpecKind::kStack, true},
    {"queue_hazard", make_queue_fixture<Hazard>, SpecKind::kQueue, true},
    {"queue_hazard_cached", make_queue_fixture<Cached>, SpecKind::kQueue,
     true},
    {"queue_epoch", make_queue_fixture<Epoch>, SpecKind::kQueue, true},
    {"queue_epoch_deferred", make_queue_fixture<Deferred>, SpecKind::kQueue,
     true},
    {"sharded_stack_hazard_cached", make_sharded_stack_fixture,
     SpecKind::kShardedStack, true},
    {"ring_mpmc", make_ring_fixture, SpecKind::kRing, false},
    // ---- The crash-robust shm tier, sim-hosted (sim/sim_lease.h): the
    // hazard/epoch cores over LeasedBook with the real PidLeaseTable
    // protocol on a simulated shared-segment arena. Crash grants (`!p`)
    // drive the actual suspect -> confirm -> seize/veto/quarantine machinery
    // under the search.
    {"stack_leased_hazard", make_stack_fixture<sim::SimLeasedHazardReclaimer>,
     SpecKind::kStack, true},
    {"stack_leased_hazard_cached",
     make_stack_fixture<sim::SimLeasedCachedHazardReclaimer>,
     SpecKind::kStack, true},
    {"stack_leased_epoch", make_stack_fixture<sim::SimLeasedEpochReclaimer>,
     SpecKind::kStack, true},
    // Every retire routed through the retire_batch pending window (chunk of
    // one): the searched mid-batch crash juncture of the staged hand-off.
    {"stack_leased_epoch_batched",
     make_stack_fixture<sim::SimLeasedEpochBatchedReclaimer>,
     SpecKind::kStack, true},
    {"queue_leased_hazard", make_queue_fixture<sim::SimLeasedHazardReclaimer>,
     SpecKind::kQueue, true},
    {"queue_leased_hazard_cached",
     make_queue_fixture<sim::SimLeasedCachedHazardReclaimer>,
     SpecKind::kQueue, true},
    {"queue_leased_epoch", make_queue_fixture<sim::SimLeasedEpochReclaimer>,
     SpecKind::kQueue, true},
    // ---- The lease-mutant zoo (reclaim/mutant.h, LeaseMutation): each
    // drops exactly one safety decision of the death handshake. The bounded
    // search must convict all three; the all-kNone fixtures above must
    // survive the identical budget.
    {"stack_leased_mutant_stale_confirm",
     make_stack_fixture<SimLeasedHazardReclaimerT<
         reclaim::EagerGuards, LeaseMutation::kStaleConfirm>>,
     SpecKind::kStack, true},
    {"stack_leased_mutant_no_quarantine",
     make_stack_fixture<SimLeasedHazardReclaimerT<
         reclaim::EagerGuards, LeaseMutation::kNone,
         LeaseMutation::kNoQuarantine>>,
     SpecKind::kStack, true},
    {"stack_leased_mutant_no_restamp",
     make_stack_fixture<SimLeasedEpochReclaimerT<LeaseMutation::kNone,
                                                 LeaseMutation::kNoRestamp>>,
     SpecKind::kStack, true},
};

const FixtureEntry& fixture_entry(const std::string& name) {
  for (const FixtureEntry& entry : kFixtures) {
    if (name == entry.name) return entry;
  }
  std::string known;
  for (const FixtureEntry& entry : kFixtures) {
    known += std::string(known.empty() ? "" : ", ") + entry.name;
  }
  const std::string msg =
      "unknown schedule-search fixture name '" + name + "'; registered: " +
      known;
  ABA_CHECK_MSG(false, msg.c_str());
  return kFixtures[0];
}

// Process 0's retire storm of `cycles` put/take pairs (values base + i)
// against every other process taking `reader_takes` times.
std::vector<harness::WorkloadOp> storm(PutTake verbs, int num_processes,
                                       int cycles, int base, int reader_takes) {
  const auto [put, take] = verbs;
  std::vector<harness::WorkloadOp> workload;
  // A priming put so a reader that runs first has a node to protect.
  workload.push_back({0, put, 1});
  for (int i = 0; i < cycles; ++i) {
    workload.push_back({0, put, static_cast<std::uint64_t>(base + i)});
    workload.push_back({0, take, 0});
  }
  workload.push_back({0, take, 0});  // Drain the prime.
  for (int pid = 1; pid < num_processes; ++pid) {
    for (int t = 0; t < reader_takes; ++t) {
      workload.push_back({pid, take, 0});  // The parkable readers.
    }
  }
  return workload;
}

}  // namespace

PutTake put_take(SpecKind kind) {
  if (kind == SpecKind::kQueue || kind == SpecKind::kRing) {
    return {spec::Method::kEnq, spec::Method::kDeq};
  }
  return {spec::Method::kPush, spec::Method::kPop};
}

PutTake put_take(const std::string& fixture) {
  return put_take(fixture_entry(fixture).spec);
}

SearchOptions corpus_search_options() {
  return {.top_k = 3, .context_bound = 3, .max_executions = 128};
}

SearchOptions crash_search_options() {
  return {.top_k = 8, .context_bound = 3, .max_executions = 48,
          .max_crashes = 1};
}

SearchOptions conviction_search_options(int context_bound,
                                        std::uint64_t max_executions,
                                        int max_crashes,
                                        std::vector<int> prelude) {
  return {.top_k = 1,
          .context_bound = context_bound,
          .max_executions = max_executions,
          .max_grants = 1ull << 30,  // Let max_executions be the budget.
          .max_crashes = max_crashes,
          .check_spec = true,
          .stop_on_violation = true,
          .prelude = std::move(prelude)};
}

SearchFixtureFactory reclaim_fixture(const std::string& name,
                                     int pool_per_process) {
  const FixtureEntry& entry = fixture_entry(name);
  ABA_CHECK(!entry.uses_pool || pool_per_process >= 1);
  return [&entry, pool_per_process](int n) {
    SearchFixture fx = entry.make(n, pool_per_process);
    fx.spec = entry.spec;
    return fx;
  };
}

std::vector<std::string> reclaim_fixture_names() {
  std::vector<std::string> names;
  for (const FixtureEntry& entry : kFixtures) names.emplace_back(entry.name);
  return names;
}

SearchFixtureFactory harness_fixture(harness::FixtureFactory factory,
                                     SpecKind spec) {
  return [factory = std::move(factory), spec](int n) {
    SearchFixture fx = fixture_shell(n);
    fx.invoker = factory(*fx.world, *fx.history);
    fx.spec = spec;
    return fx;
  };
}

std::vector<harness::WorkloadOp> storm_workload(const std::string& fixture,
                                                int num_processes, int cycles) {
  ABA_CHECK(num_processes >= 2 && cycles >= 1);
  return storm(put_take(fixture), num_processes, cycles, 100, 1);
}

std::vector<harness::WorkloadOp> symmetric_storm_workload(
    const std::string& fixture, int num_processes, int cycles) {
  const auto [put, take] = put_take(fixture);
  std::vector<harness::WorkloadOp> workload;
  for (int pid = 0; pid < num_processes; ++pid) {
    for (int c = 0; c < cycles; ++c) {
      workload.push_back(
          {pid, put, static_cast<std::uint64_t>(pid * 1000 + c)});
      workload.push_back({pid, take, 0});
    }
  }
  return workload;
}

std::vector<WorkloadCandidate> workload_candidates(const std::string& fixture,
                                                   int num_processes,
                                                   int cycles) {
  ABA_CHECK(num_processes >= 2 && cycles >= 1);
  const auto [put, take] = put_take(fixture);
  std::vector<WorkloadCandidate> candidates;

  candidates.push_back(
      {"storm", storm_workload(fixture, num_processes, cycles)});

  {
    // Two stormers churning the pool; at n == 2 the second collapses onto
    // pid 0 (a double-length storm), which is still a legal shape.
    const int second = num_processes >= 3 ? 1 : 0;
    std::vector<harness::WorkloadOp> w;
    w.push_back({0, put, 1});
    for (int i = 0; i < cycles; ++i) {
      w.push_back({0, put, static_cast<std::uint64_t>(100 + i)});
      w.push_back({second, put, static_cast<std::uint64_t>(200 + i)});
      w.push_back({0, take, 0});
      w.push_back({second, take, 0});
    }
    w.push_back({0, take, 0});  // Drain the prime.
    for (int pid = second + 1; pid < num_processes; ++pid) {
      w.push_back({pid, take, 0});
    }
    candidates.push_back({"double_storm", std::move(w)});
  }

  {
    // All puts then all takes: the maximal-occupancy shape. Failed puts
    // under pool exhaustion are legal no-ops in the specs (ret == 0).
    std::vector<harness::WorkloadOp> w;
    for (int i = 0; i <= cycles; ++i) {
      w.push_back({0, put, static_cast<std::uint64_t>(300 + i)});
    }
    for (int i = 0; i <= cycles; ++i) w.push_back({0, take, 0});
    for (int pid = 1; pid < num_processes; ++pid) {
      w.push_back({pid, take, 0});
    }
    candidates.push_back({"put_surge", std::move(w)});
  }

  // The storm against readers that each take twice: two parkable
  // vulnerable windows per reader instead of one.
  candidates.push_back(
      {"reader_pairs", storm({put, take}, num_processes, cycles, 400, 2)});

  if (num_processes == 2) {
    // Two TRUE stormers — the n=2 shape double_storm cannot express (it
    // collapses its second stormer onto pid 0). This is the only two-process
    // workload where a crash can kill a PUSHER while the survivor still
    // allocates: only allocation scans drive the suspect/confirm death
    // handshake, so a reader-only peer could never expropriate the victim —
    // the shape the leased-reclaimer crash searches need. At n >= 3
    // double_storm already has a real second stormer.
    std::vector<harness::WorkloadOp> w;
    w.push_back({0, put, 1});
    for (int i = 0; i < cycles; ++i) {
      w.push_back({0, put, static_cast<std::uint64_t>(500 + i)});
      w.push_back({1, put, static_cast<std::uint64_t>(600 + i)});
      w.push_back({0, take, 0});
      w.push_back({1, take, 0});
    }
    // Two drain takes, not one: a victim crashed mid-push leaves its node
    // linked at the stack bottom, so observing a reclamation bug there (a
    // doubly-circulating node popping the same value twice) needs the
    // survivor to pop one past its own balanced cycles. In clean executions
    // the extra take legally observes empty.
    w.push_back({0, take, 0});
    w.push_back({0, take, 0});
    candidates.push_back({"crossed_storm", std::move(w)});
  }

  return candidates;
}

}  // namespace aba::search
