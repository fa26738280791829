#include "lowerbound/covering_adversary.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "util/assert.h"

namespace aba::lowerbound {

namespace {

std::string describe_objects(const sim::SimWorld& world,
                             const std::vector<sim::ObjectId>& ids) {
  std::ostringstream out;
  out << "{";
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out << ", ";
    out << world.object_info(ids[i]).name << "#" << ids[i];
  }
  out << "}";
  return out.str();
}

// Grants `pid` one move under the advance rule. An idle process first gets
// its next op appended: process 0's WeakWrite (DWrite(0)) or a reader's
// WeakRead (DRead). The construction decides op counts as it goes, so no
// process ever has an op queued ahead of its grant.
void grant(search::ScheduleRunner& runner, int pid) {
  if (!runner.runnable(pid)) {
    runner.append_op(
        {pid, pid == 0 ? spec::Method::kDWrite : spec::Method::kDRead, 0});
  }
  runner.grant(pid);
}

// Grants `pid` until its op in flight responds (nothing if it is idle).
void run_until_idle(search::ScheduleRunner& runner, int pid) {
  while (!runner.fixture().world->is_idle(pid)) runner.grant(pid);
}

// Exec(C, grants): a fresh runner on the initial configuration, fed `grants`.
search::ScheduleRunner replay_grants(
    const search::SearchFixtureFactory& fixture, int n,
    const std::vector<int>& grants) {
  search::ScheduleRunner runner(fixture(n), {},
                                search::retired_unreclaimed_cost);
  for (const int pid : grants) grant(runner, pid);
  return runner;
}

// Runs one more WeakRead by `pid` to completion and returns its flag.
bool weak_read(search::ScheduleRunner& runner, int pid) {
  grant(runner, pid);
  run_until_idle(runner, pid);
  const std::vector<spec::Op> ops = runner.fixture().history->completed_ops();
  const auto last = std::find_if(
      ops.rbegin(), ops.rend(), [pid](const auto& op) { return op.pid == pid; });
  ABA_ASSERT(last != ops.rend() && last->method == spec::Method::kDRead);
  return spec::dread_flag(last->ret);
}

}  // namespace

CoveringAdversary::CoveringAdversary(int n, harness::FixtureFactory factory,
                                     Options options)
    : n_(n),
      fixture_(search::harness_fixture(std::move(factory),
                                       search::SpecKind::kAbaRegister)),
      options_(options) {
  ABA_ASSERT(n >= 2);
}

CoveringAdversary::ProbeResult CoveringAdversary::probe(
    const std::vector<int>& grants, int probe_pid,
    const std::vector<sim::ObjectId>& covered) {
  ++report_.probes;
  ++report_.replays;
  search::ScheduleRunner runner = replay_grants(fixture_, n_, grants);
  const sim::SimWorld& world = *runner.fixture().world;
  ProbeResult result;
  do {
    grant(runner, probe_pid);
    ++result.grants;
    const auto op = world.poised(probe_pid);
    if (op.has_value() && op->kind == sim::OpKind::kWrite &&
        std::find(covered.begin(), covered.end(), op->obj) == covered.end()) {
      result.escaped = true;  // Poised to write outside the covered set.
      return result;
    }
  } while (!world.is_idle(probe_pid));
  // lambda = lambda': the WeakRead completed writing only inside the cover.
  return result;
}

bool CoveringAdversary::extend_cover(search::ScheduleRunner& live, int k) {
  if (k == 0) return true;
  const sim::SimWorld& world = *live.fixture().world;
  const std::vector<int>& script = live.grants();

  struct FailedIteration {
    std::size_t ci_prefix = 0;     // Grants at C_i.
    std::size_t beta_end = 0;      // Grants just after the block-write.
    std::size_t probe_grants = 0;  // lambda: the probe's solo WeakRead.
    std::vector<std::uint64_t> d_snapshot;  // reg(D_i).
  };
  std::vector<FailedIteration> failures;

  for (int iteration = 1; iteration <= options_.max_iterations_per_level;
       ++iteration) {
    ++report_.chain_iterations;
    if (report_.replays > options_.max_replays) {
      report_.budget_exhausted = true;
      report_.log.push_back("replay budget exhausted");
      return false;
    }

    // Inductive hypothesis: cover k-1 registers with readers 1..k-1.
    if (!extend_cover(live, k - 1)) return false;

    // C_i: readers 1..k-1 are poised to write k-1 distinct registers.
    std::vector<sim::ObjectId> covered;
    for (int pid = 1; pid < k; ++pid) {
      const auto op = world.poised(pid);
      ABA_ASSERT_MSG(op.has_value() && op->kind == sim::OpKind::kWrite,
                     "cover invariant: reader must be poised to write");
      covered.push_back(op->obj);
    }
    ABA_ASSERT_MSG(
        std::set<sim::ObjectId>(covered.begin(), covered.end()).size() ==
            covered.size(),
        "cover invariant: covered registers must be distinct");

    // Probe reader k solo from C_i on a throwaway replay.
    const std::size_t ci_prefix = script.size();
    const ProbeResult probe_result = probe(script, k, covered);

    if (probe_result.escaped) {
      // Extend the live cover with reader k's poised write.
      for (std::size_t i = 0; i < probe_result.grants; ++i) grant(live, k);
      const auto op = world.poised(k);
      ABA_ASSERT(op.has_value() && op->kind == sim::OpKind::kWrite);
      covered.push_back(op->obj);
      report_.max_cover = std::max(report_.max_cover, k);
      report_.log.push_back(
          "level k=" + std::to_string(k) + " iteration " +
          std::to_string(iteration) + ": probe by p" + std::to_string(k) +
          " escapes; cover now " + describe_objects(world, covered));
      return true;
    }

    report_.log.push_back(
        "level k=" + std::to_string(k) + " iteration " +
        std::to_string(iteration) + ": probe by p" + std::to_string(k) +
        " completed inside cover " + describe_objects(world, covered));

    // Block-write beta: each covering reader takes its one (write) step.
    for (int pid = 1; pid < k; ++pid) live.grant(pid);
    const std::size_t beta_end = script.size();
    FailedIteration failure{ci_prefix, beta_end, probe_result.grants,
                            world.memory_snapshot()};  // reg(D_i).

    // Pigeonhole: look for an earlier failed iteration with equal reg(D).
    for (const FailedIteration& earlier : failures) {
      if (earlier.d_snapshot != failure.d_snapshot) continue;

      report_.log.push_back(
          "register configurations repeat: reg(D_i) = reg(D_j); building "
          "clean/dirty witnesses for p" + std::to_string(k));

      // Witness scripts. sigma is the recorded chain from just after the
      // earlier block-write up to (and including) the current block-write —
      // the proof's gamma_i alpha_{i+1} beta ... alpha_j beta. It involves
      // only processes 0..k-1, so it replays verbatim after the probe.
      const auto at = [&](std::size_t i) {
        return script.begin() + static_cast<std::ptrdiff_t>(i);
      };
      std::vector<int> w1(script.begin(), at(earlier.ci_prefix));
      w1.insert(w1.end(), earlier.probe_grants, k);
      w1.insert(w1.end(), at(earlier.ci_prefix), at(earlier.beta_end));
      std::vector<int> w2 = w1;
      w2.insert(w2.end(), at(earlier.beta_end), at(beta_end));

      // D'_i: must be indistinguishable from D_i on the registers.
      ++report_.replays;
      search::ScheduleRunner clean = replay_grants(fixture_, n_, w1);
      ABA_ASSERT_MSG(clean.fixture().world->memory_snapshot() ==
                         earlier.d_snapshot,
                     "reg(D'_i) must equal reg(D_i): probe writes were "
                     "obliterated by the block-write");
      const bool clean_flag = weak_read(clean, k);

      // D'_j: same registers, same probe state, but a WeakWrite completed
      // in sigma with no intervening WeakRead by the probe.
      ++report_.replays;
      search::ScheduleRunner dirty = replay_grants(fixture_, n_, w2);
      ABA_ASSERT_MSG(dirty.fixture().world->memory_snapshot() ==
                         failure.d_snapshot,
                     "reg(D'_j) must equal reg(D_j)");
      const bool dirty_flag = weak_read(dirty, k);

      report_.clean_flag = clean_flag;
      report_.dirty_flag = dirty_flag;
      if (clean_flag || !dirty_flag) {
        report_.violation_found = true;
        report_.witness = (clean_flag ? clean : dirty).script();
        std::ostringstream detail;
        detail << "WeakRead by p" << k << " returned "
               << (clean_flag ? "True" : "False")
               << " from the p-clean configuration and "
               << (dirty_flag ? "True" : "False")
               << " from the p-dirty configuration; correctness requires "
                  "False/True. The two configurations have identical register "
                  "contents and identical probe-local state, so a bounded-"
                  "register implementation with this cover structure cannot "
                  "be correct (Lemma 1).";
        report_.violation_detail = detail.str();
        report_.log.push_back("VIOLATION: " + report_.violation_detail);
        return false;
      }
      // Deterministic implementations cannot reach this point: the two
      // configurations agree on every register and on the probe's local
      // state, so the flags must be equal — and then one of them is wrong.
      ABA_ASSERT_MSG(false,
                     "clean/dirty witnesses both returned correct flags from "
                     "indistinguishable configurations");
    }
    failures.push_back(std::move(failure));

    // gamma_i: covering readers finish their WeakReads, then process 0
    // completes exactly one WeakWrite. Restores quiescence (Q_i).
    for (int pid = 1; pid < k; ++pid) run_until_idle(live, pid);
    grant(live, 0);
    run_until_idle(live, 0);
  }

  report_.budget_exhausted = true;
  report_.log.push_back(
      "level k=" + std::to_string(k) +
      ": no probe escape and no register-configuration repeat within the "
      "iteration budget — base objects appear unbounded (or budget too small)");
  return false;
}

CoveringReport CoveringAdversary::run(int target_k) {
  ABA_ASSERT(target_k >= 1 && target_k <= n_ - 1);
  report_ = CoveringReport{};
  report_.target_cover = target_k;

  search::ScheduleRunner live = replay_grants(fixture_, n_, {});
  ++report_.replays;

  // Lemma 1 is about implementations from registers.
  const sim::SimWorld& world = *live.fixture().world;
  for (std::size_t i = 0; i < world.num_objects(); ++i) {
    const auto info = world.object_info(static_cast<sim::ObjectId>(i));
    ABA_ASSERT_MSG(info.kind == sim::ObjectKind::kRegister,
                   "covering adversary applies to register-only "
                   "implementations (Theorem 1(a))");
  }

  if (extend_cover(live, target_k)) {
    report_.cover_reached = true;
    report_.log.push_back(
        "cover of " + std::to_string(target_k) +
        " distinct registers reached; Theorem 1(a)'s bound witnessed");
  }
  return report_;
}

}  // namespace aba::lowerbound
