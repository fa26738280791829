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

}  // namespace

CoveringAdversary::CoveringAdversary(int n, harness::FixtureFactory factory,
                                     Options options)
    : n_(n), factory_(std::move(factory)), options_(options) {
  ABA_ASSERT(n >= 2);
}

void CoveringAdversary::log(std::string line) {
  if (options_.verbose_log) report_.log.push_back(std::move(line));
}

bool CoveringAdversary::Runner::last_read_flag(int pid) const {
  const std::vector<spec::Op> ops = history->completed_ops();
  for (auto it = ops.rbegin(); it != ops.rend(); ++it) {
    if (it->pid == pid && it->method == spec::Method::kDRead) {
      return spec::dread_flag(it->ret);
    }
  }
  return false;
}

CoveringAdversary::Runner CoveringAdversary::make_runner() const {
  Runner runner;
  runner.world = std::make_unique<sim::SimWorld>(n_);
  runner.world->set_trace_enabled(false);
  runner.history = std::make_unique<spec::History>();
  runner.invoker = factory_(*runner.world, *runner.history);
  return runner;
}

void CoveringAdversary::apply(Runner& runner, const Act& act) const {
  switch (act.kind) {
    case Act::Kind::kInvokeWrite:
      runner.invoker->invoke({0, spec::Method::kDWrite, 0});
      break;
    case Act::Kind::kInvokeRead:
      runner.invoker->invoke({act.pid, spec::Method::kDRead, 0});
      break;
    case Act::Kind::kStep:
      runner.world->step(act.pid);
      break;
  }
}

CoveringAdversary::Runner CoveringAdversary::replay(
    const std::vector<Act>& script) const {
  Runner runner = make_runner();
  for (const Act& act : script) apply(runner, act);
  return runner;
}

CoveringAdversary::ProbeResult CoveringAdversary::probe(
    const std::vector<Act>& script, int probe_pid,
    const std::vector<sim::ObjectId>& covered) {
  ++report_.probes;
  ++report_.replays;
  Runner runner = replay(script);
  ProbeResult result;
  result.path.push_back({Act::Kind::kInvokeRead, probe_pid});
  apply(runner, result.path.back());
  while (!runner.world->is_idle(probe_pid)) {
    const auto op = runner.world->poised(probe_pid);
    ABA_ASSERT(op.has_value());
    if (op->kind == sim::OpKind::kWrite &&
        std::find(covered.begin(), covered.end(), op->obj) == covered.end()) {
      result.escaped = true;  // Poised to write outside the covered set.
      return result;
    }
    result.path.push_back({Act::Kind::kStep, probe_pid});
    runner.world->step(probe_pid);
  }
  // lambda = lambda': the WeakRead completed writing only inside the cover.
  result.escaped = false;
  return result;
}

bool CoveringAdversary::extend_cover(Runner& live, std::vector<Act>& script,
                                     int k) {
  if (k == 0) return true;

  struct FailedIteration {
    std::size_t ci_prefix = 0;   // Script length at C_i.
    std::size_t beta_end = 0;    // Script length just after the block-write.
    std::vector<Act> probe_path; // lambda: the probe's solo WeakRead.
    std::vector<std::uint64_t> d_snapshot;  // reg(D_i).
  };
  std::vector<FailedIteration> failures;

  auto record_steps_to_completion = [&](int pid) {
    while (!live.world->is_idle(pid)) {
      live.world->step(pid);
      script.push_back({Act::Kind::kStep, pid});
    }
  };

  for (int iteration = 1; iteration <= options_.max_iterations_per_level;
       ++iteration) {
    ++report_.chain_iterations;
    if (report_.replays > options_.max_replays) {
      report_.budget_exhausted = true;
      log("replay budget exhausted");
      return false;
    }

    // Inductive hypothesis: cover k-1 registers with readers 1..k-1.
    if (!extend_cover(live, script, k - 1)) return false;

    // C_i: readers 1..k-1 are poised to write k-1 distinct registers.
    std::vector<sim::ObjectId> covered;
    for (int pid = 1; pid < k; ++pid) {
      const auto op = live.world->poised(pid);
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
    ProbeResult probe_result = probe(script, k, covered);

    if (probe_result.escaped) {
      // Extend the live cover with reader k's poised write.
      for (const Act& act : probe_result.path) {
        apply(live, act);
        script.push_back(act);
      }
      const auto op = live.world->poised(k);
      ABA_ASSERT(op.has_value() && op->kind == sim::OpKind::kWrite);
      covered.push_back(op->obj);
      report_.max_cover = std::max(report_.max_cover, k);
      log("level k=" + std::to_string(k) + " iteration " +
          std::to_string(iteration) + ": probe by p" + std::to_string(k) +
          " escapes; cover now " + describe_objects(*live.world, covered));
      return true;
    }

    log("level k=" + std::to_string(k) + " iteration " +
        std::to_string(iteration) + ": probe by p" + std::to_string(k) +
        " completed inside cover " + describe_objects(*live.world, covered));

    // Block-write beta: each covering reader takes its one (write) step.
    for (int pid = 1; pid < k; ++pid) {
      live.world->step(pid);
      script.push_back({Act::Kind::kStep, pid});
    }
    const std::size_t beta_end = script.size();
    FailedIteration failure;
    failure.ci_prefix = ci_prefix;
    failure.beta_end = beta_end;
    failure.probe_path = std::move(probe_result.path);
    failure.d_snapshot = live.world->memory_snapshot();  // reg(D_i).

    // Pigeonhole: look for an earlier failed iteration with equal reg(D).
    for (const FailedIteration& earlier : failures) {
      if (earlier.d_snapshot != failure.d_snapshot) continue;

      log("register configurations repeat: reg(D_i) = reg(D_j); building "
          "clean/dirty witnesses for p" + std::to_string(k));

      // Witness scripts. sigma is the recorded chain from just after the
      // earlier block-write up to (and including) the current block-write —
      // the proof's gamma_i alpha_{i+1} beta ... alpha_j beta. It involves
      // only processes 0..k-1, so it replays verbatim after the probe.
      std::vector<Act> w1(script.begin(),
                          script.begin() + static_cast<std::ptrdiff_t>(
                                               earlier.ci_prefix));
      w1.insert(w1.end(), earlier.probe_path.begin(), earlier.probe_path.end());
      w1.insert(w1.end(),
                script.begin() + static_cast<std::ptrdiff_t>(earlier.ci_prefix),
                script.begin() + static_cast<std::ptrdiff_t>(earlier.beta_end));
      std::vector<Act> w2 = w1;
      w2.insert(w2.end(),
                script.begin() + static_cast<std::ptrdiff_t>(earlier.beta_end),
                script.begin() + static_cast<std::ptrdiff_t>(beta_end));

      // D'_i: must be indistinguishable from D_i on the registers.
      ++report_.replays;
      Runner clean_runner = replay(w1);
      ABA_ASSERT_MSG(clean_runner.world->memory_snapshot() == earlier.d_snapshot,
                     "reg(D'_i) must equal reg(D_i): probe writes were "
                     "obliterated by the block-write");
      apply(clean_runner, {Act::Kind::kInvokeRead, k});
      clean_runner.world->run_to_completion(k);
      const bool clean_flag = clean_runner.last_read_flag(k);

      // D'_j: same registers, same probe state, but a WeakWrite completed
      // in sigma with no intervening WeakRead by the probe.
      ++report_.replays;
      Runner dirty_runner = replay(w2);
      ABA_ASSERT_MSG(dirty_runner.world->memory_snapshot() == failure.d_snapshot,
                     "reg(D'_j) must equal reg(D_j)");
      apply(dirty_runner, {Act::Kind::kInvokeRead, k});
      dirty_runner.world->run_to_completion(k);
      const bool dirty_flag = dirty_runner.last_read_flag(k);

      report_.clean_flag = clean_flag;
      report_.dirty_flag = dirty_flag;
      if (clean_flag || !dirty_flag) {
        report_.violation_found = true;
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
        log("VIOLATION: " + report_.violation_detail);
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
    for (int pid = 1; pid < k; ++pid) record_steps_to_completion(pid);
    script.push_back({Act::Kind::kInvokeWrite, 0});
    apply(live, script.back());
    record_steps_to_completion(0);
  }

  report_.budget_exhausted = true;
  log("level k=" + std::to_string(k) +
      ": no probe escape and no register-configuration repeat within the "
      "iteration budget — base objects appear unbounded (or budget too small)");
  return false;
}

CoveringReport CoveringAdversary::run(int target_k) {
  ABA_ASSERT(target_k >= 1 && target_k <= n_ - 1);
  report_ = CoveringReport{};
  report_.target_cover = target_k;

  Runner live = make_runner();
  ++report_.replays;

  // Lemma 1 is about implementations from registers.
  for (std::size_t i = 0; i < live.world->num_objects(); ++i) {
    const auto info = live.world->object_info(static_cast<sim::ObjectId>(i));
    ABA_ASSERT_MSG(info.kind == sim::ObjectKind::kRegister,
                   "covering adversary applies to register-only "
                   "implementations (Theorem 1(a))");
  }

  std::vector<Act> script;
  if (extend_cover(live, script, target_k)) {
    report_.cover_reached = true;
    log("cover of " + std::to_string(target_k) +
        " distinct registers reached; Theorem 1(a)'s bound witnessed");
  }
  return report_;
}

}  // namespace aba::lowerbound
