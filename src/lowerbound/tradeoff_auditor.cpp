#include "lowerbound/tradeoff_auditor.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <vector>

#include "util/assert.h"

namespace aba::lowerbound {

std::string TradeoffReport::summary() const {
  std::ostringstream out;
  out << "n=" << n << " m=" << num_objects << " (" << num_registers
      << " registers, " << num_cas_objects << " CAS"
      << (has_writable_cas ? ", writable" : "") << ", "
      << (all_bounded ? "bounded" : "UNBOUNDED") << ")"
      << " t=" << t << " (read " << worst_read_steps << ", write "
      << worst_write_steps << ")"
      << " product=" << time_space_product << " vs bound n-1=" << lower_bound
      << " -> "
      << (consistent_with_theorem1 ? "consistent" : "below the bound");
  return out.str();
}

TradeoffAuditor::TradeoffAuditor(int n, harness::FixtureFactory factory)
    : n_(n), factory_(std::move(factory)) {
  ABA_ASSERT(n >= 2);
}

TradeoffReport TradeoffAuditor::audit() {
  TradeoffReport report;
  report.n = n_;
  report.lower_bound = static_cast<std::uint64_t>(n_ - 1);

  sim::SimWorld world(n_);
  world.set_trace_enabled(false);
  spec::History history;
  auto invoker = factory_(world, history);

  // ---- Static census: objects, kinds, boundedness. ----
  report.num_objects = static_cast<int>(world.num_objects());
  for (std::size_t i = 0; i < world.num_objects(); ++i) {
    const auto info = world.object_info(static_cast<sim::ObjectId>(i));
    if (!info.bound.is_bounded()) report.all_bounded = false;
    switch (info.kind) {
      case sim::ObjectKind::kRegister:
        ++report.num_registers;
        break;
      case sim::ObjectKind::kCas:
        ++report.num_cas_objects;
        report.has_cas = true;
        break;
      case sim::ObjectKind::kWritableCas:
        ++report.num_cas_objects;
        report.has_cas = true;
        report.has_writable_cas = true;
        break;
    }
  }

  // Scans all processes' poised ops, folding the per-object census maxima
  // into the report (the WCov/CCov quantities of Lemma 3).
  auto census = [&](const sim::SimWorld& config) {
    std::map<sim::ObjectId, std::uint64_t> writes, cases;
    for (int pid = 0; pid < n_; ++pid) {
      const auto op = config.poised(pid);
      if (!op.has_value()) continue;
      if (op->kind == sim::OpKind::kWrite) ++writes[op->obj];
      if (op->kind == sim::OpKind::kCas) ++cases[op->obj];
    }
    for (const auto& [obj, count] : writes) {
      report.max_write_poise = std::max(report.max_write_poise, count);
      const auto c = cases.count(obj) ? cases.at(obj) : 0;
      report.max_total_poise = std::max(report.max_total_poise, count + c);
    }
    for (const auto& [obj, count] : cases) {
      report.max_cas_poise = std::max(report.max_cas_poise, count);
      const auto w = writes.count(obj) ? writes.at(obj) : 0;
      report.max_total_poise = std::max(report.max_total_poise, count + w);
    }
  };

  // ---- Dynamic: one run under the lock-step contention adversary. ----
  // Quantum 1 gives every in-flight process one step per sweep, so reads
  // and CASes of different processes interleave maximally and CAS-retry
  // loops reach their worst case.
  std::vector<harness::WorkloadOp> workload;
  for (int pid = 0; pid < n_; ++pid) {
    for (int i = 0; i < kOpsPerProcess; ++i) {
      workload.push_back(
          {pid, pid == 0 ? spec::Method::kDWrite : spec::Method::kDRead, 0});
    }
  }
  harness::ProgramCursor program(n_, std::move(workload));
  harness::drive_round_robin(world, *invoker, program, /*quantum=*/1, census);
  report.worst_write_steps = program.worst_steps(spec::Method::kDWrite);
  report.worst_read_steps = program.worst_steps(spec::Method::kDRead);

  report.t = std::max(report.worst_read_steps, report.worst_write_steps);
  const std::uint64_t factor = report.has_writable_cas ? 2 : 1;
  report.time_space_product =
      factor * static_cast<std::uint64_t>(report.num_objects) * report.t;
  report.consistent_with_theorem1 =
      report.time_space_product >= report.lower_bound;
  return report;
}

}  // namespace aba::lowerbound
