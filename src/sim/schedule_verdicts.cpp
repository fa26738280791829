// Spec verdicts of the schedule-search engine (sim/schedule_search.h):
// check_history replays a fixture's recorded history through the
// sequential spec its SpecKind names.
#include "sim/schedule_search.h"

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "spec/lin_checker.h"
#include "spec/specs.h"
#include "util/assert.h"

namespace aba::search {

namespace {

// Multiset conservation: every taken value was put successfully at least as
// many times as it was taken. The invariant that survives crashes — with
// one credit per crashed victim's pending put, whose effect may have landed
// without the op completing (a push killed after the linking CAS leaves its
// value reachable; the quarantine rule keeps the node out of circulation,
// but a survivor popping it is a legitimate take).
SpecVerdict check_conservation(const std::vector<spec::Op>& ops,
                               PutTake verbs,
                               const std::vector<spec::Op>& pending) {
  SpecVerdict verdict;
  verdict.checked = true;
  std::map<std::uint64_t, long> balance;
  for (const auto& op : ops) {
    if (op.method == verbs.put && op.ret == 1) ++balance[op.arg];
  }
  for (const auto& op : pending) {
    if (op.method == verbs.put) ++balance[op.arg];
  }
  for (const auto& op : ops) {
    if (op.method == verbs.take && op.ret != 0) {
      const std::uint64_t value = op.ret - 1;  // pack_opt inverse.
      auto it = balance.find(value);
      if (it == balance.end() || it->second <= 0) {
        verdict.ok = false;
        std::ostringstream out;
        out << "conservation violated: value " << value
            << " taken by p" << op.pid << " was never put (or taken twice)";
        verdict.detail = out.str();
        return verdict;
      }
      --it->second;
    }
  }
  return verdict;
}

template <class Spec>
SpecVerdict check_linearizable_history(const std::vector<spec::Op>& ops,
                                       const typename Spec::State& initial) {
  SpecVerdict verdict;
  verdict.checked = true;
  const auto result = spec::check_linearizable<Spec>(ops, initial);
  if (!result.linearizable) {
    verdict.ok = false;
    verdict.detail = spec::explain(ops, result);
  }
  return verdict;
}

}  // namespace

SpecVerdict check_history(const SearchFixture& fixture) {
  const SpecKind kind = fixture.spec;
  if (kind == SpecKind::kNone) return {};
  const sim::SimWorld& world = *fixture.world;
  const int n = world.num_processes();
  const std::vector<spec::Op> ops = fixture.history->completed_ops();
  bool crashed = false;
  for (int pid = 0; pid < n; ++pid) crashed = crashed || world.is_crashed(pid);
  if (crashed) {
    ABA_CHECK_MSG(kind != SpecKind::kAbaRegister && kind != SpecKind::kLlsc,
                  "crash verdicts exist for the container specs only");
    return check_conservation(ops, put_take(kind),
                              fixture.history->pending_ops());
  }
  switch (kind) {
    case SpecKind::kStack:
      return check_linearizable_history<spec::StackSpec>(
          ops, spec::StackSpec::initial());
    case SpecKind::kQueue:
      return check_linearizable_history<spec::QueueSpec>(
          ops, spec::QueueSpec::initial());
    case SpecKind::kRing:
      ABA_CHECK_MSG(fixture.ring_capacity >= 1,
                    "kRing verdict needs the fixture's ring_capacity");
      return check_linearizable_history<spec::BoundedQueueSpec>(
          ops, spec::BoundedQueueSpec::initial(fixture.ring_capacity));
    case SpecKind::kAbaRegister:
      return check_linearizable_history<spec::AbaRegisterSpec>(
          ops, spec::AbaRegisterSpec::initial(n, 0));
    case SpecKind::kLlsc:
      return check_linearizable_history<spec::LlscSpec>(
          ops, spec::LlscSpec::initial(n, 0, true));
    case SpecKind::kShardedStack: {
      ABA_CHECK_MSG(fixture.shard_tags, "kShardedStack needs shard_tags");
      const std::vector<int>& shard_tags = fixture.shard_tags();
      const int num_shards = fixture.num_shards;
      ABA_CHECK_MSG(shard_tags.size() == ops.size(),
                    "sharded verdict needs one landing shard per history op");
      std::vector<std::vector<spec::Op>> by_shard(
          static_cast<std::size_t>(num_shards));
      for (std::size_t i = 0; i < ops.size(); ++i) {
        ABA_CHECK(shard_tags[i] >= 0 && shard_tags[i] < num_shards);
        by_shard[static_cast<std::size_t>(shard_tags[i])].push_back(ops[i]);
      }
      for (int shard = 0; shard < num_shards; ++shard) {
        SpecVerdict verdict = check_linearizable_history<spec::StackSpec>(
            by_shard[static_cast<std::size_t>(shard)],
            spec::StackSpec::initial());
        if (!verdict.ok) {
          verdict.detail =
              "shard " + std::to_string(shard) + ": " + verdict.detail;
          return verdict;
        }
      }
      SpecVerdict verdict;
      verdict.checked = true;
      return verdict;
    }
    case SpecKind::kNone:
      break;
  }
  return {};
}

}  // namespace aba::search
