// Concurrent operation histories.
//
// A history is the sequence of method-call invocations and responses that
// occur in an execution on an implemented object (paper, Preliminaries).
// We record each completed method call as one Op carrying its process,
// semantic method code, argument, return value, and invocation/response
// timestamps drawn from a monotonic logical clock. The derived happens-
// before order (a precedes b iff a responded before b was invoked) is the
// order linearizability must respect.
//
// Histories are produced by two kinds of harness:
//   - simulator drivers, where timestamps come from SimWorld's logical clock;
//   - native stress tests, where timestamps come from a shared atomic counter
//     sampled at method start and end.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace aba::spec {

// Method codes, shared across specs. Each object family uses its own subset.
enum class Method : std::uint8_t {
  // ABA-detecting register (paper Section 1, "Results").
  kDRead,   // ret = (value, flag) packed via pack_dread_result
  kDWrite,  // arg = value

  // LL/SC/VL object.
  kLL,  // ret = value
  kSC,  // arg = value, ret = 1 (success) or 0 (failure)
  kVL,  // ret = 1 (true) or 0 (false)

  // Plain read/write register (sanity baseline).
  kRead,   // ret = value
  kWrite,  // arg = value

  // LIFO stack / FIFO queue (application structures).
  kPush,  // arg = value, ret = 1 if pushed (0 = full pool)
  kPop,   // ret = pack_opt(value) — 0 means empty
  kEnq,   // arg = value, ret = 1 if enqueued
  kDeq,   // ret = pack_opt(value) — 0 means empty
};

const char* to_string(Method m);

// DRead returns a pair (value, flag); pack it into one word for Op::ret.
constexpr std::uint64_t pack_dread_result(std::uint64_t value, bool flag) {
  return (value << 1) | (flag ? 1u : 0u);
}
constexpr std::uint64_t dread_value(std::uint64_t packed) { return packed >> 1; }
constexpr bool dread_flag(std::uint64_t packed) { return (packed & 1u) != 0; }

// Optional values for Pop/Deq: 0 = empty, otherwise value+1.
constexpr std::uint64_t pack_opt(bool present, std::uint64_t value) {
  return present ? value + 1 : 0;
}

struct Op {
  int pid = -1;
  Method method = Method::kRead;
  std::uint64_t arg = 0;
  std::uint64_t ret = 0;
  std::uint64_t invoke_ts = 0;
  std::uint64_t response_ts = 0;

  std::string to_string() const;
};

// Used from one thread during simulation (processes are fibers), internally
// locked so native stress tests can record from many threads.
class History {
 public:
  // Records the invocation; returns the op index to pass to complete().
  std::size_t begin_op(int pid, Method method, std::uint64_t arg,
                       std::uint64_t invoke_ts);

  void complete(std::size_t index, std::uint64_t ret, std::uint64_t response_ts);

  // All ops must be complete before calling ops().
  std::vector<Op> ops() const;

  // The completed subset, for crash executions: a process killed mid-method
  // leaves its last op pending forever. Standard linearizability treats
  // pending ops as optionally includable; the crash tests use the completed
  // prefix plus structure-side accounting for the pending effect.
  std::vector<Op> completed_ops() const;

  // The incomplete subset — what the crashed processes were doing. The
  // conservation checker credits a crashed victim's pending put (its effect
  // may have landed without the op completing), so a survivor legitimately
  // taking that value is not a violation.
  std::vector<Op> pending_ops() const;

  std::size_t size() const;
  void clear();

  std::string to_string() const;

 private:
  struct Slot {
    Op op;
    bool complete = false;
  };

  mutable std::mutex mu_;
  std::vector<Slot> slots_;
};

}  // namespace aba::spec
