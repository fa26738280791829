// The simulator is a checking engine: its object-kind and declared-width
// rejection is semantics the tests and lower-bound experiments rely on, not
// debug instrumentation. The aba library target therefore compiles with
// ABA_FORCE_ASSERTS in every build type (see the root CMakeLists.txt).
#include "sim/sim_world.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdlib>
#include <sstream>

#include "util/assert.h"

// Each compiler's own feature macros select the sanitizer fiber hooks:
// GCC's __SANITIZE_*__, Clang's __has_feature.
#ifndef __has_feature
#define __has_feature(x) 0
#endif
#if defined(__SANITIZE_ADDRESS__) || __has_feature(address_sanitizer)
#define ABA_SIM_ASAN 1
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__) || __has_feature(thread_sanitizer)
#define ABA_SIM_TSAN 1
// Declared here because not every compiler's tsan_interface.h has them.
extern "C" {
void* __tsan_get_current_fiber();
void* __tsan_create_fiber(unsigned flags);
void __tsan_destroy_fiber(void* fiber);
void __tsan_switch_to_fiber(void* fiber, unsigned flags);
}
#endif

namespace aba::sim {

namespace {
std::size_t page_bytes() {
  static const auto bytes = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return bytes;
}

// Fiber stacks that finished worlds released, kept mapped (guard page
// included) for the next world this thread builds: a model checker builds
// a world per replay, and mapping, protecting and unmapping each stack
// again would cost three system calls per process per replay.
class StackCache {
 public:
  // Enough for several live worlds' worth of processes; the rest unmap.
  static constexpr std::size_t kMaxStacks = 32;

  StackCache() = default;
  StackCache(const StackCache&) = delete;
  StackCache& operator=(const StackCache&) = delete;
  ~StackCache() {
    while (count_ > 0) unmap(stacks_[--count_]);
  }

  // A stack of SimWorld::kFiberStackBytes above a PROT_NONE guard page.
  char* take() {
    if (count_ > 0) {
      char* stack = stacks_[--count_];
#ifdef ABA_SIM_ASAN
      // The frames of the fiber that last ran here left their redzones.
      ASAN_UNPOISON_MEMORY_REGION(stack, SimWorld::kFiberStackBytes);
#endif
      return stack;
    }
    const std::size_t guard = page_bytes();
    void* base = mmap(nullptr, guard + SimWorld::kFiberStackBytes,
                      PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
    ABA_ASSERT_MSG(base != MAP_FAILED, "cannot map a fiber stack");
    const int rc = mprotect(base, guard, PROT_NONE);
    ABA_ASSERT_MSG(rc == 0, "cannot protect a fiber stack's guard page");
    return static_cast<char*>(base) + guard;
  }

  void give_back(char* stack) {
    if (count_ < kMaxStacks) {
      stacks_[count_++] = stack;
    } else {
      unmap(stack);
    }
  }

 private:
  static void unmap(char* stack) {
    munmap(stack - page_bytes(), page_bytes() + SimWorld::kFiberStackBytes);
  }

  char* stacks_[kMaxStacks] = {};
  std::size_t count_ = 0;
};

thread_local StackCache stack_cache;
}  // namespace

std::string to_string(const StepRecord& step) {
  std::ostringstream out;
  out << "t=" << step.time << " p" << step.pid << " " << to_string(step.kind)
      << "(obj=" << step.obj;
  switch (step.kind) {
    case OpKind::kRead:
      out << ") -> " << step.result;
      break;
    case OpKind::kWrite:
      out << ", " << step.arg0 << ")";
      break;
    case OpKind::kCas:
      out << ", exp=" << step.arg0 << ", des=" << step.arg1 << ") -> "
          << (step.cas_success ? "ok" : "fail") << " (was " << step.result << ")";
      break;
  }
  return out.str();
}

SimWorld::SimWorld(int num_processes) : procs_(num_processes) {
  ABA_ASSERT(num_processes > 0);
  for (auto& proc : procs_) {
    proc.stack = stack_cache.take();
#ifdef ABA_SIM_TSAN
    proc.tsan_fiber = __tsan_create_fiber(0);
#endif
  }
}

SimWorld::~SimWorld() {
  // Every suspended method unwinds on its own stack: the abort throws
  // ExecutionAborted out of its access(), and its fiber ends at
  // run_method's final switch.
  for (ProcessId pid = 0; pid < num_processes(); ++pid) {
    if (procs_[pid].phase == Phase::kAnnounced) resume(pid, /*abort=*/true);
  }
  for (auto& proc : procs_) {
#ifdef ABA_SIM_TSAN
    __tsan_destroy_fiber(proc.tsan_fiber);
#endif
    stack_cache.give_back(proc.stack);
  }
}

void SimWorld::fiber_entry(unsigned world_hi, unsigned world_lo, int pid) {
  const std::uintptr_t world = (std::uintptr_t{world_hi} << 32) | world_lo;
  reinterpret_cast<SimWorld*>(world)->run_method(pid);
}

void SimWorld::run_method(ProcessId pid) {
#ifdef ABA_SIM_ASAN
  __sanitizer_finish_switch_fiber(nullptr, &engine_stack_, &engine_stack_size_);
#endif
  auto& proc = procs_[pid];
  bool died = false;
  try {
    proc.method();
  } catch (...) {
    // ExecutionAborted: crash() or the world's teardown resumed this process
    // with an abort. Anything else (reclaim::LeaseRevoked from a
    // self-fencing process) kills the process the same way; the engine call
    // that granted the fatal step observes MethodStatus::kCrashed.
    died = true;
  }
  // The final switch must happen here, outside the handler. The C++ runtime
  // keeps its caught-exception stack per OS thread, so every fiber shares
  // it: a fiber that switched out from inside a handler would leave its
  // exception on that stack for another fiber's throw and catch to corrupt.
  proc.method = nullptr;
  proc.phase = died ? Phase::kCrashed : Phase::kIdle;
  yield(proc, /*final_switch=*/true);
  std::abort();  // A finished fiber is never resumed.
}

MethodStatus SimWorld::resume(ProcessId pid, bool abort) {
  ABA_ASSERT_MSG(current_ < 0, "engine call from inside a simulated process");
  auto& proc = procs_[pid];
  proc.abort = abort;
  current_ = pid;
#ifdef ABA_SIM_TSAN
  engine_fiber_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(proc.tsan_fiber, 0);
#endif
#ifdef ABA_SIM_ASAN
  void* fake_stack = nullptr;
  __sanitizer_start_switch_fiber(&fake_stack, proc.stack, kFiberStackBytes);
#endif
  swapcontext(&engine_, &proc.context);
#ifdef ABA_SIM_ASAN
  __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#endif
  current_ = -1;
  if (proc.phase == Phase::kAnnounced) return MethodStatus::kPoised;
  return proc.phase == Phase::kCrashed ? MethodStatus::kCrashed
                                       : MethodStatus::kCompleted;
}

void SimWorld::yield(Proc& proc, [[maybe_unused]] bool final_switch) {
#ifdef ABA_SIM_ASAN
  // A null save slot on the final switch lets ASan free the fiber's fake
  // stack.
  void* fake_stack = nullptr;
  __sanitizer_start_switch_fiber(final_switch ? nullptr : &fake_stack,
                                 engine_stack_, engine_stack_size_);
#endif
#ifdef ABA_SIM_TSAN
  __tsan_switch_to_fiber(engine_fiber_, 0);
#endif
  swapcontext(&proc.context, &engine_);
#ifdef ABA_SIM_ASAN
  __sanitizer_finish_switch_fiber(fake_stack, &engine_stack_, &engine_stack_size_);
#endif
}

ObjectId SimWorld::create_object(ObjectKind kind, std::string name,
                                 std::uint64_t initial, BoundSpec bound) {
  ABA_ASSERT_MSG(bound.fits(initial), "initial value exceeds declared object width");
  objects_.push_back(ObjectInfo{std::move(name), kind, bound, initial});
  return static_cast<ObjectId>(objects_.size() - 1);
}

ObjectInfo SimWorld::object_info(ObjectId id) const {
  ABA_ASSERT(id >= 0 && static_cast<std::size_t>(id) < objects_.size());
  return objects_[id];
}

std::uint64_t SimWorld::object_value(ObjectId id) const {
  ABA_ASSERT(id >= 0 && static_cast<std::size_t>(id) < objects_.size());
  return objects_[id].value;
}

std::vector<std::uint64_t> SimWorld::memory_snapshot() const {
  std::vector<std::uint64_t> snapshot;
  snapshot.reserve(objects_.size());
  for (const auto& obj : objects_) snapshot.push_back(obj.value);
  return snapshot;
}

std::vector<std::uint64_t> SimWorld::signature_key() const {
  std::vector<std::uint64_t> key;
  key.reserve(objects_.size() + procs_.size() * 4);
  for (const auto& obj : objects_) key.push_back(obj.value);
  for (const auto& proc : procs_) {
    if (proc.phase == Phase::kAnnounced) {
      key.push_back(1 + static_cast<std::uint64_t>(proc.pending.kind));
      key.push_back(static_cast<std::uint64_t>(proc.pending.obj));
      key.push_back(proc.pending.arg0);
      key.push_back(proc.pending.arg1);
    } else if (proc.phase == Phase::kCrashed) {
      // Crashed marker, distinct from idle: a crashed process never runs
      // again, so configurations differing only in dead-vs-idle are not
      // interchangeable for covering arguments.
      key.push_back(~std::uint64_t{0});
      key.push_back(0);
      key.push_back(0);
      key.push_back(0);
    } else {
      // Idle marker. (A process mid-method but not announced cannot occur
      // between engine calls.)
      key.push_back(0);
      key.push_back(0);
      key.push_back(0);
      key.push_back(0);
    }
  }
  return key;
}

MethodStatus SimWorld::invoke(ProcessId pid, std::function<void()> method) {
  ABA_ASSERT(pid >= 0 && static_cast<std::size_t>(pid) < procs_.size());
  auto& proc = procs_[pid];
  ABA_ASSERT_MSG(proc.phase == Phase::kIdle, "invoke on a non-idle process");
  proc.method = std::move(method);
  proc.phase = Phase::kRunning;
  proc.steps_in_method = 0;
  getcontext(&proc.context);
  proc.context.uc_stack.ss_sp = proc.stack;
  proc.context.uc_stack.ss_size = kFiberStackBytes;
  proc.context.uc_link = nullptr;
  const auto world = reinterpret_cast<std::uintptr_t>(this);
  makecontext(&proc.context, reinterpret_cast<void (*)()>(&fiber_entry), 3,
              static_cast<unsigned>(world >> 32), static_cast<unsigned>(world),
              pid);
  return resume(pid, /*abort=*/false);
}

MethodStatus SimWorld::step(ProcessId pid) {
  ABA_ASSERT(pid >= 0 && static_cast<std::size_t>(pid) < procs_.size());
  ABA_ASSERT_MSG(procs_[pid].phase == Phase::kAnnounced,
                 "step on a process that is not poised");
  return resume(pid, /*abort=*/false);
}

std::uint64_t SimWorld::run_to_completion(ProcessId pid) {
  std::uint64_t steps = 0;
  while (!is_idle(pid)) {
    step(pid);
    ++steps;
  }
  return steps;
}

void SimWorld::crash(ProcessId pid) {
  ABA_ASSERT(pid >= 0 && static_cast<std::size_t>(pid) < procs_.size());
  auto& proc = procs_[pid];
  ABA_ASSERT_MSG(proc.phase == Phase::kAnnounced || proc.phase == Phase::kIdle,
                 "crash on a process that is neither poised nor idle");
  if (proc.phase == Phase::kIdle) {
    proc.phase = Phase::kCrashed;
    return;
  }
  // Poised: the abort unwinds the method on its own stack — its announced
  // step is never applied — before this returns, so the unwind never
  // overlaps engine execution.
  resume(pid, /*abort=*/true);
}

bool SimWorld::is_crashed(ProcessId pid) const {
  ABA_ASSERT(pid >= 0 && static_cast<std::size_t>(pid) < procs_.size());
  return procs_[pid].phase == Phase::kCrashed;
}

bool SimWorld::is_idle(ProcessId pid) const {
  ABA_ASSERT(pid >= 0 && static_cast<std::size_t>(pid) < procs_.size());
  return procs_[pid].phase == Phase::kIdle;
}

bool SimWorld::all_idle() const {
  for (const auto& proc : procs_) {
    if (proc.phase != Phase::kIdle) return false;
  }
  return true;
}

std::optional<PendingOp> SimWorld::poised(ProcessId pid) const {
  ABA_ASSERT(pid >= 0 && static_cast<std::size_t>(pid) < procs_.size());
  const auto& proc = procs_[pid];
  if (proc.phase != Phase::kAnnounced) return std::nullopt;
  return proc.pending;
}

std::vector<std::uint64_t> SimWorld::observation_hashes() const {
  std::vector<std::uint64_t> hashes;
  hashes.reserve(procs_.size());
  for (const auto& proc : procs_) hashes.push_back(proc.obs_hash);
  return hashes;
}

AccessResult SimWorld::apply(const PendingOp& op, ProcessId pid) {
  ABA_ASSERT(op.obj >= 0 && static_cast<std::size_t>(op.obj) < objects_.size());
  auto& obj = objects_[op.obj];
  AccessResult result;
  switch (op.kind) {
    case OpKind::kRead:
      result.value = obj.value;
      break;
    case OpKind::kWrite:
      ABA_ASSERT_MSG(obj.kind == ObjectKind::kRegister ||
                         obj.kind == ObjectKind::kWritableCas,
                     "Write() on a non-writable CAS object");
      ABA_ASSERT_MSG(obj.bound.fits(op.arg0),
                     "written value exceeds declared object width");
      obj.value = op.arg0;
      result.value = op.arg0;
      break;
    case OpKind::kCas:
      ABA_ASSERT_MSG(obj.kind == ObjectKind::kCas ||
                         obj.kind == ObjectKind::kWritableCas,
                     "CAS() on a plain register");
      result.value = obj.value;
      if (obj.value == op.arg0) {
        ABA_ASSERT_MSG(obj.bound.fits(op.arg1),
                       "CAS-installed value exceeds declared object width");
        obj.value = op.arg1;
        result.cas_success = true;
      }
      break;
  }
  const std::uint64_t time = clock_++;
  ++total_steps_;
  ++procs_[pid].steps_in_method;
  {
    auto& proc = procs_[pid];
    const auto mix = [&proc](std::uint64_t word) {
      proc.obs_hash = (proc.obs_hash ^ word) * 0x100000001b3ull;
    };
    mix(static_cast<std::uint64_t>(op.obj));
    mix(static_cast<std::uint64_t>(op.kind));
    mix(op.arg0);
    mix(op.arg1);
    mix(result.value);
    mix(result.cas_success ? 1 : 0);
  }
  if (trace_enabled_) {
    trace_.push_back(StepRecord{time, pid, op.obj, op.kind, op.arg0, op.arg1,
                                result.value, result.cas_success});
  }
  return result;
}

AccessResult SimWorld::access(const PendingOp& op) {
  ABA_ASSERT_MSG(current_ >= 0,
                 "shared-memory access from outside a simulated process");
  const ProcessId pid = current_;
  auto& proc = procs_[pid];
  ABA_ASSERT(proc.phase == Phase::kRunning);
  proc.pending = op;
  proc.phase = Phase::kAnnounced;
  yield(proc, /*final_switch=*/false);
  if (proc.abort) throw ExecutionAborted{};
  proc.phase = Phase::kRunning;
  return apply(op, pid);
}

}  // namespace aba::sim
