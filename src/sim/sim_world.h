// SimWorld — a deterministic shared-memory simulator.
//
// SimWorld realizes the paper's computation model: n processes that execute
// atomic steps on base objects, in an order chosen by a schedule. Each
// simulated process runs as a fiber (a ucontext on its own fixed-size stack)
// inside the thread that drives the world, so exactly one process or the
// driving code runs at any moment, and an execution is a sequence of atomic
// steps exactly as in the model.
//
// The central trick is the *announce-then-block* protocol: when algorithm
// code performs a shared-memory access through a sim platform handle, the
// access is first announced as a PendingOp and the process switches back to
// the driving code (the "engine": a test, a schedule runner, or a
// lower-bound adversary), which later resumes it with a grant. Between
// engine calls, every non-idle process is suspended at an announcement,
// which gives the engine the paper's "poised to execute" notion: it can
// inspect exactly which operation (with parameters) each process will
// execute next — the raw material of covering arguments (WCov/CCov sets,
// block-writes, signatures).
//
// Configurations: the engine can snapshot all object values ("reg(C)" in
// Lemma 1) and the full signature (object values + every process's poised
// operation, "sig(C)" in Lemma 3). Process-internal state is deliberately
// not part of the signature, matching the paper's definition.
//
// Determinism and replay: SimWorld itself makes no scheduling decisions;
// given the same sequence of engine calls (invoke/step), executions are
// bit-identical. Engines identify configurations with the scripts that reach
// them from the initial configuration and re-execute prefixes — exactly the
// "Exec(C, sigma)" replay style the proofs use.
#pragma once

#include <ucontext.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "sim/types.h"

namespace aba::sim {

// Thrown through algorithm code when the world shuts down mid-method or the
// process is crashed at its announcement; algorithm code must be
// exception-safe with respect to simulator state (it holds no locks and the
// simulator owns all shared objects), and must not access shared memory
// from a destructor that runs during that unwind.
struct ExecutionAborted {};

enum class MethodStatus : std::uint8_t {
  kPoised,     // The method announced a shared-memory step and is suspended.
  kCompleted,  // The method ran to completion.
  kCrashed,    // The process died (crash event or self-fence) mid-method.
};

struct ObjectInfo {
  std::string name;
  ObjectKind kind = ObjectKind::kRegister;
  BoundSpec bound;
  std::uint64_t value = 0;
};

class SimWorld {
 public:
  // Each process's fiber stack: fixed, with a PROT_NONE guard page below it
  // so a runaway recursion faults instead of overwriting a neighbour. A
  // finished world's stacks stay mapped for the next world on its thread.
  static constexpr std::size_t kFiberStackBytes = std::size_t{256} << 10;

  explicit SimWorld(int num_processes);
  ~SimWorld();

  SimWorld(const SimWorld&) = delete;
  SimWorld& operator=(const SimWorld&) = delete;

  int num_processes() const { return static_cast<int>(procs_.size()); }

  // ---- Memory management (engine side, before or between steps) ----

  ObjectId create_object(ObjectKind kind, std::string name, std::uint64_t initial,
                         BoundSpec bound);

  std::size_t num_objects() const { return objects_.size(); }
  ObjectInfo object_info(ObjectId id) const;
  std::uint64_t object_value(ObjectId id) const;

  // Values of all objects — the register configuration reg(C) of Lemma 1.
  std::vector<std::uint64_t> memory_snapshot() const;

  // Encodes object values plus each process's poised operation (or an idle
  // marker) — the signature sig(C) of Lemma 3. Two configurations with equal
  // signature_key have every object equal and every process poised to execute
  // the same operation with the same parameters.
  std::vector<std::uint64_t> signature_key() const;

  // Per-process rolling hash of the process's own executed steps (operation
  // plus observed result), since the world was created. This is the local
  // history that — together with the sequence of methods invoked on the
  // process — determines its internal continuation, which signature_key
  // deliberately omits (two distinct program points can announce the same
  // PendingOp: a loop-top read and its validation re-read). Reordering
  // *independent* steps of other processes leaves every process's own
  // observation sequence unchanged, so the model checker folds these into
  // its DPOR state key: equal hashes + equal signature means equal futures.
  std::vector<std::uint64_t> observation_hashes() const;

  // ---- Process control (engine side only) ----

  // Starts `method` on process `pid` (which must be idle) and runs it until
  // it announces its first shared-memory step or completes. Invocation
  // itself consumes no shared-memory step, as in the model.
  MethodStatus invoke(ProcessId pid, std::function<void()> method);

  // Lets `pid` (which must be poised) execute exactly one shared-memory
  // step, then run local code until the next announcement or completion.
  MethodStatus step(ProcessId pid);

  // Steps `pid` until its current method completes (a pid-only execution,
  // as used for solo-termination arguments). Returns the number of steps.
  std::uint64_t run_to_completion(ProcessId pid);

  bool is_idle(ProcessId pid) const;
  bool all_idle() const;

  // ---- Crash events (engine side only) ----
  //
  // Kills process `pid` at the current configuration — the simulator's model
  // of SIGKILL. The process must be poised (it dies *instead of* executing
  // its announced step, leaving every previously published shared word — a
  // hazard guard, an epoch announcement — permanently in place) or idle.
  // A crashed process never runs again: poised() is nullopt, is_idle() is
  // false, invoke()/step() on it are engine errors. Deterministic: the call
  // returns only after the victim's fiber has fully unwound, so replaying
  // the same grant-plus-crash script reproduces the execution bit for bit.
  //
  // A method that lets any exception other than ExecutionAborted escape
  // (reclaim::LeaseRevoked from a self-fencing process) crashes its process
  // the same way: the engine call driving it returns MethodStatus::kCrashed.
  void crash(ProcessId pid);
  bool is_crashed(ProcessId pid) const;

  // The operation `pid` is poised to execute, if any.
  std::optional<PendingOp> poised(ProcessId pid) const;

  // Steps executed so far within pid's current (or most recent) method.
  std::uint64_t steps_in_method(ProcessId pid) const {
    return procs_[pid].steps_in_method;
  }

  // ---- Time and tracing ----

  // Monotonic logical clock: advanced by every step and by every history
  // event drawn via next_event_time(). Gives one total order over steps and
  // method invocation/response events.
  std::uint64_t now() const { return clock_; }
  std::uint64_t next_event_time() { return clock_++; }

  void set_trace_enabled(bool enabled) { trace_enabled_ = enabled; }
  void clear_trace() { trace_.clear(); }
  std::vector<StepRecord> trace_copy() const { return trace_; }
  std::uint64_t total_steps() const { return total_steps_; }

  // ---- Called from inside simulated processes (via platform handles) ----

  AccessResult access(const PendingOp& op);

 private:
  enum class Phase : std::uint8_t {
    kIdle,       // No method assigned.
    kRunning,    // The fiber is executing local code (the engine is
                 // suspended until the next announcement or completion).
    kAnnounced,  // Suspended at an announced shared-memory operation.
    kCrashed,    // Dead (crash event or self-fence); never runs again.
  };

  struct Proc {
    Phase phase = Phase::kIdle;
    // What the next resume carries: false = grant, true = abort (crash()
    // or teardown; the announced step is never applied).
    bool abort = false;
    std::function<void()> method;
    PendingOp pending;
    std::uint64_t steps_in_method = 0;
    std::uint64_t obs_hash = 0xcbf29ce484222325ull;  // FNV-1a offset basis.
    ucontext_t context{};
    char* stack = nullptr;  // kFiberStackBytes, above its guard page.
    void* tsan_fiber = nullptr;  // ThreadSanitizer builds only.
  };

  static void fiber_entry(unsigned world_hi, unsigned world_lo, int pid);
  void run_method(ProcessId pid);
  MethodStatus resume(ProcessId pid, bool abort);
  void yield(Proc& proc, bool final_switch);
  AccessResult apply(const PendingOp& op, ProcessId pid);

  std::vector<Proc> procs_;
  std::vector<ObjectInfo> objects_;

  std::uint64_t clock_ = 0;
  bool trace_enabled_ = true;
  std::vector<StepRecord> trace_;
  std::uint64_t total_steps_ = 0;

  ucontext_t engine_{};      // The engine's context while a process runs.
  ProcessId current_ = -1;   // The running process; -1 on the engine side.
  // The engine's stack bounds (AddressSanitizer) and fiber (ThreadSanitizer),
  // recorded at each switch into a process; unused in other builds.
  const void* engine_stack_ = nullptr;
  std::size_t engine_stack_size_ = 0;
  void* engine_fiber_ = nullptr;
};

}  // namespace aba::sim
