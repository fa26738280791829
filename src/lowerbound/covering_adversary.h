// CoveringAdversary — Lemma 1's covering construction (Figure 1), executable.
//
// Theorem 1(a): any solo-terminating single-writer 1-bit ABA-detecting
// register from m bounded *registers* needs m >= n-1. The proof is an
// inductive adversary: given k-1 covered registers it either extends the
// cover with reader p_k, or — if p_k can complete a WeakRead writing only
// inside the covered set R — it uses the pigeonhole principle on register
// configurations reg(D_i) to build two configurations that p_k cannot
// distinguish, one p_k-clean and one p_k-dirty, contradicting correctness.
//
// This class runs that construction against ANY ABA-detecting register
// plugged in as a harness::FixtureFactory — WeakWrite is process 0's
// DWrite(0) (a constant: the bound is about a single-writer 1-bit register,
// so the implementation can't lean on value changes), WeakRead is a
// reader's DRead, and its flag is read back from the history:
//   * against a correct implementation (e.g. Figure 4), every probe escapes
//     the covered set and the adversary reports the full cover of n-1
//     distinct registers — the space lower bound "witnessed";
//   * against an under-provisioned implementation (e.g. the naive
//     bounded-tag register with m = 1), probes never escape, a register-
//     configuration repeat appears, and the adversary emits a concrete
//     witness execution in which a WeakRead returns the wrong flag — the
//     proof's contradiction materialized as a failing run;
//   * against an implementation using *unbounded* registers, configurations
//     never repeat and the adversary reports that boundedness failed — the
//     separation between bounded and unbounded base objects, observed.
//
// Configurations are identified with the scripts (action sequences) that
// reach them from the initial configuration; probes run on throwaway replays
// so the main chain is never perturbed — exactly the proof's use of
// Exec(C, sigma) on chosen schedules.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness/harness.h"
#include "sim/sim_world.h"
#include "spec/history.h"

namespace aba::lowerbound {

// One driver action; a script is a replayable sequence of these.
struct Act {
  enum class Kind : std::uint8_t { kInvokeWrite, kInvokeRead, kStep };
  Kind kind;
  int pid = 0;
};

struct CoveringReport {
  // Outcome.
  bool violation_found = false;
  bool cover_reached = false;
  bool budget_exhausted = false;   // Iteration/replay budget hit (suggests
                                   // unbounded registers or too-small budget).
  int max_cover = 0;               // Largest set of distinct covered registers.
  int target_cover = 0;

  // Violation witness, when found.
  std::string violation_detail;
  bool clean_flag = false;  // Flag returned from the p-clean configuration.
  bool dirty_flag = false;  // Flag returned from the p-dirty configuration.

  // Statistics.
  std::uint64_t replays = 0;
  std::uint64_t chain_iterations = 0;
  std::uint64_t probes = 0;

  // Human-readable construction trace (Figure 1 narrated).
  std::vector<std::string> log;
};

class CoveringAdversary {
 public:
  struct Options {
    int max_iterations_per_level = 128;  // Chain length before giving up.
    std::uint64_t max_replays = 50000;
    bool verbose_log = true;
  };

  CoveringAdversary(int n, harness::FixtureFactory factory, Options options);
  CoveringAdversary(int n, harness::FixtureFactory factory)
      : CoveringAdversary(n, std::move(factory), Options()) {}

  // Runs the construction aiming for a cover of `target_k` distinct
  // registers (Theorem 1(a) uses target_k = n-1).
  CoveringReport run(int target_k);

 private:
  struct Runner {
    std::unique_ptr<sim::SimWorld> world;
    std::unique_ptr<spec::History> history;
    std::unique_ptr<harness::Invoker> invoker;

    // The flag of `pid`'s last completed WeakRead.
    bool last_read_flag(int pid) const;
  };

  Runner make_runner() const;
  void apply(Runner& runner, const Act& act) const;
  Runner replay(const std::vector<Act>& script) const;

  // Recursive inductive step; extends `script` in place on `live`.
  // Returns true iff k registers are covered by readers 1..k at the end of
  // `script` (with process 0 idle); false means a violation or budget stop
  // was recorded in report_.
  bool extend_cover(Runner& live, std::vector<Act>& script, int k);

  struct ProbeResult {
    bool escaped = false;           // Poised to write outside the cover.
    std::vector<Act> path;          // Actions taken by the probe.
  };
  // Runs reader `probe_pid` solo from the configuration reached by `script`,
  // stopping when it is poised to write outside `covered` or completes.
  ProbeResult probe(const std::vector<Act>& script, int probe_pid,
                    const std::vector<sim::ObjectId>& covered);

  void log(std::string line);

  int n_;
  harness::FixtureFactory factory_;
  Options options_;
  CoveringReport report_;
};

}  // namespace aba::lowerbound
