// ContentionProbe — sampled CAS-failure telemetry for a structure's
// protected CAS site(s).
//
// A failed CAS is the purest contention signal the structures emit: it
// happens exactly when another process moved the word between this
// process's read and its swing. The probe is a single padded relaxed
// counter bumped ONLY on the failure/retry path — the success path of an
// uncontended operation never touches it (a null-probe structure pays one
// predictable branch per failed attempt, nothing per success). The counter
// is ordinary process memory, not a Platform object: it takes no simulated
// steps, never perturbs deterministic schedules, and costs no shared steps
// in the paper's model — it is instrumentation for the adaptive width
// policy (structures/adaptive_sharded.h), which samples failure *rates*
// (failures per routed operation) to pick its operating point.
#pragma once

#include <atomic>
#include <cstdint>

#include "util/cacheline.h"

namespace aba::structures {

class ContentionProbe {
 public:
  void record_failure() {
    failures_.value.fetch_add(1, std::memory_order_relaxed);
  }
  std::uint64_t failures() const {
    return failures_.value.load(std::memory_order_relaxed);
  }

 private:
  util::Padded<std::atomic<std::uint64_t>> failures_;
};

}  // namespace aba::structures
