// TradeoffAuditor — the measurable core of the time-space tradeoff
// (Lemmas 2-3, Theorem 1(b)/(c), Corollary 1, Appendix B.2).
//
// Theorem 1(b)/(c): a deterministic wait-free single-writer 1-bit
// ABA-detecting register from m bounded CAS objects and registers with
// worst-case step complexity t satisfies m*t >= n-1 (and 2mt >= n-1 when the
// objects are writable CAS). The proof constructs a reachable configuration
// with a P-successful schedule in which every reader is poised somewhere,
// while Lemma 2 caps how many processes can be poised on any single object
// at t (per operation class); counting then yields the bound.
//
// The auditor measures, for any ABA-detecting register plugged in as a
// harness::FixtureFactory (WeakWrite is process 0's DWrite(0), WeakRead is
// a reader's DRead and its flag):
//   m                — number of base objects and their kinds/boundedness,
//   t                — worst-case observed step complexity of WeakRead and
//                      WeakWrite under the round-robin contention adversary
//                      (harness::drive_round_robin at quantum 1; every
//                      process runs kOpsPerProcess ops),
//   poise census     — the largest number of processes simultaneously poised
//                      to access one object (split into Write/CAS classes),
//                      over the configuration after every grant of that
//                      run — the quantity WCov/CCov that Lemma 3(iii)
//                      bounds by t,
// and evaluates the paper's inequality. Bounded implementations must come
// out consistent (product >= n-1); unbounded ones (Moir-style tags) violate
// the numeric inequality, which is precisely the paper's separation between
// bounded and unbounded base objects.
#pragma once

#include <cstdint>
#include <string>

#include "harness/harness.h"

namespace aba::lowerbound {

struct TradeoffReport {
  int n = 0;
  int num_objects = 0;  // m
  bool all_bounded = true;
  bool has_writable_cas = false;
  bool has_cas = false;
  int num_registers = 0;
  int num_cas_objects = 0;

  std::uint64_t worst_read_steps = 0;
  std::uint64_t worst_write_steps = 0;
  std::uint64_t t = 0;  // max(worst_read_steps, worst_write_steps)

  // Maximum simultaneous poise observed on a single object.
  std::uint64_t max_write_poise = 0;  // max |WCov(C, R)| over C, R.
  std::uint64_t max_cas_poise = 0;    // max |CCov(C, R)| over C, R.
  std::uint64_t max_total_poise = 0;

  // m * t, doubled when writable CAS objects are in play (Theorem 1(c)).
  std::uint64_t time_space_product = 0;
  std::uint64_t lower_bound = 0;  // n - 1.
  // For bounded implementations the product must dominate the bound.
  bool consistent_with_theorem1 = false;

  std::string summary() const;
};

class TradeoffAuditor {
 public:
  // Ops per process in the audited run: process 0 loops WeakWrite, the
  // readers loop WeakRead (the proofs' program).
  static constexpr int kOpsPerProcess = 24;

  TradeoffAuditor(int n, harness::FixtureFactory factory);

  TradeoffReport audit();

 private:
  int n_;
  harness::FixtureFactory factory_;
};

}  // namespace aba::lowerbound
