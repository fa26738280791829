// E7 — Section 1 (tagging): ABA escapes under bounded tags, quantified.
//
// "While using bounded tags does not completely avoid the ABA problem
//  (because tag values may wrap around), it has been argued that an
//  erroneous algorithm execution due to an unexpected ABA becomes very
//  unlikely. From a theoretical perspective this is unsatisfactory."
//
// Reproductions:
//   a) exact escape threshold: with a k-bit tag, a reader that stalls
//      across exactly 2^k same-value writes observes an identical word and
//      misses every one of them; the measured minimal write count matches
//      2^k for every k;
//   b) random-interference escape probability: a reader samples, a writer
//      performs a random number of writes, the reader re-samples; the
//      measured miss rate tracks the analytic 1/2^k.
//   c) the unbounded-tag register never escapes (the paper's trivial
//      construction as the control).
#include <limits>

#include "bench_common.h"
#include "core/aba_register_bounded_tag_naive.h"
#include "core/aba_register_unbounded_tag.h"
#include "harness/adapters.h"
#include "sim/schedule_search.h"
#include "sim/sim_platform.h"
#include "util/rng.h"

namespace {

using namespace aba;
using SimP = sim::SimPlatform;

// The E7 routine on a fresh two-process fixture: reader 1 DReads, writer 0
// completes `writes` same-value DWrites, reader 1 DReads again. Returns the
// second DRead's flag (false = the writes escaped detection).
template <class Register>
bool flag_after_writes(const typename Register::Options& options,
                       std::uint64_t writes) {
  constexpr auto kUntilDone = std::numeric_limits<std::uint64_t>::max();
  std::vector<harness::WorkloadOp> workload{{1, spec::Method::kDRead, 0}};
  workload.insert(workload.end(), writes, {0, spec::Method::kDWrite, 0});
  search::ScheduleRunner runner(
      search::harness_fixture(harness::aba_reg_factory<Register>(2, options),
                              search::SpecKind::kAbaRegister)(2),
      std::move(workload), search::retired_unreclaimed_cost);
  runner.fixture().world->set_trace_enabled(false);
  runner.grant_while_runnable(1, kUntilDone);
  runner.grant_while_runnable(0, kUntilDone);
  runner.append_op({1, spec::Method::kDRead, 0});
  runner.grant_while_runnable(1, kUntilDone);
  return spec::dread_flag(runner.fixture().history->completed_ops().back().ret);
}

using NaiveTag = core::AbaRegisterBoundedTagNaive<SimP>;

// Minimal number of same-value writes between two DReads after which the
// second DRead reports flag = false (an escape). Returns 0 if no escape
// occurs up to `limit`.
std::uint64_t minimal_escape_writes(unsigned tag_bits, std::uint64_t limit) {
  for (std::uint64_t writes = 1; writes <= limit; ++writes) {
    if (!flag_after_writes<NaiveTag>(
            {.value_bits = 1, .tag_bits = tag_bits, .initial_value = 0},
            writes)) {
      return writes;  // Escape: the writes went unnoticed.
    }
  }
  return 0;
}

// Empirical escape probability with a uniformly random number of writes in
// [1, 4 * 2^k] between the two reads.
double escape_rate(unsigned tag_bits, int trials, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  int escapes = 0;
  for (int trial = 0; trial < trials; ++trial) {
    const std::uint64_t writes = 1 + rng.below(4ULL << tag_bits);
    if (!flag_after_writes<NaiveTag>(
            {.value_bits = 1, .tag_bits = tag_bits, .initial_value = 0},
            writes)) {
      ++escapes;
    }
  }
  return static_cast<double>(escapes) / trials;
}

void print_tables() {
  bench::banner("E7", "Bounded-tag ABA escapes (Section 1, tagging critique)");

  util::Table threshold({"tag bits", "2^k (analytic)", "minimal escape writes",
                         "match"});
  for (unsigned k : {1u, 2u, 3u, 4u, 5u, 6u, 8u}) {
    const std::uint64_t measured = minimal_escape_writes(k, 1ULL << (k + 1));
    threshold.add_row({util::Table::fmt(static_cast<std::uint64_t>(k)),
                       util::Table::fmt(std::uint64_t{1} << k),
                       util::Table::fmt(measured),
                       measured == (std::uint64_t{1} << k) ? "yes" : "NO"});
  }
  threshold.print();

  bench::note("");
  util::Table rates({"tag bits", "analytic escape rate (1/2^k)",
                     "measured escape rate", "trials"});
  const int trials = 400;
  for (unsigned k : {1u, 2u, 3u, 4u, 5u}) {
    const double measured = escape_rate(k, trials, 99 + k);
    char analytic[32];
    std::snprintf(analytic, sizeof analytic, "%.4f", 1.0 / (1ULL << k));
    rates.add_row({util::Table::fmt(static_cast<std::uint64_t>(k)), analytic,
                   util::Table::fmt(measured, 4),
                   util::Table::fmt(static_cast<std::uint64_t>(trials))});
  }
  rates.print();

  // Control: the unbounded-tag register across the worst threshold above.
  const bool flag = flag_after_writes<core::AbaRegisterUnboundedTag<SimP>>(
      {.value_bits = 1}, 1024);
  bench::note(std::string("\ncontrol: unbounded-tag register after 1024 "
                          "same-value writes -> flag = ") +
              (flag ? "true (never escapes)" : "FALSE (escape?!)"));
  bench::note(
      "Claim shape: escapes happen at exactly 2^k interposed writes and at\n"
      "rate ~1/2^k under random interference — likely-correct is not\n"
      "correct, which is why the paper asks for worst-case guarantees.");
}

void BM_EscapeSearch(benchmark::State& state) {
  const unsigned k = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(minimal_escape_writes(k, 1ULL << (k + 1)));
  }
}
BENCHMARK(BM_EscapeSearch)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_tables();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
