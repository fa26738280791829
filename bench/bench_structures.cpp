// E8 — Section 1 (applications): lock-free structures under the different
// ABA regimes, compared natively.
//
// Since the reclamation rework the regimes are one orthogonal axis
// (src/reclaim/) instead of bespoke implementations. Stack rows:
//   * Treiber + bounded tag + immediate reuse (TaggedReclaimer — the
//     practice the paper critiques),
//   * the same stack under HazardPointerReclaimer and EpochBasedReclaimer
//     (deferred reuse: Michael's application-specific answer, and its
//     cheaper-dereference/weaker-space-bound epoch sibling),
//   * Treiber + LL/SC head (Moir-style unbounded-tag LL/SC — the object the
//     paper's constructions provide from bounded primitives),
//   * a mutex-guarded stack (the non-lock-free control),
// plus the Michael-Scott queue under the tagged and hazard reclaimers.
// The LeakyReclaimer floor is measured in E9 (bench_throughput_matrix),
// whose duration-based harness handles its drain-limited cells; a
// google-benchmark loop would just spin on an exhausted pool.
//
// Ring rows (structures/ring_buffer.h): the bounded rings whose per-slot
// sequence words are the ABA answer — SPSC (zero shared RMW per op,
// spin-to-transfer pairs), the Vyukov MPMC ring as push;pop pairs directly
// comparable to the stack/queue rows, and try-semantics role-asymmetric
// shapes (MPSC, 1-producer fan-out, bursty producer, two-ring feed-handler
// pipeline) where an iteration is one attempt.
//
// Correctness of each flavor under interleaving is established separately
// by the simulator tests (E8 is about relative cost, not correctness).
#include <chrono>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/llsc_unbounded_tag.h"
#include "native/native_platform.h"
#include "reclaim/epoch.h"
#include "reclaim/hazard_pointer.h"
#include "reclaim/tagged.h"
#include "structures/ms_queue.h"
#include "structures/ring_buffer.h"
#include "structures/treiber_stack.h"

namespace {

using namespace aba;
using NativeP = native::NativePlatform<>;

native::NativePlatform<>::Env g_env;

constexpr int kMaxThreads = 4;
constexpr int kNodesPerThread = 64;

// ---- candidates ----

template <class R>
using ReclaimedStack =
    structures::TreiberStack<NativeP, structures::TaggedCasHead<NativeP>, R>;

template <class R>
ReclaimedStack<R>& reclaimed_stack() {
  static ReclaimedStack<R> stack(
      g_env, kMaxThreads,
      std::make_unique<structures::TaggedCasHead<NativeP>>(g_env, kMaxThreads),
      ReclaimedStack<R>::partition(kMaxThreads, kNodesPerThread));
  return stack;
}

struct LlscStackBundle {
  using Llsc = core::LlscUnboundedTag<NativeP>;
  LlscStackBundle()
      : llsc(g_env, kMaxThreads,
             {.value_bits = 16,
              .initial_value = structures::kNullIndex,
              .initially_linked = false}),
        stack(g_env, kMaxThreads, std::make_unique<structures::LlscHead<Llsc>>(llsc),
              structures::TreiberStack<NativeP, structures::LlscHead<Llsc>>::
                  partition(kMaxThreads, kNodesPerThread)) {}
  Llsc llsc;
  structures::TreiberStack<NativeP, structures::LlscHead<Llsc>> stack;
};

LlscStackBundle& llsc_stack() {
  static LlscStackBundle bundle;
  return bundle;
}

class MutexStack {
 public:
  void push(int, std::uint64_t v) {
    std::lock_guard<std::mutex> lock(mu_);
    values_.push_back(v);
  }
  std::optional<std::uint64_t> pop(int) {
    std::lock_guard<std::mutex> lock(mu_);
    if (values_.empty()) return std::nullopt;
    const std::uint64_t v = values_.back();
    values_.pop_back();
    return v;
  }

 private:
  std::mutex mu_;
  std::vector<std::uint64_t> values_;
};

MutexStack& mutex_stack() {
  static MutexStack stack;
  return stack;
}

template <class R>
structures::MsQueue<NativeP, R>& ms_queue() {
  static structures::MsQueue<NativeP, R> queue(g_env, kMaxThreads,
                                               kNodesPerThread);
  return queue;
}

// ---- benchmarks: one push+pop pair per iteration ----

template <class R>
void BM_Stack_Reclaimed(benchmark::State& state) {
  auto& stack = reclaimed_stack<R>();
  const int pid = state.thread_index();
  for (auto _ : state) {
    stack.push(pid, 42);
    benchmark::DoNotOptimize(stack.pop(pid));
  }
}
BENCHMARK_TEMPLATE(BM_Stack_Reclaimed, reclaim::TaggedReclaimer<NativeP>)
    ->Name("BM_Stack_TaggedCas")
    ->Threads(1)
    ->Threads(2)
    ->Threads(4);
BENCHMARK_TEMPLATE(BM_Stack_Reclaimed, reclaim::HazardPointerReclaimer<NativeP>)
    ->Name("BM_Stack_HazardReclaimer")
    ->Threads(1)
    ->Threads(2)
    ->Threads(4);
BENCHMARK_TEMPLATE(BM_Stack_Reclaimed, reclaim::EpochBasedReclaimer<NativeP>)
    ->Name("BM_Stack_EpochReclaimer")
    ->Threads(1)
    ->Threads(2)
    ->Threads(4);

void BM_Stack_LlscHead(benchmark::State& state) {
  auto& stack = llsc_stack().stack;
  const int pid = state.thread_index();
  for (auto _ : state) {
    stack.push(pid, 42);
    benchmark::DoNotOptimize(stack.pop(pid));
  }
}
BENCHMARK(BM_Stack_LlscHead)->Threads(1)->Threads(2)->Threads(4);

void BM_Stack_Mutex(benchmark::State& state) {
  auto& stack = mutex_stack();
  const int pid = state.thread_index();
  for (auto _ : state) {
    stack.push(pid, 42);
    benchmark::DoNotOptimize(stack.pop(pid));
  }
}
BENCHMARK(BM_Stack_Mutex)->Threads(1)->Threads(2)->Threads(4);

template <class R>
void BM_Queue_MichaelScott(benchmark::State& state) {
  auto& queue = ms_queue<R>();
  const int pid = state.thread_index();
  for (auto _ : state) {
    queue.enqueue(pid, 42);
    benchmark::DoNotOptimize(queue.dequeue(pid));
  }
}
BENCHMARK_TEMPLATE(BM_Queue_MichaelScott, reclaim::TaggedReclaimer<NativeP>)
    ->Name("BM_Queue_MichaelScott")
    ->Threads(1)
    ->Threads(2)
    ->Threads(4);
BENCHMARK_TEMPLATE(BM_Queue_MichaelScott, reclaim::HazardPointerReclaimer<NativeP>)
    ->Name("BM_Queue_MichaelScott_Hazard")
    ->Threads(1)
    ->Threads(2)
    ->Threads(4);

// ---- benchmarks: the ring family ----

constexpr std::size_t kRingCapacity = 1024;

structures::SpscRing<NativeP>& spsc_ring() {
  static structures::SpscRing<NativeP> ring(g_env, kMaxThreads, kRingCapacity);
  return ring;
}

structures::MpscRing<NativeP>& mpsc_ring() {
  static structures::MpscRing<NativeP> ring(g_env, kMaxThreads, kRingCapacity);
  return ring;
}

structures::MpmcRing<NativeP>& mpmc_ring() {
  static structures::MpmcRing<NativeP> ring(g_env, kMaxThreads, kRingCapacity);
  return ring;
}

structures::MpmcRing<NativeP>& fanout_ring() {
  static structures::MpmcRing<NativeP> ring(g_env, kMaxThreads, kRingCapacity);
  return ring;
}

structures::MpmcRing<NativeP>& burst_ring() {
  static structures::MpmcRing<NativeP> ring(g_env, kMaxThreads, kRingCapacity);
  return ring;
}

// Spin helper for the transfer-semantics rows: every counted iteration is
// one successful op, so the row prices a real hand-off (the yield keeps a
// 1-core host from spinning a whole quantum against an unscheduled peer).
template <class Op>
void spin_until(Op&& op) {
  for (int spins = 0; !op(); ++spins) {
    if ((spins & 63) == 63) std::this_thread::yield();
  }
}

// 1 producer (thread 0), 1 consumer: the zero-shared-RMW fast path. Both
// threads run the same iteration count, so pushes and pops stay balanced
// and the spin loops always make progress.
void BM_Ring_Spsc(benchmark::State& state) {
  auto& ring = spsc_ring();
  const int pid = state.thread_index();
  if (pid == 0) {
    std::uint64_t v = 0;
    for (auto _ : state) {
      spin_until([&] { return ring.try_push(pid, ++v); });
    }
  } else {
    for (auto _ : state) {
      std::optional<std::uint64_t> out;
      spin_until([&] {
        out = ring.try_pop(pid);
        return out.has_value();
      });
      benchmark::DoNotOptimize(out);
    }
  }
}
BENCHMARK(BM_Ring_Spsc)->Threads(2);

// The Vyukov ring as push;pop pairs per thread — the row directly
// comparable to the stack/queue pair rows above (what one op costs when
// every thread plays both roles).
void BM_Ring_MpmcPair(benchmark::State& state) {
  auto& ring = mpmc_ring();
  const int pid = state.thread_index();
  std::uint64_t v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.try_push(pid, ++v));
    benchmark::DoNotOptimize(ring.try_pop(pid));
  }
}
BENCHMARK(BM_Ring_MpmcPair)->Threads(1)->Threads(2)->Threads(4);

// Role-asymmetric rows: an iteration is one try-attempt (refusals count),
// so unbalanced role populations cannot deadlock the fixed per-thread
// iteration counts.

// Thread 0 is the single consumer (zero RMW per pop); the rest CAS tail.
void BM_Ring_MpscTry(benchmark::State& state) {
  auto& ring = mpsc_ring();
  const int pid = state.thread_index();
  if (pid == 0) {
    for (auto _ : state) benchmark::DoNotOptimize(ring.try_pop(pid));
  } else {
    std::uint64_t v = 0;
    for (auto _ : state) benchmark::DoNotOptimize(ring.try_push(pid, ++v));
  }
}
BENCHMARK(BM_Ring_MpscTry)->Threads(2)->Threads(4);

// 1 producer feeding n-1 consumers (feed fan-out).
void BM_Ring_Fanout(benchmark::State& state) {
  auto& ring = fanout_ring();
  const int pid = state.thread_index();
  if (pid == 0) {
    std::uint64_t v = 0;
    for (auto _ : state) benchmark::DoNotOptimize(ring.try_push(pid, ++v));
  } else {
    for (auto _ : state) benchmark::DoNotOptimize(ring.try_pop(pid));
  }
}
BENCHMARK(BM_Ring_Fanout)->Threads(2)->Threads(4);

// Load spikes: the producer emits 64-op bursts separated by busy-wait
// quiet gaps; consumers see the queueing the bursts cause.
void BM_Ring_Burst(benchmark::State& state) {
  auto& ring = burst_ring();
  const int pid = state.thread_index();
  if (pid == 0) {
    std::uint64_t v = 0;
    std::uint64_t i = 0;
    for (auto _ : state) {
      benchmark::DoNotOptimize(ring.try_push(pid, ++v));
      if ((++i & 63) == 0) {
        const auto until = std::chrono::steady_clock::now() +
                           std::chrono::microseconds(20);
        while (std::chrono::steady_clock::now() < until) {
        }
      }
    }
  } else {
    for (auto _ : state) benchmark::DoNotOptimize(ring.try_pop(pid));
  }
}
BENCHMARK(BM_Ring_Burst)->Threads(2)->Threads(4);

// feed → handler → gateway over two chained SPSC rings (each ring keeps
// single-writer roles: thread 0 feeds, thread 1 transforms, thread 2
// drains).
struct PipelineRings {
  PipelineRings()
      : feed(g_env, kMaxThreads, kRingCapacity),
        out(g_env, kMaxThreads, kRingCapacity) {}
  structures::SpscRing<NativeP> feed;
  structures::SpscRing<NativeP> out;
};

PipelineRings& pipeline_rings() {
  static PipelineRings rings;
  return rings;
}

void BM_Ring_Pipeline(benchmark::State& state) {
  auto& rings = pipeline_rings();
  const int pid = state.thread_index();
  if (pid == 0) {
    std::uint64_t v = 0;
    for (auto _ : state) {
      benchmark::DoNotOptimize(rings.feed.try_push(pid, ++v));
    }
  } else if (pid == 1) {
    for (auto _ : state) {
      const std::optional<std::uint64_t> v = rings.feed.try_pop(pid);
      if (v.has_value()) {
        benchmark::DoNotOptimize(rings.out.try_push(pid, *v + 1));
      }
    }
  } else {
    for (auto _ : state) benchmark::DoNotOptimize(rings.out.try_pop(pid));
  }
}
BENCHMARK(BM_Ring_Pipeline)->Threads(3);

}  // namespace

int main(int argc, char** argv) {
  bench::banner("E8",
                "Lock-free structures under the ABA-protection regimes "
                "(native throughput)");
  bench::note(
      "Stacks: bounded-tag CAS head under the tagged/hazard/epoch reclaimers\n"
      "(one orthogonal axis, src/reclaim/), vs LL/SC head and a mutex;\n"
      "plus the Michael-Scott queue under the tagged and hazard\n"
      "reclaimers. Expected shape: all lock-free flavors\n"
      "are within a small factor of each other; the LL/SC head pays its\n"
      "extra link/validate steps; hazard pays publish+revalidate per\n"
      "dereference; epoch pays one announce per op and amortized advance\n"
      "scans; the mutex collapses under contention on multicore machines\n"
      "(on a 1-core host the gap narrows since there is no true\n"
      "parallelism). The leaky floor lives in E9, whose duration-based\n"
      "harness handles drain-limited cells.\n"
      "Ring rows: SPSC hand-offs cost no shared RMW at all; the MPMC pair\n"
      "row prices the per-slot-sequence CAS discipline against the tagged\n"
      "stack/queue rows; the try-semantics rows (mpsc/fanout/burst/\n"
      "pipeline) shape role-asymmetric and bursty traffic. Percentile\n"
      "latency for the same shapes lives in E9's ring cells.");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
