// NativePlatform<Policy> — Platform implementation over std::atomic, with a
// compile-time instrumentation policy.
//
// The paper's constructions are expressed over the Platform concept; this
// file supplies the real-hardware backend. Instrumentation (step counting,
// declared-width checking) is what lets native tests validate the paper's
// step-complexity and space claims, but it is a per-operation tax with no
// algorithmic content, so it is a *policy*, resolved at compile time:
//
//   NativePlatform<Counted> — the paper-faithful instrumented mode (the
//       default). Every shared-memory operation bumps a thread-local step
//       counter and asserts the stored value fits the declared width; all
//       orderings are seq_cst (the C++ ordering that realizes the paper's
//       interleaving semantics, per C++ Core Guidelines CP.100/CP.101);
//       retry loops use NullBackoff so step counts stay deterministic.
//
//   NativePlatform<Fast> — the zero-overhead fast path for benchmarks and
//       release use. Step counting and bound checking compile to nothing
//       (if constexpr, not runtime flags). Every standalone atomic word
//       (a head, an announce or hazard entry, an epoch counter) sits alone
//       on its own cache line (alignas(hardware_destructive_interference_
//       size)), so independent objects never false-share; a multi-word
//       record (a stack node, a ring slot) is isolated as a whole instead:
//       its words are unpadded and share the record's one line, and the
//       MS-queue node is packed, its two words and nothing else, four
//       nodes to a line (Record below, PlatformRecord in core/platform.h).
//       CAS retry loops in the algorithm layer pick up truncated
//       exponential backoff via PlatformBackoffT. Memory orderings are
//       seq_cst; FastRelaxed and FastAsymmetric (below) are the
//       acquire/release policies. No build option changes a policy.
//
// Every instantiation satisfies the Platform concept, so every algorithm in
// src/core and src/structures compiles unchanged against any of them.
#pragma once

#include <atomic>
#include <cstdint>
#include <type_traits>

#include "sim/types.h"
#include "util/assert.h"
#include "util/asymmetric_fence.h"
#include "util/backoff.h"
#include "util/cacheline.h"

namespace aba::native {

// Thread-local count of shared-memory operations executed through Counted
// native platform handles by this thread. (Fast handles never touch it.)
inline std::uint64_t& step_counter() {
  thread_local std::uint64_t counter = 0;
  return counter;
}

// Thread-local count of read-modify-write operations (CAS) specifically,
// a strict subset of step_counter(). Exists so tests can assert an
// algorithm's *shape*, not just its step total — RingStepCount proves
// SpscRing performs zero shared RMW per operation (reads and writes only)
// while MpmcRing necessarily pays CAS on its position words.
inline std::uint64_t& rmw_counter() {
  thread_local std::uint64_t counter = 0;
  return counter;
}

// Thread-local count of shared stores (Register/WritableCas write), the
// other interesting subset of step_counter(). With rmw_counter() it lets a
// ledger test pin a protocol's full shape — the deferred-epoch acceptance
// bound ("0 shared RMW, at most one shared store per op") is asserted
// against exactly this counter.
inline std::uint64_t& store_counter() {
  thread_local std::uint64_t counter = 0;
  return counter;
}

// ----------------------------------------------------------------- policies

// Paper-faithful instrumented mode: what the tests measure against.
struct Counted {
  static constexpr bool kCountSteps = true;
  static constexpr bool kCheckBounds = true;
  static constexpr bool kIsolateCacheLines = false;
  using Backoff = util::NullBackoff;
  using Fence = util::NoFence;  // The orderings carry StoreLoad.
  static constexpr std::memory_order kLoadOrder = std::memory_order_seq_cst;
  static constexpr std::memory_order kStoreOrder = std::memory_order_seq_cst;
  static constexpr std::memory_order kCasSuccessOrder = std::memory_order_seq_cst;
  static constexpr std::memory_order kCasFailureOrder = std::memory_order_seq_cst;
};

// Zero-overhead fast path: no counting, no checking, line-isolated words and
// records, backoff.
struct Fast {
  static constexpr bool kCountSteps = false;
  static constexpr bool kCheckBounds = false;
  static constexpr bool kIsolateCacheLines = true;
  using Backoff = util::ExpBackoff;
  using Fence = util::NoFence;
  static constexpr std::memory_order kLoadOrder = std::memory_order_seq_cst;
  static constexpr std::memory_order kStoreOrder = std::memory_order_seq_cst;
  static constexpr std::memory_order kCasSuccessOrder = std::memory_order_seq_cst;
  static constexpr std::memory_order kCasFailureOrder = std::memory_order_seq_cst;
};

// FastRelaxed — Fast with acquire/release orderings. Only for workloads
// whose soundness argument is single-word (Figure 3's LlscSingleCas: one
// CAS word is linearizable under any ordering) or publication-shaped (the
// structures layer: release-publish a node, acquire-read it). It lacks
// seq_cst's StoreLoad order, so the Figure 4 register, the register-array
// LL/SC and the hazard and epoch reclaimers refuse to compile on it.
struct FastRelaxed : Fast {
  static constexpr std::memory_order kLoadOrder = std::memory_order_acquire;
  static constexpr std::memory_order kStoreOrder = std::memory_order_release;
  static constexpr std::memory_order kCasSuccessOrder = std::memory_order_acq_rel;
  static constexpr std::memory_order kCasFailureOrder = std::memory_order_acquire;
};

// FastAsymmetric — FastRelaxed plus an asymmetric StoreLoad scheme for the
// hazard-pointer protocol (the one StoreLoad-shaped protocol that can carry
// it, because its heavy side has a natural amortized home: the scan).
//
// Orderings are acquire/release, so a guard publish is a plain release
// store; the StoreLoad edge the protocol needs (publish visible before the
// revalidation read) is restored pairwise by PlatformFenceT<P>: the
// reclaimer issues Fence::light() — a compiler barrier — after each
// publish, and Fence::heavy() — membarrier(2)/mprotect, see
// util/asymmetric_fence.h — before each scan. Soundness of everything
// *else* on this policy is the FastRelaxed publication argument.
//
// The Figure 4 announce-array register and the classic (eager) epoch
// reclaimer refuse to compile on this policy: their StoreLoad protocols
// have no scan-shaped heavy side to carry the fence, so they need seq_cst
// orderings (the Fast policy). The *deferred* epoch variant
// (DeferredEpochReclaimer) is the exception that makes epoch viable here:
// its advance path is scan-shaped and carries Fence::heavy() exactly like
// the hazard scan, so the per-op announce drops to a plain store +
// Fence::light().
struct FastAsymmetric : FastRelaxed {
  using Fence = util::AsymmetricFence;
};

namespace detail {

// The atomic word, optionally alone on its own cache line. The bound/name
// metadata of the owning handle lands before the aligned member, so the hot
// word shares its line with nothing that is ever written after construction.
template <bool Isolate>
struct WordStorage {
  std::atomic<std::uint64_t> value;
};

template <>
struct alignas(util::kCacheLineSize) WordStorage<true> {
  std::atomic<std::uint64_t> value;
};

// Bound metadata is stored only when the policy checks it: a Fast handle
// carries nothing but its word, so an isolated object occupies exactly one
// cache line instead of two, and a record's words pack back to back.
struct NoBound {};

template <class Policy>
using BoundMember =
    std::conditional_t<Policy::kCheckBounds, sim::BoundSpec, NoBound>;

// The empty base of a multi-word record (PlatformRecord, core/platform.h).
// Under an isolating policy it aligns the whole record to a line, so the
// record's unpadded words share that line with nothing else.
struct NoRecordAlign {};
struct alignas(util::kCacheLineSize) LineRecordAlign {};

}  // namespace detail

template <class Policy = Counted>
struct NativePlatform {
  struct Env {};

  using Backoff = typename Policy::Backoff;
  using Fence = typename Policy::Fence;
  // Only seq_cst orders a write before a later read of another word.
  static constexpr bool kOrdersStoreLoad =
      Policy::kLoadOrder == std::memory_order_seq_cst &&
      Policy::kStoreOrder == std::memory_order_seq_cst &&
      Policy::kCasSuccessOrder == std::memory_order_seq_cst &&
      Policy::kCasFailureOrder == std::memory_order_seq_cst;

  // One platform word. Register, Cas and WritableCas differ only in which
  // of write() and cas() they offer; kIsolated puts the word alone on a
  // line.
  template <bool kIsolated, bool kWritable, bool kCasable>
  class Word {
   public:
    Word(Env&, const char*, std::uint64_t initial, sim::BoundSpec bound) {
      if constexpr (Policy::kCheckBounds) {
        bound_ = bound;
        ABA_CHECK(bound_.fits(initial));  // One-time: never compiled out.
      }
      word_.value.store(initial, std::memory_order_relaxed);
    }

    std::uint64_t read() {
      if constexpr (Policy::kCountSteps) ++step_counter();
      return word_.value.load(Policy::kLoadOrder);
    }

    void write(std::uint64_t value)
      requires kWritable
    {
      if constexpr (Policy::kCheckBounds) ABA_ASSERT(bound_.fits(value));
      if constexpr (Policy::kCountSteps) {
        ++step_counter();
        ++store_counter();
      }
      word_.value.store(value, Policy::kStoreOrder);
    }

    bool cas(std::uint64_t expected, std::uint64_t desired)
      requires kCasable
    {
      if constexpr (Policy::kCheckBounds) ABA_ASSERT(bound_.fits(desired));
      if constexpr (Policy::kCountSteps) {
        ++step_counter();
        ++rmw_counter();
      }
      return word_.value.compare_exchange_strong(expected, desired,
                                                 Policy::kCasSuccessOrder,
                                                 Policy::kCasFailureOrder);
    }

   private:
    [[no_unique_address]] detail::BoundMember<Policy> bound_;
    detail::WordStorage<kIsolated> word_;
  };

  using Register = Word<Policy::kIsolateCacheLines, true, false>;
  using Cas = Word<Policy::kIsolateCacheLines, false, true>;
  using WritableCas = Word<Policy::kIsolateCacheLines, true, true>;

  // The words of a multi-word record (a queue or stack node, a ring slot):
  // never padded one by one. Under an isolating policy a record deriving
  // from Base, not its word, takes the line, and a record without Base is
  // its bare words; under Counted these are exactly the standalone types.
  struct Record {
    using Register = Word<false, true, false>;
    using Cas = Word<false, false, true>;
    using WritableCas = Word<false, true, true>;
    using Base = std::conditional_t<Policy::kIsolateCacheLines,
                                    detail::LineRecordAlign,
                                    detail::NoRecordAlign>;
  };
};

}  // namespace aba::native
