// Asymmetric fences — move the StoreLoad cost off the hot path.
//
// The hazard-pointer protocol needs a StoreLoad edge per guarded read:
// the guard publish (a store) must be globally visible before the source
// revalidation (a load of a different word). Realized with seq_cst
// orderings, every publish pays a full fence (MFENCE / XCHG on x86) on the
// hottest path in the repository — the per-op tax ISSUE-era BENCH_native
// numbers show as hazard ~1.5x slower than tagged on contended pops.
//
// The asymmetric construction makes the pair cheap on the side that runs
// per operation and expensive on the side that runs per *scan* (already
// amortized over a batch of retires):
//
//   light()  — reader side, after the guard publish: a compiler barrier
//              only. No hardware fence is emitted; the store may still sit
//              in the store buffer when the revalidation load executes.
//   heavy()  — scanner side, before reading the hazard slots: forces a
//              full memory barrier on every thread of the process via
//              membarrier(MEMBARRIER_CMD_PRIVATE_EXPEDITED) (an IPI to
//              each running CPU), so for every reader either its guard
//              publish is visible to this scan, or the reader's
//              revalidation load is ordered after the retirer's unlink and
//              must observe the moved source word and retry.
//
// Fallback ladder, probed once per process at first use:
//   membarrier(PRIVATE_EXPEDITED)   — Linux >= 4.14, the intended scheme;
//   mprotect page-permission flip   — downgrading a mapped page forces a
//                                     TLB-shootdown IPI to every CPU
//                                     running this process (the classic
//                                     pre-membarrier trick);
//   seq_cst thread fences both sides — the portable fallback; light()
//                                     becomes a real fence and the scheme
//                                     degenerates to the symmetric one.
//
// Compile-time gating: the asymmetric fast side is emitted on Linux and
// NOT under ThreadSanitizer — TSan does not model membarrier's cross-thread
// ordering, so under TSan both sides are plain seq_cst fences and the
// protocol is exactly the symmetric one it can check. No build option
// selects it: a platform opts in by type (NativePlatform<FastAsymmetric>),
// and NativePlatform<Fast> is the symmetric, seq_cst side.
#pragma once

#include <atomic>

#if defined(__SANITIZE_THREAD__)
#define ABA_DETAIL_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define ABA_DETAIL_TSAN 1
#endif
#endif

#if defined(__linux__) && !defined(ABA_DETAIL_TSAN)
#define ABA_DETAIL_ASYM_FENCE_COMPILED 1
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace aba::util {

// Platforms without a Fence member typedef get this: both sides free. Used
// where the memory orderings themselves carry the StoreLoad edge (seq_cst
// policies) or where steps are simulated (SimPlatform).
struct NoFence {
  static void light() {}
  static void heavy() {}
  static constexpr const char* scheme_name() { return "none"; }
};

namespace detail {

// Process-wide count of heavy() executions. The heavy side is a syscall (or
// a TLB shootdown), so one relaxed increment is noise; what it buys is a
// ledger for the amortization claims — a test or bench can assert that N
// operations through a batched consumer (the hazard scan, the deferred-epoch
// advance) paid at most N / batch heavy fences.
inline std::atomic<std::uint64_t>& heavy_fence_counter() {
  static std::atomic<std::uint64_t> counter{0};
  return counter;
}

}  // namespace detail

inline std::uint64_t heavy_fence_count() {
  return detail::heavy_fence_counter().load(std::memory_order_relaxed);
}

#ifdef ABA_DETAIL_ASYM_FENCE_COMPILED

namespace detail {

// Local copies of the membarrier ABI constants (stable kernel ABI; avoids
// requiring <linux/membarrier.h> at build time).
inline constexpr int kMembarrierCmdQuery = 0;
inline constexpr int kMembarrierCmdPrivateExpedited = 1 << 3;
inline constexpr int kMembarrierCmdRegisterPrivateExpedited = 1 << 4;

enum class FenceScheme { kMembarrier, kMprotect, kSeqCstFallback };

inline long membarrier(int cmd) {
#ifdef __NR_membarrier
  return ::syscall(__NR_membarrier, cmd, 0, 0);
#else
  return -1;
#endif
}

// The page whose permission flip carries the mprotect fallback. Kept
// resident and written after every flip so the next heavy() has a mapping
// to shoot down.
inline void* mprotect_page() {
  static void* page = [] {
    void* p = ::mmap(nullptr, 4096, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) return static_cast<void*>(nullptr);
    *static_cast<volatile char*>(p) = 1;  // Fault it in.
    return p;
  }();
  return page;
}

inline FenceScheme detect_scheme() {
  const long supported = membarrier(kMembarrierCmdQuery);
  if (supported > 0 && (supported & kMembarrierCmdPrivateExpedited) != 0 &&
      membarrier(kMembarrierCmdRegisterPrivateExpedited) == 0) {
    return FenceScheme::kMembarrier;
  }
  if (mprotect_page() != nullptr) return FenceScheme::kMprotect;
  return FenceScheme::kSeqCstFallback;
}

// Probed once; the guard-variable check this leaves on light() is a
// predictable load+branch, not a fence.
inline FenceScheme scheme() {
  static const FenceScheme s = detect_scheme();
  return s;
}

}  // namespace detail

struct AsymmetricFence {
  static void light() {
    if (detail::scheme() == detail::FenceScheme::kSeqCstFallback) {
      std::atomic_thread_fence(std::memory_order_seq_cst);
    } else {
      std::atomic_signal_fence(std::memory_order_seq_cst);
    }
  }

  static void heavy() {
    detail::heavy_fence_counter().fetch_add(1, std::memory_order_relaxed);
    switch (detail::scheme()) {
      case detail::FenceScheme::kMembarrier:
        detail::membarrier(detail::kMembarrierCmdPrivateExpedited);
        break;
      case detail::FenceScheme::kMprotect: {
        void* page = detail::mprotect_page();
        // Downgrade forces the cross-CPU TLB shootdown; restore + touch
        // re-arms the mapping for the next flip.
        ::mprotect(page, 4096, PROT_READ);
        ::mprotect(page, 4096, PROT_READ | PROT_WRITE);
        *static_cast<volatile char*>(page) = 1;
        break;
      }
      case detail::FenceScheme::kSeqCstFallback:
        break;  // The trailing local fence below is the whole scheme.
    }
    // Always also a full local fence: orders the scanner's own prior
    // accesses (the retire-list reads) against the slot reads, and is the
    // entire fallback when no cross-thread scheme is available.
    std::atomic_thread_fence(std::memory_order_seq_cst);
  }

  static const char* scheme_name() {
    switch (detail::scheme()) {
      case detail::FenceScheme::kMembarrier:
        return "membarrier";
      case detail::FenceScheme::kMprotect:
        return "mprotect";
      default:
        return "seq_cst_fallback";
    }
  }

  static constexpr bool kCompiledAsymmetric = true;
};

#else  // !ABA_DETAIL_ASYM_FENCE_COMPILED

// Portable / TSan build: both sides are plain seq_cst fences, making the
// protocol the symmetric one (and giving TSan a model it understands).
struct AsymmetricFence {
  static void light() { std::atomic_thread_fence(std::memory_order_seq_cst); }
  static void heavy() {
    detail::heavy_fence_counter().fetch_add(1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
  }
  static const char* scheme_name() { return "seq_cst_fallback"; }
  static constexpr bool kCompiledAsymmetric = false;
};

#endif  // ABA_DETAIL_ASYM_FENCE_COMPILED

}  // namespace aba::util
