// TreiberStack — the application-level motivation for the paper: a lock-free
// stack whose head pointer is exactly the kind of location that suffers
// ABAs when nodes are reused.
//
// The stack is index-based over a fixed node pool (so it runs unchanged on
// the simulator and natively) and is parameterized on two orthogonal
// policies:
//
//   Head — how the CAS site detects interference:
//     RawCasHead        — plain CAS on the node index. ABA-vulnerable under
//                         immediate reuse: a pop that stalls between reading
//                         head->next and its CAS can swing the head to a
//                         freed node (demonstrated deterministically in
//                         tests/examples).
//     TaggedCasHead     — CAS on (index, tag) with a bounded tag; safe until
//                         the tag wraps (the paper's critique of bounded
//                         tagging), quantified in bench_aba_escape.
//     LlscHead          — LL/SC on the index using any of this repository's
//                         LL/SC implementations; immune to ABA, which is the
//                         paper's point about LL/SC being "an effective way
//                         of avoiding the ABA problem".
//
//   R — when a popped node may be reused (src/reclaim/): TaggedReclaimer
//       (immediate FIFO reuse — the default, pairing with a protected
//       head), LeakyReclaimer (never reuse), HazardPointerReclaimer or
//       EpochBasedReclaimer (deferred reuse, which makes even RawCasHead
//       safe — reclamation as the ABA answer). docs/RECLAMATION.md maps the
//       combinations.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/platform.h"
#include "reclaim/reclaimer.h"
#include "reclaim/tagged.h"
#include "structures/contention.h"
#include "util/assert.h"
#include "util/object_array.h"
#include "util/packed_word.h"

namespace aba::structures {

// Node indices are stored +1 so that 0 encodes "null".
constexpr std::uint64_t kNullIndex = 0;

// ------------------------------------------------------------- head policies

template <Platform P>
class RawCasHead {
 public:
  RawCasHead(typename P::Env& env, int /*n*/)
      : head_(env, "head", kNullIndex, sim::BoundSpec::unbounded()) {}

  // Returns the raw head word; `index_of` decodes it.
  std::uint64_t load(int /*pid*/) { return head_.read(); }
  static std::uint64_t index_of(std::uint64_t word) { return word; }

  bool try_swing(int /*pid*/, std::uint64_t observed, std::uint64_t new_index) {
    return head_.cas(observed, new_index);
  }

 private:
  typename P::WritableCas head_;
};

template <Platform P>
class TaggedCasHead {
 public:
  TaggedCasHead(typename P::Env& env, int /*n*/, unsigned index_bits = 16,
                unsigned tag_bits = 16)
      : index_bits_(index_bits),
        tag_bits_(tag_bits),
        head_(env, "head", kNullIndex, sim::BoundSpec::unbounded()) {
    ABA_CHECK(index_bits + tag_bits <= 64);
  }

  std::uint64_t load(int /*pid*/) { return head_.read(); }
  std::uint64_t index_of(std::uint64_t word) const {
    return word & max_index();
  }
  // The largest value the index field holds; a larger one would spill into
  // the tag. TreiberStack checks its pool against it.
  std::uint64_t max_index() const { return (1ULL << index_bits_) - 1; }

  bool try_swing(int /*pid*/, std::uint64_t observed, std::uint64_t new_index) {
    const std::uint64_t tag = (observed >> index_bits_) & tag_mask();
    const std::uint64_t next_tag = (tag + 1) & tag_mask();
    return head_.cas(observed, (next_tag << index_bits_) | new_index);
  }

 private:
  std::uint64_t tag_mask() const { return (1ULL << tag_bits_) - 1; }

  unsigned index_bits_;
  unsigned tag_bits_;
  typename P::WritableCas head_;
};

// L is any LL/SC implementation in this repository (ll/sc per pid).
template <class L>
class LlscHead {
 public:
  explicit LlscHead(L& llsc) : llsc_(&llsc) {}

  std::uint64_t load(int pid) { return llsc_->ll(pid); }
  static std::uint64_t index_of(std::uint64_t word) { return word; }

  bool try_swing(int pid, std::uint64_t /*observed*/, std::uint64_t new_index) {
    return llsc_->sc(pid, new_index);
  }

 private:
  L* llsc_;
};

// ------------------------------------------------------------------- stack

template <Platform P, class Head, class R = reclaim::TaggedReclaimer<P>>
class TreiberStack {
  static_assert(reclaim::ReclaimerFor<R, P>,
                "R must satisfy the Reclaimer concept for platform P");

 public:
  // `initial_free[p]` = node indices initially owned by process p's free
  // list (indices into the pool, 0-based). The pool size is their total;
  // the reclaimer takes ownership of the index lifecycle. The head policy
  // is heap-owned because native platform objects wrap std::atomic and are
  // not movable.
  TreiberStack(typename P::Env& env, int n, std::unique_ptr<Head> head,
               reclaim::FreeLists initial_free)
      : head_(std::move(head)),
        reclaimer_(env, n, std::move(initial_free)),
        nodes_(checked_pool_size(), [&](std::size_t) { return Node(env); }) {}

  // Convenience: `per_process` consecutive nodes for each process.
  static reclaim::FreeLists partition(int n, int per_process) {
    return reclaim::partition_pool(n, per_process);
  }

  // Pushes `value`; returns false if the reclaimer cannot produce a safe
  // node (pool pressure). Allocation happens outside the protected region
  // (the epoch reclaimer's contract).
  bool push(int p, std::uint64_t value) {
    const std::optional<std::uint64_t> index = reclaimer_.allocate(p);
    if (!index) return false;
    Node& node = nodes_[*index];
    node.value.write(value);
    PlatformBackoffT<P> backoff;
    for (;;) {
      const std::uint64_t observed = head_->load(p);
      node.next.write(head_->index_of(observed));
      if (head_->try_swing(p, observed, *index + 1)) {
        // The node is reachable: tell crash-robust reclaimers its
        // allocation is no longer in flight (thread-private, no shared
        // step — schedules are unchanged).
        if constexpr (requires { reclaimer_.commit(p); }) reclaimer_.commit(p);
        return true;
      }
      if (probe_ != nullptr) probe_->record_failure();
      backoff();
    }
  }

  std::optional<std::uint64_t> pop(int p) {
    reclaimer_.begin_op(p);
    PlatformBackoffT<P> backoff;
    for (;;) {
      const std::uint64_t observed = head_->load(p);
      const std::uint64_t head_index = head_->index_of(observed);
      if (head_index == kNullIndex) {
        reclaimer_.end_op(p);
        return std::nullopt;
      }
      if constexpr (R::kNeedsGuard) {
        reclaimer_.guard(p, 0, head_index - 1);
        // Publish-then-revalidate: if the head moved before the guard was
        // visible, the node may already be retired (and the guard too late).
        if (head_->load(p) != observed) {
          backoff();
          continue;
        }
      }
      Node& node = nodes_[head_index - 1];
      const std::uint64_t next = node.next.read();  // Guarded (or tag-checked).
      if (head_->try_swing(p, observed, next)) {
        const std::uint64_t value = node.value.read();
        reclaimer_.end_op(p);
        reclaimer_.retire(p, head_index - 1);
        return value;
      }
      if (probe_ != nullptr) probe_->record_failure();
      backoff();
    }
  }

  // Uniform structure verbs (structures/concepts.h): an UnboundedContainer
  // whose try_push refusal means pool pressure, never "full".
  bool try_push(int p, std::uint64_t value) { return push(p, value); }
  std::optional<std::uint64_t> try_pop(int p) { return pop(p); }

  // Releases any guards process p's reclaimer keeps published between
  // operations (the cached-guard hazard mode); no-op for the others. Call
  // when p stops operating on this structure.
  void detach(int p) {
    if constexpr (requires { reclaimer_.detach(p); }) reclaimer_.detach(p);
  }

  // Attaches the CAS-failure telemetry the adaptive width policy reads
  // (structures/contention.h). Set before concurrent use; null disables.
  void set_contention_probe(ContentionProbe* probe) { probe_ = probe; }

  std::size_t pool_size() const { return nodes_.size(); }
  R& reclaimer() { return reclaimer_; }
  const R& reclaimer() const { return reclaimer_; }

  // A record (core/platform.h): under the native Fast policies value and
  // next share one line instead of taking a line each. Unlike the MS-queue
  // node it keeps the whole line: packed four to a line it measured slower
  // under contention (docs/DESIGN.md, "Pool storage"). Public so the layout
  // tests can size it.
  struct Node : PlatformRecord<P>::Base {
    explicit Node(typename P::Env& env)
        : value(env, "node.value", 0, sim::BoundSpec::unbounded()),
          next(env, "node.next", kNullIndex, sim::BoundSpec::unbounded()) {}
    typename PlatformRecord<P>::Register value;
    typename PlatformRecord<P>::Register next;
  };
  static_assert(kRecordFillsItsLine<Node>);

 private:
  // Runs before any node is allocated. Indices are stored +1, so a head
  // with a bounded index field (max_index) must hold the pool size itself.
  std::size_t checked_pool_size() const {
    if constexpr (requires { head_->max_index(); }) {
      ABA_CHECK(reclaimer_.pool_size() <= head_->max_index());
    }
    return reclaimer_.pool_size();
  }

  // Declaration order is construction order (the SimWorld ids and the shm
  // layout hash follow it): the nodes come after the reclaimer's words.
  std::unique_ptr<Head> head_;
  R reclaimer_;
  util::ObjectArray<Node> nodes_;
  ContentionProbe* probe_ = nullptr;
};

}  // namespace aba::structures
