// MsQueue — Michael & Scott's lock-free FIFO queue [24], the algorithm whose
// original presentation *introduced* per-word modification counters ("tags")
// precisely to dodge the ABA problem the paper studies.
//
// Index-based over a fixed node pool so it runs on the simulator and
// natively. Head, tail and every node's next pointer are (index, tag) words
// updated by CAS with the tag incremented on every change, wrapping at
// 2^tag_bits. With wide tags the queue is safe in any feasible run; with
// deliberately narrow tags the wraparound ABA becomes reachable, which is
// the paper's point that bounded tagging is only probabilistically correct.
//
// Node reuse is a Reclaimer policy (src/reclaim/): the default
// TaggedReclaimer recycles a dequeued dummy immediately — the original
// algorithm, whose safety rests entirely on the tags — while the hazard/
// epoch reclaimers defer reuse until no concurrent operation can still hold
// the node, making the queue safe independent of tag width (dequeue guards
// head and head->next, slots 0 and 1, in the hazard case). LeakyReclaimer
// never reuses — the ABA-free baseline.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/platform.h"
#include "reclaim/reclaimer.h"
#include "reclaim/tagged.h"
#include "structures/contention.h"
#include "util/assert.h"
#include "util/object_array.h"

namespace aba::structures {

template <Platform P, class R = reclaim::TaggedReclaimer<P>>
class MsQueue {
  static_assert(reclaim::ReclaimerFor<R, P>,
                "R must satisfy the Reclaimer concept for platform P");

 public:
  struct Options {
    unsigned index_bits = 16;
    unsigned tag_bits = 16;
  };

  // Pool: one dummy node (index 0) plus `nodes_per_process` per process,
  // handed to the reclaimer as the initial free lists. The dummy enters
  // circulation the first time it is dequeued past and retired.
  MsQueue(typename P::Env& env, int n, int nodes_per_process,
          Options options = {})
      : options_(options),
        head_(env, "queue.head", pack(0, 0), sim::BoundSpec::unbounded()),
        tail_(env, "queue.tail", pack(0, 0), sim::BoundSpec::unbounded()),
        reclaimer_(env, n,
                   reclaim::partition_pool(n, nodes_per_process, /*first=*/1)),
        nodes_(checked_pool_size(n, nodes_per_process), [&](std::size_t) {
          return Node(env, pack(null_index(), 0));
        }) {}

  bool enqueue(int p, std::uint64_t value) {
    // Allocation precedes the protected region (the epoch contract).
    const std::optional<std::uint64_t> node_opt = reclaimer_.allocate(p);
    if (!node_opt) return false;
    const std::uint64_t node_index = *node_opt;
    Node& node = nodes_[node_index];
    node.value.write(value);
    // Reset next to null, bumping its tag (local to this node's lifecycle).
    const std::uint64_t old_next = node.next.read();
    node.next.write(pack(null_index(), tag_of(old_next) + 1));

    reclaimer_.begin_op(p);
    PlatformBackoffT<P> backoff;
    for (;;) {
      const std::uint64_t tail = tail_.read();
      if constexpr (R::kNeedsGuard) reclaimer_.guard(p, 0, index_of(tail));
      const std::uint64_t tail_next = nodes_[index_of(tail)].next.read();
      if (tail != tail_.read()) {  // Tail moved under us (validates the guard).
        backoff();
        continue;
      }
      if (index_of(tail_next) == null_index()) {
        // Tail is the last node: link the new node.
        if (nodes_[index_of(tail)].next.cas(
                tail_next, pack(node_index, tag_of(tail_next) + 1))) {
          // The node is linked: tell crash-robust reclaimers its allocation
          // is no longer in flight (thread-private — schedules unchanged).
          if constexpr (requires { reclaimer_.commit(p); }) {
            reclaimer_.commit(p);
          }
          // Swing tail (may fail if someone helped; that's fine).
          tail_.cas(tail, pack(node_index, tag_of(tail) + 1));
          reclaimer_.end_op(p);
          return true;
        }
        if (probe_ != nullptr) probe_->record_failure();
      } else {
        // Tail lags: help swing it.
        tail_.cas(tail, pack(index_of(tail_next), tag_of(tail) + 1));
      }
      backoff();
    }
  }

  std::optional<std::uint64_t> dequeue(int p) {
    reclaimer_.begin_op(p);
    PlatformBackoffT<P> backoff;
    for (;;) {
      const std::uint64_t head = head_.read();
      if constexpr (R::kNeedsGuard) reclaimer_.guard(p, 0, index_of(head));
      const std::uint64_t tail = tail_.read();
      const std::uint64_t head_next = nodes_[index_of(head)].next.read();
      if (head != head_.read()) {  // Also validates the slot-0 guard.
        backoff();
        continue;
      }
      if (index_of(head) == index_of(tail)) {
        if (index_of(head_next) == null_index()) {
          reclaimer_.end_op(p);
          return std::nullopt;  // Empty.
        }
        // Tail lags behind: help.
        tail_.cas(tail, pack(index_of(head_next), tag_of(tail) + 1));
        continue;
      }
      if constexpr (R::kNeedsGuard) {
        reclaimer_.guard(p, 1, index_of(head_next));
        // head unchanged ⇒ head_next is still linked, so the guard is valid.
        if (head != head_.read()) {
          backoff();
          continue;
        }
      }
      // Read the value before the CAS (the node may be reused right after).
      const std::uint64_t value = nodes_[index_of(head_next)].value.read();
      if (head_.cas(head, pack(index_of(head_next), tag_of(head) + 1))) {
        reclaimer_.end_op(p);
        // The old dummy node is now free for reuse once the policy allows.
        reclaimer_.retire(p, index_of(head));
        return value;
      }
      if (probe_ != nullptr) probe_->record_failure();
      backoff();
    }
  }

  // Uniform structure verbs (structures/concepts.h): an UnboundedContainer
  // whose try_push refusal means pool pressure, never "full".
  bool try_push(int p, std::uint64_t value) { return enqueue(p, value); }
  std::optional<std::uint64_t> try_pop(int p) { return dequeue(p); }

  // See TreiberStack::detach / set_contention_probe — same contracts.
  void detach(int p) {
    if constexpr (requires { reclaimer_.detach(p); }) reclaimer_.detach(p);
  }
  void set_contention_probe(ContentionProbe* probe) { probe_ = probe; }

  std::size_t pool_size() const { return nodes_.size(); }
  R& reclaimer() { return reclaimer_; }
  const R& reclaimer() const { return reclaimer_; }

  // A record (core/platform.h) that is packed, not given a line of its own:
  // the node is exactly its two words, so under the native Fast policies it
  // is 16 B, four nodes share a line, and none straddles one (ObjectArray's
  // storage is 16-byte aligned). Sharing a line measured no cost to the
  // queue, and its pool is a quarter of the line-per-node one
  // (docs/DESIGN.md, "Pool storage"). Public so the layout tests can size it.
  struct Node {
    Node(typename P::Env& env, std::uint64_t initial_next)
        : value(env, "qnode.value", 0, sim::BoundSpec::unbounded()),
          next(env, "qnode.next", initial_next, sim::BoundSpec::unbounded()) {}
    typename PlatformRecord<P>::Register value;
    typename PlatformRecord<P>::WritableCas next;
  };
  static_assert(sizeof(Node) ==
                sizeof(typename PlatformRecord<P>::Register) +
                    sizeof(typename PlatformRecord<P>::WritableCas));

 private:
  // Runs before any node is allocated: the pool must leave the all-ones
  // index free for the null marker.
  std::size_t checked_pool_size(int n, int nodes_per_process) const {
    ABA_CHECK(options_.index_bits + options_.tag_bits <= 64);
    ABA_CHECK(1 + static_cast<std::uint64_t>(n) * nodes_per_process <
              index_mask());
    return 1 + static_cast<std::size_t>(n) * nodes_per_process;
  }

  // The all-ones index is the null marker (never a valid pool index).
  std::uint64_t null_index() const { return index_mask(); }

  std::uint64_t pack(std::uint64_t index, std::uint64_t tag) const {
    return ((tag & tag_mask()) << options_.index_bits) |
           (index & index_mask());
  }
  std::uint64_t index_of(std::uint64_t word) const { return word & index_mask(); }
  std::uint64_t tag_of(std::uint64_t word) const {
    return (word >> options_.index_bits) & tag_mask();
  }
  std::uint64_t index_mask() const { return (1ULL << options_.index_bits) - 1; }
  std::uint64_t tag_mask() const { return (1ULL << options_.tag_bits) - 1; }

  // Declaration order is construction order (the SimWorld ids and the shm
  // layout hash follow it): the nodes come after the reclaimer's words.
  Options options_;
  typename P::WritableCas head_;
  typename P::WritableCas tail_;
  R reclaimer_;
  util::ObjectArray<Node> nodes_;
  ContentionProbe* probe_ = nullptr;
};

}  // namespace aba::structures
