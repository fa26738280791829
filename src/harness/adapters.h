// Invoker adapters: bind concrete implementations to the harness.
//
// Each adapter owns the implementation instance and translates WorkloadOps
// into method invocations on the owning SimWorld, recording invocation and
// response events (with SimWorld logical-clock timestamps) into the History.
//
// make_factory<InvokerT>(...) packages the adapter + implementation pair as
// a FixtureFactory, which is what lets the test suite sweep one workload
// across a whole axis of implementations — in particular every
// (head policy × reclamation policy) combination of the structures layer —
// without a bespoke factory lambda per combination.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "core/aba_register_from_llsc.h"
#include "harness/harness.h"
#include "reclaim/reclaimer.h"
#include "sim/sim_world.h"
#include "spec/history.h"
#include "structures/concepts.h"
#include "util/assert.h"

namespace aba::harness {

namespace detail {

// Reclamation observability lookup, in order of preference: a composite
// impl's own aggregate (the sharded router), then a flat impl's reclaimer,
// then the no-op defaults. Lets the same invoker templates drive everything
// from a plain register to an 8-shard stack while still exposing the phase
// markers the schedule-search engine parks processes with.
template <class Impl>
reclaim::ReclaimStats impl_reclaim_stats(const Impl& impl) {
  if constexpr (requires { impl.reclaim_stats(); }) {
    return impl.reclaim_stats();
  } else if constexpr (requires { impl.reclaimer().stats(); }) {
    return impl.reclaimer().stats();
  } else {
    return {};
  }
}

template <class Impl>
reclaim::ReclaimPhase impl_reclaim_phase(const Impl& impl, int pid) {
  if constexpr (requires { impl.reclaim_phase(pid); }) {
    return impl.reclaim_phase(pid);
  } else if constexpr (requires { impl.reclaimer().phase(pid); }) {
    return impl.reclaimer().phase(pid);
  } else {
    return reclaim::ReclaimPhase::kIdle;
  }
}

template <class Impl>
std::uint64_t impl_reclaim_fingerprint(const Impl& impl) {
  if constexpr (requires { impl.reclaim_fingerprint(); }) {
    return impl.reclaim_fingerprint();
  } else if constexpr (requires { impl.reclaimer().fingerprint(); }) {
    return impl.reclaimer().fingerprint();
  } else {
    return 0;
  }
}

}  // namespace detail

// Impl must expose: std::pair<uint64_t,bool> dread(int q); void dwrite(int p, uint64_t x).
template <class Impl>
class AbaRegInvoker : public Invoker {
 public:
  AbaRegInvoker(sim::SimWorld& world, spec::History& history,
                std::unique_ptr<Impl> impl)
      : world_(world), history_(history), impl_(std::move(impl)) {}

  Impl& impl() { return *impl_; }

  void invoke(const WorkloadOp& op) override {
    const std::size_t idx =
        history_.begin_op(op.pid, op.method, op.arg, world_.next_event_time());
    switch (op.method) {
      case spec::Method::kDRead:
        world_.invoke(op.pid, [this, op, idx] {
          const auto [value, flag] = impl_->dread(op.pid);
          history_.complete(idx, spec::pack_dread_result(value, flag),
                            world_.next_event_time());
        });
        break;
      case spec::Method::kDWrite:
        world_.invoke(op.pid, [this, op, idx] {
          impl_->dwrite(op.pid, op.arg);
          history_.complete(idx, 0, world_.next_event_time());
        });
        break;
      default:
        ABA_CHECK_MSG(false, "AbaRegInvoker: unsupported method");
    }
  }

 private:
  sim::SimWorld& world_;
  spec::History& history_;
  std::unique_ptr<Impl> impl_;
};

// Impl must expose: uint64_t ll(int p); bool sc(int p, uint64_t x); bool vl(int p).
template <class Impl>
class LlscInvoker : public Invoker {
 public:
  LlscInvoker(sim::SimWorld& world, spec::History& history,
              std::unique_ptr<Impl> impl)
      : world_(world), history_(history), impl_(std::move(impl)) {}

  Impl& impl() { return *impl_; }

  void invoke(const WorkloadOp& op) override {
    const std::size_t idx =
        history_.begin_op(op.pid, op.method, op.arg, world_.next_event_time());
    switch (op.method) {
      case spec::Method::kLL:
        world_.invoke(op.pid, [this, op, idx] {
          const std::uint64_t value = impl_->ll(op.pid);
          history_.complete(idx, value, world_.next_event_time());
        });
        break;
      case spec::Method::kSC:
        world_.invoke(op.pid, [this, op, idx] {
          const bool ok = impl_->sc(op.pid, op.arg);
          history_.complete(idx, ok ? 1 : 0, world_.next_event_time());
        });
        break;
      case spec::Method::kVL:
        world_.invoke(op.pid, [this, op, idx] {
          const bool ok = impl_->vl(op.pid);
          history_.complete(idx, ok ? 1 : 0, world_.next_event_time());
        });
        break;
      default:
        ABA_CHECK_MSG(false, "LlscInvoker: unsupported method");
    }
  }

 private:
  sim::SimWorld& world_;
  spec::History& history_;
  std::unique_ptr<Impl> impl_;
};

// The one invoker for every application structure. Impl must satisfy
// structures::Container (concepts.h): bool try_push(int p, uint64_t v) and
// std::optional<uint64_t> try_pop(int p). The history keeps the caller's
// verb vocabulary (kPush/kPop for stacks, kEnq/kDeq for queues and rings) —
// the workload chooses the methods, the spec interprets them; the invoker
// only cares that both pairs funnel into the same two verbs.
template <structures::Container Impl>
class ContainerInvoker : public Invoker {
 public:
  ContainerInvoker(sim::SimWorld& world, spec::History& history,
                   std::unique_ptr<Impl> impl)
      : world_(world), history_(history), impl_(std::move(impl)) {}

  Impl& impl() { return *impl_; }

  void invoke(const WorkloadOp& op) override {
    const std::size_t idx =
        history_.begin_op(op.pid, op.method, op.arg, world_.next_event_time());
    switch (op.method) {
      case spec::Method::kPush:
      case spec::Method::kEnq:
        world_.invoke(op.pid, [this, op, idx] {
          const bool ok = impl_->try_push(op.pid, op.arg);
          history_.complete(idx, ok ? 1 : 0, world_.next_event_time());
          on_complete(idx, op.pid);
        });
        break;
      case spec::Method::kPop:
      case spec::Method::kDeq:
        world_.invoke(op.pid, [this, op, idx] {
          const auto value = impl_->try_pop(op.pid);
          history_.complete(idx,
                            spec::pack_opt(value.has_value(),
                                           value.has_value() ? *value : 0),
                            world_.next_event_time());
          on_complete(idx, op.pid);
        });
        break;
      default:
        ABA_CHECK_MSG(false, "ContainerInvoker: unsupported method");
    }
  }

  reclaim::ReclaimStats reclaim_stats() const override {
    return detail::impl_reclaim_stats(*impl_);
  }
  reclaim::ReclaimPhase reclaim_phase(int pid) const override {
    return detail::impl_reclaim_phase(*impl_, pid);
  }
  std::uint64_t reclaim_fingerprint() const override {
    return detail::impl_reclaim_fingerprint(*impl_);
  }

 protected:
  // Called after each completion is recorded; the extension point the
  // shard-tagging adapter below hooks (default: nothing).
  virtual void on_complete(std::size_t /*idx*/, int /*pid*/) {}

 private:
  sim::SimWorld& world_;
  spec::History& history_;
  std::unique_ptr<Impl> impl_;
};

// ----------------------------------------------------- sharded structures
//
// The sharded structures (structures/sharded.h), under either width policy,
// are Containers too — the plain ContainerInvoker drives them unchanged
// when only the composite history matters. The tagging variant
// additionally records, per completed op, the shard the operation landed
// on (Impl::last_shard(p), thread-private so querying it costs no shared
// steps), which is what lets the test suite split one history into
// per-shard sub-histories and check each shard against the *exact*
// stack/queue spec — the "linearizable as a multiset per shard" contract.
// Under AdaptiveWidth the landing shard, not the width at the time, is the
// linearizability unit, so the tags split the history even as the active
// width moves mid-run.

// Hooks a Base invoker's on_complete to tag each history index with the
// shard its operation landed on. Base's Impl must expose last_shard(p).
template <class Base>
class ShardTagging : public Base {
 public:
  using Base::Base;

  // shard_of()[i] is the shard of the history op recorded at index i.
  const std::vector<int>& shard_of() const { return shard_of_; }

 protected:
  void on_complete(std::size_t idx, int pid) override {
    if (shard_of_.size() <= idx) shard_of_.resize(idx + 1, -1);
    shard_of_[idx] = this->impl().last_shard(pid);
  }

 private:
  std::vector<int> shard_of_;
};

template <class Impl>
using ShardTaggedInvoker = ShardTagging<ContainerInvoker<Impl>>;

// Builds a FixtureFactory for any Impl constructible from
// (SimWorld&, int n, Args...), wired through the given Invoker template
// (ContainerInvoker, ShardTaggedInvoker, ...). Args are captured by value
// and must be copyable; the factory can be invoked repeatedly (each
// model-checker replay constructs a fresh Impl).
template <template <class> class InvokerT, class Impl, class... Args>
FixtureFactory make_factory(int n, Args... args) {
  return [n, args...](sim::SimWorld& world,
                      spec::History& history) -> std::unique_ptr<Invoker> {
    return std::make_unique<InvokerT<Impl>>(
        world, history, std::make_unique<Impl>(world, n, args...));
  };
}

// The paper's registers and LL/SC/VL objects, each built from
// (world, n, options).
template <class Impl>
FixtureFactory aba_reg_factory(int n, typename Impl::Options options = {}) {
  return make_factory<AbaRegInvoker, Impl>(n, options);
}

template <class Impl>
FixtureFactory llsc_factory(int n, typename Impl::Options options = {}) {
  return make_factory<LlscInvoker, Impl>(n, options);
}

// Figure 5 composed over Llsc (which it builds initially linked).
template <class Llsc>
FixtureFactory fig5_factory(int n, typename Llsc::Options options = {}) {
  return aba_reg_factory<core::AbaRegisterOverLlsc<Llsc>>(n, options);
}

}  // namespace aba::harness
