// SimPlatform — Platform implementation backed by a SimWorld.
//
// Handles are created on the engine side (algorithm construction happens
// before any process runs) and used from inside simulated processes, where
// each access announces a PendingOp and suspends the process until the
// engine grants the step (see SimWorld::access).
#pragma once

#include <cstdint>

#include "sim/sim_world.h"
#include "sim/types.h"

namespace aba::sim {

struct SimPlatform {
  using Env = SimWorld;
  // One step at a time, each visible from the next on: the paper's
  // sequentially consistent interleavings (core/platform.h).
  static constexpr bool kOrdersStoreLoad = true;

  class Register {
   public:
    Register(Env& env, const char* name, std::uint64_t initial, BoundSpec bound)
        : world_(&env),
          id_(env.create_object(ObjectKind::kRegister, name, initial, bound)) {}

    std::uint64_t read() {
      return world_->access(PendingOp{id_, OpKind::kRead, 0, 0}).value;
    }

    void write(std::uint64_t value) {
      world_->access(PendingOp{id_, OpKind::kWrite, value, 0});
    }

    ObjectId id() const { return id_; }

   private:
    SimWorld* world_;
    ObjectId id_;
  };

  class Cas {
   public:
    Cas(Env& env, const char* name, std::uint64_t initial, BoundSpec bound)
        : world_(&env),
          id_(env.create_object(ObjectKind::kCas, name, initial, bound)) {}

    std::uint64_t read() {
      return world_->access(PendingOp{id_, OpKind::kRead, 0, 0}).value;
    }

    bool cas(std::uint64_t expected, std::uint64_t desired) {
      return world_->access(PendingOp{id_, OpKind::kCas, expected, desired})
          .cas_success;
    }

    ObjectId id() const { return id_; }

   private:
    SimWorld* world_;
    ObjectId id_;
  };

  class WritableCas {
   public:
    WritableCas(Env& env, const char* name, std::uint64_t initial, BoundSpec bound)
        : world_(&env),
          id_(env.create_object(ObjectKind::kWritableCas, name, initial, bound)) {}

    std::uint64_t read() {
      return world_->access(PendingOp{id_, OpKind::kRead, 0, 0}).value;
    }

    bool cas(std::uint64_t expected, std::uint64_t desired) {
      return world_->access(PendingOp{id_, OpKind::kCas, expected, desired})
          .cas_success;
    }

    void write(std::uint64_t value) {
      world_->access(PendingOp{id_, OpKind::kWrite, value, 0});
    }

    ObjectId id() const { return id_; }

   private:
    SimWorld* world_;
    ObjectId id_;
  };
};

}  // namespace aba::sim
