// The Platform concept.
//
// Every algorithm in src/core is written once, templated over a Platform
// that supplies the paper's three kinds of base objects over 64-bit words:
//
//   Register    — atomic Read() / Write()
//   Cas         — atomic Read() / CAS()            (not writable)
//   WritableCas — atomic Read() / CAS() / Write()
//
// Three platforms implement the concept:
//   aba::sim::SimPlatform      — objects live in a SimWorld; every access is
//                                a scheduled, traceable step (see sim_world.h)
//   aba::native::NativePlatform<Policy> — objects are std::atomic<uint64_t>;
//                                the policy selects step counting, bound
//                                checking, memory orderings, the fence
//                                scheme, cache-line isolation and contention
//                                backoff (see native/native_platform.h)
//   aba::shm::ShmPlatform      — seq_cst atomics in a shared arena
//
// Three traits let a platform tune what the algorithms do without changing
// a step they take, each defaulting to "nothing": PlatformBackoffT (what a
// CAS retry loop waits), PlatformFenceT (the asymmetric StoreLoad scheme a
// reclaimer issues) and PlatformRecord (the word types and alignment of a
// multi-word record — a queue or stack node, a ring slot — so a platform
// that isolates words on cache lines can isolate the record as a whole, or
// pack it). A fourth, kPlatformOrdersStoreLoad, is what the StoreLoad-
// shaped protocols check before they compile.
//
// Object constructors take (Env&, name, initial, BoundSpec): the environment
// (a SimWorld for the simulator, an empty token natively), a debug name, the
// initial word, and the declared width. Widths matter: the paper's lower
// bounds apply to *bounded* base objects, and the simulator asserts every
// stored value fits the declared width, so an implementation claiming to use
// bounded objects provably never exceeds them.
#pragma once

#include <concepts>
#include <cstdint>
#include <type_traits>

#include "sim/types.h"
#include "util/asymmetric_fence.h"
#include "util/backoff.h"
#include "util/cacheline.h"

namespace aba {

template <class P>
concept Platform = requires(typename P::Env& env, typename P::Register& r,
                            typename P::Cas& c, typename P::WritableCas& w,
                            std::uint64_t v) {
  typename P::Env;
  requires std::constructible_from<typename P::Register, typename P::Env&,
                                   const char*, std::uint64_t, sim::BoundSpec>;
  requires std::constructible_from<typename P::Cas, typename P::Env&,
                                   const char*, std::uint64_t, sim::BoundSpec>;
  requires std::constructible_from<typename P::WritableCas, typename P::Env&,
                                   const char*, std::uint64_t, sim::BoundSpec>;
  { r.read() } -> std::same_as<std::uint64_t>;
  { r.write(v) } -> std::same_as<void>;
  { c.read() } -> std::same_as<std::uint64_t>;
  { c.cas(v, v) } -> std::same_as<bool>;
  { w.read() } -> std::same_as<std::uint64_t>;
  { w.cas(v, v) } -> std::same_as<bool>;
  { w.write(v) } -> std::same_as<void>;
};

// Contention-backoff selection. Algorithms with CAS retry loops instantiate
// a PlatformBackoffT<P> per operation and invoke it after each failed
// attempt. A platform opts in by exposing a member typedef `Backoff`; the
// default is util::NullBackoff, which compiles to nothing — the simulator
// must not have its adversary-controlled schedules perturbed, and the
// Counted native policy keeps the retry loops bit-identical to the paper's
// pseudo-code. Backoff performs no shared-memory steps, so it never changes
// step complexity or linearizability; it only reduces coherence traffic on
// real hardware.
template <class P, class = void>
struct PlatformBackoff {
  using type = util::NullBackoff;
};

template <class P>
struct PlatformBackoff<P, std::void_t<typename P::Backoff>> {
  using type = typename P::Backoff;
};

template <class P>
using PlatformBackoffT = typename PlatformBackoff<P>::type;

// Fence-scheme selection, same shape as PlatformBackoff. A platform opts
// into an asymmetric StoreLoad scheme by exposing a member typedef `Fence`
// (see util/asymmetric_fence.h and the FastAsymmetric native policy); the
// default is util::NoFence — platforms whose memory orderings are seq_cst
// already carry the StoreLoad edge in the accesses themselves, and the
// simulator's interleaving semantics need no fences at all. Consumers
// (the hazard reclaimer) call PlatformFenceT<P>::light() after a guard
// publish and PlatformFenceT<P>::heavy() before a scan.
template <class P, class = void>
struct PlatformFence {
  using type = util::NoFence;
};

template <class P>
struct PlatformFence<P, std::void_t<typename P::Fence>> {
  using type = typename P::Fence;
};

template <class P>
using PlatformFenceT = typename PlatformFence<P>::type;

// StoreLoad ordering: whether a process's write is visible before its next
// read of a different word, as in the paper's sequentially consistent
// model. Figure 4's DRead (write A[q], re-read X), the register-array
// LL/SC, the hazard publish→revalidate and the epoch announce→validate
// each need it, and acquire/release cannot give it. Every platform states
// it as a member (NativePlatform derives it from its policy's orderings);
// those protocols static_assert it, the reclaimers accepting a
// PlatformFenceT with a heavy side instead.
template <class P>
inline constexpr bool kPlatformOrdersStoreLoad = P::kOrdersStoreLoad;

// Record selection, same shape again. A record is a fixed group of words
// that one algorithm step sequence treats as a unit (a node's value and
// next, a ring slot's seq and value); it declares its words with the
// trait's Register/Cas/WritableCas. A record that keeps a cache line of its
// own (the Treiber node, the ring slots) also derives from the trait's
// empty Base; a packed record (the MS-queue node) does not, so under an
// isolating platform it is just its unpadded words, several to a line.
// A platform opts in by exposing a member type `Record` with those four
// names (NativePlatform's Fast policies: unpadded words, a line-aligned
// Base). The default is the platform's own word types and an unaligned
// Base, so on the simulator, the shm platform and the Counted policy a
// record is laid out, constructed and stepped exactly as if it declared
// its words directly.
template <class P, class = void>
struct PlatformRecord {
  using Register = typename P::Register;
  using Cas = typename P::Cas;
  using WritableCas = typename P::WritableCas;
  struct Base {};
};

template <class P>
struct PlatformRecord<P, std::void_t<typename P::Record>> : P::Record {};

// The check each line-owning record states beside its definition: a record
// whose platform aligns it to a line fills exactly that line, so its words
// never spill onto a second one.
template <class Record>
inline constexpr bool kRecordFillsItsLine =
    alignof(Record) < util::kCacheLineSize ||
    sizeof(Record) == util::kCacheLineSize;

}  // namespace aba
