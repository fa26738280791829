// Cache-line geometry for false-sharing isolation.
//
// The paper's cost model counts shared-memory *steps*; real hardware
// additionally charges for cache-line ping-pong when logically independent
// words land on the same line. Everything that is written by exactly one
// process (per-process Local state, announce-array entries, hazard slots)
// or that is a standalone contended word (the CAS object X, a head, the
// epoch counter) is padded to kCacheLineSize so neighbours never
// invalidate each other. A multi-word record (a stack node, a ring slot)
// is padded as a whole instead: its words are touched together by one
// operation, so they share the record's one line; the MS-queue node is not
// padded at all, four to a line (PlatformRecord, core/platform.h).
//
// We use std::hardware_destructive_interference_size where the library
// provides it. GCC warns that the value can vary with -mtune (the constant
// is baked into our ABI only within this repository, which is fine — we
// ship no stable binary interface), so the warning is suppressed here.
#pragma once

#include <cstddef>
#include <new>

namespace aba::util {

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winterference-size"
#endif

#ifdef __cpp_lib_hardware_interference_size
inline constexpr std::size_t kCacheLineSize =
    std::hardware_destructive_interference_size;
#else
inline constexpr std::size_t kCacheLineSize = 64;
#endif

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

// A value alone on its cache line. For per-process bookkeeping that is
// written on the hot path (CAS-failure counters, guard-cache state,
// last-shard tags): arrays of Padded<T> index by pid without neighbours
// invalidating each other.
template <class T>
struct alignas(kCacheLineSize) Padded {
  T value{};
};

}  // namespace aba::util
