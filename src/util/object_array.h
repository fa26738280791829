// ObjectArray — N objects of an immovable type in one contiguous allocation.
//
// Every structure here holds a fixed pool of platform objects (nodes, ring
// slots, announce and hazard words). Platform objects wrap std::atomic, so
// they can neither be copied nor moved, and a std::vector cannot hold them
// directly. ObjectArray makes one allocation aligned to alignof(T), and to
// at least operator new's default alignment (16 B on x86-64, so a 16-byte
// element never straddles a cache line), and constructs the elements in
// place, in index order, from a per-index factory that returns T by
// prvalue (guaranteed elision: T is never moved).
// Index order is a contract: SimWorld object ids and the shm arena's layout
// hash both follow construction order. Elements are destroyed in reverse
// order; if a constructor throws, the elements already built are destroyed
// and the storage is freed before the exception propagates.
//
// Storage. On Linux an array of at least kMappedArrayBytes (128 KiB,
// glibc's default mmap threshold: the allocator would map such an array
// anyway) gets an anonymous mapping of its own, exactly its page-rounded
// size, pre-faulted with MADV_POPULATE_WRITE: one call replaces a fault per
// 4 KiB page on first touch. An array of at least kHugePageBytes (2 MiB; no
// smaller array can hold a huge page) is over-mapped by 2 MiB and trimmed
// at both ends, so it starts on a 2 MiB boundary, and is advised
// MADV_HUGEPAGE before the pre-fault. A huge page covers only memory that
// construction writes anyway, so resident memory does not grow. Both
// advice calls are best effort: with transparent huge pages off, or on a
// kernel without MADV_POPULATE_WRITE (5.14), the pages fault in on first
// touch as they would from the allocator. A failed mmap throws
// std::bad_alloc. Smaller arrays, and every array elsewhere, come from
// aligned operator new. Mapped arrays carry no allocator redzones, so
// AddressSanitizer does not see an overrun past their last element.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <new>

#if defined(__linux__)
#include <sys/mman.h>
#include <unistd.h>
#endif

namespace aba::util {

// The smallest array that gets a pre-faulted mapping of its own.
inline constexpr std::size_t kMappedArrayBytes = std::size_t{128} << 10;
// The smallest mapped array that is also aligned and advised for huge pages.
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

namespace detail {

#if defined(__linux__)
inline constexpr bool kMapsLargeArrays = true;

inline std::size_t page_rounded(std::size_t bytes) {
  static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return (bytes + page - 1) / page * page;
}

// An anonymous read-write mapping of page_rounded(bytes), pre-faulted; at
// kHugePageBytes and above it starts on a huge-page boundary and is advised
// for huge pages.
inline void* map_prefaulted(std::size_t bytes) {
  if (bytes > std::numeric_limits<std::size_t>::max() / 2) {
    throw std::bad_alloc();
  }
  const std::size_t length = page_rounded(bytes);
  const bool huge = bytes >= kHugePageBytes;
  const std::size_t span = huge ? length + kHugePageBytes : length;
  void* raw = mmap(nullptr, span, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  void* data = raw;
  if (huge) {
    const auto base = reinterpret_cast<std::uintptr_t>(raw);
    const std::uintptr_t start =
        (base + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
    const std::size_t head = start - base;
    if (head > 0) munmap(raw, head);
    munmap(reinterpret_cast<void*>(start + length), span - head - length);
    data = reinterpret_cast<void*>(start);
    madvise(data, length, MADV_HUGEPAGE);
  }
#ifdef MADV_POPULATE_WRITE
  madvise(data, length, MADV_POPULATE_WRITE);
#endif
  return data;
}

inline void unmap(void* data, std::size_t bytes) {
  munmap(data, page_rounded(bytes));
}
#else
inline constexpr bool kMapsLargeArrays = false;
inline void* map_prefaulted(std::size_t) { throw std::bad_alloc(); }
inline void unmap(void*, std::size_t) {}
#endif

}  // namespace detail

template <class T>
class ObjectArray {
  // A mapping starts on a page boundary, and a page is at least 4 KiB.
  static_assert(alignof(T) <= 4096);

 public:
  template <class Factory>
  ObjectArray(std::size_t n, Factory&& make)
      : bytes_(bytes_for(n)), data_(allocate(bytes_)) {
    try {
      for (; size_ < n; ++size_) {
        ::new (static_cast<void*>(data_ + size_)) T(make(size_));
      }
    } catch (...) {
      destroy();
      throw;
    }
  }

  ObjectArray(const ObjectArray&) = delete;
  ObjectArray& operator=(const ObjectArray&) = delete;
  ~ObjectArray() { destroy(); }

  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  std::size_t size() const { return size_; }
  const T* data() const { return data_; }

 private:
  static constexpr std::size_t kAlign =
      std::max(alignof(T), std::size_t{__STDCPP_DEFAULT_NEW_ALIGNMENT__});

  static std::size_t bytes_for(std::size_t n) {
    if (n > std::numeric_limits<std::size_t>::max() / sizeof(T)) {
      throw std::bad_array_new_length();
    }
    return n * sizeof(T);
  }

  static bool mapped(std::size_t bytes) {
    return detail::kMapsLargeArrays && bytes >= kMappedArrayBytes;
  }

  static T* allocate(std::size_t bytes) {
    if (mapped(bytes)) return static_cast<T*>(detail::map_prefaulted(bytes));
    return static_cast<T*>(::operator new(bytes, std::align_val_t{kAlign}));
  }

  void destroy() {
    while (size_ > 0) data_[--size_].~T();
    if (mapped(bytes_)) {
      detail::unmap(data_, bytes_);
    } else {
      ::operator delete(data_, std::align_val_t{kAlign});
    }
  }

  std::size_t bytes_;
  T* data_;
  std::size_t size_ = 0;
};

}  // namespace aba::util
