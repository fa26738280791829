// ObjectArray — N objects of an immovable type in one contiguous allocation.
//
// Every structure here holds a fixed pool of platform objects (nodes, ring
// slots, announce and hazard words). Platform objects wrap std::atomic, so
// they can neither be copied nor moved, and a std::vector cannot hold them
// directly. ObjectArray makes one allocation aligned to alignof(T) and
// constructs the elements in place, in index order, from a per-index
// factory that returns T by prvalue (guaranteed elision: T is never moved).
// Index order is a contract: SimWorld object ids and the shm arena's layout
// hash both follow construction order. Elements are destroyed in reverse
// order; if a constructor throws, the elements already built are destroyed
// and the storage is freed before the exception propagates.
#pragma once

#include <cstddef>
#include <limits>
#include <new>

namespace aba::util {

template <class T>
class ObjectArray {
 public:
  template <class Factory>
  ObjectArray(std::size_t n, Factory&& make) : data_(allocate(n)) {
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

 private:
  static T* allocate(std::size_t n) {
    if (n > std::numeric_limits<std::size_t>::max() / sizeof(T)) {
      throw std::bad_array_new_length();
    }
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{alignof(T)}));
  }

  void destroy() {
    while (size_ > 0) data_[--size_].~T();
    ::operator delete(data_, std::align_val_t{alignof(T)});
  }

  T* data_;
  std::size_t size_ = 0;
};

}  // namespace aba::util
