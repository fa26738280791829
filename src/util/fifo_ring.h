// FifoRing — a growable FIFO queue in one contiguous power-of-two buffer.
//
// The reclaim layer's per-process lists are FIFO queues that only their
// owner touches: the free lists (32-bit node indices) and PrivateBook's
// retired list ({index, stamp} pairs). A FifoRing keeps such a list in one
// allocation with no per-entry or per-chunk overhead. Capacity is a power
// of two and doubles only when a push finds the ring full, so it never
// exceeds the smallest power of two that holds the most entries the ring
// ever held at once — for a reclaimer list, bit_ceil(pool size), since a
// node index sits on at most one list. Iteration runs front to back.
//
// structures::LocalRing is not reused here: it is the bounded member of the
// ring family, and Figure 4's usedQ relies on its refusing a push at its
// exact capacity, which a list that must hold any share of the pool cannot.
#pragma once

#include <bit>
#include <cstddef>
#include <initializer_list>
#include <iterator>
#include <utility>
#include <vector>

#include "util/assert.h"

namespace aba::util {

template <class T>
class FifoRing {
 public:
  using value_type = T;

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = const T*;
    using reference = const T&;

    const_iterator() = default;
    const_iterator(const FifoRing* ring, std::size_t i) : ring_(ring), i_(i) {}

    reference operator*() const { return ring_->at(i_); }
    pointer operator->() const { return &ring_->at(i_); }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator before = *this;
      ++i_;
      return before;
    }
    bool operator==(const const_iterator& o) const { return i_ == o.i_; }

   private:
    const FifoRing* ring_ = nullptr;
    std::size_t i_ = 0;
  };

  FifoRing() = default;
  FifoRing(std::initializer_list<T> values) {
    reserve(values.size());
    for (const T& value : values) push_back(value);
  }

  // A ring holding first, first + 1, ..., first + count - 1, front to back:
  // what reserve(count) and count push_backs build, filled in one pass.
  static FifoRing iota(T first, std::size_t count) {
    FifoRing ring;
    if (count == 0) return ring;
    const std::size_t capacity = std::bit_ceil(count);
    ring.buffer_.reserve(capacity);
    for (std::size_t i = 0; i < count; ++i) {
      ring.buffer_.push_back(static_cast<T>(first + i));
    }
    ring.buffer_.resize(capacity);
    ring.size_ = count;
    return ring;
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return buffer_.size(); }

  // Makes room for n entries in one allocation.
  void reserve(std::size_t n) {
    if (n > capacity()) regrow(std::bit_ceil(n));
  }

  const T& front() const {
    ABA_ASSERT(!empty());
    return buffer_[head_];
  }

  // By value: `value` may alias an entry (push_back(front())) that a
  // regrow frees.
  void push_back(T value) {
    if (size_ == capacity()) regrow(size_ == 0 ? 1 : 2 * size_);
    buffer_[(head_ + size_) & mask()] = value;
    ++size_;
  }

  void pop_front() {
    ABA_ASSERT(!empty());
    head_ = (head_ + 1) & mask();
    --size_;
  }

  // Empties the ring and keeps its buffer.
  void clear() {
    head_ = 0;
    size_ = 0;
  }

  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size_}; }

 private:
  std::size_t mask() const { return capacity() - 1; }
  const T& at(std::size_t i) const { return buffer_[(head_ + i) & mask()]; }

  // Moves the entries, in order, to the front of a buffer of `capacity`.
  void regrow(std::size_t capacity) {
    std::vector<T> grown(capacity);
    for (std::size_t i = 0; i < size_; ++i) grown[i] = at(i);
    buffer_ = std::move(grown);
    head_ = 0;
  }

  std::vector<T> buffer_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace aba::util
