/**
 * @file
 * Fixed-capacity FIFO ring for the per-flit path: storage is sized
 * once at construction, so pushes and pops never allocate.
 */

#ifndef OCOR_NOC_RING_HH
#define OCOR_NOC_RING_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

namespace ocor
{

/** FIFO of at most capacity() elements (a power of two). */
template <class T>
class Ring
{
  public:
    explicit Ring(std::size_t capacity)
        : mask_(static_cast<std::uint32_t>(
              std::bit_ceil(std::max<std::size_t>(capacity, 1)) - 1)),
          slots_(std::make_unique<T[]>(std::size_t{mask_} + 1))
    {}

    bool empty() const { return size_ == 0; }
    bool full() const { return size_ > mask_; }
    std::size_t capacity() const { return std::size_t{mask_} + 1; }

    T &front() { return slots_[head_]; }
    const T &front() const { return slots_[head_]; }

    /** Append @p v; the caller checks full() first. */
    void
    push(T v)
    {
        slots_[(head_ + size_) & mask_] = std::move(v);
        ++size_;
    }

    /** Drop the front element (callers move out of front() first). */
    void
    pop()
    {
        head_ = (head_ + 1) & mask_;
        --size_;
    }

  private:
    std::uint32_t mask_;
    std::uint32_t head_ = 0;
    std::uint32_t size_ = 0;
    std::unique_ptr<T[]> slots_;
};

} // namespace ocor

#endif // OCOR_NOC_RING_HH
