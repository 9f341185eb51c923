/**
 * @file
 * A bounded FIFO whose storage is sized once, at construction.
 *
 * Hardware queues (the core's instruction window, uncached-buffer
 * entries, CSB line buffers) have a fixed depth, so their models need
 * no growth: FixedRing keeps its slots in one array allocated by the
 * constructor, and pushing or popping never touches the heap.  A
 * std::deque used as a FIFO allocates a node whenever its tail crosses
 * a node boundary (and on construction and move); a ring of N slots
 * costs one allocation for the lifetime of its owner.
 */

#ifndef CSB_SIM_FIXED_RING_HH
#define CSB_SIM_FIXED_RING_HH

#include <cstddef>
#include <vector>

#include "logging.hh"

namespace csb::sim {

template <typename T>
class FixedRing
{
  public:
    explicit FixedRing(std::size_t capacity) : slots_(capacity)
    {
        csb_assert(capacity > 0, "FixedRing needs at least one slot");
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    bool full() const { return size_ == slots_.size(); }

    /** The oldest element.  @pre !empty() */
    T &front() { return slots_[head_]; }
    const T &front() const { return slots_[head_]; }

    /** The element @p i places behind the front.  @pre i < size() */
    T &operator[](std::size_t i) { return slots_[index(i)]; }
    const T &operator[](std::size_t i) const { return slots_[index(i)]; }

    /** The youngest element.  @pre !empty() */
    T &back() { return slots_[index(size_ - 1)]; }
    const T &back() const { return slots_[index(size_ - 1)]; }

    /**
     * Append a value-initialized element and return it.
     * @pre !full()
     */
    T &
    emplace_back()
    {
        csb_assert(!full(), "FixedRing overflow");
        ++size_;
        return back();
    }

    /** Drop the oldest element, resetting its slot to T{}. */
    void
    pop_front()
    {
        csb_assert(!empty(), "FixedRing underflow");
        slots_[head_] = T{};
        head_ = index(1);
        --size_;
    }

    /** Drop every element. */
    void
    clear()
    {
        while (!empty())
            pop_front();
    }

  private:
    std::size_t
    index(std::size_t from_front) const
    {
        std::size_t i = head_ + from_front;
        return i < slots_.size() ? i : i - slots_.size();
    }

    /** Free slots always hold T{}, so emplace_back() need not reset. */
    std::vector<T> slots_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace csb::sim

#endif // CSB_SIM_FIXED_RING_HH
