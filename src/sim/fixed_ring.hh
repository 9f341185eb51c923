/**
 * @file
 * A bounded FIFO whose storage is sized once, at construction.
 *
 * Hardware queues (the core's instruction window, uncached-buffer
 * entries, CSB line buffers) have a fixed depth, so their models need
 * no growth: FixedRing keeps its slots in one block of raw storage
 * allocated by the constructor, and pushing or popping never touches
 * the heap.  A std::deque used as a FIFO allocates a node whenever its
 * tail crosses a node boundary (and on construction and move); a ring
 * of N slots costs one allocation for the lifetime of its owner.
 *
 * Only the live elements are objects: emplace_back() constructs one in
 * the next free slot, pop_front() and clear() destroy theirs, and the
 * destructor destroys whatever is left.  Building a ring therefore
 * costs its allocation and nothing per slot, and a pop costs only the
 * element's destructor.
 */

#ifndef CSB_SIM_FIXED_RING_HH
#define CSB_SIM_FIXED_RING_HH

#include <cstddef>
#include <memory>
#include <utility>

#include "logging.hh"

namespace csb::sim {

template <typename T>
class FixedRing
{
  public:
    explicit FixedRing(std::size_t capacity)
        : slots_(std::allocator<T>().allocate(capacity)),
          capacity_(capacity)
    {
        csb_assert(capacity > 0, "FixedRing needs at least one slot");
    }

    ~FixedRing()
    {
        clear();
        std::allocator<T>().deallocate(slots_, capacity_);
    }

    FixedRing(const FixedRing &) = delete;
    FixedRing &operator=(const FixedRing &) = delete;

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    bool full() const { return size_ == capacity_; }

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
     * Construct an element from @p args (value-initialized when there
     * are none) behind the youngest and return it.
     * @pre !full()
     */
    template <typename... Args>
    T &
    emplace_back(Args &&...args)
    {
        csb_assert(!full(), "FixedRing overflow");
        T *slot = std::construct_at(slots_ + index(size_),
                                    std::forward<Args>(args)...);
        ++size_;
        return *slot;
    }

    /** Destroy the oldest element. */
    void
    pop_front()
    {
        csb_assert(!empty(), "FixedRing underflow");
        std::destroy_at(slots_ + head_);
        head_ = index(1);
        --size_;
    }

    /** Destroy every element. */
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
        return i < capacity_ ? i : i - capacity_;
    }

    /** capacity_ slots; only the size_ from head_ (wrapping) are live. */
    T *slots_;
    std::size_t capacity_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace csb::sim

#endif // CSB_SIM_FIXED_RING_HH
