/**
 * @file
 * A move-only callable wrapper that stores its target inline.
 *
 * std::function heap-allocates every target larger than two pointers
 * (libstdc++), which put an allocation on each scheduled event and on
 * each bus completion callback.  InlineFunction<Sig, Capacity> keeps
 * its target in a fixed buffer inside the object instead.  A target
 * larger than Capacity is a compile error (static_assert), never a
 * heap fallback, so a closure that grows past its budget is caught at
 * build time.
 */

#ifndef CSB_SIM_INLINE_FUNCTION_HH
#define CSB_SIM_INLINE_FUNCTION_HH

#include <cstddef>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace csb::sim {

template <typename Sig, std::size_t Capacity>
class InlineFunction;

template <typename R, typename... Args, std::size_t Capacity>
class InlineFunction<R(Args...), Capacity>
{
    template <typename F>
    using EnableIfCallable = std::enable_if_t<
        !std::is_same_v<std::decay_t<F>, InlineFunction> &&
        std::is_invocable_r_v<R, std::decay_t<F> &, Args...>>;

  public:
    /** Largest target, in bytes, this wrapper can hold. */
    static constexpr std::size_t capacity = Capacity;

    InlineFunction() noexcept = default;
    InlineFunction(std::nullptr_t) noexcept {}

    template <typename F, typename = EnableIfCallable<F>>
    InlineFunction(F &&fn)
    {
        emplace(std::forward<F>(fn));
    }

    InlineFunction(InlineFunction &&other) noexcept { takeFrom(other); }

    InlineFunction &
    operator=(InlineFunction &&other) noexcept
    {
        if (this != &other) {
            reset();
            takeFrom(other);
        }
        return *this;
    }

    /** Replace the target, constructing the new one in place. */
    template <typename F, typename = EnableIfCallable<F>>
    InlineFunction &
    operator=(F &&fn)
    {
        reset();
        emplace(std::forward<F>(fn));
        return *this;
    }

    InlineFunction &
    operator=(std::nullptr_t) noexcept
    {
        reset();
        return *this;
    }

    InlineFunction(const InlineFunction &) = delete;
    InlineFunction &operator=(const InlineFunction &) = delete;

    ~InlineFunction() { reset(); }

    explicit operator bool() const noexcept { return ops_ != nullptr; }

    /** Call the target.  @pre a target is held. */
    R
    operator()(Args... args) const
    {
        return ops_->invoke(storage_, std::forward<Args>(args)...);
    }

    /** Destroy the target (and release what it captured). */
    void
    reset() noexcept
    {
        if (ops_ != nullptr) {
            ops_->destroy(storage_);
            ops_ = nullptr;
        }
    }

  private:
    struct Ops
    {
        R (*invoke)(void *target, Args &&...args);
        /** Move-construct the target at dst from src, destroy src. */
        void (*relocate)(void *dst, void *src) noexcept;
        void (*destroy)(void *target) noexcept;
    };

    template <typename D>
    static constexpr Ops opsFor{
        [](void *target, Args &&...args) -> R {
            return std::invoke(*static_cast<D *>(target),
                               std::forward<Args>(args)...);
        },
        [](void *dst, void *src) noexcept {
            D *from = static_cast<D *>(src);
            ::new (dst) D(std::move(*from));
            from->~D();
        },
        [](void *target) noexcept { static_cast<D *>(target)->~D(); },
    };

    template <typename F>
    void
    emplace(F &&fn)
    {
        using D = std::decay_t<F>;
        static_assert(sizeof(D) <= Capacity,
                      "callable does not fit this InlineFunction's inline "
                      "buffer; raise its capacity");
        static_assert(alignof(D) <= alignof(void *),
                      "over-aligned callable");
        static_assert(std::is_nothrow_move_constructible_v<D>,
                      "callable must be nothrow move constructible");
        // An empty std::function or null function pointer stays empty.
        if constexpr (std::is_constructible_v<bool, const D &>) {
            if (!static_cast<bool>(fn))
                return;
        }
        ::new (static_cast<void *>(storage_)) D(std::forward<F>(fn));
        ops_ = &opsFor<D>;
    }

    void
    takeFrom(InlineFunction &other) noexcept
    {
        if (other.ops_ != nullptr) {
            other.ops_->relocate(storage_, other.storage_);
            ops_ = other.ops_;
            other.ops_ = nullptr;
        }
    }

    // mutable: like std::function, a const wrapper calls its target.
    alignas(void *) mutable unsigned char storage_[Capacity];
    const Ops *ops_ = nullptr;
};

} // namespace csb::sim

#endif // CSB_SIM_INLINE_FUNCTION_HH
