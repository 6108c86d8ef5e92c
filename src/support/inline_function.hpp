/**
 * @file
 * InlineFunction: a tiny fixed-capacity, non-allocating, move-only
 * std::function substitute. It backs TaskPool::Task, the executor's
 * queue element, and L2System::RecallFn, the DeNovo ownership-recall
 * callback. The engine's event callbacks use their own trivially
 * copyable EventFn (sim/engine.hpp) instead.
 */

#ifndef GGA_SUPPORT_INLINE_FUNCTION_HPP
#define GGA_SUPPORT_INLINE_FUNCTION_HPP

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace gga {

/**
 * Move-only callable wrapper with inline storage. Callables larger than
 * Capacity bytes fail to compile; keep captures small.
 */
template <typename Signature, std::size_t Capacity = 48>
class InlineFunction;

template <typename R, typename... Args, std::size_t Capacity>
class InlineFunction<R(Args...), Capacity>
{
  public:
    InlineFunction() = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>,
                                  InlineFunction> &&
                  std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
    InlineFunction(F&& f) // NOLINT: implicit by design, mirrors std::function
    {
        using Fn = std::decay_t<F>;
        static_assert(sizeof(Fn) <= Capacity,
                      "callable too large for InlineFunction capacity");
        static_assert(std::is_nothrow_move_constructible_v<Fn>,
                      "callable must be nothrow move constructible");
        ::new (storage_) Fn(std::forward<F>(f));
        invoke_ = [](void* s, Args... args) -> R {
            return (*std::launder(reinterpret_cast<Fn*>(s)))(
                std::forward<Args>(args)...);
        };
        moveDestroy_ = [](void* src, void* dst) {
            Fn* f_src = std::launder(reinterpret_cast<Fn*>(src));
            if (dst)
                ::new (dst) Fn(std::move(*f_src));
            f_src->~Fn();
        };
    }

    InlineFunction(InlineFunction&& other) noexcept { moveFrom(other); }

    InlineFunction&
    operator=(InlineFunction&& other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    InlineFunction(const InlineFunction&) = delete;
    InlineFunction& operator=(const InlineFunction&) = delete;

    ~InlineFunction() { reset(); }

    explicit operator bool() const { return invoke_ != nullptr; }

    R
    operator()(Args... args)
    {
        return invoke_(storage_, std::forward<Args>(args)...);
    }

  private:
    void
    reset()
    {
        if (moveDestroy_) {
            moveDestroy_(storage_, nullptr);
            invoke_ = nullptr;
            moveDestroy_ = nullptr;
        }
    }

    void
    moveFrom(InlineFunction& other)
    {
        if (other.moveDestroy_) {
            other.moveDestroy_(other.storage_, storage_);
            invoke_ = other.invoke_;
            moveDestroy_ = other.moveDestroy_;
            other.invoke_ = nullptr;
            other.moveDestroy_ = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char storage_[Capacity];
    R (*invoke_)(void*, Args...) = nullptr;
    void (*moveDestroy_)(void* src, void* dst) = nullptr;
};

} // namespace gga

#endif // GGA_SUPPORT_INLINE_FUNCTION_HPP
