// Fixed-size, allocation-free callable for simulator events.
//
// Every event action in the hot path (DCF timers, medium delivery
// wakes, traffic arrivals, adaptive-CS epochs) captures a handful of
// pointers and PODs; boxing each one in a std::function costs a heap
// allocation plus a pointer chase per event, which dominates the
// scheduler at campaign scale. inline_action stores the closure in a
// 64-byte in-object buffer instead: construction is a placement-new,
// invocation a single indirect call, relocation a memcpy for the
// trivially-copyable closures the MAC produces.
//
// The capacity is a hard compile-time contract: a capture list that
// outgrows the buffer fails to build (static_assert below) rather than
// silently re-introducing an allocation. std::function<void()> itself
// fits the buffer, so call sites that genuinely need type erasure with
// unbounded captures can pass one explicitly - that is the approved
// shim the determinism linter's std-function-hot-path rule points at.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace csense::sim {

/// Small-buffer-only move-only callable with signature void().
/// Never allocates: callables must fit `capacity` bytes, align to at
/// most `alignment`, and be nothrow-move-constructible (enforced at
/// compile time). An empty inline_action is default-constructed or
/// moved-from; invoking one is undefined (checked via operator bool).
class inline_action {
public:
    /// Twice the largest MAC closure (a DCF timer: node pointer +
    /// generation + member-function pointer = 32 bytes), which leaves
    /// room for a std::function.
    static constexpr std::size_t capacity = 64;
    static constexpr std::size_t alignment = 16;

    inline_action() noexcept = default;

    /// Implicit by design: schedule sites pass lambdas exactly as they
    /// passed them to the std::function-based API.
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, inline_action>>>
    // NOLINTNEXTLINE(google-explicit-constructor,hicpp-explicit-conversions)
    inline_action(F&& fn) noexcept {
        using callable = std::decay_t<F>;
        static_assert(std::is_invocable_r_v<void, callable&>,
                      "inline_action requires a void() callable");
        static_assert(sizeof(callable) <= capacity,
                      "event closure exceeds the inline_action buffer; "
                      "shrink the capture list (capture pointers, not "
                      "objects) or pass a std::function explicitly");
        static_assert(alignof(callable) <= alignment,
                      "event closure is over-aligned for inline_action");
        static_assert(std::is_nothrow_move_constructible_v<callable>,
                      "event closures must be nothrow-move-constructible: "
                      "moving an action (slot-table growth, a pop) runs "
                      "inside noexcept code");
        ::new (static_cast<void*>(storage_)) callable(std::forward<F>(fn));
        invoke_ = [](void* p) { (*static_cast<callable*>(p))(); };
        // Trivially-copyable closures (the common MAC case) keep both
        // hooks null: relocation is a memcpy, destruction a no-op.
        if constexpr (!std::is_trivially_copyable_v<callable>) {
            relocate_ = [](void* dst, void* src) {
                auto* from = static_cast<callable*>(src);
                ::new (dst) callable(std::move(*from));
                from->~callable();
            };
        }
        if constexpr (!std::is_trivially_destructible_v<callable>) {
            destroy_ = [](void* p) { static_cast<callable*>(p)->~callable(); };
        }
    }

    inline_action(inline_action&& other) noexcept { move_from(other); }

    inline_action& operator=(inline_action&& other) noexcept {
        if (this != &other) {
            reset();
            move_from(other);
        }
        return *this;
    }

    inline_action(const inline_action&) = delete;
    inline_action& operator=(const inline_action&) = delete;

    ~inline_action() { reset(); }

    /// True when a callable is held.
    explicit operator bool() const noexcept { return invoke_ != nullptr; }

    /// Invoke the stored callable; requires operator bool().
    void operator()() { invoke_(storage_); }

    /// Destroy the stored callable (if any) and become empty.
    void reset() noexcept {
        if (destroy_ != nullptr) destroy_(storage_);
        invoke_ = nullptr;
        relocate_ = nullptr;
        destroy_ = nullptr;
    }

private:
    void move_from(inline_action& other) noexcept {
        invoke_ = other.invoke_;
        relocate_ = other.relocate_;
        destroy_ = other.destroy_;
        if (invoke_ != nullptr) {
            if (relocate_ != nullptr) {
                relocate_(storage_, other.storage_);
            } else {
                std::memcpy(storage_, other.storage_, capacity);
            }
        }
        other.invoke_ = nullptr;
        other.relocate_ = nullptr;
        other.destroy_ = nullptr;
    }

    alignas(alignment) std::byte storage_[capacity];
    void (*invoke_)(void*) = nullptr;
    /// Move-construct dst from src and destroy src; null means the
    /// callable relocates by memcpy (trivially copyable).
    void (*relocate_)(void* dst, void* src) = nullptr;
    /// Null means trivially destructible.
    void (*destroy_)(void*) = nullptr;
};

}  // namespace csense::sim
