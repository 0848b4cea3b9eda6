#pragma once

/// \file function_ref.hpp
/// Non-owning reference to a callable.  Parallel loops take their body as a
/// `FunctionRef` instead of a `const std::function&`: a `[&]` lambda that
/// captures more than two references does not fit std::function's inline
/// buffer, so every call through a std::function parameter heap-allocated a
/// copy of the lambda, even when the loop then ran serially.

#include <memory>
#include <type_traits>
#include <utility>

namespace coastal::util {

template <typename Sig>
class FunctionRef;

/// Holds the callable's address and one trampoline; copying it is two
/// words.  The referenced callable must outlive every call, which holds
/// for the usual use: a lambda argument bound for the duration of the call
/// it is passed to.
template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
             std::is_invocable_r_v<R, F&, Args...>)
  FunctionRef(F&& f) noexcept  // NOLINT: implicit by design, like std::function
      : obj_(const_cast<void*>(
            static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

 private:
  void* obj_;
  R (*call_)(void*, Args...);
};

}  // namespace coastal::util
