// Exception types and invariant-checking helpers used across the library.
#pragma once

#include <charconv>
#include <concepts>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

namespace nocdr {

/// Raised when an input model violates a structural precondition
/// (dangling ids, discontiguous routes, malformed graphs, ...).
class InvalidModelError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Raised when an algorithm exceeds a safety bound (e.g. the deadlock
/// removal iteration cap). Indicates a heuristic livelock, never observed
/// on well-formed inputs but guarded against.
class AlgorithmLimitError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

namespace detail {

/// One part of a Require message: text, or an integer printed in
/// decimal. Characters and bools are not parts; whether 'x' or true
/// should print as text or as a number is ambiguous.
template <typename T>
concept RequireMessagePart =
    std::convertible_to<const T&, std::string_view> ||
    (std::integral<T> && !std::same_as<std::remove_cv_t<T>, bool> &&
     !std::same_as<std::remove_cv_t<T>, char>);

inline void AppendMessagePart(std::string& out, std::string_view part) {
  out += part;
}

template <std::integral T>
void AppendMessagePart(std::string& out, T value) {
  char digits[24];
  const auto result = std::to_chars(digits, digits + sizeof digits, value);
  out.append(digits, result.ptr);
}

template <typename... Parts>
[[noreturn]] void ThrowInvalidModel(const Parts&... parts) {
  std::string message;
  (AppendMessagePart(message, parts), ...);
  throw InvalidModelError(message);
}

}  // namespace detail

/// Throws InvalidModelError unless \p condition holds. Its message is
/// the concatenation of \p parts (strings and integers), built only
/// when the check fails, so a passing check costs its comparison alone.
/// The parts are still evaluated before the check: no part may read
/// what \p condition guards.
template <detail::RequireMessagePart... Parts>
void Require(bool condition, const Parts&... parts) {
  if (!condition) [[unlikely]] {
    detail::ThrowInvalidModel(parts...);
  }
}

}  // namespace nocdr
