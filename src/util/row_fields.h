// One field list per result row.
//
// The batch engines (runner::SweepRunner and the three campaigns in
// src/valid) each return rows that are summarized as one FNV-1a digest
// (util/digest.h), written as flat BENCH JSON objects and, in the
// certificate campaign's engine matrix, compared field by field. A row
// type lists its fields once, in digest order, as a static Fields()
// tuple of RowField; Digest, RowToJson and FirstDifference all walk that
// list, so the three cannot drift apart.
//
// Encodings. The digest hashes integers and enums as 8-byte integers,
// bools as 0/1 and strings with their length; an enum field marked
// EnumHash::kName hashes its name instead. double fields are wall clock:
// written to JSON, never digested or compared. JSON writes an enum by
// its name when the field has one, else as an integer. Fields wrapped
// in OnFailure form the failure block: always digested, but written to
// JSON only when one of the row's failure strings is non-empty.
#pragma once

#include <cstdint>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "util/digest.h"
#include "util/json.h"

namespace nocdr {

/// What the digest hashes for an enum field.
enum class EnumHash { kValue, kName };

/// One field of a row type: its JSON key, its member and its encoding.
template <typename Row, typename T>
struct RowField {
  const char* key;
  T Row::*member;
  /// Enums: the name JSON writes instead of the integer.
  std::type_identity_t<std::string (*)(T)> name = nullptr;
  EnumHash hash = EnumHash::kValue;
  bool failure = false;
};

/// \p field, as part of the failure block.
template <typename Row, typename T>
constexpr RowField<Row, T> OnFailure(RowField<Row, T> field) {
  field.failure = true;
  return field;
}

namespace detail {

template <typename Row, typename Fn>
void ForEachField(Fn&& fn) {
  std::apply([&](const auto&... field) { (fn(field), ...); }, Row::Fields());
}

template <typename Row, typename T>
void HashField(std::uint64_t& h, const Row& row,
               const RowField<Row, T>& field) {
  if constexpr (std::is_same_v<T, std::string>) {
    DigestField(h, row.*field.member);
  } else if constexpr (std::is_enum_v<T>) {
    if (field.hash == EnumHash::kName) {
      DigestField(h, field.name(row.*field.member));
    } else {
      DigestField(h, static_cast<std::uint64_t>(row.*field.member));
    }
  } else if constexpr (std::is_integral_v<T>) {
    DigestField(h, static_cast<std::uint64_t>(row.*field.member));
  } else {
    static_assert(std::is_floating_point_v<T>, "unsupported field type");
    // Wall clock: never hashed.
  }
}

/// True for the failure strings whose text opens the failure block.
template <typename Row, typename T>
bool FailureText(const Row& row, const RowField<Row, T>& field) {
  if constexpr (std::is_same_v<T, std::string>) {
    return field.failure && !(row.*field.member).empty();
  } else {
    return false;
  }
}

/// Wall-clock fields: written to JSON, never digested or compared.
template <typename Row, typename T>
constexpr bool WallClock(const RowField<Row, T>&) {
  return std::is_floating_point_v<T>;
}

template <typename Row, typename T>
std::string FieldText(const Row& row, const RowField<Row, T>& field) {
  const T& value = row.*field.member;
  if constexpr (std::is_enum_v<T>) {
    return field.name != nullptr ? JsonText(field.name(value))
                                 : JsonText(static_cast<std::uint64_t>(value));
  } else if constexpr (std::is_integral_v<T> && !std::is_same_v<T, bool>) {
    return JsonText(static_cast<std::uint64_t>(value));
  } else {
    return JsonText(value);
  }
}

}  // namespace detail

/// FNV-1a digest over the fields of \p rows, in row order.
template <typename Row>
std::uint64_t Digest(const std::vector<Row>& rows) {
  std::uint64_t h = kFnvOffsetBasis;
  for (const Row& row : rows) {
    detail::ForEachField<Row>(
        [&](const auto& field) { detail::HashField(h, row, field); });
  }
  return h;
}

/// Renders \p row as a flat JSON object for BENCH_*.json emission.
template <typename Row>
JsonObject RowToJson(const Row& row) {
  bool failed = false;
  detail::ForEachField<Row>([&](const auto& field) {
    failed = failed || detail::FailureText(row, field);
  });
  JsonObject json;
  detail::ForEachField<Row>([&](const auto& field) {
    if (failed || !field.failure) {
      json.SetRaw(field.key, detail::FieldText(row, field));
    }
  });
  return json;
}

/// The first field, in list order, on which \p a and \p b differ, as
/// "key (a vs b)" with both values in JSON; empty when they agree on
/// every field the digest covers.
template <typename Row>
std::string FirstDifference(const Row& a, const Row& b) {
  std::string difference;
  detail::ForEachField<Row>([&](const auto& field) {
    if (!difference.empty() || detail::WallClock(field)) {
      return;
    }
    const std::string lhs = detail::FieldText(a, field);
    const std::string rhs = detail::FieldText(b, field);
    if (lhs != rhs) {
      difference = std::string(field.key) + " (" + lhs + " vs " + rhs + ")";
    }
  });
  return difference;
}

}  // namespace nocdr
