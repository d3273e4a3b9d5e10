// Self-describing value type used as the argument/result representation of
// all invocations.
//
// Real CORBA marshals arguments according to static IDL signatures; the
// Dynamic Invocation Interface then needs TypeCodes and Any to describe
// values at runtime.  This library uses one uniform representation instead:
// every argument is a tagged Value, CDR-encoded with a one-octet type tag.
// Statically typed stubs and skeletons convert between C++ types and Values
// at the API boundary, so client code keeps full type safety while DII,
// generic fault-tolerance proxies, and the naming service can handle
// requests generically.  (Documented as a deviation in DESIGN.md §2.)
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "orb/cdr.hpp"
#include "orb/exceptions.hpp"

namespace corba {

class Value;
using ValueSeq = std::vector<Value>;
using Blob = std::vector<std::byte>;

/// Tagged dynamic value: nil, bool, i64, u64, f64, string, blob, a packed
/// double sequence, or a heterogeneous sequence of Values.
class Value {
 public:
  enum class Kind : std::uint8_t {
    nil = 0,
    boolean = 1,
    int64 = 2,
    uint64 = 3,
    float64 = 4,
    string = 5,
    blob = 6,
    f64_seq = 7,
    sequence = 8,
  };

  Value() noexcept : data_(Nil{}) {}
  Value(bool v) noexcept : data_(v) {}
  Value(std::int32_t v) noexcept : data_(static_cast<std::int64_t>(v)) {}
  Value(std::int64_t v) noexcept : data_(v) {}
  Value(std::uint32_t v) noexcept : data_(static_cast<std::uint64_t>(v)) {}
  Value(std::uint64_t v) noexcept : data_(v) {}
  Value(double v) noexcept : data_(v) {}
  Value(const char* v) : data_(std::string(v)) {}
  Value(std::string v) noexcept : data_(std::move(v)) {}
  Value(Blob v) noexcept : data_(std::move(v)) {}
  Value(std::vector<double> v) noexcept : data_(std::move(v)) {}
  Value(ValueSeq v) noexcept : data_(std::move(v)) {}

  static Value from_span(std::span<const double> v) {
    return Value(std::vector<double>(v.begin(), v.end()));
  }
  static Value from_bytes(std::span<const std::byte> v) {
    return Value(Blob(v.begin(), v.end()));
  }

  Kind kind() const noexcept;
  bool is_nil() const noexcept { return kind() == Kind::nil; }

  // Checked accessors: throw BAD_PARAM on kind mismatch.  Integer accessors
  // convert between signed/unsigned when the value is representable.
  bool as_bool() const;
  std::int64_t as_i64() const;
  std::uint64_t as_u64() const;
  std::int32_t as_i32() const;
  std::uint32_t as_u32() const;
  double as_f64() const;
  const std::string& as_string() const;
  const Blob& as_blob() const&;
  /// Moves the blob out of an expiring Value (e.g. an invoke() result).
  Blob as_blob() &&;
  const std::vector<double>& as_f64_seq() const;
  const ValueSeq& as_sequence() const;
  ValueSeq& as_sequence();

  /// Deep structural equality.
  friend bool operator==(const Value& a, const Value& b);

  /// CDR encoding: one tag octet followed by the kind-specific payload.
  void encode(CdrOutputStream& out) const;
  static Value decode(CdrInputStream& in, int depth = 0);

  /// Compact single-line rendering for logs and error messages.
  std::string to_debug_string() const;

  /// Approximate size of the encoded representation, used by the simulator's
  /// network cost model.
  std::size_t encoded_size_estimate() const noexcept;

 private:
  struct Nil {
    friend bool operator==(const Nil&, const Nil&) { return true; }
  };
  using Data = std::variant<Nil, bool, std::int64_t, std::uint64_t, double,
                            std::string, Blob, std::vector<double>, ValueSeq>;
  Data data_;

  [[noreturn]] void kind_error(Kind wanted) const;
};

}  // namespace corba
