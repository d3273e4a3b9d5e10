#include "orb/value.hpp"

#include <limits>

namespace corba {

namespace {

constexpr int kMaxDecodeDepth = 64;

std::string_view kind_name(Value::Kind k) {
  switch (k) {
    case Value::Kind::nil: return "nil";
    case Value::Kind::boolean: return "bool";
    case Value::Kind::int64: return "i64";
    case Value::Kind::uint64: return "u64";
    case Value::Kind::float64: return "f64";
    case Value::Kind::string: return "string";
    case Value::Kind::blob: return "blob";
    case Value::Kind::f64_seq: return "f64seq";
    case Value::Kind::sequence: return "seq";
  }
  return "?";
}

}  // namespace

Value::Kind Value::kind() const noexcept {
  return static_cast<Kind>(data_.index());
}

void Value::kind_error(Kind wanted) const {
  throw BAD_PARAM(std::string("value kind mismatch: have ") +
                      std::string(kind_name(kind())) + ", want " +
                      std::string(kind_name(wanted)),
                  minor_code::unspecified, CompletionStatus::completed_no);
}

bool Value::as_bool() const {
  if (const bool* v = std::get_if<bool>(&data_)) return *v;
  kind_error(Kind::boolean);
}

std::int64_t Value::as_i64() const {
  if (const auto* v = std::get_if<std::int64_t>(&data_)) return *v;
  if (const auto* v = std::get_if<std::uint64_t>(&data_)) {
    if (*v <= static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()))
      return static_cast<std::int64_t>(*v);
  }
  kind_error(Kind::int64);
}

std::uint64_t Value::as_u64() const {
  if (const auto* v = std::get_if<std::uint64_t>(&data_)) return *v;
  if (const auto* v = std::get_if<std::int64_t>(&data_)) {
    if (*v >= 0) return static_cast<std::uint64_t>(*v);
  }
  kind_error(Kind::uint64);
}

std::int32_t Value::as_i32() const {
  const std::int64_t v = as_i64();
  if (v < std::numeric_limits<std::int32_t>::min() ||
      v > std::numeric_limits<std::int32_t>::max())
    throw BAD_PARAM("integer out of 32-bit range", minor_code::unspecified,
                    CompletionStatus::completed_no);
  return static_cast<std::int32_t>(v);
}

std::uint32_t Value::as_u32() const {
  const std::uint64_t v = as_u64();
  if (v > std::numeric_limits<std::uint32_t>::max())
    throw BAD_PARAM("integer out of 32-bit range", minor_code::unspecified,
                    CompletionStatus::completed_no);
  return static_cast<std::uint32_t>(v);
}

double Value::as_f64() const {
  if (const auto* v = std::get_if<double>(&data_)) return *v;
  if (const auto* v = std::get_if<std::int64_t>(&data_))
    return static_cast<double>(*v);
  if (const auto* v = std::get_if<std::uint64_t>(&data_))
    return static_cast<double>(*v);
  kind_error(Kind::float64);
}

const std::string& Value::as_string() const {
  if (const auto* v = std::get_if<std::string>(&data_)) return *v;
  kind_error(Kind::string);
}

const Blob& Value::as_blob() const& {
  if (const auto* v = std::get_if<Blob>(&data_)) return *v;
  kind_error(Kind::blob);
}

Blob Value::as_blob() && {
  if (auto* v = std::get_if<Blob>(&data_)) return std::move(*v);
  kind_error(Kind::blob);
}

const std::vector<double>& Value::as_f64_seq() const {
  if (const auto* v = std::get_if<std::vector<double>>(&data_)) return *v;
  kind_error(Kind::f64_seq);
}

const ValueSeq& Value::as_sequence() const {
  if (const auto* v = std::get_if<ValueSeq>(&data_)) return *v;
  kind_error(Kind::sequence);
}

ValueSeq& Value::as_sequence() {
  if (auto* v = std::get_if<ValueSeq>(&data_)) return *v;
  kind_error(Kind::sequence);
}

bool operator==(const Value& a, const Value& b) { return a.data_ == b.data_; }

void Value::encode(CdrOutputStream& out) const {
  out.write_octet(static_cast<std::uint8_t>(kind()));
  switch (kind()) {
    case Kind::nil:
      break;
    case Kind::boolean:
      out.write_bool(std::get<bool>(data_));
      break;
    case Kind::int64:
      out.write_i64(std::get<std::int64_t>(data_));
      break;
    case Kind::uint64:
      out.write_u64(std::get<std::uint64_t>(data_));
      break;
    case Kind::float64:
      out.write_f64(std::get<double>(data_));
      break;
    case Kind::string:
      out.write_string(std::get<std::string>(data_));
      break;
    case Kind::blob:
      out.write_blob(std::span<const std::byte>(std::get<Blob>(data_)));
      break;
    case Kind::f64_seq:
      out.write_f64_seq(std::get<std::vector<double>>(data_));
      break;
    case Kind::sequence: {
      const auto& seq = std::get<ValueSeq>(data_);
      if (seq.size() >= UINT32_MAX)
        throw MARSHAL("sequence too long", minor_code::unspecified,
                      CompletionStatus::completed_no);
      out.write_u32(static_cast<std::uint32_t>(seq.size()));
      for (const Value& v : seq) v.encode(out);
      break;
    }
  }
}

Value Value::decode(CdrInputStream& in, int depth) {
  if (depth > kMaxDecodeDepth)
    throw MARSHAL("value nesting too deep", minor_code::unspecified,
                  CompletionStatus::completed_maybe);
  const auto tag = in.read_octet();
  switch (static_cast<Kind>(tag)) {
    case Kind::nil:
      return Value();
    case Kind::boolean:
      return Value(in.read_bool());
    case Kind::int64:
      return Value(in.read_i64());
    case Kind::uint64:
      return Value(in.read_u64());
    case Kind::float64:
      return Value(in.read_f64());
    case Kind::string:
      return Value(in.read_string());
    case Kind::blob:
      return Value(in.read_blob());
    case Kind::f64_seq:
      return Value(in.read_f64_seq());
    case Kind::sequence: {
      const std::uint32_t count = in.read_u32();
      // Each element takes at least one tag octet; reject counts that cannot
      // possibly fit in the remaining buffer (defends against hostile input).
      if (count > in.remaining())
        throw MARSHAL("sequence count exceeds buffer", minor_code::unspecified,
                      CompletionStatus::completed_maybe);
      ValueSeq seq;
      seq.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i)
        seq.push_back(decode(in, depth + 1));
      return Value(std::move(seq));
    }
  }
  throw MARSHAL("unknown value tag " + std::to_string(tag),
                minor_code::unspecified, CompletionStatus::completed_maybe);
}

std::string Value::to_debug_string() const {
  switch (kind()) {
    case Kind::nil:
      return "nil";
    case Kind::boolean:
      return std::get<bool>(data_) ? "true" : "false";
    case Kind::int64:
      return std::to_string(std::get<std::int64_t>(data_));
    case Kind::uint64:
      return std::to_string(std::get<std::uint64_t>(data_)) + "u";
    case Kind::float64:
      return std::to_string(std::get<double>(data_));
    case Kind::string:
      return "\"" + std::get<std::string>(data_) + "\"";
    case Kind::blob:
      return "blob[" + std::to_string(std::get<Blob>(data_).size()) + "]";
    case Kind::f64_seq:
      return "f64[" +
             std::to_string(std::get<std::vector<double>>(data_).size()) + "]";
    case Kind::sequence: {
      std::string s = "(";
      const auto& seq = std::get<ValueSeq>(data_);
      for (std::size_t i = 0; i < seq.size(); ++i) {
        if (i) s += ", ";
        s += seq[i].to_debug_string();
      }
      return s + ")";
    }
  }
  return "?";
}

std::size_t Value::encoded_size_estimate() const noexcept {
  switch (kind()) {
    case Kind::nil:
      return 1;
    case Kind::boolean:
      return 2;
    case Kind::int64:
    case Kind::uint64:
    case Kind::float64:
      return 9;
    case Kind::string:
      return 6 + std::get<std::string>(data_).size();
    case Kind::blob:
      return 5 + std::get<Blob>(data_).size();
    case Kind::f64_seq:
      return 5 + 8 * std::get<std::vector<double>>(data_).size();
    case Kind::sequence: {
      std::size_t n = 5;
      for (const Value& v : std::get<ValueSeq>(data_))
        n += v.encoded_size_estimate();
      return n;
    }
  }
  return 1;
}

}  // namespace corba
