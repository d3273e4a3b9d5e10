#include "orb/message.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <utility>

namespace corba {

std::array<std::byte, MessageHeader::kEncodedSize> MessageHeader::encode()
    const {
  std::array<std::byte, kEncodedSize> out{};
  out[0] = static_cast<std::byte>(kMagic[0]);
  out[1] = static_cast<std::byte>(kMagic[1]);
  out[2] = static_cast<std::byte>(kMagic[2]);
  out[3] = static_cast<std::byte>(kMagic[3]);
  out[4] = static_cast<std::byte>(kVersionMajor);
  out[5] = static_cast<std::byte>(kVersionMinor);
  out[6] = static_cast<std::byte>(byte_order);
  out[7] = static_cast<std::byte>(type);
  // Body length is always little-endian in the header, independent of the
  // body's byte-order flag, so framing code never needs to branch.
  out[8] = static_cast<std::byte>(body_length & 0xff);
  out[9] = static_cast<std::byte>((body_length >> 8) & 0xff);
  out[10] = static_cast<std::byte>((body_length >> 16) & 0xff);
  out[11] = static_cast<std::byte>((body_length >> 24) & 0xff);
  return out;
}

MessageHeader MessageHeader::decode(std::span<const std::byte> bytes) {
  if (bytes.size() < kEncodedSize)
    throw MARSHAL("short message header");
  if (static_cast<char>(bytes[0]) != kMagic[0] ||
      static_cast<char>(bytes[1]) != kMagic[1] ||
      static_cast<char>(bytes[2]) != kMagic[2] ||
      static_cast<char>(bytes[3]) != kMagic[3])
    throw MARSHAL("bad message magic");
  if (static_cast<std::uint8_t>(bytes[4]) != kVersionMajor)
    throw MARSHAL("unsupported protocol version");
  MessageHeader h;
  const auto order = static_cast<std::uint8_t>(bytes[6]);
  if (order > 1) throw MARSHAL("bad byte-order flag");
  h.byte_order = static_cast<ByteOrder>(order);
  const auto type = static_cast<std::uint8_t>(bytes[7]);
  if (type > static_cast<std::uint8_t>(MessageType::session_accept))
    throw MARSHAL("bad message type");
  h.type = static_cast<MessageType>(type);
  h.body_length = static_cast<std::uint32_t>(bytes[8]) |
                  (static_cast<std::uint32_t>(bytes[9]) << 8) |
                  (static_cast<std::uint32_t>(bytes[10]) << 16) |
                  (static_cast<std::uint32_t>(bytes[11]) << 24);
  if (h.body_length > kMaxBodyLength)
    throw MARSHAL("message body length " + std::to_string(h.body_length) +
                  " exceeds the protocol maximum");
  return h;
}

void RequestMessage::encode_body(CdrOutputStream& out) const {
  out.write_u64(request_id);
  out.write_blob(std::span<const std::byte>(object_key.bytes));
  out.write_string(operation);
  out.write_bool(response_expected);
  if (arguments.size() >= UINT32_MAX)
    throw MARSHAL("too many arguments");
  out.write_u32(static_cast<std::uint32_t>(arguments.size()));
  for (const Value& v : arguments) v.encode(out);
  // Service contexts are a tail-optional extension: an empty list writes
  // nothing, so untraced messages are byte-identical to the pre-slot format
  // (and old decoders keep working on them).
  if (service_contexts.empty()) return;
  if (service_contexts.size() >= UINT32_MAX)
    throw MARSHAL("too many service contexts");
  out.write_u32(static_cast<std::uint32_t>(service_contexts.size()));
  for (const ServiceContext& ctx : service_contexts) {
    out.write_u32(ctx.id);
    out.write_blob(std::span<const std::byte>(ctx.data));
  }
}

RequestMessage RequestMessage::decode_body(CdrInputStream& in) {
  RequestMessage req;
  req.request_id = in.read_u64();
  req.object_key.bytes = in.read_blob();
  req.operation = in.read_string();
  req.response_expected = in.read_bool();
  const std::uint32_t argc = in.read_u32();
  if (argc > in.remaining())
    throw MARSHAL("argument count exceeds buffer");
  req.arguments.reserve(argc);
  for (std::uint32_t i = 0; i < argc; ++i)
    req.arguments.push_back(Value::decode(in));
  if (!in.at_end()) {
    const std::uint32_t ctxc = in.read_u32();
    if (ctxc > in.remaining())
      throw MARSHAL("service-context count exceeds buffer");
    req.service_contexts.reserve(ctxc);
    for (std::uint32_t i = 0; i < ctxc; ++i) {
      ServiceContext ctx;
      ctx.id = in.read_u32();
      ctx.data = in.read_blob();
      req.service_contexts.push_back(std::move(ctx));
    }
  }
  return req;
}

std::size_t RequestMessage::encoded_size_estimate() const noexcept {
  std::size_t n = MessageHeader::kEncodedSize + 8 + 5 +
                  object_key.bytes.size() + 5 + operation.size() + 1 + 4;
  for (const Value& v : arguments) n += v.encoded_size_estimate();
  if (!service_contexts.empty()) {
    n += 4;  // the tail-optional slot count
    for (const ServiceContext& ctx : service_contexts)
      n += 4 + 5 + ctx.data.size();
  }
  return n;
}

void attach_trace_context(RequestMessage& request,
                          const obs::TraceContext& context) {
  CdrOutputStream payload(ByteOrder::little_endian);
  payload.write_u64(context.trace_id);
  payload.write_u64(context.span_id);
  payload.write_u64(context.parent_span_id);
  for (ServiceContext& ctx : request.service_contexts) {
    if (ctx.id == kTraceContextSlot) {
      ctx.data = payload.take_buffer();
      return;
    }
  }
  request.service_contexts.push_back(
      ServiceContext{kTraceContextSlot, payload.take_buffer()});
}

void attach_session_context(RequestMessage& request,
                            const SessionContext& context) {
  CdrOutputStream payload(ByteOrder::little_endian);
  payload.write_u64(context.seq);
  payload.write_u64(context.ack);
  for (ServiceContext& ctx : request.service_contexts) {
    if (ctx.id == kSessionContextSlot) {
      ctx.data = payload.take_buffer();
      return;
    }
  }
  request.service_contexts.push_back(
      ServiceContext{kSessionContextSlot, payload.take_buffer()});
}

std::optional<SessionContext> extract_session_context(
    const RequestMessage& request) {
  for (const ServiceContext& ctx : request.service_contexts) {
    if (ctx.id != kSessionContextSlot) continue;
    if (ctx.data.size() < 16) return std::nullopt;  // malformed: ignore
    CdrInputStream in(ctx.data, ByteOrder::little_endian);
    SessionContext out;
    out.seq = in.read_u64();
    out.ack = in.read_u64();
    return out;
  }
  return std::nullopt;
}

void SessionHello::encode_body(CdrOutputStream& out) const {
  out.write_u64(session_id);
  out.write_u64(highest_reply_seq);
}

SessionHello SessionHello::decode_body(CdrInputStream& in) {
  SessionHello hello;
  hello.session_id = in.read_u64();
  hello.highest_reply_seq = in.read_u64();
  return hello;
}

void SessionAccept::encode_body(CdrOutputStream& out) const {
  out.write_bool(ok);
  out.write_u64(session_id);
  out.write_u64(highest_request_seq);
}

SessionAccept SessionAccept::decode_body(CdrInputStream& in) {
  SessionAccept accept;
  accept.ok = in.read_bool();
  accept.session_id = in.read_u64();
  accept.highest_request_seq = in.read_u64();
  return accept;
}

std::optional<obs::TraceContext> extract_trace_context(
    const RequestMessage& request) {
  for (const ServiceContext& ctx : request.service_contexts) {
    if (ctx.id != kTraceContextSlot) continue;
    if (ctx.data.size() < 24) return std::nullopt;  // malformed: ignore
    CdrInputStream in(ctx.data, ByteOrder::little_endian);
    obs::TraceContext out;
    out.trace_id = in.read_u64();
    out.span_id = in.read_u64();
    out.parent_span_id = in.read_u64();
    return out;
  }
  return std::nullopt;
}

void ReplyMessage::encode_body(CdrOutputStream& out) const {
  out.write_u64(request_id);
  out.write_octet(static_cast<std::uint8_t>(status));
  switch (status) {
    case ReplyStatus::no_exception:
      result.encode(out);
      break;
    case ReplyStatus::user_exception:
      out.write_string(exception_id);
      out.write_string(exception_detail);
      break;
    case ReplyStatus::system_exception:
      out.write_string(exception_id);
      out.write_string(exception_detail);
      out.write_u32(exception_minor);
      out.write_octet(static_cast<std::uint8_t>(completion));
      break;
  }
  // Session seq/ack is a tail-optional extension like a request's service
  // contexts: with sessions off nothing is written and the reply stays
  // byte-identical to the pre-session format.
  if (!has_session) return;
  out.write_u64(session_seq);
  out.write_u64(session_ack);
}

ReplyMessage ReplyMessage::decode_body(CdrInputStream& in) {
  ReplyMessage rep;
  rep.request_id = in.read_u64();
  const auto status = in.read_octet();
  if (status > static_cast<std::uint8_t>(ReplyStatus::system_exception))
    throw MARSHAL("bad reply status");
  rep.status = static_cast<ReplyStatus>(status);
  switch (rep.status) {
    case ReplyStatus::no_exception:
      rep.result = Value::decode(in);
      break;
    case ReplyStatus::user_exception:
      rep.exception_id = in.read_string();
      rep.exception_detail = in.read_string();
      break;
    case ReplyStatus::system_exception: {
      rep.exception_id = in.read_string();
      rep.exception_detail = in.read_string();
      rep.exception_minor = in.read_u32();
      const auto completion = in.read_octet();
      if (completion > static_cast<std::uint8_t>(CompletionStatus::completed_maybe))
        throw MARSHAL("bad completion status");
      rep.completion = static_cast<CompletionStatus>(completion);
      break;
    }
  }
  if (!in.at_end()) {
    rep.has_session = true;
    rep.session_seq = in.read_u64();
    rep.session_ack = in.read_u64();
  }
  return rep;
}

std::size_t ReplyMessage::encoded_size_estimate() const noexcept {
  return MessageHeader::kEncodedSize + 8 + 1 + result.encoded_size_estimate() +
         exception_id.size() + exception_detail.size() +
         (has_session ? 24 : 0);
}

Value ReplyMessage::result_or_throw() const& {
  switch (status) {
    case ReplyStatus::no_exception:
      return result;
    case ReplyStatus::user_exception:
      UserExceptionRegistry::instance().raise(exception_id, exception_detail);
    case ReplyStatus::system_exception:
      raise_system_exception(exception_id, exception_detail, exception_minor,
                             completion);
  }
  throw INTERNAL("corrupt reply status");
}

Value ReplyMessage::result_or_throw() && {
  if (status == ReplyStatus::no_exception) return std::move(result);
  return std::as_const(*this).result_or_throw();
}

ReplyMessage ReplyMessage::make_result(std::uint64_t request_id, Value result) {
  ReplyMessage rep;
  rep.request_id = request_id;
  rep.status = ReplyStatus::no_exception;
  rep.result = std::move(result);
  return rep;
}

ReplyMessage ReplyMessage::make_system_exception(std::uint64_t request_id,
                                                 const SystemException& e) {
  ReplyMessage rep;
  rep.request_id = request_id;
  rep.status = ReplyStatus::system_exception;
  rep.exception_id = e.repo_id();
  rep.exception_detail = e.detail();
  rep.exception_minor = e.minor();
  rep.completion = e.completed();
  return rep;
}

ReplyMessage ReplyMessage::make_user_exception(std::uint64_t request_id,
                                               const UserException& e) {
  ReplyMessage rep;
  rep.request_id = request_id;
  rep.status = ReplyStatus::user_exception;
  rep.exception_id = e.repo_id();
  rep.exception_detail = e.detail();
  return rep;
}

UserExceptionRegistry& UserExceptionRegistry::instance() {
  static UserExceptionRegistry registry;
  return registry;
}

void UserExceptionRegistry::register_exception(std::string repo_id,
                                               Thrower thrower) {
  auto it = std::find_if(entries_.begin(), entries_.end(),
                         [&](const auto& e) { return e.first == repo_id; });
  if (it == entries_.end()) entries_.emplace_back(std::move(repo_id), thrower);
}

void UserExceptionRegistry::raise(const std::string& repo_id,
                                  const std::string& detail) const {
  for (const auto& [id, thrower] : entries_) {
    if (id == repo_id) thrower(detail);
  }
  throw UnknownUserException(repo_id, detail);
}

FrameBuilder::FrameBuilder(MessageType type, std::vector<std::byte>&& recycled,
                           ByteOrder order)
    : type_(type), stream_(std::move(recycled), order) {
  static constexpr std::array<std::byte, MessageHeader::kEncodedSize>
      kPlaceholder{};
  stream_.write_raw(kPlaceholder);
  stream_.rebase_alignment();
}

std::vector<std::byte> FrameBuilder::finish() {
  MessageHeader header;
  header.type = type_;
  header.byte_order = stream_.byte_order();
  if (stream_.size() > UINT32_MAX) throw MARSHAL("message body too large");
  header.body_length = static_cast<std::uint32_t>(stream_.size());
  const auto head = header.encode();
  std::vector<std::byte> frame = stream_.take_buffer();
  std::memcpy(frame.data(), head.data(), head.size());
  return frame;
}

std::vector<std::byte> encode_frame(MessageType type,
                                    const CdrOutputStream& body) {
  MessageHeader header;
  header.type = type;
  header.byte_order = body.byte_order();
  if (body.size() > UINT32_MAX) throw MARSHAL("message body too large");
  header.body_length = static_cast<std::uint32_t>(body.size());
  const auto head = header.encode();
  std::vector<std::byte> frame;
  frame.reserve(head.size() + body.size());
  frame.assign(head.begin(), head.end());
  frame.insert(frame.end(), body.buffer().begin(), body.buffer().end());
  return frame;
}

}  // namespace corba
