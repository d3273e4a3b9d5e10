// GIOP-lite message layer.
//
// CORBA's General Inter-ORB Protocol frames requests and replies with a
// fixed header (magic, version, byte-order flag, message type, body length)
// followed by a CDR body.  This module implements the same structure with a
// reduced message set: Request, Reply, CloseConnection and MessageError.
// Replies carry one of three statuses exactly like GIOP: NO_EXCEPTION,
// USER_EXCEPTION or SYSTEM_EXCEPTION.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "orb/cdr.hpp"
#include "orb/exceptions.hpp"
#include "orb/ior.hpp"
#include "orb/value.hpp"

namespace corba {

enum class MessageType : std::uint8_t {
  request = 0,
  reply = 1,
  close_connection = 2,
  message_error = 3,
  /// Resumable-session handshake (client -> server, first frame on a
  /// connection when sessions are enabled).
  session_hello = 4,
  /// Handshake answer (server -> client).
  session_accept = 5,
};

/// Fixed 12-byte message header (wire layout mirrors GIOP 1.0).
struct MessageHeader {
  static constexpr std::array<char, 4> kMagic = {'M', 'O', 'R', 'B'};
  static constexpr std::uint8_t kVersionMajor = 1;
  static constexpr std::uint8_t kVersionMinor = 0;
  static constexpr std::size_t kEncodedSize = 12;
  /// Largest body a peer may announce.  Receivers size their buffers from
  /// the header before any body byte arrives, so without a cap one hostile
  /// 12-byte header could make them zero-fill up to 4 GiB.  64 MiB sits far
  /// above any message the runtime sends (checkpoint states included).
  static constexpr std::uint32_t kMaxBodyLength = 64u * 1024 * 1024;

  MessageType type = MessageType::request;
  ByteOrder byte_order = native_byte_order();
  std::uint32_t body_length = 0;

  /// Encodes into exactly kEncodedSize bytes.
  std::array<std::byte, kEncodedSize> encode() const;
  /// Throws MARSHAL on bad magic/version/order/type and on a body_length
  /// above kMaxBodyLength.
  static MessageHeader decode(std::span<const std::byte> bytes);
};

/// Out-of-band per-request metadata, mirroring GIOP's service contexts: a
/// numeric slot id plus an opaque CDR-encoded payload.  Receivers skip slots
/// they do not understand, so new slots are forward compatible.
struct ServiceContext {
  std::uint32_t id = 0;
  std::vector<std::byte> data;
};

/// Service-context slot carrying an obs::TraceContext (three u64: trace id,
/// span id, parent span id, always little-endian regardless of the carrying
/// message's byte order).
inline constexpr std::uint32_t kTraceContextSlot = 1;

/// Service-context slot carrying a SessionContext (two u64: session sequence
/// number of this request, cumulative ack of received replies; always
/// little-endian like the trace slot).
inline constexpr std::uint32_t kSessionContextSlot = 2;

/// Per-request session metadata piggybacked on normal traffic: `seq` orders
/// this request within its session, `ack` acknowledges every reply with a
/// session sequence number <= ack (cumulative), letting the server evict
/// those frames from its retransmit buffer.
struct SessionContext {
  std::uint64_t seq = 0;
  std::uint64_t ack = 0;
};

/// First frame a session-enabled client sends on a (re)connected socket.
/// session_id == 0 asks for a fresh session; a nonzero id resumes an
/// existing one, and highest_reply_seq tells the server which buffered
/// replies the client already has (the rest are replayed).
struct SessionHello {
  std::uint64_t session_id = 0;
  std::uint64_t highest_reply_seq = 0;

  void encode_body(CdrOutputStream& out) const;
  static SessionHello decode_body(CdrInputStream& in);
};

/// Server's handshake answer.  ok == false rejects a stale/unknown session
/// (the client falls back to the batched-failure path); on success
/// highest_request_seq tells the client which buffered requests the server
/// already received, so only the missing tail is retransmitted.
struct SessionAccept {
  bool ok = true;
  std::uint64_t session_id = 0;
  std::uint64_t highest_request_seq = 0;

  void encode_body(CdrOutputStream& out) const;
  static SessionAccept decode_body(CdrInputStream& in);
};

/// An invocation request: target object key + operation + tagged arguments.
struct RequestMessage {
  std::uint64_t request_id = 0;
  ObjectKey object_key;
  std::string operation;
  ValueSeq arguments;
  /// When false the client does not expect a reply (CORBA "oneway").
  bool response_expected = true;
  /// Optional out-of-band slots.  Encoded tail-optionally: an empty list
  /// contributes zero wire bytes (the pre-slot encoding), so enabling
  /// tracing is the only thing that changes a message's size.
  std::vector<ServiceContext> service_contexts;

  void encode_body(CdrOutputStream& out) const;
  static RequestMessage decode_body(CdrInputStream& in);

  /// Rough wire size, used by the simulator's network model.
  std::size_t encoded_size_estimate() const noexcept;
};

/// Appends `context` to the request's service contexts under
/// kTraceContextSlot (replacing any slot already there).
void attach_trace_context(RequestMessage& request,
                          const obs::TraceContext& context);

/// Decodes the kTraceContextSlot payload, if present and well-formed.
std::optional<obs::TraceContext> extract_trace_context(
    const RequestMessage& request);

/// Appends `context` to the request's service contexts under
/// kSessionContextSlot (replacing any slot already there).
void attach_session_context(RequestMessage& request,
                            const SessionContext& context);

/// Decodes the kSessionContextSlot payload, if present and well-formed.
std::optional<SessionContext> extract_session_context(
    const RequestMessage& request);

enum class ReplyStatus : std::uint8_t {
  no_exception = 0,
  user_exception = 1,
  system_exception = 2,
};

/// Reply to a request: a result value or an exception description.
struct ReplyMessage {
  std::uint64_t request_id = 0;
  ReplyStatus status = ReplyStatus::no_exception;
  Value result;               ///< valid when status == no_exception
  std::string exception_id;   ///< repository id for exceptions
  std::string exception_detail;
  std::uint32_t exception_minor = 0;
  CompletionStatus completion = CompletionStatus::completed_yes;
  /// Tail-optional session fields (resumable sessions): when has_session is
  /// false nothing extra is written, so session-free replies stay
  /// byte-identical to the pre-session wire format.  session_seq orders this
  /// reply within the session; session_ack cumulatively acknowledges every
  /// request with seq <= session_ack.
  bool has_session = false;
  std::uint64_t session_seq = 0;
  std::uint64_t session_ack = 0;

  void encode_body(CdrOutputStream& out) const;
  static ReplyMessage decode_body(CdrInputStream& in);

  std::size_t encoded_size_estimate() const noexcept;

  /// Returns the result, or throws the carried exception (system exceptions
  /// are rethrown as their concrete type; user exceptions go through the
  /// UserExceptionRegistry).
  Value result_or_throw() const&;
  /// Same, moving the result out instead of copying it.
  Value result_or_throw() &&;

  static ReplyMessage make_result(std::uint64_t request_id, Value result);
  static ReplyMessage make_system_exception(std::uint64_t request_id,
                                            const SystemException& e);
  static ReplyMessage make_user_exception(std::uint64_t request_id,
                                          const UserException& e);
};

/// Registry mapping user-exception repository ids to throw functions so that
/// stubs can rethrow the concrete exception type declared by an interface.
/// Interfaces register their exceptions at static-init time via
/// RegisterUserException<E>.
class UserExceptionRegistry {
 public:
  using Thrower = void (*)(const std::string& detail);

  static UserExceptionRegistry& instance();

  void register_exception(std::string repo_id, Thrower thrower);
  /// Throws the registered exception, or UnknownUserException.
  [[noreturn]] void raise(const std::string& repo_id,
                          const std::string& detail) const;

 private:
  UserExceptionRegistry() = default;
  std::vector<std::pair<std::string, Thrower>> entries_;
};

/// Registers exception type E (constructible from a detail string) for id
/// E::static_repo_id().  Instantiate as a namespace-scope object.
template <typename E>
struct RegisterUserException {
  RegisterUserException() {
    UserExceptionRegistry::instance().register_exception(
        std::string(E::static_repo_id()),
        +[](const std::string& detail) -> void { throw E(detail); });
  }
};

/// Serializes header + body into one buffer (TCP transport).
std::vector<std::byte> encode_frame(MessageType type,
                                    const CdrOutputStream& body);

/// Zero-copy frame assembly: the header placeholder is written first into a
/// (possibly recycled) buffer, CDR alignment is rebased so the body encodes
/// exactly as a standalone stream would, and finish() patches the header in
/// place — the body is never copied, unlike encode_frame().  Call
/// `body().reserve(estimate)` before encoding to avoid regrowth.
class FrameBuilder {
 public:
  explicit FrameBuilder(MessageType type,
                        std::vector<std::byte>&& recycled = {},
                        ByteOrder order = native_byte_order());

  CdrOutputStream& body() noexcept { return stream_; }

  /// Patches the header and surrenders the finished frame; the builder is
  /// spent afterwards.
  std::vector<std::byte> finish();

 private:
  MessageType type_;
  CdrOutputStream stream_;
};

}  // namespace corba
