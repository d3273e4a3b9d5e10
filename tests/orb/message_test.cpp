// Unit tests for the GIOP-lite message layer: header framing, request and
// reply body round trips, exception carriage, and the user-exception
// registry.
#include "orb/message.hpp"

#include <gtest/gtest.h>

namespace corba {
namespace {

TEST(MessageHeader, EncodeDecodeRoundTrip) {
  MessageHeader h;
  h.type = MessageType::reply;
  h.byte_order = ByteOrder::big_endian;
  h.body_length = 0x01020304;
  const auto bytes = h.encode();
  const MessageHeader decoded = MessageHeader::decode(bytes);
  EXPECT_EQ(decoded.type, MessageType::reply);
  EXPECT_EQ(decoded.byte_order, ByteOrder::big_endian);
  EXPECT_EQ(decoded.body_length, 0x01020304u);
}

TEST(MessageHeader, RejectsBadMagicVersionTypeOrder) {
  MessageHeader h;
  auto good = h.encode();

  auto bad = good;
  bad[0] = std::byte{'X'};
  EXPECT_THROW(MessageHeader::decode(bad), MARSHAL);

  bad = good;
  bad[4] = std::byte{9};
  EXPECT_THROW(MessageHeader::decode(bad), MARSHAL);

  bad = good;
  bad[6] = std::byte{7};
  EXPECT_THROW(MessageHeader::decode(bad), MARSHAL);

  bad = good;
  bad[7] = std::byte{200};
  EXPECT_THROW(MessageHeader::decode(bad), MARSHAL);

  EXPECT_THROW(MessageHeader::decode(std::span(good).subspan(0, 5)), MARSHAL);
}

TEST(MessageHeader, RejectsBodyLengthAboveProtocolMaximum) {
  // Receivers size their body buffer from this field before any body byte
  // arrives, so an oversized length is refused at decode time.
  MessageHeader h;
  h.body_length = MessageHeader::kMaxBodyLength;
  EXPECT_EQ(MessageHeader::decode(h.encode()).body_length,
            MessageHeader::kMaxBodyLength);
  h.body_length = MessageHeader::kMaxBodyLength + 1;
  EXPECT_THROW(MessageHeader::decode(h.encode()), MARSHAL);
  h.body_length = 0xFFFFFFFFu;
  EXPECT_THROW(MessageHeader::decode(h.encode()), MARSHAL);
}

RequestMessage sample_request() {
  RequestMessage req;
  req.request_id = 77;
  req.object_key = ObjectKey::from_string("svc#a1.9");
  req.operation = "solve";
  req.arguments = {Value(std::int64_t{3}), Value("payload"),
                   Value(std::vector<double>{1.0, 2.0})};
  return req;
}

class MessageOrderTest : public ::testing::TestWithParam<ByteOrder> {};

TEST_P(MessageOrderTest, RequestBodyRoundTrip) {
  CdrOutputStream out(GetParam());
  sample_request().encode_body(out);
  CdrInputStream in(out.buffer(), GetParam());
  const RequestMessage decoded = RequestMessage::decode_body(in);
  EXPECT_EQ(decoded.request_id, 77u);
  EXPECT_EQ(decoded.object_key, sample_request().object_key);
  EXPECT_EQ(decoded.operation, "solve");
  ASSERT_EQ(decoded.arguments.size(), 3u);
  EXPECT_EQ(decoded.arguments[1].as_string(), "payload");
  EXPECT_TRUE(decoded.response_expected);
}

TEST_P(MessageOrderTest, ResultReplyRoundTrip) {
  ReplyMessage rep = ReplyMessage::make_result(5, Value("ok"));
  CdrOutputStream out(GetParam());
  rep.encode_body(out);
  CdrInputStream in(out.buffer(), GetParam());
  const ReplyMessage decoded = ReplyMessage::decode_body(in);
  EXPECT_EQ(decoded.request_id, 5u);
  EXPECT_EQ(decoded.status, ReplyStatus::no_exception);
  EXPECT_EQ(decoded.result_or_throw().as_string(), "ok");
}

TEST_P(MessageOrderTest, SystemExceptionReplyRoundTrip) {
  const COMM_FAILURE error("link dropped", minor_code::connection_lost,
                           CompletionStatus::completed_maybe);
  ReplyMessage rep = ReplyMessage::make_system_exception(9, error);
  CdrOutputStream out(GetParam());
  rep.encode_body(out);
  CdrInputStream in(out.buffer(), GetParam());
  const ReplyMessage decoded = ReplyMessage::decode_body(in);
  EXPECT_EQ(decoded.status, ReplyStatus::system_exception);
  try {
    decoded.result_or_throw();
    FAIL() << "expected COMM_FAILURE";
  } catch (const COMM_FAILURE& e) {
    EXPECT_EQ(e.detail(), "link dropped");
    EXPECT_EQ(e.minor(), minor_code::connection_lost);
    EXPECT_EQ(e.completed(), CompletionStatus::completed_maybe);
  }
}

INSTANTIATE_TEST_SUITE_P(BothOrders, MessageOrderTest,
                         ::testing::Values(ByteOrder::big_endian,
                                           ByteOrder::little_endian),
                         [](const auto& info) {
                           return info.param == ByteOrder::big_endian ? "big"
                                                                      : "little";
                         });

struct TestError : UserException {
  explicit TestError(std::string detail)
      : UserException(std::string(static_repo_id()), std::move(detail)) {}
  static constexpr std::string_view static_repo_id() {
    return "IDL:corbaft/tests/TestError:1.0";
  }
};
RegisterUserException<TestError> register_test_error;

TEST(Reply, RegisteredUserExceptionRethrownConcretely) {
  ReplyMessage rep = ReplyMessage::make_user_exception(1, TestError("boom"));
  EXPECT_THROW(rep.result_or_throw(), TestError);
}

TEST(Reply, UnregisteredUserExceptionFallsBack) {
  ReplyMessage rep;
  rep.status = ReplyStatus::user_exception;
  rep.exception_id = "IDL:nobody/registered/This:1.0";
  rep.exception_detail = "detail";
  EXPECT_THROW(rep.result_or_throw(), UnknownUserException);
}

TEST(Reply, UnknownSystemExceptionIdBecomesInternal) {
  ReplyMessage rep;
  rep.status = ReplyStatus::system_exception;
  rep.exception_id = "IDL:omg.org/CORBA/WEIRD:1.0";
  EXPECT_THROW(rep.result_or_throw(), INTERNAL);
}

TEST(Frame, EncodeFrameMatchesHeaderPlusBody) {
  CdrOutputStream body;
  sample_request().encode_body(body);
  const auto frame = encode_frame(MessageType::request, body);
  ASSERT_GE(frame.size(), MessageHeader::kEncodedSize);
  const MessageHeader header = MessageHeader::decode(frame);
  EXPECT_EQ(header.type, MessageType::request);
  EXPECT_EQ(header.body_length, body.size());
  EXPECT_EQ(frame.size(), MessageHeader::kEncodedSize + body.size());
}

TEST(Request, SizeEstimateIsReasonable) {
  const RequestMessage req = sample_request();
  CdrOutputStream body;
  req.encode_body(body);
  const std::size_t actual = MessageHeader::kEncodedSize + body.size();
  EXPECT_GE(req.encoded_size_estimate() + 32, actual);
  EXPECT_LE(req.encoded_size_estimate(), actual + 32);
}

TEST(Frame, FrameBuilderMatchesEncodeFrameByteForByte) {
  const RequestMessage request = sample_request();
  CdrOutputStream body;
  request.encode_body(body);
  const auto copied = encode_frame(MessageType::request, body);

  FrameBuilder builder(MessageType::request);
  builder.body().reserve(request.encoded_size_estimate());
  request.encode_body(builder.body());
  const auto assembled = builder.finish();

  EXPECT_EQ(assembled, copied);
  // And the receiver-side decode sees the same request.
  const MessageHeader header = MessageHeader::decode(assembled);
  EXPECT_EQ(header.body_length, assembled.size() - MessageHeader::kEncodedSize);
  CdrInputStream in(std::span<const std::byte>(assembled)
                        .subspan(MessageHeader::kEncodedSize),
                    header.byte_order);
  const RequestMessage decoded = RequestMessage::decode_body(in);
  EXPECT_EQ(decoded.operation, request.operation);
  EXPECT_EQ(decoded.request_id, request.request_id);
}

TEST(Frame, FrameBuilderRecyclesBuffers) {
  FrameBuilder first(MessageType::reply);
  ReplyMessage::make_result(1, Value(std::int64_t{42}))
      .encode_body(first.body());
  std::vector<std::byte> recycled = first.finish();
  const std::size_t capacity = recycled.capacity();

  // A second frame assembled into the recycled buffer reuses its storage.
  FrameBuilder second(MessageType::reply, std::move(recycled));
  ReplyMessage::make_result(2, Value(std::int64_t{43}))
      .encode_body(second.body());
  const auto frame = second.finish();
  EXPECT_GE(frame.capacity(), capacity);
  const MessageHeader header = MessageHeader::decode(frame);
  EXPECT_EQ(header.type, MessageType::reply);
  CdrInputStream in(std::span<const std::byte>(frame).subspan(
                        MessageHeader::kEncodedSize),
                    header.byte_order);
  EXPECT_EQ(ReplyMessage::decode_body(in).request_id, 2u);
}

// --- service contexts / trace propagation ----------------------------------

TEST_P(MessageOrderTest, TraceContextWireRoundTrip) {
  RequestMessage req = sample_request();
  const obs::TraceContext context{0x1111222233334444ull, 0x5555666677778888ull,
                                  0x99aa99aa99aa99aaull};
  attach_trace_context(req, context);

  CdrOutputStream out(GetParam());
  req.encode_body(out);
  CdrInputStream in(out.buffer(), GetParam());
  const RequestMessage decoded = RequestMessage::decode_body(in);

  const auto extracted = extract_trace_context(decoded);
  ASSERT_TRUE(extracted.has_value());
  EXPECT_EQ(*extracted, context);
  // The message payload itself is untouched.
  EXPECT_EQ(decoded.operation, "solve");
  ASSERT_EQ(decoded.arguments.size(), 3u);
}

TEST(ServiceContexts, EmptyListAddsNoWireBytes) {
  // Old-format compatibility both ways: a context-free request encodes to
  // exactly the pre-slot byte stream, and that byte stream decodes cleanly.
  const RequestMessage req = sample_request();
  CdrOutputStream with_field;
  req.encode_body(with_field);

  CdrOutputStream pre_slot;  // the historical encoding, written by hand
  pre_slot.write_u64(req.request_id);
  pre_slot.write_blob(std::span<const std::byte>(req.object_key.bytes));
  pre_slot.write_string(req.operation);
  pre_slot.write_bool(req.response_expected);
  pre_slot.write_u32(static_cast<std::uint32_t>(req.arguments.size()));
  for (const Value& v : req.arguments) v.encode(pre_slot);

  EXPECT_EQ(with_field.buffer(), pre_slot.buffer());
  CdrInputStream in(pre_slot.buffer());
  const RequestMessage decoded = RequestMessage::decode_body(in);
  EXPECT_TRUE(decoded.service_contexts.empty());
  EXPECT_FALSE(extract_trace_context(decoded).has_value());
}

TEST(ServiceContexts, UnknownSlotsAreCarriedAndSkipped) {
  RequestMessage req = sample_request();
  req.service_contexts.push_back(
      {.id = 4242, .data = {std::byte{0xde}, std::byte{0xad}}});
  attach_trace_context(req, obs::TraceContext{7, 8, 0});

  CdrOutputStream out;
  req.encode_body(out);
  CdrInputStream in(out.buffer());
  const RequestMessage decoded = RequestMessage::decode_body(in);

  // A receiver that doesn't understand slot 4242 still sees the trace slot
  // (forward compatibility), and the unknown payload survives verbatim.
  ASSERT_EQ(decoded.service_contexts.size(), 2u);
  const auto context = extract_trace_context(decoded);
  ASSERT_TRUE(context.has_value());
  EXPECT_EQ(context->trace_id, 7u);
  EXPECT_EQ(context->span_id, 8u);
  EXPECT_EQ(decoded.service_contexts[0].id, 4242u);
  EXPECT_EQ(decoded.service_contexts[0].data,
            (std::vector<std::byte>{std::byte{0xde}, std::byte{0xad}}));
}

TEST(ServiceContexts, AttachReplacesExistingTraceSlot) {
  RequestMessage req = sample_request();
  attach_trace_context(req, obs::TraceContext{1, 2, 3});
  attach_trace_context(req, obs::TraceContext{4, 5, 6});
  ASSERT_EQ(req.service_contexts.size(), 1u);
  const auto context = extract_trace_context(req);
  ASSERT_TRUE(context.has_value());
  EXPECT_EQ(*context, (obs::TraceContext{4, 5, 6}));
}

TEST(ServiceContexts, TruncatedTracePayloadIgnored) {
  RequestMessage req = sample_request();
  req.service_contexts.push_back(
      {.id = kTraceContextSlot, .data = {std::byte{1}, std::byte{2}}});
  EXPECT_FALSE(extract_trace_context(req).has_value());
}

TEST(ServiceContexts, HostileContextCountRejected) {
  const RequestMessage req = sample_request();
  CdrOutputStream out;
  req.encode_body(out);
  out.write_u32(0x7fffffff);  // claims ~2B service contexts
  CdrInputStream in(out.buffer());
  EXPECT_THROW(RequestMessage::decode_body(in), MARSHAL);
}

TEST(Request, HostileArgumentCountRejected) {
  CdrOutputStream out;
  out.write_u64(1);
  out.write_blob(std::span<const std::byte>{});
  out.write_string("op");
  out.write_bool(true);
  out.write_u32(0x7fffffff);  // claims ~2B arguments
  CdrInputStream in(out.buffer());
  EXPECT_THROW(RequestMessage::decode_body(in), MARSHAL);
}

}  // namespace
}  // namespace corba
