// Unit tests for tracing: span lifecycle, context propagation, the shared
// clock's token discipline, and the same-seed determinism contract.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace obs {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  void TearDown() override {
    set_trace_sink(nullptr);
    if (clock_token_) clear_clock(clock_token_);
    exchange_current_trace(TraceContext{});
  }

  /// Installs a sink appending every finished span to records_ (the tests
  /// are single-threaded, so no lock).
  void collect() {
    records_.clear();
    set_trace_sink([this](const SpanRecord& r) { records_.push_back(r); });
  }

  /// Deterministic time source: t advances by 1 on every reading.
  void install_step_clock() {
    auto t = std::make_shared<double>(0.0);
    clock_token_ = set_clock([t] { return (*t)++; });
  }

  std::uint64_t clock_token_ = 0;
  std::vector<SpanRecord> records_;
};

TEST_F(TraceTest, InertWithoutSink) {
  EXPECT_FALSE(tracing_enabled());
  Span span("rpc.client", "op");
  EXPECT_FALSE(span.active());
  EXPECT_FALSE(span.context().valid());
  EXPECT_FALSE(current_trace().valid());
}

TEST_F(TraceTest, SpansNestAndRestoreTheAmbientContext) {
  collect();
  EXPECT_TRUE(tracing_enabled());

  TraceContext outer_ctx, inner_ctx;
  {
    Span outer("rpc.client", "solve");
    ASSERT_TRUE(outer.active());
    outer_ctx = outer.context();
    EXPECT_TRUE(outer_ctx.valid());
    EXPECT_EQ(outer_ctx.parent_span_id, 0u);
    EXPECT_EQ(current_trace(), outer_ctx);
    {
      Span inner("marshal.cdr", "solve");
      inner_ctx = inner.context();
      EXPECT_EQ(inner_ctx.trace_id, outer_ctx.trace_id);
      EXPECT_EQ(inner_ctx.parent_span_id, outer_ctx.span_id);
      EXPECT_NE(inner_ctx.span_id, outer_ctx.span_id);
    }
    EXPECT_EQ(current_trace(), outer_ctx);
  }
  EXPECT_FALSE(current_trace().valid());

  // Spans are delivered on completion: inner first.
  ASSERT_EQ(records_.size(), 2u);
  EXPECT_EQ(records_[0].name, "marshal.cdr");
  EXPECT_EQ(records_[0].context, inner_ctx);
  EXPECT_EQ(records_[1].name, "rpc.client");
  EXPECT_EQ(records_[1].context, outer_ctx);
}

TEST_F(TraceTest, AdoptedWireContextParentsTheLocalSpan) {
  collect();

  // The server-side dispatch path adopts the wire context like this.
  const TraceContext wire{1234, 5678, 0};
  const TraceContext saved = exchange_current_trace(wire);
  EXPECT_FALSE(saved.valid());
  {
    Span span("servant.dispatch", "solve");
    EXPECT_EQ(span.context().trace_id, 1234u);
    EXPECT_EQ(span.context().parent_span_id, 5678u);
  }
  exchange_current_trace(saved);
  EXPECT_FALSE(current_trace().valid());
}

TEST_F(TraceTest, RecordSpanHonoursAnExplicitParent) {
  collect();

  const TraceContext parent{99, 7, 0};
  record_span("transport.roundtrip", "solve -> node1 ok", 1.0, 2.5, parent);
  ASSERT_EQ(records_.size(), 1u);
  EXPECT_EQ(records_[0].context.trace_id, 99u);
  EXPECT_EQ(records_[0].context.parent_span_id, 7u);
  EXPECT_NE(records_[0].context.span_id, 0u);
  EXPECT_DOUBLE_EQ(records_[0].start, 1.0);
  EXPECT_DOUBLE_EQ(records_[0].end, 2.5);
}

TEST_F(TraceTest, SameSeedRunsProduceByteIdenticalDumps) {
  auto run_once = [&](std::uint64_t seed) {
    // A fresh step clock per run, so timestamps restart from zero too.
    if (clock_token_) clear_clock(clock_token_);
    install_step_clock();
    set_trace_seed(seed);
    collect();
    {
      Span outer("rpc.client", "solve");
      Span inner("marshal.cdr", "solve");
    }
    record_span("transport.roundtrip", "solve -> node0 ok", 0.5, 1.5);
    return records_;
  };

  // Same seed: every field of every record matches, ids and times alike.
  const std::vector<SpanRecord> first = run_once(2026);
  const std::vector<SpanRecord> second = run_once(2026);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);

  // A different seed draws different ids.
  EXPECT_NE(run_once(7), first);
}

TEST_F(TraceTest, ZeroSeedStillYieldsValidIds) {
  collect();
  set_trace_seed(0);
  Span span("rpc.client", "op");
  EXPECT_TRUE(span.context().valid());
  EXPECT_NE(span.context().span_id, 0u);
}

TEST_F(TraceTest, ClockTokensOnlyClearTheirOwnInstallation) {
  const std::uint64_t first = set_clock([] { return 1e9; });
  EXPECT_DOUBLE_EQ(now(), 1e9);
  const std::uint64_t second = set_clock([] { return 2e9; });
  EXPECT_DOUBLE_EQ(now(), 2e9);

  // A stale token (the replaced clock's destructor) must not tear down the
  // successor.
  clear_clock(first);
  EXPECT_DOUBLE_EQ(now(), 2e9);
  clear_clock(second);
  EXPECT_LT(now(), 1e8);  // back on the default monotonic clock
}

}  // namespace
}  // namespace obs
