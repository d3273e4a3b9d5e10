// Unit tests for the metrics registry: counters, gauges, histogram bucket
// semantics, snapshot merging and the exporters.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <stdexcept>


namespace obs {
namespace {

TEST(Counter, IncrementsAndResets) {
  Counter c("test.counter");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, SetAddReset) {
  Gauge g("test.gauge");
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

// Bounds are *inclusive upper* bounds, with an implicit overflow bucket.
TEST(Histogram, BucketBoundariesAreInclusiveUpperBounds) {
  Histogram h("test.hist", {1.0, 2.0, 5.0});
  h.record(0.5);   // bucket 0: <= 1
  h.record(1.0);   // bucket 0: boundary value stays in the lower bucket
  h.record(1.001); // bucket 1
  h.record(2.0);   // bucket 1
  h.record(5.0);   // bucket 2
  h.record(5.001); // bucket 3 (overflow)
  h.record(100.0); // bucket 3 (overflow)

  const auto s = h.snapshot();
  ASSERT_EQ(s.buckets.size(), 4u);
  EXPECT_EQ(s.buckets[0], 2u);
  EXPECT_EQ(s.buckets[1], 2u);
  EXPECT_EQ(s.buckets[2], 1u);
  EXPECT_EQ(s.buckets[3], 2u);
  EXPECT_EQ(s.count, 7u);
  EXPECT_DOUBLE_EQ(s.sum, 0.5 + 1.0 + 1.001 + 2.0 + 5.0 + 5.001 + 100.0);
}

TEST(Histogram, RejectsUnsortedBounds) {
  EXPECT_THROW(Histogram("test.bad", {2.0, 1.0}), std::invalid_argument);
}

TEST(Histogram, MeanAndQuantile) {
  Histogram h("test.hist", {1.0, 2.0, 5.0});
  for (int i = 0; i < 8; ++i) h.record(0.5);
  h.record(1.5);
  h.record(10.0);

  const auto s = h.snapshot();
  EXPECT_DOUBLE_EQ(s.mean(), (8 * 0.5 + 1.5 + 10.0) / 10.0);
  // 10 samples: p50 lands in the first bucket (<=1), p90 in (1,2], the
  // overflow bucket reports the last finite bound.
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.9), 2.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 5.0);
  // Out-of-range q is clamped; an empty snapshot reports 0.
  EXPECT_DOUBLE_EQ(s.quantile(7.0), 5.0);
  EXPECT_DOUBLE_EQ(Histogram("test.empty", {1.0}).snapshot().quantile(0.5),
                   0.0);
}

TEST(Histogram, MergeAddsSamplesAndChecksBounds) {
  Histogram a("test.a", {1.0, 2.0});
  Histogram b("test.b", {1.0, 2.0});
  a.record(0.5);
  b.record(1.5);
  b.record(3.0);

  auto merged = a.snapshot();
  merged.merge(b.snapshot());
  EXPECT_EQ(merged.count, 3u);
  EXPECT_DOUBLE_EQ(merged.sum, 5.0);
  EXPECT_EQ(merged.buckets[0], 1u);
  EXPECT_EQ(merged.buckets[1], 1u);
  EXPECT_EQ(merged.buckets[2], 1u);

  Histogram other("test.other", {1.0, 3.0});
  auto bad = a.snapshot();
  EXPECT_THROW(bad.merge(other.snapshot()), std::invalid_argument);
}

TEST(Registry, HandlesAreStableAndKindChecked) {
  MetricsRegistry registry;
  Counter& c = registry.counter("layer.events_total");
  Counter& again = registry.counter("layer.events_total");
  EXPECT_EQ(&c, &again);
  EXPECT_THROW(registry.gauge("layer.events_total"), std::invalid_argument);
  EXPECT_THROW(registry.histogram("layer.events_total"),
               std::invalid_argument);
  Histogram& h = registry.histogram("layer.latency_s", {1.0, 2.0});
  EXPECT_EQ(&h, &registry.histogram("layer.latency_s", {1.0, 2.0}));
  EXPECT_THROW(registry.histogram("layer.latency_s", {1.0, 3.0}),
               std::invalid_argument);
}

TEST(Registry, SnapshotIsNameSortedAndResetZeroesInPlace) {
  MetricsRegistry registry;
  Counter& c = registry.counter("z.count");
  registry.gauge("a.gauge").set(3.0);
  registry.histogram("m.hist", {1.0}).record(0.5);
  c.inc(5);

  const MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.entries.size(), 3u);
  EXPECT_EQ(snap.entries[0].name, "a.gauge");
  EXPECT_EQ(snap.entries[1].name, "m.hist");
  EXPECT_EQ(snap.entries[2].name, "z.count");
  EXPECT_EQ(snap.entries[2].counter_value, 5u);

  registry.reset();
  EXPECT_EQ(c.value(), 0u);  // the handle survives reset
  const MetricsSnapshot zeroed = registry.snapshot();
  EXPECT_EQ(zeroed.entries[2].counter_value, 0u);
  EXPECT_DOUBLE_EQ(zeroed.entries[0].gauge_value, 0.0);
  EXPECT_EQ(zeroed.entries[1].histogram.count, 0u);
}

TEST(Exporters, TextCarriesEveryKind) {
  MetricsRegistry registry;
  registry.counter("x.count").inc(2);
  registry.gauge("x.gauge").set(1.5);
  registry.histogram("x.hist", {1.0, 2.0}).record(0.25);

  const std::string text = to_text(registry.snapshot());
  EXPECT_NE(text.find("x.count counter 2"), std::string::npos);
  EXPECT_NE(text.find("x.gauge gauge 1.5"), std::string::npos);
  EXPECT_NE(text.find("x.hist histogram count=1"), std::string::npos);
}

TEST(Exporters, SnapshotCarriesAMonotonicTimestamp) {
  MetricsRegistry registry;
  registry.counter("x.count").inc();
  const MetricsSnapshot first = registry.snapshot();
  const MetricsSnapshot second = registry.snapshot();
  // taken_at comes from obs::now() (monotonic wall clock here), so scrapers
  // can compute rates from successive snapshots.
  EXPECT_GE(second.taken_at, first.taken_at);
}

TEST(Registry, GlobalIsUsableAndStable) {
  Counter& c = MetricsRegistry::global().counter("test.global_probe_total");
  c.inc();
  EXPECT_EQ(&c,
            &MetricsRegistry::global().counter("test.global_probe_total"));
  EXPECT_GE(c.value(), 1u);
}

}  // namespace
}  // namespace obs
