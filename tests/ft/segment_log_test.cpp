// Unit and crash-restart property tests for the shared log-structured
// checkpoint backend (ft/segment_log.hpp) and its file-store incarnation:
// delta chains, compaction, the fetch_log catch-up stream, fsync modes, and
// recovery from every crash point the atomic-write protocol leaves behind.
#include "ft/segment_log.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>

#include "ft/checkpoint_store.hpp"
#include "ft/delta.hpp"
#include "orb/orb.hpp"

namespace ft {
namespace {

constexpr std::uint32_t kChunk = 64;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

corba::Blob blob_of(std::string_view text) {
  corba::Blob blob(text.size());
  std::memcpy(blob.data(), text.data(), text.size());
  return blob;
}

/// 1 KiB state of a single fill byte.  Deltas that touch one chunk encode to
/// far less than the base size, so chains accumulate instead of tripping the
/// payload-outgrows-base compaction rule on every append.
corba::Blob state_of(char fill) {
  return corba::Blob(1024, std::byte{static_cast<unsigned char>(fill)});
}

corba::Blob mutate(corba::Blob state, std::size_t index, char value) {
  state[index] = std::byte{static_cast<unsigned char>(value)};
  return state;
}

/// Encoded StateDelta turning `base` into `next` (the wire payload
/// store_delta ships).
corba::Blob delta_between(const corba::Blob& base, const corba::Blob& next) {
  return StateDelta::diff(base, next, kChunk)
      .encode();
}

// --- SegmentLog --------------------------------------------------------------

TEST(SegmentLog, FullPutReplacesAndRejectsStaleVersions) {
  SegmentLog log;
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.version(), 0u);
  log.put_full(3, blob_of("aaaa"));
  EXPECT_EQ(log.version(), 3u);
  EXPECT_EQ(log.materialize(), blob_of("aaaa"));
  EXPECT_THROW(log.put_full(3, blob_of("b")), corba::BAD_PARAM);
  EXPECT_THROW(log.put_full(2, blob_of("b")), corba::BAD_PARAM);
  log.put_full(4, blob_of("bbbb"));
  EXPECT_EQ(log.materialize(), blob_of("bbbb"));
}

TEST(SegmentLog, DeltaChainMaterializesAndEnforcesTheBase) {
  SegmentLog log(DeltaPolicy{.max_chain = 8});
  const corba::Blob v1 = state_of('a');
  const corba::Blob v2 = mutate(v1, 0, 'b');
  const corba::Blob v3 = mutate(v2, 512, 'c');
  log.put_full(1, v1);
  EXPECT_FALSE(log.append_delta(1, 2, delta_between(v1, v2)));
  EXPECT_EQ(log.materialize(), v2);
  // Wrong base (1 is no longer the head) and stale versions are rejected.
  EXPECT_THROW(log.append_delta(1, 3, delta_between(v1, v3)),
               corba::BAD_PARAM);
  EXPECT_THROW(log.append_delta(2, 2, delta_between(v2, v3)),
               corba::BAD_PARAM);
  EXPECT_FALSE(log.append_delta(2, 3, delta_between(v2, v3)));
  EXPECT_EQ(log.version(), 3u);
  EXPECT_EQ(log.materialize(), v3);
  EXPECT_EQ(log.segments().size(), 2u);
}

TEST(SegmentLog, CompactsWhenTheChainFills) {
  SegmentLog log(DeltaPolicy{.max_chain = 2});
  corba::Blob state = state_of('a');
  log.put_full(1, state);
  corba::Blob next = mutate(state, 0, 'b');
  EXPECT_FALSE(log.append_delta(1, 2, delta_between(state, next)));
  state = next;
  next = mutate(state, 1, 'c');
  // Second delta hits max_chain: the log compacts to a fresh base.
  EXPECT_TRUE(log.append_delta(2, 3, delta_between(state, next)));
  EXPECT_EQ(log.base_version(), 3u);
  EXPECT_TRUE(log.segments().empty());
  EXPECT_EQ(log.materialize(), next);
}

TEST(SegmentLog, CompactsWhenChainPayloadOutgrowsTheBase) {
  SegmentLog log(DeltaPolicy{.max_chain = 100});
  const corba::Blob small = blob_of("aa");
  log.put_full(1, small);
  // Any delta payload exceeds a 2-byte base.
  EXPECT_TRUE(log.append_delta(1, 2, delta_between(small, blob_of("zz"))));
  EXPECT_EQ(log.base_version(), 2u);
  EXPECT_EQ(log.materialize(), blob_of("zz"));
}

TEST(SegmentLog, LogSinceServesSuffixFullOrEmpty) {
  SegmentLog log(DeltaPolicy{.max_chain = 8});
  const corba::Blob v1 = state_of('a');
  const corba::Blob v2 = mutate(v1, 0, 'b');
  const corba::Blob v3 = mutate(v2, 512, 'c');
  log.put_full(1, v1);
  log.append_delta(1, 2, delta_between(v1, v2));
  log.append_delta(2, 3, delta_between(v2, v3));

  // Caught up: nothing to ship.
  EXPECT_TRUE(log.log_since(3).empty());

  // Anchored at the base: the whole chain, no base payload.
  CheckpointLog from_base = log.log_since(1);
  EXPECT_FALSE(from_base.has_base);
  ASSERT_EQ(from_base.segments.size(), 2u);
  EXPECT_EQ(from_base.segments[0].version, 2u);

  // Anchored mid-chain: just the missing tail.
  CheckpointLog from_mid = log.log_since(2);
  EXPECT_FALSE(from_mid.has_base);
  ASSERT_EQ(from_mid.segments.size(), 1u);
  EXPECT_EQ(from_mid.segments[0].version, 3u);

  // Unknown anchor (compacted away): the full base + chain.
  CheckpointLog full = log.log_since(0);
  ASSERT_TRUE(full.has_base);
  EXPECT_EQ(full.base_version, 1u);
  EXPECT_EQ(full.segments.size(), 2u);
  EXPECT_EQ(materialize(full), v3);
  EXPECT_EQ(full.head_version(), 3u);
}

TEST(SegmentLog, MaterializeRejectsBaselessSuffix) {
  CheckpointLog suffix;
  suffix.segments.push_back({2, 1, {}});
  EXPECT_THROW(materialize(suffix), corba::BAD_PARAM);
}

// --- CheckpointLog wire format ----------------------------------------------

TEST(CheckpointLog, ValueRoundTrips) {
  CheckpointLog log;
  log.has_base = true;
  log.base_version = 7;
  log.base = blob_of("base");
  log.segments.push_back({8, 7, blob_of("d1")});
  log.segments.push_back({9, 8, {}});

  const CheckpointLog decoded = CheckpointLog::from_value(log.to_value());
  EXPECT_TRUE(decoded.has_base);
  EXPECT_EQ(decoded.base_version, 7u);
  EXPECT_EQ(decoded.base, blob_of("base"));
  ASSERT_EQ(decoded.segments.size(), 2u);
  EXPECT_EQ(decoded.segments[0].version, 8u);
  EXPECT_EQ(decoded.segments[0].base_version, 7u);
  EXPECT_EQ(decoded.segments[0].delta, blob_of("d1"));
  EXPECT_EQ(decoded.segments[1].version, 9u);
  EXPECT_TRUE(decoded.segments[1].delta.empty());
}

TEST(CheckpointLog, MalformedPayloadThrowsMarshal) {
  EXPECT_THROW(CheckpointLog::from_value(corba::Value(corba::ValueSeq{})),
               corba::MARSHAL);
  EXPECT_THROW(CheckpointLog::from_value(corba::Value(corba::ValueSeq{
                   corba::Value(std::uint64_t{1}),
                   corba::Value(std::uint64_t{1}), corba::Value(corba::Blob{}),
                   corba::Value(corba::ValueSeq{
                       corba::Value(corba::ValueSeq{})})})),
               corba::MARSHAL);
}

// --- validate_chain ----------------------------------------------------------

TEST(ValidateChain, KeepsTheLinkedRunAndOrphansTheRest) {
  const std::vector<LogSegment> segments = {
      {2, 1, {}},  // fine
      {1, 0, {}},  // stale (<= base)
      {3, 2, {}},  // fine
      {5, 4, {}},  // gap: base 4 was never written
      {6, 5, {}},  // after the gap: orphaned by cascade
  };
  const ChainSplit split = validate_chain(1, segments);
  EXPECT_EQ(split.keep, (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(split.orphans, (std::vector<std::size_t>{1, 3, 4}));
}

// --- fetch_log through the backends and the wire -----------------------------

TEST(MemoryCheckpointStore, FetchLogServesSuffixAndHeadVersion) {
  MemoryCheckpointStore store;
  const corba::Blob v1 = state_of('a');
  const corba::Blob v2 = mutate(v1, 0, 'b');
  store.store("k", 1, v1);
  store.store_delta("k", 1, 2, delta_between(v1, v2));

  EXPECT_EQ(store.head_version("k"), 2u);
  EXPECT_EQ(store.head_version("missing"), 0u);
  EXPECT_TRUE(store.fetch_log("missing", 0).empty());
  EXPECT_TRUE(store.fetch_log("k", 2).empty());

  const CheckpointLog suffix = store.fetch_log("k", 1);
  EXPECT_FALSE(suffix.has_base);
  ASSERT_EQ(suffix.segments.size(), 1u);
  EXPECT_EQ(suffix.segments[0].version, 2u);

  const CheckpointLog full = store.fetch_log("k", 0);
  ASSERT_TRUE(full.has_base);
  EXPECT_EQ(materialize(full), v2);
}

TEST(CheckpointStoreWire, HeadVersionAndFetchLogRoundTrip) {
  auto network = std::make_shared<corba::InProcessNetwork>();
  auto orb = corba::ORB::init({.endpoint_name = "seg", .network = network});
  auto backend = std::make_shared<MemoryCheckpointStore>();
  CheckpointStoreStub stub(
      orb->activate(std::make_shared<CheckpointStoreServant>(backend)));

  const corba::Blob v1 = state_of('a');
  const corba::Blob v2 = mutate(v1, 0, 'b');
  stub.store("k", 1, v1);
  stub.store_delta("k", 1, 2, delta_between(v1, v2));

  EXPECT_EQ(stub.head_version("k"), 2u);
  EXPECT_EQ(stub.head_version("nope"), 0u);
  const CheckpointLog suffix = stub.fetch_log("k", 1);
  EXPECT_FALSE(suffix.has_base);
  ASSERT_EQ(suffix.segments.size(), 1u);
  const CheckpointLog full = stub.fetch_log("k", 0);
  ASSERT_TRUE(full.has_base);
  EXPECT_EQ(materialize(full), v2);
}

// --- file store: fsync modes -------------------------------------------------

TEST(FsyncMode, NamesAreStable) {
  EXPECT_EQ(to_string(FsyncMode::off), "off");
  EXPECT_EQ(to_string(FsyncMode::data), "data");
  EXPECT_EQ(to_string(FsyncMode::full), "full");
}

TEST(FileCheckpointStore, AllFsyncModesRoundTrip) {
  for (const FsyncMode mode :
       {FsyncMode::off, FsyncMode::data, FsyncMode::full}) {
    FileCheckpointStore store(
        fresh_dir(std::string("ckpt_fsync_") + std::string(to_string(mode))),
        DeltaPolicy{}, mode);
    EXPECT_EQ(store.fsync_mode(), mode);
    store.store("k", 1, blob_of("state"));
    const auto loaded = store.load("k");
    ASSERT_TRUE(loaded);
    EXPECT_EQ(loaded->state, blob_of("state"));
  }
}

// --- file store: crash-restart properties ------------------------------------

/// The acknowledged history 1..3 written through a store in `dir`.
struct AckedHistory {
  corba::Blob v1 = state_of('a');
  corba::Blob v2 = mutate(v1, 0, 'b');
  corba::Blob v3 = mutate(v2, 512, 'c');
};

/// On-disk segment names hex-encode the key: "k" -> "6b".
constexpr std::string_view kEncodedKey = "6b";

AckedHistory write_acked_history(const std::string& dir) {
  AckedHistory history;
  FileCheckpointStore store(dir, DeltaPolicy{.max_chain = 16});
  store.store("k", 1, history.v1);
  store.store_delta("k", 1, 2, delta_between(history.v1, history.v2));
  store.store_delta("k", 2, 3, delta_between(history.v2, history.v3));
  return history;
}

void write_raw(const std::filesystem::path& path,
               const corba::Blob& payload) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(payload.data()),
            static_cast<std::streamsize>(payload.size()));
}

corba::Blob encode_segment(std::uint64_t version, std::uint64_t base_version,
                           const corba::Blob& delta) {
  corba::Blob payload(2 * sizeof(std::uint64_t) + delta.size());
  std::memcpy(payload.data(), &version, sizeof(version));
  std::memcpy(payload.data() + sizeof(version), &base_version,
              sizeof(base_version));
  if (!delta.empty())
    std::memcpy(payload.data() + 2 * sizeof(std::uint64_t), delta.data(),
                delta.size());
  return payload;
}

TEST(FileCheckpointStoreCrash, TmpLeftoverFromKilledWriteIsIgnored) {
  const std::string dir = fresh_dir("ckpt_crash_tmp");
  const AckedHistory history = write_acked_history(dir);
  // Crash between the segment tmp write and its rename: the next segment's
  // bytes exist only under the .tmp name and were never acknowledged.
  write_raw(std::filesystem::path(dir) /
                (std::string(kEncodedKey) + ".4.dckpt.tmp"),
            encode_segment(4, 3, blob_of("garbage")));
  FileCheckpointStore reopened(dir);
  const auto loaded = reopened.load("k");
  ASSERT_TRUE(loaded);
  EXPECT_EQ(loaded->version, 3u);  // the last *acknowledged* version
  EXPECT_EQ(loaded->state, history.v3);
}

TEST(FileCheckpointStoreCrash, OrphanAndGapSegmentsAreDiscardedOnReload) {
  const std::string dir = fresh_dir("ckpt_crash_orphans");
  const AckedHistory history = write_acked_history(dir);
  // A crash mid-replication/compaction can leave segments that no longer
  // link to the chain: stale (version <= base after a compaction elsewhere)
  // and gapped (their base version was never acknowledged here).
  const std::filesystem::path stale =
      std::filesystem::path(dir) / (std::string(kEncodedKey) + ".1.dckpt");
  const std::filesystem::path gapped =
      std::filesystem::path(dir) / (std::string(kEncodedKey) + ".9.dckpt");
  write_raw(stale, encode_segment(1, 0, blob_of("stale")));
  write_raw(gapped, encode_segment(9, 8, blob_of("gap")));

  FileCheckpointStore reopened(dir);
  const auto loaded = reopened.load("k");
  ASSERT_TRUE(loaded);
  EXPECT_EQ(loaded->version, 3u);
  EXPECT_EQ(loaded->state, history.v3);
  // The orphans were physically discarded, not just skipped.
  EXPECT_FALSE(std::filesystem::exists(stale));
  EXPECT_FALSE(std::filesystem::exists(gapped));
}

TEST(FileCheckpointStoreCrash, TruncatedSegmentIsIgnored) {
  const std::string dir = fresh_dir("ckpt_crash_trunc");
  const AckedHistory history = write_acked_history(dir);
  write_raw(std::filesystem::path(dir) /
                (std::string(kEncodedKey) + ".4.dckpt"),
            blob_of("shrt"));
  FileCheckpointStore reopened(dir);
  const auto loaded = reopened.load("k");
  ASSERT_TRUE(loaded);
  EXPECT_EQ(loaded->version, 3u);
  EXPECT_EQ(loaded->state, history.v3);
}

TEST(FileCheckpointStoreCrash, ReloadServesTheCatchUpStream) {
  const std::string dir = fresh_dir("ckpt_crash_fetch");
  const AckedHistory history = write_acked_history(dir);
  FileCheckpointStore reopened(dir);
  EXPECT_EQ(reopened.head_version("k"), 3u);
  const CheckpointLog suffix = reopened.fetch_log("k", 1);
  EXPECT_FALSE(suffix.has_base);
  ASSERT_EQ(suffix.segments.size(), 2u);
  EXPECT_EQ(suffix.segments[0].version, 2u);
  EXPECT_EQ(suffix.segments[1].version, 3u);
  const CheckpointLog full = reopened.fetch_log("k", 0);
  ASSERT_TRUE(full.has_base);
  EXPECT_EQ(materialize(full), history.v3);
}

}  // namespace
}  // namespace ft
