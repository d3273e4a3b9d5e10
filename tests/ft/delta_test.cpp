// Unit and property tests for chunked state deltas (ft/delta.hpp) and for
// the delta-checkpoint support of both store backends: materialization
// across compaction boundaries, orphan-segment recovery, and the wire ops.
#include "ft/delta.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <random>
#include <string_view>

#include "ft/checkpoint_store.hpp"
#include "orb/orb.hpp"
#include "sim/work_meter.hpp"

namespace ft {
namespace {

corba::Blob pattern_blob(std::size_t size, std::uint8_t salt = 0) {
  corba::Blob blob(size);
  for (std::size_t i = 0; i < size; ++i)
    blob[i] = static_cast<std::byte>((i * 31 + salt) & 0xff);
  return blob;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// Random in-place mutation + occasional resize, deterministic per seed.
corba::Blob mutate(corba::Blob state, std::mt19937_64& rng) {
  std::uniform_int_distribution<int> action(0, 9);
  const int roll = action(rng);
  if (roll == 0 && state.size() > 1) {
    state.resize(state.size() / 2);  // shrink
  } else if (roll == 1) {
    const corba::Blob extra = pattern_blob(1 + rng() % 5000,
                                           static_cast<std::uint8_t>(rng()));
    state.insert(state.end(), extra.begin(), extra.end());  // grow
  }
  if (!state.empty()) {
    std::uniform_int_distribution<std::size_t> pos(0, state.size() - 1);
    const std::size_t touches = 1 + rng() % 8;
    for (std::size_t t = 0; t < touches; ++t)
      state[pos(rng)] = static_cast<std::byte>(rng() & 0xff);
  }
  return state;
}

TEST(Fnv1a, MatchesStandardVectors) {
  // FNV-1a-64 reference values; shard placement depends on them.
  const auto hash = [](std::string_view text) {
    return fnv1a(std::as_bytes(std::span(text.data(), text.size())));
  };
  EXPECT_EQ(hash(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(hash("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(hash("foobar"), 0x85944171f73967e8ull);
}

TEST(StateDelta, DiffDetectsChangedChunksOnly) {
  const corba::Blob base = pattern_blob(4 * kDefaultChunkSize);
  corba::Blob next = base;
  next[0] = ~next[0];                            // chunk 0
  next[2 * kDefaultChunkSize + 7] = std::byte{0x42};  // chunk 2

  const StateDelta delta =
      StateDelta::diff(base, next, kDefaultChunkSize);
  ASSERT_EQ(delta.chunks.size(), 2u);
  EXPECT_EQ(delta.chunks[0].index, 0u);
  EXPECT_EQ(delta.chunks[1].index, 2u);
  EXPECT_EQ(delta.apply(base), next);
}

TEST(StateDelta, IdenticalStatesProduceEmptyDelta) {
  const corba::Blob base = pattern_blob(3 * kDefaultChunkSize + 100);
  const StateDelta delta =
      StateDelta::diff(base, base, kDefaultChunkSize);
  EXPECT_TRUE(delta.chunks.empty());
  EXPECT_EQ(delta.apply(base), base);
}

TEST(StateDelta, GrowthAndShrinkRoundTrip) {
  const corba::Blob base = pattern_blob(10000);
  for (const std::size_t next_size : {0ul, 1ul, 4096ul, 9999ul, 30000ul}) {
    corba::Blob next = pattern_blob(next_size, 7);
    const StateDelta delta =
        StateDelta::diff(base, next, kDefaultChunkSize);
    EXPECT_EQ(delta.apply(base), next) << "next_size=" << next_size;
  }
}

TEST(StateDelta, EncodeDecodeRoundTrip) {
  const corba::Blob base = pattern_blob(3 * 512);
  corba::Blob next = base;
  next[600] = std::byte{0xff};
  const StateDelta delta = StateDelta::diff(base, next, 512);
  const corba::Blob wire = delta.encode();
  const StateDelta decoded = StateDelta::decode(wire);
  EXPECT_EQ(decoded.chunk_size, delta.chunk_size);
  EXPECT_EQ(decoded.new_size, delta.new_size);
  ASSERT_EQ(decoded.chunks.size(), delta.chunks.size());
  EXPECT_EQ(decoded.apply(base), next);
}

TEST(StateDelta, ApplyRejectsWrongBase) {
  // A delta whose chunk lies beyond the new size is corrupt.
  StateDelta delta;
  delta.chunk_size = 16;
  delta.new_size = 8;
  delta.chunks.push_back({2, pattern_blob(16)});
  EXPECT_THROW(delta.apply(pattern_blob(64)), corba::BAD_PARAM);
}

TEST(StateDelta, RandomizedDiffApplyProperty) {
  std::mt19937_64 rng(1234);
  for (int round = 0; round < 20; ++round) {
    corba::Blob state = pattern_blob(1 + rng() % 20000,
                                     static_cast<std::uint8_t>(round));
    for (int step = 0; step < 15; ++step) {
      const corba::Blob next = mutate(state, rng);
      const StateDelta delta =
          StateDelta::diff(state, next, kDefaultChunkSize);
      ASSERT_EQ(delta.apply(state), next)
          << "round " << round << " step " << step;
      state = next;
    }
  }
}

// --- store-backend delta support -------------------------------------------

template <typename Store>
void exercise_delta_contract(Store& store) {
  const corba::Blob v1 = pattern_blob(3 * kDefaultChunkSize);
  store.store("k", 1, v1);

  corba::Blob v2 = v1;
  v2[10] = std::byte{0xee};
  const StateDelta d2 =
      StateDelta::diff(v1, v2, kDefaultChunkSize);
  store.store_delta("k", 1, 2, d2.encode());

  auto loaded = store.load("k");
  ASSERT_TRUE(loaded);
  EXPECT_EQ(loaded->version, 2u);
  EXPECT_EQ(loaded->state, v2);

  // Stale and mismatched deltas are rejected like stale full stores.
  EXPECT_THROW(store.store_delta("k", 1, 2, d2.encode()), corba::BAD_PARAM);
  EXPECT_THROW(store.store_delta("k", 1, 3, d2.encode()), corba::BAD_PARAM);
  EXPECT_THROW(store.store_delta("missing", 1, 2, d2.encode()),
               corba::BAD_PARAM);

  // A full store supersedes the chain.
  store.store("k", 7, v1);
  loaded = store.load("k");
  ASSERT_TRUE(loaded);
  EXPECT_EQ(loaded->version, 7u);
  EXPECT_EQ(loaded->state, v1);
}

TEST(MemoryCheckpointStoreDelta, Contract) {
  MemoryCheckpointStore store;
  exercise_delta_contract(store);
}

TEST(FileCheckpointStoreDelta, Contract) {
  FileCheckpointStore store(fresh_dir("delta_contract"));
  exercise_delta_contract(store);
}

/// Long random mutation chain through store_delta must materialize the full
/// state at every version, across multiple compaction boundaries.
template <typename Store>
void exercise_delta_chain_property(Store& store) {
  std::mt19937_64 rng(99);
  corba::Blob state = pattern_blob(12000);
  store.store("chain", 1, state);
  std::uint64_t version = 1;

  for (int step = 0; step < 40; ++step) {
    const corba::Blob next = mutate(state, rng);
    const StateDelta delta =
        StateDelta::diff(state, next, kDefaultChunkSize);
    store.store_delta("chain", version, version + 1, delta.encode());
    ++version;
    state = next;

    const auto loaded = store.load("chain");
    ASSERT_TRUE(loaded);
    EXPECT_EQ(loaded->version, version) << "step " << step;
    ASSERT_EQ(loaded->state, state) << "step " << step;
  }
}

TEST(MemoryCheckpointStoreDelta, ChainMaterializesAcrossCompactions) {
  MemoryCheckpointStore store({}, DeltaPolicy{.max_chain = 4});
  exercise_delta_chain_property(store);
  EXPECT_GT(store.compactions(), 0u);
  EXPECT_GT(store.delta_stores(), 0u);
}

TEST(FileCheckpointStoreDelta, ChainMaterializesAcrossCompactions) {
  FileCheckpointStore store(fresh_dir("delta_chain"),
                            DeltaPolicy{.max_chain = 4});
  exercise_delta_chain_property(store);
}

TEST(MemoryCheckpointStoreDelta, ChargesShippedBytesNotStateBytes) {
  MemoryCheckpointStore store({.work_per_store = 0.0, .work_per_byte = 1.0});
  const corba::Blob v1 = pattern_blob(8 * kDefaultChunkSize);
  store.store("k", 1, v1);
  corba::Blob v2 = v1;
  v2[0] = ~v2[0];
  const corba::Blob delta =
      StateDelta::diff(v1, v2, kDefaultChunkSize)
          .encode();
  sim::WorkScope scope;
  store.store_delta("k", 1, 2, delta);
  EXPECT_DOUBLE_EQ(scope.consumed(), static_cast<double>(delta.size()));
}

TEST(FileCheckpointStoreDelta, ChainSurvivesReopen) {
  const std::string dir = fresh_dir("delta_reopen");
  const corba::Blob v1 = pattern_blob(9000);
  corba::Blob v2 = v1;
  v2[5000] = std::byte{0x01};
  corba::Blob v3 = v2;
  v3[0] = std::byte{0x02};
  {
    FileCheckpointStore store(dir);
    store.store("k", 1, v1);
    store.store_delta(
        "k", 1, 2,
        StateDelta::diff(v1, v2, kDefaultChunkSize)
            .encode());
    store.store_delta(
        "k", 2, 3,
        StateDelta::diff(v2, v3, kDefaultChunkSize)
            .encode());
  }
  FileCheckpointStore reopened(dir);
  const auto loaded = reopened.load("k");
  ASSERT_TRUE(loaded);
  EXPECT_EQ(loaded->version, 3u);
  EXPECT_EQ(loaded->state, v3);
}

/// Crash-restart orphan handling: segments whose base is gone, or whose
/// chain has a gap, are discarded instead of corrupting the materialization.
TEST(FileCheckpointStoreDelta, DiscardsOrphanSegments) {
  namespace fs = std::filesystem;
  const std::string dir = fresh_dir("delta_orphans");
  const corba::Blob v1 = pattern_blob(9000);
  corba::Blob v2 = v1;
  v2[100] = std::byte{0x11};
  corba::Blob v3 = v2;
  v3[8000] = std::byte{0x22};
  {
    FileCheckpointStore store(dir);
    store.store("k", 1, v1);
    store.store_delta(
        "k", 1, 2,
        StateDelta::diff(v1, v2, kDefaultChunkSize)
            .encode());
    store.store_delta(
        "k", 2, 3,
        StateDelta::diff(v2, v3, kDefaultChunkSize)
            .encode());
  }

  // Simulate a crash that lost the middle segment: the chain now has a gap
  // at version 2, so version 3 must be discarded and the base survive.
  std::size_t segments = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".dckpt") ++segments;
  }
  ASSERT_EQ(segments, 2u);
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.find(".2.dckpt") != std::string::npos) fs::remove(entry.path());
  }

  FileCheckpointStore reopened(dir);
  const auto loaded = reopened.load("k");
  ASSERT_TRUE(loaded);
  EXPECT_EQ(loaded->version, 1u);
  EXPECT_EQ(loaded->state, v1);
  // The gapped segment file is gone for good.
  for (const auto& entry : fs::directory_iterator(dir))
    EXPECT_NE(entry.path().extension(), ".dckpt");
}

TEST(FileCheckpointStoreDelta, DiscardsSegmentsWithoutBase) {
  namespace fs = std::filesystem;
  const std::string dir = fresh_dir("delta_no_base");
  const corba::Blob v1 = pattern_blob(5000);
  corba::Blob v2 = v1;
  v2[0] = std::byte{0x33};
  {
    FileCheckpointStore store(dir);
    store.store("k", 1, v1);
    store.store_delta(
        "k", 1, 2,
        StateDelta::diff(v1, v2, kDefaultChunkSize)
            .encode());
  }
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".ckpt") fs::remove(entry.path());
  }
  FileCheckpointStore reopened(dir);
  EXPECT_EQ(reopened.load("k"), std::nullopt);
  for (const auto& entry : fs::directory_iterator(dir))
    EXPECT_NE(entry.path().extension(), ".dckpt");
}

TEST(CheckpointStoreDelta, WorksOverTheWire) {
  auto network = std::make_shared<corba::InProcessNetwork>();
  auto orb = corba::ORB::init({.endpoint_name = "store", .network = network});
  auto backend = std::make_shared<MemoryCheckpointStore>();
  CheckpointStoreStub stub(
      orb->activate(std::make_shared<CheckpointStoreServant>(backend)));
  exercise_delta_contract(stub);
  EXPECT_GT(backend->delta_stores(), 0u);
}

}  // namespace
}  // namespace ft
