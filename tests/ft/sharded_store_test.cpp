// Sharded + replicated checkpoint store: hash-ring determinism, routing,
// cross-shard key merge, freshest-replica failover, async replication with
// suffix/full catch-up, and multi-writer convergence (this binary carries
// the tsan label — the threaded tests run under -DSANITIZE=thread).
#include "ft/sharded_store.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <thread>
#include <utility>

#include "ft/checkpoint_pipeline.hpp"
#include "ft/delta.hpp"
#include "ft/store_replication.hpp"

namespace ft {
namespace {

constexpr std::uint32_t kChunk = 64;

corba::Blob blob_of(std::string_view text) {
  corba::Blob blob(text.size());
  std::memcpy(blob.data(), text.data(), text.size());
  return blob;
}

/// 1 KiB state of a single fill byte: single-chunk deltas stay far below the
/// base size, so the backend's chain accumulates instead of compacting on
/// every append (which would defeat the suffix catch-up tests).
corba::Blob state_of(char fill) {
  return corba::Blob(1024, std::byte{static_cast<unsigned char>(fill)});
}

corba::Blob mutate(corba::Blob state, std::size_t index, char value) {
  state[index] = std::byte{static_cast<unsigned char>(value)};
  return state;
}

corba::Blob delta_between(const corba::Blob& base, const corba::Blob& next) {
  return StateDelta::diff(base, next, kChunk)
      .encode();
}

/// Wrapper that simulates a crashed replica: every call throws TRANSIENT
/// while `down` is set.
class FlakyStore final : public CheckpointStoreClient {
 public:
  explicit FlakyStore(std::shared_ptr<CheckpointStoreClient> inner)
      : inner_(std::move(inner)) {}

  bool down = false;

  void store(const std::string& key, std::uint64_t version,
             const corba::Blob& state) override {
    check();
    inner_->store(key, version, state);
  }
  void store_delta(const std::string& key, std::uint64_t base_version,
                   std::uint64_t version, const corba::Blob& delta) override {
    check();
    inner_->store_delta(key, base_version, version, delta);
  }
  std::optional<Checkpoint> load(const std::string& key) override {
    check();
    return inner_->load(key);
  }
  void remove(const std::string& key) override {
    check();
    inner_->remove(key);
  }
  std::vector<std::string> keys() override {
    check();
    return inner_->keys();
  }
  std::uint64_t head_version(const std::string& key) override {
    check();
    return inner_->head_version(key);
  }
  CheckpointLog fetch_log(const std::string& key,
                          std::uint64_t since) override {
    check();
    return inner_->fetch_log(key, since);
  }

 private:
  void check() const {
    if (down) throw corba::TRANSIENT("replica host crashed");
  }
  std::shared_ptr<CheckpointStoreClient> inner_;
};

// --- hash ring ---------------------------------------------------------------

TEST(HashRing, IsDeterministicAcrossInstances) {
  const HashRing a(8, 64);
  const HashRing b(8, 64);
  for (int i = 0; i < 200; ++i) {
    const std::string key = "object-" + std::to_string(i);
    EXPECT_EQ(a.shard_for(key), b.shard_for(key)) << key;
  }
}

TEST(HashRing, PinsKeysToFixedShards) {
  // Placement is part of the store layout: a change here moves existing
  // checkpoints to shards that do not hold them.
  const HashRing eight(8, 64);
  const std::vector<std::size_t> on_eight = {0, 3, 0, 2, 2, 0,
                                             0, 0, 7, 4, 6, 3};
  const HashRing three(3, 64);
  const std::vector<std::size_t> on_three = {0, 2, 0, 2, 2, 0,
                                             0, 0, 1, 1, 1, 2};
  for (std::size_t i = 0; i < on_eight.size(); ++i) {
    const std::string key = "object-" + std::to_string(i);
    EXPECT_EQ(eight.shard_for(key), on_eight[i]) << key;
    EXPECT_EQ(three.shard_for(key), on_three[i]) << key;
  }
}

TEST(HashRing, SpreadsKeysOverEveryShard) {
  const HashRing ring(8, 64);
  std::set<std::size_t> hit;
  for (int i = 0; i < 500; ++i)
    hit.insert(ring.shard_for("object-" + std::to_string(i)));
  EXPECT_EQ(hit.size(), 8u);  // 500 keys cannot miss a shard on a 512-pt ring
}

TEST(HashRing, SingleShardTakesEverything) {
  const HashRing ring(1, 64);
  EXPECT_EQ(ring.shard_for("anything"), 0u);
  EXPECT_EQ(ring.shard_for(""), 0u);
}

// --- routing and key merge ---------------------------------------------------

std::vector<ShardedCheckpointStore::ShardReplicas> memory_shards(
    std::size_t count,
    std::vector<std::shared_ptr<MemoryCheckpointStore>>* backends = nullptr) {
  std::vector<ShardedCheckpointStore::ShardReplicas> shards;
  for (std::size_t i = 0; i < count; ++i) {
    auto backend = std::make_shared<MemoryCheckpointStore>();
    if (backends) backends->push_back(backend);
    ShardedCheckpointStore::ShardReplicas set;
    set.replicas.push_back(backend);
    shards.push_back(std::move(set));
  }
  return shards;
}

TEST(ShardedCheckpointStore, RoutesEveryKeyToItsRingShard) {
  std::vector<std::shared_ptr<MemoryCheckpointStore>> backends;
  ShardedCheckpointStore store(memory_shards(4, &backends));
  for (int i = 0; i < 64; ++i) {
    const std::string key = "object-" + std::to_string(i);
    store.store(key, 1, blob_of("v1"));
    const std::size_t shard = store.shard_for_key(key);
    for (std::size_t s = 0; s < backends.size(); ++s) {
      const bool here = backends[s]->load(key).has_value();
      EXPECT_EQ(here, s == shard) << key;
    }
  }
}

TEST(ShardedCheckpointStore, ContractHoldsAcrossShards) {
  ShardedCheckpointStore store(memory_shards(4));
  store.store("k", 1, blob_of("a"));
  EXPECT_THROW(store.store("k", 1, blob_of("b")), corba::BAD_PARAM);
  store.store("k", 2, blob_of("b"));
  EXPECT_EQ(store.load("k")->state, blob_of("b"));
  EXPECT_EQ(store.head_version("k"), 2u);
  EXPECT_EQ(store.load("missing"), std::nullopt);
  store.remove("k");
  EXPECT_EQ(store.load("k"), std::nullopt);
}

TEST(ShardedCheckpointStore, KeysMergeSortedAcrossShards) {
  ShardedCheckpointStore store(memory_shards(4));
  std::vector<std::string> expected;
  for (int i = 0; i < 32; ++i) {
    const std::string key = "object-" + std::to_string(i);
    store.store(key, 1, blob_of("x"));
    expected.push_back(key);
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(store.keys(), expected);
}

// --- failover ----------------------------------------------------------------

TEST(ShardedCheckpointStore, FailsOverToTheFreshestReplicaAndSticks) {
  auto primary_inner = std::make_shared<MemoryCheckpointStore>();
  auto stale_follower = std::make_shared<MemoryCheckpointStore>();
  auto fresh_follower = std::make_shared<MemoryCheckpointStore>();
  auto primary = std::make_shared<FlakyStore>(primary_inner);

  // Everybody has v1; only the fresh follower also has v2 (it kept up).
  for (const auto& s : {std::static_pointer_cast<CheckpointStoreClient>(
                            primary_inner),
                        std::static_pointer_cast<CheckpointStoreClient>(
                            stale_follower),
                        std::static_pointer_cast<CheckpointStoreClient>(
                            fresh_follower)})
    s->store("k", 1, blob_of("v1"));
  fresh_follower->store("k", 2, blob_of("v2"));

  ShardedCheckpointStore::ShardReplicas set;
  set.replicas = {primary, stale_follower, fresh_follower};
  std::vector<ShardedCheckpointStore::ShardReplicas> shards;
  shards.push_back(std::move(set));
  ShardedCheckpointStore store(std::move(shards));

  EXPECT_EQ(store.load("k")->version, 1u);  // primary healthy: no failover
  EXPECT_EQ(store.failovers(), 0u);

  primary->down = true;
  // Failover probes head_version and must pick the *freshest* follower
  // (index 2), not the first one.
  EXPECT_EQ(store.load("k")->version, 2u);
  EXPECT_EQ(store.failovers(), 1u);
  EXPECT_EQ(store.active_replica(0), 2u);

  // Promotion is sticky: later calls go straight to the promoted replica
  // even after the old primary recovers.
  primary->down = false;
  store.store("k", 3, blob_of("v3"));
  EXPECT_EQ(store.failovers(), 1u);
  EXPECT_EQ(fresh_follower->load("k")->version, 3u);
  EXPECT_EQ(primary_inner->load("k")->version, 1u);
}

TEST(ShardedCheckpointStore, RethrowsWhenNoReplicaIsReachable) {
  auto a = std::make_shared<FlakyStore>(std::make_shared<MemoryCheckpointStore>());
  auto b = std::make_shared<FlakyStore>(std::make_shared<MemoryCheckpointStore>());
  a->down = b->down = true;
  ShardedCheckpointStore::ShardReplicas set;
  set.replicas = {a, b};
  std::vector<ShardedCheckpointStore::ShardReplicas> shards;
  shards.push_back(std::move(set));
  ShardedCheckpointStore store(std::move(shards));
  EXPECT_THROW(store.load("k"), corba::TRANSIENT);
  EXPECT_EQ(store.failovers(), 0u);
}

TEST(ShardedCheckpointStore, BadParamDoesNotTriggerFailover) {
  auto primary = std::make_shared<MemoryCheckpointStore>();
  auto follower = std::make_shared<MemoryCheckpointStore>();
  ShardedCheckpointStore::ShardReplicas set;
  set.replicas = {primary, follower};
  std::vector<ShardedCheckpointStore::ShardReplicas> shards;
  shards.push_back(std::move(set));
  ShardedCheckpointStore store(std::move(shards));
  store.store("k", 2, blob_of("v2"));
  EXPECT_THROW(store.store("k", 1, blob_of("stale")), corba::BAD_PARAM);
  EXPECT_EQ(store.failovers(), 0u);
  EXPECT_EQ(store.active_replica(0), 0u);
}

// --- replication -------------------------------------------------------------

/// Deferred-executor harness (what the simulator provides in production).
struct DeferQueue {
  std::vector<std::function<void()>> pending;
  std::function<void(std::function<void()>)> hook() {
    return [this](std::function<void()> fn) {
      pending.push_back(std::move(fn));
    };
  }
  void pump() {
    while (!pending.empty()) {
      auto batch = std::exchange(pending, {});
      for (auto& fn : batch) fn();
    }
  }
};

TEST(ReplicatingStore, ForwardsAcknowledgedWritesInOrder) {
  DeferQueue defer;
  auto follower = std::make_shared<MemoryCheckpointStore>();
  ReplicatingStore::Options options;
  options.followers = {follower};
  options.defer = defer.hook();
  options.publish_events = false;
  ReplicatingStore store(std::make_shared<MemoryCheckpointStore>(),
                         std::move(options));

  const corba::Blob v1 = blob_of("aaaaaaaabbbbbbbb");
  const corba::Blob v2 = blob_of("aaaaaaaacccccccc");
  store.store("k", 1, v1);
  store.store_delta("k", 1, 2, delta_between(v1, v2));
  EXPECT_EQ(follower->load("k"), std::nullopt);  // not drained yet

  defer.pump();
  const auto replicated = follower->load("k");
  ASSERT_TRUE(replicated);
  EXPECT_EQ(replicated->version, 2u);
  EXPECT_EQ(replicated->state, v2);
  EXPECT_EQ(follower->delta_stores(), 1u);  // the delta path was reused
  EXPECT_EQ(store.forwards(), 2u);
  EXPECT_EQ(store.replication_lag(), 0u);
}

TEST(ReplicatingStore, RejectedWritesAreNeverForwarded) {
  DeferQueue defer;
  auto follower = std::make_shared<MemoryCheckpointStore>();
  ReplicatingStore::Options options;
  options.followers = {follower};
  options.defer = defer.hook();
  options.publish_events = false;
  ReplicatingStore store(std::make_shared<MemoryCheckpointStore>(),
                         std::move(options));
  store.store("k", 2, blob_of("v2"));
  EXPECT_THROW(store.store("k", 1, blob_of("stale")), corba::BAD_PARAM);
  defer.pump();
  EXPECT_EQ(follower->load("k")->version, 2u);
  EXPECT_EQ(store.forwards(), 1u);  // only the acknowledged write traveled
}

TEST(ReplicatingStore, LaggingFollowerIsCaughtUpWithTheSegmentSuffix) {
  DeferQueue defer;
  auto follower_backend = std::make_shared<MemoryCheckpointStore>();
  auto follower = std::make_shared<FlakyStore>(follower_backend);
  ReplicatingStore::Options options;
  options.followers = {follower};
  options.defer = defer.hook();
  options.publish_events = false;
  auto backend = std::make_shared<MemoryCheckpointStore>(
      MemoryCheckpointStore::CostModel{}, DeltaPolicy{.max_chain = 16});
  ReplicatingStore store(backend, std::move(options));

  corba::Blob state = state_of('a');
  store.store("k", 1, state);
  defer.pump();
  ASSERT_EQ(follower_backend->head_version("k"), 1u);

  // The follower crashes and misses v2 and v3: those forwards fail.
  follower->down = true;
  for (std::uint64_t v = 2; v <= 3; ++v) {
    corba::Blob next = mutate(state, static_cast<std::size_t>(v), 'x');
    store.store_delta("k", v - 1, v, delta_between(state, next));
    state = next;
  }
  defer.pump();
  ASSERT_EQ(follower_backend->head_version("k"), 1u);
  EXPECT_EQ(store.forward_failures(), 2u);

  // Back up: the v4 forward hits a base mismatch at the follower; catch-up
  // ships the v2..v4 suffix from the primary's log, not a full snapshot.
  follower->down = false;
  const corba::Blob next = mutate(state, 512, 'z');
  store.store_delta("k", 3, 4, delta_between(state, next));
  defer.pump();
  EXPECT_EQ(follower_backend->head_version("k"), 4u);
  EXPECT_EQ(follower_backend->load("k")->state, next);
  EXPECT_EQ(store.catchup_suffixes(), 1u);
  EXPECT_EQ(store.catchup_fulls(), 0u);
  EXPECT_EQ(store.replication_lag(), 0u);
}

TEST(ReplicatingStore, EmptyFollowerIsCaughtUpWithAFullSnapshot) {
  DeferQueue defer;
  auto follower_backend = std::make_shared<MemoryCheckpointStore>();
  auto follower = std::make_shared<FlakyStore>(follower_backend);
  ReplicatingStore::Options options;
  options.followers = {follower};
  options.defer = defer.hook();
  options.publish_events = false;
  ReplicatingStore store(std::make_shared<MemoryCheckpointStore>(),
                         std::move(options));

  const corba::Blob v1 = state_of('a');
  const corba::Blob v2 = mutate(v1, 0, 'b');
  follower->down = true;  // the follower never sees the base
  store.store("k", 1, v1);
  defer.pump();
  ASSERT_EQ(follower_backend->head_version("k"), 0u);

  follower->down = false;
  store.store_delta("k", 1, 2, delta_between(v1, v2));
  defer.pump();
  // Forwarded delta -> "delta without base" -> catch-up; the follower's
  // head (0) is not on the primary's chain, so a full snapshot ships.
  EXPECT_EQ(follower_backend->head_version("k"), 2u);
  EXPECT_EQ(follower_backend->load("k")->state, v2);
  EXPECT_EQ(store.catchup_fulls(), 1u);
}

TEST(ReplicatingStore, UnreachableFollowerCountsAsForwardFailure) {
  DeferQueue defer;
  auto follower =
      std::make_shared<FlakyStore>(std::make_shared<MemoryCheckpointStore>());
  follower->down = true;
  ReplicatingStore::Options options;
  options.followers = {follower};
  options.defer = defer.hook();
  options.forward_attempts = 2;
  options.publish_events = false;
  ReplicatingStore store(std::make_shared<MemoryCheckpointStore>(),
                         std::move(options));
  store.store("k", 1, blob_of("v1"));
  defer.pump();
  EXPECT_EQ(store.forwards(), 0u);
  EXPECT_EQ(store.forward_failures(), 1u);
  EXPECT_EQ(store.replication_lag(), 1u);  // follower is one version behind
}

TEST(ReplicatingStore, WorkerModeConvergesUnderConcurrentWriters) {
  // No defer hook -> lazy worker thread, real concurrency (tsan coverage).
  auto follower = std::make_shared<MemoryCheckpointStore>();
  ReplicatingStore::Options options;
  options.followers = {follower};
  options.publish_events = false;
  auto backend = std::make_shared<MemoryCheckpointStore>();
  ReplicatingStore store(backend, std::move(options));

  constexpr int kWriters = 4;
  constexpr std::uint64_t kVersions = 25;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&store, w] {
      const std::string key = "writer-" + std::to_string(w);
      for (std::uint64_t v = 1; v <= kVersions; ++v)
        store.store(key, v, blob_of("state-" + std::to_string(v)));
    });
  }
  for (std::thread& t : writers) t.join();
  store.flush();

  for (int w = 0; w < kWriters; ++w) {
    const std::string key = "writer-" + std::to_string(w);
    EXPECT_EQ(backend->head_version(key), kVersions);
    EXPECT_EQ(follower->head_version(key), kVersions);
  }
  EXPECT_EQ(store.replication_lag(), 0u);
}

TEST(ShardedAndReplicated, ConcurrentWritersAcrossShards) {
  // Full stack, no network: 4 shards x (primary + follower), 8 writer
  // threads hammering their own keys through one sharded client.
  std::vector<std::shared_ptr<ReplicatingStore>> primaries;
  std::vector<std::shared_ptr<MemoryCheckpointStore>> followers;
  std::vector<ShardedCheckpointStore::ShardReplicas> shards;
  for (int s = 0; s < 4; ++s) {
    auto follower = std::make_shared<MemoryCheckpointStore>();
    ReplicatingStore::Options options;
    options.followers = {follower};
    options.publish_events = false;
    auto primary = std::make_shared<ReplicatingStore>(
        std::make_shared<MemoryCheckpointStore>(), std::move(options));
    followers.push_back(follower);
    primaries.push_back(primary);
    ShardedCheckpointStore::ShardReplicas set;
    set.replicas = {primary, follower};
    shards.push_back(std::move(set));
  }
  ShardedCheckpointStore store(std::move(shards));

  constexpr int kWriters = 8;
  constexpr std::uint64_t kVersions = 20;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&store, w] {
      const std::string key = "writer-" + std::to_string(w);
      for (std::uint64_t v = 1; v <= kVersions; ++v)
        store.store(key, v, blob_of("state-" + std::to_string(v)));
    });
  }
  for (std::thread& t : writers) t.join();
  for (const auto& primary : primaries) primary->flush();

  for (int w = 0; w < kWriters; ++w) {
    const std::string key = "writer-" + std::to_string(w);
    EXPECT_EQ(store.head_version(key), kVersions);
    const std::size_t shard = store.shard_for_key(key);
    EXPECT_EQ(followers[shard]->head_version(key), kVersions) << key;
  }
}

// --- pipeline fallback visibility (satellite: fallback-storm counter) --------

TEST(CheckpointPipeline, CountsDeltaFallbacksWhenTheBaseMoves) {
  auto store = std::make_shared<MemoryCheckpointStore>();
  CheckpointPipeline::Config config;
  config.store = store;
  config.key = "k";
  config.mode = CheckpointMode::delta_sync;
  config.chunk_size = kChunk;
  CheckpointPipeline pipeline(std::move(config));

  corba::Blob state = state_of('a');
  pipeline.submit(1, state);
  EXPECT_EQ(pipeline.delta_fallbacks(), 0u);

  // Another writer replaces the base under the pipeline — exactly what a
  // failover to a lagging promoted replica looks like from here.
  store->store("k", 5, state_of('i'));

  state = mutate(state, 0, 'z');
  pipeline.submit(6, state);  // delta vs v1 -> BAD_PARAM -> full re-anchor
  EXPECT_EQ(pipeline.delta_fallbacks(), 1u);
  EXPECT_EQ(store->load("k")->version, 6u);
  EXPECT_EQ(pipeline.full_stores(), 2u);

  // Re-anchored: the next capture deltas cleanly again.
  state = mutate(state, 1, 'y');
  pipeline.submit(7, state);
  EXPECT_EQ(pipeline.delta_fallbacks(), 1u);
  EXPECT_EQ(pipeline.delta_stores(), 1u);
}

}  // namespace
}  // namespace ft
