// Tests for the checkpoint shipping pipeline: mode semantics, delta
// fallback, async queueing/coalescing, the flush barrier, failure
// accounting, the worker-thread backend, and exactness of the delta diff
// against the acked base.
#include "ft/checkpoint_pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>

#include "ft/delta.hpp"

namespace ft {
namespace {

corba::Blob sized_blob(std::size_t size, std::uint8_t fill) {
  return corba::Blob(size, static_cast<std::byte>(fill));
}

/// Deferred-executor harness: captures scheduled drains so tests control
/// exactly when the async path runs (like the simulator's event queue).
struct ManualExecutor {
  std::vector<std::function<void()>> pending;
  std::function<void(std::function<void()>)> hook() {
    return [this](std::function<void()> fn) { pending.push_back(std::move(fn)); };
  }
  void run_all() {
    // Drains may schedule follow-ups; run until quiescent.
    while (!pending.empty()) {
      auto batch = std::move(pending);
      pending.clear();
      for (auto& fn : batch) fn();
    }
  }
};

/// Store decorator that fails a configurable number of store attempts.
class FlakyStore : public CheckpointStoreClient {
 public:
  explicit FlakyStore(int failures) : failures_left_(failures) {}

  void store(const std::string& key, std::uint64_t version,
             const corba::Blob& state) override {
    maybe_fail();
    inner_.store(key, version, state);
  }
  void store_delta(const std::string& key, std::uint64_t base_version,
                   std::uint64_t version, const corba::Blob& delta) override {
    maybe_fail();
    inner_.store_delta(key, base_version, version, delta);
  }
  std::optional<Checkpoint> load(const std::string& key) override {
    return inner_.load(key);
  }
  void remove(const std::string& key) override { inner_.remove(key); }
  std::vector<std::string> keys() override { return inner_.keys(); }

  MemoryCheckpointStore& inner() noexcept { return inner_; }

 private:
  void maybe_fail() {
    if (failures_left_ > 0) {
      --failures_left_;
      throw corba::TRANSIENT("injected store failure");
    }
  }
  MemoryCheckpointStore inner_;
  int failures_left_;
};

CheckpointPipeline::Config base_config(
    std::shared_ptr<CheckpointStoreClient> store, CheckpointMode mode) {
  CheckpointPipeline::Config config;
  config.store = std::move(store);
  config.key = "svc";
  config.mode = mode;
  return config;
}

TEST(CheckpointPipeline, FullSyncStoresEveryVersion) {
  auto store = std::make_shared<MemoryCheckpointStore>();
  CheckpointPipeline pipeline(base_config(store, CheckpointMode::full_sync));
  pipeline.submit(1, sized_blob(100, 1));
  pipeline.submit(2, sized_blob(100, 2));
  EXPECT_EQ(pipeline.stored(), 2u);
  EXPECT_EQ(pipeline.full_stores(), 2u);
  EXPECT_EQ(pipeline.delta_stores(), 0u);
  const auto loaded = store->load("svc");
  ASSERT_TRUE(loaded);
  EXPECT_EQ(loaded->version, 2u);
  EXPECT_EQ(loaded->state, sized_blob(100, 2));
}

TEST(CheckpointPipeline, DeltaSyncShipsOnlyChangedChunks) {
  auto store = std::make_shared<MemoryCheckpointStore>();
  CheckpointPipeline pipeline(base_config(store, CheckpointMode::delta_sync));

  corba::Blob state = sized_blob(8 * kDefaultChunkSize, 0x5a);
  pipeline.submit(1, corba::Blob(state));  // first ship: full store
  EXPECT_EQ(pipeline.full_stores(), 1u);

  state[3 * kDefaultChunkSize] = std::byte{0x00};
  pipeline.submit(2, corba::Blob(state));
  EXPECT_EQ(pipeline.delta_stores(), 1u);
  // Shipped bytes: the full base once plus roughly one chunk, far below two
  // full states.
  EXPECT_LT(pipeline.bytes_shipped(), state.size() + 2 * kDefaultChunkSize);

  const auto loaded = store->load("svc");
  ASSERT_TRUE(loaded);
  EXPECT_EQ(loaded->version, 2u);
  EXPECT_EQ(loaded->state, state);
}

TEST(CheckpointPipeline, UnprofitableDeltaFallsBackToFullStore) {
  auto store = std::make_shared<MemoryCheckpointStore>();
  CheckpointPipeline pipeline(base_config(store, CheckpointMode::delta_sync));
  pipeline.submit(1, sized_blob(4 * kDefaultChunkSize, 0x11));
  // Every chunk changes: the delta would be bigger than the state itself.
  pipeline.submit(2, sized_blob(4 * kDefaultChunkSize, 0x22));
  EXPECT_EQ(pipeline.full_stores(), 2u);
  EXPECT_EQ(pipeline.delta_stores(), 0u);
  EXPECT_EQ(store->load("svc")->state, sized_blob(4 * kDefaultChunkSize, 0x22));
}

TEST(CheckpointPipeline, DeltaRecoversWhenStoreForgetsTheBase) {
  auto store = std::make_shared<MemoryCheckpointStore>();
  CheckpointPipeline pipeline(base_config(store, CheckpointMode::delta_sync));
  corba::Blob state = sized_blob(4 * kDefaultChunkSize, 0x5a);
  pipeline.submit(1, corba::Blob(state));

  // The store loses the checkpoint (e.g. wiped between runs): the delta is
  // rejected with BAD_PARAM and the pipeline falls back to a full store.
  store->remove("svc");
  state[0] = std::byte{0x00};
  pipeline.submit(2, corba::Blob(state));
  EXPECT_EQ(pipeline.full_stores(), 2u);
  const auto loaded = store->load("svc");
  ASSERT_TRUE(loaded);
  EXPECT_EQ(loaded->version, 2u);
  EXPECT_EQ(loaded->state, state);
}

TEST(CheckpointPipeline, SyncModeThrowsOnStoreFailure) {
  auto store = std::make_shared<FlakyStore>(1);
  CheckpointPipeline pipeline(base_config(store, CheckpointMode::full_sync));
  EXPECT_THROW(pipeline.submit(1, sized_blob(10, 1)), corba::TRANSIENT);
  pipeline.submit(2, sized_blob(10, 2));  // store healthy again
  EXPECT_EQ(pipeline.stored(), 1u);
}

TEST(CheckpointPipeline, AsyncDefersShippingUntilExecutorRuns) {
  auto store = std::make_shared<MemoryCheckpointStore>();
  ManualExecutor executor;
  auto config = base_config(store, CheckpointMode::delta_async);
  config.defer = executor.hook();
  CheckpointPipeline pipeline(std::move(config));

  pipeline.submit(1, sized_blob(100, 1));
  EXPECT_EQ(pipeline.stored(), 0u);  // nothing shipped yet
  EXPECT_EQ(store->load("svc"), std::nullopt);

  executor.run_all();
  EXPECT_EQ(pipeline.stored(), 1u);
  ASSERT_TRUE(store->load("svc"));
  EXPECT_EQ(store->load("svc")->version, 1u);
}

TEST(CheckpointPipeline, AsyncCoalescesWhenQueueIsFull) {
  auto store = std::make_shared<MemoryCheckpointStore>();
  ManualExecutor executor;
  auto config = base_config(store, CheckpointMode::delta_async);
  config.defer = executor.hook();
  config.depth = 2;
  CheckpointPipeline pipeline(std::move(config));

  for (std::uint64_t v = 1; v <= 5; ++v)
    pipeline.submit(v, sized_blob(64, static_cast<std::uint8_t>(v)));
  EXPECT_EQ(pipeline.coalesced(), 3u);  // queue holds only the newest two

  executor.run_all();
  EXPECT_EQ(pipeline.stored(), 2u);
  const auto loaded = store->load("svc");
  ASSERT_TRUE(loaded);
  EXPECT_EQ(loaded->version, 5u);
  EXPECT_EQ(loaded->state, sized_blob(64, 5));
}

TEST(CheckpointPipeline, FlushShipsEverythingPending) {
  auto store = std::make_shared<MemoryCheckpointStore>();
  ManualExecutor executor;
  auto config = base_config(store, CheckpointMode::delta_async);
  config.defer = executor.hook();
  CheckpointPipeline pipeline(std::move(config));

  pipeline.submit(1, sized_blob(100, 1));
  pipeline.submit(2, sized_blob(100, 2));
  pipeline.flush();  // must not need the executor to run
  EXPECT_EQ(pipeline.stored(), 2u);
  EXPECT_EQ(store->load("svc")->version, 2u);
  executor.run_all();  // leftover deferred drains are harmless no-ops
  EXPECT_EQ(pipeline.stored(), 2u);
}

TEST(CheckpointPipeline, AsyncRetriesThenCountsFailure) {
  // Two injected failures, three attempts: the capture ships on the third.
  auto store = std::make_shared<FlakyStore>(2);
  ManualExecutor executor;
  auto config = base_config(store, CheckpointMode::delta_async);
  config.defer = executor.hook();
  config.attempts = 3;
  CheckpointPipeline pipeline(std::move(config));
  pipeline.submit(1, sized_blob(10, 1));
  executor.run_all();
  EXPECT_EQ(pipeline.stored(), 1u);
  EXPECT_EQ(pipeline.failures(), 0u);
}

TEST(CheckpointPipeline, AsyncDropsCaptureAfterExhaustedAttempts) {
  auto store = std::make_shared<FlakyStore>(100);
  ManualExecutor executor;
  auto config = base_config(store, CheckpointMode::delta_async);
  config.defer = executor.hook();
  config.attempts = 2;
  CheckpointPipeline pipeline(std::move(config));
  pipeline.submit(1, sized_blob(10, 1));  // must not throw
  executor.run_all();
  EXPECT_EQ(pipeline.stored(), 0u);
  EXPECT_EQ(pipeline.failures(), 1u);
}

TEST(CheckpointPipeline, AsyncTreatsStaleVersionAsSuperseded) {
  auto store = std::make_shared<MemoryCheckpointStore>();
  ManualExecutor executor;
  auto config = base_config(store, CheckpointMode::delta_async);
  config.defer = executor.hook();
  CheckpointPipeline pipeline(std::move(config));

  pipeline.submit(1, sized_blob(10, 1));
  // A newer checkpoint lands first (e.g. a sibling proxy after recovery).
  store->store("svc", 5, sized_blob(10, 5));
  executor.run_all();
  EXPECT_EQ(pipeline.failures(), 0u);  // stale != failure
  EXPECT_EQ(store->load("svc")->version, 5u);
}

TEST(CheckpointPipeline, WorkerThreadBackendShipsAndFlushes) {
  auto store = std::make_shared<MemoryCheckpointStore>();
  // No defer hook: the pipeline spawns a real worker thread.
  CheckpointPipeline pipeline(
      base_config(store, CheckpointMode::delta_async));
  corba::Blob state = sized_blob(4 * kDefaultChunkSize, 0x5a);
  for (std::uint64_t v = 1; v <= 10; ++v) {
    state[static_cast<std::size_t>(v)] = static_cast<std::byte>(v);
    pipeline.submit(v, corba::Blob(state));
  }
  pipeline.flush();
  EXPECT_GE(pipeline.stored() + pipeline.coalesced(), 10u);
  const auto loaded = store->load("svc");
  ASSERT_TRUE(loaded);
  EXPECT_EQ(loaded->version, 10u);
  EXPECT_EQ(loaded->state, state);
}

TEST(CheckpointPipeline, DestructorDrainsWorkerThreadQueue) {
  auto store = std::make_shared<MemoryCheckpointStore>();
  {
    CheckpointPipeline pipeline(
        base_config(store, CheckpointMode::delta_async));
    pipeline.submit(1, sized_blob(50, 1));
    pipeline.submit(2, sized_blob(50, 2));
  }
  const auto loaded = store->load("svc");
  ASSERT_TRUE(loaded);
  EXPECT_EQ(loaded->version, 2u);
}

/// Store decorator that records every delta it accepts, decoded.
class RecordingStore : public CheckpointStoreClient {
 public:
  struct Shipped {
    std::uint64_t base_version = 0;
    std::uint64_t version = 0;
    StateDelta delta;
  };

  void store(const std::string& key, std::uint64_t version,
             const corba::Blob& state) override {
    inner_.store(key, version, state);
  }
  void store_delta(const std::string& key, std::uint64_t base_version,
                   std::uint64_t version, const corba::Blob& delta) override {
    inner_.store_delta(key, base_version, version, delta);
    shipped.push_back({base_version, version, StateDelta::decode(delta)});
  }
  std::optional<Checkpoint> load(const std::string& key) override {
    return inner_.load(key);
  }
  void remove(const std::string& key) override { inner_.remove(key); }
  std::vector<std::string> keys() override { return inner_.keys(); }

  std::vector<Shipped> shipped;

 private:
  MemoryCheckpointStore inner_;
};

/// Indices of the chunks of `next` that are new, changed length, or hold
/// different bytes than the same chunk of `base` — computed independently
/// of StateDelta::diff.
std::vector<std::uint32_t> differing_chunks(const corba::Blob& base,
                                            const corba::Blob& next,
                                            std::size_t chunk) {
  std::vector<std::uint32_t> indices;
  for (std::size_t off = 0; off < next.size(); off += chunk) {
    const std::size_t len = std::min(chunk, next.size() - off);
    const std::size_t base_len =
        off < base.size() ? std::min(chunk, base.size() - off) : 0;
    if (base_len != len ||
        !std::equal(next.begin() + off, next.begin() + off + len,
                    base.begin() + off))
      indices.push_back(static_cast<std::uint32_t>(off / chunk));
  }
  return indices;
}

/// Drives a pipeline through a seeded random mutation sequence that
/// includes growing and shrinking across a chunk boundary, a one-byte change
/// in a chunk's last byte, and a chunk that changes and then returns to its
/// previous bytes.  After every submit (sync) or flush (async) the store
/// must hold the last capture, and every shipped delta must carry exactly
/// the chunks whose bytes differ from the base it names.
void exercise_exact_diff(CheckpointMode mode, std::uint64_t seed) {
  constexpr std::uint32_t kChunk = 256;
  auto store = std::make_shared<RecordingStore>();
  ManualExecutor executor;
  auto config = base_config(store, mode);
  config.chunk_size = kChunk;
  const bool async = mode == CheckpointMode::delta_async;
  if (async) {
    config.defer = executor.hook();
    config.depth = 1;  // a pending capture is coalesced by the next one
  }
  CheckpointPipeline pipeline(std::move(config));

  std::mt19937_64 rng(seed);
  corba::Blob state(8 * kChunk);
  for (std::byte& b : state) b = static_cast<std::byte>(rng());
  std::map<std::uint64_t, corba::Blob> captures;
  std::size_t checked = 0;
  std::uint64_t version = 0;
  std::optional<std::pair<std::size_t, corba::Blob>> revert;

  const auto verify = [&](const std::string& where) {
    const auto loaded = store->load("svc");
    ASSERT_TRUE(loaded) << where;
    EXPECT_EQ(loaded->version, version) << where;
    ASSERT_EQ(loaded->state, state) << where;
    for (; checked < store->shipped.size(); ++checked) {
      const RecordingStore::Shipped& s = store->shipped[checked];
      const corba::Blob& base = captures.at(s.base_version);
      const corba::Blob& next = captures.at(s.version);
      ASSERT_EQ(s.delta.chunk_size, kChunk) << where;
      ASSERT_EQ(s.delta.new_size, next.size()) << where;
      std::vector<std::uint32_t> indices;
      for (const DeltaChunk& c : s.delta.chunks) {
        indices.push_back(c.index);
        const std::size_t off = std::size_t{c.index} * kChunk;
        ASSERT_LE(off + c.bytes.size(), next.size()) << where;
        EXPECT_TRUE(std::equal(c.bytes.begin(), c.bytes.end(),
                               next.begin() + off))
            << where << " chunk " << c.index;
      }
      EXPECT_EQ(indices, differing_chunks(base, next, kChunk))
          << where << " delta " << s.base_version << "->" << s.version;
    }
  };

  for (int step = 0; step < 120; ++step) {
    const std::size_t chunks = (state.size() + kChunk - 1) / kChunk;
    const std::size_t pick = rng() % chunks;
    if (revert) {
      // Put a changed chunk back to the bytes it held before.
      std::copy(revert->second.begin(), revert->second.end(),
                state.begin() + revert->first * kChunk);
      revert.reset();
    } else {
      switch (step % 6) {
        case 0:  // one random byte
          state[rng() % state.size()] ^= std::byte{0x5a};
          break;
        case 1: {  // one-byte change in a chunk's last byte
          const std::size_t last =
              std::min((pick + 1) * kChunk, state.size()) - 1;
          state[last] ^= std::byte{0x01};
          break;
        }
        case 2: {  // grow across a chunk boundary
          const std::size_t to =
              (state.size() / kChunk + 1) * kChunk + rng() % kChunk;
          while (state.size() < to) state.push_back(static_cast<std::byte>(rng()));
          break;
        }
        case 3:  // shrink across a chunk boundary
          if (state.size() > 3 * kChunk)
            state.resize((state.size() / kChunk - 1) * kChunk - rng() % kChunk);
          break;
        case 4: {  // change a whole chunk; the next step reverts it
          const std::size_t off = pick * kChunk;
          const std::size_t len = std::min<std::size_t>(kChunk, state.size() - off);
          revert.emplace(pick, corba::Blob(state.begin() + off,
                                           state.begin() + off + len));
          for (std::size_t i = off; i < off + len; ++i)
            state[i] = static_cast<std::byte>(rng());
          break;
        }
        default:  // unchanged capture
          break;
      }
    }
    captures[++version] = state;
    pipeline.submit(version, corba::Blob(state));
    const std::string where = "step " + std::to_string(step);
    if (!async) {
      verify(where);
    } else if (!revert && rng() % 2 == 0) {
      // Never between a change and its revert: the change is coalesced
      // away and the revert is diffed against the unchanged acked base.
      if (rng() % 2 == 0) {
        pipeline.flush();
      } else {
        executor.run_all();
      }
      verify(where);
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
  pipeline.flush();
  verify("final");
  EXPECT_GT(pipeline.delta_stores(), 10u);
  if (async) {
    EXPECT_GT(pipeline.coalesced(), 0u);
  }
}

TEST(CheckpointPipeline, DeltaSyncDiffIsExactUnderRandomMutations) {
  for (const std::uint64_t seed : {1u, 2u, 3u})
    exercise_exact_diff(CheckpointMode::delta_sync, seed);
}

TEST(CheckpointPipeline, DeferredDeltaAsyncDiffIsExactUnderRandomMutations) {
  for (const std::uint64_t seed : {1u, 2u, 3u})
    exercise_exact_diff(CheckpointMode::delta_async, seed);
}

TEST(CheckpointPipeline, RejectsInvalidConfig) {
  auto store = std::make_shared<MemoryCheckpointStore>();
  EXPECT_THROW(CheckpointPipeline(base_config(nullptr,
                                              CheckpointMode::full_sync)),
               corba::BAD_PARAM);
  auto no_key = base_config(store, CheckpointMode::full_sync);
  no_key.key.clear();
  EXPECT_THROW(CheckpointPipeline(std::move(no_key)), corba::BAD_PARAM);
  auto zero_chunk = base_config(store, CheckpointMode::delta_sync);
  zero_chunk.chunk_size = 0;
  EXPECT_THROW(CheckpointPipeline(std::move(zero_chunk)), corba::BAD_PARAM);
}

TEST(ToString, CoversAllModes) {
  EXPECT_EQ(to_string(CheckpointMode::full_sync), "full-sync");
  EXPECT_EQ(to_string(CheckpointMode::delta_sync), "delta-sync");
  EXPECT_EQ(to_string(CheckpointMode::delta_async), "delta-async");
}

}  // namespace
}  // namespace ft
