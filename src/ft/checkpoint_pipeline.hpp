// Checkpoint shipping pipeline: delta encoding + optional asynchrony.
//
// The paper's proxy blocks every successful call on a full-state store
// round-trip.  The pipeline removes both costs independently:
//   * delta modes keep the bytes of the last checkpoint the store
//     acknowledged (moved out of the shipped capture, so one state copy per
//     delta-mode pipeline and none in full-sync), compare the next capture
//     against them chunk by chunk and ship only the chunks that differ
//     (ft/delta.hpp);
//   * async mode decouples the caller from the store round-trip entirely —
//     the capture is enqueued (bounded queue, oldest entry coalesced away
//     when full) and written by a background path: a worker thread under
//     real transports, or a virtual-clock deferred event when the owner
//     supplies a `defer` executor (the simulator does), so deterministic
//     traces are preserved.
// State capture stays synchronous in the proxy either way — only the
// shipping is pipelined, so recovery after flush() restores exactly the
// state the last successful call produced (minus at most the entries a
// failed store dropped, the same window sync mode has).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "ft/checkpoint_store.hpp"
#include "ft/delta.hpp"

namespace ft {

/// How checkpoints travel to the store (the Table 1 measurement axis).
enum class CheckpointMode {
  /// Full state, synchronous store round-trip — the paper's behaviour
  /// ("paper mode"); the default, so existing tests and Table 1's baseline
  /// are unchanged.
  full_sync,
  /// Chunked diff against the last acknowledged checkpoint, still
  /// synchronous.  Isolates the wire/storage saving from the asynchrony.
  delta_sync,
  /// Chunked diff shipped by the background path; note_success() returns
  /// as soon as the capture is enqueued.
  delta_async,
};

std::string_view to_string(CheckpointMode mode) noexcept;

/// Ships versioned state captures to a CheckpointStoreClient according to a
/// CheckpointMode.  Not thread-safe for concurrent submit() callers (the
/// owning proxy serializes calls); the internal queue is what makes the
/// worker-thread backend safe.
class CheckpointPipeline {
 public:
  struct Config {
    std::shared_ptr<CheckpointStoreClient> store;
    std::string key;
    CheckpointMode mode = CheckpointMode::full_sync;
    /// Diff granularity for the delta modes.
    std::uint32_t chunk_size = kDefaultChunkSize;
    /// Async queue depth; when full the oldest pending capture is coalesced
    /// away (the newer state supersedes it for recovery purposes).
    std::size_t depth = 4;
    /// Store attempts per capture on the async path before it is dropped
    /// and counted in failures().  Sync modes throw instead (the proxy owns
    /// the retry policy there).
    int attempts = 3;
    /// Deferred executor.  When set, async shipping runs as deferred events
    /// on the caller's scheduler (the simulator's virtual clock); when
    /// null, a worker thread is spawned lazily.
    std::function<void(std::function<void()>)> defer;
  };

  explicit CheckpointPipeline(Config config);
  ~CheckpointPipeline();
  CheckpointPipeline(const CheckpointPipeline&) = delete;
  CheckpointPipeline& operator=(const CheckpointPipeline&) = delete;

  /// Ships (sync modes, may throw) or enqueues (async mode, never throws)
  /// the capture of checkpoint `version`.
  void submit(std::uint64_t version, corba::Blob state);

  /// Barrier: every capture submitted before the call has been attempted
  /// against the store when it returns.  No-op in the sync modes.
  void flush();

  CheckpointMode mode() const noexcept { return config_.mode; }

  // --- telemetry ------------------------------------------------------------
  /// Checkpoints acknowledged by the store (full + delta).
  std::uint64_t stored() const noexcept {
    return full_stores_.load() + delta_stores_.load();
  }
  std::uint64_t full_stores() const noexcept { return full_stores_.load(); }
  std::uint64_t delta_stores() const noexcept { return delta_stores_.load(); }
  /// Async captures dropped after exhausting their store attempts.
  std::uint64_t failures() const noexcept { return failures_.load(); }
  /// Async captures superseded by a newer one before they shipped.
  std::uint64_t coalesced() const noexcept { return coalesced_.load(); }
  /// Bytes actually shipped to the store (delta payloads, full states).
  std::uint64_t bytes_shipped() const noexcept { return bytes_shipped_.load(); }
  /// Deltas the store rejected (base moved under us — wipe, competing
  /// writer, shard failover to a lagging replica), answered by a full
  /// re-anchor.  Mirrored in `ft.checkpoint.delta_fallbacks_total`.
  std::uint64_t delta_fallbacks() const noexcept {
    return delta_fallbacks_.load();
  }

 private:
  struct Item {
    std::uint64_t version = 0;
    corba::Blob state;
  };

  bool async() const noexcept {
    return config_.mode == CheckpointMode::delta_async;
  }

  /// One shipping attempt: delta against the acked base when possible and
  /// profitable, full store otherwise.  On success the delta modes move
  /// `state` into the acked base; on a transport/store failure it throws
  /// and leaves `state` intact for the next attempt.
  void ship_now(std::uint64_t version, corba::Blob& state);
  /// Async attempt loop; returns false when the capture was dropped.
  bool try_ship(std::uint64_t version, corba::Blob& state);
  void note_acked(std::uint64_t version, corba::Blob&& state);

  void enqueue(Item item);
  void drain_deferred();
  void worker_loop();
  void ensure_worker();

  Config config_;

  // Acked base (delta modes only): touched only by the shipping side (the
  // caller in sync modes, the drain/worker in async mode).
  bool have_acked_ = false;
  std::uint64_t acked_version_ = 0;
  corba::Blob acked_state_;

  std::mutex mu_;
  std::condition_variable wake_;
  std::condition_variable idle_;
  std::deque<Item> queue_;
  bool in_flight_ = false;
  bool stop_ = false;
  bool drain_scheduled_ = false;
  bool draining_ = false;
  std::thread worker_;
  /// Deferred events may outlive the pipeline (the sim queue holds them);
  /// they capture this flag and become no-ops once the pipeline dies.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);

  std::atomic<std::uint64_t> full_stores_{0};
  std::atomic<std::uint64_t> delta_stores_{0};
  std::atomic<std::uint64_t> failures_{0};
  std::atomic<std::uint64_t> coalesced_{0};
  std::atomic<std::uint64_t> bytes_shipped_{0};
  std::atomic<std::uint64_t> delta_fallbacks_{0};
};

}  // namespace ft
