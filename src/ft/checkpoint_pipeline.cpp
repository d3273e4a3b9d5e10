#include "ft/checkpoint_pipeline.hpp"

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "orb/log.hpp"

namespace ft {

namespace {

struct PipelineMetrics {
  obs::Counter& stores =
      obs::MetricsRegistry::global().counter("ft.pipeline.stores_total");
  obs::Counter& delta_stores =
      obs::MetricsRegistry::global().counter("ft.pipeline.delta_stores_total");
  obs::Counter& failures =
      obs::MetricsRegistry::global().counter("ft.pipeline.failures_total");
  obs::Counter& coalesced =
      obs::MetricsRegistry::global().counter("ft.pipeline.coalesced_total");
  obs::Counter& bytes_shipped =
      obs::MetricsRegistry::global().counter("ft.pipeline.bytes_shipped_total");
  obs::Counter& delta_fallbacks = obs::MetricsRegistry::global().counter(
      "ft.checkpoint.delta_fallbacks_total");
  obs::Histogram& store_latency =
      obs::MetricsRegistry::global().histogram("ft.pipeline.store_latency_s");
};

PipelineMetrics& pipeline_metrics() {
  static PipelineMetrics metrics;
  return metrics;
}

}  // namespace

std::string_view to_string(CheckpointMode mode) noexcept {
  switch (mode) {
    case CheckpointMode::full_sync:
      return "full-sync";
    case CheckpointMode::delta_sync:
      return "delta-sync";
    case CheckpointMode::delta_async:
      return "delta-async";
  }
  return "unknown";
}

CheckpointPipeline::CheckpointPipeline(Config config)
    : config_(std::move(config)) {
  if (!config_.store) throw corba::BAD_PARAM("pipeline requires a store");
  if (config_.key.empty()) throw corba::BAD_PARAM("pipeline requires a key");
  if (config_.chunk_size == 0)
    throw corba::BAD_PARAM("chunk_size must be positive");
  if (config_.depth == 0) throw corba::BAD_PARAM("depth must be >= 1");
  if (config_.attempts < 1) throw corba::BAD_PARAM("attempts must be >= 1");
}

CheckpointPipeline::~CheckpointPipeline() {
  *alive_ = false;
  if (worker_.joinable()) {
    {
      std::lock_guard lock(mu_);
      stop_ = true;
    }
    wake_.notify_all();
    worker_.join();
  }
}

void CheckpointPipeline::note_acked(std::uint64_t version,
                                    corba::Blob&& state) {
  if (config_.mode == CheckpointMode::full_sync) return;
  acked_version_ = version;
  acked_state_ = std::move(state);
  have_acked_ = true;
}

void CheckpointPipeline::ship_now(std::uint64_t version, corba::Blob& state) {
  PipelineMetrics& metrics = pipeline_metrics();
  obs::Span span("checkpoint.store", config_.key);
  const double start = obs::now();
  if (config_.mode != CheckpointMode::full_sync && have_acked_) {
    const StateDelta delta =
        StateDelta::diff(acked_state_, state, config_.chunk_size);
    // A delta only pays off when the shipped payload is smaller than the
    // state itself; a mostly-dirty state goes as a full snapshot (which
    // also resets the store's chain).
    if (delta.payload_bytes() < state.size()) {
      const corba::Blob encoded = delta.encode();
      try {
        config_.store->store_delta(config_.key, acked_version_, version,
                                   encoded);
        bytes_shipped_ += encoded.size();
        note_acked(version, std::move(state));
        ++delta_stores_;
        metrics.stores.inc();
        metrics.delta_stores.inc();
        metrics.bytes_shipped.inc(encoded.size());
        obs::flight_event(obs::FlightEvent::checkpoint_ship, config_.key,
                          version, encoded.size());
        metrics.store_latency.record(obs::now() - start);
        return;
      } catch (const corba::BAD_PARAM&) {
        // The store's view of the base moved (wiped, replaced, another
        // writer won, or shard failover promoted a follower that missed
        // the base) — re-anchor with a full snapshot.  A storm of these
        // is the signature of a lagging promoted replica, so it is
        // counted and flight-recorded.
        have_acked_ = false;
        ++delta_fallbacks_;
        metrics.delta_fallbacks.inc();
        obs::flight_event(obs::FlightEvent::delta_fallback, config_.key,
                          acked_version_, version);
      }
    }
  }
  config_.store->store(config_.key, version, state);
  const std::size_t size = state.size();
  bytes_shipped_ += size;
  note_acked(version, std::move(state));
  ++full_stores_;
  metrics.stores.inc();
  metrics.bytes_shipped.inc(size);
  obs::flight_event(obs::FlightEvent::checkpoint_ship, config_.key, version,
                    size);
  metrics.store_latency.record(obs::now() - start);
}

bool CheckpointPipeline::try_ship(std::uint64_t version, corba::Blob& state) {
  for (int attempt = 1;; ++attempt) {
    try {
      ship_now(version, state);
      return true;
    } catch (const corba::BAD_PARAM&) {
      // A newer version is already stored (out-of-order completion after a
      // flush raced ahead).  The store holds state at least as new as this
      // capture, so recovery is unaffected — treat as superseded.
      have_acked_ = false;
      return true;
    } catch (const corba::SystemException&) {
      if (attempt >= config_.attempts) {
        have_acked_ = false;  // unknown store state: next ship re-anchors
        ++failures_;
        pipeline_metrics().failures.inc();
        obs::flight_report(obs::FlightEvent::checkpoint_drop, config_.key,
                           version, static_cast<std::uint64_t>(attempt));
        corba::log::emit(corba::log::Level::warning, "ft.pipeline",
                         "async checkpoint " + std::to_string(version) +
                             " of '" + config_.key + "' dropped after " +
                             std::to_string(attempt) + " attempts");
        return false;
      }
    }
  }
}

void CheckpointPipeline::submit(std::uint64_t version, corba::Blob state) {
  if (!async()) {
    ship_now(version, state);
    return;
  }
  enqueue({version, std::move(state)});
}

void CheckpointPipeline::enqueue(Item item) {
  {
    std::lock_guard lock(mu_);
    if (queue_.size() >= config_.depth) {
      // Back-pressure by coalescing: the oldest pending capture is strictly
      // superseded by every newer one, so dropping it never regresses the
      // state recovery can see.
      queue_.pop_front();
      ++coalesced_;
      pipeline_metrics().coalesced.inc();
    }
    queue_.push_back(std::move(item));
  }
  if (config_.defer) {
    if (!drain_scheduled_) {
      drain_scheduled_ = true;
      config_.defer([this, alive = alive_] {
        if (!*alive) return;
        drain_scheduled_ = false;
        drain_deferred();
      });
    }
  } else {
    ensure_worker();
    wake_.notify_one();
  }
}

void CheckpointPipeline::drain_deferred() {
  // The store round-trip below may pump the simulator's event queue, which
  // can fire this pipeline's own next drain event re-entrantly; the guard
  // turns the nested drain into a no-op and the outer loop finishes the
  // queue.
  if (draining_) return;
  draining_ = true;
  for (;;) {
    Item item;
    {
      std::lock_guard lock(mu_);
      if (queue_.empty()) break;
      item = std::move(queue_.front());
      queue_.pop_front();
    }
    try_ship(item.version, item.state);
  }
  draining_ = false;
}

void CheckpointPipeline::ensure_worker() {
  if (worker_.joinable()) return;
  worker_ = std::thread([this] { worker_loop(); });
}

void CheckpointPipeline::worker_loop() {
  for (;;) {
    Item item;
    {
      std::unique_lock lock(mu_);
      wake_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ with nothing left to ship
      item = std::move(queue_.front());
      queue_.pop_front();
      in_flight_ = true;
    }
    try_ship(item.version, item.state);
    {
      std::lock_guard lock(mu_);
      in_flight_ = false;
    }
    idle_.notify_all();
  }
}

void CheckpointPipeline::flush() {
  if (!async()) return;
  if (config_.defer) {
    // Single-threaded deferred backend: drain inline.  Intentionally
    // ignores the reentrancy guard — a flush that arrives while an item is
    // mid-ship still empties the rest of the queue; versioning makes the
    // resulting out-of-order completions safe (stale writes are rejected
    // and treated as superseded).
    const bool was_draining = draining_;
    draining_ = false;
    drain_deferred();
    draining_ = was_draining;
    return;
  }
  if (!worker_.joinable()) return;
  std::unique_lock lock(mu_);
  idle_.wait(lock, [this] { return queue_.empty() && !in_flight_; });
}

}  // namespace ft
