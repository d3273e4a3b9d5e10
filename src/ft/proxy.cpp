#include "ft/proxy.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "orb/log.hpp"

namespace ft {

namespace {

using obs::RecoveryStep;

// Records one step of `service`'s recovery as a recovery_step flight event
// (published live to flight.event subscribers).
void report(const std::string& service, RecoveryStep step, std::uint64_t b = 0,
            std::string_view detail = {}) {
  obs::flight_report(obs::FlightEvent::recovery_step, service,
                     static_cast<std::uint64_t>(step), b, detail);
}

// "IDL:omg.org/CORBA/COMM_FAILURE:1.0" -> "COMM_FAILURE".
std::string_view short_name(std::string_view repo_id) {
  repo_id.remove_prefix(repo_id.rfind('/') + 1);  // npos + 1 == 0
  return repo_id.substr(0, repo_id.rfind(':'));
}

struct ProxyMetrics {
  obs::Counter& failures =
      obs::MetricsRegistry::global().counter("ft.proxy.failures_total");
  obs::Counter& retries =
      obs::MetricsRegistry::global().counter("ft.proxy.retries_total");
  obs::Counter& batched_failures = obs::MetricsRegistry::global().counter(
      "ft.proxy.batched_failures_total");
  obs::Counter& recoveries =
      obs::MetricsRegistry::global().counter("ft.proxy.recoveries_total");
  obs::Counter& deadline_exhaustions = obs::MetricsRegistry::global().counter(
      "ft.proxy.deadline_exhaustions_total");
  obs::Counter& resume_fallbacks = obs::MetricsRegistry::global().counter(
      "ft.proxy.resume_fallbacks_total");
  obs::Counter& checkpoint_failures = obs::MetricsRegistry::global().counter(
      "ft.proxy.checkpoint_failures_total");
  obs::Histogram& backoff =
      obs::MetricsRegistry::global().histogram("ft.proxy.backoff_wait_s");
  obs::Histogram& recovery_latency =
      obs::MetricsRegistry::global().histogram("ft.proxy.recovery_latency_s");
};

ProxyMetrics& proxy_metrics() {
  static ProxyMetrics metrics;
  return metrics;
}

}  // namespace

ProxyEngine::ProxyEngine(ProxyConfig config)
    : config_(std::move(config)),
      current_(config_.initial),
      service_key_(config_.service_name.to_string()),
      backoff_rng_(config_.policy.backoff_seed) {
  if (current_.is_nil()) throw corba::BAD_PARAM("proxy requires a target");
  if (config_.policy.max_attempts < 1)
    throw corba::BAD_PARAM("max_attempts must be >= 1");
  if (config_.store && config_.checkpoint_key.empty())
    throw corba::BAD_PARAM("checkpoint store requires a checkpoint key");
  if (config_.policy.checkpoint_attempts < 1)
    throw corba::BAD_PARAM("checkpoint_attempts must be >= 1");
  const RecoveryPolicy& p = config_.policy;
  if (p.backoff_initial_s < 0 || p.backoff_max_s < 0 || p.call_deadline_s < 0)
    throw corba::BAD_PARAM("backoff/deadline times must be >= 0");
  if (p.backoff_factor < 1)
    throw corba::BAD_PARAM("backoff_factor must be >= 1");
  if (p.backoff_jitter < 0 || p.backoff_jitter >= 1)
    throw corba::BAD_PARAM("backoff_jitter must be in [0, 1)");
  if (config_.store && p.checkpoint_every > 0) {
    CheckpointPipeline::Config pipeline;
    pipeline.store = config_.store;
    pipeline.key = config_.checkpoint_key;
    pipeline.mode = p.checkpoint_mode;
    pipeline.chunk_size = p.delta_chunk_size;
    pipeline.depth = p.pipeline_depth;
    pipeline.attempts = p.checkpoint_attempts;
    pipeline.defer = config_.defer;
    pipeline_ = std::make_unique<CheckpointPipeline>(std::move(pipeline));
  }
}

double ProxyEngine::now() const {
  if (config_.clock) return config_.clock();
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool ProxyEngine::should_retry(const corba::SystemException& error) const {
  if (error.completed() == corba::CompletionStatus::completed_maybe &&
      !config_.policy.retry_on_completed_maybe)
    return false;
  return true;
}

corba::Value ProxyEngine::call(std::string_view op, corba::ValueSeq args) {
  const double call_start = now();
  for (int attempt = 1;; ++attempt) {
    try {
      corba::Value result = current_.invoke(op, args);
      note_success();
      return result;
    } catch (const corba::COMM_FAILURE& error) {
      on_failure(error, attempt, call_start);
    } catch (const corba::TRANSIENT& error) {
      on_failure(error, attempt, call_start);
    } catch (const corba::TIMEOUT& error) {
      // A hung/overloaded server is as good as a dead one to the caller.
      on_failure(error, attempt, call_start);
    }
  }
}

void ProxyEngine::on_failure(const corba::SystemException& error, int attempt,
                             double call_start) {
  on_failure(error, attempt, call_start, current_.ior());
}

void ProxyEngine::on_failure(const corba::SystemException& error, int attempt,
                             double call_start,
                             const corba::IOR& failed_target) {
  const double at = now();
  proxy_metrics().failures.inc();
  // Batched-failure fast path: a multiplexed connection failing takes every
  // in-flight call down with one COMM_FAILURE.  If a sibling call already
  // recovered (the proxy no longer targets the instance this request was
  // sent to), recovering again would abandon a healthy replacement — skip
  // backoff and recovery and let the caller re-issue against current().
  // The quarantine is not re-struck either: the strike belongs to the dead
  // host and the sibling's failure already reported it.
  if (!(current_.ior() == failed_target)) {
    if (attempt >= config_.policy.max_attempts || !should_retry(error)) {
      report(service_key_, RecoveryStep::exhausted, attempt);
      obs::flight_auto_dump("recovery exhausted: " + service_key_);
      throw;
    }
    ++batched_failures_;
    proxy_metrics().batched_failures.inc();
    report(service_key_, RecoveryStep::batched_reissue, attempt);
    return;
  }
  // A session-layer fallback means the transport already spent its resume
  // budget trying to keep the calls alive; only now does the paper's
  // recovery machinery take over.  Counted so operators can tell "flaky
  // network absorbed by sessions" from "recovery actually needed".
  if (error.minor() == corba::minor_code::session_resume_failed) {
    proxy_metrics().resume_fallbacks.inc();
    report(service_key_, RecoveryStep::resume_fallback);
  }
  report(service_key_, RecoveryStep::failure, attempt,
         short_name(error.repo_id()));
  if (config_.quarantine) {
    if (current_host_.empty()) current_host_ = host_of_current();
    config_.quarantine->report_failure(service_key_, current_host_, at);
  }
  if (attempt >= config_.policy.max_attempts || !should_retry(error)) {
    report(service_key_, RecoveryStep::exhausted, attempt);
    obs::flight_auto_dump("recovery exhausted: " + service_key_);
    throw;
  }

  const RecoveryPolicy& p = config_.policy;
  double delay = 0.0;
  if (p.backoff_initial_s > 0) {
    delay = p.backoff_initial_s;
    for (int i = 1; i < attempt; ++i) delay *= p.backoff_factor;
    if (p.backoff_max_s > 0) delay = std::min(delay, p.backoff_max_s);
    if (p.backoff_jitter > 0)
      delay *= std::uniform_real_distribution<double>(
          1.0 - p.backoff_jitter, 1.0 + p.backoff_jitter)(backoff_rng_);
  }
  if (p.call_deadline_s > 0 &&
      (at - call_start) + delay > p.call_deadline_s) {
    ++deadline_exhaustions_;
    proxy_metrics().deadline_exhaustions.inc();
    report(service_key_, RecoveryStep::deadline_exhausted, attempt);
    obs::flight_auto_dump("call deadline exhausted: " + service_key_);
    corba::log::emit(corba::log::Level::warning, "ft.proxy",
                     "call deadline exhausted for '" + service_key_ +
                         "'; surfacing the failure instead of retrying");
    throw;
  }
  if (delay > 0) {
    report(service_key_, RecoveryStep::backoff,
           static_cast<std::uint64_t>(std::llround(delay * 1e9)));
    proxy_metrics().backoff.record(delay);
    if (config_.sleep)
      config_.sleep(delay);
    else
      std::this_thread::sleep_for(std::chrono::duration<double>(delay));
    backoff_waited_s_ += delay;
  }
  ++retries_;
  proxy_metrics().retries.inc();
  try {
    recover_now();
  } catch (const corba::SystemException&) {
    // Recovery itself hit a (possibly transient) failure — a lost resolve
    // or factory message must not turn into a failed logical call while
    // attempts remain.  Keep the current target; the next attempt's failure
    // re-enters this path and either recovers or exhausts the budget.
    //
    // One caveat: after a COMPLETED_MAYBE failure the call may have executed
    // and advanced the target's state, so reissuing against the *same*
    // instance without rolling it back would execute it twice.  Best-effort
    // restore the last checkpoint first; against a dead target the restore
    // fails, but so will the reissue (fast, consuming one attempt) — the
    // double-execution hazard only exists while the target is alive.
    if (error.completed() == corba::CompletionStatus::completed_maybe &&
        config_.policy.restore_on_recover && config_.store) {
      if (pipeline_) pipeline_->flush();
      for (int i = 0; i < config_.policy.checkpoint_attempts; ++i) {
        try {
          if (const auto checkpoint =
                  config_.store->load(config_.checkpoint_key))
            set_state(current_, checkpoint->state);
          break;
        } catch (const corba::SystemException&) {
        }
      }
    }
    report(service_key_, RecoveryStep::recovery_failed);
    corba::log::emit(corba::log::Level::warning, "ft.proxy",
                     "recovery of '" + service_key_ +
                         "' failed; retrying with the current target");
  }
}

void ProxyEngine::note_success() {
  if (config_.quarantine && !config_.quarantine->empty()) {
    if (current_host_.empty()) current_host_ = host_of_current();
    config_.quarantine->report_success(service_key_, current_host_, now());
  }
  if (!config_.store || config_.policy.checkpoint_every <= 0) return;
  if (++calls_since_checkpoint_ < config_.policy.checkpoint_every) return;
  // The call itself succeeded; a failure while *checkpointing* must not
  // fail it — and retrying the call would execute it twice.  The checkpoint
  // transaction itself is idempotent, though, so it gets its own bounded
  // retries: under lossy transports this keeps one dropped message from
  // discarding the last call's state delta.
  for (int attempt = 1;; ++attempt) {
    try {
      checkpoint_now();
      return;
    } catch (const corba::SystemException&) {
      if (attempt < config_.policy.checkpoint_attempts) continue;
      // Give up: count the miss and move to a live instance so the next
      // call does not fail too.
      ++checkpoint_failures_;
      proxy_metrics().checkpoint_failures.inc();
      report(service_key_, RecoveryStep::checkpoint_failed);
      corba::log::emit(corba::log::Level::warning, "ft.proxy",
                       "checkpoint of '" + config_.checkpoint_key +
                           "' failed; attempting relocation");
      try {
        recover_now();
      } catch (const corba::SystemException&) {
        // No replacement available right now; the next call's retry loop
        // will surface the failure if the situation persists.
      }
      return;
    }
  }
}

void ProxyEngine::checkpoint_now() {
  if (!pipeline_) return;
  // The capture is synchronous in every mode — state fidelity never depends
  // on the shipping mode; only the store round-trip is pipelined.
  corba::Blob state = get_state(current_);
  pipeline_->submit(++version_, std::move(state));
  calls_since_checkpoint_ = 0;
}

std::string ProxyEngine::host_of_current() const {
  if (!config_.naming || config_.service_name.empty()) return {};
  try {
    for (const naming::Offer& offer :
         config_.naming->list_offers(config_.service_name)) {
      if (offer.ref.ior() == current_.ior()) return offer.host;
    }
  } catch (const corba::Exception&) {
    // Offer bookkeeping is best-effort; recovery proceeds without it.
  }
  return {};
}

void ProxyEngine::rebind(corba::ObjectRef next, std::string host) {
  current_ = std::move(next);
  current_host_ = host.empty() ? host_of_current() : std::move(host);
  ++recoveries_;
  proxy_metrics().recoveries.inc();
  report(service_key_, RecoveryStep::rebound, recoveries_, current_host_);
  if (corba::log::enabled())
    corba::log::emit(corba::log::Level::info, "ft.proxy",
                     "service '" + config_.service_name.to_string() +
                         "' re-targeted to " +
                         current_.ior().to_display_string());
  if (on_rebind) on_rebind(current_);
}

void ProxyEngine::recover_now() {
  const double recovery_start = now();
  obs::Span recover_span("proxy.recover", service_key_);
  report(service_key_, RecoveryStep::recover);
  // Drain the async pipeline before anything else so the restore below sees
  // the newest checkpoint the captures can produce.
  if (pipeline_) pipeline_->flush();
  // Acquire-then-swap: the old instance's bookkeeping is only touched after
  // a replacement has been secured and restored, so a recovery that fails
  // midway (store unreachable, no factory, ...) leaves the proxy and the
  // naming service exactly as they were.
  const corba::IOR failed = current_.ior();
  // Reuse the host cached at the last rebind instead of re-walking the
  // naming service's offers with a fresh list_offers round-trip per failure.
  const std::string failed_host =
      current_host_.empty() ? host_of_current() : current_host_;
  const RecoveryMode mode = config_.policy.mode;

  corba::ObjectRef next;
  std::string next_host;
  bool from_factory = false;

  // 1a. Try another existing offer.  The failed instance's offer may still
  // be bound, so give cycling strategies a few draws to move past it.
  if (mode == RecoveryMode::reresolve ||
      mode == RecoveryMode::reresolve_then_factory) {
    if (config_.naming && !config_.service_name.empty()) {
      try {
        obs::Span resolve_span("naming.reresolve", service_key_);
        for (int attempt = 0; attempt < 4 && next.is_nil(); ++attempt) {
          corba::ObjectRef candidate = config_.naming->resolve_with(
              config_.service_name, config_.policy.resolve_strategy);
          if (!(candidate.ior() == failed)) next = std::move(candidate);
        }
        if (!next.is_nil()) report(service_key_, RecoveryStep::reresolved);
      } catch (const naming::NotFound&) {
        // No offers left; fall through to the factory if allowed.
      } catch (const corba::SystemException&) {
        // Naming unreachable; fall through to the factory if allowed.
      }
    }
    if (next.is_nil() && mode == RecoveryMode::reresolve)
      throw corba::TRANSIENT("recovery failed: no replacement offer for '" +
                                 config_.service_name.to_string() + "'",
                             corba::minor_code::unspecified,
                             corba::CompletionStatus::completed_no);
  }

  // 1b. Start a brand-new instance through a factory on a good host.
  if (next.is_nil()) {
    if (!config_.locate_factory)
      throw corba::TRANSIENT("recovery failed: no factory locator configured",
                             corba::minor_code::unspecified,
                             corba::CompletionStatus::completed_no);
    ServiceFactoryStub factory = config_.locate_factory();
    if (factory.is_nil())
      throw corba::TRANSIENT("recovery failed: no factory available",
                             corba::minor_code::unspecified,
                             corba::CompletionStatus::completed_no);
    next = factory.create(config_.service_type);
    next_host = factory.host();
    from_factory = true;
    report(service_key_, RecoveryStep::factory_created, 0, next_host);
  }

  // 2. Restore the last checkpoint into the replacement.
  if (config_.policy.restore_on_recover && config_.store) {
    obs::Span load_span("checkpoint.load", config_.checkpoint_key);
    if (const auto checkpoint = config_.store->load(config_.checkpoint_key)) {
      set_state(next, checkpoint->state);
      report(service_key_, RecoveryStep::restored, checkpoint->version);
    }
  }

  // 3. Repair the offer pool (best effort): drop the failed instance's
  // offer, advertise a factory-created replacement.
  if (config_.naming && !config_.service_name.empty()) {
    if (config_.policy.unbind_failed_offer && !failed_host.empty()) {
      try {
        config_.naming->unbind_offer(config_.service_name, failed_host);
      } catch (const corba::Exception&) {
      }
    }
    if (from_factory && config_.policy.rebind_new_offer) {
      try {
        config_.naming->bind_offer(config_.service_name, next, next_host);
      } catch (const corba::Exception&) {
      }
    }
  }

  rebind(std::move(next), std::move(next_host));
  proxy_metrics().recovery_latency.record(now() - recovery_start);
}

}  // namespace ft
