#include "ft/fault_detector.hpp"

#include <chrono>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "orb/log.hpp"

namespace ft {

namespace {

obs::Counter& faults_detected_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("ft.detector.faults_total");
  return counter;
}

}  // namespace

FaultDetector::FaultDetector(std::shared_ptr<naming::NamingContext> naming,
                             FaultDetectorOptions options)
    : naming_(std::move(naming)), options_(options) {
  if (!naming_) throw corba::BAD_PARAM("fault detector requires naming");
  if (!(options_.period > 0)) throw corba::BAD_PARAM("period must be positive");
  if (options_.suspicion_threshold < 1)
    throw corba::BAD_PARAM("suspicion threshold must be >= 1");
}

FaultDetector::~FaultDetector() { stop(); }

void FaultDetector::monitor(const naming::Name& name) {
  std::lock_guard lock(mu_);
  for (const naming::Name& existing : monitored_)
    if (existing == name) return;
  monitored_.push_back(name);
}

void FaultDetector::unmonitor(const naming::Name& name) {
  std::lock_guard lock(mu_);
  std::erase(monitored_, name);
  std::erase_if(suspicions_, [&](const auto& entry) {
    return entry.first.first == name.to_string();
  });
}

void FaultDetector::add_listener(Listener listener) {
  if (!listener) throw corba::BAD_PARAM("null fault listener");
  std::lock_guard lock(mu_);
  listeners_.push_back(std::move(listener));
}

int FaultDetector::suspicion(const naming::Name& name,
                             const std::string& host) const {
  std::lock_guard lock(mu_);
  auto it = suspicions_.find({name.to_string(), host});
  return it == suspicions_.end() ? 0 : it->second;
}

void FaultDetector::sweep(double now) noexcept {
  sweeps_.fetch_add(1, std::memory_order_relaxed);
  std::vector<naming::Name> monitored;
  {
    std::lock_guard lock(mu_);
    monitored = monitored_;
  }
  for (const naming::Name& name : monitored) {
    std::vector<naming::Offer> offers;
    try {
      offers = naming_->list_offers(name);
    } catch (const corba::Exception&) {
      continue;  // name gone or naming unreachable; try next sweep
    }
    for (const naming::Offer& offer : offers) {
      const bool responded = offer.ref.ping();
      if (options_.quarantine) {
        try {
          if (responded)
            options_.quarantine->report_success(name.to_string(), offer.host,
                                                now);
          else
            options_.quarantine->report_failure(name.to_string(), offer.host,
                                                now);
        } catch (...) {
          // Bookkeeping must not kill the (noexcept) sweep.
        }
      }
      bool confirmed = false;
      {
        std::lock_guard lock(mu_);
        int& count = suspicions_[{name.to_string(), offer.host}];
        if (responded) {
          count = 0;
          continue;
        }
        if (++count >= options_.suspicion_threshold) {
          count = 0;
          confirmed = true;
        }
      }
      if (!confirmed) continue;
      faults_.fetch_add(1, std::memory_order_relaxed);
      faults_detected_counter().inc();
      obs::flight_report(obs::FlightEvent::fault_confirmed, name.to_string(),
                         0, 0, offer.host);
      corba::log::emit(corba::log::Level::warning, "ft.detector",
                       "instance of '" + name.to_string() + "' on " +
                           offer.host + " stopped responding");
      if (options_.unbind_faulty_offers) {
        try {
          naming_->unbind_offer(name, offer.host);
        } catch (const corba::Exception&) {
          // Someone else (e.g. a recovering proxy) already removed it.
        }
      }
      std::vector<Listener> listeners;
      {
        std::lock_guard lock(mu_);
        listeners = listeners_;
      }
      const FaultReport report{name, offer.host, now};
      for (const Listener& listener : listeners) {
        try {
          listener(report);
        } catch (...) {
          // Listener bugs must not kill the detector.
        }
      }
    }
  }
}

void FaultDetector::simulated_tick(sim::EventQueue& events) {
  if (!running_.load(std::memory_order_relaxed)) return;
  sweep(events.now());
  events.schedule_after(options_.period,
                        [this, &events] { simulated_tick(events); });
}

void FaultDetector::start_simulated(sim::EventQueue& events) {
  if (running_.exchange(true)) return;
  events.schedule_after(options_.period,
                        [this, &events] { simulated_tick(events); });
}

void FaultDetector::start_threaded() {
  if (running_.exchange(true)) return;
  thread_ = std::thread([this] {
    const auto interval = std::chrono::duration<double>(options_.period);
    while (running_.load(std::memory_order_relaxed)) {
      sweep(std::chrono::duration<double>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count());
      auto remaining = interval;
      while (running_.load(std::memory_order_relaxed) &&
             remaining.count() > 0) {
        const auto slice =
            std::min(remaining, std::chrono::duration<double>(0.05));
        std::this_thread::sleep_for(slice);
        remaining -= slice;
      }
    }
  });
}

void FaultDetector::stop() {
  running_.store(false);
  if (thread_.joinable()) thread_.join();
}

}  // namespace ft
