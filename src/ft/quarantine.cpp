#include "ft/quarantine.hpp"

#include <stdexcept>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "orb/log.hpp"

namespace ft {

namespace {

struct QuarantineMetrics {
  obs::Counter& imposed =
      obs::MetricsRegistry::global().counter("ft.quarantine.imposed_total");
  obs::Counter& released = obs::MetricsRegistry::global().counter(
      "ft.quarantine.probe_releases_total");
};

QuarantineMetrics& quarantine_metrics() {
  static QuarantineMetrics metrics;
  return metrics;
}

}  // namespace

OfferQuarantine::OfferQuarantine(QuarantineOptions options)
    : options_(options) {
  if (options_.strikes_to_quarantine < 1)
    throw std::invalid_argument("strikes_to_quarantine must be >= 1");
  if (options_.strike_window_s <= 0)
    throw std::invalid_argument("strike_window_s must be positive");
  if (options_.quarantine_duration_s <= 0)
    throw std::invalid_argument("quarantine_duration_s must be positive");
  if (options_.probe_successes_required < 1)
    throw std::invalid_argument("probe_successes_required must be >= 1");
}

void OfferQuarantine::report_failure(const std::string& service,
                                     const std::string& host, double now) {
  if (host.empty()) return;
  std::lock_guard lock(mu_);
  Entry& entry = entries_[{service, host}];
  if (now < entry.quarantined_until) {
    // Still failing inside quarantine: re-arm and void the probe streak.
    entry.quarantined_until = now + options_.quarantine_duration_s;
    entry.probe_streak = 0;
    ++imposed_;
    quarantine_metrics().imposed.inc();
    obs::flight_report(obs::FlightEvent::quarantine_trip, service, 0, 1, host);
    return;
  }
  if (entry.strikes == 0 || now - entry.window_start > options_.strike_window_s) {
    entry.strikes = 0;
    entry.window_start = now;
  }
  if (++entry.strikes >= options_.strikes_to_quarantine) {
    entry.strikes = 0;
    entry.probe_streak = 0;
    entry.quarantined_until = now + options_.quarantine_duration_s;
    ++imposed_;
    quarantine_metrics().imposed.inc();
    obs::flight_report(obs::FlightEvent::quarantine_trip, service, 0, 0, host);
    obs::flight_auto_dump("quarantine trip: " + service + " on " + host);
    corba::log::emit(corba::log::Level::warning, "ft.quarantine",
                     "instance of '" + service + "' on " + host +
                         " quarantined after repeated failures");
  }
}

void OfferQuarantine::report_success(const std::string& service,
                                     const std::string& host, double now) {
  if (host.empty()) return;
  std::lock_guard lock(mu_);
  auto it = entries_.find({service, host});
  if (it == entries_.end()) return;
  Entry& entry = it->second;
  if (now < entry.quarantined_until) {
    if (++entry.probe_streak >= options_.probe_successes_required) {
      entry.quarantined_until = now;
      entry.probe_streak = 0;
      ++probe_releases_;
      quarantine_metrics().released.inc();
      obs::flight_report(obs::FlightEvent::quarantine_release, service, 0, 0,
                         host);
      corba::log::emit(corba::log::Level::info, "ft.quarantine",
                       "instance of '" + service + "' on " + host +
                           " released after consecutive healthy probes");
    }
    return;
  }
  entry.strikes = 0;
  entry.probe_streak = 0;
}

bool OfferQuarantine::quarantined(const std::string& service,
                                  const std::string& host, double now) const {
  std::lock_guard lock(mu_);
  auto it = entries_.find({service, host});
  return it != entries_.end() && now < it->second.quarantined_until;
}

bool OfferQuarantine::empty() const {
  std::lock_guard lock(mu_);
  return entries_.empty();
}

std::uint64_t OfferQuarantine::quarantines_imposed() const {
  std::lock_guard lock(mu_);
  return imposed_;
}

std::uint64_t OfferQuarantine::probe_releases() const {
  std::lock_guard lock(mu_);
  return probe_releases_;
}

std::size_t OfferQuarantine::active(double now) const {
  std::lock_guard lock(mu_);
  std::size_t count = 0;
  for (const auto& [key, entry] : entries_)
    if (now < entry.quarantined_until) ++count;
  return count;
}

}  // namespace ft
