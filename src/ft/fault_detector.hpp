// Fault detector: proactive failure detection for the offer pool.
//
// The paper's §3 notes that "the only way to detect an error on the client
// side ... is the exception CORBA::COMM_FAILURE thrown when a CORBA client
// tries to call a service which is not available anymore" — detection is
// purely reactive, and its §5 lists evaluating the OMG's fault-detection
// proposal (FT-CORBA) as future work.  This module implements that
// direction: a FaultDetector periodically pings the service instances
// registered under naming-service names (the implicit _ping operation every
// object answers) and, when an instance stops responding, removes its offer
// so no client resolves to a dead object, and optionally notifies
// listeners.  Combined with the proxies this turns failures from
// "discovered by the unlucky first caller" into "repaired before most
// callers notice".
//
// Like the node managers, the detector runs in two drive modes: simulated
// (self-rescheduling virtual-time events) and threaded (wall clock).
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "ft/quarantine.hpp"
#include "naming/naming.hpp"
#include "sim/event_queue.hpp"

namespace ft {

struct FaultDetectorOptions {
  /// Interval between monitoring sweeps (virtual or real seconds).
  double period = 1.0;
  /// Consecutive failed pings before an instance is declared faulty.
  int suspicion_threshold = 2;
  /// Remove the faulty instance's offer from the naming service.
  bool unbind_faulty_offers = true;
  /// Shared circuit breaker (may be null).  Every ping result is reported
  /// to it, which is how quarantined-but-still-bound instances earn the
  /// consecutive healthy probes that release them.
  std::shared_ptr<OfferQuarantine> quarantine{};
};

/// A detected fault, passed to listeners.
struct FaultReport {
  naming::Name service;
  std::string host;
  double detected_at = 0.0;
};

class FaultDetector {
 public:
  using Listener = std::function<void(const FaultReport&)>;

  /// `naming` is the context whose offers are monitored.
  FaultDetector(std::shared_ptr<naming::NamingContext> naming,
                FaultDetectorOptions options = {});
  ~FaultDetector();

  FaultDetector(const FaultDetector&) = delete;
  FaultDetector& operator=(const FaultDetector&) = delete;

  /// Adds a service name to the monitored set.
  void monitor(const naming::Name& name);
  /// Stops monitoring a name.
  void unmonitor(const naming::Name& name);

  /// Registers a fault listener (called from the sweep context).
  void add_listener(Listener listener);

  /// One monitoring sweep: pings every offer of every monitored name,
  /// updates suspicion counts, unbinds/notifies on confirmed faults.
  /// Exposed for tests; used internally by both drive modes.
  void sweep(double now) noexcept;

  void start_simulated(sim::EventQueue& events);
  void start_threaded();
  void stop();

  // --- telemetry -------------------------------------------------------------
  std::uint64_t sweeps() const noexcept { return sweeps_.load(); }
  std::uint64_t faults_detected() const noexcept { return faults_.load(); }
  /// Current suspicion count of (service, host); 0 if unknown/healthy.
  int suspicion(const naming::Name& name, const std::string& host) const;

 private:
  void simulated_tick(sim::EventQueue& events);

  std::shared_ptr<naming::NamingContext> naming_;
  FaultDetectorOptions options_;
  mutable std::mutex mu_;
  std::vector<naming::Name> monitored_;
  /// (service string form, host) -> consecutive failed pings.
  std::map<std::pair<std::string, std::string>, int> suspicions_;
  std::vector<Listener> listeners_;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> sweeps_{0};
  std::atomic<std::uint64_t> faults_{0};
  std::thread thread_;
};

}  // namespace ft
