// Tests of the proactive fault detector: suspicion counting, offer
// cleanup, listener notification, and interplay with recovery.
#include "ft/fault_detector.hpp"

#include <gtest/gtest.h>

#include "ft/proxy.hpp"
#include "ft_test_common.hpp"
#include "obs/flight_recorder.hpp"

namespace ft {
namespace {

using corbaft_test::FtDeploymentTest;

class FaultDetectorTest : public FtDeploymentTest {
 protected:
  std::shared_ptr<naming::NamingContextStub> naming_stub() {
    return std::make_shared<naming::NamingContextStub>(runtime_->naming());
  }
};

TEST_F(FaultDetectorTest, ConfigValidation) {
  EXPECT_THROW(FaultDetector(nullptr, {}), corba::BAD_PARAM);
  EXPECT_THROW(FaultDetector(naming_stub(), {.period = 0}), corba::BAD_PARAM);
  EXPECT_THROW(FaultDetector(naming_stub(), {.suspicion_threshold = 0}),
               corba::BAD_PARAM);
  FaultDetector detector(naming_stub(), {});
  EXPECT_THROW(detector.add_listener(nullptr), corba::BAD_PARAM);
}

TEST_F(FaultDetectorTest, HealthyInstancesStayBound) {
  FaultDetector detector(naming_stub(), {});
  detector.monitor(service_name());
  for (int i = 0; i < 5; ++i) detector.sweep(static_cast<double>(i));
  EXPECT_EQ(detector.sweeps(), 5u);
  EXPECT_EQ(detector.faults_detected(), 0u);
  EXPECT_EQ(runtime_->naming().list_offers(service_name()).size(), 4u);
}

TEST_F(FaultDetectorTest, FaultConfirmedAfterThresholdSweeps) {
  FaultDetector detector(naming_stub(), {.suspicion_threshold = 2});
  detector.monitor(service_name());
  cluster_.crash_host(host_name(1));

  detector.sweep(1.0);  // first miss: suspected, not yet confirmed
  EXPECT_EQ(detector.faults_detected(), 0u);
  EXPECT_EQ(detector.suspicion(service_name(), host_name(1)), 1);
  EXPECT_EQ(runtime_->naming().list_offers(service_name()).size(), 4u);

  detector.sweep(2.0);  // second miss: confirmed, offer removed
  EXPECT_EQ(detector.faults_detected(), 1u);
  const auto offers = runtime_->naming().list_offers(service_name());
  EXPECT_EQ(offers.size(), 3u);
  for (const naming::Offer& offer : offers)
    EXPECT_NE(offer.host, host_name(1));
}

TEST_F(FaultDetectorTest, RecoveredInstanceResetsSuspicion) {
  FaultDetector detector(naming_stub(), {.suspicion_threshold = 3});
  detector.monitor(service_name());
  cluster_.crash_host(host_name(2));
  detector.sweep(1.0);
  detector.sweep(2.0);
  EXPECT_EQ(detector.suspicion(service_name(), host_name(2)), 2);
  // The machine comes back before the threshold: no fault.
  cluster_.restart_host(host_name(2));
  detector.sweep(3.0);
  EXPECT_EQ(detector.suspicion(service_name(), host_name(2)), 0);
  EXPECT_EQ(detector.faults_detected(), 0u);
}

TEST_F(FaultDetectorTest, ListenersReceiveReports) {
  FaultDetector detector(naming_stub(), {.suspicion_threshold = 1});
  detector.monitor(service_name());
  std::vector<FaultReport> reports;
  detector.add_listener([&](const FaultReport& r) { reports.push_back(r); });
  cluster_.crash_host(host_name(0));
  detector.sweep(42.0);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].service, service_name());
  EXPECT_EQ(reports[0].host, host_name(0));
  EXPECT_EQ(reports[0].detected_at, 42.0);
}

TEST_F(FaultDetectorTest, ThrowingListenerDoesNotKillDetector) {
  FaultDetector detector(naming_stub(), {.suspicion_threshold = 1});
  detector.monitor(service_name());
  detector.add_listener(
      [](const FaultReport&) { throw std::runtime_error("listener bug"); });
  cluster_.crash_host(host_name(0));
  EXPECT_NO_THROW(detector.sweep(1.0));
  EXPECT_EQ(detector.faults_detected(), 1u);
}

TEST_F(FaultDetectorTest, SimulatedModeSweepsPeriodically) {
  auto detector = std::make_shared<FaultDetector>(
      naming_stub(), FaultDetectorOptions{.period = 1.0,
                                          .suspicion_threshold = 2});
  detector->monitor(service_name());
  const double start = runtime_->events().now();
  detector->start_simulated(runtime_->events());
  cluster_.crash_host(host_name(3));
  // Sweeps at t=1,2 (relative): confirmed by t=2+.
  runtime_->events().run_until(start + 3.0);
  EXPECT_EQ(detector->faults_detected(), 1u);
  EXPECT_EQ(runtime_->naming().list_offers(service_name()).size(), 3u);
  detector->stop();
  // The flight recorder stamps the confirmation on the same virtual clock
  // the sweep runs on: after the confirming sweep began (its pings take
  // virtual time), before the next one.
  std::size_t confirmed = 0;
  for (const auto& event : obs::FlightRecorder::global().events()) {
    if (event.type != obs::FlightEvent::fault_confirmed) continue;
    ++confirmed;
    EXPECT_EQ(event.subject, service_name().to_string());
    EXPECT_EQ(event.detail, host_name(3));
    EXPECT_GE(event.t, start + 2.0);
    EXPECT_LT(event.t, start + 3.0);
  }
  EXPECT_EQ(confirmed, 1u);
}

TEST_F(FaultDetectorTest, ProxyResolvesCleanPoolAfterDetection) {
  // The payoff: with the detector scrubbing the pool, a client that
  // resolves *after* a crash never sees the dead instance at all.
  FaultDetector detector(naming_stub(), {.suspicion_threshold = 1});
  detector.monitor(service_name());
  cluster_.crash_host(host_name(0));
  detector.sweep(1.0);
  for (int i = 0; i < 6; ++i) {
    const corba::ObjectRef ref = runtime_->resolve(service_name());
    EXPECT_NE(ref.ior().host, host_name(0));
    EXPECT_TRUE(ref.ping());
  }
}

TEST_F(FaultDetectorTest, UnmonitorStopsTracking) {
  FaultDetector detector(naming_stub(), {.suspicion_threshold = 1});
  detector.monitor(service_name());
  detector.unmonitor(service_name());
  cluster_.crash_host(host_name(0));
  detector.sweep(1.0);
  EXPECT_EQ(detector.faults_detected(), 0u);
  EXPECT_EQ(runtime_->naming().list_offers(service_name()).size(), 4u);
}

TEST_F(FaultDetectorTest, ThreadedModeRunsOnWallClock) {
  // Threaded mode needs a non-simulated deployment; reuse the runtime but
  // drive sweeps from a real thread against the live (virtual-time-frozen)
  // naming service.  Pings go through the in-process transport, which
  // completes immediately, so wall-clock sweeps work.
  auto detector = std::make_shared<FaultDetector>(
      naming_stub(),
      FaultDetectorOptions{.period = 0.01, .suspicion_threshold = 1});
  detector->monitor(service_name());
  detector->start_threaded();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (detector->sweeps() < 3 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  detector->stop();
  EXPECT_GE(detector->sweeps(), 3u);
}

TEST_F(FaultDetectorTest, ThreadedModeDetectsFaultsAndReportsQuarantine) {
  // Threaded detection end to end: a wall-clock sweep thread pings the
  // (virtual-time-frozen) deployment, confirms the dead instance after the
  // threshold, unbinds its offer, and its failed probes strike the shared
  // quarantine along the way.
  const auto& quarantine = runtime_->quarantine();
  ASSERT_TRUE(quarantine);
  auto detector = std::make_shared<FaultDetector>(
      naming_stub(),
      FaultDetectorOptions{.period = 0.01,
                           .suspicion_threshold = 3,
                           .quarantine = quarantine});
  detector->monitor(service_name());
  cluster_.crash_host(host_name(1));
  detector->start_threaded();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (detector->faults_detected() < 1 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  detector->stop();

  EXPECT_GE(detector->faults_detected(), 1u);
  const auto offers = runtime_->naming().list_offers(service_name());
  EXPECT_EQ(offers.size(), 3u);
  for (const naming::Offer& offer : offers)
    EXPECT_NE(offer.host, host_name(1));
  // Default quarantine options trip after 3 strikes — exactly the threshold
  // sweeps it took to confirm the fault.
  EXPECT_GE(quarantine->quarantines_imposed(), 1u);
}

TEST_F(FaultDetectorTest, ProbesReleaseQuarantinedInstance) {
  // A quarantined-but-still-bound instance earns its way back through
  // consecutive healthy pings (the probe path the filter deliberately
  // leaves open by keeping quarantined offers in list_offers).
  const auto& quarantine = runtime_->quarantine();
  ASSERT_TRUE(quarantine);
  const std::string service = service_name().to_string();
  const double now = runtime_->events().now();
  for (int i = 0; i < quarantine->options().strikes_to_quarantine; ++i)
    quarantine->report_failure(service, host_name(0), now);
  ASSERT_TRUE(quarantine->quarantined(service, host_name(0), now));

  FaultDetector detector(naming_stub(), {.quarantine = quarantine});
  detector.monitor(service_name());
  // The host is healthy; probe_successes_required sweeps release it.  The
  // release takes effect at the final probing sweep's timestamp.
  double last_sweep = now;
  for (int i = 0; i < quarantine->options().probe_successes_required; ++i) {
    last_sweep = now + 0.1 * (i + 1);
    detector.sweep(last_sweep);
  }
  EXPECT_FALSE(quarantine->quarantined(service, host_name(0), last_sweep));
  EXPECT_EQ(quarantine->probe_releases(), 1u);
  EXPECT_EQ(detector.faults_detected(), 0u);
}

}  // namespace
}  // namespace ft
