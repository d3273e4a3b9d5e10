// Tests of the fault-tolerance proxy engine — the paper's §3 mechanism:
// checkpoint after every call, COMM_FAILURE -> re-resolve/restart ->
// restore -> retry, plus the policy knobs (checkpoint frequency, recovery
// modes, attempt limits).
#include "ft/proxy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "ft_test_common.hpp"
#include "orb/log.hpp"

namespace ft {
namespace {

using corbaft_test::CounterStub;
using corbaft_test::FtDeploymentTest;

class ProxyTest : public FtDeploymentTest {};

TEST_F(ProxyTest, TransparentCallsAndCheckpointEveryCall) {
  ProxyEngine engine(proxy_config());
  EXPECT_EQ(engine.call("add", {corba::Value(std::int64_t{40})}).as_i64(), 40);
  EXPECT_EQ(engine.call("add", {corba::Value(std::int64_t{2})}).as_i64(), 42);
  EXPECT_EQ(engine.checkpoints_taken(), 2u);
  EXPECT_EQ(engine.recoveries(), 0u);

  // The checkpoint service holds the latest state under the proxy's key.
  const auto checkpoint = runtime_->checkpoint_store()->load("counter-1");
  ASSERT_TRUE(checkpoint);
  EXPECT_EQ(checkpoint->version, 2u);
}

TEST_F(ProxyTest, CheckpointEveryNthCall) {
  ft::RecoveryPolicy policy;
  policy.checkpoint_every = 3;
  ProxyEngine engine(proxy_config(policy));
  for (int i = 0; i < 7; ++i) engine.call("add", {corba::Value(std::int64_t{1})});
  EXPECT_EQ(engine.checkpoints_taken(), 2u);  // after calls 3 and 6
}

TEST_F(ProxyTest, CheckpointingDisabled) {
  ft::RecoveryPolicy policy;
  policy.checkpoint_every = 0;
  ProxyEngine engine(proxy_config(policy));
  engine.call("add", {corba::Value(std::int64_t{1})});
  EXPECT_EQ(engine.checkpoints_taken(), 0u);
  EXPECT_EQ(runtime_->checkpoint_store()->load("counter-1"), std::nullopt);
}

TEST_F(ProxyTest, CrashRecoverRestoreRetry) {
  ProxyEngine engine(proxy_config());
  engine.call("add", {corba::Value(std::int64_t{40})});
  engine.call("add", {corba::Value(std::int64_t{2})});

  // Kill the workstation the service runs on.
  const std::string victim = engine.current().ior().host;
  cluster_.crash_host(victim);

  // The next call recovers transparently and the restored state is intact:
  // total continues from 42.
  EXPECT_EQ(engine.call("add", {corba::Value(std::int64_t{8})}).as_i64(), 50);
  EXPECT_EQ(engine.recoveries(), 1u);
  EXPECT_NE(engine.current().ior().host, victim);
}

TEST_F(ProxyTest, RecoveryUnbindsTheDeadOffer) {
  ProxyEngine engine(proxy_config());
  engine.call("add", {corba::Value(std::int64_t{1})});
  const std::string victim = engine.current().ior().host;
  cluster_.crash_host(victim);
  engine.call("add", {corba::Value(std::int64_t{1})});

  for (const naming::Offer& offer :
       runtime_->naming().list_offers(service_name())) {
    EXPECT_NE(offer.host, victim);
  }
}

TEST_F(ProxyTest, SequentialCrashesExhaustOffersThenFactoryTakesOver) {
  ft::RecoveryPolicy policy;
  policy.mode = RecoveryMode::reresolve_then_factory;
  policy.max_attempts = 10;
  ProxyEngine engine(proxy_config(policy));
  std::int64_t expected = 0;
  // Crash the current host after each successful call, three times: node 4
  // hosts survive, so the last recovery must go through a factory on an
  // already-used-or-remaining host.
  for (int round = 0; round < 3; ++round) {
    expected += 5;
    EXPECT_EQ(engine.call("add", {corba::Value(std::int64_t{5})}).as_i64(),
              expected);
    cluster_.crash_host(engine.current().ior().host);
    // Let Winner notice the death via missed reports.
    runtime_->events().run_until(runtime_->events().now() + 5.0);
  }
  expected += 5;
  EXPECT_EQ(engine.call("add", {corba::Value(std::int64_t{5})}).as_i64(),
            expected);
  EXPECT_EQ(engine.recoveries(), 3u);
}

TEST_F(ProxyTest, FactoryModeCreatesFreshInstanceAndRebindsOffer) {
  ft::RecoveryPolicy policy;
  policy.mode = RecoveryMode::factory;
  policy.rebind_new_offer = true;
  ProxyEngine engine(proxy_config(policy));
  engine.call("add", {corba::Value(std::int64_t{7})});
  const std::string victim = engine.current().ior().host;
  cluster_.crash_host(victim);
  runtime_->events().run_until(runtime_->events().now() + 5.0);

  EXPECT_EQ(engine.call("add", {corba::Value(std::int64_t{3})}).as_i64(), 10);
  // The offer pool was repaired: still 4 offers, none on the dead host.
  const auto offers = runtime_->naming().list_offers(service_name());
  EXPECT_EQ(offers.size(), 4u);
  for (const naming::Offer& offer : offers) EXPECT_NE(offer.host, victim);
}

TEST_F(ProxyTest, MaxAttemptsOneMeansNoFaultTolerance) {
  ft::RecoveryPolicy policy;
  policy.max_attempts = 1;
  ProxyEngine engine(proxy_config(policy));
  cluster_.crash_host(engine.current().ior().host);
  EXPECT_THROW(engine.call("add", {corba::Value(std::int64_t{1})}),
               corba::COMM_FAILURE);
  EXPECT_EQ(engine.recoveries(), 0u);
}

TEST_F(ProxyTest, CompletedMaybePolicyStopsRetries) {
  ft::RecoveryPolicy policy;
  policy.retry_on_completed_maybe = false;
  ProxyEngine engine(proxy_config(policy));
  // Crash mid-call => COMPLETED_MAYBE; the strict policy must surface it.
  const std::string victim = engine.current().ior().host;
  cluster_.events().schedule_after(
      0.0005, [this, victim] { cluster_.crash_host(victim); });
  try {
    engine.call("add", {corba::Value(std::int64_t{1})});
    // Depending on timing the call may complete before the crash; accept
    // success, but a failure must not have been retried.
  } catch (const corba::COMM_FAILURE& e) {
    EXPECT_EQ(e.completed(), corba::CompletionStatus::completed_maybe);
    EXPECT_EQ(engine.recoveries(), 0u);
  }
}

TEST_F(ProxyTest, StatelessServiceRecoversWithoutStore) {
  ft::ProxyConfig config = proxy_config();
  config.store = nullptr;
  config.checkpoint_key.clear();
  ProxyEngine engine(std::move(config));
  engine.call("add", {corba::Value(std::int64_t{5})});
  cluster_.crash_host(engine.current().ior().host);
  // Recovery succeeds but the replacement starts from scratch (no restore).
  EXPECT_EQ(engine.call("add", {corba::Value(std::int64_t{1})}).as_i64(), 1);
}

TEST_F(ProxyTest, ReresolveOnlyModeFailsWhenNoOffersLeft) {
  // Single-offer deployment: unbind the other three, crash the last.
  // Recovery failures are swallowed while attempts remain (a transient
  // recovery hiccup must not fail the call), so what surfaces once the
  // budget is exhausted is the *call's* failure against the dead host.
  ft::RecoveryPolicy policy;
  policy.mode = RecoveryMode::reresolve;
  ProxyEngine engine(proxy_config(policy));
  const std::string current = engine.current().ior().host;
  for (const naming::Offer& offer :
       runtime_->naming().list_offers(service_name())) {
    if (offer.host != current)
      runtime_->naming().unbind_offer(service_name(), offer.host);
  }
  cluster_.crash_host(current);
  EXPECT_THROW(engine.call("add", {corba::Value(std::int64_t{1})}),
               corba::COMM_FAILURE);
}

TEST_F(ProxyTest, MigrationViaRecoverNow) {
  // The paper notes checkpoint/restore also enables migration "due to a
  // changing load situation": recover_now() without any failure.
  ProxyEngine engine(proxy_config());
  engine.call("add", {corba::Value(std::int64_t{42})});
  const std::string before = engine.current().ior().host;
  engine.recover_now();
  EXPECT_NE(engine.current().ior().host, before);
  EXPECT_EQ(engine.call("total", {}).as_i64(), 42);  // state migrated

  // Load the host the service now runs on: once the report is in, the
  // migration lands on a host Winner ranks least loaded.
  const std::string loaded = engine.current_host();
  cluster_.set_background_load(loaded, 3);
  runtime_->events().run_until(runtime_->events().now() + 2.0);
  std::map<std::string, double> index;
  for (const std::string& host : runtime_->worker_hosts())
    index[host] = runtime_->winner_impl()->host_index(host);
  double least = index.at(loaded);
  for (const auto& [host, load] : index) least = std::min(least, load);
  ASSERT_LT(least, index.at(loaded));
  engine.recover_now();
  EXPECT_NE(engine.current_host(), loaded);
  EXPECT_EQ(index.at(engine.current_host()), least);
  EXPECT_EQ(engine.call("total", {}).as_i64(), 42);
}

TEST_F(ProxyTest, OnRebindHookFires) {
  ProxyEngine engine(proxy_config());
  corba::ObjectRef seen;
  engine.on_rebind = [&seen](const corba::ObjectRef& ref) { seen = ref; };
  engine.call("add", {corba::Value(std::int64_t{1})});
  cluster_.crash_host(engine.current().ior().host);
  engine.call("add", {corba::Value(std::int64_t{1})});
  EXPECT_FALSE(seen.is_nil());
  EXPECT_EQ(seen.ior(), engine.current().ior());
}

TEST_F(ProxyTest, CheckpointFailureNeitherFailsNorRetriesTheCall) {
  // A dead checkpoint service must not fail (or duplicate!) a call that
  // already succeeded — the regression this guards: COMM_FAILURE raised
  // while checkpointing used to be caught by the retry loop, re-executing
  // the call.
  ft::ProxyConfig config = proxy_config();
  corba::IOR bogus;
  bogus.protocol = std::string(corba::protocol::inproc);
  bogus.host = "no-such-store";
  bogus.key = corba::ObjectKey::from_string("k");
  config.store = std::make_shared<ft::CheckpointStoreStub>(
      runtime_->client_orb()->make_ref(bogus));
  ProxyEngine engine(std::move(config));

  EXPECT_EQ(engine.call("add", {corba::Value(std::int64_t{5})}).as_i64(), 5);
  EXPECT_EQ(engine.checkpoint_failures(), 1u);
  EXPECT_EQ(engine.checkpoints_taken(), 0u);
  EXPECT_EQ(engine.retries(), 0u);
  // The add executed exactly once; the service still answers (recovery with
  // an unreachable store aborts midway, leaving the live instance alone).
  EXPECT_EQ(engine.call("total", {}).as_i64(), 5);
}

TEST_F(ProxyTest, AbortedRecoveryLeavesOfferPoolIntact) {
  // recover_now with an unreachable checkpoint store fails during restore —
  // before any offer bookkeeping — so the naming service is untouched.
  ft::ProxyConfig config = proxy_config();
  corba::IOR bogus;
  bogus.protocol = std::string(corba::protocol::inproc);
  bogus.host = "no-such-store";
  bogus.key = corba::ObjectKey::from_string("k");
  config.store = std::make_shared<ft::CheckpointStoreStub>(
      runtime_->client_orb()->make_ref(bogus));
  ProxyEngine engine(std::move(config));
  EXPECT_THROW(engine.recover_now(), corba::COMM_FAILURE);
  EXPECT_EQ(runtime_->naming().list_offers(service_name()).size(), 4u);
}

TEST_F(ProxyTest, RecoveryEmitsLogEvents) {
  std::vector<std::string> messages;
  corba::log::set_sink([&](corba::log::Level, std::string_view component,
                           std::string_view message) {
    messages.push_back(std::string(component) + ": " + std::string(message));
  });
  ProxyEngine engine(proxy_config());
  engine.call("add", {corba::Value(std::int64_t{1})});
  cluster_.crash_host(engine.current().ior().host);
  engine.call("add", {corba::Value(std::int64_t{1})});
  corba::log::clear_sink();
  ASSERT_FALSE(messages.empty());
  bool saw_retarget = false;
  for (const std::string& message : messages)
    saw_retarget = saw_retarget ||
                   message.find("ft.proxy: service") != std::string::npos;
  EXPECT_TRUE(saw_retarget);
}

TEST_F(ProxyTest, ConfigValidation) {
  ft::ProxyConfig config;
  EXPECT_THROW(ProxyEngine{config}, corba::BAD_PARAM);  // nil target
  config = proxy_config();
  config.policy.max_attempts = 0;
  EXPECT_THROW(ProxyEngine{config}, corba::BAD_PARAM);
  config = proxy_config();
  config.checkpoint_key.clear();
  EXPECT_THROW(ProxyEngine{config}, corba::BAD_PARAM);  // store without key
}

}  // namespace
}  // namespace ft
