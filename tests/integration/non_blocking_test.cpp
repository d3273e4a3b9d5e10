// Servant::non_blocking() for the runtime's servants: the allow-list that
// decides which requests the TCP reactor may run on its I/O thread, and a
// Winner-ranked resolve over real TCP taking that inline path.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>

#include "ft/checkpoint_store.hpp"
#include "naming/naming_context.hpp"
#include "naming/naming_stub.hpp"
#include "obs/metrics.hpp"
#include "orb/orb.hpp"
#include "winner/meta_manager.hpp"
#include "winner/system_manager.hpp"
#include "winner/system_manager_corba.hpp"

namespace {

std::shared_ptr<corba::ORB> tcp_orb(const std::string& name) {
  return corba::ORB::init({.endpoint_name = name, .enable_tcp = true});
}

bool naming_non_blocking(
    const std::shared_ptr<corba::ORB>& orb,
    std::shared_ptr<winner::LoadInformationService> manager) {
  naming::NamingContextOptions options;
  options.winner = std::move(manager);
  return naming::NamingContextServant::create_root(orb, options)
      .first->non_blocking();
}

TEST(NonBlockingServantTest, AllowListTruthTable) {
  const auto local = std::make_shared<winner::SystemManager>();
  const auto stub = std::make_shared<winner::SystemManagerStub>();
  const auto meta = std::make_shared<winner::MetaSystemManager>(
      winner::MetaManagerOptions{.home_domain = "site"});

  EXPECT_TRUE(winner::SystemManagerServant(local).non_blocking());
  EXPECT_FALSE(winner::SystemManagerServant(stub).non_blocking());
  EXPECT_FALSE(winner::SystemManagerServant(meta).non_blocking());

  const auto orb = tcp_orb("non-blocking-naming");
  EXPECT_TRUE(naming_non_blocking(orb, nullptr));
  EXPECT_TRUE(naming_non_blocking(orb, local));
  EXPECT_FALSE(naming_non_blocking(orb, stub));
  EXPECT_FALSE(naming_non_blocking(orb, meta));

  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "non_blocking_store";
  std::filesystem::remove_all(dir);
  EXPECT_TRUE(
      ft::CheckpointStoreServant(std::make_shared<ft::MemoryCheckpointStore>())
          .non_blocking());
  EXPECT_FALSE(
      ft::CheckpointStoreServant(std::make_shared<ft::FileCheckpointStore>(dir))
          .non_blocking());
  std::filesystem::remove_all(dir);
}

TEST(NonBlockingServantTest, WinnerRankedResolveRunsInlineOverTcp) {
  const auto server = tcp_orb("non-blocking-server");
  const auto manager = std::make_shared<winner::SystemManager>();
  naming::NamingContextOptions options;
  options.default_strategy = naming::ResolveStrategy::winner;
  options.winner = manager;
  const corba::ObjectRef root =
      naming::NamingContextServant::create_root(server, options).second;
  const corba::ObjectRef offer = server->activate(
      std::make_shared<winner::SystemManagerServant>(manager), "offer");
  manager->register_host("h1", 1.0);
  manager->report_load("h1", {0.0, 0.0});

  const auto client = tcp_orb("non-blocking-client");
  naming::NamingContextStub stub(client->string_to_object(
      server->object_to_string(root)));
  const naming::Name name{{"svc", ""}};
  stub.bind_offer(name, client->make_ref(offer.ior()), "h1");

  obs::Counter& inlined =
      obs::MetricsRegistry::global().counter("orb.dispatch_pool.inline_total");
  const std::uint64_t before = inlined.value();
  constexpr int kResolves = 8;
  for (int i = 0; i < kResolves; ++i)
    EXPECT_EQ(stub.resolve(name).ior().key, offer.ior().key);
  EXPECT_EQ(inlined.value(), before + kResolves);
}

}  // namespace
