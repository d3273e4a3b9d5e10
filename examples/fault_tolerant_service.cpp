// Fault-tolerance deep dive: the full lifecycle of a checkpointed service —
// per-call checkpoints, crash recovery via re-resolve, recovery via a
// service factory once offers run out, DII request proxies, and load-driven
// migration.  Everything the paper's §3 describes, narrated step by step.
//
// Along the way it shows the observability layer in action: a text metrics
// exporter plus the always-on flight recorder, whose recovery-class events
// record, in virtual-time order, what the fault detector, quarantine and
// proxy engine did about each injected failure.
#include <cstdio>

#include "core/sim_runtime.hpp"
#include "ft/checkpoint.hpp"
#include "ft/proxy.hpp"
#include "ft/request_proxy.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/orbtop.hpp"
#include "orb/cdr.hpp"
#include "sim/work_meter.hpp"

namespace {

// A key/value table service — state that visibly survives recovery.
//   interface Table { void put(in string k, in double v); double get(in string k); long long size(); };
class TableServant final : public corba::Servant,
                           public ft::CheckpointableServant {
 public:
  std::string_view repo_id() const noexcept override {
    return "IDL:example/Table:1.0";
  }
  corba::Value dispatch(std::string_view op,
                        const corba::ValueSeq& args) override {
    if (auto handled = try_dispatch_state(op, args)) return *handled;
    sim::WorkMeter::charge(1e4);
    if (op == "put") {
      check_arity(op, args, 2);
      table_[args[0].as_string()] = args[1].as_f64();
      return {};
    }
    if (op == "get") {
      check_arity(op, args, 1);
      auto it = table_.find(args[0].as_string());
      if (it == table_.end())
        throw corba::BAD_PARAM("no such key: " + args[0].as_string());
      return corba::Value(it->second);
    }
    if (op == "size") {
      return corba::Value(static_cast<std::int64_t>(table_.size()));
    }
    throw corba::BAD_OPERATION(std::string(op));
  }
  corba::Blob get_state() override {
    corba::CdrOutputStream out;
    out.write_u32(static_cast<std::uint32_t>(table_.size()));
    for (const auto& [key, value] : table_) {
      out.write_string(key);
      out.write_f64(value);
    }
    return out.take_buffer();
  }
  void set_state(const corba::Blob& state) override {
    corba::CdrInputStream in(state);
    std::map<std::string, double> table;
    const std::uint32_t count = in.read_u32();
    for (std::uint32_t i = 0; i < count; ++i) {
      std::string key = in.read_string();
      table[std::move(key)] = in.read_f64();
    }
    table_ = std::move(table);
  }

 private:
  std::map<std::string, double> table_;
};

}  // namespace

int main() {
  sim::Cluster cluster;
  for (int i = 0; i < 3; ++i) cluster.add_host("node" + std::to_string(i), 1e5);
  rt::SimRuntime runtime(cluster, {.winner_stale_after = 2.5, .infra_speed = 1e5});

  runtime.registry()->register_type(
      "Table", [] { return std::make_shared<TableServant>(); });
  const naming::Name name = naming::Name::parse("Table");
  runtime.deploy_everywhere(name, "Table");
  runtime.events().run_until(1.001);

  ft::RecoveryPolicy policy;
  policy.max_attempts = 5;
  policy.mode = ft::RecoveryMode::reresolve_then_factory;
  ft::ProxyEngine proxy(runtime.make_proxy_config(name, "Table", "demo-table",
                                                  policy));
  std::printf("service instance on %s\n", proxy.current().ior().host.c_str());

  // Build up state through the proxy (checkpoint after every call).
  proxy.call("put", {corba::Value("pi"), corba::Value(3.14159)});
  proxy.call("put", {corba::Value("e"), corba::Value(2.71828)});
  std::printf("stored 2 entries, checkpoints taken: %llu\n\n",
              static_cast<unsigned long long>(proxy.checkpoints_taken()));

  // Crash #1: recovery re-resolves to another existing instance.
  std::string victim = proxy.current().ior().host;
  cluster.crash_host(victim);
  std::printf("crash #1 (%s): ", victim.c_str());
  const double pi = proxy.call("get", {corba::Value("pi")}).as_f64();
  std::printf("recovered to %s via re-resolve, pi=%.5f\n",
              proxy.current().ior().host.c_str(), pi);

  // Crash #2: recovery again (fresh offers still exist).
  victim = proxy.current().ior().host;
  cluster.crash_host(victim);
  runtime.events().run_until(runtime.events().now() + 5.0);  // staleness
  std::printf("crash #2 (%s): ", victim.c_str());
  proxy.call("put", {corba::Value("phi"), corba::Value(1.61803)});
  std::printf("recovered to %s, added a third entry\n",
              proxy.current().ior().host.c_str());

  // Crash #3: every original instance is gone; a ServiceFactory on the
  // remaining live workstation creates a brand-new one, and the checkpoint
  // store repopulates it.
  victim = proxy.current().ior().host;
  cluster.crash_host(victim);
  runtime.events().run_until(runtime.events().now() + 5.0);
  for (const std::string& host : runtime.worker_hosts())
    if (!cluster.host(host).alive()) cluster.restart_host(host);
  std::printf("crash #3 (%s), dead hosts rebooted empty: ", victim.c_str());
  const std::int64_t size = proxy.call("size", {}).as_i64();
  std::printf("factory-created replacement on %s holds %lld entries\n\n",
              proxy.current().ior().host.c_str(),
              static_cast<long long>(size));

  // Deferred-synchronous calls through a fault-tolerant request proxy.
  ft::RequestProxy request(proxy, "get");
  request.add_argument(corba::Value("phi"));
  request.send_deferred();
  request.get_response();
  std::printf("DII request proxy: phi=%.5f (reissues after failure: %d)\n",
              request.return_value().as_f64(), request.reissues());

  // Migration: no failure, just a better machine.
  const std::string before = proxy.current().ior().host;
  cluster.set_background_load(before, 5);
  runtime.events().run_until(runtime.events().now() + 2.0);
  proxy.recover_now();
  std::printf("migration: %s (loaded) -> %s; table still has %lld entries\n",
              before.c_str(), proxy.current().ior().host.c_str(),
              static_cast<long long>(proxy.call("size", {}).as_i64()));

  std::printf("\ntotals: recoveries=%llu checkpoints=%llu retries=%llu\n",
              static_cast<unsigned long long>(proxy.recoveries()),
              static_cast<unsigned long long>(proxy.checkpoints_taken()),
              static_cast<unsigned long long>(proxy.retries()));

  // What the runtime saw: the recovery events of the three crashes and the
  // migration (the flight recorder stamps them with the simulation's virtual
  // clock), then the text metrics export.
  std::printf("\n--- recovery events (virtual seconds) ---\n");
  for (const auto& e : obs::FlightRecorder::global().events()) {
    using obs::FlightEvent;
    if (e.type != FlightEvent::recovery_step &&
        e.type != FlightEvent::quarantine_trip &&
        e.type != FlightEvent::quarantine_release &&
        e.type != FlightEvent::fault_confirmed &&
        e.type != FlightEvent::checkpoint_drop)
      continue;
    std::printf("[%.9f] %s\n", e.t,
                obs::describe_flight_event(obs::to_string(e.type), e.subject,
                                           e.a, e.b, e.detail)
                    .c_str());
  }
  std::printf("\n--- metrics (text exporter) ---\n%s",
              obs::to_text(obs::MetricsRegistry::global().snapshot()).c_str());

  // The same data is reachable in-band: every node binds a telemetry
  // servant under `_obs/<host>`, and orbtop renders the cluster from it.
  naming::NamingContextStub root = runtime.naming();
  std::printf("\n--- orbtop (one snapshot of this cluster) ---\n%s",
              obs::render_table(obs::collect_cluster(root)).c_str());
  std::printf(
      "\n(live TCP deployments: ./build/tools/orbtop --ior <naming IOR> "
      "--watch 2)\n");
  return size == 3 ? 0 : 1;
}
