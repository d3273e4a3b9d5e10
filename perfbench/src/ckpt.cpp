// ckpt_delta_64k: fault-tolerant calls on a servant with 64 KiB of state,
// checkpointed by delta after every call, over TCP loopback.
//
//   infra ORB    naming root + one checkpoint-store servant (in memory)
//   node ORBs    one 64 KiB chunk servant each (16 x 4 KiB chunks)
//   client ORB   2 closed-loop callers, each driving its own
//                ft::ProxyEngine (delta_sync, checkpoint every call)
//                against its own servant; both proxies share the store
//
// Op = one ProxyEngine::call("update"): the update RPC, the 64 KiB
// get_state reply, the chunk diff and the store_delta RPC.  Each update
// dirties 2 rotating chunks (1/8 of the state).
#include <array>
#include <atomic>
#include <cstring>
#include <thread>

#include "ft/checkpoint.hpp"
#include "ft/proxy.hpp"
#include "harness.hpp"
#include "naming/naming_context.hpp"
#include "naming/naming_stub.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kChunkBytes = 4096;
constexpr std::size_t kChunks = 16;
constexpr std::size_t kStateBytes = kChunks * kChunkBytes;
constexpr int kCallers = 2;
constexpr int kWarmupCallsPerCaller = 300;
/// Op-log reservation per caller (well above the rate any caller reaches).
constexpr double kMaxCallerRate = 20000;

std::uint64_t splitmix(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// The bench-defined checkpointable service.  `update(seq)` rewrites
/// chunks 2*seq and 2*seq+1 (mod 16) with bytes derived from the seed and
/// `seq`, so the state after any call sequence is a pure function of it.
class ChunkServant final : public corba::Servant,
                           public ft::CheckpointableServant {
 public:
  explicit ChunkServant(std::uint64_t seed)
      : seed_(seed), state_(kStateBytes, std::byte{0}) {}

  std::string_view repo_id() const noexcept override {
    return "IDL:corbaft/perfbench/Chunks:1.0";
  }

  corba::Value dispatch(std::string_view op,
                        const corba::ValueSeq& args) override {
    if (auto handled = try_dispatch_state(op, args)) return *handled;
    if (op != "update") throw corba::BAD_OPERATION("no operation " + std::string(op));
    check_arity(op, args, 1);
    const std::int64_t seq = args[0].as_i64();
    std::lock_guard lock(mu_);
    for (std::uint64_t c = 0; c < 2; ++c) {
      const std::size_t chunk = (2 * static_cast<std::uint64_t>(seq) + c) % kChunks;
      std::byte* out = state_.data() + chunk * kChunkBytes;
      std::uint64_t word = splitmix(seed_ ^ (static_cast<std::uint64_t>(seq) << 8) ^ c);
      for (std::size_t w = 0; w < kChunkBytes / sizeof word; ++w) {
        word = splitmix(word);
        std::memcpy(out + w * sizeof word, &word, sizeof word);
      }
    }
    return corba::Value(seq);
  }

  corba::Blob get_state() override {
    std::lock_guard lock(mu_);
    return state_;
  }
  void set_state(const corba::Blob& state) override {
    if (state.size() != kStateBytes) throw corba::BAD_PARAM("state size");
    std::lock_guard lock(mu_);
    state_ = state;
  }

 private:
  const std::uint64_t seed_;
  std::mutex mu_;
  corba::Blob state_;
};

class Topology {
 public:
  Topology(const RunConfig& config, Spans& spans);
  ~Topology() {
    for (const auto& orb : {client_, nodes_[1], nodes_[0], infra_})
      if (orb) orb->shutdown();
  }
  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  /// Closed-loop callers until `stop` (or `count` calls each, when
  /// non-zero).  Caller c appends its samples, timed from `window_start`,
  /// to logs[c].
  void call(int count, const std::atomic<bool>& stop,
            Clock::time_point window_start, std::vector<OpLog>& logs,
            std::uint64_t& failed, ThreadErrors& errors);

  /// Store content vs live servant state, per caller; false when a check
  /// failed (recorded in `result`).
  bool check(RunResult& result);

 private:
  std::shared_ptr<ft::MemoryCheckpointStore> backend_;
  std::shared_ptr<corba::ORB> infra_;
  std::array<std::shared_ptr<corba::ORB>, kCallers> nodes_;
  std::shared_ptr<corba::ORB> client_;
  std::array<corba::ObjectRef, kCallers> targets_;
  std::vector<std::unique_ptr<ft::ProxyEngine>> engines_;
  std::array<std::int64_t, kCallers> next_seq_{};
};

Topology::Topology(const RunConfig& config, Spans& spans) {
  const bool trace = config.trace;
  infra_ = tcp_orb("ckpt-infra");
  auto naming_ref = naming::NamingContextServant::create_root(infra_).second;
  backend_ = std::make_shared<ft::MemoryCheckpointStore>();
  std::shared_ptr<corba::Servant> store_servant =
      std::make_shared<ft::CheckpointStoreServant>(backend_);
  if (trace)
    store_servant = std::make_shared<TimedServant>(
        store_servant, [&spans](std::string_view op, double us) {
          spans.add(op == "store" || op == "store_delta"
                        ? std::string("exec.store.write")
                        : "exec.store." + std::string(op),
                    us);
        });
  const std::string store_ior =
      infra_->object_to_string(infra_->activate(store_servant));
  const std::string naming_ior = infra_->object_to_string(naming_ref);

  client_ = tcp_orb("ckpt-client");
  for (int i = 0; i < kCallers; ++i) {
    const std::string host = "ckpt-node" + std::to_string(i);
    auto& node = nodes_[static_cast<std::size_t>(i)];
    node = tcp_orb(host);
    std::shared_ptr<corba::Servant> servant =
        std::make_shared<ChunkServant>(config.seed + static_cast<std::uint64_t>(i));
    if (trace)
      servant = std::make_shared<TimedServant>(
          servant, [&spans](std::string_view op, double us) {
            spans.add("exec.chunk." + std::string(op), us);
          });
    const corba::ObjectRef ref = node->activate(servant);
    const naming::Name name = naming::Name::parse("Chunks" + std::to_string(i));
    naming::NamingContextStub(node->string_to_object(naming_ior))
        .bind_offer(name, ref, host);

    ft::ProxyConfig proxy;
    proxy.initial = client_->string_to_object(node->object_to_string(ref));
    targets_[static_cast<std::size_t>(i)] = proxy.initial;
    std::shared_ptr<naming::NamingContext> naming_client =
        std::make_shared<naming::NamingContextStub>(client_->string_to_object(naming_ior));
    std::shared_ptr<ft::CheckpointStoreClient> store_client =
        std::make_shared<ft::CheckpointStoreStub>(client_->string_to_object(store_ior));
    if (trace) {
      naming_client = std::make_shared<TimedNaming>(naming_client, spans);
      store_client = std::make_shared<TimedStore>(store_client, spans);
    }
    proxy.naming = std::move(naming_client);
    proxy.store = std::move(store_client);
    proxy.service_name = name;
    proxy.checkpoint_key = "chunks" + std::to_string(i);
    proxy.policy.checkpoint_mode = ft::CheckpointMode::delta_sync;
    proxy.policy.checkpoint_every = 1;
    proxy.policy.mode = ft::RecoveryMode::reresolve;
    engines_.push_back(std::make_unique<ft::ProxyEngine>(std::move(proxy)));
  }
}

void Topology::call(int count, const std::atomic<bool>& stop,
                    Clock::time_point window_start,
                    std::vector<OpLog>& logs, std::uint64_t& failed,
                    ThreadErrors& errors) {
  logs.resize(kCallers);
  std::array<std::uint64_t, kCallers> thread_failed{};
  std::vector<std::thread> threads;
  for (int c = 0; c < kCallers; ++c) {
    threads.emplace_back([&, c] {
      const auto i = static_cast<std::size_t>(c);
      ft::ProxyEngine& engine = *engines_[i];
      try {
        for (int n = 0; count == 0 ? !stop.load(std::memory_order_relaxed) : n < count;
             ++n) {
          const std::int64_t seq = next_seq_[i]++;
          const auto t0 = Clock::now();
          try {
            const corba::Value reply = engine.call("update", {corba::Value(seq)});
            const auto t1 = Clock::now();
            if (reply.as_i64() != seq) {
              ++thread_failed[i];
              continue;
            }
            logs[i].push_back({std::chrono::duration<double, std::micro>(t1 - t0).count(),
                               seconds_between(window_start, t1)});
          } catch (const corba::Exception&) {
            ++thread_failed[i];
          }
        }
      } catch (const std::exception& e) {
        errors.record(std::string("ckpt caller: ") + e.what());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::uint64_t n : thread_failed) failed += n;
}

bool Topology::check(RunResult& result) {
  const std::size_t errors_before = result.errors.size();
  for (int c = 0; c < kCallers; ++c) {
    const auto i = static_cast<std::size_t>(c);
    const std::string key = "chunks" + std::to_string(c);
    const std::optional<ft::Checkpoint> stored = backend_->load(key);
    const corba::Blob live = ft::get_state(targets_[i]);
    if (!stored || stored->state != live)
      result.fail("caller " + std::to_string(c) +
                  ": checkpoint store differs from the live servant state");
    if (engines_[i]->recoveries() != 0 || engines_[i]->checkpoint_failures() != 0)
      result.fail("caller " + std::to_string(c) + ": recovery or checkpoint failure");
  }
  return result.errors.size() == errors_before;
}

}  // namespace

RunResult run_ckpt_delta_64k(const RunConfig& config) {
  RunResult result;
  Spans spans;
  ThreadErrors errors;
  std::unique_ptr<Topology> topology;
  const std::atomic<bool> never{false};
  RegistryReading start, end;  // traced runs only, which run in one part
  bool checks_passed = true;
  for (int c = 0; c < kCallers; ++c)
    result.op_logs.push_back(reserved_log(config.seconds, kMaxCallerRate));
  run_in_parts(
      config, result,
      [&] {
        topology = std::make_unique<Topology>(config, spans);
        std::vector<OpLog> warm_logs;
        std::uint64_t warm_failed = 0;
        topology->call(kWarmupCallsPerCaller, never, Clock::now(), warm_logs,
                       warm_failed, errors);
        if (warm_failed > 0) result.fail("warm-up calls failed");
      },
      [&](Clock::time_point window_start, Clock::time_point until) {
        spans.clear();
        if (config.trace) start = RegistryReading::now();
        std::atomic<bool> stop{false};
        std::thread timer([&] {
          std::this_thread::sleep_until(until);
          stop.store(true);
        });
        topology->call(0, stop, window_start, result.op_logs, result.failed, errors);
        timer.join();
        if (config.trace) end = RegistryReading::now();
      },
      [&] {
        checks_passed = topology->check(result) && checks_passed;
        topology.reset();
      });
  result.attempted = result.ops() + result.failed;
  errors.drain_into(result);
  if (checks_passed)
    result.notes.push_back("store state == live servant state for both callers, "
                           "every part");

  add_orb_counters(result, start, end, static_cast<double>(result.ops()));
  if (config.trace) {
    const double call = mean_us(result.op_logs);
    const double store = spans.mean_us("client.store");
    const double store_exec = spans.mean_us("exec.store.write");
    const double capture = spans.mean_us("exec.chunk._get_state");
    const double update = spans.mean_us("exec.chunk.update");
    result.layer["ft.call_us"] = call;
    result.layer["ft.store_us"] = store;
    result.layer["ft.store_exec_us"] = store_exec;
    result.layer["ft.capture_exec_us"] = capture;
    result.layer["ft.self_us"] = call - store - update - capture;
    result.layer["orb.self_us"] = store - store_exec;
    result.notes.push_back("proxy naming calls in window: " +
                           std::to_string(spans.count("client.proxy_resolve")));
  }
  return result;
}

}  // namespace perfbench
