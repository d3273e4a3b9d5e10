// mdo_30_3: the paper's 30-dim / 3-worker decomposed Rosenbrock over TCP
// loopback, in the Table 1 configuration (FT proxies, full-state
// checkpoint after every call).
//
//   infra ORB   naming root (winner strategy), Winner system manager,
//               in-memory checkpoint-store servant
//   node ORBs   one OptWorker offer each
//   client ORB  the manager: Complex Box over the coupling variables on one
//               driver thread; each round sends three deferred solve()
//               calls through ft::RequestProxy
//
// Op = one manager round.  Complete optimizations repeat back to back;
// before each, ft::set_state restores the blank worker state captured at
// set-up, so every repetition must reproduce the in-process reference
// bit for bit.
#include <algorithm>
#include <array>
#include <cstring>
#include <thread>

#include "bench_common.hpp"
#include "ft/request_proxy.hpp"
#include "harness.hpp"
#include "naming/naming_context.hpp"
#include "naming/naming_stub.hpp"
#include "obs/metrics.hpp"
#include "opt/complex_box.hpp"
#include "opt/rosenbrock.hpp"
#include "opt/worker.hpp"
#include "winner/system_manager.hpp"
#include "winner/system_manager_corba.hpp"

namespace perfbench {
namespace {

struct Problem {
  bench::Scenario scenario = bench::scenario_30_3();
  opt::WorkerProblem worker;
  opt::BoxOptions manager;
  std::vector<double> lower;
  std::vector<double> upper;

  explicit Problem(std::uint64_t seed) {
    worker.dimension = scenario.dimension;
    worker.blocks = scenario.workers;
    worker.seed = seed;
    manager.max_iterations = scenario.manager_iterations;
    manager.seed = seed;
    const auto coupling = static_cast<std::size_t>(
        opt::Decomposition::make(scenario.dimension, scenario.workers)
            .coupling_dimension());
    lower.assign(coupling, worker.lower);
    upper.assign(coupling, worker.upper);
  }
};

/// The same optimization with direct in-process calls on fresh servants.
double reference_best(const Problem& problem) {
  std::vector<std::unique_ptr<opt::OptWorkerServant>> workers;
  for (int j = 0; j < problem.scenario.workers; ++j)
    workers.push_back(std::make_unique<opt::OptWorkerServant>(problem.worker));
  const auto round = [&](std::span<const double> coupling) {
    double total = 0.0;
    for (int j = 0; j < problem.scenario.workers; ++j)
      total += workers[static_cast<std::size_t>(j)]
                   ->solve(j, coupling, problem.scenario.worker_iterations)
                   .best_value;
    return total;
  };
  return opt::complex_box(round, problem.lower, problem.upper, problem.manager)
      .best_value;
}

/// Op-log reservation (well above the round rate this machine reaches).
constexpr double kMaxRoundRate = 5000;

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Traced-run accumulators over the rounds of the window.
struct RoundTrace {
  double rounds = 0;
  double straggler_us = 0;
  double overhead_us = 0;
  double ft_share = 0;
  double evals = 0;
};

class Topology {
 public:
  Topology(const Problem& problem, const RunConfig& config, Spans& spans);
  ~Topology() {
    for (const auto& orb : {client_, nodes_[2], nodes_[1], nodes_[0], infra_})
      if (orb) orb->shutdown();
  }
  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  /// One complete optimization from the blank worker state; returns its
  /// best value.  Round samples, timed from `window_start`, go to `log`.
  double optimize(Clock::time_point window_start, OpLog& log, RoundTrace* trace);

  std::uint64_t recoveries() const {
    std::uint64_t total = 0;
    for (const auto& engine : engines_)
      total += engine->recoveries() + engine->checkpoint_failures();
    return total;
  }

 private:
  double round(std::span<const double> coupling, RoundTrace* trace);

  const Problem& problem_;
  Spans& spans_;
  std::shared_ptr<corba::ORB> infra_;
  std::array<std::shared_ptr<corba::ORB>, 3> nodes_;
  std::shared_ptr<corba::ORB> client_;
  std::vector<corba::ObjectRef> workers_;
  std::vector<corba::Blob> blank_;
  std::vector<std::unique_ptr<ft::ProxyEngine>> engines_;
  std::mutex solve_mu_;
  std::vector<double> solve_us_;  ///< solve execs of the round in flight
};

Topology::Topology(const Problem& problem, const RunConfig& config, Spans& spans)
    : problem_(problem), spans_(spans) {
  const bool trace = config.trace;
  infra_ = tcp_orb("mdo-infra");
  auto manager = std::make_shared<winner::SystemManager>();
  const std::string winner_ior = infra_->object_to_string(
      infra_->activate(std::make_shared<winner::SystemManagerServant>(manager)));
  naming::NamingContextOptions naming_options;
  naming_options.default_strategy = naming::ResolveStrategy::winner;
  naming_options.winner = manager;
  const std::string naming_ior = infra_->object_to_string(
      naming::NamingContextServant::create_root(infra_, naming_options).second);
  std::shared_ptr<corba::Servant> store_servant =
      std::make_shared<ft::CheckpointStoreServant>(
          std::make_shared<ft::MemoryCheckpointStore>());
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

  const naming::Name name = naming::Name::parse("OptWorker");
  obs::Counter& reports =
      obs::MetricsRegistry::global().counter("winner.load_reports_total");
  const std::uint64_t reports_before = reports.value();
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const std::string host = "mdo-node" + std::to_string(i);
    nodes_[i] = tcp_orb(host);
    std::shared_ptr<corba::Servant> servant =
        std::make_shared<opt::OptWorkerServant>(problem.worker);
    if (trace)
      servant = std::make_shared<TimedServant>(
          servant, [this](std::string_view op, double us) {
            if (op == "solve") {
              std::lock_guard lock(solve_mu_);
              solve_us_.push_back(us);
            }
            spans_.add("exec.worker." + std::string(op), us);
          });
    const corba::ObjectRef ref = nodes_[i]->activate(servant);
    naming::NamingContextStub(nodes_[i]->string_to_object(naming_ior))
        .bind_offer(name, ref, host);
    // The node's load reporter, as winner::NodeManager would send it.
    winner::SystemManagerStub reporter(nodes_[i]->string_to_object(winner_ior));
    reporter.register_host(host, 1.0);
    reporter.report_load(host, {0.1 * static_cast<double>(i),
                                std::chrono::duration<double>(
                                    Clock::now().time_since_epoch())
                                    .count()});
  }
  while (reports.value() < reports_before + nodes_.size())
    std::this_thread::sleep_for(std::chrono::microseconds(200));

  client_ = tcp_orb("mdo-client");
  naming::NamingContextStub root(client_->string_to_object(naming_ior));
  for (int j = 0; j < problem.scenario.workers; ++j) {
    corba::ObjectRef ref = root.resolve(name);  // placement, one per role
    for (const corba::ObjectRef& placed : workers_)
      if (placed == ref) throw corba::INTERNAL("two roles placed on one worker");
    blank_.push_back(ft::get_state(ref));

    ft::ProxyConfig proxy;
    proxy.initial = ref;
    proxy.naming = std::make_shared<naming::NamingContextStub>(root);
    proxy.store = std::make_shared<ft::CheckpointStoreStub>(
        client_->string_to_object(store_ior));
    if (trace) {
      proxy.naming = std::make_shared<TimedNaming>(proxy.naming, spans);
      proxy.store = std::make_shared<TimedStore>(proxy.store, spans);
    }
    proxy.service_name = name;
    proxy.checkpoint_key = "worker" + std::to_string(j);
    proxy.policy.checkpoint_mode = ft::CheckpointMode::full_sync;
    proxy.policy.checkpoint_every = 1;
    proxy.policy.mode = ft::RecoveryMode::reresolve;
    engines_.push_back(std::make_unique<ft::ProxyEngine>(std::move(proxy)));
    workers_.push_back(std::move(ref));
  }
}

double Topology::round(std::span<const double> coupling, RoundTrace* trace) {
  const auto t0 = Clock::now();
  const corba::Value coupling_value = corba::Value::from_span(coupling);
  std::vector<ft::RequestProxy> requests;
  requests.reserve(engines_.size());
  for (std::size_t j = 0; j < engines_.size(); ++j) {
    requests.emplace_back(*engines_[j], "solve");
    requests.back()
        .add_argument(corba::Value(static_cast<std::int64_t>(j)))
        .add_argument(coupling_value)
        .add_argument(corba::Value(problem_.scenario.worker_iterations));
    requests.back().send_deferred();
  }
  double total = 0.0;
  double ft_us = 0.0;
  std::int64_t evals = 0;
  for (ft::RequestProxy& request : requests) {
    if (trace) {
      // Wait for the reply first, so the get_response span holds only the
      // proxy's own work: result hand-off plus the checkpoint (get_state
      // and store round trips).
      while (!request.poll_response()) std::this_thread::yield();
      const auto t1 = Clock::now();
      request.get_response();
      const double us = us_since(t1);
      spans_.add("client.ft_post", us);
      ft_us += us;
    } else {
      request.get_response();
    }
    const opt::SolveOutcome outcome = opt::decode_solve_outcome(request.return_value());
    total += outcome.best_value;
    evals += outcome.evaluations;
  }
  if (trace) {
    const double round_us = us_since(t0);
    std::vector<double> solves;
    {
      std::lock_guard lock(solve_mu_);
      solves.swap(solve_us_);
    }
    const double slowest = solves.empty() ? 0.0 : *std::max_element(solves.begin(), solves.end());
    trace->rounds += 1;
    trace->straggler_us += slowest - mean(solves);
    trace->overhead_us += round_us - slowest;
    trace->ft_share += ft_us / round_us;
    trace->evals += static_cast<double>(evals);
  }
  return total;
}

double Topology::optimize(Clock::time_point window_start, OpLog& log,
                          RoundTrace* trace) {
  for (std::size_t j = 0; j < workers_.size(); ++j)
    ft::set_state(workers_[j], blank_[j]);
  {
    std::lock_guard lock(solve_mu_);
    solve_us_.clear();
  }
  const auto objective = [&](std::span<const double> coupling) {
    const auto t0 = Clock::now();
    const double value = round(coupling, trace);
    const auto t1 = Clock::now();
    log.push_back({std::chrono::duration<double, std::micro>(t1 - t0).count(),
                   seconds_between(window_start, t1)});
    return value;
  };
  return opt::complex_box(objective, problem_.lower, problem_.upper,
                          problem_.manager)
      .best_value;
}

}  // namespace

RunResult run_mdo_30_3(const RunConfig& config) {
  RunResult result;
  const Problem problem(config.seed);
  const double reference = reference_best(problem);
  Spans spans;
  std::unique_ptr<Topology> topology;
  RoundTrace trace;
  std::uint64_t repetitions = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t recoveries = 0;
  RegistryReading start, end;  // traced runs only, which run in one part
  result.op_logs.push_back(reserved_log(config.seconds, kMaxRoundRate));
  OpLog& log = result.op_logs.front();
  run_in_parts(
      config, result,
      [&] {
        topology = std::make_unique<Topology>(problem, config, spans);
        OpLog warm_log;
        RoundTrace warm_trace;
        const double warm_best = topology->optimize(
            Clock::now(), warm_log, config.trace ? &warm_trace : nullptr);
        if (!same_bits(warm_best, reference)) result.fail("warm-up best differs from reference");
      },
      [&](Clock::time_point window_start, Clock::time_point until) {
        spans.clear();
        if (config.trace) start = RegistryReading::now();
        while (Clock::now() < until) {
          const std::size_t rounds_before = log.size();
          try {
            const double best =
                topology->optimize(window_start, log, config.trace ? &trace : nullptr);
            ++repetitions;
            if (!same_bits(best, reference)) {
              ++mismatches;
              ++result.failed;  // the repetition's last round carries the failure
              log.pop_back();
            }
          } catch (const corba::Exception& e) {
            ++result.failed;
            result.fail(std::string("repetition aborted: ") + e.what());
            log.resize(rounds_before);
          }
        }
        if (config.trace) end = RegistryReading::now();
      },
      [&] {
        recoveries += topology->recoveries();
        topology.reset();
      });
  result.attempted = log.size() + result.failed;
  if (mismatches > 0)
    result.fail(std::to_string(mismatches) + " repetitions differ from the reference");
  if (recoveries != 0) result.fail("recovery or checkpoint failure on a healthy run");
  char line[160];
  std::snprintf(line, sizeof line,
                "%llu repetitions, every best value bit-identical to the "
                "in-process reference %.17g",
                static_cast<unsigned long long>(repetitions), reference);
  if (mismatches == 0) result.notes.emplace_back(line);

  const double ops = static_cast<double>(log.size());
  add_orb_counters(result, start, end, ops);
  if (config.trace && trace.rounds > 0) {
    const double post = spans.mean_us("client.ft_post");
    const double store = spans.mean_us("client.store");
    const double store_exec = spans.mean_us("exec.store.write");
    const double capture = spans.mean_us("exec.worker._get_state");
    result.layer["opt.solve_exec_us"] = spans.mean_us("exec.worker.solve");
    result.layer["opt.round_straggler_us"] = trace.straggler_us / trace.rounds;
    result.layer["opt.round_overhead_us"] = trace.overhead_us / trace.rounds;
    result.layer["opt.evals_per_op"] = trace.evals / trace.rounds;
    result.layer["ft.call_us"] = post;
    result.layer["ft.store_us"] = store;
    result.layer["ft.store_exec_us"] = store_exec;
    result.layer["ft.capture_exec_us"] = capture;
    result.layer["ft.self_us"] = post - store - capture;
    result.layer["ft.share_of_round"] = trace.ft_share / trace.rounds;
    result.layer["orb.self_us"] = store - store_exec;
  }
  return result;
}

}  // namespace perfbench
