// resolve_churn: Winner-ranked resolve() reads beside load-report writes,
// over TCP loopback.
//
//   infra ORB     naming root (winner strategy) + Winner system manager
//   offers ORB    16 trivial servants, one offer per registered host
//   client ORB    3 closed-loop readers (depth 1) sharing its one
//                 connection to infra; op = one NamingContextStub::resolve
//   reporter ORB  1 open-loop writer: report_load oneways for all 16 hosts
//                 every 50 ms, each report bumping the Winner epoch
//
// Host loads are fixed and distinct (a seeded permutation of 0, 1, ..., 15),
// so the check can require the most loaded host to get the fewest picks.
#include <algorithm>
#include <array>
#include <atomic>
#include <numeric>
#include <random>
#include <thread>

#include "harness.hpp"
#include "naming/naming_context.hpp"
#include "naming/naming_stub.hpp"
#include "obs/metrics.hpp"
#include "winner/system_manager.hpp"
#include "winner/system_manager_corba.hpp"

namespace perfbench {
namespace {

constexpr int kHosts = 16;
constexpr int kReaders = 3;
constexpr int kWarmupResolvesPerReader = 400;
constexpr auto kReportPeriod = std::chrono::milliseconds(50);
/// Op-log reservation per reader (well above the rate any reader reaches).
constexpr double kMaxReaderRate = 60000;

/// The offered service: activated only to be bound and resolved.
class OfferServant final : public corba::Servant {
 public:
  std::string_view repo_id() const noexcept override {
    return "IDL:corbaft/perfbench/Offer:1.0";
  }
  corba::Value dispatch(std::string_view op, const corba::ValueSeq&) override {
    throw corba::BAD_OPERATION("no operation " + std::string(op));
  }
};

class Topology {
 public:
  Topology(const RunConfig& config, Spans& spans);
  ~Topology();
  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  /// Blocks until the manager has taken one report from every host.
  void await_first_reports(std::uint64_t reports_before) const;

  /// Closed-loop readers until `stop` (or `count` resolves each, when
  /// non-zero).  Reader r appends its samples, timed from `window_start`,
  /// to logs[r]; picks per host index add up in `picks`.
  void read(int count, const std::atomic<bool>& stop,
            Clock::time_point window_start, std::vector<OpLog>& logs,
            std::array<std::uint64_t, kHosts>& picks, std::uint64_t& failed,
            ThreadErrors& errors);

  /// Starts (stops) recording reporter lateness.
  void record_lateness(bool on) { record_late_.store(on); }
  std::vector<double> lateness_ms() {
    std::lock_guard lock(late_mu_);
    return late_ms_;
  }

  int most_loaded_host() const {
    return static_cast<int>(std::max_element(loads_.begin(), loads_.end()) -
                            loads_.begin());
  }

 private:
  void report_loop();

  std::vector<std::string> hosts_;
  std::vector<double> loads_;
  std::vector<corba::ObjectKey> offer_keys_;
  naming::Name name_ = naming::Name::parse("ChurnService");
  std::shared_ptr<winner::SystemManager> manager_;
  std::shared_ptr<corba::ORB> infra_;
  std::shared_ptr<corba::ORB> offers_;
  std::shared_ptr<corba::ORB> reporter_;
  std::shared_ptr<corba::ORB> client_;
  std::string naming_ior_;
  std::unique_ptr<winner::SystemManagerStub> report_stub_;
  std::mutex late_mu_;
  std::vector<double> late_ms_;
  std::atomic<bool> record_late_{false};
  std::atomic<bool> stop_reporter_{false};
  std::thread reporter_thread_;  // last: uses every member above
};

Topology::Topology(const RunConfig& config, Spans& spans) {
  std::vector<int> levels(kHosts);
  std::iota(levels.begin(), levels.end(), 0);
  std::mt19937_64 rng(config.seed);
  std::shuffle(levels.begin(), levels.end(), rng);
  for (int i = 0; i < kHosts; ++i) {
    hosts_.push_back("churn-host" + std::to_string(i));
    loads_.push_back(static_cast<double>(levels[static_cast<std::size_t>(i)]));
  }

  infra_ = tcp_orb("churn-infra");
  manager_ = std::make_shared<winner::SystemManager>();
  naming::NamingContextOptions options;
  options.default_strategy = naming::ResolveStrategy::winner;
  options.winner = config.trace
                       ? std::make_shared<TimedLoadInfo>(manager_, spans)
                       : std::shared_ptr<winner::LoadInformationService>(manager_);
  auto [naming_servant, naming_ref] =
      naming::NamingContextServant::create_root(infra_, options);
  std::shared_ptr<corba::Servant> winner_servant =
      std::make_shared<winner::SystemManagerServant>(manager_);
  if (config.trace || config.naming_stall_us > 0.0) {
    TimedServant::ExecHook hook;
    if (config.trace)
      hook = [&spans](std::string_view op, double us) {
        spans.add("exec.naming." + std::string(op), us);
      };
    naming_ref = infra_->activate(std::make_shared<TimedServant>(
        naming_servant, std::move(hook), config.naming_stall_us));
  }
  if (config.trace)
    winner_servant = std::make_shared<TimedServant>(
        winner_servant, [&spans](std::string_view op, double us) {
          spans.add("exec.winner." + std::string(op), us);
        });
  naming_ior_ = infra_->object_to_string(naming_ref);
  const std::string winner_ior =
      infra_->object_to_string(infra_->activate(winner_servant));

  // The offers' process binds one offer per host, as node processes would.
  offers_ = tcp_orb("churn-offers");
  naming::NamingContextStub offers_root(offers_->string_to_object(naming_ior_));
  for (const std::string& host : hosts_) {
    const corba::ObjectRef ref = offers_->activate(std::make_shared<OfferServant>());
    offer_keys_.push_back(ref.ior().key);
    offers_root.bind_offer(name_, ref, host);
    manager_->register_host(host, 1.0);
  }

  reporter_ = tcp_orb("churn-reporter");
  report_stub_ = std::make_unique<winner::SystemManagerStub>(
      reporter_->string_to_object(winner_ior));
  client_ = tcp_orb("churn-client");
  reporter_thread_ = std::thread([this] { report_loop(); });
}

Topology::~Topology() {
  stop_reporter_.store(true);
  if (reporter_thread_.joinable()) reporter_thread_.join();
  for (const auto& orb : {client_, reporter_, offers_, infra_})
    if (orb) orb->shutdown();
}

void Topology::report_loop() {
  // Open loop: tick k is due at start + k * period whatever the system
  // does; lateness is how far behind schedule the generator ran.
  const auto start = Clock::now();
  for (std::uint64_t tick = 0; !stop_reporter_.load(); ++tick) {
    const auto due = start + tick * kReportPeriod;
    std::this_thread::sleep_until(due);
    const double late_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - due).count();
    if (record_late_.load()) {
      std::lock_guard lock(late_mu_);
      late_ms_.push_back(late_ms);
    }
    // Same clock the manager timestamps placements with, so each report
    // clears the placements it has observed.
    const double stamp =
        std::chrono::duration<double>(Clock::now().time_since_epoch()).count();
    for (std::size_t h = 0; h < hosts_.size(); ++h) {
      try {
        report_stub_->report_load(hosts_[h], {loads_[h], stamp});
      } catch (const corba::SystemException&) {
        // Oneway, best effort: a lost report is what the load table
        // tolerates by design.
      }
    }
  }
}

void Topology::await_first_reports(std::uint64_t reports_before) const {
  obs::Counter& reports =
      obs::MetricsRegistry::global().counter("winner.load_reports_total");
  while (reports.value() < reports_before + kHosts)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

void Topology::read(int count, const std::atomic<bool>& stop,
                    Clock::time_point window_start, std::vector<OpLog>& logs,
                    std::array<std::uint64_t, kHosts>& picks,
                    std::uint64_t& failed, ThreadErrors& errors) {
  logs.resize(kReaders);
  std::vector<std::array<std::uint64_t, kHosts>> thread_picks(kReaders);
  std::vector<std::uint64_t> thread_failed(kReaders, 0);
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      try {
        naming::NamingContextStub root(client_->string_to_object(naming_ior_));
        OpLog& mine = logs[static_cast<std::size_t>(r)];
        auto& my_picks = thread_picks[static_cast<std::size_t>(r)];
        my_picks.fill(0);
        for (int i = 0; count == 0 ? !stop.load(std::memory_order_relaxed) : i < count;
             ++i) {
          const auto t0 = Clock::now();
          corba::ObjectRef ref;
          try {
            ref = root.resolve(name_);
          } catch (const corba::Exception&) {
            ++thread_failed[static_cast<std::size_t>(r)];
            continue;
          }
          const auto t1 = Clock::now();
          mine.push_back({std::chrono::duration<double, std::micro>(t1 - t0).count(),
                          seconds_between(window_start, t1)});
          const auto it =
              std::find(offer_keys_.begin(), offer_keys_.end(), ref.ior().key);
          if (it == offer_keys_.end()) {
            ++thread_failed[static_cast<std::size_t>(r)];  // not a bound offer
            continue;
          }
          ++my_picks[static_cast<std::size_t>(it - offer_keys_.begin())];
        }
      } catch (const std::exception& e) {
        errors.record(std::string("resolve reader: ") + e.what());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int r = 0; r < kReaders; ++r) {
    for (int h = 0; h < kHosts; ++h)
      picks[static_cast<std::size_t>(h)] +=
          thread_picks[static_cast<std::size_t>(r)][static_cast<std::size_t>(h)];
    failed += thread_failed[static_cast<std::size_t>(r)];
  }
}

}  // namespace

RunResult run_resolve_churn(const RunConfig& config) {
  RunResult result;
  Spans spans;
  ThreadErrors errors;
  std::unique_ptr<Topology> topology;
  const std::atomic<bool> never{false};
  RegistryReading start, end;  // traced runs only, which run in one part
  std::array<std::uint64_t, kHosts> picks{};
  int heaviest = -1;
  std::vector<double> late_ms;
  for (int r = 0; r < kReaders; ++r)
    result.op_logs.push_back(reserved_log(config.seconds, kMaxReaderRate));
  run_in_parts(
      config, result,
      [&] {
        const std::uint64_t reports_before =
            obs::MetricsRegistry::global().counter("winner.load_reports_total").value();
        topology = std::make_unique<Topology>(config, spans);
        topology->await_first_reports(reports_before);
        std::vector<OpLog> warm_logs;
        std::array<std::uint64_t, kHosts> warm_picks{};
        std::uint64_t warm_failed = 0;
        topology->read(kWarmupResolvesPerReader, never, Clock::now(), warm_logs,
                       warm_picks, warm_failed, errors);
        if (warm_failed > 0) result.fail("warm-up resolves failed");
      },
      [&](Clock::time_point window_start, Clock::time_point until) {
        spans.clear();
        topology->record_lateness(true);
        if (config.trace) start = RegistryReading::now();
        std::atomic<bool> stop{false};
        std::thread timer([&] {
          std::this_thread::sleep_until(until);
          stop.store(true);
        });
        topology->read(0, stop, window_start, result.op_logs, picks, result.failed,
                       errors);
        timer.join();
        if (config.trace) end = RegistryReading::now();
        topology->record_lateness(false);
      },
      [&] {
        heaviest = topology->most_loaded_host();
        const std::vector<double> late = topology->lateness_ms();
        late_ms.insert(late_ms.end(), late.begin(), late.end());
        topology.reset();
      });
  result.attempted = result.ops() + result.failed;
  errors.drain_into(result);

  // Checks: every result was a bound offer (counted in `failed` otherwise),
  // and the most loaded host (the same in every part: the loads follow the
  // seed) got the fewest picks.
  const std::uint64_t fewest = *std::min_element(picks.begin(), picks.end());
  if (picks[static_cast<std::size_t>(heaviest)] != fewest)
    result.fail("most loaded host got " +
                std::to_string(picks[static_cast<std::size_t>(heaviest)]) +
                " picks, another host only " + std::to_string(fewest));
  std::uint64_t most = *std::max_element(picks.begin(), picks.end());
  result.notes.push_back("picks per host: fewest " + std::to_string(fewest) +
                         " (most loaded host), most " + std::to_string(most));

  const double ops = static_cast<double>(result.ops());
  add_orb_counters(result, start, end, ops);
  if (config.trace) {
    const double exec = spans.mean_us("exec.naming.resolve");
    result.layer["naming.resolve_exec_us"] = exec;
    result.layer["orb.self_us"] = mean_us(result.op_logs) - exec;
    result.layer["winner.rank_us"] = spans.mean_us("winner.rank");
    result.layer["winner.notify_us"] = spans.mean_us("winner.notify");
    result.layer["winner.report_exec_us"] = spans.mean_us("exec.winner.report_load");
    std::sort(late_ms.begin(), late_ms.end());
    result.layer["winner.reporter_late_ms.p99"] = quantile_sorted(late_ms, 0.99);
    result.layer["winner.reporter_late_ms.max"] = late_ms.empty() ? 0.0 : late_ms.back();
  }
  return result;
}

}  // namespace perfbench
