// perfbench: the repository's wall-clock benchmark driver.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--naming-stall-us <us>]
//
// --trace 0 measures the end-to-end metrics with no bench-side wrappers;
// --trace 1 runs the workload untraced for 30 % of the window, then with
// every bench-side span for the rest, and reports the per-layer metrics
// (plus the tracing overhead between the two parts).  The last stdout line
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.  The
// exit code is non-zero when any op or correctness check failed.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "harness.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

/// A workload and the length of the slices its window is cut into.
/// ops_per_s, op_p50_us, cpu_us_per_op and the tails are each computed per
/// slice, the percentiles exactly, and the run reports the slice at the
/// better quartile: the lower one of latencies and CPU, the upper one of
/// rates.  The reference machine (4 vCPUs of a shared host) slows single
/// vCPUs by up to 1.5x for seconds at a time, independently of each other,
/// so a mean or median over the window follows how long the run happened
/// to spend on slowed vCPUs; the better quartile of short slices reads the
/// vCPUs' normal speed, which a change to the code moves and the host does
/// not.  Not the better decile: over ten seeds it spread mdo_30_3 by 0.15
/// against 0.08 at the quartile, since that workload's round waits for
/// three vCPUs at once and all three rarely run at normal speed together.
/// A slice holds at least 50 ops of every workload.
struct Workload {
  const char* name;
  RunResult (*run)(const RunConfig&);
  double slice_s;
};

constexpr Workload kWorkloads[] = {
    {"mdo_30_3", run_mdo_30_3, 0.5},
    {"ckpt_delta_64k", run_ckpt_delta_64k, 0.5},
    {"resolve_churn", run_resolve_churn, 0.5},
    {"sim_chaos_100_7", run_sim_chaos_100_7, 1.0},
};

/// Share of the slices (and of the set-ups) that read better than the
/// reported figure.
constexpr double kBetterShare = 0.25;

/// An untraced run is cut into parts of about this length, each on a fresh
/// set-up (run_in_parts), at most kMaxParts of them.  A traced run keeps
/// one set-up per mode, so its spans and counter deltas cover one topology.
constexpr double kPartSeconds = 2.0;
constexpr int kMaxParts = 10;

/// The tail every run prints as op_tail_us, beside p99 and p99.9.  None of
/// them is a BENCHMARK.json metric: on the shared 4-vCPU reference machine
/// the p90 of sim_chaos_100_7 spread 0.28 over five seeds (p99 and p99.9
/// of the TCP workloads up to 0.67), past the largest bound allowed.
constexpr double kTailQ = 0.90;

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, reported by every workload's traced run (0 where
/// the workload does not exercise the layer).  Kept in step with the
/// per_layer list of BENCHMARK.json; perfbench/selftest.py checks both.
constexpr MetricSpec kLayerMetrics[] = {
    {"orb.self_us", "us"},
    {"orb.queue_wait_us", "us"},
    {"orb.reactor_lag_us", "us"},
    {"orb.pipelined_ratio", "ratio"},
    {"orb.requests_per_op", "count"},
    {"orb.dispatches_per_op", "count"},
    {"naming.resolve_exec_us", "us"},
    {"naming.rank_cache_hit_ratio", "ratio"},
    {"naming.resolves_per_op", "count"},
    {"winner.rank_us", "us"},
    {"winner.notify_us", "us"},
    {"winner.report_exec_us", "us"},
    {"winner.reporter_late_ms.p99", "ms"},
    {"winner.reporter_late_ms.max", "ms"},
    {"ft.call_us", "us"},
    {"ft.self_us", "us"},
    {"ft.capture_exec_us", "us"},
    {"ft.store_us", "us"},
    {"ft.store_exec_us", "us"},
    {"ft.bytes_shipped_per_op", "bytes"},
    {"ft.delta_ratio", "ratio"},
    {"ft.share_of_round", "ratio"},
    {"ft.recoveries", "count"},
    {"ft.retries", "count"},
    {"ft.checkpoint_failures", "count"},
    {"opt.solve_exec_us", "us"},
    {"opt.round_straggler_us", "us"},
    {"opt.round_overhead_us", "us"},
    {"opt.evals_per_op", "count"},
    {"core.setup_us", "us"},
    {"sim.run_us", "us"},
    {"sim.events_per_op", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.faults_per_op", "count"},
    {"obs.trace_overhead_pct", "%"},
};

/// Share of the window a traced invocation spends untraced (the baseline of
/// obs.trace_overhead_pct).
constexpr double kUntracedShare = 0.3;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--naming-stall-us <us>]\n"
               "workloads:",
               why);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Summary {
  std::size_t samples = 0;  ///< ops in the slices summarized
  std::size_t slices = 0;
  double p50_us = 0.0;
  double ops_per_s = 0.0;
  double cpu_us_per_op = 0.0;
  /// p90 (op_tail_us), p99 and p99.9, each a slice quartile.
  std::array<double, 3> tails{};
  std::size_t min_beyond = 0;  ///< fewest samples beyond a slice's p90
  std::vector<double> rates;   ///< ops/s per slice
  std::vector<double> p50s;    ///< median latency per slice
};

constexpr std::array<double, 3> kTails = {kTailQ, 0.99, 0.999};

/// Cuts the window at the CPU marks and summarizes it slice by slice.  The
/// closing slice, cut short by the end of the window, is left out when it
/// is under half a slice long.
Summary summarize(const RunResult& result, double slice_s) {
  Summary s;
  const std::vector<CpuMark>& marks = result.cpu_marks;
  if (marks.size() < 2) return s;
  std::vector<double> edges;
  for (const CpuMark& mark : marks) edges.push_back(mark.t_s);
  std::vector<std::vector<double>> slices(marks.size() - 1);
  std::vector<std::pair<float, float>> ends(marks.size() - 1, {HUGE_VALF, -HUGE_VALF});
  for (const OpLog& log : result.op_logs)
    for (const OpSample& sample : log) {
      const auto after = std::upper_bound(edges.begin(), edges.end(),
                                          static_cast<double>(sample.end_s));
      if (after == edges.begin() || after == edges.end()) continue;
      const auto i = static_cast<std::size_t>(after - edges.begin()) - 1;
      slices[i].push_back(sample.us);
      ends[i].first = std::min(ends[i].first, sample.end_s);
      ends[i].second = std::max(ends[i].second, sample.end_s);
    }
  std::array<std::vector<double>, kTails.size()> tails;
  std::vector<double> cpu_per_op;
  s.min_beyond = std::numeric_limits<std::size_t>::max();
  for (std::size_t i = 0; i < slices.size(); ++i) {
    const double length = marks[i + 1].t_s - marks[i].t_s;
    if (length < 0.5 * slice_s) continue;
    std::vector<double>& slice = slices[i];
    ++s.slices;
    s.samples += slice.size();
    // Completions per second between the slice's first and last one, so a
    // slice of a few long ops does not read in whole ops per slice.
    const double span = ends[i].second - ends[i].first;
    s.rates.push_back(slice.size() >= 2 && span > 0
                          ? static_cast<double>(slice.size() - 1) / span
                          : static_cast<double>(slice.size()) / length);
    if (slice.empty()) continue;
    std::sort(slice.begin(), slice.end());
    s.p50s.push_back(quantile_sorted(slice, 0.5));
    for (std::size_t t = 0; t < kTails.size(); ++t)
      tails[t].push_back(quantile_sorted(slice, kTails[t]));
    s.min_beyond = std::min(s.min_beyond, beyond_rank(slice.size(), kTailQ));
    cpu_per_op.push_back(1e6 * (marks[i + 1].cpu_s - marks[i].cpu_s) /
                         static_cast<double>(slice.size()));
  }
  if (s.p50s.empty()) s.min_beyond = 0;
  s.ops_per_s = quantile(s.rates, 1.0 - kBetterShare);
  s.p50_us = quantile(s.p50s, kBetterShare);
  s.cpu_us_per_op = quantile(cpu_per_op, kBetterShare);
  for (std::size_t t = 0; t < kTails.size(); ++t)
    s.tails[t] = quantile(tails[t], kBetterShare);
  return s;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const char* workload_name = nullptr;
  RunConfig config;
  int trace = -1;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    if (arg == "--workload") {
      workload_name = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value, nullptr);
      have_seconds = config.seconds > 0;
    } else if (arg == "--trace") {
      trace = std::atoi(value);
    } else if (arg == "--naming-stall-us") {
      config.naming_stall_us = std::strtod(value, nullptr);
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!workload_name || !have_seed || !have_seconds || (trace != 0 && trace != 1))
    usage("--workload, --seed, --seconds and --trace 0|1 are required");
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads)
    if (std::strcmp(w.name, workload_name) == 0) workload = &w;
  if (!workload) usage((std::string("unknown workload ") + workload_name).c_str());
  config.setups = std::clamp(static_cast<int>(std::lround(config.seconds / kPartSeconds)), 1,
                             kMaxParts);
  config.slice_s = std::min(workload->slice_s, config.seconds / config.setups);

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n", workload->name,
              static_cast<unsigned long long>(config.seed), config.seconds, trace);
  std::printf("machine: nproc=%ld compiler=\"%s\" build=%s network=loopback-only\n",
              sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE);

  const RegistryReading process_start = RegistryReading::now();
  RunResult result;
  RunResult untraced;
  if (trace == 1) {
    RunConfig base = config;
    base.trace = false;
    base.setups = 1;
    base.seconds = config.seconds * kUntracedShare;
    untraced = workload->run(base);
    const std::uint64_t spans = RegistryReading::now().counter_delta(
        process_start, "obs.trace.spans_observed_total");
    if (spans != 0) untraced.fail("untraced part observed runtime spans");
    RunConfig traced = config;
    traced.trace = true;
    traced.setups = 1;
    traced.seconds = config.seconds - base.seconds;
    result = workload->run(traced);
    for (std::string& e : untraced.errors) result.fail("untraced part: " + e);
    result.attempted += untraced.attempted;
    result.failed += untraced.failed;
  } else {
    result = workload->run(config);
    const std::uint64_t spans = RegistryReading::now().counter_delta(
        process_start, "obs.trace.spans_observed_total");
    if (spans != 0)
      result.fail("untraced run observed " + std::to_string(spans) + " runtime spans");
  }

  const double rss_mb = peak_rss_mib(result.op_logs);
  const Summary summary = summarize(result, config.slice_s);
  if (summary.min_beyond < 10)
    result.notes.push_back("too few ops for the p90: a slice has under ten "
                           "samples beyond it");

  std::vector<std::pair<MetricSpec, double>> metrics;
  if (trace == 0) {
    metrics = {
        {{"setup_s", "s"}, quantile(result.setup_s, kBetterShare)},
        {{"ops_per_s", "1/s"}, summary.ops_per_s},
        {{"op_p50_us", "us"}, summary.p50_us},
        {{"cpu_us_per_op", "us"}, summary.cpu_us_per_op},
        {{"peak_rss_mb", "MiB"}, rss_mb},
    };
  } else {
    const Summary base = summarize(untraced, config.slice_s);
    result.layer["obs.trace_overhead_pct"] =
        base.p50_us > 0 ? 100.0 * (summary.p50_us / base.p50_us - 1.0) : 0.0;
    for (const MetricSpec& spec : kLayerMetrics) {
      const auto it = result.layer.find(spec.name);
      metrics.push_back({spec, it == result.layer.end() ? 0.0 : it->second});
    }
  }

  for (auto& [spec, value] : metrics) {
    if (std::isfinite(value)) continue;
    result.fail(std::string("non-finite ") + spec.name);
    value = 0.0;
  }
  // A failed check counts as a failed op.
  const std::uint64_t failed = result.failed + result.errors.size();
  const std::uint64_t attempted = std::max<std::uint64_t>(
      1, result.attempted + result.errors.size());
  const bool correct = result.errors.empty();

  for (const auto& [spec, value] : metrics)
    std::printf("  %-30s %16.4f %s\n", spec.name, value, spec.unit);
  std::printf("  %-30s %16.4f us (p90, at least %zu samples beyond it per slice)\n",
              "op_tail_us", summary.tails[0], summary.min_beyond);
  std::printf("  %zu samples in %zu slices of %.1f s; %zu set-ups\n", summary.samples,
              summary.slices, config.slice_s, result.setup_s.size());
  std::printf("  %-30s %16.6f fraction (%llu of %llu)\n", "failed_ratio",
              static_cast<double>(failed) / static_cast<double>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::printf("  tails over slices: p90 %.1f us, p99 %.1f us, p99.9 %.1f us\n",
              summary.tails[0], summary.tails[1], summary.tails[2]);
  std::printf("  ops/s per slice:");
  for (double rate : summary.rates) std::printf(" %.1f", rate);
  std::printf("\n  p50 us per slice:");
  for (double p50 : summary.p50s) std::printf(" %.1f", p50);
  std::printf("\n");
  for (const std::string& note : result.notes) std::printf("  check: %s\n", note.c_str());
  for (const std::string& error : result.errors)
    std::printf("  FAILED: %s\n", error.c_str());

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + std::string(metrics[i].first.name) + "\": {\"value\": " +
            number(metrics[i].second) + ", \"unit\": \"" + metrics[i].first.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct && failed == 0 ? 0 : 1;
}
