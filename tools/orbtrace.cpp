// orbtrace: cross-host trace assembly and latency attribution for a
// corbaft cluster.
//
// Connects to the naming service, subscribes through every `_obs/*`
// telemetry servant for the `trace.span` stream (plus `flight.event` for
// the postmortem join), collects for a while, then
// stitches the per-host span streams into call trees and answers "which
// traces were slowest, and where did each spend its time?" — per-category
// critical-path attribution (rpc / marshal / transport / dispatch / resolve
// / recover / checkpoint / queue.wait / network / idle.parent).
//
// Requires a span exporter on the cluster (TelemetryOptions::trace_sample_n
// on a TCP deployment, core::RuntimeOptions::trace_sample_n under sim);
// with tracing off there is nothing to collect.
//
//   orbtrace --ior <IOR:...>       naming service reference
//   orbtrace --ior-file <path>     ... read from a file instead
//   orbtrace --collect <seconds>   collection window (default 2)
//   orbtrace --slowest <n>         traces in the report (default 5)
//   orbtrace --trace <16-hex-id>   render one trace (tree + attribution)
//   orbtrace --postmortem          append the trace's flight events (live
//                                  recovery steps and auto-dump replays,
//                                  each once) to each rendering
//   orbtrace --json                machine-readable report
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include "naming/naming_stub.hpp"
#include "obs/orbtrace.hpp"
#include "obs/trace_export.hpp"
#include "orb/orb.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s (--ior <IOR:...> | --ior-file <path>) "
               "[--collect <seconds>] [--slowest <n>] [--trace <16-hex-id>] "
               "[--postmortem] [--json]\n",
               argv0);
  return 2;
}

std::string read_ior_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read IOR file: " + path);
  std::string ior;
  in >> ior;
  return ior;
}

}  // namespace

int main(int argc, char** argv) {
  std::string ior;
  double collect = 2.0;
  std::size_t slowest = 5;
  std::uint64_t trace_id = 0;
  bool postmortem = false;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--ior" && i + 1 < argc) {
      ior = argv[++i];
    } else if (arg == "--ior-file" && i + 1 < argc) {
      try {
        ior = read_ior_file(argv[++i]);
      } catch (const std::exception& error) {
        std::fprintf(stderr, "orbtrace: %s\n", error.what());
        return 1;
      }
    } else if (arg == "--collect" && i + 1 < argc) {
      collect = std::atof(argv[++i]);
      if (collect <= 0) {
        std::fprintf(stderr, "orbtrace: --collect needs a positive window\n");
        return 2;
      }
    } else if (arg == "--slowest" && i + 1 < argc) {
      slowest = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (arg == "--trace" && i + 1 < argc) {
      trace_id = std::strtoull(argv[++i], nullptr, 16);
      if (trace_id == 0) {
        std::fprintf(stderr, "orbtrace: --trace needs a nonzero hex id\n");
        return 2;
      }
    } else if (arg == "--postmortem") {
      postmortem = true;
    } else if (arg == "--json") {
      json = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (ior.empty()) return usage(argv[0]);

  try {
    // Mostly a client, but the subscription serves the EventConsumer
    // callback object on this endpoint.
    auto orb =
        corba::ORB::init({.endpoint_name = "orbtrace", .enable_tcp = true});
    naming::NamingContextStub root(orb->string_to_object(ior));

    obs::TraceWatcher watcher(orb, root);
    std::this_thread::sleep_for(std::chrono::duration<double>(collect));

    // The window is over and the subscriptions are about to die with the
    // process: drain everything, partial traces included.
    const std::vector<obs::AssembledTrace> traces = watcher.drain_all();
    const std::vector<obs::JoinedEvent> joined = watcher.joined_events();

    if (trace_id != 0) {
      const obs::AssembledTrace* match = nullptr;
      for (const obs::AssembledTrace& trace : traces)
        if (trace.trace_id == trace_id) match = &trace;
      if (!match) {
        std::fprintf(stderr, "orbtrace: no trace %016llx collected\n",
                     static_cast<unsigned long long>(trace_id));
        return 1;
      }
      if (json) {
        std::printf("%s\n",
                    obs::traces_to_json({*match}, 1, joined).c_str());
      } else if (postmortem) {
        std::fputs(obs::render_postmortem(*match, joined).c_str(), stdout);
      } else {
        std::fputs(obs::render_trace_tree(*match).c_str(), stdout);
        std::fputs(obs::render_attribution(obs::attribute_critical_path(*match))
                       .c_str(),
                   stdout);
      }
    } else if (json) {
      std::printf("%s\n", obs::traces_to_json(traces, slowest, joined).c_str());
    } else {
      std::fputs(obs::render_trace_report(traces, slowest).c_str(), stdout);
      if (postmortem) {
        for (const obs::AssembledTrace& trace :
             obs::slowest_traces(traces, slowest)) {
          std::fputs("\n", stdout);
          std::fputs(obs::render_postmortem(trace, joined).c_str(), stdout);
        }
      }
    }
    orb->shutdown();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "orbtrace: %s\n", error.what());
    return 1;
  }
  return 0;
}
