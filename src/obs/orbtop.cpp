#include "obs/orbtop.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>

#include "naming/naming_stub.hpp"
#include "obs/text_render.hpp"
#include "obs/trace.hpp"
#include "obs/trace_assembler.hpp"
#include "obs/trace_export.hpp"

namespace obs {

namespace {

std::string num_cell(double v, std::size_t width, const char* spec = "%.3g") {
  char buf[64];
  std::snprintf(buf, sizeof(buf), spec, v);
  return cell(buf, width);
}

std::string int_cell(std::uint64_t v, std::size_t width) {
  return cell(std::to_string(v), width);
}

}  // namespace

ClusterSnapshot collect_cluster(naming::NamingContext& root) {
  ClusterSnapshot snapshot;
  snapshot.collected_at = now();

  for (const naming::Binding& binding : root.list()) {
    if (binding.is_context || binding.offer_count == 0) continue;
    if (naming::is_reserved_id(binding.name.front().id)) continue;
    snapshot.offers.push_back(
        {binding.name.to_string(), binding.offer_count});
  }
  std::sort(snapshot.offers.begin(), snapshot.offers.end(),
            [](const OfferLine& a, const OfferLine& b) { return a.name < b.name; });

  naming::Name obs_name;
  obs_name.append(std::string(naming::kObsContextId));
  naming::NamingContextStub obs_context(root.resolve(obs_name));
  for (const naming::Binding& binding : obs_context.list()) {
    NodeStatus node;
    node.name = binding.name.to_string();
    try {
      TelemetryStub telemetry(obs_context.resolve(binding.name));
      node.health = telemetry.health();
      node.reachable = true;
    } catch (const std::exception& error) {
      node.error = error.what();
    }
    snapshot.nodes.push_back(std::move(node));
  }
  std::sort(snapshot.nodes.begin(), snapshot.nodes.end(),
            [](const NodeStatus& a, const NodeStatus& b) { return a.name < b.name; });
  return snapshot;
}

std::string render_table(const ClusterSnapshot& snapshot,
                         const ClusterSnapshot* prev) {
  // Rank reachable hosts by Winner load index, lower first; unknown (-1)
  // and unreachable hosts sink to the bottom.
  std::vector<const NodeStatus*> ranked;
  ranked.reserve(snapshot.nodes.size());
  for (const NodeStatus& node : snapshot.nodes) ranked.push_back(&node);
  auto rank_key = [](const NodeStatus& node) {
    if (!node.reachable) return 2;
    return node.health.load_index < 0 ? 1 : 0;
  };
  std::stable_sort(ranked.begin(), ranked.end(),
                   [&](const NodeStatus* a, const NodeStatus* b) {
                     const int ka = rank_key(*a), kb = rank_key(*b);
                     if (ka != kb) return ka < kb;
                     if (ka == 0) return a->health.load_index < b->health.load_index;
                     return a->name < b->name;
                   });

  std::string out;
  out += cell("HOST", 12) + cell("RANK", 4) + cell("LOAD", 8) +
         cell("AGE", 7) + cell("RPCS", 8) + cell("RPC/S", 8) +
         cell("P50", 9) + cell("P99", 9) + cell("RECOV", 5) +
         cell("CKPT", 6) + cell("QUAR", 4) + cell("DEPTH", 5) +
         cell("DUMPS", 5) + cell("SESS", 5) + cell("RESUM", 6) +
         cell("RETX", 5) + cell("CONN", 5);
  out += '\n';
  std::size_t rank = 0;
  for (const NodeStatus* node : ranked) {
    out += cell(node->name, 12);
    if (!node->reachable) {
      out += cell("-", 4) + "unreachable: " + node->error + '\n';
      continue;
    }
    const HealthReport& h = node->health;
    out += int_cell(++rank, 4);
    out += h.load_index < 0 ? cell("-", 8) : num_cell(h.load_index, 8);
    out += h.report_age < 0 ? cell("-", 7) : num_cell(h.report_age, 7, "%.2f");
    out += int_cell(h.rpcs, 8);
    std::string rate = "-";
    if (prev) {
      for (const NodeStatus& p : prev->nodes) {
        if (p.name != node->name || !p.reachable) continue;
        const double dt = h.now - p.health.now;
        if (dt > 0) {
          char buf[64];
          std::snprintf(buf, sizeof(buf), "%.1f",
                        static_cast<double>(h.rpcs - p.health.rpcs) / dt);
          rate = buf;
        }
        break;
      }
    }
    out += cell(rate, 8);
    out += num_cell(h.rpc_p50, 9);
    out += num_cell(h.rpc_p99, 9);
    out += int_cell(h.recoveries, 5);
    out += int_cell(h.checkpoints, 6);
    out += int_cell(h.quarantined, 4);
    out += int_cell(h.dispatch_queue_depth, 5);
    out += int_cell(h.auto_dumps, 5);
    out += int_cell(h.sessions_active, 5);
    out += int_cell(h.session_resumes, 6);
    out += int_cell(h.session_retransmits, 5);
    out += int_cell(h.tcp_connections, 5);
    out += '\n';
  }
  if (!snapshot.offers.empty()) {
    out += "\noffers:\n";
    for (const OfferLine& line : snapshot.offers)
      out += "  " + line.name + ": " + std::to_string(line.offers) +
             " offer(s)\n";
  }
  if (!snapshot.shards.empty()) {
    out += "\nshards:\n";
    out += "  " + cell("SHARD", 6) + cell("HOST", 12) + cell("ROLE", 8) +
           cell("VERSION", 8) + cell("LAG", 5) + cell("FOLLOW", 6) + '\n';
    for (const ShardLine& line : snapshot.shards) {
      out += "  " + int_cell(line.shard, 6) + cell(line.host, 12) +
             cell(line.role, 8) + int_cell(line.version, 8) +
             int_cell(line.lag, 5) + int_cell(line.followers, 6) + '\n';
    }
  }
  if (!snapshot.traces.empty()) {
    out += "\ntraces:\n";
    out += "  " + cell("TRACE", 17) + cell("ROOT_OP", 24) +
           cell("TOTAL_MS", 10) + cell("DOMINANT", 10) + '\n';
    for (const TraceLine& line : snapshot.traces) {
      out += "  " + cell(trace_key(line.trace_id), 17) +
             cell(line.root_op, 24) +
             num_cell(line.total_ms, 10, "%.3f") + cell(line.dominant, 10) +
             '\n';
    }
  }
  return out;
}

std::string render_json(const ClusterSnapshot& snapshot) {
  std::string out = "{\"schema_version\": 1, \"collected_at\": " +
                    format_double(snapshot.collected_at) + ", \"transport\": \"" +
                    json_escape(snapshot.transport) + "\", \"nodes\": [";
  bool first = true;
  for (const NodeStatus& node : snapshot.nodes) {
    if (!first) out += ", ";
    first = false;
    out += "{\"name\": \"" + json_escape(node.name) + "\", \"reachable\": ";
    if (!node.reachable) {
      out += "false, \"error\": \"" + json_escape(node.error) + "\"}";
      continue;
    }
    const HealthReport& h = node.health;
    out += "true, \"health\": {";
    out += "\"host\": \"" + json_escape(h.host) + "\"";
    out += ", \"now\": " + format_double(h.now);
    out += ", \"report_age\": " + format_double(h.report_age);
    out += ", \"load_index\": " + format_double(h.load_index);
    out += ", \"quarantined\": " + std::to_string(h.quarantined);
    out += ", \"dispatch_queue_depth\": " +
           std::to_string(h.dispatch_queue_depth);
    out += ", \"rpcs\": " + std::to_string(h.rpcs);
    out += ", \"rpc_p50\": " + format_double(h.rpc_p50);
    out += ", \"rpc_p99\": " + format_double(h.rpc_p99);
    out += ", \"recoveries\": " + std::to_string(h.recoveries);
    out += ", \"checkpoints\": " + std::to_string(h.checkpoints);
    out += ", \"checkpoint_bytes\": " + std::to_string(h.checkpoint_bytes);
    out += ", \"flight_recorded\": " + std::to_string(h.flight_recorded);
    out += ", \"auto_dumps\": " + std::to_string(h.auto_dumps);
    out += ", \"sessions_active\": " + std::to_string(h.sessions_active);
    out += ", \"session_resumes\": " + std::to_string(h.session_resumes);
    out += ", \"session_retransmits\": " +
           std::to_string(h.session_retransmits);
    out += ", \"tcp_connections\": " + std::to_string(h.tcp_connections);
    out += "}}";
  }
  out += "], \"offers\": [";
  first = true;
  for (const OfferLine& line : snapshot.offers) {
    if (!first) out += ", ";
    first = false;
    out += "{\"name\": \"" + json_escape(line.name) +
           "\", \"offers\": " + std::to_string(line.offers) + "}";
  }
  out += "], \"shards\": [";
  first = true;
  for (const ShardLine& line : snapshot.shards) {
    if (!first) out += ", ";
    first = false;
    out += "{\"shard\": " + std::to_string(line.shard) + ", \"host\": \"" +
           json_escape(line.host) + "\", \"role\": \"" +
           json_escape(line.role) + "\", \"version\": " +
           std::to_string(line.version) + ", \"lag\": " +
           std::to_string(line.lag) +
           ", \"followers\": " + std::to_string(line.followers) + "}";
  }
  out += "], \"traces\": [";
  first = true;
  for (const TraceLine& line : snapshot.traces) {
    if (!first) out += ", ";
    first = false;
    out += "{\"trace_id\": \"" + trace_key(line.trace_id) +
           "\", \"root_op\": \"" + json_escape(line.root_op) +
           "\", \"total_ms\": " + format_double(line.total_ms) +
           ", \"dominant\": \"" + json_escape(line.dominant) + "\"}";
  }
  out += "]}";
  return out;
}

// --- push collector ----------------------------------------------------------

namespace {

const EventField* find_field(const Event& event, std::string_view name) {
  for (const EventField& field : event.fields) {
    if (field.name == name) return &field;
  }
  return nullptr;
}

std::uint64_t u64_field(const Event& event, std::string_view name) {
  const EventField* field = find_field(event, name);
  return field ? (field->kind == EventField::Kind::f64
                      ? static_cast<std::uint64_t>(std::max(0.0, field->f64))
                      : field->u64)
               : 0;
}

double f64_field(const Event& event, std::string_view name) {
  const EventField* field = find_field(event, name);
  return field ? (field->kind == EventField::Kind::u64
                      ? static_cast<double>(field->u64)
                      : field->f64)
               : 0.0;
}

std::string str_field(const Event& event, std::string_view name) {
  const EventField* field = find_field(event, name);
  return field && field->kind == EventField::Kind::str ? field->str
                                                       : std::string();
}

}  // namespace

struct PushCollector::State {
  mutable std::mutex mu;
  std::vector<OfferLine> offers;
  struct Row {
    NodeStatus node;
    double last_report_t = -1.0;  ///< event time of the last load.report
    /// session_retransmits decomposed: metrics.delta carries the two
    /// components separately while health() reports their sum.
    std::uint64_t retransmitted_frames = 0;
    std::uint64_t replayed_replies = 0;
    bool retransmits_seen = false;
  };
  std::vector<Row> rows;  ///< sorted by name
  std::vector<ShardLine> shards;  ///< sorted by (shard, host)
  /// Stitches `trace.span` events back into trees; completed traces move
  /// into `traces` (slowest first, bounded) on snapshot().
  TraceAssembler assembler;
  std::vector<TraceLine> traces;
  std::uint64_t events_received = 0;

  void apply(const Event& event);
  void apply_metric(Row& row, const Event& event);
  void apply_shard(const Event& event);
  void drain_traces_locked();
};

/// The pane is a leaderboard, not a log: keep only the worst few.
constexpr std::size_t kMaxTraceLines = 8;

void PushCollector::State::apply_metric(Row& row, const Event& event) {
  // The metric-name -> HealthReport-field mapping mirrors
  // TelemetryServant::health(): push and poll render identical columns.
  HealthReport& h = row.node.health;
  const std::string& name = event.key;
  if (name == "orb.requests_total") {
    h.rpcs = u64_field(event, "value");
  } else if (name == "orb.request_latency_s") {
    h.rpc_p50 = f64_field(event, "p50");
    h.rpc_p99 = f64_field(event, "p99");
  } else if (name == "ft.proxy.recoveries_total") {
    h.recoveries = u64_field(event, "value");
  } else if (name == "ft.pipeline.stores_total") {
    h.checkpoints = u64_field(event, "value");
  } else if (name == "ft.pipeline.bytes_shipped_total") {
    h.checkpoint_bytes = u64_field(event, "value");
  } else if (name == "obs.flight_recorder.auto_dumps_total") {
    h.auto_dumps = u64_field(event, "value");
  } else if (name == "transport.session.active") {
    h.sessions_active = u64_field(event, "value");
  } else if (name == "transport.session.resumes_total") {
    h.session_resumes = u64_field(event, "value");
  } else if (name == "transport.session.retransmitted_frames_total") {
    row.retransmitted_frames = u64_field(event, "value");
    row.retransmits_seen = true;
  } else if (name == "transport.session.replayed_replies_total") {
    row.replayed_replies = u64_field(event, "value");
    row.retransmits_seen = true;
  } else if (name == "transport.tcp.connections") {
    h.tcp_connections = u64_field(event, "value");
  } else {
    return;  // a metric with no table column
  }
  if (row.retransmits_seen) {
    h.session_retransmits = row.retransmitted_frames + row.replayed_replies;
  }
  // The row's clock advances with its newest applied event, so RPC/s
  // between two snapshots divides by event time — same as poll mode
  // dividing by health().now deltas.
  h.now = std::max(h.now, event.t);
}

void PushCollector::State::apply_shard(const Event& event) {
  ShardLine line;
  line.shard = u64_field(event, "shard");
  line.host = event.host;
  line.role = str_field(event, "role");
  line.version = u64_field(event, "version");
  line.lag = u64_field(event, "lag");
  line.followers = u64_field(event, "followers");
  // One line per (shard, host): a promoted replica on another host gets its
  // own line rather than overwriting the dead primary's last state.
  const auto at = std::lower_bound(
      shards.begin(), shards.end(), line,
      [](const ShardLine& a, const ShardLine& b) {
        return a.shard != b.shard ? a.shard < b.shard : a.host < b.host;
      });
  if (at != shards.end() && at->shard == line.shard && at->host == line.host)
    *at = std::move(line);
  else
    shards.insert(at, std::move(line));
}

void PushCollector::State::drain_traces_locked() {
  for (const AssembledTrace& trace : assembler.drain_complete()) {
    TraceLine line;
    line.trace_id = trace.trace_id;
    const SpanRecord& root = trace.root_span().record;
    line.root_op = root.name;
    if (!root.detail.empty()) line.root_op += " " + root.detail;
    line.total_ms = trace.duration() * 1e3;
    line.dominant = attribute_critical_path(trace).dominant;
    traces.push_back(std::move(line));
  }
  std::sort(traces.begin(), traces.end(),
            [](const TraceLine& a, const TraceLine& b) {
              if (a.total_ms != b.total_ms) return a.total_ms > b.total_ms;
              return a.trace_id < b.trace_id;
            });
  if (traces.size() > kMaxTraceLines) traces.resize(kMaxTraceLines);
}

void PushCollector::State::apply(const Event& event) {
  std::lock_guard lock(mu);
  ++events_received;
  switch (event.topic) {
    case Topic::metrics_delta:
      for (Row& row : rows) {
        // host == "" is a process-wide event: every row shares the metric
        // substrate (the simulator's quirk, documented on the class).
        if (event.host.empty() || event.host == row.node.name)
          apply_metric(row, event);
      }
      break;
    case Topic::load_report:
      for (Row& row : rows) {
        if (row.node.name != event.host) continue;
        row.node.health.load_index = f64_field(event, "index");
        row.last_report_t = event.t;
        row.node.health.now = std::max(row.node.health.now, event.t);
      }
      break;
    case Topic::shard_state:
      apply_shard(event);
      break;
    case Topic::trace_span:
      assembler.add_event(event);
      break;
    default:
      // flight.event / session.state have no table
      // column yet; they still count as received stream traffic.
      break;
  }
}

PushCollector::PushCollector(std::shared_ptr<corba::ORB> orb,
                             naming::NamingContext& root,
                             std::size_t queue_limit)
    : orb_(std::move(orb)), state_(std::make_shared<State>()) {
  // Seed rows and offers with one poll pass (the last one): the zero-RPC
  // contract starts at subscription.
  ClusterSnapshot seed = collect_cluster(root);
  state_->offers = std::move(seed.offers);
  for (NodeStatus& node : seed.nodes) {
    State::Row row;
    row.node = std::move(node);
    state_->rows.push_back(std::move(row));
  }

  // One consumer servant for every subscription; the handler holds the
  // shared state (not `this`), so a push already in flight across the
  // transport stays safe after the collector is destroyed.
  auto state = state_;
  auto servant = std::make_shared<EventConsumerServant>(
      [state](std::vector<Event> events) {
        for (const Event& event : events) state->apply(event);
      });
  const corba::ObjectRef consumer = orb_->activate(servant, "EventConsumer");

  naming::Name obs_name;
  obs_name.append(std::string(naming::kObsContextId));
  naming::NamingContextStub obs_context(root.resolve(obs_name));
  std::exception_ptr last_error;
  for (const naming::Binding& binding : obs_context.list()) {
    try {
      TelemetryStub telemetry(obs_context.resolve(binding.name));
      const std::uint64_t id =
          telemetry.subscribe_events(consumer, /*topics=*/{}, queue_limit);
      subs_.emplace_back(std::move(telemetry), id);
    } catch (...) {
      // A node without a channel (or unreachable) does not spoil push mode
      // for the rest; its seed row just goes stale.
      last_error = std::current_exception();
    }
  }
  // No subscription at all means push mode is not available here — let the
  // caller's poll fallback see why.
  if (subs_.empty() && last_error) std::rethrow_exception(last_error);
  if (subs_.empty())
    throw corba::BAD_INV_ORDER("no telemetry node accepted a subscription");
}

PushCollector::~PushCollector() {
  for (auto& [telemetry, id] : subs_) {
    try {
      telemetry.unsubscribe_events(id);
    } catch (...) {
      // The node may be gone; the channel reaps dead consumers on its own
      // (three failed pushes).
    }
  }
}

ClusterSnapshot PushCollector::snapshot() const {
  ClusterSnapshot out;
  out.collected_at = now();
  out.transport = "push";
  std::lock_guard lock(state_->mu);
  state_->drain_traces_locked();
  out.offers = state_->offers;
  out.shards = state_->shards;
  out.traces = state_->traces;
  out.nodes.reserve(state_->rows.size());
  for (const State::Row& row : state_->rows) {
    NodeStatus node = row.node;
    if (row.last_report_t >= 0)
      node.health.report_age = std::max(0.0, out.collected_at - row.last_report_t);
    out.nodes.push_back(std::move(node));
  }
  return out;
}

std::uint64_t PushCollector::events_received() const {
  std::lock_guard lock(state_->mu);
  return state_->events_received;
}

}  // namespace obs
