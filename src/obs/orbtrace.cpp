#include "obs/orbtrace.hpp"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <exception>
#include <mutex>
#include <set>
#include <tuple>

#include "naming/naming_stub.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/text_render.hpp"
#include "obs/trace_export.hpp"

namespace obs {

namespace {

const EventField* find_field(const Event& event, std::string_view name) {
  for (const EventField& field : event.fields)
    if (field.name == name) return &field;
  return nullptr;
}

std::uint64_t u64_field(const Event& event, std::string_view name) {
  const EventField* field = find_field(event, name);
  return field && field->kind == EventField::Kind::u64 ? field->u64 : 0;
}

double f64_field(const Event& event, std::string_view name, double fallback) {
  const EventField* field = find_field(event, name);
  return field && field->kind == EventField::Kind::f64 ? field->f64 : fallback;
}

std::string str_field(const Event& event, std::string_view name) {
  const EventField* field = find_field(event, name);
  return field && field->kind == EventField::Kind::str ? field->str
                                                       : std::string();
}

std::string format_seconds(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9f", v);
  return buf;
}

std::string root_op(const AssembledTrace& trace) {
  const SpanRecord& root = trace.root_span().record;
  std::string op = root.name;
  if (!root.detail.empty()) op += " " + root.detail;
  return op;
}

}  // namespace

// --- watcher -----------------------------------------------------------------

struct TraceWatcher::State {
  explicit State(const Options& options)
      : assembler(options.assembler), max_joined(options.max_joined) {}

  /// (index, type, subject, at): one ring event, however many times dumps
  /// replay it and whether or not it was also published live.
  using EventKey = std::tuple<std::uint64_t, std::string, std::string, double>;

  mutable std::mutex mu;
  TraceAssembler assembler;
  std::deque<std::pair<JoinedEvent, EventKey>> joined;  ///< arrival order
  std::set<EventKey> seen;  ///< the keys of `joined`
  std::size_t max_joined;
  std::uint64_t events_received = 0;

  void apply(const Event& event) {
    std::lock_guard lock(mu);
    ++events_received;
    if (event.topic == Topic::trace_span) {
      assembler.add_event(event);
      return;
    }
    if (event.topic != Topic::flight_event) return;
    const std::uint64_t trace = u64_field(event, "trace");
    if (trace == 0) return;  // untraced ring entry — nothing to join
    EventKey key{u64_field(event, "index"), str_field(event, "type"),
                 str_field(event, "subject"), f64_field(event, "at", event.t)};
    if (!seen.insert(key).second) return;  // a replay of one already joined
    if (joined.size() >= max_joined) {
      // Oldest-out, same as the exporter buffer.
      seen.erase(joined.front().second);
      joined.pop_front();
    }
    JoinedEvent joined_event{
        std::get<3>(key), trace,
        describe_flight_event(std::get<1>(key), std::get<2>(key),
                              u64_field(event, "a"), u64_field(event, "b"),
                              str_field(event, "detail"))};
    joined.emplace_back(std::move(joined_event), std::move(key));
  }
};

TraceWatcher::TraceWatcher(std::shared_ptr<corba::ORB> orb,
                           naming::NamingContext& root)
    : TraceWatcher(std::move(orb), root, Options{}) {}

TraceWatcher::TraceWatcher(std::shared_ptr<corba::ORB> orb,
                           naming::NamingContext& root, Options options)
    : orb_(std::move(orb)), state_(std::make_shared<State>(options)) {
  auto state = state_;
  auto servant = std::make_shared<EventConsumerServant>(
      [state](std::vector<Event> events) {
        for (const Event& event : events) state->apply(event);
      });
  const corba::ObjectRef consumer = orb_->activate(servant, "TraceConsumer");

  const std::vector<std::string> topics = {
      std::string(to_string(Topic::trace_span)),
      std::string(to_string(Topic::flight_event))};

  naming::Name obs_name;
  obs_name.append(std::string(naming::kObsContextId));
  naming::NamingContextStub obs_context(root.resolve(obs_name));
  std::exception_ptr last_error;
  for (const naming::Binding& binding : obs_context.list()) {
    try {
      TelemetryStub telemetry(obs_context.resolve(binding.name));
      const std::uint64_t id =
          telemetry.subscribe_events(consumer, topics, options.queue_limit);
      subs_.emplace_back(std::move(telemetry), id);
    } catch (...) {
      last_error = std::current_exception();
    }
  }
  if (subs_.empty() && last_error) std::rethrow_exception(last_error);
  if (subs_.empty())
    throw corba::BAD_INV_ORDER("no telemetry node accepted a subscription");
}

TraceWatcher::~TraceWatcher() {
  for (auto& [telemetry, id] : subs_) {
    try {
      telemetry.unsubscribe_events(id);
    } catch (...) {
      // The node may be gone; the channel reaps dead consumers on its own.
    }
  }
}

std::vector<AssembledTrace> TraceWatcher::drain_complete() {
  std::lock_guard lock(state_->mu);
  return state_->assembler.drain_complete();
}

std::vector<AssembledTrace> TraceWatcher::drain_all() {
  std::lock_guard lock(state_->mu);
  return state_->assembler.drain_all();
}

std::vector<JoinedEvent> TraceWatcher::joined_events(
    std::uint64_t trace_id) const {
  std::lock_guard lock(state_->mu);
  std::vector<JoinedEvent> out;
  for (const auto& [event, key] : state_->joined)
    if (trace_id == 0 || event.trace_id == trace_id) out.push_back(event);
  std::stable_sort(out.begin(), out.end(),
                   [](const JoinedEvent& a, const JoinedEvent& b) {
                     return a.t < b.t;
                   });
  return out;
}

std::uint64_t TraceWatcher::events_received() const {
  std::lock_guard lock(state_->mu);
  return state_->events_received;
}

// --- reports -----------------------------------------------------------------

std::vector<AssembledTrace> slowest_traces(std::vector<AssembledTrace> traces,
                                           std::size_t n) {
  std::sort(traces.begin(), traces.end(),
            [](const AssembledTrace& a, const AssembledTrace& b) {
              if (a.duration() != b.duration())
                return a.duration() > b.duration();
              return a.trace_id < b.trace_id;
            });
  if (n > 0 && traces.size() > n) traces.resize(n);
  return traces;
}

std::string render_slowest_table(const std::vector<AssembledTrace>& traces) {
  std::string out = cell("TRACE", 17) + cell("ROOT_OP", 24) + cell("SPANS", 6) +
                    cell("TOTAL_MS", 10) + cell("DOMINANT", 10) + '\n';
  for (const AssembledTrace& trace : traces) {
    char total[64];
    std::snprintf(total, sizeof(total), "%.3f", trace.duration() * 1e3);
    out += cell(trace_key(trace.trace_id), 17) + cell(root_op(trace), 24) +
           cell(std::to_string(trace.spans.size()), 6) + cell(total, 10) +
           cell(attribute_critical_path(trace).dominant, 10) + '\n';
  }
  return out;
}

std::string render_trace_report(const std::vector<AssembledTrace>& traces,
                                std::size_t slowest_n) {
  const std::vector<AssembledTrace> slowest =
      slowest_traces(traces, slowest_n);
  std::vector<Attribution> attributions;
  attributions.reserve(traces.size());
  for (const AssembledTrace& trace : traces)
    attributions.push_back(attribute_critical_path(trace));

  std::string out =
      "orbtrace: " + std::to_string(traces.size()) + " trace(s) assembled\n";
  if (traces.empty()) return out;
  out += "\nslowest " + std::to_string(slowest.size()) + ":\n";
  out += render_slowest_table(slowest);
  out += "\nattribution (all traces):\n";
  out += render_attribution_table(aggregate_attribution(attributions));
  for (const AssembledTrace& trace : slowest) {
    out += '\n';
    out += render_trace_tree(trace);
    out += render_attribution(attribute_critical_path(trace));
  }
  return out;
}

std::string traces_to_json(const std::vector<AssembledTrace>& traces,
                           std::size_t slowest_n,
                           const std::vector<JoinedEvent>& joined) {
  const std::vector<AssembledTrace> slowest =
      slowest_traces(traces, slowest_n);
  std::vector<Attribution> attributions;
  attributions.reserve(traces.size());
  for (const AssembledTrace& trace : traces)
    attributions.push_back(attribute_critical_path(trace));

  std::string out = "{\"schema_version\": 1, \"traces\": [";
  bool first = true;
  for (const AssembledTrace& trace : slowest) {
    if (!first) out += ", ";
    first = false;
    const Attribution attribution = attribute_critical_path(trace);
    out += "{\"trace_id\": \"" + trace_key(trace.trace_id) +
           "\", \"root_op\": \"" + json_escape(root_op(trace)) +
           "\", \"total_s\": " + format_double(trace.duration()) +
           ", \"dominant\": \"" + json_escape(attribution.dominant) +
           "\", \"rootless\": " + (trace.rootless ? "true" : "false") +
           ", \"spans\": [";
    bool first_span = true;
    for (const AssembledSpan& span : trace.spans) {
      if (!first_span) out += ", ";
      first_span = false;
      out += "{\"name\": \"" + json_escape(span.record.name) +
             "\", \"detail\": \"" + json_escape(span.record.detail) +
             "\", \"span\": \"" + trace_key(span.record.context.span_id) +
             "\", \"parent\": \"" +
             trace_key(span.record.context.parent_span_id) +
             "\", \"host\": \"" + json_escape(span.host) +
             "\", \"start\": " + format_double(span.record.start) +
             ", \"end\": " + format_double(span.record.end) +
             ", \"category\": \"" +
             json_escape(std::string(span_category(span.record.name))) +
             "\", \"orphan\": " + (span.orphan ? "true" : "false") + "}";
    }
    out += "], \"attribution\": [";
    bool first_cat = true;
    for (const auto& [category, seconds] : attribution.categories) {
      if (!first_cat) out += ", ";
      first_cat = false;
      out += "{\"category\": \"" + json_escape(category) +
             "\", \"seconds\": " + format_double(seconds) + "}";
    }
    out += "], \"joined\": [";
    bool first_join = true;
    for (const JoinedEvent& event : joined) {
      if (event.trace_id != trace.trace_id) continue;
      if (!first_join) out += ", ";
      first_join = false;
      out += "{\"t\": " + format_double(event.t) + ", \"text\": \"" +
             json_escape(event.text) + "\"}";
    }
    out += "]}";
  }
  out += "], \"aggregate\": [";
  first = true;
  for (const CategoryStats& stats : aggregate_attribution(attributions)) {
    if (!first) out += ", ";
    first = false;
    out += "{\"category\": \"" + json_escape(stats.category) +
           "\", \"traces\": " + std::to_string(stats.traces) +
           ", \"total_s\": " + format_double(stats.total) +
           ", \"p50_s\": " + format_double(stats.p50) +
           ", \"p99_s\": " + format_double(stats.p99) +
           ", \"share\": " + format_double(stats.share) + "}";
  }
  out += "]}";
  return out;
}

std::string render_postmortem(const AssembledTrace& trace,
                              const std::vector<JoinedEvent>& joined) {
  std::string out = "postmortem " + render_trace_tree(trace);
  out += render_attribution(attribute_critical_path(trace));

  // One merged timeline: span boundaries and joined events, time-ordered
  // (stable: boundaries enumerate in the tree's deterministic span order,
  // events in arrival order, so equal timestamps render identically on
  // every run).
  struct Entry {
    double t;
    std::string line;
  };
  std::vector<Entry> entries;
  entries.reserve(trace.spans.size() * 2 + joined.size());
  for (const AssembledSpan& span : trace.spans) {
    entries.push_back({span.record.start,
                       cell("span.start", 10) + span.record.name +
                           (span.record.detail.empty()
                                ? std::string()
                                : " " + span.record.detail)});
    entries.push_back({span.record.end, cell("span.end", 10) + span.record.name});
  }
  for (const JoinedEvent& event : joined) {
    if (event.trace_id != trace.trace_id) continue;
    entries.push_back({event.t, cell("flight", 10) + event.text});
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& a, const Entry& b) { return a.t < b.t; });
  out += "timeline:\n";
  for (const Entry& entry : entries)
    out += "  [" + format_seconds(entry.t) + "] " + entry.line + '\n';
  return out;
}

}  // namespace obs
