#include "obs/telemetry.hpp"

#include <utility>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"

namespace obs {

corba::Value event_to_value(const Event& event) {
  corba::ValueSeq out;
  out.emplace_back(std::string(to_string(event.topic)));
  out.emplace_back(event.host);
  out.emplace_back(event.key);
  out.emplace_back(event.t);
  out.emplace_back(event.seq);
  corba::ValueSeq fields;
  fields.reserve(event.fields.size());
  for (const EventField& field : event.fields) {
    corba::ValueSeq f;
    f.emplace_back(field.name);
    switch (field.kind) {
      case EventField::Kind::f64:
        f.emplace_back("f64");
        f.emplace_back(field.f64);
        break;
      case EventField::Kind::u64:
        f.emplace_back("u64");
        f.emplace_back(field.u64);
        break;
      case EventField::Kind::str:
        f.emplace_back("str");
        f.emplace_back(field.str);
        break;
    }
    fields.emplace_back(std::move(f));
  }
  out.emplace_back(std::move(fields));
  return corba::Value(std::move(out));
}

Event event_from_value(const corba::Value& value) {
  const corba::ValueSeq& seq = value.as_sequence();
  if (seq.size() < 6)
    throw corba::BAD_PARAM("malformed event: " + std::to_string(seq.size()) +
                           " fields");
  Event event;
  const auto topic = parse_topic(seq[0].as_string());
  if (!topic) throw corba::BAD_PARAM("unknown topic: " + seq[0].as_string());
  event.topic = *topic;
  event.host = seq[1].as_string();
  event.key = seq[2].as_string();
  event.t = seq[3].as_f64();
  event.seq = seq[4].as_u64();
  for (const corba::Value& fv : seq[5].as_sequence()) {
    const corba::ValueSeq& f = fv.as_sequence();
    if (f.size() < 3) throw corba::BAD_PARAM("malformed event field");
    const std::string& tag = f[1].as_string();
    if (tag == "f64")
      event.fields.push_back(num_field(f[0].as_string(), f[2].as_f64()));
    else if (tag == "u64")
      event.fields.push_back(int_field(f[0].as_string(), f[2].as_u64()));
    else if (tag == "str")
      event.fields.push_back(str_field(f[0].as_string(), f[2].as_string()));
    else
      throw corba::BAD_PARAM("unknown event field tag: " + tag);
  }
  return event;
}

EventConsumerServant::EventConsumerServant(Handler handler)
    : handler_(std::move(handler)) {
  if (!handler_) throw corba::BAD_PARAM("event consumer requires a handler");
}

corba::Value EventConsumerServant::dispatch(std::string_view op,
                                            const corba::ValueSeq& args) {
  if (op == "push") {
    check_arity(op, args, 1);
    const corba::ValueSeq& batch = args[0].as_sequence();
    std::vector<Event> events;
    events.reserve(batch.size());
    for (const corba::Value& v : batch) events.push_back(event_from_value(v));
    handler_(std::move(events));
    return corba::Value();
  }
  throw corba::BAD_OPERATION(std::string(op));
}

corba::Value HealthReport::to_value() const {
  corba::ValueSeq fields;
  fields.emplace_back(host);
  fields.emplace_back(now);
  fields.emplace_back(report_age);
  fields.emplace_back(load_index);
  fields.emplace_back(quarantined);
  fields.emplace_back(dispatch_queue_depth);
  fields.emplace_back(rpcs);
  fields.emplace_back(rpc_p50);
  fields.emplace_back(rpc_p99);
  fields.emplace_back(recoveries);
  fields.emplace_back(checkpoints);
  fields.emplace_back(checkpoint_bytes);
  fields.emplace_back(flight_recorded);
  fields.emplace_back(auto_dumps);
  fields.emplace_back(sessions_active);
  fields.emplace_back(session_resumes);
  fields.emplace_back(session_retransmits);
  fields.emplace_back(tcp_connections);
  return corba::Value(std::move(fields));
}

HealthReport HealthReport::from_value(const corba::Value& value) {
  const corba::ValueSeq& fields = value.as_sequence();
  if (fields.size() < 18)
    throw corba::BAD_PARAM("malformed health report: " +
                           std::to_string(fields.size()) + " fields");
  HealthReport report;
  report.host = fields[0].as_string();
  report.now = fields[1].as_f64();
  report.report_age = fields[2].as_f64();
  report.load_index = fields[3].as_f64();
  report.quarantined = fields[4].as_u64();
  report.dispatch_queue_depth = fields[5].as_u64();
  report.rpcs = fields[6].as_u64();
  report.rpc_p50 = fields[7].as_f64();
  report.rpc_p99 = fields[8].as_f64();
  report.recoveries = fields[9].as_u64();
  report.checkpoints = fields[10].as_u64();
  report.checkpoint_bytes = fields[11].as_u64();
  report.flight_recorded = fields[12].as_u64();
  report.auto_dumps = fields[13].as_u64();
  report.sessions_active = fields[14].as_u64();
  report.session_resumes = fields[15].as_u64();
  report.session_retransmits = fields[16].as_u64();
  report.tcp_connections = fields[17].as_u64();
  return report;
}

TelemetryServant::TelemetryServant(TelemetryOptions options)
    : options_(std::move(options)) {
  if (options_.metrics_epoch > 0) {
    metrics_publisher_ = std::make_unique<MetricsDeltaPublisher>(
        MetricsDeltaPublisher::Options{options_.host, options_.metrics_epoch,
                                       nullptr});
    metrics_publisher_->start_threaded();
  }
  if (options_.trace_sample_n > 0) {
    SpanExporter::Options exporter;
    exporter.host = options_.host;
    exporter.sample_n = options_.trace_sample_n;
    span_exporter_ = std::make_unique<SpanExporter>(std::move(exporter));
    span_exporter_->install();
  }
}

TelemetryServant::~TelemetryServant() {
  if (metrics_publisher_) metrics_publisher_->stop();
  if (span_exporter_) span_exporter_->uninstall();
}

HealthReport TelemetryServant::health() const {
  HealthReport report;
  report.host = options_.host;
  report.now = now();
  if (options_.report_age) report.report_age = options_.report_age();
  if (options_.load_index) report.load_index = options_.load_index();
  if (options_.quarantined) report.quarantined = options_.quarantined();
  if (options_.dispatch_queue_depth)
    report.dispatch_queue_depth = options_.dispatch_queue_depth();

  // Metric-derived fields read the handles directly (get-or-create is cheap
  // and the names are this repo's stable taxonomy, DESIGN.md
  // "Observability") — orbtop never has to parse an exporter format.
  MetricsRegistry& registry = MetricsRegistry::global();
  report.rpcs = registry.counter("orb.requests_total").value();
  const Histogram::Snapshot latency =
      registry.histogram("orb.request_latency_s").snapshot();
  report.rpc_p50 = latency.quantile(0.5);
  report.rpc_p99 = latency.quantile(0.99);
  report.recoveries = registry.counter("ft.proxy.recoveries_total").value();
  report.checkpoints = registry.counter("ft.pipeline.stores_total").value();
  report.checkpoint_bytes =
      registry.counter("ft.pipeline.bytes_shipped_total").value();
  report.flight_recorded = FlightRecorder::global().recorded();
  report.auto_dumps = FlightRecorder::global().auto_dumps();
  const double active = registry.gauge("transport.session.active").value();
  report.sessions_active =
      active > 0 ? static_cast<std::uint64_t>(active) : 0;
  report.session_resumes =
      registry.counter("transport.session.resumes_total").value();
  report.session_retransmits =
      registry.counter("transport.session.retransmitted_frames_total").value() +
      registry.counter("transport.session.replayed_replies_total").value();
  const double connections = registry.gauge("transport.tcp.connections").value();
  report.tcp_connections =
      connections > 0 ? static_cast<std::uint64_t>(connections) : 0;
  return report;
}

corba::Value TelemetryServant::dispatch(std::string_view op,
                                        const corba::ValueSeq& args) {
  if (op == "health") {
    check_arity(op, args, 0);
    return health().to_value();
  }
  if (op == "subscribe") return subscribe(args);
  if (op == "unsubscribe") {
    check_arity(op, args, 1);
    return corba::Value(EventChannel::global().unsubscribe(args[0].as_u64()));
  }
  throw corba::BAD_OPERATION(std::string(op));
}

corba::Value TelemetryServant::subscribe(const corba::ValueSeq& args) {
  check_arity("subscribe", args, 5);
  auto orb = options_.orb.lock();
  if (!orb)
    throw corba::BAD_INV_ORDER("telemetry servant has no ORB for push");
  EventChannel& channel = EventChannel::global();
  if (!channel.bound())
    throw corba::BAD_INV_ORDER(
        "no event channel bound on this node; poll instead");

  const corba::ObjectRef consumer =
      corba::ObjectRef::from_value(orb, args[0]);
  SubscribeOptions options;
  for (const corba::Value& tv : args[1].as_sequence()) {
    const auto topic = parse_topic(tv.as_string());
    if (!topic) throw corba::BAD_PARAM("unknown topic: " + tv.as_string());
    options.topics.push_back(*topic);
  }
  if (const std::uint64_t limit = args[2].as_u64(); limit > 0)
    options.queue_limit = static_cast<std::size_t>(limit);
  const std::string& policy = args[3].as_string();
  if (policy == "drop_oldest")
    options.policy = OverflowPolicy::drop_oldest;
  else if (policy == "coalesce_by_key")
    options.policy = OverflowPolicy::coalesce_by_key;
  else if (!policy.empty())
    throw corba::BAD_PARAM("unknown overflow policy: " + policy);
  options.delivery_interval = args[4].as_f64();
  // The stringified IOR identifies the consumer across servants: N sim
  // nodes share one process-wide channel, and orbtop subscribing through
  // each node's servant must still receive every event exactly once.
  options.consumer_id = orb->object_to_string(consumer);

  const std::uint64_t id = channel.subscribe(
      std::move(options), [consumer](std::span<const Event> batch) {
        corba::ValueSeq encoded;
        encoded.reserve(batch.size());
        for (const Event& event : batch)
          encoded.push_back(event_to_value(event));
        // Oneway: the publisher side never blocks on a consumer's reply.  A
        // dead consumer throws here; three consecutive failures and the
        // channel drops the subscription.  Span export is suppressed for the
        // duration: pushing a batch of trace.span events creates rpc/
        // transport spans of its own, and exporting those would feed the
        // channel its own exhaust forever.
        ExportSuppressScope suppress;
        consumer.invoke_oneway("push",
                               {corba::Value(std::move(encoded))});
      });
  return corba::Value(id);
}

HealthReport TelemetryStub::health() const {
  return HealthReport::from_value(call("health", {}));
}

std::uint64_t TelemetryStub::subscribe_events(
    const corba::ObjectRef& consumer, const std::vector<std::string>& topics,
    std::uint64_t queue_limit, const std::string& policy,
    double delivery_interval) const {
  corba::ValueSeq topic_values;
  topic_values.reserve(topics.size());
  for (const std::string& topic : topics) topic_values.emplace_back(topic);
  return call("subscribe",
              {consumer.to_value(), corba::Value(std::move(topic_values)),
               corba::Value(queue_limit), corba::Value(policy),
               corba::Value(delivery_interval)})
      .as_u64();
}

bool TelemetryStub::unsubscribe_events(std::uint64_t id) const {
  return call("unsubscribe", {corba::Value(id)}).as_bool();
}

corba::ObjectRef install_telemetry(const std::shared_ptr<corba::ORB>& orb,
                                   naming::NamingContext& root,
                                   TelemetryOptions options) {
  const std::string host = options.host;
  if (host.empty()) throw corba::BAD_PARAM("telemetry requires a host name");
  options.orb = orb;
  // A TCP deployment has no simulator to bind the channel; open it here in
  // worker mode so subscribe() works out of the box.  A SimRuntime binds
  // first (virtual-clock defer executor) and this leaves it alone.
  if (!EventChannel::global().bound()) EventChannel::global().bind({});
  auto servant = std::make_shared<TelemetryServant>(std::move(options));
  const corba::ObjectRef ref = orb->activate(servant, "Telemetry");

  naming::Name context_name;
  context_name.append(std::string(naming::kObsContextId));
  try {
    root.bind_new_context(context_name);
  } catch (const naming::AlreadyBound&) {
    // Another node created the reserved context first.
  }
  naming::Name binding = context_name;
  binding.append(host);
  // rebind: a node restarting after a crash replaces its stale registration.
  root.rebind(binding, ref);
  return ref;
}

}  // namespace obs
