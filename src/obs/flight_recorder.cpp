#include "obs/flight_recorder.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/event_channel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace obs {

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

std::string format_time(double t) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.9f", t);
  return buf;
}

std::string format_trace(std::uint64_t id) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(id));
  return buf;
}

constexpr bool carries_detail(FlightEvent type) noexcept {
  return type == FlightEvent::recovery_step ||
         type == FlightEvent::quarantine_trip ||
         type == FlightEvent::quarantine_release ||
         type == FlightEvent::fault_confirmed;
}

using PackedText =
    std::array<std::atomic<std::uint64_t>, FlightRecorder::kSubjectCapacity / 8>;

void pack(PackedText& words, std::string_view text) noexcept {
  for (std::size_t word = 0; word < words.size(); ++word) {
    std::uint64_t packed = 0;
    for (std::size_t i = 0; i < 8; ++i) {
      const std::size_t pos = word * 8 + i;
      if (pos < text.size())
        packed |= static_cast<std::uint64_t>(
                      static_cast<unsigned char>(text[pos]))
                  << (8 * i);
    }
    words[word].store(packed, std::memory_order_relaxed);
  }
}

std::string unpack(const PackedText& words) {
  char chars[FlightRecorder::kSubjectCapacity];
  for (std::size_t word = 0; word < words.size(); ++word) {
    const std::uint64_t packed = words[word].load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < 8; ++i)
      chars[word * 8 + i] = static_cast<char>((packed >> (8 * i)) & 0xff);
  }
  std::size_t len = 0;
  while (len < sizeof(chars) && chars[len] != '\0') ++len;
  return std::string(chars, len);
}

// One ring event as a `flight.event` channel event: the shape both the live
// report and the dump replay publish, so a consumer can tell a replayed
// event from a new one by (index, type, subject, at).
void publish(const FlightRecorder::Event& e, std::string_view reason) {
  publish_event(
      Topic::flight_event, /*host=*/"", /*key=*/to_string(e.type),
      {str_field("reason", std::string(reason)),
       str_field("type", std::string(to_string(e.type))),
       str_field("subject", e.subject), int_field("a", e.a),
       int_field("b", e.b), num_field("at", e.t), int_field("index", e.index),
       int_field("trace", e.trace_id), str_field("detail", e.detail)});
}

std::string_view step_name(std::uint64_t step) noexcept {
  // Indexed by RecoveryStep code.
  constexpr std::string_view kNames[] = {
      "unknown",         "failure",         "recover",
      "rebound",         "exhausted",       "batched_reissue",
      "resume_fallback", "deadline_exhausted",
      "backoff",         "reresolved",      "factory_created",
      "restored",        "recovery_failed", "checkpoint_failed"};
  return step < std::size(kNames) ? kNames[step] : kNames[0];
}

}  // namespace

std::string_view to_string(FlightEvent type) noexcept {
  switch (type) {
    case FlightEvent::rpc_start: return "rpc_start";
    case FlightEvent::rpc_end: return "rpc_end";
    case FlightEvent::recovery_step: return "recovery_step";
    case FlightEvent::quarantine_trip: return "quarantine_trip";
    case FlightEvent::checkpoint_ship: return "checkpoint_ship";
    case FlightEvent::dispatch_depth: return "dispatch_depth";
    case FlightEvent::conn_open: return "conn_open";
    case FlightEvent::conn_close: return "conn_close";
    case FlightEvent::conn_evict: return "conn_evict";
    case FlightEvent::session_resume: return "session_resume";
    case FlightEvent::delta_fallback: return "delta_fallback";
    case FlightEvent::shard_failover: return "shard_failover";
    case FlightEvent::quarantine_release: return "quarantine_release";
    case FlightEvent::fault_confirmed: return "fault_confirmed";
    case FlightEvent::checkpoint_drop: return "checkpoint_drop";
  }
  return "unknown";
}

std::string describe_flight_event(std::string_view type,
                                  std::string_view subject, std::uint64_t a,
                                  std::uint64_t b, std::string_view detail) {
  std::string out = std::string(type) + " " + std::string(subject) + " a=";
  out += type == to_string(FlightEvent::recovery_step) ? std::string(step_name(a))
                                                      : std::to_string(a);
  out += " b=" + std::to_string(b);
  if (!detail.empty()) out += " detail=" + std::string(detail);
  return out;
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(round_up_pow2(capacity < 2 ? 2 : capacity)),
      mask_(capacity_ - 1),
      slots_(std::make_unique<Slot[]>(capacity_)) {}

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder recorder;
  return recorder;
}

void FlightRecorder::record(FlightEvent type, std::string_view subject,
                            std::uint64_t a, std::uint64_t b) noexcept {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  // The ambient trace context tags the event (0 when untraced), so a
  // postmortem can join the ring with an assembled trace by id.
  append(now(), type, subject, a, b, current_trace().trace_id, {});
}

void FlightRecorder::report(FlightEvent type, std::string_view subject,
                            std::uint64_t a, std::uint64_t b,
                            std::string_view detail) noexcept {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  const double t = now();
  const std::uint64_t trace = current_trace().trace_id;
  const std::uint64_t index = append(t, type, subject, a, b, trace, detail);
  if (!events_wanted()) return;
  try {
    // Published as the ring will render it, truncation included, so the
    // live event and a later dump's replay of it carry equal fields.
    publish(Event{t, type, std::string(subject.substr(0, kSubjectCapacity)), a,
                  b, index, trace,
                  std::string(carries_detail(type)
                                  ? detail.substr(0, kSubjectCapacity)
                                  : std::string_view())},
            "live");
  } catch (...) {
    // Publication failing must never break the recovery path reporting it.
  }
}

std::uint64_t FlightRecorder::append(double t, FlightEvent type,
                                     std::string_view subject, std::uint64_t a,
                                     std::uint64_t b, std::uint64_t trace,
                                     std::string_view detail) noexcept {
  const std::uint64_t index = cursor_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[index & mask_];
  // Invalidate first so a reader racing this overwrite never pairs the old
  // sequence with new payload words.
  slot.seq.store(0, std::memory_order_release);
  slot.t.store(t, std::memory_order_relaxed);
  slot.type.store(static_cast<std::uint16_t>(type), std::memory_order_relaxed);
  slot.a.store(a, std::memory_order_relaxed);
  slot.b.store(b, std::memory_order_relaxed);
  slot.trace.store(trace, std::memory_order_relaxed);
  pack(slot.subject, subject);
  // Readers decode `detail` only for the types that carry one, so the other
  // types leave a reused slot's stale words in place.
  if (carries_detail(type)) pack(slot.detail, detail);
  slot.seq.store(index + 1, std::memory_order_release);
  return index;
}

void FlightRecorder::clear() noexcept {
  // Not atomic with respect to concurrent writers; callers clear between
  // runs, not mid-traffic.  Slots are invalidated before the cursor resets
  // so a reader never resurrects a pre-clear event.
  for (std::size_t i = 0; i < capacity_; ++i)
    slots_[i].seq.store(0, std::memory_order_release);
  cursor_.store(0, std::memory_order_release);
}

std::vector<FlightRecorder::Event> FlightRecorder::events() const {
  const std::uint64_t end = cursor_.load(std::memory_order_acquire);
  const std::uint64_t begin = end > capacity_ ? end - capacity_ : 0;
  std::vector<Event> out;
  out.reserve(static_cast<std::size_t>(end - begin));
  // Newest-first: a concurrent writer overwrites the ring oldest-first, so
  // walking in its direction lets a fast writer tear every slot before the
  // reader reaches it; walking against it reads the newest events first.
  for (std::uint64_t index = end; index-- > begin;) {
    const Slot& slot = slots_[index & mask_];
    if (slot.seq.load(std::memory_order_acquire) != index + 1) continue;
    Event event;
    event.index = index;
    event.t = slot.t.load(std::memory_order_relaxed);
    event.type =
        static_cast<FlightEvent>(slot.type.load(std::memory_order_relaxed));
    event.a = slot.a.load(std::memory_order_relaxed);
    event.b = slot.b.load(std::memory_order_relaxed);
    event.trace_id = slot.trace.load(std::memory_order_relaxed);
    event.subject = unpack(slot.subject);
    if (carries_detail(event.type)) event.detail = unpack(slot.detail);
    // Re-check: if a writer lapped us mid-read the payload is torn.
    if (slot.seq.load(std::memory_order_acquire) != index + 1) continue;
    out.push_back(std::move(event));
  }
  std::reverse(out.begin(), out.end());
  return out;
}

std::string FlightRecorder::to_text() const {
  const std::vector<Event> all = events();
  std::string out = "flight-recorder: " + std::to_string(recorded()) +
                    " events recorded, " + std::to_string(all.size()) +
                    " retained (capacity " + std::to_string(capacity_) + ")\n";
  for (const Event& e : all) {
    out += "[" + format_time(e.t) + "] #" + std::to_string(e.index) + " " +
           describe_flight_event(to_string(e.type), e.subject, e.a, e.b,
                                 e.detail);
    // Only traced events carry the suffix: untraced runs keep rendering the
    // exact pre-trace-tagging lines (old dumps diff clean).
    if (e.trace_id != 0) out += " trace=" + format_trace(e.trace_id);
    out += "\n";
  }
  return out;
}

void FlightRecorder::auto_dump(std::string_view reason) noexcept {
  auto_dumps_.fetch_add(1, std::memory_order_relaxed);
  static obs::Counter& dumps = obs::MetricsRegistry::global().counter(
      "obs.flight_recorder.auto_dumps_total");
  dumps.inc();
  try {
    dump_to_events(reason);
  } catch (...) {
    // Event publication failing must never break the (already failing) path
    // that triggered the dump.
  }
}

void FlightRecorder::dump_to_events(std::string_view reason) {
  // Guard against publish -> subscriber overflow -> auto_dump recursion: a
  // dump already on this thread's stack means the ring is being published
  // right now, and publishing it twice adds nothing.
  thread_local bool dumping = false;
  if (dumping || !events_wanted()) return;
  dumping = true;
  struct Reset {
    bool& flag;
    ~Reset() { flag = false; }
  } reset{dumping};

  static obs::Counter& event_dumps = obs::MetricsRegistry::global().counter(
      "obs.flight.event_dumps_total");
  event_dumps.inc();
  for (const Event& e : events()) publish(e, reason);
}

void flight_auto_dump(std::string_view reason) noexcept {
  FlightRecorder::global().auto_dump(reason);
}

}  // namespace obs
