#include "orb/object_adapter.hpp"

#include <atomic>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "orb/exceptions.hpp"

namespace corba {

namespace {

std::uint64_t next_adapter_id() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

obs::Counter& dispatch_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("orb.dispatches_total");
  return counter;
}

// Adopts the request's wire trace context as the thread's ambient context so
// the servant-dispatch span (and any nested client calls the servant makes)
// parent under the remote caller's span; restores on scope exit.
class WireTraceScope {
 public:
  explicit WireTraceScope(const RequestMessage& request) {
    if (!obs::tracing_enabled()) return;
    if (auto wire = extract_trace_context(request)) {
      adopted_ = true;
      saved_ = obs::exchange_current_trace(*wire);
    }
  }
  ~WireTraceScope() {
    if (adopted_) obs::exchange_current_trace(saved_);
  }

 private:
  bool adopted_ = false;
  obs::TraceContext saved_;
};

}  // namespace

void Servant::check_arity(std::string_view op, const ValueSeq& args,
                          std::size_t n) {
  if (args.size() != n)
    throw BAD_PARAM(std::string(op) + ": expected " + std::to_string(n) +
                        " arguments, got " + std::to_string(args.size()),
                    minor_code::unspecified, CompletionStatus::completed_no);
}

ObjectAdapter::ObjectAdapter(EndpointProfile profile)
    : profile_(std::move(profile)),
      adapter_id_(profile_.adapter_id ? profile_.adapter_id
                                      : next_adapter_id()) {}

IOR ObjectAdapter::make_ior(const std::shared_ptr<Servant>& servant,
                            ObjectKey key) const {
  IOR ior;
  ior.type_id = std::string(servant->repo_id());
  ior.protocol = profile_.protocol;
  ior.host = profile_.host;
  ior.port = profile_.port;
  ior.key = std::move(key);
  return ior;
}

IOR ObjectAdapter::activate(std::shared_ptr<Servant> servant,
                            std::string_view name_hint) {
  if (!servant) throw BAD_PARAM("null servant");
  std::lock_guard lock(mu_);
  std::string key_text = name_hint.empty() ? "obj" : std::string(name_hint);
  key_text += "#a" + std::to_string(adapter_id_) + "." +
              std::to_string(next_key_++);
  ObjectKey key = ObjectKey::from_string(key_text);
  auto [it, inserted] = servants_.emplace(key, std::move(servant));
  if (!inserted) throw INTERNAL("generated object key collided");
  return make_ior(it->second, key);
}

IOR ObjectAdapter::activate_with_key(ObjectKey key,
                                     std::shared_ptr<Servant> servant) {
  if (!servant) throw BAD_PARAM("null servant");
  if (key.empty()) throw BAD_PARAM("empty object key");
  std::lock_guard lock(mu_);
  auto [it, inserted] = servants_.emplace(std::move(key), std::move(servant));
  if (!inserted)
    throw BAD_PARAM("object key already active: " + it->first.to_string());
  return make_ior(it->second, it->first);
}

void ObjectAdapter::deactivate(const ObjectKey& key) {
  std::lock_guard lock(mu_);
  servants_.erase(key);
}

std::shared_ptr<Servant> ObjectAdapter::find(const ObjectKey& key) const {
  std::lock_guard lock(mu_);
  auto it = servants_.find(key);
  return it == servants_.end() ? nullptr : it->second;
}

std::size_t ObjectAdapter::active_count() const {
  std::lock_guard lock(mu_);
  return servants_.size();
}

void ObjectAdapter::enable_dispatch_pool(DispatchPool::Options options) {
  std::lock_guard lock(pool_mu_);
  if (pool_) {
    if (pool_->threads() != options.threads)
      throw BAD_INV_ORDER("dispatch pool already started",
                          minor_code::unspecified,
                          CompletionStatus::completed_no);
    return;
  }
  pool_ = std::make_unique<DispatchPool>(
      options, [this](const RequestMessage& request) { return dispatch(request); });
}

void ObjectAdapter::stop_dispatch_pool() {
  std::unique_lock lock(pool_mu_);
  DispatchPool* pool = pool_.get();
  lock.unlock();
  if (pool) pool->stop();
}

ReplyMessage ObjectAdapter::dispatch(const RequestMessage& request) noexcept {
  try {
    dispatch_counter().inc();
    WireTraceScope wire_scope(request);
    obs::Span span("servant.dispatch", request.operation);
    std::shared_ptr<Servant> servant = find(request.object_key);
    if (!servant)
      throw OBJECT_NOT_EXIST("no servant for key " +
                                 request.object_key.to_string(),
                             minor_code::unspecified,
                             CompletionStatus::completed_no);
    // Implicit object operations, answered by the adapter.
    if (request.operation == "_is_a") {
      Servant::check_arity("_is_a", request.arguments, 1);
      return ReplyMessage::make_result(
          request.request_id,
          Value(request.arguments[0].as_string() == servant->repo_id()));
    }
    if (request.operation == "_interface") {
      return ReplyMessage::make_result(request.request_id,
                                       Value(std::string(servant->repo_id())));
    }
    if (request.operation == "_ping") {
      return ReplyMessage::make_result(request.request_id, Value());
    }
    Value result = servant->dispatch(request.operation, request.arguments);
    return ReplyMessage::make_result(request.request_id, std::move(result));
  } catch (const UserException& e) {
    return ReplyMessage::make_user_exception(request.request_id, e);
  } catch (const SystemException& e) {
    return ReplyMessage::make_system_exception(request.request_id, e);
  } catch (const std::exception& e) {
    return ReplyMessage::make_system_exception(
        request.request_id,
        INTERNAL(std::string("servant threw: ") + e.what(),
                 minor_code::unspecified, CompletionStatus::completed_maybe));
  } catch (...) {
    return ReplyMessage::make_system_exception(
        request.request_id,
        INTERNAL("servant threw unknown exception", minor_code::unspecified,
                 CompletionStatus::completed_maybe));
  }
}

}  // namespace corba
