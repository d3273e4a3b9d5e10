#include "winner/system_manager_corba.hpp"

#include "winner/system_manager.hpp"

namespace winner {

namespace {

corba::RegisterUserException<NoHostAvailable> register_no_host_available;

corba::Value strings_to_value(const std::vector<std::string>& names) {
  corba::ValueSeq seq;
  seq.reserve(names.size());
  for (const std::string& name : names) seq.emplace_back(name);
  return corba::Value(std::move(seq));
}

std::vector<std::string> value_to_strings(const corba::Value& v) {
  std::vector<std::string> names;
  for (const corba::Value& item : v.as_sequence())
    names.push_back(item.as_string());
  return names;
}

corba::Value strings_to_value(std::span<const std::string> names) {
  corba::ValueSeq seq;
  seq.reserve(names.size());
  for (const std::string& name : names) seq.emplace_back(name);
  return corba::Value(std::move(seq));
}

}  // namespace

SystemManagerServant::SystemManagerServant(
    std::shared_ptr<LoadInformationService> impl)
    : impl_(std::move(impl)) {
  if (!impl_) throw corba::BAD_PARAM("null SystemManager implementation");
}

bool SystemManagerServant::non_blocking() const noexcept {
  return dynamic_cast<const SystemManager*>(impl_.get()) != nullptr;
}

corba::Value SystemManagerServant::dispatch(std::string_view op,
                                            const corba::ValueSeq& args) {
  if (op == "register_host") {
    check_arity(op, args, 2);
    impl_->register_host(args[0].as_string(), args[1].as_f64());
    return {};
  }
  if (op == "report_load") {
    check_arity(op, args, 3);
    impl_->report_load(args[0].as_string(),
                       LoadSample{args[1].as_f64(), args[2].as_f64()});
    return {};
  }
  if (op == "best_host") {
    check_arity(op, args, 1);
    const auto candidates = value_to_strings(args[0]);
    return corba::Value(impl_->best_host(candidates));
  }
  if (op == "rank_hosts") {
    check_arity(op, args, 1);
    const auto candidates = value_to_strings(args[0]);
    return strings_to_value(impl_->rank_hosts(candidates));
  }
  if (op == "notify_placement") {
    check_arity(op, args, 1);
    impl_->notify_placement(args[0].as_string());
    return {};
  }
  if (op == "host_index") {
    check_arity(op, args, 1);
    return corba::Value(impl_->host_index(args[0].as_string()));
  }
  if (op == "host_speed") {
    check_arity(op, args, 1);
    return corba::Value(impl_->host_speed(args[0].as_string()));
  }
  if (op == "known_hosts") {
    check_arity(op, args, 0);
    return strings_to_value(impl_->known_hosts());
  }
  throw corba::BAD_OPERATION(std::string(op));
}

void SystemManagerStub::register_host(const std::string& name,
                                      double speed_index) {
  call("register_host", {corba::Value(name), corba::Value(speed_index)});
}

void SystemManagerStub::report_load(const std::string& name,
                                    const LoadSample& sample) {
  ref_.invoke_oneway("report_load", {corba::Value(name),
                                     corba::Value(sample.load_avg),
                                     corba::Value(sample.timestamp)});
}

std::string SystemManagerStub::best_host(
    std::span<const std::string> candidates) {
  return call("best_host", {strings_to_value(candidates)}).as_string();
}

std::vector<std::string> SystemManagerStub::rank_hosts(
    std::span<const std::string> candidates) {
  return value_to_strings(call("rank_hosts", {strings_to_value(candidates)}));
}

void SystemManagerStub::notify_placement(const std::string& host) {
  call("notify_placement", {corba::Value(host)});
}

double SystemManagerStub::host_index(const std::string& name) {
  return call("host_index", {corba::Value(name)}).as_f64();
}

double SystemManagerStub::host_speed(const std::string& name) {
  return call("host_speed", {corba::Value(name)}).as_f64();
}

std::vector<std::string> SystemManagerStub::known_hosts() {
  return value_to_strings(call("known_hosts", {}));
}

}  // namespace winner
