// CORBA skeleton and stub for the Winner system manager, making it a
// regular object service: node managers report through the ORB (oneway) and
// any naming service or tool can query rankings remotely, exactly as in the
// paper's Fig. 1 deployment.
#pragma once

#include <memory>

#include "orb/object_adapter.hpp"
#include "orb/stub.hpp"
#include "winner/load_info.hpp"

namespace winner {

/// Server-side adapter exposing a LoadInformationService implementation.
class SystemManagerServant final : public corba::Servant {
 public:
  explicit SystemManagerServant(std::shared_ptr<LoadInformationService> impl);

  std::string_view repo_id() const noexcept override {
    return kSystemManagerRepoId;
  }
  corba::Value dispatch(std::string_view op,
                        const corba::ValueSeq& args) override;
  /// Only over an in-process SystemManager (stubs and meta managers call out).
  bool non_blocking() const noexcept override;

 private:
  std::shared_ptr<LoadInformationService> impl_;
};

/// Client-side stub implementing the same interface over the wire.
class SystemManagerStub final : public corba::StubBase,
                                public LoadInformationService {
 public:
  SystemManagerStub() = default;
  explicit SystemManagerStub(corba::ObjectRef ref)
      : StubBase(std::move(ref)) {}

  void register_host(const std::string& name, double speed_index) override;
  /// Delivered as a CORBA oneway: best-effort, non-blocking.
  void report_load(const std::string& name, const LoadSample& sample) override;
  std::string best_host(std::span<const std::string> candidates) override;
  std::vector<std::string> rank_hosts(
      std::span<const std::string> candidates) override;
  void notify_placement(const std::string& host) override;
  double host_index(const std::string& name) override;
  double host_speed(const std::string& name) override;
  std::vector<std::string> known_hosts() override;
};

}  // namespace winner
