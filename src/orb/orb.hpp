// ORB core: the client/server bootstrap object.
//
// One ORB models one "CORBA process".  It owns an object adapter (with an
// in-process and optionally a TCP endpoint), routes outgoing requests to the
// transport selected by the target IOR, stringifies references, and keeps
// the initial-references table (`resolve_initial_references("NameService")`
// etc.), mirroring the CORBA::ORB API surface that portable applications
// use.  The simulated cluster creates one ORB per simulated workstation.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "orb/object_adapter.hpp"
#include "orb/tcp_transport.hpp"
#include "orb/transport.hpp"

namespace corba {

class ORB;

/// A typed handle to a (possibly remote) object: an IOR plus the ORB used to
/// reach it.  Copies are cheap; a default-constructed ref is nil.
class ObjectRef {
 public:
  ObjectRef() = default;
  ObjectRef(std::shared_ptr<ORB> orb, IOR ior);

  bool is_nil() const noexcept { return orb_.expired() || ior_.is_nil(); }
  const IOR& ior() const noexcept { return ior_; }
  std::shared_ptr<ORB> orb() const noexcept { return orb_.lock(); }

  /// Synchronous invocation; unwraps the reply (throwing carried exceptions).
  Value invoke(std::string_view op, ValueSeq args) const;

  /// Starts a deferred invocation (building block of the DII Request).
  std::unique_ptr<PendingReply> send(std::string_view op, ValueSeq args) const;

  /// Fire-and-forget invocation (CORBA "oneway"): no reply is expected and
  /// delivery is best-effort.  Used e.g. for periodic load reports.
  void invoke_oneway(std::string_view op, ValueSeq args) const;

  /// Remote type check (implicit _is_a operation).
  bool is_a(std::string_view repo_id) const;

  /// Liveness probe; returns false instead of throwing on COMM_FAILURE.
  bool ping() const noexcept;

  /// Tagged-value representation (stringified IOR) for passing references
  /// through requests; from_value reattaches them to a local ORB.
  Value to_value() const;
  static ObjectRef from_value(const std::shared_ptr<ORB>& orb, const Value& v);

  friend bool operator==(const ObjectRef& a, const ObjectRef& b) {
    return a.ior_ == b.ior_;
  }

 private:
  // Weak on purpose: references travel into servants, offer sets and the
  // ORB's own initial-references table — objects the ORB transitively owns.
  // A shared_ptr here would close an ownership cycle and leak every ORB
  // graph.  Whoever called ORB::init owns the ORB's lifetime; a reference
  // that outlives it degrades to nil.
  std::weak_ptr<ORB> orb_;
  IOR ior_;
};

/// Configuration for ORB::init.
struct OrbConfig {
  /// Identity of this ORB's in-process endpoint; must be unique within the
  /// network.  Also used as the default host name in minted IORs.
  std::string endpoint_name;

  /// Virtual network this ORB attaches to.  Required unless a transport
  /// override is supplied and no in-process endpoint is wanted.
  std::shared_ptr<InProcessNetwork> network{};

  /// When set, requests are routed through this transport regardless of the
  /// target protocol.  Used by the simulator to interpose virtual time and
  /// failures.
  std::shared_ptr<ClientTransport> client_transport_override{};

  /// Adapter id embedded in minted object keys.  0 draws from a
  /// process-global counter (always unique); the simulator assigns
  /// per-runtime ids instead, so repeated runs inside one process mint
  /// byte-identical keys — and therefore byte-identical messages and
  /// virtual timings (the chaos tests' trace-determinism contract).
  std::uint64_t adapter_id = 0;

  /// Enable a real TCP endpoint: `io_threads` reactor event loops receive
  /// every connection, and servants execute on the adapter's dispatch pool,
  /// so connection count costs no threads.
  bool enable_tcp = false;
  std::string tcp_host = "127.0.0.1";
  std::uint16_t tcp_port = 0;  ///< 0 selects an ephemeral port

  /// TCP client transport tuning: request timeout, idle-connection TTL, the
  /// soft socket cap and sessions (see TcpClientOptions).
  TcpClientOptions tcp_client{};

  /// Worker threads executing TCP requests (FIFO per object key; >= 1,
  /// BAD_PARAM otherwise).  Servants flagged Servant::non_blocking() run on
  /// the reactor's I/O thread instead whenever their key is idle.
  std::size_t dispatch_threads = 4;
  /// Requests queued + executing before the reactor stops reading the
  /// submitting connections (backpressure).
  std::size_t dispatch_queue_limit = 1024;

  /// Reactor event-loop threads (the whole receive-side thread budget).
  std::size_t io_threads = 2;
  /// listen(2) backlog for the server endpoint.
  int listen_backlog = 256;
  /// Harvest server connections idle for this long (seconds; 0 =
  /// never).  Must comfortably exceed the slowest expected call.
  double server_idle_timeout_s = 0;
};

/// The Object Request Broker.
class ORB : public std::enable_shared_from_this<ORB> {
 public:
  /// Creates and starts an ORB.  With enable_tcp the server endpoint is
  /// listening when init returns (query the bound port via tcp_port()).
  static std::shared_ptr<ORB> init(OrbConfig config);

  ~ORB();
  ORB(const ORB&) = delete;
  ORB& operator=(const ORB&) = delete;

  /// Stops the TCP endpoint and detaches from the in-process network.
  /// Idempotent.
  void shutdown();

  ObjectAdapter& adapter() noexcept { return *adapter_; }
  const std::string& endpoint_name() const noexcept {
    return config_.endpoint_name;
  }
  /// Bound TCP port (0 when TCP is disabled).
  std::uint16_t tcp_port() const noexcept;

  /// Activates a servant and returns a typed reference to it.
  ObjectRef activate(std::shared_ptr<Servant> servant,
                     std::string_view name_hint = {});

  /// Wraps an IOR into a reference bound to this ORB.
  ObjectRef make_ref(IOR ior);

  // --- client-side entry points used by ObjectRef/stubs -------------------
  std::unique_ptr<PendingReply> send(const IOR& target, std::string_view op,
                                     ValueSeq args);
  Value invoke(const IOR& target, std::string_view op, ValueSeq args);
  void send_oneway(const IOR& target, std::string_view op, ValueSeq args);

  // --- stringified references ---------------------------------------------
  std::string object_to_string(const ObjectRef& ref) const;
  ObjectRef string_to_object(std::string_view ior_string);

  // --- initial references --------------------------------------------------
  void register_initial_reference(const std::string& name, ObjectRef ref);
  /// Throws INV_OBJREF when the name is unknown.
  ObjectRef resolve_initial_references(const std::string& name);
  std::vector<std::string> list_initial_services() const;

 private:
  explicit ORB(OrbConfig config);
  void start();
  ClientTransport& transport_for(const IOR& target);

  OrbConfig config_;
  std::shared_ptr<ObjectAdapter> adapter_;
  std::shared_ptr<InProcessTransport> inproc_transport_;
  std::shared_ptr<ClientTransport> tcp_transport_;
  std::unique_ptr<TcpServerEndpoint> tcp_server_;
  std::atomic<std::uint64_t> next_request_id_{1};
  mutable std::mutex initial_refs_mu_;
  std::map<std::string, ObjectRef> initial_refs_;
  std::atomic<bool> shut_down_{false};
};

}  // namespace corba
