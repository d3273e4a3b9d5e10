// Naming context servant: the server-side implementation of the (load
// distributing) naming service.
//
// One servant holds the bindings of one context; sub-contexts created with
// bind_new_context are further servants on the same ORB, so a whole naming
// graph lives in one "naming server process" — the usual CosNaming
// deployment.  The OMG specifies only the interface, which is what lets the
// paper swap in a load-distributing implementation without touching any
// client or ORB (§2); the same servant here covers both roles, configured by
// NamingContextOptions.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <variant>

#include "naming/naming.hpp"
#include "winner/load_info.hpp"

namespace naming {

struct NamingContextOptions {
  /// Strategy used by plain resolve() when a name holds multiple offers.
  ResolveStrategy default_strategy = ResolveStrategy::first;

  /// Winner system manager consulted by the `winner` strategy.  May be the
  /// in-process SystemManager or a SystemManagerStub.
  std::shared_ptr<winner::LoadInformationService> winner;

  /// Seed for the `random` strategy (deterministic experiments).
  std::uint64_t random_seed = 1;

  /// When the Winner manager is unreachable or knows no fresh host, fall
  /// back to round-robin instead of failing the resolve.  This implements
  /// the paper's "worst case: at least the same results as the unmodified
  /// naming service".
  bool winner_fallback = true;

  /// Report each winner-strategy selection back via notify_placement so
  /// consecutive resolves spread across machines.
  bool notify_placements = true;

  /// Consulted on every offer selection: return false to exclude an offer
  /// from resolution (the ft layer wires its quarantine breaker in here —
  /// a std::function keeps naming free of an ft dependency).  Excluded
  /// offers stay bound and visible through list_offers, so health probes
  /// can still reach them.  When every offer of a name is excluded the
  /// resolve throws NotFound, which sends recovering proxies to their
  /// factory fallback instead of a known-bad instance.
  std::function<bool(const Name&, const Offer&)> offer_filter;
};

class NamingContextServant final
    : public corba::Servant,
      public NamingContext,
      public std::enable_shared_from_this<NamingContextServant> {
 public:
  /// Creates and activates a root context on `orb`.
  static std::pair<std::shared_ptr<NamingContextServant>, corba::ObjectRef>
  create_root(const std::shared_ptr<corba::ORB>& orb,
              NamingContextOptions options = {});

  // --- corba::Servant ------------------------------------------------------
  std::string_view repo_id() const noexcept override {
    return kNamingContextRepoId;
  }
  corba::Value dispatch(std::string_view op,
                        const corba::ValueSeq& args) override;
  /// Only while options.winner is null or an in-process SystemManager.
  bool non_blocking() const noexcept override;

  // --- NamingContext -------------------------------------------------------
  void bind(const Name& name, const corba::ObjectRef& obj) override;
  void rebind(const Name& name, const corba::ObjectRef& obj) override;
  corba::ObjectRef resolve(const Name& name) override;
  void unbind(const Name& name) override;
  corba::ObjectRef bind_new_context(const Name& name) override;
  std::vector<Binding> list() override;
  void bind_offer(const Name& name, const corba::ObjectRef& obj,
                  const std::string& host) override;
  void unbind_offer(const Name& name, const std::string& host) override;
  std::vector<Offer> list_offers(const Name& name) override;
  corba::ObjectRef resolve_with(const Name& name,
                                ResolveStrategy strategy) override;

  /// Reference of this context (valid after create_root / bind_new_context).
  const corba::ObjectRef& self_ref() const noexcept { return self_; }

  // --- persistence (§5 (a): "stabilizing the prototype") -------------------
  // The whole context tree serializes to a blob.  The servant also answers
  // the _get_state/_set_state protocol with it (implemented directly to
  // avoid a layering cycle with src/ft), so the naming service itself can
  // be covered by the paper's own checkpoint/restart fault tolerance.
  /// Serializes this context and every sub-context (bindings, offers).
  corba::Blob get_state();
  /// Replaces all bindings with a previously serialized tree; sub-context
  /// servants are re-created on this servant's ORB.
  void set_state(const corba::Blob& state);

  /// File-backed convenience wrappers around get_state/set_state.
  void save_snapshot(const std::filesystem::path& path);
  void load_snapshot(const std::filesystem::path& path);

 private:
  struct ObjectEntry {
    corba::ObjectRef ref;
  };
  struct ContextEntry {
    std::shared_ptr<NamingContextServant> servant;
    corba::ObjectRef ref;
  };
  struct OfferEntry {
    std::vector<Offer> offers;
    std::size_t round_robin_next = 0;
    /// Winner-ranked host order cached between load-report epochs.  Valid
    /// only while the manager's load_epoch() still equals rank_epoch; any
    /// bind_offer/unbind_offer on this name also invalidates it.
    std::vector<std::string> ranked_hosts;
    std::uint64_t rank_epoch = 0;
    bool rank_valid = false;
  };
  using Entry = std::variant<ObjectEntry, ContextEntry, OfferEntry>;
  using Key = std::pair<std::string, std::string>;  // (id, kind)

  explicit NamingContextServant(std::weak_ptr<corba::ORB> orb,
                                NamingContextOptions options);

  static Key key_of(const NameComponent& c) { return {c.id, c.kind}; }
  static void require_nonempty(const Name& name);

  /// Resolves intermediate components to the owning context of name.back().
  /// Returns nullptr-equivalent by throwing NotFound.
  std::shared_ptr<NamingContextServant> descend(const Name& name);

  corba::ObjectRef pick_offer(const Name& name, OfferEntry& entry,
                              ResolveStrategy strategy);

  std::weak_ptr<corba::ORB> orb_;
  NamingContextOptions options_;
  /// True for contexts bound under the reserved `_obs` prefix (directly or
  /// transitively): their offers resolve exact-match only — no Winner
  /// ranking, no rank cache, no placement notification, no offer filter.
  bool reserved_ = false;
  corba::ObjectRef self_;
  std::mutex mu_;
  std::map<Key, Entry> bindings_;
  std::mt19937_64 rng_;
};

}  // namespace naming
