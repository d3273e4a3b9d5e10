#include "naming/naming_context.hpp"

#include <algorithm>
#include <fstream>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "winner/system_manager.hpp"

namespace naming {

namespace {

corba::RegisterUserException<NotFound> register_not_found;
corba::RegisterUserException<AlreadyBound> register_already_bound;
corba::RegisterUserException<NotEmpty> register_not_empty;
corba::RegisterUserException<InvalidName> register_invalid_name;

}  // namespace

ResolveStrategy parse_strategy(std::string_view text) {
  if (text == "first") return ResolveStrategy::first;
  if (text == "round_robin") return ResolveStrategy::round_robin;
  if (text == "random") return ResolveStrategy::random;
  if (text == "winner") return ResolveStrategy::winner;
  throw corba::BAD_PARAM("unknown resolve strategy '" + std::string(text) + "'");
}

std::string_view to_string(ResolveStrategy strategy) noexcept {
  switch (strategy) {
    case ResolveStrategy::first: return "first";
    case ResolveStrategy::round_robin: return "round_robin";
    case ResolveStrategy::random: return "random";
    case ResolveStrategy::winner: return "winner";
  }
  return "first";
}

NamingContextServant::NamingContextServant(std::weak_ptr<corba::ORB> orb,
                                           NamingContextOptions options)
    : orb_(std::move(orb)),
      options_(std::move(options)),
      rng_(options_.random_seed) {}

std::pair<std::shared_ptr<NamingContextServant>, corba::ObjectRef>
NamingContextServant::create_root(const std::shared_ptr<corba::ORB>& orb,
                                  NamingContextOptions options) {
  if (!orb) throw corba::BAD_PARAM("null ORB");
  auto servant = std::shared_ptr<NamingContextServant>(
      new NamingContextServant(orb, std::move(options)));
  servant->self_ = orb->activate(servant, "NamingContext");
  return {servant, servant->self_};
}

bool NamingContextServant::non_blocking() const noexcept {
  return !options_.winner ||
         dynamic_cast<const winner::SystemManager*>(options_.winner.get());
}

void NamingContextServant::require_nonempty(const Name& name) {
  if (name.empty()) throw InvalidName("empty name");
}

std::shared_ptr<NamingContextServant> NamingContextServant::descend(
    const Name& name) {
  require_nonempty(name);
  if (name.size() == 1) return shared_from_this();
  std::shared_ptr<NamingContextServant> child;
  {
    std::lock_guard lock(mu_);
    auto it = bindings_.find(key_of(name.front()));
    if (it == bindings_.end())
      throw NotFound("missing context '" + name.front().id + "'");
    auto* context = std::get_if<ContextEntry>(&it->second);
    if (context == nullptr)
      throw NotFound("'" + name.front().id + "' is not a context");
    child = context->servant;
  }
  return child->descend(name.tail());
}

void NamingContextServant::bind(const Name& name, const corba::ObjectRef& obj) {
  auto owner = descend(name);
  if (owner.get() != this) return owner->bind(Name{name.back()}, obj);
  std::lock_guard lock(mu_);
  auto [it, inserted] = bindings_.emplace(key_of(name.back()),
                                          ObjectEntry{obj});
  if (!inserted) throw AlreadyBound("'" + name.back().id + "'");
}

void NamingContextServant::rebind(const Name& name,
                                  const corba::ObjectRef& obj) {
  auto owner = descend(name);
  if (owner.get() != this) return owner->rebind(Name{name.back()}, obj);
  std::lock_guard lock(mu_);
  bindings_[key_of(name.back())] = ObjectEntry{obj};
}

corba::ObjectRef NamingContextServant::resolve(const Name& name) {
  return resolve_with(name, options_.default_strategy);
}

corba::ObjectRef NamingContextServant::resolve_with(const Name& name,
                                                    ResolveStrategy strategy) {
  auto owner = descend(name);
  if (owner.get() != this)
    return owner->resolve_with(Name{name.back()}, strategy);
  static obs::Counter& resolves =
      obs::MetricsRegistry::global().counter("naming.resolves_total");
  resolves.inc();
  obs::Span span("naming.resolve", name.to_string());
  std::lock_guard lock(mu_);
  auto it = bindings_.find(key_of(name.back()));
  if (it == bindings_.end())
    throw NotFound("'" + name.back().id + "' is not bound");
  if (auto* object = std::get_if<ObjectEntry>(&it->second)) return object->ref;
  if (auto* context = std::get_if<ContextEntry>(&it->second))
    return context->ref;
  return pick_offer(name, std::get<OfferEntry>(it->second), strategy);
}

corba::ObjectRef NamingContextServant::pick_offer(const Name& name,
                                                  OfferEntry& entry,
                                                  ResolveStrategy strategy) {
  if (entry.offers.empty())
    throw NotFound("'" + name.back().id + "' has no offers");
  // Reserved-name guard: the `_obs` introspection subtree is exact-match
  // only.  Load balancing a telemetry lookup would answer "how is host X
  // doing" with some *other* host's telemetry, and the offer filter must not
  // apply either — a quarantined host's telemetry object is exactly what an
  // operator wants to reach.  No Winner consult, no rank cache traffic, no
  // placement notification.
  if (reserved_ || is_reserved_id(name.back().id))
    return entry.offers.front().ref;
  // Narrow to the usable candidates.  The filter never mutates the bound
  // offers — a filtered (e.g. quarantined) instance stays visible through
  // list_offers so health probes can rehabilitate it.
  std::vector<const Offer*> usable;
  usable.reserve(entry.offers.size());
  for (const Offer& offer : entry.offers)
    if (!options_.offer_filter || options_.offer_filter(name, offer))
      usable.push_back(&offer);
  if (usable.empty())
    throw NotFound("every offer of '" + name.back().id +
                   "' is filtered (quarantined)");
  switch (strategy) {
    case ResolveStrategy::first:
      return usable.front()->ref;
    case ResolveStrategy::round_robin:
      return usable[entry.round_robin_next++ % usable.size()]->ref;
    case ResolveStrategy::random:
      return usable[std::uniform_int_distribution<std::size_t>(
          0, usable.size() - 1)(rng_)]
          ->ref;
    case ResolveStrategy::winner:
      break;
  }
  // winner strategy: pick the offer on the currently best host.  The ranked
  // host order is cached per name and reused while the manager's ranking
  // inputs are unchanged (same non-zero load_epoch); the cache ranks ALL
  // bound hosts and the quarantine filter is applied at pick time, so the
  // ordering stays valid while individual offers flip in and out of the
  // usable set (a stable sort restricted to a subsequence preserves order).
  if (options_.winner) {
    static obs::Counter& cache_hits =
        obs::MetricsRegistry::global().counter("naming.rank_cache_hits_total");
    static obs::Counter& cache_misses =
        obs::MetricsRegistry::global().counter("naming.rank_cache_misses_total");
    try {
      const std::uint64_t epoch = options_.winner->load_epoch();
      const bool cacheable = epoch != 0;  // 0 = epochs not tracked
      if (cacheable && entry.rank_valid && entry.rank_epoch == epoch) {
        cache_hits.inc();
      } else {
        std::vector<std::string> hosts;
        hosts.reserve(entry.offers.size());
        for (const Offer& offer : entry.offers) hosts.push_back(offer.host);
        entry.ranked_hosts = options_.winner->rank_hosts(hosts);
        entry.rank_epoch = epoch;
        entry.rank_valid = cacheable;
        cache_misses.inc();
      }
      for (const std::string& best : entry.ranked_hosts) {
        auto it = std::find_if(usable.begin(), usable.end(),
                               [&](const Offer* o) { return o->host == best; });
        if (it == usable.end()) continue;
        if (options_.notify_placements) options_.winner->notify_placement(best);
        return (*it)->ref;
      }
      // No eligible host intersects the usable offers — same outcome
      // best_host() used to signal by throwing.
      if (!options_.winner_fallback)
        throw winner::NoHostAvailable("no registered, fresh host among " +
                                      std::to_string(usable.size()) +
                                      " usable offers");
    } catch (const winner::NoHostAvailable&) {
      if (!options_.winner_fallback) throw;
    } catch (const corba::SystemException&) {
      if (!options_.winner_fallback) throw;
    }
  } else if (!options_.winner_fallback) {
    throw corba::NO_IMPLEMENT("winner strategy without a system manager");
  }
  // Degraded mode: behave like the unmodified naming service.
  return usable[entry.round_robin_next++ % usable.size()]->ref;
}

void NamingContextServant::unbind(const Name& name) {
  auto owner = descend(name);
  if (owner.get() != this) return owner->unbind(Name{name.back()});
  std::lock_guard lock(mu_);
  if (bindings_.erase(key_of(name.back())) == 0)
    throw NotFound("'" + name.back().id + "' is not bound");
}

corba::ObjectRef NamingContextServant::bind_new_context(const Name& name) {
  auto owner = descend(name);
  if (owner.get() != this) return owner->bind_new_context(Name{name.back()});
  std::shared_ptr<corba::ORB> orb = orb_.lock();
  if (!orb)
    throw corba::OBJECT_NOT_EXIST("naming service ORB is gone");
  // Children inherit the parent's policy (and Winner connection) but get a
  // derived random stream so sibling contexts stay independent.
  NamingContextOptions child_options = options_;
  child_options.random_seed = rng_();
  auto child = std::shared_ptr<NamingContextServant>(
      new NamingContextServant(orb_, std::move(child_options)));
  // The reserved flag is hereditary: everything under `_obs` is exact-match.
  child->reserved_ = reserved_ || is_reserved_id(name.back().id);
  child->self_ = orb->activate(child, "NamingContext");
  std::lock_guard lock(mu_);
  auto [it, inserted] = bindings_.emplace(key_of(name.back()),
                                          ContextEntry{child, child->self_});
  if (!inserted) {
    orb->adapter().deactivate(child->self_.ior().key);
    throw AlreadyBound("'" + name.back().id + "'");
  }
  return child->self_;
}

std::vector<Binding> NamingContextServant::list() {
  std::lock_guard lock(mu_);
  std::vector<Binding> result;
  result.reserve(bindings_.size());
  for (const auto& [key, entry] : bindings_) {
    Binding binding;
    binding.name = Name{NameComponent{key.first, key.second}};
    binding.is_context = std::holds_alternative<ContextEntry>(entry);
    if (const auto* offers = std::get_if<OfferEntry>(&entry))
      binding.offer_count = offers->offers.size();
    result.push_back(std::move(binding));
  }
  return result;
}

void NamingContextServant::bind_offer(const Name& name,
                                      const corba::ObjectRef& obj,
                                      const std::string& host) {
  auto owner = descend(name);
  if (owner.get() != this)
    return owner->bind_offer(Name{name.back()}, obj, host);
  if (host.empty()) throw corba::BAD_PARAM("offer requires a host name");
  std::lock_guard lock(mu_);
  auto [it, inserted] =
      bindings_.emplace(key_of(name.back()), OfferEntry{});
  auto* offers = std::get_if<OfferEntry>(&it->second);
  if (offers == nullptr)
    throw AlreadyBound("'" + name.back().id + "' is bound as a plain object");
  offers->offers.push_back(Offer{obj, host});
  offers->rank_valid = false;  // membership changed; cached ranking is stale
}

void NamingContextServant::unbind_offer(const Name& name,
                                        const std::string& host) {
  auto owner = descend(name);
  if (owner.get() != this) return owner->unbind_offer(Name{name.back()}, host);
  std::lock_guard lock(mu_);
  auto it = bindings_.find(key_of(name.back()));
  if (it == bindings_.end())
    throw NotFound("'" + name.back().id + "' is not bound");
  auto* offers = std::get_if<OfferEntry>(&it->second);
  if (offers == nullptr)
    throw NotFound("'" + name.back().id + "' holds no offers");
  const std::size_t before = offers->offers.size();
  std::erase_if(offers->offers,
                [&](const Offer& o) { return o.host == host; });
  if (offers->offers.size() == before)
    throw NotFound("no offer on host '" + host + "'");
  offers->rank_valid = false;  // membership changed; cached ranking is stale
  if (offers->offers.empty()) bindings_.erase(it);
}

std::vector<Offer> NamingContextServant::list_offers(const Name& name) {
  auto owner = descend(name);
  if (owner.get() != this) return owner->list_offers(Name{name.back()});
  std::lock_guard lock(mu_);
  auto it = bindings_.find(key_of(name.back()));
  if (it == bindings_.end())
    throw NotFound("'" + name.back().id + "' is not bound");
  auto* offers = std::get_if<OfferEntry>(&it->second);
  if (offers == nullptr)
    throw NotFound("'" + name.back().id + "' holds no offers");
  return offers->offers;
}


namespace {

// Entry type tags in the serialized snapshot.
constexpr std::uint8_t kSnapObject = 0;
constexpr std::uint8_t kSnapContext = 1;
constexpr std::uint8_t kSnapOffers = 2;
constexpr std::uint32_t kSnapshotVersion = 1;

}  // namespace

corba::Blob NamingContextServant::get_state() {
  corba::CdrOutputStream out;
  out.write_u32(kSnapshotVersion);
  std::lock_guard lock(mu_);
  out.write_u32(static_cast<std::uint32_t>(bindings_.size()));
  for (const auto& [key, entry] : bindings_) {
    out.write_string(key.first);
    out.write_string(key.second);
    if (const auto* object = std::get_if<ObjectEntry>(&entry)) {
      out.write_octet(kSnapObject);
      out.write_string(object->ref.ior().to_string());
    } else if (const auto* context = std::get_if<ContextEntry>(&entry)) {
      out.write_octet(kSnapContext);
      const corba::Blob child = context->servant->get_state();
      out.write_blob(std::span<const std::byte>(child));
    } else {
      const auto& offers = std::get<OfferEntry>(entry);
      out.write_octet(kSnapOffers);
      out.write_u32(static_cast<std::uint32_t>(offers.offers.size()));
      for (const Offer& offer : offers.offers) {
        out.write_string(offer.ref.ior().to_string());
        out.write_string(offer.host);
      }
    }
  }
  return out.take_buffer();
}

void NamingContextServant::set_state(const corba::Blob& state) {
  std::shared_ptr<corba::ORB> orb = orb_.lock();
  if (!orb) throw corba::OBJECT_NOT_EXIST("naming service ORB is gone");
  corba::CdrInputStream in(state);
  const std::uint32_t version = in.read_u32();
  if (version != kSnapshotVersion)
    throw corba::MARSHAL("unsupported naming snapshot version " +
                         std::to_string(version));
  std::map<Key, Entry> restored;
  const std::uint32_t count = in.read_u32();
  for (std::uint32_t i = 0; i < count; ++i) {
    Key key;
    key.first = in.read_string();
    key.second = in.read_string();
    const std::uint8_t tag = in.read_octet();
    if (tag == kSnapObject) {
      restored.emplace(std::move(key),
                       ObjectEntry{orb->string_to_object(in.read_string())});
    } else if (tag == kSnapContext) {
      NamingContextOptions child_options = options_;
      child_options.random_seed = rng_();
      auto child = std::shared_ptr<NamingContextServant>(
          new NamingContextServant(orb_, std::move(child_options)));
      child->reserved_ = reserved_ || is_reserved_id(key.first);
      child->self_ = orb->activate(child, "NamingContext");
      const corba::Blob blob = in.read_blob();
      child->set_state(blob);
      restored.emplace(std::move(key), ContextEntry{child, child->self_});
    } else if (tag == kSnapOffers) {
      OfferEntry offers;
      const std::uint32_t offer_count = in.read_u32();
      for (std::uint32_t j = 0; j < offer_count; ++j) {
        Offer offer;
        offer.ref = orb->string_to_object(in.read_string());
        offer.host = in.read_string();
        offers.offers.push_back(std::move(offer));
      }
      restored.emplace(std::move(key), std::move(offers));
    } else {
      throw corba::MARSHAL("corrupt naming snapshot entry tag " +
                           std::to_string(tag));
    }
  }
  std::lock_guard lock(mu_);
  bindings_ = std::move(restored);
}

void NamingContextServant::save_snapshot(const std::filesystem::path& path) {
  const corba::Blob blob = get_state();
  const std::filesystem::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw corba::INTERNAL("cannot write " + tmp.string());
    out.write(reinterpret_cast<const char*>(blob.data()),
              static_cast<std::streamsize>(blob.size()));
    if (!out) throw corba::INTERNAL("short write to " + tmp.string());
  }
  std::filesystem::rename(tmp, path);
}

void NamingContextServant::load_snapshot(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw corba::INTERNAL("cannot read " + path.string());
  corba::Blob blob;
  char byte;
  while (in.get(byte)) blob.push_back(static_cast<std::byte>(byte));
  set_state(blob);
}

corba::Value NamingContextServant::dispatch(std::string_view op,
                                            const corba::ValueSeq& args) {
  std::shared_ptr<corba::ORB> orb = orb_.lock();
  if (!orb) throw corba::OBJECT_NOT_EXIST("naming service ORB is gone");
  auto ref_arg = [&](const corba::Value& v) {
    return corba::ObjectRef::from_value(orb, v);
  };
  // Checkpointable-object protocol (kept in sync with ft::kGetStateOp /
  // kSetStateOp; implemented directly to avoid a layering cycle).
  if (op == "_get_state") {
    check_arity(op, args, 0);
    return corba::Value(get_state());
  }
  if (op == "_set_state") {
    check_arity(op, args, 1);
    set_state(args[0].as_blob());
    return {};
  }
  if (op == "bind") {
    check_arity(op, args, 2);
    bind(Name::parse(args[0].as_string()), ref_arg(args[1]));
    return {};
  }
  if (op == "rebind") {
    check_arity(op, args, 2);
    rebind(Name::parse(args[0].as_string()), ref_arg(args[1]));
    return {};
  }
  if (op == "resolve") {
    check_arity(op, args, 1);
    return resolve(Name::parse(args[0].as_string())).to_value();
  }
  if (op == "resolve_with") {
    check_arity(op, args, 2);
    return resolve_with(Name::parse(args[0].as_string()),
                        parse_strategy(args[1].as_string()))
        .to_value();
  }
  if (op == "unbind") {
    check_arity(op, args, 1);
    unbind(Name::parse(args[0].as_string()));
    return {};
  }
  if (op == "bind_new_context") {
    check_arity(op, args, 1);
    return bind_new_context(Name::parse(args[0].as_string())).to_value();
  }
  if (op == "list") {
    check_arity(op, args, 0);
    corba::ValueSeq out;
    for (const Binding& binding : list()) {
      out.emplace_back(corba::ValueSeq{
          corba::Value(binding.name.to_string()),
          corba::Value(binding.is_context),
          corba::Value(static_cast<std::uint64_t>(binding.offer_count))});
    }
    return corba::Value(std::move(out));
  }
  if (op == "bind_offer") {
    check_arity(op, args, 3);
    bind_offer(Name::parse(args[0].as_string()), ref_arg(args[1]),
               args[2].as_string());
    return {};
  }
  if (op == "unbind_offer") {
    check_arity(op, args, 2);
    unbind_offer(Name::parse(args[0].as_string()), args[1].as_string());
    return {};
  }
  if (op == "list_offers") {
    check_arity(op, args, 1);
    corba::ValueSeq out;
    for (const Offer& offer : list_offers(Name::parse(args[0].as_string()))) {
      out.emplace_back(corba::ValueSeq{offer.ref.to_value(),
                                       corba::Value(offer.host)});
    }
    return corba::Value(std::move(out));
  }
  throw corba::BAD_OPERATION(std::string(op));
}

}  // namespace naming
