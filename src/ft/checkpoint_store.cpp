#include "ft/checkpoint_store.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>

#include "ft/delta.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/work_meter.hpp"

namespace ft {

namespace {

corba::RegisterUserException<NoCheckpoint> register_no_checkpoint;

obs::Histogram& fsync_latency() {
  static obs::Histogram& histogram =
      obs::MetricsRegistry::global().histogram("ft.store.fsync_latency_s");
  return histogram;
}

}  // namespace

void CheckpointStoreClient::store_delta(const std::string& key,
                                        std::uint64_t base_version,
                                        std::uint64_t version,
                                        const corba::Blob& delta) {
  // Fallback for backends without native delta support: materialize locally
  // and forward as a full store.  Correctness is identical; only the wire /
  // storage savings are lost.
  const auto current = load(key);
  if (!current)
    throw corba::BAD_PARAM("delta without base checkpoint for key '" + key +
                           "'");
  if (current->version != base_version)
    throw_base_mismatch(base_version, current->version);
  store(key, version, StateDelta::decode(delta).apply(current->state));
}

std::uint64_t CheckpointStoreClient::head_version(const std::string& key) {
  const auto current = load(key);
  return current ? current->version : 0;
}

CheckpointLog CheckpointStoreClient::fetch_log(const std::string& key,
                                               std::uint64_t since) {
  CheckpointLog log;
  const auto current = load(key);
  if (!current || current->version == since) return log;
  log.has_base = true;
  log.base_version = current->version;
  log.base = current->state;
  return log;
}

MemoryCheckpointStore::MemoryCheckpointStore(CostModel cost, DeltaPolicy delta)
    : cost_(cost), delta_policy_(delta) {}

void MemoryCheckpointStore::store(const std::string& key, std::uint64_t version,
                                  const corba::Blob& state) {
  sim::WorkMeter::charge(cost_.work_per_store +
                         cost_.work_per_byte * static_cast<double>(state.size()));
  // Copy outside the lock so the critical section is a move-assign, not a
  // potentially large allocation + memcpy.
  corba::Blob copy = state;
  std::lock_guard lock(mu_);
  auto it = checkpoints_.find(key);
  if (it == checkpoints_.end())
    it = checkpoints_.emplace(key, SegmentLog(delta_policy_)).first;
  it->second.put_full(version, std::move(copy));
  ++store_count_;
}

void MemoryCheckpointStore::store_delta(const std::string& key,
                                        std::uint64_t base_version,
                                        std::uint64_t version,
                                        const corba::Blob& delta) {
  // Only the shipped delta bytes are charged — this is the whole point of
  // incremental checkpointing and what the Table 1 experiment measures.
  sim::WorkMeter::charge(cost_.work_per_store +
                         cost_.work_per_byte * static_cast<double>(delta.size()));
  corba::Blob copy = delta;
  std::lock_guard lock(mu_);
  auto it = checkpoints_.find(key);
  if (it == checkpoints_.end())
    throw corba::BAD_PARAM("delta without base checkpoint for key '" + key +
                           "'");
  if (it->second.append_delta(base_version, version, std::move(copy)))
    ++compaction_count_;
  ++delta_store_count_;
}

std::optional<Checkpoint> MemoryCheckpointStore::load(const std::string& key) {
  std::optional<Checkpoint> result;
  {
    std::lock_guard lock(mu_);
    auto it = checkpoints_.find(key);
    if (it == checkpoints_.end()) return std::nullopt;
    result = Checkpoint{it->second.version(), it->second.materialize()};
    ++load_count_;
  }
  // Charge the simulated cost after dropping mu_: WorkMeter::charge may pump
  // the virtual clock, and nothing after this point touches shared state.
  sim::WorkMeter::charge(cost_.work_per_store +
                         cost_.work_per_byte *
                             static_cast<double>(result->state.size()));
  return result;
}

void MemoryCheckpointStore::remove(const std::string& key) {
  std::lock_guard lock(mu_);
  checkpoints_.erase(key);
}

std::vector<std::string> MemoryCheckpointStore::keys() {
  std::lock_guard lock(mu_);
  std::vector<std::string> result;
  result.reserve(checkpoints_.size());
  for (const auto& [key, checkpoint] : checkpoints_) result.push_back(key);
  return result;
}

std::uint64_t MemoryCheckpointStore::head_version(const std::string& key) {
  std::lock_guard lock(mu_);
  auto it = checkpoints_.find(key);
  return it == checkpoints_.end() ? 0 : it->second.version();
}

CheckpointLog MemoryCheckpointStore::fetch_log(const std::string& key,
                                               std::uint64_t since) {
  std::lock_guard lock(mu_);
  auto it = checkpoints_.find(key);
  if (it == checkpoints_.end()) return {};
  return it->second.log_since(since);
}

std::uint64_t MemoryCheckpointStore::stores() const {
  std::lock_guard lock(mu_);
  return store_count_;
}

std::uint64_t MemoryCheckpointStore::loads() const {
  std::lock_guard lock(mu_);
  return load_count_;
}

std::uint64_t MemoryCheckpointStore::delta_stores() const {
  std::lock_guard lock(mu_);
  return delta_store_count_;
}

std::uint64_t MemoryCheckpointStore::compactions() const {
  std::lock_guard lock(mu_);
  return compaction_count_;
}

std::string_view to_string(FsyncMode mode) noexcept {
  switch (mode) {
    case FsyncMode::off:
      return "off";
    case FsyncMode::data:
      return "data";
    case FsyncMode::full:
      return "full";
  }
  return "unknown";
}

FileCheckpointStore::FileCheckpointStore(std::filesystem::path directory,
                                         DeltaPolicy delta, FsyncMode fsync)
    : directory_(std::move(directory)),
      delta_policy_(delta),
      fsync_mode_(fsync) {
  std::filesystem::create_directories(directory_);
}

std::string FileCheckpointStore::encoded_key(const std::string& key) const {
  // Keys may contain characters unsuitable for file names; hex-encode them.
  static constexpr char kHex[] = "0123456789abcdef";
  std::string encoded;
  encoded.reserve(key.size() * 2);
  for (unsigned char c : key) {
    encoded.push_back(kHex[c >> 4]);
    encoded.push_back(kHex[c & 0xf]);
  }
  return encoded;
}

std::filesystem::path FileCheckpointStore::path_for(const std::string& key) const {
  return directory_ / (encoded_key(key) + ".ckpt");
}

std::filesystem::path FileCheckpointStore::delta_path_for(
    const std::string& key, std::uint64_t version) const {
  return directory_ /
         (encoded_key(key) + "." + std::to_string(version) + ".dckpt");
}

void FileCheckpointStore::write_atomically(
    const std::filesystem::path& target,
    std::span<const std::byte> payload) const {
  const std::filesystem::path tmp = target.string() + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) throw corba::INTERNAL("cannot write " + tmp.string());
  std::size_t written = 0;
  while (written < payload.size()) {
    const ssize_t n = ::write(fd, payload.data() + written,
                              payload.size() - written);
    if (n < 0) {
      ::close(fd);
      throw corba::INTERNAL("short write to " + tmp.string());
    }
    written += static_cast<std::size_t>(n);
  }
  double sync_started = 0.0;
  if (fsync_mode_ != FsyncMode::off) {
    sync_started = obs::now();
    if (::fsync(fd) != 0) {
      ::close(fd);
      throw corba::INTERNAL("fsync failed for " + tmp.string());
    }
  }
  ::close(fd);
  std::filesystem::rename(tmp, target);
  if (fsync_mode_ == FsyncMode::full) {
    // Make the rename itself durable: sync the containing directory.
    const int dir_fd =
        ::open(directory_.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (dir_fd >= 0) {
      ::fsync(dir_fd);
      ::close(dir_fd);
    }
  }
  if (fsync_mode_ != FsyncMode::off)
    fsync_latency().record(obs::now() - sync_started);
}

std::optional<Checkpoint> FileCheckpointStore::read_base(
    const std::string& key) const {
  std::ifstream in(path_for(key), std::ios::binary | std::ios::ate);
  if (!in) return std::nullopt;
  const auto size = static_cast<std::size_t>(in.tellg());
  if (size < sizeof(std::uint64_t))
    throw corba::INTERNAL("corrupt checkpoint file for key '" + key + "'");
  in.seekg(0);
  Checkpoint base;
  if (!in.read(reinterpret_cast<char*>(&base.version), sizeof(base.version)))
    throw corba::INTERNAL("corrupt checkpoint file for key '" + key + "'");
  base.state.resize(size - sizeof(std::uint64_t));
  if (!base.state.empty() &&
      !in.read(reinterpret_cast<char*>(base.state.data()),
               static_cast<std::streamsize>(base.state.size())))
    throw corba::INTERNAL("corrupt checkpoint file for key '" + key + "'");
  return base;
}

std::vector<FileCheckpointStore::DiskSegment> FileCheckpointStore::read_segments(
    const std::string& key) const {
  const std::string prefix = encoded_key(key) + ".";
  std::vector<DiskSegment> segments;
  for (const auto& entry : std::filesystem::directory_iterator(directory_)) {
    if (entry.path().extension() != ".dckpt") continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) != 0) continue;
    std::ifstream in(entry.path(), std::ios::binary | std::ios::ate);
    if (!in) continue;
    const auto size = static_cast<std::size_t>(in.tellg());
    if (size < 2 * sizeof(std::uint64_t)) continue;  // truncated: orphan
    in.seekg(0);
    DiskSegment segment;
    segment.path = entry.path();
    in.read(reinterpret_cast<char*>(&segment.segment.version),
            sizeof(segment.segment.version));
    in.read(reinterpret_cast<char*>(&segment.segment.base_version),
            sizeof(segment.segment.base_version));
    segment.segment.delta.resize(size - 2 * sizeof(std::uint64_t));
    if (!segment.segment.delta.empty())
      in.read(reinterpret_cast<char*>(segment.segment.delta.data()),
              static_cast<std::streamsize>(segment.segment.delta.size()));
    if (!in) continue;
    segments.push_back(std::move(segment));
  }
  std::sort(segments.begin(), segments.end(),
            [](const DiskSegment& a, const DiskSegment& b) {
              return a.segment.version < b.segment.version;
            });
  return segments;
}

std::optional<FileCheckpointStore::Materialized>
FileCheckpointStore::load_locked(const std::string& key) {
  auto base = read_base(key);
  if (!base) {
    // No base: any delta segments lying around (crash between base removal
    // and segment cleanup) can never apply again — discard them.
    remove_segments(key);
    return std::nullopt;
  }
  Materialized m;
  m.checkpoint = std::move(*base);
  m.base_version = m.checkpoint.version;
  m.base_size = m.checkpoint.state.size();

  // Replay the delta chain through the shared crash-recovery validation
  // (segment_log.hpp): stale leftovers and gap orphans are deleted.
  std::vector<DiskSegment> disk = read_segments(key);
  std::vector<LogSegment> candidates;
  candidates.reserve(disk.size());
  for (DiskSegment& segment : disk)
    candidates.push_back(std::move(segment.segment));
  const ChainSplit split = validate_chain(m.base_version, candidates);
  for (const std::size_t index : split.orphans) {
    std::error_code ignored;
    std::filesystem::remove(disk[index].path, ignored);
  }
  for (const std::size_t index : split.keep) {
    LogSegment& segment = candidates[index];
    m.checkpoint.state =
        StateDelta::decode(segment.delta).apply(m.checkpoint.state);
    m.checkpoint.version = segment.version;
    ++m.chain_length;
    m.chain_payload += segment.delta.size();
    m.chain.push_back(std::move(segment));
  }
  return m;
}

void FileCheckpointStore::remove_segments(const std::string& key) {
  const std::string prefix = encoded_key(key) + ".";
  std::vector<std::filesystem::path> doomed;
  for (const auto& entry : std::filesystem::directory_iterator(directory_)) {
    if (entry.path().extension() != ".dckpt") continue;
    if (entry.path().filename().string().rfind(prefix, 0) != 0) continue;
    doomed.push_back(entry.path());
  }
  for (const auto& path : doomed) {
    std::error_code ignored;
    std::filesystem::remove(path, ignored);
  }
}

void FileCheckpointStore::store(const std::string& key, std::uint64_t version,
                                const corba::Blob& state) {
  std::lock_guard lock(mu_);
  if (const auto existing = load_locked(key);
      existing && version <= existing->checkpoint.version)
    throw_stale_version(version, existing->checkpoint.version);
  corba::Blob payload(sizeof(version) + state.size());
  std::memcpy(payload.data(), &version, sizeof(version));
  if (!state.empty())
    std::memcpy(payload.data() + sizeof(version), state.data(), state.size());
  write_atomically(path_for(key), payload);
  // The new base supersedes the whole chain.
  remove_segments(key);
}

void FileCheckpointStore::store_delta(const std::string& key,
                                      std::uint64_t base_version,
                                      std::uint64_t version,
                                      const corba::Blob& delta) {
  std::lock_guard lock(mu_);
  const auto existing = load_locked(key);
  if (!existing)
    throw corba::BAD_PARAM("delta without base checkpoint for key '" + key +
                           "'");
  if (version <= existing->checkpoint.version)
    throw_stale_version(version, existing->checkpoint.version);
  if (base_version != existing->checkpoint.version)
    throw_base_mismatch(base_version, existing->checkpoint.version);

  corba::Blob payload(2 * sizeof(std::uint64_t) + delta.size());
  std::memcpy(payload.data(), &version, sizeof(version));
  std::memcpy(payload.data() + sizeof(version), &base_version,
              sizeof(base_version));
  if (!delta.empty())
    std::memcpy(payload.data() + 2 * sizeof(std::uint64_t), delta.data(),
                delta.size());
  write_atomically(delta_path_for(key, version), payload);

  if (existing->chain_length + 1 >= delta_policy_.max_chain ||
      existing->chain_payload + delta.size() > existing->base_size) {
    // Compact: materialize the new tip and rewrite it as the base.  The
    // base rename commits the compaction; segment removal afterwards is
    // cleanup (leftovers are discarded as stale on the next load).
    corba::Blob state =
        StateDelta::decode(delta).apply(existing->checkpoint.state);
    corba::Blob base(sizeof(version) + state.size());
    std::memcpy(base.data(), &version, sizeof(version));
    if (!state.empty())
      std::memcpy(base.data() + sizeof(version), state.data(), state.size());
    write_atomically(path_for(key), base);
    remove_segments(key);
  }
}

std::optional<Checkpoint> FileCheckpointStore::load(const std::string& key) {
  std::lock_guard lock(mu_);
  auto m = load_locked(key);
  if (!m) return std::nullopt;
  return std::move(m->checkpoint);
}

void FileCheckpointStore::remove(const std::string& key) {
  std::lock_guard lock(mu_);
  std::error_code ignored;
  std::filesystem::remove(path_for(key), ignored);
  remove_segments(key);
}

std::vector<std::string> FileCheckpointStore::keys() {
  std::lock_guard lock(mu_);
  std::vector<std::string> result;
  for (const auto& entry : std::filesystem::directory_iterator(directory_)) {
    if (entry.path().extension() != ".ckpt") continue;
    const std::string encoded = entry.path().stem().string();
    std::string key;
    for (std::size_t i = 0; i + 1 < encoded.size(); i += 2) {
      auto nibble = [](char c) -> int {
        if (c >= '0' && c <= '9') return c - '0';
        if (c >= 'a' && c <= 'f') return c - 'a' + 10;
        return -1;
      };
      const int hi = nibble(encoded[i]);
      const int lo = nibble(encoded[i + 1]);
      if (hi < 0 || lo < 0) break;
      key.push_back(static_cast<char>((hi << 4) | lo));
    }
    result.push_back(std::move(key));
  }
  std::sort(result.begin(), result.end());
  return result;
}

std::uint64_t FileCheckpointStore::head_version(const std::string& key) {
  std::lock_guard lock(mu_);
  auto m = load_locked(key);
  return m ? m->checkpoint.version : 0;
}

CheckpointLog FileCheckpointStore::fetch_log(const std::string& key,
                                             std::uint64_t since) {
  std::lock_guard lock(mu_);
  auto m = load_locked(key);
  CheckpointLog log;
  if (!m || m->checkpoint.version == since) return log;
  // Suffix when `since` is a version the validated chain still passes
  // through; full base + chain otherwise.
  bool anchored = since == m->base_version;
  std::size_t first = 0;
  if (!anchored) {
    for (std::size_t i = 0; i < m->chain.size(); ++i) {
      if (m->chain[i].version == since) {
        anchored = true;
        first = i + 1;
        break;
      }
    }
  }
  if (anchored) {
    log.segments.assign(
        std::make_move_iterator(m->chain.begin() +
                                static_cast<std::ptrdiff_t>(first)),
        std::make_move_iterator(m->chain.end()));
    return log;
  }
  log.has_base = true;
  log.base_version = m->base_version;
  auto base = read_base(key);
  log.base = base ? std::move(base->state) : corba::Blob{};
  log.segments = std::move(m->chain);
  return log;
}

CheckpointStoreServant::CheckpointStoreServant(
    std::shared_ptr<CheckpointStoreClient> impl)
    : impl_(std::move(impl)) {
  if (!impl_) throw corba::BAD_PARAM("null checkpoint store backend");
}

bool CheckpointStoreServant::non_blocking() const noexcept {
  return dynamic_cast<const MemoryCheckpointStore*>(impl_.get()) != nullptr;
}

corba::Value CheckpointStoreServant::dispatch(std::string_view op,
                                              const corba::ValueSeq& args) {
  if (op == "store") {
    check_arity(op, args, 3);
    impl_->store(args[0].as_string(), args[1].as_u64(), args[2].as_blob());
    return {};
  }
  if (op == "store_delta") {
    check_arity(op, args, 4);
    impl_->store_delta(args[0].as_string(), args[1].as_u64(), args[2].as_u64(),
                       args[3].as_blob());
    return {};
  }
  if (op == "load") {
    check_arity(op, args, 1);
    const auto checkpoint = impl_->load(args[0].as_string());
    if (!checkpoint)
      throw NoCheckpoint("no checkpoint for key '" + args[0].as_string() + "'");
    return corba::Value(corba::ValueSeq{corba::Value(checkpoint->version),
                                        corba::Value(checkpoint->state)});
  }
  if (op == "remove") {
    check_arity(op, args, 1);
    impl_->remove(args[0].as_string());
    return {};
  }
  if (op == "keys") {
    check_arity(op, args, 0);
    corba::ValueSeq out;
    for (const std::string& key : impl_->keys()) out.emplace_back(key);
    return corba::Value(std::move(out));
  }
  if (op == "head_version") {
    check_arity(op, args, 1);
    return corba::Value(impl_->head_version(args[0].as_string()));
  }
  if (op == "fetch_log") {
    check_arity(op, args, 2);
    return impl_->fetch_log(args[0].as_string(), args[1].as_u64()).to_value();
  }
  throw corba::BAD_OPERATION(std::string(op));
}

void CheckpointStoreStub::store(const std::string& key, std::uint64_t version,
                                const corba::Blob& state) {
  call("store", {corba::Value(key), corba::Value(version), corba::Value(state)});
}

void CheckpointStoreStub::store_delta(const std::string& key,
                                      std::uint64_t base_version,
                                      std::uint64_t version,
                                      const corba::Blob& delta) {
  call("store_delta", {corba::Value(key), corba::Value(base_version),
                       corba::Value(version), corba::Value(delta)});
}

std::optional<Checkpoint> CheckpointStoreStub::load(const std::string& key) {
  try {
    const corba::Value reply = call("load", {corba::Value(key)});
    const corba::ValueSeq& fields = reply.as_sequence();
    return Checkpoint{fields.at(0).as_u64(), fields.at(1).as_blob()};
  } catch (const NoCheckpoint&) {
    return std::nullopt;
  }
}

void CheckpointStoreStub::remove(const std::string& key) {
  call("remove", {corba::Value(key)});
}

std::vector<std::string> CheckpointStoreStub::keys() {
  const corba::Value reply = call("keys", {});
  std::vector<std::string> result;
  for (const corba::Value& key : reply.as_sequence())
    result.push_back(key.as_string());
  return result;
}

std::uint64_t CheckpointStoreStub::head_version(const std::string& key) {
  return call("head_version", {corba::Value(key)}).as_u64();
}

CheckpointLog CheckpointStoreStub::fetch_log(const std::string& key,
                                             std::uint64_t since) {
  return CheckpointLog::from_value(
      call("fetch_log", {corba::Value(key), corba::Value(since)}));
}

}  // namespace ft
