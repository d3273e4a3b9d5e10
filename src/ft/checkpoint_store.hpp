// Checkpoint storage service.
//
// The paper prototypes "a simple service for storing checkpointing data ...
// functions to store/retrieve arbitrary values" with no persistence and no
// optimization.  This module provides that service as a proper CORBA object:
// a versioned key -> blob store with an in-memory backend (the paper's
// prototype, including a configurable simulated cost so the Table 1 overhead
// experiment can model the "rather inefficient" implementation) and a
// file-backed backend (the persistence the paper lists as missing).  Both
// backends keep their per-key state as a log-structured base + delta chain
// (ft/segment_log.hpp), which also feeds the shard replication catch-up
// stream (ft/store_replication.hpp).
#pragma once

#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>

#include "ft/segment_log.hpp"
#include "orb/object_adapter.hpp"
#include "orb/stub.hpp"

namespace ft {

inline constexpr std::string_view kCheckpointStoreRepoId =
    "IDL:corbaft/ft/CheckpointStore:1.0";

struct NoCheckpoint : corba::UserException {
  explicit NoCheckpoint(std::string detail)
      : corba::UserException(std::string(static_repo_id()), std::move(detail)) {}
  static constexpr std::string_view static_repo_id() {
    return "IDL:corbaft/ft/NoCheckpoint:1.0";
  }
};

struct Checkpoint {
  std::uint64_t version = 0;
  corba::Blob state;
};

/// Client API of the checkpoint store; implemented by the backends (for
/// colocated use) and by CheckpointStoreStub (remote use).
class CheckpointStoreClient {
 public:
  virtual ~CheckpointStoreClient() = default;

  /// Stores a checkpoint.  Versions must be monotone per key; a stale
  /// version (<= the stored one) is rejected with BAD_PARAM so a lagging
  /// writer can never overwrite a newer state.
  virtual void store(const std::string& key, std::uint64_t version,
                     const corba::Blob& state) = 0;

  /// Stores an incremental checkpoint: `delta` is a CDR-encoded
  /// ft::StateDelta diffed against the stored version `base_version`.
  /// Rejected with BAD_PARAM when no checkpoint exists for the key, when
  /// `base_version` is not the store's current version (the delta was
  /// diffed against state the store no longer has), or when `version` is
  /// stale — callers fall back to a full store() in all three cases.  The
  /// default implementation materializes locally and forwards to store();
  /// backends override it to keep a bounded delta chain instead.
  virtual void store_delta(const std::string& key, std::uint64_t base_version,
                           std::uint64_t version, const corba::Blob& delta);

  /// Latest checkpoint for `key`, or std::nullopt when none exists.  A
  /// backend holding a delta chain materializes transparently (base +
  /// replay), so callers always see a full state blob.
  virtual std::optional<Checkpoint> load(const std::string& key) = 0;

  /// Removes the checkpoint (no-op when absent).
  virtual void remove(const std::string& key) = 0;

  virtual std::vector<std::string> keys() = 0;

  /// Version currently stored for `key`; 0 when absent.  The cheap probe
  /// shard failover uses to find the freshest replica.  The default loads
  /// and inspects (correct, not cheap); backends override.
  virtual std::uint64_t head_version(const std::string& key);

  /// The key's log from `since` forward: a segment suffix when the
  /// backend's chain still anchors at `since`, the full base + chain
  /// otherwise, an empty log when the key is absent or already caught up.
  /// Replication catch-up calls this on the primary so a follower that
  /// missed a few deltas receives the suffix instead of a full snapshot.
  /// The default ships the full checkpoint as a base-only log.
  virtual CheckpointLog fetch_log(const std::string& key, std::uint64_t since);
};

/// In-memory backend — the paper's proof-of-concept store.  `work_per_byte`
/// and `work_per_store` charge simulated work on the hosting workstation for
/// each store/load, modeling the unoptimized implementation whose cost the
/// Table 1 experiment measures.
class MemoryCheckpointStore final : public CheckpointStoreClient {
 public:
  struct CostModel {
    double work_per_store = 0.0;
    double work_per_byte = 0.0;
  };

  MemoryCheckpointStore() : MemoryCheckpointStore(CostModel{}) {}
  explicit MemoryCheckpointStore(CostModel cost, DeltaPolicy delta = {});

  void store(const std::string& key, std::uint64_t version,
             const corba::Blob& state) override;
  void store_delta(const std::string& key, std::uint64_t base_version,
                   std::uint64_t version, const corba::Blob& delta) override;
  std::optional<Checkpoint> load(const std::string& key) override;
  void remove(const std::string& key) override;
  std::vector<std::string> keys() override;
  std::uint64_t head_version(const std::string& key) override;
  CheckpointLog fetch_log(const std::string& key, std::uint64_t since) override;

  std::uint64_t stores() const;
  std::uint64_t loads() const;
  std::uint64_t delta_stores() const;
  std::uint64_t compactions() const;

 private:
  CostModel cost_;
  DeltaPolicy delta_policy_;
  mutable std::mutex mu_;
  std::map<std::string, SegmentLog> checkpoints_;
  std::uint64_t store_count_ = 0;
  std::uint64_t load_count_ = 0;
  std::uint64_t delta_store_count_ = 0;
  std::uint64_t compaction_count_ = 0;
};

/// Durability of FileCheckpointStore's atomic writes.  tmp+rename alone
/// survives a process crash but not power loss: the rename can land while
/// the data blocks are still dirty in the page cache.
enum class FsyncMode : std::uint8_t {
  off,   ///< no fsync; process-crash durability only (fastest, CI default off)
  data,  ///< fsync the tmp file before rename (default)
  full,  ///< data + fsync the directory after rename (the rename itself
         ///< is durable too)
};

std::string_view to_string(FsyncMode mode) noexcept;

/// File-backed backend: one base file per key under `directory` plus
/// numbered delta segments, each written atomically (tmp + rename),
/// surviving process restarts.  Orphan delta segments left behind by a
/// crash (stale, or with a gap in the chain) are detected and discarded
/// the next time the key is loaded.  Sync latency is recorded in the
/// `ft.store.fsync_latency_s` histogram (modes other than off).
class FileCheckpointStore final : public CheckpointStoreClient {
 public:
  explicit FileCheckpointStore(std::filesystem::path directory,
                               DeltaPolicy delta = {},
                               FsyncMode fsync = FsyncMode::data);

  void store(const std::string& key, std::uint64_t version,
             const corba::Blob& state) override;
  void store_delta(const std::string& key, std::uint64_t base_version,
                   std::uint64_t version, const corba::Blob& delta) override;
  std::optional<Checkpoint> load(const std::string& key) override;
  void remove(const std::string& key) override;
  std::vector<std::string> keys() override;
  std::uint64_t head_version(const std::string& key) override;
  CheckpointLog fetch_log(const std::string& key, std::uint64_t since) override;

  const std::filesystem::path& directory() const noexcept { return directory_; }
  FsyncMode fsync_mode() const noexcept { return fsync_mode_; }

 private:
  struct DiskSegment {
    LogSegment segment;
    std::filesystem::path path;
  };
  struct Materialized {
    Checkpoint checkpoint;
    std::uint64_t base_version = 0;
    std::size_t base_size = 0;
    std::size_t chain_length = 0;
    std::size_t chain_payload = 0;
    /// The validated chain (fetch_log serves suffixes straight from it).
    std::vector<LogSegment> chain;
  };

  std::string encoded_key(const std::string& key) const;
  std::filesystem::path path_for(const std::string& key) const;
  std::filesystem::path delta_path_for(const std::string& key,
                                       std::uint64_t version) const;
  /// The raw base file (version + state), nullopt when absent.
  std::optional<Checkpoint> read_base(const std::string& key) const;
  /// All delta segments for `key`, sorted by version (unvalidated).
  std::vector<DiskSegment> read_segments(const std::string& key) const;
  /// Base + validated chain with orphans discarded (deleted from disk).
  /// Returns nullopt when no base exists.
  std::optional<Materialized> load_locked(const std::string& key);
  void write_atomically(const std::filesystem::path& target,
                        std::span<const std::byte> payload) const;
  void remove_segments(const std::string& key);

  std::filesystem::path directory_;
  DeltaPolicy delta_policy_;
  FsyncMode fsync_mode_;
  mutable std::mutex mu_;
};

/// CORBA servant exposing any backend.
class CheckpointStoreServant final : public corba::Servant {
 public:
  explicit CheckpointStoreServant(std::shared_ptr<CheckpointStoreClient> impl);

  std::string_view repo_id() const noexcept override {
    return kCheckpointStoreRepoId;
  }
  corba::Value dispatch(std::string_view op,
                        const corba::ValueSeq& args) override;
  /// Only over a MemoryCheckpointStore (the others wait on disk or peers).
  bool non_blocking() const noexcept override;

 private:
  std::shared_ptr<CheckpointStoreClient> impl_;
};

/// Client-side stub.
class CheckpointStoreStub final : public corba::StubBase,
                                  public CheckpointStoreClient {
 public:
  CheckpointStoreStub() = default;
  explicit CheckpointStoreStub(corba::ObjectRef ref)
      : StubBase(std::move(ref)) {}

  void store(const std::string& key, std::uint64_t version,
             const corba::Blob& state) override;
  void store_delta(const std::string& key, std::uint64_t base_version,
                   std::uint64_t version, const corba::Blob& delta) override;
  std::optional<Checkpoint> load(const std::string& key) override;
  void remove(const std::string& key) override;
  std::vector<std::string> keys() override;
  std::uint64_t head_version(const std::string& key) override;
  CheckpointLog fetch_log(const std::string& key, std::uint64_t since) override;
};

}  // namespace ft
