// Delta checkpoints: chunked state diffs.
//
// The paper ships the server object's *entire* state to the checkpoint
// store after every successful call and calls that store "rather
// inefficient".  This module supplies the incremental alternative (in the
// spirit of libckpt-style incremental checkpointing): the state blob is cut
// into fixed-size chunks, each chunk is compared byte for byte against the
// last acknowledged checkpoint, and only the chunks that differ travel to
// the store.  The store keeps a bounded delta chain per key and
// materializes base + replay on load, so readers (recovery, migration)
// never see anything but a full state blob.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "orb/value.hpp"

namespace ft {

/// Default diff granularity.  Small enough that a localized mutation ships
/// a few KiB, large enough that the per-chunk wire bookkeeping (4-byte
/// index + 4-byte length) stays noise.
inline constexpr std::uint32_t kDefaultChunkSize = 4096;

/// Standard 64-bit FNV-1a over `bytes`.  ft::HashRing places keys on
/// shards with it, so its output is part of the store layout and must
/// never change.
std::uint64_t fnv1a(std::span<const std::byte> bytes) noexcept;

/// One changed chunk: its index in the chunked state and its new bytes.
struct DeltaChunk {
  std::uint32_t index = 0;
  corba::Blob bytes;
};

/// A chunked diff between two state versions.  `new_size` is the size of
/// the state the delta materializes to, so shrinking states round-trip.
struct StateDelta {
  std::uint32_t chunk_size = kDefaultChunkSize;
  std::uint64_t new_size = 0;
  std::vector<DeltaChunk> chunks;

  /// Sum of shipped chunk payloads (the bytes that actually travel).
  std::size_t payload_bytes() const noexcept;

  /// CDR wire/file representation (also used by store_delta()).
  corba::Blob encode() const;
  /// Throws corba::MARSHAL on a corrupt or unsupported encoding.
  static StateDelta decode(std::span<const std::byte> blob);

  /// Exact diff of `next` against `base`.  A chunk ships when it is new,
  /// its length changed (trailing partial chunk), or its bytes differ.
  static StateDelta diff(std::span<const std::byte> base,
                         std::span<const std::byte> next,
                         std::uint32_t chunk_size);

  /// Materializes the post-delta state from `base`.  Throws corba::BAD_PARAM
  /// when a chunk falls outside the materialized size (corrupt chain).
  corba::Blob apply(std::span<const std::byte> base) const;
};

}  // namespace ft
