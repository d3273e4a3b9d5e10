#include "ft/delta.hpp"

#include <algorithm>
#include <cstring>

#include "orb/cdr.hpp"

namespace ft {

namespace {

constexpr std::uint32_t kDeltaFormatVersion = 1;

}  // namespace

std::uint64_t fnv1a(std::span<const std::byte> bytes) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (std::byte b : bytes) {
    hash ^= static_cast<std::uint64_t>(b);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::size_t StateDelta::payload_bytes() const noexcept {
  std::size_t total = 0;
  for (const DeltaChunk& chunk : chunks) total += chunk.bytes.size();
  return total;
}

corba::Blob StateDelta::encode() const {
  corba::CdrOutputStream out;
  out.reserve(24 + payload_bytes() + 12 * chunks.size());
  out.write_u32(kDeltaFormatVersion);
  out.write_u32(chunk_size);
  out.write_u64(new_size);
  out.write_u32(static_cast<std::uint32_t>(chunks.size()));
  for (const DeltaChunk& chunk : chunks) {
    out.write_u32(chunk.index);
    out.write_blob(std::span<const std::byte>(chunk.bytes));
  }
  return out.take_buffer();
}

StateDelta StateDelta::decode(std::span<const std::byte> blob) {
  corba::CdrInputStream in(blob);
  const std::uint32_t version = in.read_u32();
  if (version != kDeltaFormatVersion)
    throw corba::MARSHAL("unsupported state-delta version " +
                         std::to_string(version));
  StateDelta delta;
  delta.chunk_size = in.read_u32();
  if (delta.chunk_size == 0)
    throw corba::MARSHAL("state delta with zero chunk size");
  delta.new_size = in.read_u64();
  const std::uint32_t count = in.read_u32();
  if (count > in.remaining())
    throw corba::MARSHAL("delta chunk count exceeds buffer");
  delta.chunks.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    DeltaChunk chunk;
    chunk.index = in.read_u32();
    const std::span<const std::byte> bytes = in.read_blob_view();
    chunk.bytes.assign(bytes.begin(), bytes.end());
    delta.chunks.push_back(std::move(chunk));
  }
  return delta;
}

StateDelta StateDelta::diff(std::span<const std::byte> base,
                            std::span<const std::byte> next,
                            std::uint32_t chunk_size) {
  if (chunk_size == 0)
    throw corba::BAD_PARAM("chunk size must be positive");
  StateDelta delta;
  delta.chunk_size = chunk_size;
  delta.new_size = next.size();
  for (std::size_t off = 0, index = 0; off < next.size();
       off += chunk_size, ++index) {
    const std::size_t len =
        std::min<std::size_t>(chunk_size, next.size() - off);
    const std::span<const std::byte> chunk = next.subspan(off, len);
    // The matching base chunk must exist with the same length (a trailing
    // partial chunk that grew or shrank always ships) and the same bytes.
    const std::size_t base_len =
        off < base.size() ? std::min<std::size_t>(chunk_size, base.size() - off)
                          : 0;
    if (base_len == len &&
        std::memcmp(base.data() + off, chunk.data(), len) == 0)
      continue;
    delta.chunks.push_back(
        {static_cast<std::uint32_t>(index), corba::Blob(chunk.begin(), chunk.end())});
  }
  return delta;
}

corba::Blob StateDelta::apply(std::span<const std::byte> base) const {
  corba::Blob state(static_cast<std::size_t>(new_size));
  if (!base.empty() && !state.empty())
    std::memcpy(state.data(), base.data(),
                std::min<std::size_t>(base.size(), state.size()));
  for (const DeltaChunk& chunk : chunks) {
    const std::size_t off =
        static_cast<std::size_t>(chunk.index) * chunk_size;
    if (off > state.size() || chunk.bytes.size() > state.size() - off)
      throw corba::BAD_PARAM("delta chunk outside materialized state");
    if (!chunk.bytes.empty())
      std::memcpy(state.data() + off, chunk.bytes.data(), chunk.bytes.size());
  }
  return state;
}

}  // namespace ft
