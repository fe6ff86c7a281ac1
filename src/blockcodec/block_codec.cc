#include "blockcodec/block_codec.h"

#include <cstdint>
#include <iterator>
#include <stdexcept>

#include "blockcodec/lz77.h"
#include "blockcodec/rans.h"

namespace threelc::blockcodec {
namespace {

class StoreCodec final : public BlockCodec {
 public:
  const char* name() const override { return "store"; }
  std::uint8_t id() const override { return kStoreId; }

  void Encode(util::ByteSpan raw, util::ByteBuffer& out) const override {
    out.Append(raw);
  }

  void Decode(util::ByteSpan encoded, std::size_t raw_size,
              util::ByteBuffer& out) const override {
    if (encoded.size() != raw_size) {
      throw std::runtime_error("store: encoded size != declared raw size");
    }
    out.Append(encoded);
  }
};

class LzCodec final : public BlockCodec {
 public:
  const char* name() const override { return "lz"; }
  std::uint8_t id() const override { return kLzId; }

  void Encode(util::ByteSpan raw, util::ByteBuffer& out) const override {
    lz::Compress(raw, out);
  }

  void Decode(util::ByteSpan encoded, std::size_t raw_size,
              util::ByteBuffer& out) const override {
    lz::Decompress(encoded, raw_size, out);
  }
};

class RansCodec final : public BlockCodec {
 public:
  const char* name() const override { return "rans"; }
  std::uint8_t id() const override { return kRansId; }

  void Encode(util::ByteSpan raw, util::ByteBuffer& out) const override {
    rans::Encode(raw, out);
  }

  void Decode(util::ByteSpan encoded, std::size_t raw_size,
              util::ByteBuffer& out) const override {
    rans::Decode(encoded, raw_size, out);
  }
};

// lz, then rans over the LZ token stream. The intermediate size rides in
// a u32 header so the decoder knows how many LZ bytes to reconstruct;
// it is bounded by the LZ worst case for the declared raw size, which
// keeps a corrupt header from forcing a huge allocation.
class LzRansCodec final : public BlockCodec {
 public:
  const char* name() const override { return "lz+rans"; }
  std::uint8_t id() const override { return kLzRansId; }

  void Encode(util::ByteSpan raw, util::ByteBuffer& out) const override {
    util::ByteBuffer lz_bytes;
    lz::Compress(raw, lz_bytes);
    EncodeLzOutput(lz_bytes.span(), out);
  }

  // The lz+rans body for an already-computed LZ token stream, so
  // EncodeBlock runs LZ once for both the lz and lz+rans candidates.
  // Same `limit` contract as rans::Encode.
  static bool EncodeLzOutput(util::ByteSpan lz_bytes, util::ByteBuffer& out,
                             std::size_t limit = SIZE_MAX) {
    constexpr std::size_t kSizeBytes = 4;
    if (limit <= kSizeBytes) return false;
    const std::size_t base = out.size();
    out.AppendU32(static_cast<std::uint32_t>(lz_bytes.size()));
    if (!rans::Encode(lz_bytes, out, limit - kSizeBytes)) {
      out.Resize(base);
      return false;
    }
    return true;
  }

  void Decode(util::ByteSpan encoded, std::size_t raw_size,
              util::ByteBuffer& out) const override {
    util::ByteReader reader(encoded);
    const std::uint32_t lz_size = reader.ReadU32();
    if (lz_size > lz::MaxCompressedSize(raw_size)) {
      throw std::runtime_error(
          "lz+rans: intermediate size exceeds LZ worst case");
    }
    util::ByteBuffer lz_bytes;
    rans::Decode(reader.ReadSpan(reader.remaining()), lz_size, lz_bytes);
    lz::Decompress(lz_bytes.span(), raw_size, out);
  }
};

const StoreCodec kStore;
const LzCodec kLz;
const RansCodec kRans;
const LzRansCodec kLzRans;
const BlockCodec* const kById[] = {&kStore, &kLz, &kRans, &kLzRans};

}  // namespace

const BlockCodec* Find(const std::string& name) {
  for (const BlockCodec* codec : kById) {
    if (name == codec->name()) return codec;
  }
  return nullptr;
}

const BlockCodec* FindById(std::uint8_t id) {
  if (id >= std::size(kById)) return nullptr;
  return kById[id];
}

const std::vector<const BlockCodec*>& All() {
  static const std::vector<const BlockCodec*> all(std::begin(kById),
                                                  std::end(kById));
  return all;
}

std::string KnownNames() {
  std::string names;
  for (const BlockCodec* codec : kById) {
    if (!names.empty()) names += '|';
    names += codec->name();
  }
  return names;
}

std::uint8_t EncodeBlock(const BlockCodec& codec, util::ByteSpan raw,
                         util::ByteBuffer& out) {
  const std::uint8_t negotiated = codec.id();
  const bool try_lz = negotiated == kLzId || negotiated == kLzRansId;
  const bool try_rans = negotiated == kRansId || negotiated == kLzRansId;
  // Per-thread candidate buffers: the wire path encodes ~100 blocks of
  // under 1 KB per step, where fresh allocations would dominate.
  thread_local util::ByteBuffer lz_out, rans_out, lz_rans_out;
  std::uint8_t best_id = kStoreId;
  util::ByteSpan best = raw;
  // Strict `<`: on a tie the earlier, cheaper-to-decode candidate wins.
  const auto consider = [&](std::uint8_t id, const util::ByteBuffer& body) {
    if (body.size() < best.size()) {
      best_id = id;
      best = body.span();
    }
  };
  if (try_lz) {
    lz_out.Clear();
    lz::Compress(raw, lz_out);
    consider(kLzId, lz_out);
  }
  // The rans stages give up as soon as they cannot beat the best so far.
  if (try_rans) {
    rans_out.Clear();
    if (rans::Encode(raw, rans_out, best.size())) consider(kRansId, rans_out);
  }
  if (try_lz && try_rans) {
    lz_rans_out.Clear();
    if (LzRansCodec::EncodeLzOutput(lz_out.span(), lz_rans_out,
                                    best.size())) {
      consider(kLzRansId, lz_rans_out);
    }
  }
  out.AppendU8(best_id);
  out.AppendU32(static_cast<std::uint32_t>(raw.size()));
  out.Append(best);
  return best_id;
}

void DecodeBlock(util::ByteSpan envelope, std::size_t max_raw_bytes,
                 util::ByteBuffer& out) {
  util::ByteReader reader(envelope);
  const std::uint8_t id = reader.ReadU8();
  const BlockCodec* codec = FindById(id);
  if (codec == nullptr) {
    throw std::runtime_error("block envelope: unknown codec id " +
                             std::to_string(id));
  }
  const std::uint32_t raw_size = reader.ReadU32();
  if (raw_size > max_raw_bytes) {
    throw std::runtime_error("block envelope: declared raw size " +
                             std::to_string(raw_size) + " exceeds limit " +
                             std::to_string(max_raw_bytes));
  }
  codec->Decode(reader.ReadSpan(reader.remaining()), raw_size, out);
}

}  // namespace threelc::blockcodec
