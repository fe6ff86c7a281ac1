// Pluggable lossless byte-level block codecs: the optional second stage
// behind the 3LC value codecs (compress/) — and the answer to the paper's
// §3.3 question ("is heavier entropy coding worth it?") at system scale.
//
// A BlockCodec maps opaque byte blocks to byte blocks. It knows nothing
// about tensors or quantization: the first stage (compress::Compressor)
// owns value semantics; this layer only squeezes the resulting bytes.
// Implementations are all in-house and dependency-free:
//
//   store    id 0  identity (no transform; byte parity with no second stage)
//   lz       id 1  LZ77 byte compressor, greedy hash-chain matching (lz77.h)
//   rans     id 2  static order-0 rANS entropy coder (rans.h)
//   lz+rans  id 3  lz, then rans over the LZ output — the "full" pipeline
//
// Every Decode is strict: it throws std::runtime_error (or
// std::out_of_range from ByteReader) on truncation, corruption, trailing
// bytes, or when the decoded length disagrees with the caller-declared
// raw size. A malformed block never produces silent garbage.
//
// Block envelope (EncodeBlock/DecodeBlock): the framing used by the RPC
// payload path when a non-store codec was negotiated:
//
//   offset  size  field
//   ------  ----  ---------------------------------------------
//        0     1  codec id actually used for this block
//        1     4  raw (uncompressed) size in bytes (u32 LE)
//        5     n  codec output
//
// The id is per-block because EncodeBlock keeps the smallest of several
// encodings: `store` plus every stage of the negotiated pipeline — lz for
// `lz`, rans for `rans`, and lz, rans and lz+rans for `lz+rans` (the LZ
// output computed once and shared). Incompressible inputs therefore cost
// 5 bytes instead of an expansion, and a block whose redundancy only one
// stage sees (a skewed histogram without repeats, or repeats over a flat
// histogram) still ships through that stage.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/byte_buffer.h"

namespace threelc::blockcodec {

// Stable on-wire / on-disk codec ids (handshake payloads, block
// envelopes, checkpoint containers). Never renumber.
constexpr std::uint8_t kStoreId = 0;
constexpr std::uint8_t kLzId = 1;
constexpr std::uint8_t kRansId = 2;
constexpr std::uint8_t kLzRansId = 3;

class BlockCodec {
 public:
  virtual ~BlockCodec() = default;

  virtual const char* name() const = 0;
  virtual std::uint8_t id() const = 0;

  // Append the encoded form of `raw` to `out`. Never throws on valid
  // input; output may be larger than the input (callers wanting the
  // escape hatch use EncodeBlock).
  virtual void Encode(util::ByteSpan raw, util::ByteBuffer& out) const = 0;

  // Append exactly `raw_size` decoded bytes to `out`, consuming all of
  // `encoded`. Throws on truncated input, corrupt streams, trailing
  // bytes, or a decoded length != raw_size.
  virtual void Decode(util::ByteSpan encoded, std::size_t raw_size,
                      util::ByteBuffer& out) const = 0;
};

// Registry. Codecs are static singletons; pointers stay valid for the
// process lifetime. Both lookups return nullptr for unknown names/ids.
const BlockCodec* Find(const std::string& name);
const BlockCodec* FindById(std::uint8_t id);
// All registered codecs in id order (for benches, docs, --help text).
const std::vector<const BlockCodec*>& All();
// "store|lz|rans|lz+rans" — for flag error messages.
std::string KnownNames();

// --- block envelope -------------------------------------------------------

constexpr std::size_t kEnvelopeHeaderBytes = 5;  // u8 id + u32 raw size

// Encode `raw` as the smallest of store and the stages of `codec`'s
// pipeline (ties go to the candidate listed first: store, lz, rans,
// lz+rans). Appends the envelope to `out` and returns the codec id
// actually used.
std::uint8_t EncodeBlock(const BlockCodec& codec, util::ByteSpan raw,
                         util::ByteBuffer& out);

// Decode one envelope, appending the raw bytes to `out`. Rejects unknown
// codec ids, declared raw sizes above `max_raw_bytes` (defense against a
// corrupt header committing us to a huge allocation), and everything the
// underlying Decode rejects.
void DecodeBlock(util::ByteSpan envelope, std::size_t max_raw_bytes,
                 util::ByteBuffer& out);

}  // namespace threelc::blockcodec
