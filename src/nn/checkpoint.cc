#include "nn/checkpoint.h"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string_view>
#include <system_error>
#include <vector>

#include "blockcodec/block_codec.h"
#include "util/atomic_file.h"
#include "util/byte_buffer.h"
#include "util/crc32.h"

namespace threelc::nn {

namespace {

constexpr char kMagic[4] = {'3', 'L', 'C', 'K'};
constexpr std::uint32_t kVersionChecksum = 2;    // model tensors
constexpr std::uint32_t kVersionTrainState = 3;  // + training-state section

// Server checkpoints: distinct magic, own version counter.
constexpr char kServerMagic[4] = {'3', 'L', 'C', 'S'};
constexpr std::uint32_t kServerVersion = 1;

// Magic + u32 version precede the CRC-covered body; the u32 CRC32C
// trailer follows it.
constexpr std::size_t kHeaderBytes = 8;
constexpr std::size_t kTrailerBytes = 4;

// Compressed container ("3LCZ"): an outer wrapper holding a complete
// model or server checkpoint blob run through a blockcodec. Layout:
//   magic "3LCZ" | u32 container_version | u8 codec_id | u64 raw_size
//   | u32 raw_crc32c | u32 comp_size | comp bytes (nothing after)
// Loaders accept either form: a file starting with "3LCZ" is unwrapped
// (strictly: comp_size must consume the rest of the file, the decoded
// length must equal raw_size, and the decoded bytes must match
// raw_crc32c) before the inner magic is even looked at; any other file
// is parsed as a bare checkpoint.
constexpr char kContainerMagic[4] = {'3', 'L', 'C', 'Z'};
// Version 2: the rans and lz+rans payloads use the compact rans table
// (blockcodec/rans.h); version-1 containers are rejected.
constexpr std::uint32_t kContainerVersion = 2;
constexpr std::size_t kContainerHeaderBytes = 4 + 4 + 1 + 8 + 4 + 4;
// Initial capacity of a checkpoint blob: the header and the first tensors
// fit without regrowth. (Reserving up front also keeps GCC 12 at -O3 from
// a false -Wstringop-overflow on the first few-byte appends.)
constexpr std::size_t kBlobInitialBytes = std::size_t{1} << 16;
// Defense against a corrupt raw_size committing us to a huge allocation;
// far above any checkpoint this repo writes.
constexpr std::uint64_t kMaxContainerRawBytes = 1ull << 32;

struct NamedTensor {
  std::string name;
  Tensor* tensor;
};

std::vector<NamedTensor> CollectTensors(Model& model) {
  std::vector<NamedTensor> tensors;
  for (auto& p : model.Params()) tensors.push_back({p.name, p.value});
  auto buffers = model.Buffers();
  for (std::size_t i = 0; i < buffers.size(); ++i) {
    tensors.push_back({"__buffer_" + std::to_string(i), buffers[i]});
  }
  return tensors;
}

// ---------- writer ----------
//
// A save builds the complete blob in memory (checkpoints here are a model
// plus bounded state) so the container path can compress it as one
// block; the blob then goes to disk through an AtomicFileWriter (temp +
// fsync + rename), so an exception or crash at any point leaves the
// previous checkpoint intact.

util::ByteBuffer BeginBlob(const char (&magic)[4], std::uint32_t version) {
  util::ByteBuffer blob(kBlobInitialBytes);
  blob.Append(magic, sizeof(magic));
  blob.AppendU32(version);
  return blob;
}

// The trailer: one CRC32C over every byte after the version field.
void AppendTrailer(util::ByteBuffer& blob) {
  blob.AppendU32(util::Crc32c(blob.data() + kHeaderBytes,
                              blob.size() - kHeaderBytes));
}

// u32 length | bytes.
void AppendBytes(util::ByteBuffer& blob, const void* data, std::size_t n) {
  blob.AppendU32(static_cast<std::uint32_t>(n));
  blob.Append(data, n);
}

void AppendBytes(util::ByteBuffer& blob,
                 const std::vector<std::uint8_t>& bytes) {
  AppendBytes(blob, bytes.data(), bytes.size());
}

void AppendTensorSection(util::ByteBuffer& blob, Model& model) {
  auto tensors = CollectTensors(model);
  blob.AppendU32(static_cast<std::uint32_t>(tensors.size()));
  for (auto& [name, tensor] : tensors) {
    AppendBytes(blob, name.data(), name.size());
    const auto& dims = tensor->shape().dims();
    blob.AppendU32(static_cast<std::uint32_t>(dims.size()));
    for (auto d : dims) blob.AppendScalar<std::int64_t>(d);
    blob.Append(tensor->data(), tensor->byte_size());
  }
}

void AppendStateSection(util::ByteBuffer& blob, const TrainState& state) {
  blob.AppendU64(state.next_step);
  AppendBytes(blob, state.codec_state);
  AppendBytes(blob, state.sampler_state);
}

void AppendServerStateSection(util::ByteBuffer& blob,
                              const ServerState& state) {
  if (state.evicted.size() != state.greeted.size()) {
    throw std::runtime_error(
        "server checkpoint: evicted/greeted table size mismatch");
  }
  blob.AppendU64(state.epoch);
  blob.AppendU64(state.next_step);
  AppendBytes(blob, state.ps_state);
  AppendBytes(blob, state.evicted);
  blob.Append(state.greeted.data(), state.greeted.size());
  blob.AppendU32(static_cast<std::uint32_t>(state.replay.size()));
  for (const auto& entry : state.replay) {
    blob.AppendU64(entry.step);
    blob.AppendU32(static_cast<std::uint32_t>(entry.frames.size()));
    for (const auto& frame : entry.frames) AppendBytes(blob, frame);
  }
}

// Atomically write a finished checkpoint blob, optionally wrapped in the
// compressed container. `store` (or a block the codec cannot shrink —
// the skip-if-incompressible escape) writes the bare blob.
void WriteBlob(const std::string& path, const util::ByteBuffer& blob,
               const std::string& block_codec, const char* what,
               util::Fs* fs) {
  const blockcodec::BlockCodec* codec = blockcodec::Find(block_codec);
  if (codec == nullptr) {
    throw std::runtime_error(std::string(what) + ": unknown block codec '" +
                             block_codec + "' (known: " +
                             blockcodec::KnownNames() + ")");
  }
  util::AtomicFileWriter out(path, fs);
  bool wrapped = false;
  if (codec->id() != blockcodec::kStoreId) {
    util::ByteBuffer encoded;
    codec->Encode(blob.span(), encoded);
    if (encoded.size() + kContainerHeaderBytes < blob.size()) {
      util::ByteBuffer header(kContainerHeaderBytes);
      header.Append(kContainerMagic, sizeof(kContainerMagic));
      header.AppendU32(kContainerVersion);
      header.AppendU8(codec->id());
      header.AppendU64(static_cast<std::uint64_t>(blob.size()));
      header.AppendU32(util::Crc32c(blob.data(), blob.size()));
      header.AppendU32(static_cast<std::uint32_t>(encoded.size()));
      out.Write(header.data(), header.size());
      out.Write(encoded.data(), encoded.size());
      wrapped = true;
    }
  }
  if (!wrapped) out.Write(blob.data(), blob.size());
  out.Commit();
}

// ---------- reader ----------

// Read the whole file once, unwrapping (and strictly validating) the
// "3LCZ" container when present. Returns the bare checkpoint bytes.
std::vector<std::uint8_t> ReadCheckpointBytes(const std::string& path,
                                              const std::string& what) {
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  std::ifstream in(path, std::ios::binary);
  if (ec || !in) throw std::runtime_error(what + ": cannot open " + path);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  if (!in.read(reinterpret_cast<char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()))) {
    throw std::runtime_error(what + ": cannot read " + path);
  }
  if (bytes.size() < sizeof(kContainerMagic) ||
      std::memcmp(bytes.data(), kContainerMagic,
                  sizeof(kContainerMagic)) != 0) {
    return bytes;  // bare checkpoint
  }
  try {
    util::ByteReader reader(util::ByteSpan(bytes.data(), bytes.size()));
    reader.ReadSpan(sizeof(kContainerMagic));
    const std::uint32_t version = reader.ReadU32();
    if (version != kContainerVersion) {
      throw std::runtime_error("unsupported container version " +
                               std::to_string(version));
    }
    const std::uint8_t codec_id = reader.ReadU8();
    const blockcodec::BlockCodec* codec = blockcodec::FindById(codec_id);
    if (codec == nullptr) {
      throw std::runtime_error("unknown block codec id " +
                               std::to_string(static_cast<int>(codec_id)));
    }
    const std::uint64_t raw_size = reader.ReadU64();
    if (raw_size > kMaxContainerRawBytes) {
      throw std::runtime_error("declared raw size " +
                               std::to_string(raw_size) + " is implausible");
    }
    const std::uint32_t raw_crc = reader.ReadU32();
    const std::uint32_t comp_size = reader.ReadU32();
    util::ByteSpan comp = reader.ReadSpan(comp_size);
    if (!reader.AtEnd()) {
      throw std::runtime_error("trailing bytes after compressed payload");
    }
    util::ByteBuffer decoded;
    codec->Decode(comp, static_cast<std::size_t>(raw_size), decoded);
    // Cross-check both invariants independently: the decoded length must
    // equal the declared raw size AND the decoded bytes must match the
    // stored CRC. Either failing means the container lies about its
    // contents — reject rather than hand corrupt bytes to the parser.
    if (decoded.size() != raw_size) {
      throw std::runtime_error("decoded length " +
                               std::to_string(decoded.size()) +
                               " != declared raw size " +
                               std::to_string(raw_size));
    }
    if (util::Crc32c(decoded.data(), decoded.size()) != raw_crc) {
      throw std::runtime_error("decoded bytes fail the container CRC32C");
    }
    return decoded.Release();
  } catch (const std::exception& e) {
    throw std::runtime_error(what + ": bad compressed container in " + path +
                             ": " + e.what());
  }
}

// Load `path` as a `magic` checkpoint with a version in [min_version,
// max_version]: check the magic and the version, verify the trailer CRC
// over the whole body, and only then hand `parse(version, reader)` a
// bounds-checked reader over the body. No length field is trusted before
// the CRC holds, and none can allocate past the bytes present. Any parse
// failure (a length pointing past the end, an architecture mismatch,
// bytes left over) names the file.
template <typename Parse>
void LoadBody(const std::string& path, const char (&magic)[4],
              std::uint32_t min_version, std::uint32_t max_version,
              const std::string& what, Parse parse) {
  const std::vector<std::uint8_t> bytes = ReadCheckpointBytes(path, what);
  if (bytes.size() < sizeof(magic) ||
      std::memcmp(bytes.data(), magic, sizeof(magic)) != 0) {
    throw std::runtime_error(what + ": bad magic in " + path);
  }
  if (bytes.size() < kHeaderBytes + kTrailerBytes) {
    throw std::runtime_error(what + ": truncated file " + path);
  }
  std::uint32_t version;
  std::memcpy(&version, bytes.data() + sizeof(magic), sizeof(version));
  if (version < min_version || version > max_version) {
    throw std::runtime_error(what + ": unsupported version " +
                             std::to_string(version) + " in " + path);
  }
  const util::ByteSpan body(bytes.data() + kHeaderBytes,
                            bytes.size() - kHeaderBytes - kTrailerBytes);
  std::uint32_t stored;
  std::memcpy(&stored, bytes.data() + bytes.size() - kTrailerBytes,
              sizeof(stored));
  if (util::Crc32c(body) != stored) {
    throw std::runtime_error(what + ": CRC32C mismatch in " + path +
                             " (file corrupt)");
  }
  try {
    util::ByteReader in(body);
    parse(version, in);
    if (!in.AtEnd()) {
      throw std::runtime_error("trailing bytes before the CRC trailer");
    }
  } catch (const std::exception& e) {
    throw std::runtime_error(what + " " + path + ": " + e.what());
  }
}

// u32 length | bytes, as a view into the body.
util::ByteSpan ReadBytes(util::ByteReader& in) {
  return in.ReadSpan(in.ReadU32());
}

std::vector<std::uint8_t> ReadVector(util::ByteReader& in) {
  const util::ByteSpan bytes = ReadBytes(in);
  return {bytes.begin(), bytes.end()};
}

// A u32 element count whose elements take at least `min_item_bytes` each;
// a count the remaining bytes cannot hold is refused before anything is
// sized from it.
std::uint32_t ReadCount(util::ByteReader& in, std::size_t min_item_bytes,
                        const char* what) {
  const std::uint32_t count = in.ReadU32();
  if (count > in.remaining() / min_item_bytes) {
    throw std::runtime_error(std::string(what) + " count " +
                             std::to_string(count) +
                             " exceeds the bytes present");
  }
  return count;
}

void ReadTensorSection(util::ByteReader& in, Model& model) {
  auto tensors = CollectTensors(model);
  if (in.ReadU32() != tensors.size()) {
    throw std::runtime_error("tensor count mismatch");
  }
  for (auto& [name, tensor] : tensors) {
    const util::ByteSpan stored = ReadBytes(in);
    const std::string_view stored_name(
        reinterpret_cast<const char*>(stored.data()), stored.size());
    if (stored_name != name) {
      throw std::runtime_error("tensor name mismatch: expected " + name +
                               ", found " + std::string(stored_name));
    }
    const auto& dims = tensor->shape().dims();
    bool same_shape = in.ReadU32() == dims.size();
    for (std::size_t i = 0; same_shape && i < dims.size(); ++i) {
      same_shape = in.ReadScalar<std::int64_t>() == dims[i];
    }
    if (!same_shape) throw std::runtime_error("shape mismatch for " + name);
    in.ReadInto(tensor->data(), tensor->byte_size());
  }
}

void ReadStateSection(util::ByteReader& in, TrainState* state) {
  state->next_step = in.ReadU64();
  state->codec_state = ReadVector(in);
  state->sampler_state = ReadVector(in);
}

void ReadServerStateSection(util::ByteReader& in, ServerState* state) {
  state->epoch = in.ReadU64();
  state->next_step = in.ReadU64();
  state->ps_state = ReadVector(in);
  state->evicted = ReadVector(in);
  const util::ByteSpan greeted = in.ReadSpan(state->evicted.size());
  state->greeted.assign(greeted.begin(), greeted.end());
  // A ring step is at least u64 step | u32 frame count; a frame at least
  // its u32 length.
  state->replay.clear();
  state->replay.resize(ReadCount(in, 12, "replay step"));
  for (auto& entry : state->replay) {
    entry.step = in.ReadU64();
    entry.frames.resize(ReadCount(in, 4, "replay frame"));
    for (auto& frame : entry.frames) frame = ReadVector(in);
  }
}

void LoadModel(Model& model, TrainState* state, const std::string& path) {
  LoadBody(path, kMagic, kVersionChecksum, kVersionTrainState, "checkpoint",
           [&](std::uint32_t version, util::ByteReader& in) {
             if (state != nullptr && version < kVersionTrainState) {
               throw std::runtime_error(
                   "version " + std::to_string(version) +
                   " has no training-state section; cannot resume exactly");
             }
             ReadTensorSection(in, model);
             if (version >= kVersionTrainState) {
               TrainState discard;
               ReadStateSection(in, state != nullptr ? state : &discard);
             }
           });
}

}  // namespace

void SaveCheckpoint(Model& model, const std::string& path,
                    const std::string& block_codec, util::Fs* fs) {
  util::ByteBuffer blob = BeginBlob(kMagic, kVersionChecksum);
  AppendTensorSection(blob, model);
  AppendTrailer(blob);
  WriteBlob(path, blob, block_codec, "checkpoint", fs);
}

void SaveCheckpointWithState(Model& model, const TrainState& state,
                             const std::string& path,
                             const std::string& block_codec, util::Fs* fs) {
  util::ByteBuffer blob = BeginBlob(kMagic, kVersionTrainState);
  AppendTensorSection(blob, model);
  AppendStateSection(blob, state);
  AppendTrailer(blob);
  WriteBlob(path, blob, block_codec, "checkpoint", fs);
}

void LoadCheckpoint(Model& model, const std::string& path) {
  LoadModel(model, nullptr, path);
}

void LoadCheckpointState(Model& model, TrainState* state,
                         const std::string& path) {
  LoadModel(model, state, path);
}

void SaveServerCheckpoint(Model& model, const ServerState& state,
                          const std::string& path,
                          const std::string& block_codec, util::Fs* fs) {
  util::ByteBuffer blob = BeginBlob(kServerMagic, kServerVersion);
  AppendTensorSection(blob, model);
  AppendServerStateSection(blob, state);
  AppendTrailer(blob);
  WriteBlob(path, blob, block_codec, "server checkpoint", fs);
}

void LoadServerCheckpoint(Model& model, ServerState* state,
                          const std::string& path) {
  LoadBody(path, kServerMagic, kServerVersion, kServerVersion,
           "server checkpoint",
           [&](std::uint32_t, util::ByteReader& in) {
             ReadTensorSection(in, model);
             ReadServerStateSection(in, state);
           });
}

}  // namespace threelc::nn
