// Tests for model checkpointing (save/load round trips and corruption
// handling).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>

#include "nn/checkpoint.h"
#include "nn/checkpoint_manager.h"
#include "tensor/tensor_ops.h"
#include "train/model_zoo.h"
#include "util/atomic_file.h"
#include "util/crc32.h"
#include "util/fs.h"
#include "util/rng.h"

// Allocation probe: the largest single allocation made while armed, so a
// test can show a parser never sizes a buffer from a length the file lies
// about. Every non-aligned operator new/delete form is replaced, so the
// pairing stays malloc/free throughout. Sanitizer runtimes own operator
// new themselves, so sanitized builds leave it alone and skip the probe.
#if defined(__SANITIZE_ADDRESS__)
#define THREELC_ALLOCATION_PROBE 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define THREELC_ALLOCATION_PROBE 0
#endif
#endif
#ifndef THREELC_ALLOCATION_PROBE
#define THREELC_ALLOCATION_PROBE 1
#endif

namespace {
bool g_probe_armed = false;
std::size_t g_probe_largest = 0;
}  // namespace

#if THREELC_ALLOCATION_PROBE
namespace {
void* ProbedAlloc(std::size_t n) {
  if (g_probe_armed && n > g_probe_largest) g_probe_largest = n;
  return std::malloc(n == 0 ? 1 : n);
}

void* ProbedNew(std::size_t n) {
  if (void* p = ProbedAlloc(n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return ProbedNew(n); }
void* operator new[](std::size_t n) { return ProbedNew(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return ProbedAlloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return ProbedAlloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#endif

namespace threelc {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

train::MlpSpec Spec() { return {6, {16, 8}, 3, true}; }

TEST(Checkpoint, RoundTripRestoresForwardOutputs) {
  auto model = train::BuildMlp(Spec(), 1);
  const std::string path = TempPath("ckpt_roundtrip.bin");
  nn::SaveCheckpoint(model, path);

  auto restored = train::BuildMlp(Spec(), 2);  // different init
  nn::LoadCheckpoint(restored, path);

  util::Rng rng(3);
  tensor::Tensor in(tensor::Shape{4, 6});
  tensor::FillNormal(in, rng, 0.0f, 1.0f);
  EXPECT_EQ(tensor::MaxAbsDiff(model.Forward(in, false),
                               restored.Forward(in, false)),
            0.0f);
  std::remove(path.c_str());
}

TEST(Checkpoint, RestoresBatchNormBuffers) {
  auto model = train::BuildMlp(Spec(), 4);
  // Drive the BN running statistics away from their init.
  util::Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    tensor::Tensor in(tensor::Shape{32, 6});
    tensor::FillNormal(in, rng, 2.0f, 3.0f);
    model.Forward(in, true);
  }
  const std::string path = TempPath("ckpt_buffers.bin");
  nn::SaveCheckpoint(model, path);
  auto restored = train::BuildMlp(Spec(), 6);
  nn::LoadCheckpoint(restored, path);
  auto orig_buffers = model.Buffers();
  auto rest_buffers = restored.Buffers();
  ASSERT_EQ(orig_buffers.size(), rest_buffers.size());
  for (std::size_t i = 0; i < orig_buffers.size(); ++i) {
    EXPECT_EQ(tensor::MaxAbsDiff(*orig_buffers[i], *rest_buffers[i]), 0.0f);
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, MissingFileThrows) {
  auto model = train::BuildMlp(Spec(), 1);
  EXPECT_THROW(nn::LoadCheckpoint(model, TempPath("does_not_exist.bin")),
               std::runtime_error);
}

TEST(Checkpoint, BadMagicThrows) {
  const std::string path = TempPath("ckpt_bad_magic.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOPE and some garbage";
  }
  auto model = train::BuildMlp(Spec(), 1);
  EXPECT_THROW(nn::LoadCheckpoint(model, path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Checkpoint, ArchitectureMismatchThrows) {
  auto model = train::BuildMlp(Spec(), 1);
  const std::string path = TempPath("ckpt_arch.bin");
  nn::SaveCheckpoint(model, path);
  auto different = train::BuildMlp({6, {32, 8}, 3, true}, 1);
  EXPECT_THROW(nn::LoadCheckpoint(different, path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Checkpoint, TruncatedFileThrows) {
  auto model = train::BuildMlp(Spec(), 1);
  const std::string path = TempPath("ckpt_trunc.bin");
  nn::SaveCheckpoint(model, path);
  // Truncate to half.
  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size() / 2));
  }
  EXPECT_THROW(nn::LoadCheckpoint(model, path), std::runtime_error);
  std::remove(path.c_str());
}

// ---------- v2 checksum trailer ----------

TEST(Checkpoint, ChecksumRoundTripLoads) {
  auto model = train::BuildMlp(Spec(), 7);
  const std::string path = TempPath("ckpt_crc_roundtrip.bin");
  nn::SaveCheckpoint(model, path);
  auto restored = train::BuildMlp(Spec(), 8);
  nn::LoadCheckpoint(restored, path);
  util::Rng rng(9);
  tensor::Tensor in(tensor::Shape{4, 6});
  tensor::FillNormal(in, rng, 0.0f, 1.0f);
  EXPECT_EQ(tensor::MaxAbsDiff(model.Forward(in, false),
                               restored.Forward(in, false)),
            0.0f);
  std::remove(path.c_str());
}

TEST(Checkpoint, ChecksumDetectsFlippedPayloadByte) {
  auto model = train::BuildMlp(Spec(), 7);
  const std::string path = TempPath("ckpt_crc_corrupt.bin");
  nn::SaveCheckpoint(model, path);

  // Flip one byte in the middle of the tensor data region.
  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  contents[contents.size() / 2] ^= 0x01;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size()));
  }

  auto restored = train::BuildMlp(Spec(), 8);
  EXPECT_THROW(nn::LoadCheckpoint(restored, path), std::runtime_error);
  std::remove(path.c_str());
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Loads `path` with `load`, which must throw std::runtime_error whose
// message contains `want` and names the file.
template <typename Load>
void ExpectRejected(const std::string& path, const std::string& want,
                    Load load) {
  try {
    load();
    ADD_FAILURE() << path << " loaded";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(want), std::string::npos) << what;
    EXPECT_NE(what.find(path), std::string::npos) << what;
  }
}

// The trailer-less version-1 layout is refused by the version check.
TEST(Checkpoint, V1FileIsRejected) {
  auto model = train::BuildMlp(Spec(), 7);
  const std::string path = TempPath("ckpt_v1.bin");
  nn::SaveCheckpoint(model, path);
  std::string bytes = ReadFileBytes(path);
  bytes[4] = 1;                      // u32 version 2 -> 1
  bytes.resize(bytes.size() - 4);    // and no trailer, as v1 wrote it
  WriteFileBytes(path, bytes);
  auto restored = train::BuildMlp(Spec(), 8);
  ExpectRejected(path, "unsupported version 1",
                 [&] { nn::LoadCheckpoint(restored, path); });
  std::remove(path.c_str());
}

// A version-2 file cut at its trailer fails the CRC check: the last four
// body bytes are read as the trailer and do not match.
TEST(Checkpoint, MissingTrailerIsRejected) {
  auto model = train::BuildMlp(Spec(), 7);
  const std::string path = TempPath("ckpt_no_trailer.bin");
  nn::SaveCheckpoint(model, path);
  const std::string bytes = ReadFileBytes(path);
  WriteFileBytes(path, bytes.substr(0, bytes.size() - 4));
  auto restored = train::BuildMlp(Spec(), 8);
  ExpectRejected(path, "CRC32C mismatch",
                 [&] { nn::LoadCheckpoint(restored, path); });
  std::remove(path.c_str());
}

// ---------- v3 training state ----------

nn::TrainState MakeState() {
  nn::TrainState state;
  state.next_step = 41;
  state.codec_state = {0xDE, 0xAD, 0xBE, 0xEF, 0x01};
  state.sampler_state = {0x10, 0x20, 0x30};
  return state;
}

TEST(Checkpoint, V3RoundTripRestoresModelAndState) {
  auto model = train::BuildMlp(Spec(), 7);
  const std::string path = TempPath("ckpt_v3_roundtrip.bin");
  nn::SaveCheckpointWithState(model, MakeState(), path);

  auto restored = train::BuildMlp(Spec(), 8);
  nn::TrainState state;
  nn::LoadCheckpointState(restored, &state, path);
  EXPECT_EQ(state.next_step, 41u);
  EXPECT_EQ(state.codec_state, MakeState().codec_state);
  EXPECT_EQ(state.sampler_state, MakeState().sampler_state);
  util::Rng rng(9);
  tensor::Tensor in(tensor::Shape{4, 6});
  tensor::FillNormal(in, rng, 0.0f, 1.0f);
  EXPECT_EQ(tensor::MaxAbsDiff(model.Forward(in, false),
                               restored.Forward(in, false)),
            0.0f);
  std::remove(path.c_str());
}

// Plain LoadCheckpoint must accept a v3 file — readers that only want the
// model (evaluation snapshots) skip the training-state section.
TEST(Checkpoint, LoadCheckpointAcceptsV3AndSkipsState) {
  auto model = train::BuildMlp(Spec(), 7);
  const std::string path = TempPath("ckpt_v3_model_only.bin");
  nn::SaveCheckpointWithState(model, MakeState(), path);
  auto restored = train::BuildMlp(Spec(), 8);
  EXPECT_NO_THROW(nn::LoadCheckpoint(restored, path));
  util::Rng rng(9);
  tensor::Tensor in(tensor::Shape{4, 6});
  tensor::FillNormal(in, rng, 0.0f, 1.0f);
  EXPECT_EQ(tensor::MaxAbsDiff(model.Forward(in, false),
                               restored.Forward(in, false)),
            0.0f);
  std::remove(path.c_str());
}

// LoadCheckpointState demands the state section: a v2 (model-only) file is
// an error, not silently-zero state.
TEST(Checkpoint, LoadCheckpointStateRejectsV2File) {
  auto model = train::BuildMlp(Spec(), 7);
  const std::string path = TempPath("ckpt_v2_no_state.bin");
  nn::SaveCheckpoint(model, path);
  nn::TrainState state;
  EXPECT_THROW(nn::LoadCheckpointState(model, &state, path),
               std::runtime_error);
  std::remove(path.c_str());
}

TEST(Checkpoint, V3ChecksumDetectsStateCorruption) {
  auto model = train::BuildMlp(Spec(), 7);
  const std::string path = TempPath("ckpt_v3_corrupt.bin");
  nn::SaveCheckpointWithState(model, MakeState(), path);
  // Flip a byte near the end of the body — inside the training-state
  // section, before the CRC trailer.
  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  contents[contents.size() - 7] ^= 0x01;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size()));
  }
  nn::TrainState state;
  EXPECT_THROW(nn::LoadCheckpointState(model, &state, path),
               std::runtime_error);
  std::remove(path.c_str());
}

// ---------- server checkpoint ("3LCS") ----------

nn::ServerState MakeServerState() {
  nn::ServerState state;
  state.epoch = 3;
  state.next_step = 17;
  state.ps_state = {0xAA, 0xBB, 0xCC, 0x01, 0x02};
  state.evicted = {0, 1, 0};
  state.greeted = {1, 1, 0};
  nn::ServerState::ReplayStep s15;
  s15.step = 15;
  s15.frames = {{0x10, 0x11}, {0x12}};
  nn::ServerState::ReplayStep s16;
  s16.step = 16;
  s16.frames = {{0x20}, {0x21, 0x22, 0x23}};
  state.replay = {s15, s16};
  return state;
}

TEST(ServerCheckpoint, RoundTripRestoresModelAndEveryField) {
  auto model = train::BuildMlp(Spec(), 7);
  const std::string path = TempPath("sckpt_roundtrip.bin");
  nn::SaveServerCheckpoint(model, MakeServerState(), path);

  auto restored = train::BuildMlp(Spec(), 8);  // different init
  nn::ServerState state;
  nn::LoadServerCheckpoint(restored, &state, path);

  const nn::ServerState want = MakeServerState();
  EXPECT_EQ(state.epoch, want.epoch);
  EXPECT_EQ(state.next_step, want.next_step);
  EXPECT_EQ(state.ps_state, want.ps_state);
  EXPECT_EQ(state.evicted, want.evicted);
  EXPECT_EQ(state.greeted, want.greeted);
  ASSERT_EQ(state.replay.size(), want.replay.size());
  for (std::size_t i = 0; i < want.replay.size(); ++i) {
    EXPECT_EQ(state.replay[i].step, want.replay[i].step);
    EXPECT_EQ(state.replay[i].frames, want.replay[i].frames);
  }

  util::Rng rng(9);
  tensor::Tensor in(tensor::Shape{4, 6});
  tensor::FillNormal(in, rng, 0.0f, 1.0f);
  EXPECT_EQ(tensor::MaxAbsDiff(model.Forward(in, false),
                               restored.Forward(in, false)),
            0.0f);
  std::remove(path.c_str());
}

TEST(ServerCheckpoint, EveryTruncationIsRejected) {
  auto model = train::BuildMlp(Spec(), 7);
  const std::string path = TempPath("sckpt_trunc.bin");
  nn::SaveServerCheckpoint(model, MakeServerState(), path);

  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(contents.size(), 16u);

  // Sweep prefix lengths (stride keeps the test fast; the endpoints and
  // everything in between must all fail the CRC or hit a hard underflow).
  for (std::size_t len = 0; len < contents.size();
       len += (contents.size() / 97) + 1) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(contents.data(), static_cast<std::streamsize>(len));
    out.close();
    auto victim = train::BuildMlp(Spec(), 8);
    nn::ServerState state;
    EXPECT_THROW(nn::LoadServerCheckpoint(victim, &state, path),
                 std::runtime_error)
        << "truncated to " << len << " of " << contents.size() << " bytes";
  }
  std::remove(path.c_str());
}

TEST(ServerCheckpoint, FlippedByteIsRejected) {
  auto model = train::BuildMlp(Spec(), 7);
  const std::string path = TempPath("sckpt_flip.bin");
  nn::SaveServerCheckpoint(model, MakeServerState(), path);
  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  for (const std::size_t pos :
       {contents.size() / 4, contents.size() / 2, contents.size() - 5}) {
    std::string corrupt = contents;
    corrupt[pos] ^= 0x08;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(corrupt.data(), static_cast<std::streamsize>(corrupt.size()));
    out.close();
    auto victim = train::BuildMlp(Spec(), 8);
    nn::ServerState state;
    EXPECT_THROW(nn::LoadServerCheckpoint(victim, &state, path),
                 std::runtime_error)
        << "flip at byte " << pos;
  }
  std::remove(path.c_str());
}

// Offsets from the end of a MakeServerState() file, inside its last ring
// step (step 16: u64 step | u32 frame count 2 | u32 1 | 1 byte | u32 3 |
// 3 bytes), followed by the u32 trailer.
constexpr std::size_t kLastStepFrameCountFromEnd = 4 + 3 + 4 + 1 + 4 + 4;
constexpr std::size_t kLastFrameLengthFromEnd = 4 + 3 + 4;

bool SameParams(nn::Model& a, nn::Model& b) {
  auto pa = a.Params();
  auto pb = b.Params();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    if (tensor::MaxAbsDiff(*pa[i].value, *pb[i].value) != 0.0f) return false;
  }
  return true;
}

// The CRC is verified before any length field is trusted: a frame count
// raised by 2^24 (CRC left stale) fails the CRC check, naming the file,
// and the model is left untouched.
TEST(ServerCheckpoint, LyingFrameCountFailsTheCrcFirst) {
  auto model = train::BuildMlp(Spec(), 7);
  const std::string path = TempPath("sckpt_frame_count.bin");
  nn::SaveServerCheckpoint(model, MakeServerState(), path);
  std::string bytes = ReadFileBytes(path);
  const std::size_t field = bytes.size() - kLastStepFrameCountFromEnd;
  ASSERT_EQ(bytes.substr(field, 4), std::string("\x02\0\0\0", 4));
  bytes[field + 3] = 1;  // + 2^24
  WriteFileBytes(path, bytes);
  auto victim = train::BuildMlp(Spec(), 8);
  nn::ServerState state;
  ExpectRejected(path, "CRC32C mismatch",
                 [&] { nn::LoadServerCheckpoint(victim, &state, path); });
  auto untouched = train::BuildMlp(Spec(), 8);
  EXPECT_TRUE(SameParams(victim, untouched));
  std::remove(path.c_str());
}

// Past the CRC, every length is bounds-checked against the bytes present:
// a frame length pointing 64 MiB past the end (CRC fixed up to match)
// throws without allocating anything near the declared length.
TEST(ServerCheckpoint, FrameLengthPastTheEndThrowsWithoutAllocating) {
  auto model = train::BuildMlp(Spec(), 7);
  const std::string path = TempPath("sckpt_frame_len.bin");
  nn::SaveServerCheckpoint(model, MakeServerState(), path);
  std::string bytes = ReadFileBytes(path);
  const std::size_t field = bytes.size() - kLastFrameLengthFromEnd;
  ASSERT_EQ(bytes.substr(field, 4), std::string("\x03\0\0\0", 4));
  const std::uint32_t declared = std::uint32_t{1} << 26;
  std::memcpy(&bytes[field], &declared, sizeof(declared));
  const std::uint32_t crc = util::Crc32c(bytes.data() + 8, bytes.size() - 12);
  std::memcpy(&bytes[bytes.size() - 4], &crc, sizeof(crc));
  WriteFileBytes(path, bytes);

  auto victim = train::BuildMlp(Spec(), 8);
  nn::ServerState state;
  g_probe_largest = 0;
  g_probe_armed = true;
  EXPECT_THROW(nn::LoadServerCheckpoint(victim, &state, path),
               std::runtime_error);
  g_probe_armed = false;
  if (THREELC_ALLOCATION_PROBE) {
    EXPECT_LT(g_probe_largest, std::size_t{1} << 20);
  }
  std::remove(path.c_str());
}

// The two record types must not be confusable: a worker checkpoint is not
// a server checkpoint and vice versa.
TEST(ServerCheckpoint, MagicSeparatesWorkerAndServerRecords) {
  auto model = train::BuildMlp(Spec(), 7);
  const std::string worker_path = TempPath("sckpt_worker_rec.bin");
  const std::string server_path = TempPath("sckpt_server_rec.bin");
  nn::SaveCheckpoint(model, worker_path);
  nn::SaveServerCheckpoint(model, MakeServerState(), server_path);

  nn::ServerState state;
  EXPECT_THROW(nn::LoadServerCheckpoint(model, &state, worker_path),
               std::runtime_error);
  EXPECT_THROW(nn::LoadCheckpoint(model, server_path), std::runtime_error);
  std::remove(worker_path.c_str());
  std::remove(server_path.c_str());
}

// ---------- 3LCZ compressed container ----------

// A model whose tensor bytes are trivially compressible, so every codec
// shrinks the blob and the save is guaranteed to emit the container (the
// skip-if-incompressible escape never fires).
nn::Model CompressibleModel(int seed) {
  auto model = train::BuildMlp(Spec(), seed);
  float v = 0.25f;
  for (auto& p : model.Params()) {
    tensor::Tensor* t = p.value;
    for (std::int64_t i = 0; i < t->num_elements(); ++i) t->data()[i] = v;
    v += 0.125f;  // distinct per tensor so a swapped load would show
  }
  return model;
}

bool HasContainerMagic(const std::string& bytes) {
  return bytes.size() >= 4 && bytes.compare(0, 4, "3LCZ") == 0;
}

// Container header layout (checkpoint.h): magic[4] | u32 version |
// u8 codec_id | u64 raw_size | u32 raw_crc32c | u32 comp_size.
constexpr std::size_t kVersionOffset = 4;
constexpr std::size_t kCodecIdOffset = 8;
constexpr std::size_t kRawSizeOffset = 9;
constexpr std::size_t kRawCrcOffset = 17;

TEST(CompressedCheckpoint, RoundTripEveryCodecBitwiseExact) {
  auto model = CompressibleModel(7);
  const std::string bare = TempPath("zckpt_bare.bin");
  nn::SaveCheckpoint(model, bare);
  const std::size_t bare_size = ReadFileBytes(bare).size();

  for (const char* codec : {"lz", "rans", "lz+rans"}) {
    const std::string path = TempPath("zckpt_roundtrip.bin");
    nn::SaveCheckpoint(model, path, codec);
    const std::string bytes = ReadFileBytes(path);
    EXPECT_TRUE(HasContainerMagic(bytes)) << codec;
    EXPECT_LT(bytes.size(), bare_size) << codec;

    auto restored = train::BuildMlp(Spec(), 8);
    nn::LoadCheckpoint(restored, path);
    util::Rng rng(9);
    tensor::Tensor in(tensor::Shape{4, 6});
    tensor::FillNormal(in, rng, 0.0f, 1.0f);
    EXPECT_EQ(tensor::MaxAbsDiff(model.Forward(in, false),
                                 restored.Forward(in, false)),
              0.0f)
        << codec;
    std::remove(path.c_str());
  }
  std::remove(bare.c_str());
}

TEST(CompressedCheckpoint, StoreCodecWritesBareFile) {
  auto model = CompressibleModel(7);
  const std::string path = TempPath("zckpt_store.bin");
  nn::SaveCheckpoint(model, path, "store");
  EXPECT_FALSE(HasContainerMagic(ReadFileBytes(path)));
  auto restored = train::BuildMlp(Spec(), 8);
  EXPECT_NO_THROW(nn::LoadCheckpoint(restored, path));
  std::remove(path.c_str());
}

TEST(CompressedCheckpoint, UnknownCodecNameThrowsOnSave) {
  auto model = CompressibleModel(7);
  EXPECT_THROW(nn::SaveCheckpoint(model, TempPath("zckpt_unknown.bin"),
                                  "zstd"),
               std::runtime_error);
}

TEST(CompressedCheckpoint, V3StateAndServerRecordsRoundTrip) {
  auto model = CompressibleModel(7);
  const std::string wpath = TempPath("zckpt_v3.bin");
  nn::SaveCheckpointWithState(model, MakeState(), wpath, "lz+rans");
  EXPECT_TRUE(HasContainerMagic(ReadFileBytes(wpath)));
  auto restored = train::BuildMlp(Spec(), 8);
  nn::TrainState state;
  nn::LoadCheckpointState(restored, &state, wpath);
  EXPECT_EQ(state.next_step, 41u);
  EXPECT_EQ(state.codec_state, MakeState().codec_state);

  const std::string spath = TempPath("zsckpt.bin");
  nn::SaveServerCheckpoint(model, MakeServerState(), spath, "lz+rans");
  EXPECT_TRUE(HasContainerMagic(ReadFileBytes(spath)));
  auto restored2 = train::BuildMlp(Spec(), 9);
  nn::ServerState sstate;
  nn::LoadServerCheckpoint(restored2, &sstate, spath);
  EXPECT_EQ(sstate.epoch, MakeServerState().epoch);
  EXPECT_EQ(sstate.replay.size(), MakeServerState().replay.size());

  util::Rng rng(9);
  tensor::Tensor in(tensor::Shape{4, 6});
  tensor::FillNormal(in, rng, 0.0f, 1.0f);
  EXPECT_EQ(tensor::MaxAbsDiff(restored.Forward(in, false),
                               restored2.Forward(in, false)),
            0.0f);
  std::remove(wpath.c_str());
  std::remove(spath.c_str());
}

// The loader must cross-check the declared raw size against the decoded
// length independently of the CRC: a tampered size field fails even
// though the compressed payload itself is intact.
TEST(CompressedCheckpoint, DeclaredSizeMismatchIsRejected) {
  auto model = CompressibleModel(7);
  const std::string path = TempPath("zckpt_size.bin");
  nn::SaveCheckpoint(model, path, "lz+rans");
  std::string bytes = ReadFileBytes(path);
  ASSERT_TRUE(HasContainerMagic(bytes));
  bytes[kRawSizeOffset] ^= 0x01;  // raw_size off by one
  WriteFileBytes(path, bytes);
  auto victim = train::BuildMlp(Spec(), 8);
  EXPECT_THROW(nn::LoadCheckpoint(victim, path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(CompressedCheckpoint, DeclaredCrcMismatchIsRejected) {
  auto model = CompressibleModel(7);
  const std::string path = TempPath("zckpt_crc.bin");
  nn::SaveCheckpoint(model, path, "lz+rans");
  std::string bytes = ReadFileBytes(path);
  ASSERT_TRUE(HasContainerMagic(bytes));
  bytes[kRawCrcOffset] ^= 0x01;  // container CRC no longer matches
  WriteFileBytes(path, bytes);
  auto victim = train::BuildMlp(Spec(), 8);
  EXPECT_THROW(nn::LoadCheckpoint(victim, path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(CompressedCheckpoint, UnknownCodecIdIsRejected) {
  auto model = CompressibleModel(7);
  const std::string path = TempPath("zckpt_badid.bin");
  nn::SaveCheckpoint(model, path, "lz+rans");
  std::string bytes = ReadFileBytes(path);
  ASSERT_TRUE(HasContainerMagic(bytes));
  bytes[kCodecIdOffset] = static_cast<char>(0xEE);
  WriteFileBytes(path, bytes);
  auto victim = train::BuildMlp(Spec(), 8);
  EXPECT_THROW(nn::LoadCheckpoint(victim, path), std::runtime_error);
  std::remove(path.c_str());
}

// Container v2 carries the compact rans table; a v1 container (the
// 512-byte table) or any other version is refused before its payload is
// decoded, even when the payload itself is intact.
TEST(CompressedCheckpoint, OtherContainerVersionsAreRejected) {
  auto model = CompressibleModel(7);
  const std::string path = TempPath("zckpt_version.bin");
  nn::SaveCheckpoint(model, path, "rans");
  const std::string bytes = ReadFileBytes(path);
  ASSERT_TRUE(HasContainerMagic(bytes));
  EXPECT_EQ(bytes.substr(kVersionOffset, 4), std::string("\x02\0\0\0", 4));
  for (const char version : {'\x00', '\x01', '\x03'}) {
    std::string mut = bytes;
    mut[kVersionOffset] = version;
    WriteFileBytes(path, mut);
    auto victim = train::BuildMlp(Spec(), 8);
    try {
      nn::LoadCheckpoint(victim, path);
      ADD_FAILURE() << "container version " << static_cast<int>(version)
                    << " loaded";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("container version"),
                std::string::npos)
          << e.what();
    }
  }
  std::remove(path.c_str());
}

TEST(CompressedCheckpoint, ImplausibleRawSizeIsRejected) {
  auto model = CompressibleModel(7);
  const std::string path = TempPath("zckpt_hugesize.bin");
  nn::SaveCheckpoint(model, path, "lz+rans");
  std::string bytes = ReadFileBytes(path);
  ASSERT_TRUE(HasContainerMagic(bytes));
  for (int i = 0; i < 8; ++i) {
    bytes[kRawSizeOffset + i] = static_cast<char>(0xFF);
  }
  WriteFileBytes(path, bytes);
  auto victim = train::BuildMlp(Spec(), 8);
  EXPECT_THROW(nn::LoadCheckpoint(victim, path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(CompressedCheckpoint, TruncationSweepIsRejected) {
  auto model = CompressibleModel(7);
  const std::string path = TempPath("zckpt_trunc.bin");
  nn::SaveServerCheckpoint(model, MakeServerState(), path, "lz+rans");
  const std::string contents = ReadFileBytes(path);
  ASSERT_TRUE(HasContainerMagic(contents));
  for (std::size_t len = 0; len < contents.size();
       len += (contents.size() / 97) + 1) {
    WriteFileBytes(path, contents.substr(0, len));
    auto victim = train::BuildMlp(Spec(), 8);
    nn::ServerState state;
    EXPECT_THROW(nn::LoadServerCheckpoint(victim, &state, path),
                 std::runtime_error)
        << "truncated to " << len << " of " << contents.size() << " bytes";
  }
  std::remove(path.c_str());
}

TEST(CompressedCheckpoint, TrailingGarbageIsRejected) {
  auto model = CompressibleModel(7);
  const std::string path = TempPath("zckpt_trailing.bin");
  nn::SaveCheckpoint(model, path, "lz+rans");
  std::string bytes = ReadFileBytes(path);
  ASSERT_TRUE(HasContainerMagic(bytes));
  bytes += "extra";
  WriteFileBytes(path, bytes);
  auto victim = train::BuildMlp(Spec(), 8);
  EXPECT_THROW(nn::LoadCheckpoint(victim, path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(CompressedCheckpoint, CompressedPayloadFlipIsRejected) {
  auto model = CompressibleModel(7);
  const std::string path = TempPath("zckpt_payload_flip.bin");
  nn::SaveCheckpoint(model, path, "lz+rans");
  std::string bytes = ReadFileBytes(path);
  ASSERT_TRUE(HasContainerMagic(bytes));
  bytes[bytes.size() / 2] ^= 0x04;
  WriteFileBytes(path, bytes);
  auto victim = train::BuildMlp(Spec(), 8);
  EXPECT_THROW(nn::LoadCheckpoint(victim, path), std::runtime_error);
  std::remove(path.c_str());
}

// ---------- atomic write-temp + fsync + rename ----------

TEST(AtomicFile, CommitLeavesContentsAndNoTempBehind) {
  const std::string path = TempPath("atomic_commit.bin");
  std::string temp_path;
  {
    util::AtomicFileWriter w(path);
    temp_path = w.temp_path();
    // The file under construction lives at the temp sibling, not `path`.
    EXPECT_TRUE(std::ifstream(temp_path).good());
    EXPECT_FALSE(std::ifstream(path).good());
    w.Write("hello", 5);
    w.Commit();
  }
  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(contents, "hello");
  EXPECT_FALSE(std::ifstream(temp_path).good()) << "temp file leaked";
  std::remove(path.c_str());
}

TEST(AtomicFile, AbortRemovesTempAndPreservesPrevious) {
  const std::string path = TempPath("atomic_abort.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "previous";
  }
  std::string temp_path;
  {
    util::AtomicFileWriter w(path);
    temp_path = w.temp_path();
    w.Write("partial", 7);
    // Destroyed without Commit: exception-unwind path.
  }
  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(contents, "previous");
  EXPECT_FALSE(std::ifstream(temp_path).good()) << "temp file leaked";
  std::remove(path.c_str());
}

TEST(AtomicFile, StaleTempFromEarlierCrashIsOverwritten) {
  const std::string path = TempPath("atomic_stale.bin");
  // Learn this process's temp-sibling name, then plant garbage there as if
  // a previous attempt died mid-write.
  std::string temp_path;
  {
    util::AtomicFileWriter probe(path);
    temp_path = probe.temp_path();
  }
  {
    std::ofstream out(temp_path, std::ios::binary);
    out << "stale garbage from a crashed writer";
  }
  auto model = train::BuildMlp(Spec(), 7);
  nn::SaveServerCheckpoint(model, MakeServerState(), path);
  auto restored = train::BuildMlp(Spec(), 8);
  nn::ServerState state;
  EXPECT_NO_THROW(nn::LoadServerCheckpoint(restored, &state, path));
  EXPECT_EQ(state.epoch, 3u);
  EXPECT_FALSE(std::ifstream(temp_path).good()) << "temp file leaked";
  std::remove(path.c_str());
}

// ---------- CheckpointManager: generations + last-good fallback ----------

// A state whose epoch encodes which Save() produced it, so fallback tests
// can tell generations apart after a load.
nn::ServerState NumberedState(std::uint64_t n) {
  nn::ServerState state = MakeServerState();
  state.epoch = n;
  state.next_step = static_cast<std::int64_t>(n) + 100;
  return state;
}

std::string SlurpFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void SpitFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
}

void RemoveGenerations(const std::string& path) {
  std::remove(path.c_str());
  for (int g = 0; g < 32; ++g) {
    std::remove((path + ".g" + std::to_string(g)).c_str());
  }
}

TEST(CheckpointManager, SaveNumbersGenerationsAndPrunesToRetention) {
  const std::string path = TempPath("mgr_retention.sckpt");
  RemoveGenerations(path);
  auto model = train::BuildMlp(Spec(), 7);
  nn::CheckpointManager mgr({path, /*retain=*/2});
  for (std::uint64_t n = 0; n < 5; ++n) mgr.Save(model, NumberedState(n));
  EXPECT_EQ(mgr.generation_count(), 2);
  EXPECT_EQ(mgr.next_generation(), 5u);
  // g3 and g4 survive; g0..g2 were pruned.
  for (int g = 0; g < 3; ++g) {
    EXPECT_TRUE(SlurpFile(mgr.GenerationPath(g)).empty()) << g;
  }
  for (int g = 3; g < 5; ++g) {
    EXPECT_FALSE(SlurpFile(mgr.GenerationPath(g)).empty()) << g;
  }
  // The newest generation is what Load returns.
  auto restored = train::BuildMlp(Spec(), 8);
  nn::ServerState state;
  std::string error;
  ASSERT_TRUE(mgr.Load(restored, &state, &error)) << error;
  EXPECT_EQ(state.epoch, 4u);
  EXPECT_EQ(mgr.fallbacks(), 0);
  EXPECT_EQ(mgr.loaded_path(), mgr.GenerationPath(4));
  RemoveGenerations(path);
}

TEST(CheckpointManager, NumberingResumesAfterRescanNeverReuses) {
  const std::string path = TempPath("mgr_renumber.sckpt");
  RemoveGenerations(path);
  auto model = train::BuildMlp(Spec(), 7);
  {
    nn::CheckpointManager mgr({path, /*retain=*/2});
    for (std::uint64_t n = 0; n < 3; ++n) mgr.Save(model, NumberedState(n));
  }
  // A fresh incarnation scans disk (g1, g2 remain) and continues at g3.
  nn::CheckpointManager mgr({path, /*retain=*/2});
  mgr.ScanAndSweep();
  EXPECT_EQ(mgr.next_generation(), 3u);
  mgr.Save(model, NumberedState(3));
  EXPECT_FALSE(SlurpFile(mgr.GenerationPath(3)).empty());
  RemoveGenerations(path);
}

// The fallback matrix of the issue: corrupt the newest generation in each
// byte-region class (magic, header, payload, trailer) and truncate it;
// every variant must fall back to the older intact generation.
TEST(CheckpointManager, FallbackMatrixCorruptNewestEveryRegion) {
  const std::string path = TempPath("mgr_matrix.sckpt");
  RemoveGenerations(path);
  auto model = train::BuildMlp(Spec(), 7);
  nn::CheckpointManager mgr({path, /*retain=*/2});
  mgr.Save(model, NumberedState(0));
  mgr.Save(model, NumberedState(1));
  const std::string newest = mgr.GenerationPath(1);
  const std::string pristine = SlurpFile(newest);
  ASSERT_GT(pristine.size(), 32u);

  struct Corruption {
    const char* name;
    std::size_t flip_at;  // == npos for truncation
    std::size_t truncate_to;
  };
  const std::size_t kFlip = std::string::npos;
  const std::vector<Corruption> matrix = {
      {"magic", 0, kFlip},                        // "3LCS" tag
      {"header", 6, kFlip},                       // version/count region
      {"payload", pristine.size() / 2, kFlip},    // tensor bytes
      {"trailer", pristine.size() - 2, kFlip},    // CRC trailer
      {"truncated-half", kFlip, pristine.size() / 2},
      {"truncated-trailer", kFlip, pristine.size() - 3},
      {"empty", kFlip, 0},
  };
  for (const auto& c : matrix) {
    if (c.flip_at != kFlip) {
      std::string corrupt = pristine;
      corrupt[c.flip_at] ^= 0x04;
      SpitFile(newest, corrupt);
    } else {
      SpitFile(newest, pristine.substr(0, c.truncate_to));
    }
    nn::CheckpointManager victim({path, /*retain=*/2});
    auto restored = train::BuildMlp(Spec(), 8);
    nn::ServerState state;
    std::string error;
    ASSERT_TRUE(victim.Load(restored, &state, &error))
        << c.name << ": " << error;
    EXPECT_EQ(state.epoch, 0u) << c.name;  // the older generation's state
    EXPECT_EQ(victim.fallbacks(), 1) << c.name;
    EXPECT_EQ(victim.loaded_path(), victim.GenerationPath(0)) << c.name;
    ASSERT_EQ(victim.fallback_log().size(), 1u) << c.name;
    EXPECT_NE(victim.fallback_log()[0].find("unusable"), std::string::npos)
        << victim.fallback_log()[0];
  }
  RemoveGenerations(path);
}

TEST(CheckpointManager, AllGenerationsBadIsACleanError) {
  const std::string path = TempPath("mgr_allbad.sckpt");
  RemoveGenerations(path);
  auto model = train::BuildMlp(Spec(), 7);
  nn::CheckpointManager mgr({path, /*retain=*/2});
  mgr.Save(model, NumberedState(0));
  mgr.Save(model, NumberedState(1));
  for (int g = 0; g < 2; ++g) {
    std::string bytes = SlurpFile(mgr.GenerationPath(g));
    bytes[bytes.size() / 2] ^= 0x10;
    SpitFile(mgr.GenerationPath(g), bytes);
  }
  nn::CheckpointManager victim({path, /*retain=*/2});
  auto restored = train::BuildMlp(Spec(), 8);
  nn::ServerState state;
  std::string error;
  EXPECT_FALSE(victim.Load(restored, &state, &error));
  EXPECT_NE(error.find("no usable checkpoint"), std::string::npos) << error;
  EXPECT_EQ(victim.fallbacks(), 2);
  RemoveGenerations(path);
}

TEST(CheckpointManager, NoFilesAtAllIsACleanError) {
  const std::string path = TempPath("mgr_nothing.sckpt");
  RemoveGenerations(path);
  nn::CheckpointManager mgr({path, /*retain=*/2});
  auto model = train::BuildMlp(Spec(), 8);
  nn::ServerState state;
  std::string error;
  EXPECT_FALSE(mgr.Load(model, &state, &error));
  EXPECT_NE(error.find("no usable checkpoint"), std::string::npos) << error;
}

// Only generation files are candidates: a checkpoint at the bare path is
// never read.
TEST(CheckpointManager, BarePathFileIsNotLoaded) {
  const std::string path = TempPath("mgr_bare.sckpt");
  RemoveGenerations(path);
  auto model = train::BuildMlp(Spec(), 7);
  nn::SaveServerCheckpoint(model, NumberedState(41), path);
  nn::CheckpointManager mgr({path, /*retain=*/2});
  auto restored = train::BuildMlp(Spec(), 8);
  nn::ServerState state;
  std::string error;
  EXPECT_FALSE(mgr.Load(restored, &state, &error));
  EXPECT_NE(error.find("no generations found"), std::string::npos) << error;
  EXPECT_TRUE(mgr.loaded_path().empty());
  RemoveGenerations(path);
}

TEST(CheckpointManager, SaveThrowsOnInjectedDiskFull) {
  const std::string path = TempPath("mgr_enospc.sckpt");
  RemoveGenerations(path);
  auto model = train::BuildMlp(Spec(), 7);
  util::FaultFs fault(util::Fs::Real(), /*seed=*/5);
  std::string spec_error;
  ASSERT_TRUE(fault.AddRulesFromSpec("enospc:write@any#*", &spec_error))
      << spec_error;
  nn::CheckpointManager::Options options;
  options.path = path;
  options.fs = &fault;
  nn::CheckpointManager mgr(options);
  EXPECT_THROW(mgr.Save(model, NumberedState(0)), std::runtime_error);
  EXPECT_GT(fault.faults_injected(), 0u);
  // The failed generation number is not consumed: a retry (now that the
  // "disk" has space again) lands at the same g0.
  EXPECT_EQ(mgr.next_generation(), 0u);
  util::FaultFs clean(util::Fs::Real(), /*seed=*/5);
  nn::CheckpointManager::Options retry_options;
  retry_options.path = path;
  retry_options.fs = &clean;
  nn::CheckpointManager retry(retry_options);
  retry.Save(model, NumberedState(0));
  EXPECT_FALSE(SlurpFile(retry.GenerationPath(0)).empty());
  RemoveGenerations(path);
}

// ---------- golden bytes: the writer's output is pinned ----------

// Every tensor value and state byte is a formula of its index, so these
// files depend on the checkpoint writer alone, not on an initializer.
nn::Model GoldenModel() {
  auto model = train::BuildMlp(Spec(), 1);
  std::vector<tensor::Tensor*> tensors;
  for (auto& p : model.Params()) tensors.push_back(p.value);
  for (tensor::Tensor* b : model.Buffers()) tensors.push_back(b);
  for (std::size_t k = 0; k < tensors.size(); ++k) {
    float* data = tensors[k]->data();
    for (std::int64_t i = 0; i < tensors[k]->num_elements(); ++i) {
      const auto step = (i * 37 + static_cast<std::int64_t>(k) * 11) % 101;
      data[i] = static_cast<float>(step) / 64.0f - 0.75f;
    }
  }
  return model;
}

std::vector<std::uint8_t> GoldenBytes(std::size_t n, std::size_t salt) {
  std::vector<std::uint8_t> bytes(n);
  for (std::size_t i = 0; i < n; ++i) {
    bytes[i] = static_cast<std::uint8_t>((i * 7 + salt) % 13 * 19);
  }
  return bytes;
}

nn::TrainState GoldenTrainState() {
  nn::TrainState state;
  state.next_step = 41;
  state.codec_state = GoldenBytes(96, 1);
  state.sampler_state = GoldenBytes(24, 2);
  return state;
}

nn::ServerState GoldenServerState() {
  nn::ServerState state;
  state.epoch = 4;
  state.next_step = 9;
  state.ps_state = GoldenBytes(300, 3);
  state.evicted = {0, 0, 1};
  state.greeted = {1, 1, 1};
  for (std::uint64_t step : {7, 8}) {
    nn::ServerState::ReplayStep entry;
    entry.step = step;
    entry.frames = {GoldenBytes(40, step), GoldenBytes(0, step),
                    GoldenBytes(180, step + 5)};
    state.replay.push_back(std::move(entry));
  }
  return state;
}

// CRC32C of whole files, recorded from the writer. The layout is an
// on-disk format: a change to any of these values is a format change and
// needs a version bump, not a new constant.
struct GoldenFile {
  const char* codec;
  std::uint32_t train_state_crc;  // SaveCheckpointWithState
  std::uint32_t server_crc;       // SaveServerCheckpoint
};
constexpr GoldenFile kGoldenFiles[] = {
    {"store", 0x62ba3344u, 0xdcac6213u},
    {"lz", 0xcb045b6bu, 0x74f56484u},
    {"lz+rans", 0xe5008178u, 0x3ca73e32u},
};

TEST(CheckpointGolden, FilesAreByteIdenticalToTheRecordedWriter) {
  auto model = GoldenModel();
  const std::string path = TempPath("golden.bin");
  for (const GoldenFile& golden : kGoldenFiles) {
    const bool wrapped = std::string(golden.codec) != "store";
    nn::SaveCheckpointWithState(model, GoldenTrainState(), path,
                                golden.codec);
    std::string bytes = ReadFileBytes(path);
    EXPECT_EQ(HasContainerMagic(bytes), wrapped) << golden.codec;
    EXPECT_EQ(util::Crc32c(bytes.data(), bytes.size()),
              golden.train_state_crc)
        << golden.codec;

    nn::SaveServerCheckpoint(model, GoldenServerState(), path, golden.codec);
    bytes = ReadFileBytes(path);
    EXPECT_EQ(HasContainerMagic(bytes), wrapped) << golden.codec;
    EXPECT_EQ(util::Crc32c(bytes.data(), bytes.size()), golden.server_crc)
        << golden.codec;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace threelc
