#include "simrank/index/walk_store.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>

#include "simrank/common/file_util.h"
#include "simrank/common/macros.h"
#include "simrank/common/simd.h"
#include "simrank/common/stream_hash.h"
#include "simrank/common/string_util.h"
#include "simrank/common/thread_pool.h"
#include "simrank/common/varint.h"
#include "simrank/index/delta_overlay.h"
#include "simrank/index/segment_reader.h"

#if defined(__unix__) || defined(__APPLE__)
#define OIPSIM_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace simrank {
namespace {

// v2 format constants. The magic is shared with v1 (the version field
// distinguishes them, which is what lets Load name the version it found).
constexpr uint32_t kIndexMagic = 0x58444957;  // "WIDX"
constexpr uint32_t kIndexVersion = 2;
constexpr uint64_t kPageSize = 4096;
constexpr size_t kHeaderBytes = 104;
// Domain salts of the three header checksums. Part of the on-disk format.
constexpr uint64_t kHeaderSalt = 0x5349574b32484452ULL;     // "SIWK2HDR"
constexpr uint64_t kDirectorySalt = 0x5349574b32444952ULL;  // "SIWK2DIR"
constexpr uint64_t kPayloadSalt = 0x5349574b32504159ULL;    // "SIWK2PAY"

constexpr uint32_t kFlagCompressedSegments = 1u << 0;

constexpr uint32_t kDead = WalkStore::kDeadWalk;

uint64_t AlignUp(uint64_t value, uint64_t alignment) {
  return (value + alignment - 1) / alignment * alignment;
}

uint64_t DampingBits(double damping) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(damping));
  std::memcpy(&bits, &damping, sizeof(bits));
  return bits;
}

double DampingFromBits(uint64_t bits) {
  double damping = 0;
  std::memcpy(&damping, &bits, sizeof(damping));
  return damping;
}

template <typename T>
T ReadScalar(const uint8_t* bytes) {
  T value;
  std::memcpy(&value, bytes, sizeof(T));
  return value;
}

template <typename T>
void WriteScalar(uint8_t* bytes, T value) {
  std::memcpy(bytes, &value, sizeof(T));
}

void AppendWord(std::vector<uint8_t>* out, uint32_t value) {
  const size_t at = out->size();
  out->resize(at + sizeof(value));
  std::memcpy(out->data() + at, &value, sizeof(value));
}

/// RAII FILE handle so every early return closes the stream.
struct FileCloser {
  explicit FileCloser(std::FILE* f) : file(f) {}
  ~FileCloser() {
    if (file != nullptr) std::fclose(file);
  }
  std::FILE* file;
};

/// Everything the fixed-size header declares, after validation against the
/// real file size.
struct ParsedLayout {
  WalkStoreMeta meta;
  bool compressed = false;
  uint64_t directory_offset = 0;
  uint64_t segments_offset = 0;
  uint64_t inverted_offset = 0;
  uint64_t file_size = 0;
  uint64_t payload_checksum = 0;
  uint64_t directory_checksum = 0;
  uint64_t num_slots = 0;       // R·L
  uint64_t directory_bytes = 0;  // 8·(n+1 + num_slots+1)
};

/// Parses and validates the v2 header. `available` is how many bytes of
/// `bytes` are readable (>= kHeaderBytes for a well-formed file);
/// `file_size` is the real on-disk size, checked against the declared one
/// so truncation is reported with the exact missing range.
Result<ParsedLayout> ParseHeaderBytes(const uint8_t* bytes, size_t available,
                                      uint64_t file_size,
                                      const std::string& path) {
  if (available < 8) {
    return Status::ParseError(
        StrFormat("%s is not a walk index: only %llu bytes, the magic and "
                  "version alone need 8",
                  path.c_str(), static_cast<unsigned long long>(file_size)));
  }
  const uint32_t magic = ReadScalar<uint32_t>(bytes);
  if (magic != kIndexMagic) {
    return Status::ParseError(
        StrFormat("%s is not a walk index file: magic 0x%08x at offset 0, "
                  "expected 0x%08x",
                  path.c_str(), magic, kIndexMagic));
  }
  const uint32_t version = ReadScalar<uint32_t>(bytes + 4);
  if (version != kIndexVersion) {
    return Status::ParseError(StrFormat(
        "walk index version %u found in %s but this build supports only "
        "version %u; rebuild the index with 'simrank_cli build-index' "
        "(v1 flat indexes cannot be served in place)",
        version, path.c_str(), kIndexVersion));
  }
  if (available < kHeaderBytes) {
    return Status::ParseError(StrFormat(
        "truncated walk index header in %s: %llu bytes on disk, the v2 "
        "header is %zu (corruption from offset %llu)",
        path.c_str(), static_cast<unsigned long long>(file_size),
        kHeaderBytes, static_cast<unsigned long long>(file_size)));
  }

  ParsedLayout layout;
  layout.meta.n = ReadScalar<uint32_t>(bytes + 8);
  layout.meta.num_fingerprints = ReadScalar<uint32_t>(bytes + 12);
  layout.meta.walk_length = ReadScalar<uint32_t>(bytes + 16);
  const uint32_t flags = ReadScalar<uint32_t>(bytes + 20);
  layout.meta.seed = ReadScalar<uint64_t>(bytes + 24);
  layout.meta.damping = DampingFromBits(ReadScalar<uint64_t>(bytes + 32));
  layout.meta.graph_fingerprint = ReadScalar<uint64_t>(bytes + 40);
  layout.directory_offset = ReadScalar<uint64_t>(bytes + 48);
  layout.segments_offset = ReadScalar<uint64_t>(bytes + 56);
  layout.inverted_offset = ReadScalar<uint64_t>(bytes + 64);
  layout.file_size = ReadScalar<uint64_t>(bytes + 72);
  layout.payload_checksum = ReadScalar<uint64_t>(bytes + 80);
  layout.directory_checksum = ReadScalar<uint64_t>(bytes + 88);
  const uint64_t stored_header_checksum = ReadScalar<uint64_t>(bytes + 96);

  StreamHasher hasher(kHeaderSalt);
  hasher.AbsorbBytes(bytes, kHeaderBytes - sizeof(uint64_t));
  if (hasher.digest() != stored_header_checksum) {
    return Status::ParseError(
        StrFormat("walk index header checksum mismatch in %s (bytes 0..%zu)",
                  path.c_str(), kHeaderBytes - sizeof(uint64_t)));
  }

  if (flags & ~kFlagCompressedSegments) {
    return Status::ParseError(
        StrFormat("unknown flag bits 0x%08x in walk index %s", flags,
                  path.c_str()));
  }
  layout.compressed = (flags & kFlagCompressedSegments) != 0;

  if (layout.meta.num_fingerprints == 0 || layout.meta.walk_length == 0 ||
      !(layout.meta.damping > 0.0 && layout.meta.damping < 1.0)) {
    return Status::ParseError(
        "invalid options in walk index header: " + path);
  }
  if (layout.meta.walk_length > kMaxWalkLength) {
    return Status::ParseError(StrFormat(
        "walk index %s declares walk_length %u, beyond the format maximum "
        "%u",
        path.c_str(), layout.meta.walk_length, kMaxWalkLength));
  }

  if (layout.file_size != file_size) {
    if (file_size < layout.file_size) {
      return Status::ParseError(StrFormat(
          "walk index %s is truncated: %llu bytes on disk, header declares "
          "%llu — data missing from offset %llu onwards",
          path.c_str(), static_cast<unsigned long long>(file_size),
          static_cast<unsigned long long>(layout.file_size),
          static_cast<unsigned long long>(file_size)));
    }
    return Status::ParseError(StrFormat(
        "walk index %s has %llu trailing bytes beyond the declared size "
        "%llu (corruption from offset %llu)",
        path.c_str(),
        static_cast<unsigned long long>(file_size - layout.file_size),
        static_cast<unsigned long long>(layout.file_size),
        static_cast<unsigned long long>(layout.file_size)));
  }

  layout.num_slots = static_cast<uint64_t>(layout.meta.num_fingerprints) *
                     layout.meta.walk_length;
  // 128-bit so a crafted header can neither wrap the directory size nor
  // slip a huge one past the region checks.
  const auto wide_dir_bytes =
      (static_cast<unsigned __int128>(layout.meta.n) + 1 +
       layout.num_slots + 1) *
      8;
  const bool regions_ok =
      layout.directory_offset == kPageSize &&
      layout.segments_offset % kPageSize == 0 &&
      layout.inverted_offset % kPageSize == 0 &&
      layout.segments_offset >= layout.directory_offset &&
      layout.inverted_offset >= layout.segments_offset &&
      layout.inverted_offset <= layout.file_size &&
      wide_dir_bytes <=
          layout.segments_offset - layout.directory_offset;
  if (!regions_ok) {
    return Status::ParseError(StrFormat(
        "walk index %s declares inconsistent regions: directory at %llu, "
        "segments at %llu, inverted index at %llu, file size %llu",
        path.c_str(),
        static_cast<unsigned long long>(layout.directory_offset),
        static_cast<unsigned long long>(layout.segments_offset),
        static_cast<unsigned long long>(layout.inverted_offset),
        static_cast<unsigned long long>(layout.file_size)));
  }
  layout.directory_bytes = static_cast<uint64_t>(wide_dir_bytes);

  // Geometry sanity beyond the directory: every vertex segment stores at
  // least a walk-length prefix per fingerprint ((compressed ? 1 : 4)
  // bytes), so the segment region must hold n·R·min bytes — a crafted
  // header cannot declare a walk table the file plainly does not back
  // (the v1 loader made the equivalent promise). Dead-walk compression
  // still allows up to 4·(L+1)× decode amplification of real bytes; a
  // pathological-but-consistent file therefore fails with a clean
  // allocation error, never a wrapped size: the decoded extent is
  // computed in 128 bits and capped before any resize.
  const auto wide_min_segment_bytes =
      static_cast<unsigned __int128>(layout.meta.n) *
      layout.meta.num_fingerprints * (layout.compressed ? 1 : 4);
  if (wide_min_segment_bytes >
      layout.inverted_offset - layout.segments_offset) {
    return Status::ParseError(StrFormat(
        "walk index %s: segment region holds %llu bytes, too small for "
        "the declared geometry (n=%u, R=%u need at least %llu)",
        path.c_str(),
        static_cast<unsigned long long>(layout.inverted_offset -
                                        layout.segments_offset),
        layout.meta.n, layout.meta.num_fingerprints,
        static_cast<unsigned long long>(wide_min_segment_bytes)));
  }
  const auto wide_decoded_words =
      static_cast<unsigned __int128>(layout.meta.n) *
      layout.meta.num_fingerprints *
      (static_cast<uint64_t>(layout.meta.walk_length) + 1);
  if (wide_decoded_words > (1ULL << 58)) {
    return Status::ParseError(StrFormat(
        "walk index %s declares a decoded walk table beyond addressable "
        "memory (n=%u, R=%u, L=%u)",
        path.c_str(), layout.meta.n, layout.meta.num_fingerprints,
        layout.meta.walk_length));
  }
  return layout;
}

/// Validates the directory arrays: monotone, within their regions, blob
/// sizes well-formed.
Status ValidateDirectory(const ParsedLayout& layout, const uint64_t* seg_rel,
                         const uint64_t* inv_rel, const std::string& path) {
  const uint64_t segments_capacity =
      layout.inverted_offset - layout.segments_offset;
  if (seg_rel[0] != 0 || seg_rel[layout.meta.n] > segments_capacity) {
    return Status::ParseError(StrFormat(
        "walk index %s: segment directory spans [%llu, %llu) but the "
        "segment region holds %llu bytes",
        path.c_str(), static_cast<unsigned long long>(seg_rel[0]),
        static_cast<unsigned long long>(seg_rel[layout.meta.n]),
        static_cast<unsigned long long>(segments_capacity)));
  }
  for (uint32_t v = 0; v < layout.meta.n; ++v) {
    if (seg_rel[v] > seg_rel[v + 1]) {
      return Status::ParseError(StrFormat(
          "walk index %s: segment directory not monotone at vertex %u "
          "(directory byte offset %llu)",
          path.c_str(), v,
          static_cast<unsigned long long>(layout.directory_offset +
                                          static_cast<uint64_t>(v) * 8)));
    }
  }
  const uint64_t inverted_capacity =
      layout.file_size - layout.inverted_offset;
  if (inv_rel[0] != 0 || inv_rel[layout.num_slots] != inverted_capacity) {
    return Status::ParseError(StrFormat(
        "walk index %s: inverted-index directory covers %llu bytes but the "
        "region holds %llu",
        path.c_str(),
        static_cast<unsigned long long>(inv_rel[layout.num_slots]),
        static_cast<unsigned long long>(inverted_capacity)));
  }
  const uint64_t max_blob = static_cast<uint64_t>(layout.meta.n) * 8;
  for (uint64_t s = 0; s < layout.num_slots; ++s) {
    const bool ok = inv_rel[s] <= inv_rel[s + 1] &&
                    (inv_rel[s + 1] - inv_rel[s]) % 8 == 0 &&
                    inv_rel[s + 1] - inv_rel[s] <= max_blob;
    if (!ok) {
      return Status::ParseError(StrFormat(
          "walk index %s: inverted-index directory corrupt at slot %llu "
          "(directory byte offset %llu)",
          path.c_str(), static_cast<unsigned long long>(s),
          static_cast<unsigned long long>(
              layout.directory_offset +
              (static_cast<uint64_t>(layout.meta.n) + 1 + s) * 8)));
    }
  }
  return Status::OK();
}

uint64_t PayloadChecksum(const uint8_t* segments, uint64_t segment_bytes,
                         const uint8_t* inverted, uint64_t inverted_bytes) {
  StreamHasher hasher(kPayloadSalt);
  hasher.AbsorbBytes(segments, segment_bytes);
  hasher.AbsorbBytes(inverted, inverted_bytes);
  return hasher.digest();
}

uint64_t DirectoryChecksum(const uint8_t* directory, uint64_t bytes) {
  StreamHasher hasher(kDirectorySalt);
  hasher.AbsorbBytes(directory, bytes);
  return hasher.digest();
}

/// Decodes one vertex's segment [begin, end) into `out` (WalkWords()
/// layout). `abs_offset` is begin's absolute file offset, used to report
/// the exact corruption site.
Status DecodeSegment(const WalkStoreMeta& meta, bool compressed, VertexId v,
                     const uint8_t* begin, const uint8_t* end,
                     uint64_t abs_offset, const std::string& path,
                     uint32_t* out) {
  const uint32_t L = meta.walk_length;
  const size_t row = static_cast<size_t>(L) + 1;
  for (uint32_t r = 0; r < meta.num_fingerprints; ++r) {
    out[r * row] = v;
    for (uint32_t t = 1; t <= L; ++t) out[r * row + t] = kDead;
  }
  const uint8_t* cursor = begin;
  auto corrupt = [&](const char* what) {
    return Status::ParseError(StrFormat(
        "walk segment of vertex %u in %s: %s at byte offset %llu", v,
        path.c_str(), what,
        static_cast<unsigned long long>(abs_offset + (cursor - begin))));
  };
  const SimdLevel simd = ActiveSimdLevel();
  for (uint32_t r = 0; r < meta.num_fingerprints; ++r) {
    uint32_t length = 0;
    if (compressed) {
      if (!DecodeVarint32(&cursor, end, &length)) {
        return corrupt("malformed walk-length varint");
      }
    } else {
      if (end - cursor < 4) return corrupt("truncated walk length");
      length = ReadScalar<uint32_t>(cursor);
      cursor += 4;
    }
    if (length > L) return corrupt("walk length exceeds walk_length");
    uint32_t prev = v;
    uint32_t t = 1;
    // Vector fast path: bulk-decode a validated prefix of this walk. The
    // kernels commit only whole in-range chunks and leave the cursor at
    // the first byte they did not consume, so the scalar loop below picks
    // up the tail — and is the only place malformed bytes are diagnosed,
    // at the same offsets as a scalar-only decode.
    if (simd != SimdLevel::kScalar && length > 0) {
      uint32_t* dst = out + r * row;
      const size_t bulk =
          compressed
              ? DecodeDeltaRun(simd, &cursor, end, prev, meta.n, dst + 1,
                               length)
              : CopyCheckedWords(simd, &cursor, end, meta.n, dst + 1,
                                 length);
      if (bulk > 0) {
        t += static_cast<uint32_t>(bulk);
        prev = dst[bulk];
      }
    }
    for (; t <= length; ++t) {
      uint32_t position = 0;
      if (compressed) {
        uint64_t zigzag = 0;
        if (!DecodeVarint64(&cursor, end, &zigzag)) {
          return corrupt("malformed position-delta varint");
        }
        // Legal deltas have magnitude < n, so their zigzag codes are
        // < 2n. Reject larger ones *before* decoding: it keeps the
        // int64 addition below overflow-free (UB) for any input.
        if (zigzag >= 2 * static_cast<uint64_t>(meta.n)) {
          return corrupt("position delta out of range");
        }
        const int64_t value =
            static_cast<int64_t>(prev) + ZigZagDecode64(zigzag);
        if (value < 0 || value >= static_cast<int64_t>(meta.n)) {
          return corrupt("decoded position out of range");
        }
        position = static_cast<uint32_t>(value);
      } else {
        if (end - cursor < 4) return corrupt("truncated position");
        position = ReadScalar<uint32_t>(cursor);
        cursor += 4;
        if (position >= meta.n) return corrupt("position out of range");
      }
      out[r * row + t] = position;
      prev = position;
    }
  }
  if (cursor != end) return corrupt("trailing bytes after the last walk");
  return Status::OK();
}

/// Reads the whole file into `out`. Returns the real size even on short
/// files so callers can report it.
Status ReadFileBytes(const std::string& path, std::vector<uint8_t>* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IoError("cannot open: " + path);
  FileCloser closer(f);
  if (std::fseek(f, 0, SEEK_END) != 0) {
    return Status::IoError("cannot seek: " + path);
  }
  const int64_t size = std::ftell(f);
  if (size < 0 || std::fseek(f, 0, SEEK_SET) != 0) {
    return Status::IoError("cannot seek: " + path);
  }
  out->resize(static_cast<size_t>(size));
  if (size > 0 &&
      std::fread(out->data(), 1, out->size(), f) != out->size()) {
    return Status::IoError("short read: " + path);
  }
  return Status::OK();
}

}  // namespace

std::span<const VertexId> WalkStore::Bucket(uint32_t r, uint32_t t,
                                            uint32_t position) const {
  const SlotView slot = Slot(r, t);
  // Exactly std::equal_range at every dispatch level.
  const EqualRange range =
      EqualRangeU32(ActiveSimdLevel(), slot.positions, slot.count, position);
  return {slot.vertices + range.begin, range.end - range.begin};
}

// --------------------------------------------------------------- encoder

namespace {

/// Appends vertex `v`'s segment, encoded from its decoded walks `row`
/// (WalkWords layout): per fingerprint, the walk's alive length, then its
/// positions — raw words, or zigzag varint deltas from the previous
/// position (the vertex itself for step 1). The one segment encoder
/// behind Encode and EncodeMerged.
void AppendSegment(const WalkStoreMeta& meta, bool compress, VertexId v,
                   const uint32_t* row, std::vector<uint8_t>* out) {
  const uint32_t L = meta.walk_length;
  for (uint32_t r = 0; r < meta.num_fingerprints; ++r) {
    const uint32_t* walk = row + static_cast<size_t>(r) * (L + 1);
    uint32_t length = 0;
    while (length < L && walk[length + 1] != kDead) ++length;
    if (compress) {
      AppendVarint32(out, length);
      uint32_t prev = v;
      for (uint32_t t = 1; t <= length; ++t) {
        AppendVarint64(out, ZigZagEncode64(static_cast<int64_t>(walk[t]) -
                                           static_cast<int64_t>(prev)));
        prev = walk[t];
      }
    } else {
      AppendWord(out, length);
      for (uint32_t t = 1; t <= length; ++t) AppendWord(out, walk[t]);
    }
  }
}

/// Where an image's regions start, fixed once its directory is complete.
struct ImageLayout {
  uint64_t segments_offset = 0;
  uint64_t inverted_offset = 0;
  uint64_t file_size = 0;
};

/// Sizes `image` for a complete directory — seg_rel[n+1] then
/// inv_rel[R·L+1], whose last entries are the two region sizes —
/// zero-fills it, so every alignment pad is zero, and copies the
/// directory in.
ImageLayout StartImage(std::span<const uint64_t> directory, uint32_t n,
                       std::vector<uint8_t>* image) {
  const uint64_t directory_bytes = directory.size() * sizeof(uint64_t);
  ImageLayout layout;
  layout.segments_offset = AlignUp(kPageSize + directory_bytes, kPageSize);
  layout.inverted_offset =
      AlignUp(layout.segments_offset + directory[n], kPageSize);
  layout.file_size = layout.inverted_offset + directory.back();
  image->assign(layout.file_size, 0);
  std::memcpy(image->data() + kPageSize, directory.data(), directory_bytes);
  return layout;
}

/// Writes the header of a filled image, its three checksums last.
/// Checksums cover the full page-padded region extents (the inverted
/// region ends the file, so it has none): a flipped byte anywhere in the
/// file — even in alignment padding — fails exactly one of the three.
/// The directory checksum's extent starts right after the 104 header
/// bytes so the header page's own padding is covered too.
void SealImage(const WalkStoreMeta& meta, bool compress,
               const ImageLayout& layout, uint8_t* image) {
  uint8_t* header = image;
  WriteScalar<uint32_t>(header + 0, kIndexMagic);
  WriteScalar<uint32_t>(header + 4, kIndexVersion);
  WriteScalar<uint32_t>(header + 8, meta.n);
  WriteScalar<uint32_t>(header + 12, meta.num_fingerprints);
  WriteScalar<uint32_t>(header + 16, meta.walk_length);
  WriteScalar<uint32_t>(header + 20, compress ? kFlagCompressedSegments : 0u);
  WriteScalar<uint64_t>(header + 24, meta.seed);
  WriteScalar<uint64_t>(header + 32, DampingBits(meta.damping));
  WriteScalar<uint64_t>(header + 40, meta.graph_fingerprint);
  WriteScalar<uint64_t>(header + 48, kPageSize);  // directory offset
  WriteScalar<uint64_t>(header + 56, layout.segments_offset);
  WriteScalar<uint64_t>(header + 64, layout.inverted_offset);
  WriteScalar<uint64_t>(header + 72, layout.file_size);
  WriteScalar<uint64_t>(
      header + 80,
      PayloadChecksum(image + layout.segments_offset,
                      layout.inverted_offset - layout.segments_offset,
                      image + layout.inverted_offset,
                      layout.file_size - layout.inverted_offset));
  WriteScalar<uint64_t>(
      header + 88, DirectoryChecksum(image + kHeaderBytes,
                                     layout.segments_offset - kHeaderBytes));
  StreamHasher header_hasher(kHeaderSalt);
  header_hasher.AbsorbBytes(header, kHeaderBytes - sizeof(uint64_t));
  WriteScalar<uint64_t>(header + 96, header_hasher.digest());
}

/// Runs fn(i) for every i in [0, count): over `pool`, or inline without one.
void ForEachIndex(ThreadPool* pool, uint64_t count,
                  const std::function<void(uint64_t)>& fn) {
  if (pool != nullptr) {
    pool->ParallelFor(0, count, fn);
    return;
  }
  for (uint64_t i = 0; i < count; ++i) fn(i);
}

/// Writes the `count` entries of base slot + diff into a new blob's
/// parallel arrays, in (position, vertex) order — the order Encode's
/// counting sort produces. False when the diff does not fit the base: a
/// `removed` entry missing from it, or a result other than `count` long.
bool MergeSlot(const WalkStore::SlotView& base,
               const DeltaOverlay::SlotDelta& delta, uint64_t count,
               uint32_t* positions, uint32_t* vertices) {
  auto removed = delta.removed.begin();
  auto added = delta.added.begin();
  uint64_t out = 0;
  auto emit = [&](const OverlayEntry& entry) {
    if (out == count) return false;
    positions[out] = entry.position;
    vertices[out] = entry.vertex;
    ++out;
    return true;
  };
  for (size_t i = 0; i < base.count; ++i) {
    const OverlayEntry entry{base.positions[i], base.vertices[i]};
    if (removed != delta.removed.end() && *removed == entry) {
      ++removed;
      continue;
    }
    for (; added != delta.added.end() && *added < entry; ++added) {
      if (!emit(*added)) return false;
    }
    if (!emit(entry)) return false;
  }
  for (; added != delta.added.end(); ++added) {
    if (!emit(*added)) return false;
  }
  return removed == delta.removed.end() && out == count;
}

}  // namespace

std::unique_ptr<WalkStore> WalkStore::Adopt(std::vector<uint8_t> image) {
  std::unique_ptr<WalkStore> store(new WalkStore());
  store->path_ = "(encoded walk image)";
  store->owned_ = std::move(image);
  store->data_ = store->owned_.data();
  store->size_ = store->owned_.size();
  const Status attached = store->Attach(store->size_);
  OIPSIM_CHECK_MSG(attached.ok(), "walk encoder produced a bad image: %s",
                   attached.ToString().c_str());
  return store;
}

std::unique_ptr<WalkStore> WalkStore::Encode(const WalkStoreMeta& meta,
                                             std::span<const uint32_t> walks,
                                             bool compress,
                                             uint32_t num_threads) {
  const uint32_t n = meta.n;
  const uint32_t L = meta.walk_length;
  const size_t row = static_cast<size_t>(L) + 1;
  const uint64_t num_slots =
      static_cast<uint64_t>(meta.num_fingerprints) * L;
  OIPSIM_CHECK_EQ(walks.size(), meta.num_fingerprints * row * n);
  // The n positions of fingerprint r's walks after t steps.
  auto column = [&](uint64_t r, uint32_t t) {
    return walks.data() + (r * row + t) * n;
  };

  // Directory: seg_rel[n+1] then inv_rel[num_slots+1], filled as the
  // regions are encoded.
  std::vector<uint64_t> directory(n + 1 + num_slots + 1, 0);
  uint64_t* seg_rel = directory.data();
  uint64_t* inv_rel = seg_rel + n + 1;

  // Per-vertex segments, encoded in parallel over contiguous vertex
  // blocks and laid out in block order, so the bytes do not depend on the
  // thread count. Each block gathers its rows a tile of vertices at a
  // time, reading every table column sequentially. seg_rel[v + 1] holds
  // v's size until the prefix sum.
  const size_t words = meta.num_fingerprints * row;
  ThreadPool pool(num_threads);
  const uint64_t num_blocks =
      std::min<uint64_t>(n, uint64_t{pool.num_threads()} * 4);
  std::vector<std::vector<uint8_t>> block_segments(num_blocks);
  pool.ParallelFor(0, num_blocks, [&](uint64_t block) {
    constexpr VertexId kTile = 64;
    std::vector<uint8_t>& out = block_segments[block];
    std::vector<uint32_t> tile(kTile * words);
    const auto lo = static_cast<VertexId>(n * block / num_blocks);
    const auto hi = static_cast<VertexId>(n * (block + 1) / num_blocks);
    for (VertexId v0 = lo; v0 < hi; v0 += kTile) {
      const VertexId count = std::min(kTile, hi - v0);
      for (size_t word = 0; word < words; ++word) {
        const uint32_t* src = walks.data() + word * n + v0;
        for (VertexId i = 0; i < count; ++i) tile[i * words + word] = src[i];
      }
      for (VertexId i = 0; i < count; ++i) {
        const size_t before = out.size();
        AppendSegment(meta, compress, v0 + i, tile.data() + i * words, &out);
        seg_rel[v0 + i + 1] = out.size() - before;
      }
    }
  });
  for (VertexId v = 0; v < n; ++v) seg_rel[v + 1] += seg_rel[v];

  // Inverted index, in two passes that are both parallel over
  // fingerprints (slots of different r are disjoint, so the bytes are
  // identical for any thread count): count the alive walks per slot
  // s = r·L + (t-1), then counting-sort each slot by position straight
  // into its blob. Filling vertices in ascending order keeps every bucket
  // ascending — the invariant the bitwise-deterministic single-source
  // path relies on.
  pool.ParallelFor(0, meta.num_fingerprints, [&](uint64_t r) {
    for (uint32_t t = 1; t <= L; ++t) {
      const uint32_t* positions = column(r, t);
      uint64_t alive = 0;
      for (uint32_t v = 0; v < n; ++v) alive += positions[v] != kDead;
      inv_rel[r * L + t] = alive * 8;  // 8 bytes per entry
    }
  });
  for (uint64_t s = 0; s < num_slots; ++s) inv_rel[s + 1] += inv_rel[s];

  std::vector<uint8_t> image;
  const ImageLayout layout = StartImage(directory, n, &image);
  uint8_t* segments = image.data() + layout.segments_offset;
  for (std::vector<uint8_t>& block : block_segments) {
    if (!block.empty()) std::memcpy(segments, block.data(), block.size());
    segments += block.size();
    std::vector<uint8_t>().swap(block);
  }
  uint8_t* inverted = image.data() + layout.inverted_offset;
  pool.ParallelFor(0, meta.num_fingerprints, [&](uint64_t r) {
    std::vector<uint32_t> start(n);
    for (uint32_t t = 1; t <= L; ++t) {
      const uint64_t s = r * L + (t - 1);
      const uint32_t* positions = column(r, t);
      std::fill(start.begin(), start.end(), 0);
      for (uint32_t v = 0; v < n; ++v) {
        if (positions[v] != kDead) ++start[positions[v]];
      }
      uint32_t running = 0;
      for (uint32_t p = 0; p < n; ++p) {
        const uint32_t count = start[p];
        start[p] = running;
        running += count;
      }
      // Blob layout: uint32 positions[running], then vertices[running].
      uint8_t* blob_positions = inverted + inv_rel[s];
      uint8_t* blob_vertices = blob_positions + uint64_t{running} * 4;
      for (uint32_t v = 0; v < n; ++v) {
        const uint32_t position = positions[v];
        if (position == kDead) continue;
        const uint64_t at = uint64_t{start[position]++} * 4;
        WriteScalar<uint32_t>(blob_positions + at, position);
        WriteScalar<uint32_t>(blob_vertices + at, v);
      }
    }
  });

  SealImage(meta, compress, layout, image.data());
  return Adopt(std::move(image));
}

Result<std::unique_ptr<WalkStore>> WalkStore::EncodeMerged(
    const WalkStore& base, const DeltaOverlay* overlay,
    uint64_t graph_fingerprint, bool compress, ThreadPool* pool,
    MergeCounts* counts) {
  // Copied bytes must be trusted bytes. An owned image was checksummed at
  // load or made by an encoder; a mapping is swept here, or a flipped but
  // in-range position would be copied into a file with fresh, valid
  // checksums.
  OIPSIM_RETURN_IF_ERROR(base.VerifyPayload());
  WalkStoreMeta meta = base.meta_;
  meta.graph_fingerprint = graph_fingerprint;
  const uint32_t n = meta.n;
  const uint32_t L = meta.walk_length;
  const uint64_t num_slots =
      static_cast<uint64_t>(meta.num_fingerprints) * L;
  std::vector<uint64_t> directory(n + 1 + num_slots + 1, 0);
  uint64_t* seg_rel = directory.data();
  uint64_t* inv_rel = seg_rel + n + 1;
  MergeCounts merge;

  // Segment sizes, over contiguous vertex blocks: a vertex whose bytes
  // change (patched, or any vertex when the encoding changes) is
  // re-encoded into its block's buffer; every other one keeps its base
  // segment's size. seg_rel[v + 1] holds v's size until the prefix sum.
  const bool reencode_all = compress != base.compressed_;
  std::vector<uint8_t> fresh(n, 0);  // 1: re-encoded into its block buffer
  const uint64_t workers = pool == nullptr ? 1 : pool->num_threads();
  const uint64_t num_blocks = std::min<uint64_t>(n, workers * 4);
  struct SegmentBlock {
    std::vector<uint8_t> encoded;
    Status status;
    uint64_t vertices_encoded = 0;
  };
  std::vector<SegmentBlock> blocks(num_blocks);
  auto block_begin = [&](uint64_t block) {
    return static_cast<VertexId>(n * block / num_blocks);
  };
  ForEachIndex(pool, num_blocks, [&](uint64_t b) {
    SegmentBlock& block = blocks[b];
    std::vector<uint32_t> row(base.WalkWords());
    for (VertexId v = block_begin(b); v < block_begin(b + 1); ++v) {
      if (!reencode_all && (overlay == nullptr || !overlay->IsPatched(v))) {
        seg_rel[v + 1] = base.seg_rel_[v + 1] - base.seg_rel_[v];
        continue;
      }
      block.status = MaterializeRow(base, overlay, v, row.data());
      if (!block.status.ok()) return;
      const size_t before = block.encoded.size();
      AppendSegment(meta, compress, v, row.data(), &block.encoded);
      seg_rel[v + 1] = block.encoded.size() - before;
      fresh[v] = 1;
      ++block.vertices_encoded;
    }
  });
  for (const SegmentBlock& block : blocks) {
    OIPSIM_RETURN_IF_ERROR(block.status);
    merge.vertices_encoded += block.vertices_encoded;
  }
  for (VertexId v = 0; v < n; ++v) seg_rel[v + 1] += seg_rel[v];

  // Slot sizes: the base slot's, less the diff's removals, plus its
  // additions.
  std::vector<const DeltaOverlay::SlotDelta*> deltas(num_slots, nullptr);
  for (uint32_t r = 0; r < meta.num_fingerprints; ++r) {
    for (uint32_t t = 1; t <= L; ++t) {
      const uint64_t s = static_cast<uint64_t>(r) * L + (t - 1);
      uint64_t bytes = base.inv_rel_[s + 1] - base.inv_rel_[s];
      const DeltaOverlay::SlotDelta* delta =
          overlay == nullptr ? nullptr : overlay->Delta(r, t);
      if (delta != nullptr) {
        if (delta->removed.size() * 8 > bytes) {
          return Status::Internal(StrFormat(
              "overlay diff of slot (%u, %u) removes more entries than the "
              "base slot holds",
              r, t));
        }
        bytes = bytes - delta->removed.size() * 8 + delta->added.size() * 8;
        deltas[s] = delta;
        ++merge.slots_merged;
      }
      inv_rel[s + 1] = inv_rel[s] + bytes;
    }
  }

  std::vector<uint8_t> image;
  const ImageLayout layout = StartImage(directory, n, &image);

  // Segments: each block copies its runs of kept segments straight from
  // the base image and its runs of re-encoded ones from its buffer.
  uint8_t* segments = image.data() + layout.segments_offset;
  ForEachIndex(pool, num_blocks, [&](uint64_t b) {
    const uint8_t* encoded = blocks[b].encoded.data();
    const VertexId hi = block_begin(b + 1);
    for (VertexId v = block_begin(b); v < hi;) {
      VertexId end = v + 1;
      while (end < hi && fresh[end] == fresh[v]) ++end;
      const uint64_t bytes = seg_rel[end] - seg_rel[v];
      const uint8_t* from =
          fresh[v] ? encoded : base.segments_base_ + base.seg_rel_[v];
      if (bytes > 0) std::memcpy(segments + seg_rel[v], from, bytes);
      if (fresh[v]) encoded += bytes;
      v = end;
    }
    std::vector<uint8_t>().swap(blocks[b].encoded);
  });

  // Inverted blobs, over fingerprints: copied when unchanged, merged with
  // their diff otherwise.
  uint8_t* inverted = image.data() + layout.inverted_offset;
  std::vector<uint8_t> misfit(meta.num_fingerprints, 0);
  ForEachIndex(pool, meta.num_fingerprints, [&](uint64_t r) {
    for (uint32_t t = 1; t <= L; ++t) {
      const uint64_t s = r * L + (t - 1);
      const uint64_t bytes = inv_rel[s + 1] - inv_rel[s];
      uint8_t* blob = inverted + inv_rel[s];
      if (deltas[s] == nullptr) {
        if (bytes > 0) {
          std::memcpy(blob, base.inverted_base_ + base.inv_rel_[s], bytes);
        }
        continue;
      }
      // Blob offsets are multiples of 8 from a page-aligned region.
      auto* positions = reinterpret_cast<uint32_t*>(blob);
      if (!MergeSlot(base.Slot(static_cast<uint32_t>(r), t), *deltas[s],
                     bytes / 8, positions, positions + bytes / 8)) {
        misfit[r] = 1;
      }
    }
  });
  for (uint32_t r = 0; r < meta.num_fingerprints; ++r) {
    if (misfit[r]) {
      return Status::Internal(StrFormat(
          "overlay slot diffs of fingerprint %u do not fit the base store",
          r));
    }
  }

  SealImage(meta, compress, layout, image.data());
  if (counts != nullptr) *counts = merge;
  return Adopt(std::move(image));
}

Status SaveWalkStore(const WalkStore& store, const std::string& path,
                     bool compress) {
  std::unique_ptr<WalkStore> reencoded;
  const WalkStore* source = &store;
  if (compress != store.compressed()) {
    auto merged = WalkStore::EncodeMerged(
        store, nullptr, store.meta().graph_fingerprint, compress, nullptr);
    OIPSIM_RETURN_IF_ERROR(merged.status());
    reencoded = std::move(merged).value();
    source = reencoded.get();
  } else {
    OIPSIM_RETURN_IF_ERROR(store.VerifyPayload());
  }
  return ReplaceFile(path, /*sync=*/true, [source](const std::string& tmp) {
    return WriteFile(tmp, source->image());
  });
}

// ----------------------------------------------------------------- store

WalkStore::WalkStore() = default;

WalkStore::~WalkStore() {
#if OIPSIM_HAVE_MMAP
  if (mapped_) ::munmap(const_cast<uint8_t*>(data_), size_);
#endif
}

Status WalkStore::Attach(size_t available) {
  auto layout_or = ParseHeaderBytes(data_, available, size_, path_);
  if (!layout_or.ok()) return layout_or.status();
  const ParsedLayout& layout = *layout_or;
  // The directory checksum's extent starts right after the header fields,
  // covering the header page's padding.
  if (DirectoryChecksum(data_ + kHeaderBytes,
                        layout.segments_offset - kHeaderBytes) !=
      layout.directory_checksum) {
    return Status::ParseError(StrFormat(
        "walk index directory checksum mismatch in %s (bytes %zu..%llu)",
        path_.c_str(), kHeaderBytes,
        static_cast<unsigned long long>(layout.segments_offset)));
  }
  seg_rel_ = reinterpret_cast<const uint64_t*>(data_ + layout.directory_offset);
  inv_rel_ = seg_rel_ + layout.meta.n + 1;
  OIPSIM_RETURN_IF_ERROR(ValidateDirectory(layout, seg_rel_, inv_rel_, path_));
  meta_ = layout.meta;
  compressed_ = layout.compressed;
  payload_checksum_ = layout.payload_checksum;
  segments_base_ = data_ + layout.segments_offset;
  inverted_base_ = data_ + layout.inverted_offset;
  // Checksum extents are the padded regions (the inverted region has no
  // padding: its directory end is validated against the file end).
  segments_bytes_ = layout.inverted_offset - layout.segments_offset;
  inverted_bytes_ = layout.file_size - layout.inverted_offset;
  directory_bytes_ = layout.directory_bytes;
  return Status::OK();
}

Result<std::unique_ptr<WalkStore>> WalkStore::Load(const std::string& path) {
  std::unique_ptr<WalkStore> store(new WalkStore());
  store->path_ = path;
  OIPSIM_RETURN_IF_ERROR(ReadFileBytes(path, &store->owned_));
  store->data_ = store->owned_.data();
  store->size_ = store->owned_.size();
  OIPSIM_RETURN_IF_ERROR(store->Attach(store->size_));
  OIPSIM_RETURN_IF_ERROR(store->CheckPayload());
  return store;
}

Result<std::unique_ptr<WalkStore>> WalkStore::Map(const std::string& path) {
#if OIPSIM_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IoError("cannot open: " + path);
  struct stat st = {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IoError("cannot stat: " + path);
  }
  const uint64_t size = static_cast<uint64_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    return Status::ParseError(path + " is empty, not a walk index");
  }
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps the file alive
  if (map == MAP_FAILED) return Status::IoError("mmap failed: " + path);

  // From here on the mapping is owned by the store, so every error path
  // unmaps through the destructor.
  std::unique_ptr<WalkStore> store(new WalkStore());
  store->path_ = path;
  store->data_ = static_cast<const uint8_t*>(map);
  store->size_ = size;
  store->mapped_ = true;
  // Header + directory are the only pages read at open; the payload
  // regions stay untouched until a query faults them in.
  OIPSIM_RETURN_IF_ERROR(
      store->Attach(std::min<uint64_t>(size, kHeaderBytes)));
  // The header and directory pages were just read and stay hot for the
  // lifetime of the store (every query walks the directory); telling the
  // kernel keeps them ahead of cold payload pages under memory pressure.
  ::madvise(const_cast<uint8_t*>(store->data_),
            static_cast<size_t>(store->segments_base_ - store->data_),
            MADV_WILLNEED);
  // Batched cold-read accelerator on its own descriptor (the mapping's fd
  // was just closed). Failure to reopen is tolerated: prefetch simply
  // falls back to per-run madvise.
  auto reader_or = SegmentReader::Open(path);
  if (reader_or.ok()) store->reader_ = std::move(reader_or).value();
  return store;
#else
  (void)path;
  return Status::Unimplemented(
      "WalkStore::Map requires POSIX mmap; use WalkStore::Load");
#endif
}

Status WalkStore::DecodeVertex(VertexId v, uint32_t* out) const {
  OIPSIM_DCHECK(v < meta_.n);
  const uint64_t begin = seg_rel_[v];
  const uint64_t end = seg_rel_[v + 1];
  return DecodeSegment(meta_, compressed_, v, segments_base_ + begin,
                       segments_base_ + end,
                       static_cast<uint64_t>(segments_base_ - data_) + begin,
                       path_, out);
}

WalkStore::SlotView WalkStore::Slot(uint32_t r, uint32_t t) const {
  OIPSIM_DCHECK(r < meta_.num_fingerprints);
  OIPSIM_DCHECK(t >= 1 && t <= meta_.walk_length);
  const uint64_t s =
      static_cast<uint64_t>(r) * meta_.walk_length + (t - 1);
  const uint64_t count = (inv_rel_[s + 1] - inv_rel_[s]) / 8;
  // Blob offsets are multiples of 8 from a page-aligned base, so the casts
  // land on naturally-aligned uint32 arrays.
  const auto* positions =
      reinterpret_cast<const uint32_t*>(inverted_base_ + inv_rel_[s]);
  return {positions, positions + count, count};
}

uint64_t WalkStore::ResidentBytes() const {
  // A mapping's heap footprint is negligible; the header and directory
  // pages are the only part of it open() forces resident.
  return mapped_ ? kPageSize + directory_bytes_ : size_;
}

void WalkStore::Prefetch(std::span<const VertexId> vertices) const {
#if OIPSIM_HAVE_MMAP
  if (!mapped_) return;
  // Sorting first makes the page ranges monotone, so overlapping and
  // adjacent segments coalesce into one run per contiguous stretch — a
  // clustered warm list costs few submissions regardless of input order.
  // Out-of-range ids are skipped (a hint API must not turn a stale warm
  // list into a crash). With a live segment reader the coalesced runs go
  // out as one batched ring submission; otherwise one madvise per run.
  std::vector<VertexId> sorted(vertices.begin(), vertices.end());
  std::sort(sorted.begin(), sorted.end());
  std::vector<SegmentReader::Range> runs;
  uint64_t run_begin = 0;
  uint64_t run_end = 0;
  auto flush = [&] {
    if (run_end > run_begin) {
      runs.push_back(SegmentReader::Range{run_begin, run_end - run_begin});
    }
  };
  const uint64_t segments_abs =
      static_cast<uint64_t>(segments_base_ - data_);
  for (const VertexId v : sorted) {
    if (v >= meta_.n) continue;
    const uint64_t begin =
        (segments_abs + seg_rel_[v]) / kPageSize * kPageSize;
    const uint64_t end =
        AlignUp(segments_abs + seg_rel_[v + 1], kPageSize);
    if (begin <= run_end && run_end > run_begin) {
      run_end = std::max(run_end, end);
    } else {
      flush();
      run_begin = begin;
      run_end = end;
    }
  }
  flush();
  if (runs.empty()) return;
  // Runs can extend past EOF (the last segment's page-aligned end); clamp
  // for the reader, which reads real bytes rather than advising pages.
  if (reader_ != nullptr) {
    for (SegmentReader::Range& run : runs) {
      if (run.offset >= size_) {
        run.length = 0;
      } else {
        run.length = std::min<uint64_t>(run.length, size_ - run.offset);
      }
    }
    reader_->Prefetch(runs);
    return;
  }
  for (const SegmentReader::Range& run : runs) {
    ::madvise(const_cast<uint8_t*>(data_) + run.offset, run.length,
              MADV_WILLNEED);
  }
#else
  (void)vertices;
#endif
}

void WalkStore::PrefetchSlots() const {
#if OIPSIM_HAVE_MMAP
  // Once per store: a cold single-source query walks R·L bucket lookups
  // scattered across the whole inverted region, the worst case for
  // one-page-at-a-time faulting.
  if (!mapped_ ||
      slots_prefetched_.exchange(true, std::memory_order_relaxed)) {
    return;
  }
  const uint64_t inverted_abs =
      static_cast<uint64_t>(inverted_base_ - data_);
  if (reader_ != nullptr) {
    const uint64_t length =
        std::min<uint64_t>(inverted_bytes_, size_ - inverted_abs);
    const SegmentReader::Range run{inverted_abs, length};
    reader_->Prefetch(std::span<const SegmentReader::Range>(&run, 1));
    return;
  }
  ::madvise(const_cast<uint8_t*>(data_) + inverted_abs, inverted_bytes_,
            MADV_WILLNEED);
#endif
}

bool WalkStore::UsesIoUring() const {
  return reader_ != nullptr && reader_->using_io_uring();
}

Status WalkStore::VerifyPayload() const {
  return mapped_ ? CheckPayload() : Status::OK();
}

Status WalkStore::CheckPayload() const {
  if (PayloadChecksum(segments_base_, segments_bytes_, inverted_base_,
                      inverted_bytes_) != payload_checksum_) {
    return Status::ParseError(StrFormat(
        "walk index payload checksum mismatch in %s (segments at %llu, "
        "inverted index at %llu)",
        path_.c_str(),
        static_cast<unsigned long long>(segments_base_ - data_),
        static_cast<unsigned long long>(inverted_base_ - data_)));
  }
  return Status::OK();
}

// ------------------------------------------------------------- index-info

Result<WalkIndexInfo> ReadWalkIndexInfo(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IoError("cannot open: " + path);
  FileCloser closer(f);
  if (std::fseek(f, 0, SEEK_END) != 0) {
    return Status::IoError("cannot seek: " + path);
  }
  const int64_t file_size = std::ftell(f);
  if (file_size < 0 || std::fseek(f, 0, SEEK_SET) != 0) {
    return Status::IoError("cannot seek: " + path);
  }
  uint8_t header[kHeaderBytes] = {};
  const size_t available = std::fread(header, 1, kHeaderBytes, f);
  auto layout_or = ParseHeaderBytes(
      header, available, static_cast<uint64_t>(file_size), path);
  if (!layout_or.ok()) return layout_or.status();
  const ParsedLayout& layout = *layout_or;

  WalkIndexInfo info;
  info.version = kIndexVersion;
  info.compressed = layout.compressed;
  info.meta = layout.meta;
  info.file_bytes = layout.file_size;
  info.directory_bytes = layout.directory_bytes;
  // Region extents from the header alone (includes up to a page of
  // alignment padding); exact byte counts live in the directory, which
  // index-info deliberately does not need to read.
  info.segment_bytes = layout.inverted_offset - layout.segments_offset;
  info.inverted_bytes = layout.file_size - layout.inverted_offset;
  info.raw_walk_bytes = static_cast<uint64_t>(layout.meta.n) *
                        (static_cast<uint64_t>(layout.meta.walk_length) + 1) *
                        layout.meta.num_fingerprints * sizeof(uint32_t);
  return info;
}

}  // namespace simrank
