// Storage layer of the walk index: the versioned v2 segmented on-disk
// format and the store that serves it.
//
// Version 2 reorganises the v1 flat walk table into per-vertex *segments*
// (optionally delta+varint-compressed: a pair query touches two contiguous
// byte ranges instead of R·L strided words) plus a per-(fingerprint, step)
// *inverted position index* mapping a walk position to the vertices whose
// walk is there — the data structure behind the output-sensitive
// single-source path (ProbeSim-style: accumulation only over vertices that
// actually appear at some slot, instead of a full O(R·L·n) row scan).
//
// On-disk layout (native-endian, like graph_io's binary format; offsets
// are absolute bytes unless marked relative):
//
//   page 0      header, 104 bytes used, zero-padded to the directory
//   page 1..    segment directory (page-aligned):
//                 uint64 seg_rel[n+1]     vertex v's segment occupies
//                                         [seg_rel[v], seg_rel[v+1])
//                                         relative to segments_offset
//                 uint64 inv_rel[R·L+1]   slot s = r·L + (t-1); blob at
//                                         [inv_rel[s], inv_rel[s+1])
//                                         relative to inverted_offset
//   ...         per-vertex walk segments (page-aligned region start)
//   ...         inverted index blobs (page-aligned region start):
//                 per slot: uint32 positions[m] sorted ascending, then
//                 uint32 vertices[m] (ascending within equal positions)
//
// The header carries three checksums: over its own fields, over the
// directory (an extent that starts right after the header fields, so the
// header page's alignment padding is covered too), and over the two
// payload regions — together they cover every byte of the file.
//
// A WalkStore serves one v2 byte image, wherever its bytes live. A
// default load reads the file into an owned buffer and verifies all three
// checksums; nothing is decoded, so the resident bytes are the file size.
// A mapped store verifies header + directory only — by design it never
// reads the payload at open (pages fault in on demand) — and defends
// every decode with bounds checks instead; VerifyPayload() performs the
// full payload sweep on request.
//
// Two encoders produce owned images, sharing one per-vertex segment
// encoder and one header/checksum sealer, so the format logic exists
// once. Build and shard splitting hand a flat walk table to
// WalkStore::Encode. Compaction and re-encoding saves hand an existing
// image plus an optional overlay to WalkStore::EncodeMerged, which copies
// what did not change (unpatched segments, slots without a diff) and
// re-encodes only what did. Either way the image is exactly the file a
// save writes, and equal walks give equal bytes.
#ifndef OIPSIM_SIMRANK_INDEX_WALK_STORE_H_
#define OIPSIM_SIMRANK_INDEX_WALK_STORE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "simrank/common/status.h"
#include "simrank/graph/digraph.h"

namespace simrank {

class DeltaOverlay;
class SegmentReader;
class ThreadPool;

/// Format-level cap on walk_length, enforced at build and load. The
/// truncation weight C^t is dozens of orders of magnitude below the
/// estimator's resolution long before this many steps (FromAccuracy never
/// derives more), and the cap bounds the decoded walk table any header
/// can demand to ~4·(kMaxWalkLength+1) × its real segment bytes — a
/// crafted small file cannot request an absurd allocation.
inline constexpr uint32_t kMaxWalkLength = 10000;

/// Model parameters and provenance persisted in a v2 index header.
struct WalkStoreMeta {
  uint32_t n = 0;
  uint32_t num_fingerprints = 0;
  uint32_t walk_length = 0;
  double damping = 0.0;
  uint64_t seed = 0;
  uint64_t graph_fingerprint = 0;
};

/// Read-only access to one graph's stored walks and their inverted
/// position index, served from a v2 image that is either owned (read in
/// full, or freshly encoded) or mapped from its file. Immutable after
/// construction and thread-safe for concurrent reads.
class WalkStore {
 public:
  /// Sentinel position of a walk that left a vertex with no in-neighbours.
  static constexpr uint32_t kDeadWalk = UINT32_MAX;

  /// Encodes a flat walk table into an owned image: the position after t
  /// steps of fingerprint r's walk from v is walks[(r·(L+1) + t)·n + v]
  /// (kDeadWalk from the step the walk died onwards). Segments
  /// (delta+varint-compressed when `compress`) and the counting-sorted
  /// inverted index are built on `num_threads` workers (0 = hardware
  /// concurrency). The bytes depend only on (meta, walks, compress) —
  /// they are exactly the saved file.
  static std::unique_ptr<WalkStore> Encode(const WalkStoreMeta& meta,
                                           std::span<const uint32_t> walks,
                                           bool compress,
                                           uint32_t num_threads = 1);

  /// What one EncodeMerged call re-encoded; everything else was copied
  /// byte for byte from the base image.
  struct MergeCounts {
    /// Segments re-encoded from decoded rows (patched vertices, or every
    /// vertex when the encoding changes).
    uint64_t vertices_encoded = 0;
    /// Inverted slots merged with an overlay diff.
    uint64_t slots_merged = 0;
  };

  /// Encodes `base` under `overlay` (null: the base alone) into an owned
  /// image whose header carries `graph_fingerprint` — byte-identical to
  /// Encode on the materialized walk table, without building that table.
  /// A vertex the overlay does not patch keeps its segment bytes (copied
  /// in coalesced runs) when `compress` matches the base's encoding; any
  /// other vertex is re-encoded from MaterializeRow. A slot without a
  /// diff is copied; a slot with one is a linear merge of the base blob
  /// and the diff's sorted entries. A mapped base's payload is verified
  /// first, so corrupt bytes are never sealed under fresh checksums.
  /// Fans out over `pool` (null: serial) in contiguous vertex blocks and
  /// fingerprint ranges laid out in block order, so the bytes do not
  /// depend on its size. `counts` (optional) receives what was
  /// re-encoded.
  static Result<std::unique_ptr<WalkStore>> EncodeMerged(
      const WalkStore& base, const DeltaOverlay* overlay,
      uint64_t graph_fingerprint, bool compress, ThreadPool* pool,
      MergeCounts* counts = nullptr);

  /// Reads a v2 file into an owned image and verifies all three
  /// checksums. Nothing is decoded: ResidentBytes() is the file size.
  static Result<std::unique_ptr<WalkStore>> Load(const std::string& path);

  /// Maps a v2 file read-only: open reads only the header and directory,
  /// the payload faults in on demand. POSIX-only (Status::Unimplemented
  /// elsewhere).
  static Result<std::unique_ptr<WalkStore>> Map(const std::string& path);

  ~WalkStore();
  WalkStore(const WalkStore&) = delete;
  WalkStore& operator=(const WalkStore&) = delete;

  const WalkStoreMeta& meta() const { return meta_; }

  /// Words per vertex in the decoded layout: num_fingerprints rows of
  /// (walk_length + 1) steps.
  size_t WalkWords() const {
    return static_cast<size_t>(meta_.num_fingerprints) *
           (meta_.walk_length + 1);
  }

  /// Whether the segments are delta+varint-compressed.
  bool compressed() const { return compressed_; }

  /// Whether the image is a file mapping (Map) rather than owned.
  bool mapped() const { return mapped_; }

  /// The whole v2 image — the bytes of the index file.
  std::span<const uint8_t> image() const { return {data_, size_}; }

  /// Decodes every walk of vertex `v` into `out` (capacity WalkWords()):
  /// out[r·(L+1) + t] is the position after t steps of fingerprint r's
  /// walk, kDeadWalk from the step the walk died onwards; out[r·(L+1)]
  /// is always v. Returns a ParseError naming the corrupt byte offset when
  /// the backing bytes are malformed (reachable only on a mapped store,
  /// whose payload is not checksummed at open).
  Status DecodeVertex(VertexId v, uint32_t* out) const;

  /// One slot of the inverted index: the alive walks at (fingerprint r,
  /// step t), as parallel arrays sorted by (position, vertex).
  struct SlotView {
    const uint32_t* positions = nullptr;
    const uint32_t* vertices = nullptr;
    size_t count = 0;
  };

  /// Slot accessor; r < num_fingerprints, 1 <= t <= walk_length.
  SlotView Slot(uint32_t r, uint32_t t) const;

  /// The vertices whose fingerprint-r walk sits at `position` after t
  /// steps, ascending — the output-sensitive single-source path iterates
  /// exactly these instead of all n rows. O(log n) bucket lookup.
  std::span<const VertexId> Bucket(uint32_t r, uint32_t t,
                                   uint32_t position) const;

  /// Bytes this store keeps resident independent of what the kernel has
  /// faulted in: the whole image when owned, the header and directory
  /// pages when mapped.
  uint64_t ResidentBytes() const;

  /// Advises the OS to fault in the walk segments of `vertices` ahead of
  /// queries (one batched read or madvise(MADV_WILLNEED) per coalesced
  /// page range of a mapping). Purely a scheduling hint: results are
  /// identical with or without it. No-op on an owned image.
  void Prefetch(std::span<const VertexId> vertices) const;

  /// Advises the OS to fault in the whole inverted-index region, which an
  /// output-sensitive single-source query walks bucket by bucket — once
  /// per mapped store lifetime. A hint like Prefetch; no-op when owned.
  void PrefetchSlots() const;

  /// True when cold reads of this store are currently serviced through an
  /// io_uring (a mapping with a live ring); diagnostics only.
  bool UsesIoUring() const;

  /// Recomputes the payload checksum against the header's. An owned image
  /// was verified at load (or produced by the encoder) and returns OK
  /// immediately; a mapping performs the full payload read this entails.
  Status VerifyPayload() const;

  /// "in-memory" (owned image) or "mmap"; stats and diagnostics labels.
  const char* backend_name() const { return mapped_ ? "mmap" : "in-memory"; }

 private:
  WalkStore();

  /// Wraps a freshly encoded, sealed image as an owned store.
  static std::unique_ptr<WalkStore> Adopt(std::vector<uint8_t> image);

  /// Parses and validates the header and directory of the image at
  /// data_/size_ (`available` of its bytes readable up front) and points
  /// the views into it.
  Status Attach(size_t available);
  /// The payload checksum sweep behind Load and VerifyPayload.
  Status CheckPayload() const;

  WalkStoreMeta meta_;
  std::string path_;
  /// The image when owned; empty for a mapping.
  std::vector<uint8_t> owned_;
  const uint8_t* data_ = nullptr;  // owned_.data() or the whole-file mapping
  size_t size_ = 0;
  bool mapped_ = false;
  bool compressed_ = false;
  uint64_t payload_checksum_ = 0;
  // Directory views into the image.
  const uint64_t* seg_rel_ = nullptr;  // n + 1 entries
  const uint64_t* inv_rel_ = nullptr;  // R·L + 1 entries
  const uint8_t* segments_base_ = nullptr;
  const uint8_t* inverted_base_ = nullptr;
  uint64_t segments_bytes_ = 0;
  uint64_t inverted_bytes_ = 0;
  uint64_t directory_bytes_ = 0;
  /// Batched cold-read accelerator over a mapped file (own descriptor;
  /// the mapping's fd is closed right after mmap). Null when owned or the
  /// file could not be reopened — prefetch then falls back to madvise.
  std::unique_ptr<SegmentReader> reader_;
  mutable std::atomic<bool> slots_prefetched_{false};
};

/// Writes `store`'s image to `path` — re-encoded first (EncodeMerged,
/// no overlay) when `compress` differs from the image's encoding —
/// through a synced temporary file renamed into place (ReplaceFile), so
/// a reader mapping the old file keeps its bytes. A mapped store's
/// payload is verified first. Deterministic: equal walks and encodings
/// give byte-identical files.
Status SaveWalkStore(const WalkStore& store, const std::string& path,
                     bool compress);

/// Header/directory summary of an index file, readable without loading
/// (or even mapping) the payload. Powers `simrank_cli index-info`.
struct WalkIndexInfo {
  uint32_t version = 0;
  bool compressed = false;
  WalkStoreMeta meta;
  uint64_t file_bytes = 0;
  uint64_t directory_bytes = 0;
  /// Size of the (possibly compressed) segment region on disk.
  uint64_t segment_bytes = 0;
  uint64_t inverted_bytes = 0;
  /// What the v1 flat table would occupy: n · R · (L+1) · 4 bytes.
  uint64_t raw_walk_bytes = 0;
};

/// Reads and validates the header of a v2 index file (magic, version,
/// header checksum, declared sizes vs the real file).
Result<WalkIndexInfo> ReadWalkIndexInfo(const std::string& path);

}  // namespace simrank

#endif  // OIPSIM_SIMRANK_INDEX_WALK_STORE_H_
