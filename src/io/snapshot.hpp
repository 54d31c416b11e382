// Durable binary snapshots: the versioned, integrity-checked container
// behind graph / hierarchy / forest / checkpoint persistence.
//
// Container layout (all integers little-endian; see docs/FORMATS.md):
//
//   FileHeader   { char magic[8] = "HGPSNAP\0"; u32 version; u32 sections }
//   per section: { u32 type; u32 payload_crc32; u64 payload_size } payload…
//   FileFooter   { u32 file_crc32 }   // over every byte before the footer
//
// Integrity is layered: the per-section CRC32 catches payload rot, the
// file CRC32 catches header/section-table rot and truncation (the footer
// must land exactly at end-of-file), and typed codecs re-validate every
// semantic invariant (index ranges, finite weights, tree shape, a graph
// content fingerprint) after the CRCs pass.  Every malformed input — bit
// flip, truncation, type confusion, hostile lengths — yields a typed
// SolveError{kDataLoss}; never UB, never a crash (tools/hgp_snapfuzz
// hammers exactly this contract under ASan).
//
// Persistence is crash-safe: SnapshotWriter::write_file serializes to
// `path + ".tmp"`, fsyncs, then atomically renames over `path`, so a
// reader never observes a half-written final file (a torn write dies with
// the temp file).  Write failures are reported as a Status — spilling is
// best-effort by design and callers degrade to in-memory operation.
// FaultInjector sites snapshot.write / snapshot.fsync / snapshot.rename
// make the failure paths testable (short write, ENOSPC, fsync loss, torn
// rename).
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "decomp/decomp_tree.hpp"
#include "graph/fingerprint.hpp"
#include "graph/graph.hpp"
#include "hierarchy/hierarchy.hpp"
#include "util/status.hpp"

namespace hgp::io {

// The on-disk byte order is little-endian.  Bulk payloads are written as
// POD spans (the snippet-3 idiom), which is only correct when the host
// matches; every currently supported target does, and a big-endian port
// must add byte-swapping codecs rather than silently emitting a different
// format.
static_assert(std::endian::native == std::endian::little,
              "snapshot container requires a little-endian host");

/// Every on-disk record must be memcpy-safe and free of hidden padding
/// (padding bytes would leak uninitialized memory into files and break
/// CRC reproducibility).  Enforced per record via static_assert on sizeof.
template <typename T>
inline constexpr bool is_snapshot_pod_v =
    std::is_trivially_copyable_v<T> && std::is_standard_layout_v<T>;

/// CRC-32 (IEEE 802.3, reflected).  `seed` chains incremental computation:
/// crc32(b, crc32(a)) == crc32(a ++ b).
std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0);

constexpr std::uint32_t kSnapshotVersion = 1;

enum class SectionType : std::uint32_t {
  kGraphHeader = 1,
  kGraphEdges = 2,
  kGraphDemands = 3,
  kHierarchy = 4,
  kForestHeader = 5,
  kForestTree = 6,
  kCheckpointHeader = 7,
  kCheckpointTree = 8,
};

/// Stable lower-snake name for diagnostics ("graph_edges"); never nullptr.
const char* section_type_name(SectionType type);

// ---------------------------------------------------------------------------
// On-disk records.  Fixed-width members only; layout locked by the
// static_asserts below (a failed assert means the format changed — bump
// kSnapshotVersion and update docs/FORMATS.md).

struct GraphHeaderRecord {
  std::uint64_t fingerprint = 0;  ///< graph_fingerprint(), verified on load
  std::uint32_t vertex_count = 0;
  std::uint32_t has_demands = 0;  ///< 0 or 1
  std::uint64_t edge_count = 0;
};
static_assert(sizeof(GraphHeaderRecord) == 24 &&
              alignof(GraphHeaderRecord) == 8 &&
              is_snapshot_pod_v<GraphHeaderRecord>);

struct EdgeRecord {
  std::int32_t u = 0;
  std::int32_t v = 0;
  double weight = 0;
};
static_assert(sizeof(EdgeRecord) == 16 && alignof(EdgeRecord) == 8 &&
              is_snapshot_pod_v<EdgeRecord>);

struct HierarchyRecord {
  std::uint32_t height = 0;
  std::uint32_t reserved = 0;
};  // payload continues: i32 deg[height], f64 cm[height + 1]
static_assert(sizeof(HierarchyRecord) == 8 &&
              is_snapshot_pod_v<HierarchyRecord>);

struct ForestHeaderRecord {
  std::uint64_t graph_fingerprint = 0;
  std::uint64_t seed = 0;
  std::int32_t num_trees = 0;
  std::uint32_t cutter_name_size = 0;
};  // payload continues: char cutter_name[cutter_name_size]
static_assert(sizeof(ForestHeaderRecord) == 24 &&
              is_snapshot_pod_v<ForestHeaderRecord>);

struct ForestTreeRecord {
  std::uint32_t node_count = 0;
  std::uint32_t reserved = 0;
};  // payload continues: i32 parent[n], f64 weight[n], u8 infinite[n],
    // i32 leaf_vertex[n]
static_assert(sizeof(ForestTreeRecord) == 8 &&
              is_snapshot_pod_v<ForestTreeRecord>);

struct CheckpointHeaderRecord {
  std::uint64_t graph_fingerprint = 0;
  std::uint64_t seed = 0;
  std::int32_t num_trees = 0;
  std::uint32_t bound = 0;  ///< 0 or 1: was the checkpoint key bound?
  double epsilon = 0;
  std::int64_t units_override = 0;
  std::uint32_t tree_count = 0;  ///< number of kCheckpointTree sections
  std::uint32_t reserved = 0;
};
static_assert(sizeof(CheckpointHeaderRecord) == 48 &&
              is_snapshot_pod_v<CheckpointHeaderRecord>);

struct CheckpointTreeRecord {
  std::int32_t index = 0;
  std::uint32_t reserved = 0;
  double cost = 0;
  std::uint64_t leaf_count = 0;
};  // payload continues: i64 leaf_of[leaf_count]
static_assert(sizeof(CheckpointTreeRecord) == 24 &&
              is_snapshot_pod_v<CheckpointTreeRecord>);

// ---------------------------------------------------------------------------
// Payload assembly / extraction: the one codec for snapshot sections and
// shard wire messages (src/net/protocol.hpp).

/// Accumulates one payload from PODs, POD spans and u32-counted spans.
class PayloadBuilder {
 public:
  template <typename T>
  void append_pod(const T& pod) {
    static_assert(is_snapshot_pod_v<T>);
    append_bytes(&pod, sizeof(T));
  }

  template <typename T>
  void append_span(std::span<const T> values) {
    static_assert(is_snapshot_pod_v<T>);
    append_bytes(values.data(), values.size_bytes());
  }

  /// A u32 element count, then the elements (SectionView::read_counted).
  template <typename T>
  void append_counted(std::span<const T> values) {
    append_pod(static_cast<std::uint32_t>(values.size()));
    append_span(values);
  }

  std::span<const std::byte> bytes() const { return bytes_; }
  std::vector<std::byte> take() { return std::move(bytes_); }

 private:
  void append_bytes(const void* data, std::size_t size);

  std::vector<std::byte> bytes_;
};

/// Read-only cursor over one payload.  Every extraction is bounds-checked;
/// over-reads, hostile counts and trailing garbage throw
/// SolveError{kDataLoss} naming `what` (the section or message decoded),
/// which must outlive the view.
class SectionView {
 public:
  SectionView(const char* what, std::span<const std::byte> payload)
      : what_(what), payload_(payload) {}

  std::size_t remaining() const { return payload_.size() - cursor_; }

  template <typename T>
  T read_pod() {
    static_assert(is_snapshot_pod_v<T>);
    T out;
    read_bytes(&out, sizeof(T));
    return out;
  }

  /// Reads `count` contiguous PODs.  The count is validated against the
  /// remaining payload BEFORE any allocation, so hostile length fields
  /// cannot drive an over-read or an allocation bomb.
  template <typename T>
  std::vector<T> read_span(std::size_t count) {
    static_assert(is_snapshot_pod_v<T>);
    check_count(count, sizeof(T));
    std::vector<T> out(count);
    if (count > 0) read_bytes(out.data(), count * sizeof(T));
    return out;
  }

  /// Reads what PayloadBuilder::append_counted wrote.
  template <typename T>
  std::vector<T> read_counted() {
    return read_span<T>(read_pod<std::uint32_t>());
  }

  /// A codec that consumed its payload must land exactly at the end;
  /// trailing bytes mean the payload is not what the type claims.
  void expect_exhausted() const;

  /// Throws SolveError{kDataLoss} naming `what`.
  [[noreturn]] void fail(const std::string& why) const;

 private:
  void read_bytes(void* out, std::size_t size);
  void check_count(std::size_t count, std::size_t elem_size) const;

  const char* what_;
  std::span<const std::byte> payload_;
  std::size_t cursor_ = 0;
};

// ---------------------------------------------------------------------------
// Container writer / reader.

class SnapshotWriter {
 public:
  /// Appends a section (payload copied).
  void add_section(SectionType type, std::span<const std::byte> payload);
  void add_section(SectionType type, const PayloadBuilder& payload) {
    add_section(type, payload.bytes());
  }

  std::size_t section_count() const { return sections_.size(); }

  /// The complete container image: header, sections, file CRC footer.
  std::vector<std::byte> serialize() const;

  /// Crash-safe persistence: serialize → `path + ".tmp"` → fsync → rename.
  /// Returns non-OK on any I/O failure; on failure no bytes of `path` were
  /// replaced (except under the injected torn-rename fault, which models a
  /// crash mid-rename and deliberately leaves a corrupt final file for the
  /// loader to reject).  Never throws.
  Status write_file(const std::string& path) const;

 private:
  struct Section {
    SectionType type;
    std::vector<std::byte> payload;
  };
  std::vector<Section> sections_;
};

/// Parses and integrity-checks a container image.  Construction validates
/// magic, version, section bounds, per-section CRCs, the file CRC, and the
/// exact end-of-file position; any mismatch throws SolveError{kDataLoss}.
class SnapshotReader {
 public:
  /// Reads `path` fully, then validates.  A missing/unreadable file is
  /// also kDataLoss: callers treat it as "no durable state".
  explicit SnapshotReader(const std::string& path);
  /// Validates an in-memory image (the fuzz harness mutates blobs here).
  explicit SnapshotReader(std::vector<std::byte> blob);

  std::size_t section_count() const { return sections_.size(); }
  SectionView section(std::size_t i) const;
  /// section(i) + type check: a mismatch throws kDataLoss naming both
  /// types (the type-confusion guard).
  SectionView expect(std::size_t i, SectionType type) const;

 private:
  void parse();

  struct SectionIndex {
    SectionType type;
    std::size_t offset;
    std::size_t size;
  };
  std::vector<std::byte> blob_;
  std::vector<SectionIndex> sections_;
};

/// Sequential section position shared by codecs composing one file.
struct SectionCursor {
  std::size_t index = 0;
};

// ---------------------------------------------------------------------------
// Typed codecs.  Writers append a deterministic section sequence; readers
// consume the same sequence from a cursor, re-validating every invariant.
// All read_* functions throw SolveError{kDataLoss} on malformed input.

void append_graph_sections(SnapshotWriter& w, const Graph& g);
Graph read_graph_sections(const SnapshotReader& r, SectionCursor& c);

void append_hierarchy_sections(SnapshotWriter& w, const Hierarchy& h);
Hierarchy read_hierarchy_sections(const SnapshotReader& r, SectionCursor& c);

/// Identifies which solve parameters a snapshotted forest belongs to
/// (mirrors the runtime's ForestCacheKey, which lives above this layer).
struct ForestSnapshotMeta {
  std::uint64_t graph_fingerprint = 0;
  std::uint64_t seed = 0;
  int num_trees = 0;
  std::string cutter;
};

void append_forest_sections(SnapshotWriter& w, const ForestSnapshotMeta& meta,
                            const std::vector<DecompTree>& forest);
/// Rebuilds the forest against `g` (leaf demands are reconstructed from
/// the graph, exactly as the decomposition builder sets them).  `meta`'s
/// stored fingerprint must match graph_fingerprint(g).
std::vector<DecompTree> read_forest_sections(const SnapshotReader& r,
                                             SectionCursor& c, const Graph& g,
                                             ForestSnapshotMeta* meta);

// ---------------------------------------------------------------------------
// Whole-file convenience wrappers.

Status save_graph_snapshot(const Graph& g, const std::string& path);
Graph load_graph_snapshot(const std::string& path);

Status save_hierarchy_snapshot(const Hierarchy& h, const std::string& path);
Hierarchy load_hierarchy_snapshot(const std::string& path);

/// A self-contained forest snapshot embeds its graph, so warm-loading
/// needs nothing but the file.
struct ForestSnapshot {
  ForestSnapshotMeta meta;
  Graph graph;
  std::vector<DecompTree> forest;
};

Status save_forest_snapshot(const ForestSnapshotMeta& meta, const Graph& g,
                            const std::vector<DecompTree>& forest,
                            const std::string& path);
ForestSnapshot load_forest_snapshot(const std::string& path);

}  // namespace hgp::io
