#include "io/snapshot.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "util/fault_injector.hpp"

namespace hgp::io {

namespace {

constexpr std::size_t kFileHeaderSize = 16;     // magic + version + count
constexpr std::size_t kSectionHeaderSize = 16;  // type + crc + length
constexpr std::size_t kFooterSize = 4;          // file crc
constexpr char kMagic[8] = {'H', 'G', 'P', 'S', 'N', 'A', 'P', '\0'};

/// Reject files claiming implausible sizes before buffering them: a
/// corrupt/hostile st_size must produce kDataLoss, not a bad_alloc crash.
constexpr std::size_t kMaxSnapshotBytes = std::size_t{1} << 32;  // 4 GiB

[[noreturn]] void data_loss(const std::string& what) {
  throw SolveError(StatusCode::kDataLoss, "snapshot: " + what);
}

// Explicit little-endian encoding: the container's integer fields never
// depend on host layout even if the POD-span payload path someday grows a
// byte-swapping variant.
void store_le32(std::vector<std::byte>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xffu));
  }
}

void store_le64(std::vector<std::byte>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xffu));
  }
}

std::uint32_t load_le32(const std::byte* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(std::to_integer<std::uint8_t>(p[i]))
         << (8 * i);
  }
  return v;
}

std::uint64_t load_le64(const std::byte* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(std::to_integer<std::uint8_t>(p[i]))
         << (8 * i);
  }
  return v;
}

Status io_error(const std::string& what, int err) {
  // Disk-full is transient pressure like any other resource limit; every
  // other errno is an unclassified environment failure.
  const StatusCode code = (err == ENOSPC || err == EDQUOT)
                              ? StatusCode::kResourceExhausted
                              : StatusCode::kInternal;
  return Status(code, "snapshot: " + what + ": " + std::strerror(err));
}

bool write_all(int fd, const std::byte* data, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

/// Best-effort fsync of the directory holding `path`, so the rename that
/// published a snapshot is itself durable.  Failure is ignored: the data
/// file is already synced and the worst case is re-doing one spill.
void sync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int fd = ::open(dir.empty() ? "/" : dir.c_str(),
                        O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  static const std::array<std::uint32_t, 256> kTable = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = seed ^ 0xFFFFFFFFu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    crc = kTable[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

const char* section_type_name(SectionType type) {
  switch (type) {
    case SectionType::kGraphHeader:
      return "graph_header";
    case SectionType::kGraphEdges:
      return "graph_edges";
    case SectionType::kGraphDemands:
      return "graph_demands";
    case SectionType::kHierarchy:
      return "hierarchy";
    case SectionType::kForestHeader:
      return "forest_header";
    case SectionType::kForestTree:
      return "forest_tree";
    case SectionType::kCheckpointHeader:
      return "checkpoint_header";
    case SectionType::kCheckpointTree:
      return "checkpoint_tree";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// PayloadBuilder / SectionView

void PayloadBuilder::append_bytes(const void* data, std::size_t size) {
  if (size == 0) return;
  const auto* p = static_cast<const std::byte*>(data);
  bytes_.insert(bytes_.end(), p, p + size);
}

void SectionView::fail(const std::string& why) const {
  throw SolveError(StatusCode::kDataLoss, std::string(what_) + ": " + why);
}

void SectionView::read_bytes(void* out, std::size_t size) {
  if (size > remaining()) {
    fail("payload over-read (" + std::to_string(size) + " bytes wanted, " +
         std::to_string(remaining()) + " left)");
  }
  std::memcpy(out, payload_.data() + cursor_, size);
  cursor_ += size;
}

void SectionView::check_count(std::size_t count, std::size_t elem_size) const {
  // Divide before multiplying: a hostile length field cannot overflow the
  // bound or drive an allocation larger than the payload itself.
  if (count > remaining() / elem_size) {
    fail("claims " + std::to_string(count) +
         " elements but the payload cannot hold them");
  }
}

void SectionView::expect_exhausted() const {
  if (remaining() != 0) {
    fail(std::to_string(remaining()) + " trailing bytes");
  }
}

// ---------------------------------------------------------------------------
// SnapshotWriter

void SnapshotWriter::add_section(SectionType type,
                                 std::span<const std::byte> payload) {
  sections_.push_back(
      Section{type, std::vector<std::byte>(payload.begin(), payload.end())});
}

std::vector<std::byte> SnapshotWriter::serialize() const {
  std::size_t total = kFileHeaderSize + kFooterSize;
  for (const Section& s : sections_) {
    total += kSectionHeaderSize + s.payload.size();
  }
  std::vector<std::byte> out;
  out.reserve(total);
  for (char c : kMagic) out.push_back(static_cast<std::byte>(c));
  store_le32(out, kSnapshotVersion);
  store_le32(out, narrow<std::uint32_t>(sections_.size()));
  for (const Section& s : sections_) {
    store_le32(out, static_cast<std::uint32_t>(s.type));
    store_le32(out, crc32(s.payload.data(), s.payload.size()));
    store_le64(out, static_cast<std::uint64_t>(s.payload.size()));
    out.insert(out.end(), s.payload.begin(), s.payload.end());
  }
  store_le32(out, crc32(out.data(), out.size()));
  return out;
}

Status SnapshotWriter::write_file(const std::string& path) const {
  const std::vector<std::byte> blob = serialize();
  const std::string tmp = path + ".tmp";
  FaultInjector& injector = FaultInjector::instance();

  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return io_error("cannot create " + tmp, errno);

  const FaultInjector::Action write_fault = injector.poll_io("snapshot.write", 0);
  if (write_fault == FaultInjector::Action::kIoEnospc) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return Status(StatusCode::kResourceExhausted,
                  "snapshot: injected ENOSPC writing " + tmp);
  }
  std::size_t to_write = blob.size();
  if (write_fault == FaultInjector::Action::kIoShortWrite) to_write /= 2;
  if (!write_all(fd, blob.data(), to_write)) {
    const int err = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    return io_error("write to " + tmp + " failed", err);
  }
  if (write_fault == FaultInjector::Action::kIoShortWrite) {
    // The kernel accepted fewer bytes than the image holds.  The write
    // reports failure and removes the torn temp file — the final path is
    // untouched, which is the whole point of the temp/rename protocol.
    ::close(fd);
    ::unlink(tmp.c_str());
    return Status(StatusCode::kInternal,
                  "snapshot: injected short write to " + tmp);
  }

  if (injector.poll_io("snapshot.fsync", 0) ==
      FaultInjector::Action::kIoFsyncFail) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return Status(StatusCode::kInternal,
                  "snapshot: injected fsync failure on " + tmp);
  }
  if (::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    return io_error("fsync of " + tmp + " failed", err);
  }
  if (::close(fd) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    return io_error("close of " + tmp + " failed", err);
  }

  if (injector.poll_io("snapshot.rename", 0) ==
      FaultInjector::Action::kIoTornRename) {
    // Model a crash mid-publish: the final path ends up holding a
    // truncated image.  This is the one failure mode that leaves a
    // corrupt file at `path` — readers must reject it (file CRC +
    // exact-size check) and recovery must treat it as no durable state.
    const int torn =
        ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (torn >= 0) {
      write_all(torn, blob.data(), blob.size() / 2);
      ::close(torn);
    }
    ::unlink(tmp.c_str());
    return Status(StatusCode::kInternal,
                  "snapshot: injected torn rename onto " + path);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    return io_error("rename " + tmp + " -> " + path + " failed", err);
  }
  sync_parent_dir(path);
  return Status();
}

// ---------------------------------------------------------------------------
// SnapshotReader

SnapshotReader::SnapshotReader(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    throw SolveError(StatusCode::kDataLoss, "snapshot: cannot open " + path +
                                                ": " + std::strerror(errno));
  }
  struct ::stat st {};
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    ::close(fd);
    throw SolveError(StatusCode::kDataLoss,
                     "snapshot: not a regular file: " + path);
  }
  if (static_cast<std::uint64_t>(st.st_size) > kMaxSnapshotBytes) {
    ::close(fd);
    throw SolveError(StatusCode::kDataLoss,
                     "snapshot: implausibly large file: " + path);
  }
  blob_.resize(static_cast<std::size_t>(st.st_size));
  std::size_t done = 0;
  while (done < blob_.size()) {
    const ssize_t n = ::read(fd, blob_.data() + done, blob_.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      throw SolveError(StatusCode::kDataLoss, "snapshot: read of " + path +
                                                  " failed: " +
                                                  std::strerror(err));
    }
    if (n == 0) break;  // file shrank underneath us; parse() rejects it
    done += static_cast<std::size_t>(n);
  }
  ::close(fd);
  blob_.resize(done);
  try {
    parse();
  } catch (const SolveError& e) {
    throw SolveError(StatusCode::kDataLoss, path + ": " + e.status().message);
  }
}

SnapshotReader::SnapshotReader(std::vector<std::byte> blob)
    : blob_(std::move(blob)) {
  parse();
}

void SnapshotReader::parse() {
  if (blob_.size() < kFileHeaderSize + kFooterSize) {
    data_loss("file truncated (" + std::to_string(blob_.size()) + " bytes)");
  }
  if (std::memcmp(blob_.data(), kMagic, sizeof(kMagic)) != 0) {
    data_loss("bad magic — not a snapshot file");
  }
  const std::uint32_t version = load_le32(blob_.data() + 8);
  if (version != kSnapshotVersion) {
    data_loss("unsupported format version " + std::to_string(version) +
              " (this build reads version " + std::to_string(kSnapshotVersion) +
              ")");
  }
  // The file CRC covers every byte before the footer, and the footer must
  // land exactly at end-of-file — so truncation, extension, and any flip
  // in the header or section table all die here, before the section walk
  // trusts a single field.
  const std::size_t body = blob_.size() - kFooterSize;
  if (crc32(blob_.data(), body) != load_le32(blob_.data() + body)) {
    data_loss("file CRC mismatch");
  }
  const std::uint32_t count = load_le32(blob_.data() + 12);
  sections_.reserve(std::min<std::size_t>(count, body / kSectionHeaderSize));
  std::size_t off = kFileHeaderSize;
  for (std::uint32_t i = 0; i < count; ++i) {
    if (kSectionHeaderSize > body - off) {
      data_loss("section table truncated at section " + std::to_string(i));
    }
    const std::uint32_t type = load_le32(blob_.data() + off);
    const std::uint32_t crc = load_le32(blob_.data() + off + 4);
    const std::uint64_t size = load_le64(blob_.data() + off + 8);
    off += kSectionHeaderSize;
    if (type < static_cast<std::uint32_t>(SectionType::kGraphHeader) ||
        type > static_cast<std::uint32_t>(SectionType::kCheckpointTree)) {
      data_loss("unknown section type " + std::to_string(type));
    }
    if (size > body - off) {
      data_loss("section " + std::to_string(i) + " length out of bounds");
    }
    if (crc32(blob_.data() + off, static_cast<std::size_t>(size)) != crc) {
      data_loss(std::string("section CRC mismatch in ") +
                section_type_name(static_cast<SectionType>(type)));
    }
    sections_.push_back(SectionIndex{static_cast<SectionType>(type), off,
                                     static_cast<std::size_t>(size)});
    off += static_cast<std::size_t>(size);
  }
  if (off != body) {
    data_loss("trailing bytes after last section");
  }
}

SectionView SnapshotReader::section(std::size_t i) const {
  if (i >= sections_.size()) {
    data_loss("section index " + std::to_string(i) +
              " out of range (file has " + std::to_string(sections_.size()) +
              ")");
  }
  const SectionIndex& s = sections_[i];
  return SectionView(
      section_type_name(s.type),
      std::span<const std::byte>(blob_.data() + s.offset, s.size));
}

SectionView SnapshotReader::expect(std::size_t i, SectionType type) const {
  SectionView v = section(i);
  if (sections_[i].type != type) {
    data_loss(std::string("expected section ") + section_type_name(type) +
              " at index " + std::to_string(i) + ", found " +
              section_type_name(sections_[i].type));
  }
  return v;
}

// ---------------------------------------------------------------------------
// Graph codec

void append_graph_sections(SnapshotWriter& w, const Graph& g) {
  GraphHeaderRecord header;
  header.fingerprint = graph_fingerprint(g);
  header.vertex_count = static_cast<std::uint32_t>(g.vertex_count());
  header.has_demands = g.has_demands() ? 1 : 0;
  header.edge_count = g.edges().size();
  PayloadBuilder hb;
  hb.append_pod(header);
  w.add_section(SectionType::kGraphHeader, hb);

  std::vector<EdgeRecord> edges;
  edges.reserve(g.edges().size());
  for (const Edge& e : g.edges()) {
    edges.push_back(EdgeRecord{e.u, e.v, e.weight});
  }
  PayloadBuilder eb;
  eb.append_span(std::span<const EdgeRecord>(edges));
  w.add_section(SectionType::kGraphEdges, eb);

  if (g.has_demands()) {
    PayloadBuilder db;
    db.append_span(std::span<const double>(g.demands()));
    w.add_section(SectionType::kGraphDemands, db);
  }
}

Graph read_graph_sections(const SnapshotReader& r, SectionCursor& c) {
  SectionView hv = r.expect(c.index++, SectionType::kGraphHeader);
  const GraphHeaderRecord header = hv.read_pod<GraphHeaderRecord>();
  hv.expect_exhausted();
  if (header.vertex_count >
      static_cast<std::uint32_t>(std::numeric_limits<Vertex>::max())) {
    data_loss("graph vertex count out of range");
  }
  if (header.has_demands > 1) data_loss("graph has_demands flag corrupt");
  if (header.edge_count >
      static_cast<std::uint64_t>(std::numeric_limits<EdgeId>::max())) {
    data_loss("graph edge count out of range");
  }
  const Vertex n = static_cast<Vertex>(header.vertex_count);

  SectionView ev = r.expect(c.index++, SectionType::kGraphEdges);
  const std::vector<EdgeRecord> edges =
      ev.read_span<EdgeRecord>(static_cast<std::size_t>(header.edge_count));
  ev.expect_exhausted();
  for (const EdgeRecord& e : edges) {
    if (e.u < 0 || e.v <= e.u || e.v >= n) {
      data_loss("graph edge endpoints corrupt");
    }
    if (!std::isfinite(e.weight) || e.weight < 0) {
      data_loss("graph edge weight corrupt");
    }
  }

  std::vector<double> demands;
  if (header.has_demands == 1) {
    SectionView dv = r.expect(c.index++, SectionType::kGraphDemands);
    demands = dv.read_span<double>(static_cast<std::size_t>(n));
    dv.expect_exhausted();
    for (double d : demands) {
      if (!std::isfinite(d) || d < 0) data_loss("graph demand corrupt");
    }
  }

  GraphBuilder builder(n);
  for (const EdgeRecord& e : edges) builder.add_edge(e.u, e.v, e.weight);
  Graph g = builder.build();
  if (!demands.empty()) g.set_demands(std::move(demands));

  // The fingerprint hashes the rebuilt content, so corruption that a
  // CRC fix-up hid (or any writer/reader drift) still surfaces here.
  if (graph_fingerprint(g) != header.fingerprint) {
    data_loss("graph fingerprint mismatch — content does not match what "
              "was written");
  }
  return g;
}

// ---------------------------------------------------------------------------
// Hierarchy codec

void append_hierarchy_sections(SnapshotWriter& w, const Hierarchy& h) {
  HierarchyRecord rec;
  rec.height = static_cast<std::uint32_t>(h.height());
  std::vector<std::int32_t> deg(static_cast<std::size_t>(h.height()));
  for (int j = 0; j < h.height(); ++j) {
    deg[static_cast<std::size_t>(j)] = h.deg(j);
  }
  std::vector<double> cm(static_cast<std::size_t>(h.height()) + 1);
  for (int j = 0; j <= h.height(); ++j) {
    cm[static_cast<std::size_t>(j)] = h.cm(j);
  }
  PayloadBuilder b;
  b.append_pod(rec);
  b.append_span(std::span<const std::int32_t>(deg));
  b.append_span(std::span<const double>(cm));
  w.add_section(SectionType::kHierarchy, b);
}

Hierarchy read_hierarchy_sections(const SnapshotReader& r, SectionCursor& c) {
  SectionView v = r.expect(c.index++, SectionType::kHierarchy);
  const HierarchyRecord rec = v.read_pod<HierarchyRecord>();
  if (rec.reserved != 0) data_loss("hierarchy reserved field corrupt");
  if (rec.height == 0 ||
      rec.height > static_cast<std::uint32_t>(std::numeric_limits<int>::max())) {
    data_loss("hierarchy height corrupt");
  }
  const std::vector<std::int32_t> deg =
      v.read_span<std::int32_t>(rec.height);
  const std::vector<double> cm =
      v.read_span<double>(static_cast<std::size_t>(rec.height) + 1);
  v.expect_exhausted();

  // Pre-check the capacity product with an overflow guard: the Hierarchy
  // constructor multiplies first and checks after, which is UB territory
  // on hostile fan-outs; it must never see them.
  std::int64_t cp = 1;
  for (std::int32_t d : deg) {
    if (d < 1) data_loss("hierarchy fan-out corrupt");
    if (cp > (std::int64_t{1} << 40) / d) data_loss("hierarchy too large");
    cp *= d;
  }
  try {
    return Hierarchy(std::vector<int>(deg.begin(), deg.end()),
                     std::vector<double>(cm));
  } catch (const CheckError& e) {
    data_loss(std::string("hierarchy invariants violated: ") + e.what());
  }
}

// ---------------------------------------------------------------------------
// Forest codec

void append_forest_sections(SnapshotWriter& w, const ForestSnapshotMeta& meta,
                            const std::vector<DecompTree>& forest) {
  ForestHeaderRecord rec;
  rec.graph_fingerprint = meta.graph_fingerprint;
  rec.seed = meta.seed;
  rec.num_trees = meta.num_trees;
  rec.cutter_name_size = narrow<std::uint32_t>(meta.cutter.size());
  PayloadBuilder hb;
  hb.append_pod(rec);
  hb.append_span(std::span<const char>(meta.cutter.data(), meta.cutter.size()));
  w.add_section(SectionType::kForestHeader, hb);

  for (const DecompTree& dt : forest) {
    const Tree& tree = dt.tree();
    const Vertex n = tree.node_count();
    const std::size_t un = static_cast<std::size_t>(n);
    ForestTreeRecord tr;
    tr.node_count = static_cast<std::uint32_t>(n);
    std::vector<std::int32_t> parent(un);
    std::vector<double> weight(un);
    std::vector<std::uint8_t> infinite(un);
    std::vector<std::int32_t> leaf_vertex(un);
    for (Vertex t = 0; t < n; ++t) {
      const std::size_t ut = static_cast<std::size_t>(t);
      parent[ut] = tree.parent(t);
      // Root entries are normalized to zero: parent_weight is undefined
      // for the root, and deterministic bytes keep CRCs reproducible.
      weight[ut] = t == tree.root() ? 0.0 : tree.parent_weight(t);
      infinite[ut] =
          t != tree.root() && tree.parent_edge_infinite(t) ? 1 : 0;
      leaf_vertex[ut] =
          tree.is_leaf(t) ? dt.vertex_of_leaf(t) : kInvalidVertex;
    }
    PayloadBuilder tb;
    tb.append_pod(tr);
    tb.append_span(std::span<const std::int32_t>(parent));
    tb.append_span(std::span<const double>(weight));
    tb.append_span(std::span<const std::uint8_t>(infinite));
    tb.append_span(std::span<const std::int32_t>(leaf_vertex));
    w.add_section(SectionType::kForestTree, tb);
  }
}

std::vector<DecompTree> read_forest_sections(const SnapshotReader& r,
                                             SectionCursor& c, const Graph& g,
                                             ForestSnapshotMeta* meta) {
  SectionView hv = r.expect(c.index++, SectionType::kForestHeader);
  const ForestHeaderRecord rec = hv.read_pod<ForestHeaderRecord>();
  const std::vector<char> name = hv.read_span<char>(rec.cutter_name_size);
  hv.expect_exhausted();
  // The claimed tree count is bounded by the sections actually present
  // BEFORE the reserve below: a hostile count must fail typed, not
  // bad_alloc (found by hgp_snapfuzz's CRC-fixed regime).
  if (rec.num_trees < 0 ||
      static_cast<std::size_t>(rec.num_trees) > r.section_count() - c.index) {
    data_loss("forest tree count corrupt");
  }
  if (rec.graph_fingerprint != graph_fingerprint(g)) {
    data_loss("forest snapshot does not match this graph (fingerprint "
              "mismatch)");
  }

  std::vector<DecompTree> forest;
  forest.reserve(static_cast<std::size_t>(rec.num_trees));
  for (std::int32_t i = 0; i < rec.num_trees; ++i) {
    SectionView tv = r.expect(c.index++, SectionType::kForestTree);
    const ForestTreeRecord tr = tv.read_pod<ForestTreeRecord>();
    if (tr.reserved != 0) data_loss("forest tree reserved field corrupt");
    if (tr.node_count == 0 ||
        tr.node_count >
            static_cast<std::uint32_t>(std::numeric_limits<Vertex>::max())) {
      data_loss("forest tree node count corrupt");
    }
    const std::size_t un = tr.node_count;
    const Vertex n = static_cast<Vertex>(tr.node_count);
    std::vector<std::int32_t> parent = tv.read_span<std::int32_t>(un);
    std::vector<double> weight = tv.read_span<double>(un);
    const std::vector<std::uint8_t> infinite = tv.read_span<std::uint8_t>(un);
    std::vector<std::int32_t> leaf_vertex = tv.read_span<std::int32_t>(un);
    tv.expect_exhausted();
    std::vector<char> inf_flags(un);
    for (std::size_t t = 0; t < un; ++t) {
      if (parent[t] < kInvalidVertex || parent[t] >= n) {
        data_loss("forest tree parent pointer corrupt");
      }
      if (!std::isfinite(weight[t]) || weight[t] < 0) {
        data_loss("forest tree edge weight corrupt");
      }
      if (infinite[t] > 1) data_loss("forest tree infinity flag corrupt");
      inf_flags[t] = static_cast<char>(infinite[t]);
      if (leaf_vertex[t] < kInvalidVertex ||
          leaf_vertex[t] >= g.vertex_count()) {
        data_loss("forest tree leaf mapping corrupt");
      }
    }
    try {
      // Cycles, multiple roots, or a broken leaf↔vertex bijection are
      // caught by Tree::from_parents / the DecompTree constructor; their
      // CheckErrors become kDataLoss like every other corruption.
      Tree tree = Tree::from_parents(
          std::vector<Vertex>(parent.begin(), parent.end()),
          std::vector<Weight>(weight.begin(), weight.end()),
          std::move(inf_flags));
      if (g.has_demands()) {
        // Demands are not stored: rebuild them from the graph exactly as
        // the decomposition builder does.
        std::vector<double> demand(un, 0.0);
        for (Vertex t : tree.leaves()) {
          const std::int32_t v = leaf_vertex[static_cast<std::size_t>(t)];
          if (v == kInvalidVertex) data_loss("forest tree leaf unmapped");
          demand[static_cast<std::size_t>(t)] = g.demand(v);
        }
        tree.set_demands(std::move(demand));
      }
      forest.emplace_back(
          std::move(tree),
          std::vector<Vertex>(leaf_vertex.begin(), leaf_vertex.end()), g);
    } catch (const SolveError&) {
      throw;
    } catch (const CheckError& e) {
      data_loss(std::string("forest tree structure rejected: ") + e.what());
    }
  }
  if (meta != nullptr) {
    meta->graph_fingerprint = rec.graph_fingerprint;
    meta->seed = rec.seed;
    meta->num_trees = rec.num_trees;
    meta->cutter.assign(name.begin(), name.end());
  }
  return forest;
}

// ---------------------------------------------------------------------------
// Whole-file wrappers

namespace {

void expect_no_trailing_sections(const SnapshotReader& r,
                                 const SectionCursor& c) {
  if (c.index != r.section_count()) {
    data_loss("unexpected trailing sections");
  }
}

}  // namespace

Status save_graph_snapshot(const Graph& g, const std::string& path) {
  SnapshotWriter w;
  append_graph_sections(w, g);
  return w.write_file(path);
}

Graph load_graph_snapshot(const std::string& path) {
  const SnapshotReader r(path);
  SectionCursor c;
  Graph g = read_graph_sections(r, c);
  expect_no_trailing_sections(r, c);
  return g;
}

Status save_hierarchy_snapshot(const Hierarchy& h, const std::string& path) {
  SnapshotWriter w;
  append_hierarchy_sections(w, h);
  return w.write_file(path);
}

Hierarchy load_hierarchy_snapshot(const std::string& path) {
  const SnapshotReader r(path);
  SectionCursor c;
  Hierarchy h = read_hierarchy_sections(r, c);
  expect_no_trailing_sections(r, c);
  return h;
}

Status save_forest_snapshot(const ForestSnapshotMeta& meta, const Graph& g,
                            const std::vector<DecompTree>& forest,
                            const std::string& path) {
  if (meta.graph_fingerprint != graph_fingerprint(g)) {
    return Status(StatusCode::kInvalidInput,
                  "snapshot: forest meta fingerprint does not match the "
                  "graph being embedded");
  }
  if (meta.num_trees != narrow<int>(forest.size())) {
    return Status(StatusCode::kInvalidInput,
                  "snapshot: forest meta tree count does not match the "
                  "forest being embedded");
  }
  SnapshotWriter w;
  append_graph_sections(w, g);
  append_forest_sections(w, meta, forest);
  return w.write_file(path);
}

ForestSnapshot load_forest_snapshot(const std::string& path) {
  const SnapshotReader r(path);
  SectionCursor c;
  ForestSnapshot snap;
  snap.graph = read_graph_sections(r, c);
  snap.forest = read_forest_sections(r, c, snap.graph, &snap.meta);
  expect_no_trailing_sections(r, c);
  return snap;
}

}  // namespace hgp::io
