// hgp_snapfuzz — seeded corruption harness for the snapshot container and
// the shard wire messages.
//
//   hgp_snapfuzz [--iters N] [--seed S] [--verbose]
//
// Builds a pristine snapshot of every file kind the io layer persists
// (graph, hierarchy, self-contained forest, checkpoint spill), then hammers
// each with two seeded mutation regimes:
//
//   * raw mutations — bit flips, byte stomps, truncation, extension, zeroed
//     ranges, byte swaps at random offsets.  Any mutation that changes the
//     image MUST be rejected with SolveError{kDataLoss}: the file CRC
//     covers every byte and the footer must land exactly at end-of-file,
//     so there is no undetectable raw corruption.  A surviving parse or
//     any other exception type is a harness failure.
//   * CRC-fixed mutations — a payload byte is stomped and then the section
//     CRC and file CRC are recomputed, yielding a self-consistent container
//     with corrupt content.  This drives the semantic validation layer
//     (index ranges, finite weights, tree shape, graph fingerprint).  The
//     contract here is weaker by design — the parse must either reject
//     with kDataLoss or succeed (some byte stomps produce a different but
//     valid payload, e.g. another finite edge weight); it must never crash,
//     leak, or throw anything untyped.  Run under ASan/UBSan, "no crash"
//     is a real check (scripts/snapshot_fuzz.sh, CI job snapshot-fuzz).
//
// Hand-crafted adversarial images (bad magic, future version, unknown
// section type, hostile length fields) round out the random coverage.
//
// A third regime fuzzes the shard wire messages, which share the
// snapshot's payload codec: seeded flips, stomps, truncations and
// extensions of valid Job, Assign, TreeResult and Hello payloads are fed
// to their decoders.  A message has no CRC of its own (its frame's CRC
// sits below it), so a flipped or stomped byte may decode to another
// valid message; it must decode or be rejected with kDataLoss, never
// crash or throw anything untyped.  A truncated or extended payload must
// always be rejected: every message has to be consumed exactly.
//
// Exit 0 when every expectation held, 1 otherwise.  Deterministic in
// --seed.
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "decomp/builder.hpp"
#include "decomp/cutter.hpp"
#include "graph/fingerprint.hpp"
#include "graph/generators.hpp"
#include "hierarchy/hierarchy.hpp"
#include "hierarchy/placement.hpp"
#include "io/snapshot.hpp"
#include "net/channel.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "runtime/checkpoint.hpp"
#include "util/prng.hpp"
#include "util/status.hpp"

namespace {

using namespace hgp;

int g_failures = 0;

#define FUZZ_EXPECT(cond, ...)                \
  do {                                        \
    if (!(cond)) {                            \
      ++g_failures;                           \
      std::fprintf(stderr, "FAIL: ");         \
      std::fprintf(stderr, __VA_ARGS__);      \
      std::fprintf(stderr, "  [%s]\n", #cond); \
    }                                         \
  } while (0)

/// Outcome of one parse attempt over a (possibly mutated) image.
enum class Parse { kOk, kDataLossRejected, kWrongError };

/// Diagnostic trail for kWrongError: what actually escaped.
std::string g_last_error;

/// One snapshot kind or wire message under test: a pristine image plus
/// the typed parse the production code would run over it.
struct Corpus {
  std::string name;
  std::vector<std::byte> image;
  Parse (*parse)(const std::vector<std::byte>&);
};

Parse classify_parse(void (*body)(const std::vector<std::byte>&),
                     const std::vector<std::byte>& image) {
  try {
    body(image);
    return Parse::kOk;
  } catch (const SolveError& e) {
    if (e.code() == StatusCode::kDataLoss) return Parse::kDataLossRejected;
    g_last_error = std::string("SolveError: ") + e.what();
    return Parse::kWrongError;
  } catch (const std::exception& e) {
    g_last_error = std::string("untyped: ") + e.what();
    return Parse::kWrongError;
  } catch (...) {
    g_last_error = "non-std exception";
    return Parse::kWrongError;
  }
}

// The fuzz targets parse from memory via SnapshotReader's blob constructor
// — no file round-trip per iteration.  Each consumes the full section
// sequence its writer emits, mirroring the load_* wrappers.

Parse parse_graph(const std::vector<std::byte>& image) {
  return classify_parse(
      [](const std::vector<std::byte>& img) {
        io::SnapshotReader r{std::vector<std::byte>(img)};
        io::SectionCursor c;
        (void)io::read_graph_sections(r, c);
      },
      image);
}

Parse parse_hierarchy(const std::vector<std::byte>& image) {
  return classify_parse(
      [](const std::vector<std::byte>& img) {
        io::SnapshotReader r{std::vector<std::byte>(img)};
        io::SectionCursor c;
        (void)io::read_hierarchy_sections(r, c);
      },
      image);
}

Parse parse_forest(const std::vector<std::byte>& image) {
  return classify_parse(
      [](const std::vector<std::byte>& img) {
        io::SnapshotReader r{std::vector<std::byte>(img)};
        io::SectionCursor c;
        const Graph g = io::read_graph_sections(r, c);
        io::ForestSnapshotMeta meta;
        (void)io::read_forest_sections(r, c, g, &meta);
      },
      image);
}

/// SolveCheckpoint::load takes a path, so the checkpoint target round-trips
/// through one temp file (same bytes, same parse).
std::string g_checkpoint_tmp;

Parse parse_checkpoint(const std::vector<std::byte>& image) {
  {
    std::ofstream os(g_checkpoint_tmp, std::ios::binary | std::ios::trunc);
    os.write(reinterpret_cast<const char*>(image.data()),
             static_cast<std::streamsize>(image.size()));
  }
  SolveCheckpoint ck;
  const Status s = ck.load(g_checkpoint_tmp);
  if (s.ok()) return Parse::kOk;
  return s.code == StatusCode::kDataLoss ? Parse::kDataLossRejected
                                         : Parse::kWrongError;
}

// ---------------------------------------------------------------------------
// Mutators.

std::vector<std::byte> mutate_raw(const std::vector<std::byte>& image,
                                  Rng& rng) {
  std::vector<std::byte> out = image;
  const auto offset = [&](std::size_t size) {
    return static_cast<std::size_t>(
        rng.next_double(0, static_cast<double>(size) - 0.001));
  };
  switch (static_cast<int>(rng.next_double(0, 6))) {
    case 0: {  // bit flip
      const std::size_t at = offset(out.size());
      out[at] ^= static_cast<std::byte>(1u << static_cast<int>(
                     rng.next_double(0, 7.999)));
      break;
    }
    case 1: {  // byte stomp
      const std::size_t at = offset(out.size());
      out[at] = static_cast<std::byte>(
          static_cast<unsigned>(rng.next_double(0, 255.999)));
      break;
    }
    case 2:  // truncation (possibly to empty)
      out.resize(offset(out.size()));
      break;
    case 3: {  // extension with random bytes
      const std::size_t extra = 1 + offset(64);
      for (std::size_t i = 0; i < extra; ++i) {
        out.push_back(static_cast<std::byte>(
            static_cast<unsigned>(rng.next_double(0, 255.999))));
      }
      break;
    }
    case 4: {  // zero a small range
      const std::size_t at = offset(out.size());
      const std::size_t len = std::min<std::size_t>(4, out.size() - at);
      std::memset(out.data() + at, 0, len);
      break;
    }
    default: {  // swap two bytes
      const std::size_t a = offset(out.size());
      const std::size_t b = offset(out.size());
      std::swap(out[a], out[b]);
      break;
    }
  }
  return out;
}

std::uint32_t load_u32(const std::vector<std::byte>& image, std::size_t at) {
  std::uint32_t v = 0;
  std::memcpy(&v, image.data() + at, sizeof(v));
  return v;
}

void store_u32(std::vector<std::byte>& image, std::size_t at,
               std::uint32_t v) {
  std::memcpy(image.data() + at, &v, sizeof(v));
}

std::uint64_t load_u64(const std::vector<std::byte>& image, std::size_t at) {
  std::uint64_t v = 0;
  std::memcpy(&v, image.data() + at, sizeof(v));
  return v;
}

/// Stomps one payload byte of a random section, then repairs the section
/// CRC and the file CRC so every container-level check passes and only the
/// typed codecs can catch the damage.  Returns an empty vector when the
/// image has no non-empty payload to corrupt.
std::vector<std::byte> mutate_crc_fixed(const std::vector<std::byte>& image,
                                        Rng& rng) {
  // Walk the container exactly as the reader does: 16-byte file header,
  // then per section a 16-byte header {type, crc, size} + payload.
  constexpr std::size_t kFileHeader = 16;
  constexpr std::size_t kSectionHeader = 16;
  if (image.size() < kFileHeader + 4) return {};
  const std::uint32_t sections = load_u32(image, 12);
  struct Span {
    std::size_t header;
    std::size_t payload;
    std::size_t size;
  };
  std::vector<Span> spans;
  std::size_t at = kFileHeader;
  for (std::uint32_t i = 0; i < sections; ++i) {
    if (at + kSectionHeader > image.size()) return {};
    const std::uint64_t size = load_u64(image, at + 8);
    const std::size_t payload = at + kSectionHeader;
    if (size > image.size() || payload + size > image.size()) return {};
    if (size > 0) spans.push_back({at, payload, static_cast<std::size_t>(size)});
    at = payload + static_cast<std::size_t>(size);
  }
  if (spans.empty() || at + 4 != image.size()) return {};

  std::vector<std::byte> out = image;
  const Span& s = spans[static_cast<std::size_t>(
      rng.next_double(0, static_cast<double>(spans.size()) - 0.001))];
  const std::size_t victim =
      s.payload + static_cast<std::size_t>(rng.next_double(
                      0, static_cast<double>(s.size) - 0.001));
  out[victim] ^= static_cast<std::byte>(
      1u + static_cast<unsigned>(rng.next_double(0, 254.999)));
  store_u32(out, s.header + 4, io::crc32(out.data() + s.payload, s.size));
  store_u32(out, out.size() - 4, io::crc32(out.data(), out.size() - 4));
  return out;
}

// ---------------------------------------------------------------------------
// Hand-crafted adversarial images.

void check_handcrafted(const Corpus& corpus) {
  const std::vector<std::byte>& base = corpus.image;
  const auto expect_rejected = [&](std::vector<std::byte> img,
                                   const char* what) {
    FUZZ_EXPECT(corpus.parse(img) == Parse::kDataLossRejected,
                "%s: %s not rejected with kDataLoss\n", corpus.name.c_str(),
                what);
  };

  {  // wrong magic (CRCs repaired so only the magic check can fire)
    std::vector<std::byte> img = base;
    img[0] = std::byte{'X'};
    store_u32(img, img.size() - 4, io::crc32(img.data(), img.size() - 4));
    expect_rejected(std::move(img), "bad magic");
  }
  {  // future format version
    std::vector<std::byte> img = base;
    store_u32(img, 8, io::kSnapshotVersion + 1);
    store_u32(img, img.size() - 4, io::crc32(img.data(), img.size() - 4));
    expect_rejected(std::move(img), "future version");
  }
  {  // unknown section type (first section re-typed, CRCs fixed)
    std::vector<std::byte> img = base;
    store_u32(img, 16, 0xDEAD);
    store_u32(img, img.size() - 4, io::crc32(img.data(), img.size() - 4));
    expect_rejected(std::move(img), "unknown section type");
  }
  {  // hostile section length: points past end-of-file
    std::vector<std::byte> img = base;
    const std::uint64_t huge = ~std::uint64_t{0} / 2;
    std::memcpy(img.data() + 24, &huge, sizeof(huge));
    store_u32(img, img.size() - 4, io::crc32(img.data(), img.size() - 4));
    expect_rejected(std::move(img), "hostile section length");
  }
  expect_rejected({}, "empty file");
  {  // header-only file (no sections, no footer)
    std::vector<std::byte> img(base.begin(), base.begin() + 16);
    expect_rejected(std::move(img), "header-only file");
  }
}

// ---------------------------------------------------------------------------
// Wire regime.

Parse parse_job(const std::vector<std::byte>& payload) {
  return classify_parse(
      [](const std::vector<std::byte>& p) { (void)net::decode_job(p); },
      payload);
}

Parse parse_assign(const std::vector<std::byte>& payload) {
  return classify_parse(
      [](const std::vector<std::byte>& p) { (void)net::decode_assign(p); },
      payload);
}

Parse parse_tree_result(const std::vector<std::byte>& payload) {
  return classify_parse(
      [](const std::vector<std::byte>& p) {
        (void)net::decode_tree_result(p);
      },
      payload);
}

/// The Hello decoder lives inside the handshake, so the payload goes
/// through a real one over a socket pair (small enough to sit in the
/// socket buffer, so one thread drives both ends).
Parse parse_hello(const std::vector<std::byte>& payload) {
  return classify_parse(
      [](const std::vector<std::byte>& p) {
        auto [a, b] = net::socket_pair();
        net::FrameChannel client{std::move(a)}, server{std::move(b)};
        const Deadline deadline = Deadline::after_ms(5000);
        client.send(net::kMsgHello, p, deadline);
        (void)net::handshake_server(server, deadline);
      },
      payload);
}

/// One seeded flip, stomp, truncation or extension.  Sets *must_reject
/// for the length-changing kinds.
std::vector<std::byte> mutate_wire(const std::vector<std::byte>& payload,
                                   Rng& rng, bool* must_reject) {
  std::vector<std::byte> out = payload;
  const std::size_t at = static_cast<std::size_t>(
      rng.next_double(0, static_cast<double>(out.size()) - 0.001));
  const auto random_byte = [&] {
    return static_cast<std::byte>(
        static_cast<unsigned>(rng.next_double(0, 255.999)));
  };
  *must_reject = false;
  switch (static_cast<int>(rng.next_double(0, 4))) {
    case 0:  // bit flip
      out[at] ^= static_cast<std::byte>(
          1u << static_cast<int>(rng.next_double(0, 7.999)));
      break;
    case 1:  // byte stomp
      out[at] = random_byte();
      break;
    case 2:  // truncation (possibly to empty)
      out.resize(at);
      *must_reject = true;
      break;
    default: {  // extension with random bytes
      const std::size_t extra =
          1 + static_cast<std::size_t>(rng.next_double(0, 63.999));
      for (std::size_t i = 0; i < extra; ++i) out.push_back(random_byte());
      *must_reject = true;
      break;
    }
  }
  return out;
}

void hammer_wire(const Corpus& corpus, Rng& rng, int iters) {
  FUZZ_EXPECT(corpus.parse(corpus.image) == Parse::kOk,
              "%s: pristine payload failed to decode\n", corpus.name.c_str());
  int rejected = 0, decoded = 0;
  for (int i = 0; i < iters; ++i) {
    bool must_reject = false;
    const std::vector<std::byte> mutated =
        mutate_wire(corpus.image, rng, &must_reject);
    const Parse p = corpus.parse(mutated);
    FUZZ_EXPECT(p != Parse::kWrongError,
                "%s: iter %d mutation escaped the kDataLoss contract (%s)\n",
                corpus.name.c_str(), i, g_last_error.c_str());
    FUZZ_EXPECT(!must_reject || p == Parse::kDataLossRejected,
                "%s: iter %d resized payload (%zu of %zu bytes) decoded\n",
                corpus.name.c_str(), i, mutated.size(), corpus.image.size());
    rejected += p == Parse::kDataLossRejected ? 1 : 0;
    decoded += p == Parse::kOk ? 1 : 0;
  }
  std::printf("%-10s %d wire (%d rejected, %d still valid)\n",
              corpus.name.c_str(), iters, rejected, decoded);
}

}  // namespace

int main(int argc, char** argv) {
  int iters = 1000;
  std::uint64_t seed = 1;
  bool verbose = false;
  for (int i = 1; i < argc; ++i) {
    auto need = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "hgp_snapfuzz: missing value for %s\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--iters")) {
      iters = std::atoi(need("--iters").c_str());
      if (iters < 1) {
        std::fprintf(stderr, "hgp_snapfuzz: --iters must be >= 1\n");
        return 2;
      }
    } else if (!std::strcmp(argv[i], "--seed")) {
      seed = std::strtoull(need("--seed").c_str(), nullptr, 10);
    } else if (!std::strcmp(argv[i], "--verbose")) {
      verbose = true;
    } else if (!std::strcmp(argv[i], "--help") || !std::strcmp(argv[i], "-h")) {
      std::printf("usage: hgp_snapfuzz [--iters N] [--seed S] [--verbose]\n");
      return 0;
    } else {
      std::fprintf(stderr, "hgp_snapfuzz: unknown argument '%s'\n", argv[i]);
      return 2;
    }
  }

  // ---- Pristine corpora, one per persisted file kind.
  Rng master(seed);
  Graph g = gen::planted_partition(24, 3, 0.7, 0.1, master,
                                   gen::WeightRange{2.0, 6.0},
                                   gen::WeightRange{1.0, 2.0});
  gen::set_uniform_demands(g, 4.0 / 24);
  const Hierarchy h({2, 2}, {4.0, 1.0, 0.0});
  const FmCutter cutter;
  const std::vector<DecompTree> forest =
      build_decomposition_forest(g, 2, seed, cutter);

  std::vector<Corpus> corpora;
  {
    io::SnapshotWriter w;
    io::append_graph_sections(w, g);
    corpora.push_back({"graph", w.serialize(), &parse_graph});
  }
  {
    io::SnapshotWriter w;
    io::append_hierarchy_sections(w, h);
    corpora.push_back({"hierarchy", w.serialize(), &parse_hierarchy});
  }
  {
    io::SnapshotWriter w;
    io::append_graph_sections(w, g);
    io::ForestSnapshotMeta meta;
    meta.graph_fingerprint = graph_fingerprint(g);
    meta.seed = seed;
    meta.num_trees = static_cast<int>(forest.size());
    meta.cutter = cutter.name();
    io::append_forest_sections(w, meta, forest);
    corpora.push_back({"forest", w.serialize(), &parse_forest});
  }
  {
    // A bound checkpoint with two recorded trees, spilled then re-read as
    // bytes so mutations run over the exact production image.
    g_checkpoint_tmp = std::string(std::getenv("TMPDIR") != nullptr
                                       ? std::getenv("TMPDIR")
                                       : "/tmp") +
                       "/hgp_snapfuzz_ckpt." + std::to_string(::getpid());
    SolveCheckpoint ck;
    CheckpointKey key;
    key.graph_fingerprint = graph_fingerprint(g);
    key.seed = seed;
    key.num_trees = 2;
    key.epsilon = 0.5;
    ck.bind(key);
    for (int t = 0; t < 2; ++t) {
      CheckpointedTree tree;
      tree.placement.leaf_of.assign(
          static_cast<std::size_t>(g.vertex_count()),
          static_cast<LeafId>(t % h.leaf_count()));
      tree.cost = 1.5 + t;
      ck.record(t, std::move(tree));
    }
    const Status s = ck.save(g_checkpoint_tmp);
    FUZZ_EXPECT(s.ok(), "checkpoint corpus save failed: %s\n",
                s.to_string().c_str());
    std::ifstream is(g_checkpoint_tmp, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(is)),
                            std::istreambuf_iterator<char>());
    std::vector<std::byte> image(bytes.size());
    std::memcpy(image.data(), bytes.data(), bytes.size());
    corpora.push_back({"checkpoint", std::move(image), &parse_checkpoint});
  }

  // ---- The hammer.
  for (const Corpus& corpus : corpora) {
    FUZZ_EXPECT(corpus.parse(corpus.image) == Parse::kOk,
                "%s: pristine image failed to parse\n", corpus.name.c_str());
    check_handcrafted(corpus);

    Rng rng = master.fork(static_cast<std::uint64_t>(
        std::hash<std::string>{}(corpus.name)));
    int rejected = 0, unchanged = 0, fixed_ok = 0, fixed_rejected = 0,
        fixed_skipped = 0;
    for (int i = 0; i < iters; ++i) {
      // Raw regime: every changed byte must be caught at the container
      // level.
      std::vector<std::byte> raw = mutate_raw(corpus.image, rng);
      if (raw == corpus.image) {
        ++unchanged;  // e.g. swapped two equal bytes
        FUZZ_EXPECT(corpus.parse(raw) == Parse::kOk,
                    "%s: iter %d identity mutation failed to parse\n",
                    corpus.name.c_str(), i);
      } else {
        const Parse p = corpus.parse(raw);
        FUZZ_EXPECT(p == Parse::kDataLossRejected,
                    "%s: iter %d raw mutation not rejected (outcome %d)\n",
                    corpus.name.c_str(), i, static_cast<int>(p));
        rejected += p == Parse::kDataLossRejected ? 1 : 0;
      }

      // CRC-fixed regime: container checks pass, semantics must hold the
      // line — kDataLoss or a clean parse, never a crash or untyped throw.
      std::vector<std::byte> fixed = mutate_crc_fixed(corpus.image, rng);
      if (fixed.empty()) {
        ++fixed_skipped;
        continue;
      }
      switch (corpus.parse(fixed)) {
        case Parse::kOk:
          ++fixed_ok;
          break;
        case Parse::kDataLossRejected:
          ++fixed_rejected;
          break;
        case Parse::kWrongError:
          FUZZ_EXPECT(false,
                      "%s: iter %d CRC-fixed mutation escaped the "
                      "kDataLoss contract (%s)\n",
                      corpus.name.c_str(), i, g_last_error.c_str());
          break;
      }
    }
    std::printf(
        "%-10s %d raw (%d rejected, %d identity), %d crc-fixed "
        "(%d rejected, %d still valid, %d skipped)\n",
        corpus.name.c_str(), iters, rejected, unchanged, iters - fixed_skipped,
        fixed_rejected, fixed_ok, fixed_skipped);
    if (verbose) {
      std::printf("  image: %zu bytes, %d failures so far\n",
                  corpus.image.size(), g_failures);
    }
  }

  // ---- The wire hammer: one valid payload per message kind.
  std::vector<Corpus> wire;
  {
    net::JobMsg job;
    job.epsilon = 0.5;
    job.seed = seed;
    job.num_trees = static_cast<std::int32_t>(forest.size());
    job.heartbeat_ms = 50;
    job.snapshot_blob = corpora[2].image;  // opaque bytes to decode_job
    wire.push_back({"job", net::encode_job(job), &parse_job});

    net::AssignMsg assign;
    assign.epoch = 3;
    assign.tree_index = 1;
    wire.push_back({"assign", net::encode_assign(assign), &parse_assign});

    net::TreeResultMsg result;
    result.epoch = 3;
    result.tree_index = 1;
    result.cost = 17.25;
    result.stats.signature_count = 9;
    result.stats.merge_operations = 120;
    for (Vertex v = 0; v < g.vertex_count(); ++v) {
      result.leaf_of.push_back(v % h.leaf_count());
    }
    wire.push_back(
        {"result", net::encode_tree_result(result), &parse_tree_result});

    io::PayloadBuilder hello;
    hello.append_pod(std::uint32_t{net::kProtocolVersion});
    hello.append_pod(net::kRoleCoordinator);
    wire.push_back({"hello", hello.take(), &parse_hello});
  }
  for (const Corpus& corpus : wire) {
    Rng rng = master.fork(static_cast<std::uint64_t>(
        std::hash<std::string>{}("wire." + corpus.name)));
    hammer_wire(corpus, rng, iters);
  }

  if (!g_checkpoint_tmp.empty()) std::remove(g_checkpoint_tmp.c_str());
  if (g_failures > 0) {
    std::fprintf(stderr, "hgp_snapfuzz: %d contract violation(s)\n",
                 g_failures);
    return 1;
  }
  std::printf("hgp_snapfuzz: all corruption contracts held\n");
  return 0;
}
