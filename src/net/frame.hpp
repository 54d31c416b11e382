// Length-prefixed framed messages with per-frame CRC-32: the unit of the
// shard wire protocol (src/net/protocol.hpp rides on top).
//
// Frame layout (all integers little-endian, like the snapshot container):
//
//   FrameHeader { u32 magic = "HGPM"; u16 version; u16 type;
//                 u32 payload_size; u32 payload_crc32; u32 header_crc32 }
//   payload…     (payload_size bytes)
//
// header_crc32 covers the 16 header bytes before it; payload_crc32 covers
// the payload (CRC of src/io/snapshot.hpp, shared machinery).  Integrity
// discipline mirrors snapshot.cpp: every malformed input — bad magic,
// version skew, a hostile length, any bit flip, truncation — yields a
// typed SolveError{kDataLoss} before any allocation sized from untrusted
// bytes, never UB.  A stream that ends cleanly *between* frames is not a
// decode failure but a peer departure: the channel layer reports it as
// kUnavailable (see channel.hpp), keeping "bytes are wrong" (kDataLoss)
// distinct from "peer is gone" (kUnavailable).
//
// WireWriter/WireReader are the payload codec primitives: bounds-checked
// cursor reads in the SectionView idiom, with blob/string lengths
// validated against the remaining payload BEFORE allocation.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/status.hpp"

namespace hgp::net {

static_assert(std::endian::native == std::endian::little,
              "wire frames require a little-endian host");

/// Bumped on any frame- or message-layout change; both the frame header
/// and the Hello handshake carry it, so skew is caught before any typed
/// payload is trusted.
constexpr std::uint16_t kProtocolVersion = 4;

/// Upper bound on one frame's payload: large enough for a job frame
/// embedding a graph+forest snapshot blob, small enough that a hostile
/// length field cannot drive an allocation bomb.
constexpr std::uint32_t kMaxFramePayload = 256u << 20;  // 256 MiB

constexpr std::uint32_t kFrameMagic = 0x4D504748;  // "HGPM" little-endian

struct FrameHeader {
  std::uint32_t magic = kFrameMagic;
  std::uint16_t version = kProtocolVersion;
  std::uint16_t type = 0;
  std::uint32_t payload_size = 0;
  std::uint32_t payload_crc32 = 0;
  std::uint32_t header_crc32 = 0;  ///< over the 16 bytes above
};
static_assert(sizeof(FrameHeader) == 20);
constexpr std::size_t kFrameHeaderSize = sizeof(FrameHeader);

/// One decoded frame: the type tag plus the validated payload bytes.
struct Frame {
  std::uint16_t type = 0;
  std::vector<std::byte> payload;
};

/// The complete wire image of one frame (header + payload + CRCs).
std::vector<std::byte> encode_frame(std::uint16_t type,
                                    std::span<const std::byte> payload);

/// Validates the 20 header bytes: magic, version, header CRC, payload
/// size cap.  Throws SolveError{kDataLoss} on any mismatch; the caller
/// may then read exactly header.payload_size payload bytes.
FrameHeader decode_frame_header(std::span<const std::byte> bytes);

/// Validates a payload against its (already validated) header's CRC.
void check_frame_payload(const FrameHeader& header,
                         std::span<const std::byte> payload);

/// Decodes `bytes` as exactly one whole frame.  Truncation, trailing
/// garbage, or any corruption throws SolveError{kDataLoss} (the property
/// tests in tests/test_net.cpp drive every truncation and bit flip
/// through this).
Frame decode_frame(std::span<const std::byte> bytes);

// ---------------------------------------------------------------------------
// Payload codec primitives.

/// Accumulates one frame's payload from fixed-width scalars and
/// length-prefixed blobs/strings.
class WireWriter {
 public:
  void u8(std::uint8_t v) { append(&v, 1); }
  void u16(std::uint16_t v) { append(&v, sizeof v); }
  void u32(std::uint32_t v) { append(&v, sizeof v); }
  void u64(std::uint64_t v) { append(&v, sizeof v); }
  void i32(std::int32_t v) { append(&v, sizeof v); }
  void i64(std::int64_t v) { append(&v, sizeof v); }
  void f64(double v) { append(&v, sizeof v); }

  /// u32 length prefix + raw bytes.
  void blob(std::span<const std::byte> bytes);
  void str(const std::string& s);
  /// u32 count prefix + count little-endian i64 values.
  void i64_span(std::span<const std::int64_t> values);

  std::span<const std::byte> bytes() const { return bytes_; }
  std::vector<std::byte> take() { return std::move(bytes_); }

 private:
  void append(const void* data, std::size_t size);

  std::vector<std::byte> bytes_;
};

/// Bounds-checked cursor over one frame's payload.  Over-reads, hostile
/// length prefixes and trailing garbage throw SolveError{kDataLoss}
/// naming `what` (the message being decoded).
class WireReader {
 public:
  WireReader(std::span<const std::byte> payload, const char* what)
      : payload_(payload), what_(what) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32();
  std::int64_t i64();
  double f64();

  /// Length-prefixed blob; the length is validated against the remaining
  /// payload BEFORE any allocation.
  std::vector<std::byte> blob();
  std::string str();
  std::vector<std::int64_t> i64_span();

  std::size_t remaining() const { return payload_.size() - cursor_; }

  /// A decoder that consumed its payload must land exactly at the end;
  /// trailing bytes mean the payload is not what the type claims.
  void expect_exhausted() const;

  [[noreturn]] void fail(const std::string& why) const;

 private:
  void read(void* out, std::size_t size);
  std::size_t read_count(std::size_t elem_size);

  std::span<const std::byte> payload_;
  const char* what_;
  std::size_t cursor_ = 0;
};

}  // namespace hgp::net
