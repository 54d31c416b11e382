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
// Payloads are encoded with the snapshot's codec (io::PayloadBuilder /
// io::SectionView): one bounds-checked cursor for disk and wire.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "util/status.hpp"

namespace hgp::net {

static_assert(std::endian::native == std::endian::little,
              "wire frames require a little-endian host");

/// Bumped on any frame- or message-layout change; both the frame header
/// and the Hello handshake carry it, so skew is caught before any typed
/// payload is trusted.
constexpr std::uint16_t kProtocolVersion = 6;

/// Upper bound on one frame's payload: large enough for a job frame
/// embedding a graph+hierarchy snapshot blob, small enough that a hostile
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

}  // namespace hgp::net
