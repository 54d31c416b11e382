#include "net/frame.hpp"

#include <cstring>

#include "io/snapshot.hpp"  // io::crc32 — shared CRC machinery

namespace hgp::net {

namespace {

[[noreturn]] void frame_fail(const std::string& why) {
  throw SolveError(StatusCode::kDataLoss, "wire frame: " + why);
}

}  // namespace

std::vector<std::byte> encode_frame(std::uint16_t type,
                                    std::span<const std::byte> payload) {
  if (payload.size() > kMaxFramePayload) {
    throw SolveError(StatusCode::kInvalidInput,
                     "frame payload exceeds kMaxFramePayload (" +
                         std::to_string(payload.size()) + " bytes)");
  }
  FrameHeader header;
  header.type = type;
  header.payload_size = static_cast<std::uint32_t>(payload.size());
  header.payload_crc32 = io::crc32(payload.data(), payload.size());
  header.header_crc32 = io::crc32(&header, kFrameHeaderSize - sizeof(std::uint32_t));

  std::vector<std::byte> out(kFrameHeaderSize + payload.size());
  std::memcpy(out.data(), &header, kFrameHeaderSize);
  if (!payload.empty()) {
    std::memcpy(out.data() + kFrameHeaderSize, payload.data(), payload.size());
  }
  return out;
}

FrameHeader decode_frame_header(std::span<const std::byte> bytes) {
  if (bytes.size() < kFrameHeaderSize) {
    frame_fail("truncated header (" + std::to_string(bytes.size()) + " of " +
               std::to_string(kFrameHeaderSize) + " bytes)");
  }
  FrameHeader header;
  std::memcpy(&header, bytes.data(), kFrameHeaderSize);
  // The header CRC is checked FIRST: with a corrupt header no other field
  // (including payload_size) may be trusted.
  const std::uint32_t expect =
      io::crc32(bytes.data(), kFrameHeaderSize - sizeof(std::uint32_t));
  if (header.header_crc32 != expect) {
    frame_fail("header CRC mismatch");
  }
  if (header.magic != kFrameMagic) {
    frame_fail("bad magic");
  }
  if (header.version != kProtocolVersion) {
    frame_fail("protocol version mismatch (frame v" +
               std::to_string(header.version) + ", this build speaks v" +
               std::to_string(kProtocolVersion) + ")");
  }
  if (header.payload_size > kMaxFramePayload) {
    frame_fail("payload size " + std::to_string(header.payload_size) +
               " exceeds the frame cap");
  }
  return header;
}

void check_frame_payload(const FrameHeader& header,
                         std::span<const std::byte> payload) {
  if (payload.size() != header.payload_size) {
    frame_fail("payload size mismatch");
  }
  if (io::crc32(payload.data(), payload.size()) != header.payload_crc32) {
    frame_fail("payload CRC mismatch");
  }
}

Frame decode_frame(std::span<const std::byte> bytes) {
  const FrameHeader header = decode_frame_header(bytes);
  if (bytes.size() != kFrameHeaderSize + header.payload_size) {
    frame_fail("frame length mismatch (have " + std::to_string(bytes.size()) +
               " bytes, header claims " +
               std::to_string(kFrameHeaderSize + header.payload_size) + ")");
  }
  const auto payload = bytes.subspan(kFrameHeaderSize, header.payload_size);
  check_frame_payload(header, payload);
  Frame frame;
  frame.type = header.type;
  frame.payload.assign(payload.begin(), payload.end());
  return frame;
}

}  // namespace hgp::net
