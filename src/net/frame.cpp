#include "net/frame.hpp"

#include <cstring>
#include <limits>

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

// ---------------------------------------------------------------------------

void WireWriter::append(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const std::byte*>(data);
  bytes_.insert(bytes_.end(), bytes, bytes + size);
}

void WireWriter::blob(std::span<const std::byte> bytes) {
  u32(static_cast<std::uint32_t>(bytes.size()));
  if (!bytes.empty()) append(bytes.data(), bytes.size());
}

void WireWriter::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  if (!s.empty()) append(s.data(), s.size());
}

void WireWriter::i64_span(std::span<const std::int64_t> values) {
  u32(static_cast<std::uint32_t>(values.size()));
  if (!values.empty()) append(values.data(), values.size_bytes());
}

void WireReader::fail(const std::string& why) const {
  throw SolveError(StatusCode::kDataLoss, std::string(what_) + ": " + why);
}

void WireReader::read(void* out, std::size_t size) {
  if (size > remaining()) {
    fail("payload over-read (" + std::to_string(size) + " bytes wanted, " +
         std::to_string(remaining()) + " left)");
  }
  std::memcpy(out, payload_.data() + cursor_, size);
  cursor_ += size;
}

std::size_t WireReader::read_count(std::size_t elem_size) {
  std::uint32_t count = 0;
  read(&count, sizeof count);
  // Validated against the remaining payload BEFORE any allocation: a
  // hostile count cannot drive an allocation bomb or an over-read.
  if (elem_size != 0 && count > remaining() / elem_size) {
    fail("length prefix " + std::to_string(count) +
         " exceeds the remaining payload");
  }
  return count;
}

std::uint8_t WireReader::u8() {
  std::uint8_t v = 0;
  read(&v, sizeof v);
  return v;
}
std::uint16_t WireReader::u16() {
  std::uint16_t v = 0;
  read(&v, sizeof v);
  return v;
}
std::uint32_t WireReader::u32() {
  std::uint32_t v = 0;
  read(&v, sizeof v);
  return v;
}
std::uint64_t WireReader::u64() {
  std::uint64_t v = 0;
  read(&v, sizeof v);
  return v;
}
std::int32_t WireReader::i32() {
  std::int32_t v = 0;
  read(&v, sizeof v);
  return v;
}
std::int64_t WireReader::i64() {
  std::int64_t v = 0;
  read(&v, sizeof v);
  return v;
}
double WireReader::f64() {
  double v = 0;
  read(&v, sizeof v);
  return v;
}

std::vector<std::byte> WireReader::blob() {
  const std::size_t count = read_count(1);
  std::vector<std::byte> out(count);
  if (count > 0) read(out.data(), count);
  return out;
}

std::string WireReader::str() {
  const std::size_t count = read_count(1);
  std::string out(count, '\0');
  if (count > 0) read(out.data(), count);
  return out;
}

std::vector<std::int64_t> WireReader::i64_span() {
  const std::size_t count = read_count(sizeof(std::int64_t));
  std::vector<std::int64_t> out(count);
  if (count > 0) read(out.data(), count * sizeof(std::int64_t));
  return out;
}

void WireReader::expect_exhausted() const {
  if (remaining() != 0) {
    fail(std::to_string(remaining()) + " trailing payload bytes");
  }
}

}  // namespace hgp::net
