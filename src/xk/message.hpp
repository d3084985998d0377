// x-Kernel-style message abstraction.
//
// A Message is the unit that travels up and down a protocol stack. Layers
// prepend their header on the way down (push_header) and strip it on the way
// up (pop_header), exactly like the x-Kernel message tool the paper's stack
// is built on. The PFI layer additionally needs to inspect and mutate bytes
// in place (message corruption faults), so raw indexed access is provided.
//
// The per-message path allocates nothing in steady state: headers are built
// in a Writer's inline buffer, pushed into the message's headroom, and popped
// as spans into the message's own buffer.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace pfi::xk {

class Message {
 public:
  Message() = default;
  explicit Message(std::vector<std::uint8_t> bytes);
  explicit Message(std::string_view payload);

  [[nodiscard]] std::size_t size() const { return buf_.size() - off_; }
  [[nodiscard]] bool empty() const { return size() == 0; }

  [[nodiscard]] std::span<const std::uint8_t> bytes() const {
    return {buf_.data() + off_, size()};
  }
  [[nodiscard]] std::span<std::uint8_t> mutable_bytes() {
    return {buf_.data() + off_, size()};
  }

  /// Prepend `header` (a layer pushing its header on the way down the stack).
  void push_header(std::span<const std::uint8_t> header);

  /// Remove and return the first `n` bytes (a layer stripping its header on
  /// the way up). Returns an empty span, and removes nothing, if the message
  /// is shorter than `n`.
  ///
  /// The span points into this message's buffer. It stays valid until the
  /// next push_header, append or truncate on this message (a push writes
  /// into the headroom the popped bytes now occupy); copy out what must
  /// outlive that.
  std::span<const std::uint8_t> pop_header(std::size_t n);

  /// Append payload bytes at the tail.
  void append(std::span<const std::uint8_t> data);
  void append(std::string_view data);

  /// Truncate to the first `n` bytes (drop any trailer).
  void truncate(std::size_t n);

  /// Byte access; out-of-range reads return 0, out-of-range writes are
  /// ignored (scripts may probe past the end of short packets).
  [[nodiscard]] std::uint8_t byte_at(std::size_t i) const;
  void set_byte(std::size_t i, std::uint8_t v);

  /// Payload rendered as text (non-printables escaped) — used by msg_log.
  [[nodiscard]] std::string printable() const;

  /// Whole contents as a string (for application-level payloads).
  [[nodiscard]] std::string as_string() const;

  /// Content equality (representation headroom is irrelevant).
  bool operator==(const Message& other) const;

 private:
  // Layers prepend headers on the way down, so the message keeps headroom at
  // the front: push_header fills it (O(header)) and pop_header just advances
  // `off_` (O(1), returning a view of the bytes it skipped). The x-Kernel's
  // message tool used the same trick; the pfi_overhead bench measures the
  // win.
  static constexpr std::size_t kHeadroom = 64;

  std::vector<std::uint8_t> buf_;
  std::size_t off_ = 0;  // start of live data within buf_
};

/// Big-endian (network byte order) header writer.
///
/// Bytes go into a fixed inline buffer, so building a protocol header
/// allocates nothing. kInlineCapacity covers the largest fixed header on the
/// per-message path (IP, UDP, TCP, rel, and a GMP header with three
/// members); longer writes (big member lists, long str()/raw() payloads)
/// spill the whole buffer to the heap once and keep growing there.
class Writer {
 public:
  static constexpr std::size_t kInlineCapacity = 48;

  void u8(std::uint8_t v) { *grow(1) = v; }
  void u16(std::uint16_t v) { put_be(grow(2), v); }
  void u32(std::uint32_t v) { put_be(grow(4), v); }
  void u64(std::uint64_t v) { put_be(grow(8), v); }
  void raw(std::span<const std::uint8_t> data);
  void str(std::string_view s);  // length-prefixed (u16) string

  [[nodiscard]] std::span<const std::uint8_t> data() const {
    return {spilled() ? heap_.data() : inline_.data(), size_};
  }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Prepend the accumulated bytes onto `msg` as a header.
  void push_onto(Message& msg) const { msg.push_header(data()); }

 private:
  [[nodiscard]] bool spilled() const { return size_ > kInlineCapacity; }

  /// Extend by `n` bytes and return where they go.
  std::uint8_t* grow(std::size_t n) {
    const std::size_t at = size_;
    if (at + n > kInlineCapacity) return spill(n);
    size_ += n;
    return inline_.data() + at;
  }
  std::uint8_t* spill(std::size_t n);

  template <typename T>
  static void put_be(std::uint8_t* p, T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      p[i] = static_cast<std::uint8_t>(v >> (8 * (sizeof(T) - 1 - i)));
    }
  }

  std::array<std::uint8_t, kInlineCapacity> inline_{};
  std::vector<std::uint8_t> heap_;  // the bytes, once size_ > kInlineCapacity
  std::size_t size_ = 0;
};

/// Big-endian header reader over a byte span. Reads past the end yield zero
/// and set a sticky truncation flag the caller can check.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}
  explicit Reader(const Message& msg) : data_(msg.bytes()) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::vector<std::uint8_t> raw(std::size_t n);
  std::string str();  // length-prefixed (u16) string

  [[nodiscard]] std::size_t offset() const { return off_; }
  [[nodiscard]] std::size_t remaining() const {
    return off_ <= data_.size() ? data_.size() - off_ : 0;
  }
  [[nodiscard]] bool truncated() const { return truncated_; }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t off_ = 0;
  bool truncated_ = false;
};

}  // namespace pfi::xk
