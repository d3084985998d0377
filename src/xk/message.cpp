#include "xk/message.hpp"

#include <algorithm>
#include <cctype>

namespace pfi::xk {

Message::Message(std::vector<std::uint8_t> bytes) {
  buf_.reserve(kHeadroom + bytes.size());
  buf_.resize(kHeadroom);
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  off_ = kHeadroom;
}

Message::Message(std::string_view payload) {
  buf_.reserve(kHeadroom + payload.size());
  buf_.resize(kHeadroom);
  buf_.insert(buf_.end(), payload.begin(), payload.end());
  off_ = kHeadroom;
}

void Message::push_header(std::span<const std::uint8_t> header) {
  if (header.size() > off_) {
    // Out of headroom: regrow with fresh space at the front, keeping a full
    // kHeadroom free after this header so the layers below push in place
    // (a message built by pushing its first header onto an empty Message
    // then crosses the whole stack without another regrow).
    const std::size_t grow = kHeadroom + header.size();
    std::vector<std::uint8_t> fresh;
    fresh.reserve(grow + size());
    fresh.resize(grow);
    fresh.insert(fresh.end(), buf_.begin() + static_cast<long>(off_),
                 buf_.end());
    buf_ = std::move(fresh);
    off_ = grow;
  }
  off_ -= header.size();
  std::copy(header.begin(), header.end(),
            buf_.begin() + static_cast<long>(off_));
}

std::span<const std::uint8_t> Message::pop_header(std::size_t n) {
  if (n > size()) return {};
  const std::span<const std::uint8_t> header{buf_.data() + off_, n};
  off_ += n;
  return header;
}

void Message::append(std::span<const std::uint8_t> data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void Message::append(std::string_view data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void Message::truncate(std::size_t n) {
  if (n < size()) buf_.resize(off_ + n);
}

std::uint8_t Message::byte_at(std::size_t i) const {
  return i < size() ? buf_[off_ + i] : 0;
}

void Message::set_byte(std::size_t i, std::uint8_t v) {
  if (i < size()) buf_[off_ + i] = v;
}

bool Message::operator==(const Message& other) const {
  return std::equal(bytes().begin(), bytes().end(), other.bytes().begin(),
                    other.bytes().end());
}

std::string Message::printable() const {
  std::string out;
  out.reserve(size());
  for (std::uint8_t b : bytes()) {
    if (std::isprint(b) != 0) {
      out.push_back(static_cast<char>(b));
    } else {
      static constexpr char kHex[] = "0123456789abcdef";
      out += "\\x";
      out.push_back(kHex[b >> 4]);
      out.push_back(kHex[b & 0xF]);
    }
  }
  return out;
}

std::string Message::as_string() const {
  return {bytes().begin(), bytes().end()};
}

std::uint8_t* Writer::spill(std::size_t n) {
  const std::size_t at = size_;
  if (!spilled()) heap_.assign(inline_.data(), inline_.data() + at);
  size_ += n;
  heap_.resize(size_);
  return heap_.data() + at;
}

void Writer::raw(std::span<const std::uint8_t> data) {
  std::copy(data.begin(), data.end(), grow(data.size()));
}

void Writer::str(std::string_view s) {
  s = s.substr(0, 0xFFFF);
  u16(static_cast<std::uint16_t>(s.size()));
  raw({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
}

std::uint8_t Reader::u8() {
  if (off_ + 1 > data_.size()) {
    truncated_ = true;
    off_ = data_.size() + 1;
    return 0;
  }
  return data_[off_++];
}

std::uint16_t Reader::u16() {
  if (off_ + 2 > data_.size()) {
    truncated_ = true;
    off_ = data_.size() + 1;
    return 0;
  }
  std::uint16_t v = static_cast<std::uint16_t>(data_[off_] << 8) |
                    static_cast<std::uint16_t>(data_[off_ + 1]);
  off_ += 2;
  return v;
}

std::uint32_t Reader::u32() {
  if (off_ + 4 > data_.size()) {
    truncated_ = true;
    off_ = data_.size() + 1;
    return 0;
  }
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v = (v << 8) | data_[off_ + i];
  off_ += 4;
  return v;
}

std::uint64_t Reader::u64() {
  if (off_ + 8 > data_.size()) {
    truncated_ = true;
    off_ = data_.size() + 1;
    return 0;
  }
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | data_[off_ + i];
  off_ += 8;
  return v;
}

std::vector<std::uint8_t> Reader::raw(std::size_t n) {
  if (off_ + n > data_.size()) {
    truncated_ = true;
    off_ = data_.size() + 1;
    return {};
  }
  std::vector<std::uint8_t> out(data_.begin() + static_cast<long>(off_),
                                data_.begin() + static_cast<long>(off_ + n));
  off_ += n;
  return out;
}

std::string Reader::str() {
  const std::uint16_t n = u16();
  auto bytes = raw(n);
  return {bytes.begin(), bytes.end()};
}

}  // namespace pfi::xk
