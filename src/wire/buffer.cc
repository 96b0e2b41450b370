#include "wire/buffer.h"

#include <bit>

#include "common/check.h"

namespace ripple::wire {

void Buffer::PutFixed32(uint32_t v) {
  bytes_.push_back(static_cast<uint8_t>(v));
  bytes_.push_back(static_cast<uint8_t>(v >> 8));
  bytes_.push_back(static_cast<uint8_t>(v >> 16));
  bytes_.push_back(static_cast<uint8_t>(v >> 24));
}

void Buffer::PutFixed64(uint64_t v) {
  PutFixed32(static_cast<uint32_t>(v));
  PutFixed32(static_cast<uint32_t>(v >> 32));
}

void Buffer::PutVarint(uint64_t v) {
  while (v >= 0x80) {
    bytes_.push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  bytes_.push_back(static_cast<uint8_t>(v));
}

void Buffer::PutZigzag(int64_t v) { PutVarint(ZigzagMap(v)); }

void Buffer::PutF64(double v) { PutFixed64(std::bit_cast<uint64_t>(v)); }

void Buffer::PutBytes(const uint8_t* data, size_t n) {
  bytes_.insert(bytes_.end(), data, data + n);
}

void Buffer::WriteFixed32At(size_t offset, uint32_t v) {
  RIPPLE_CHECK(offset + 4 <= bytes_.size());
  bytes_[offset] = static_cast<uint8_t>(v);
  bytes_[offset + 1] = static_cast<uint8_t>(v >> 8);
  bytes_[offset + 2] = static_cast<uint8_t>(v >> 16);
  bytes_[offset + 3] = static_cast<uint8_t>(v >> 24);
}

uint8_t Reader::U8() {
  if (!Need(1)) return 0;
  return data_[pos_++];
}

uint32_t Reader::Fixed32() {
  if (!Need(4)) return 0;
  const uint32_t v = static_cast<uint32_t>(data_[pos_]) |
                     static_cast<uint32_t>(data_[pos_ + 1]) << 8 |
                     static_cast<uint32_t>(data_[pos_ + 2]) << 16 |
                     static_cast<uint32_t>(data_[pos_ + 3]) << 24;
  pos_ += 4;
  return v;
}

uint64_t Reader::Fixed64() {
  const uint64_t lo = Fixed32();
  const uint64_t hi = Fixed32();
  return lo | hi << 32;
}

uint64_t Reader::Varint() {
  uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (!Need(1)) return 0;
    const uint8_t byte = data_[pos_++];
    v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return v;
  }
  ok_ = false;  // continuation bit past 10 bytes: not a valid varint
  return 0;
}

int64_t Reader::Zigzag() {
  const uint64_t v = Varint();
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

double Reader::F64() { return std::bit_cast<double>(Fixed64()); }

bool Reader::Skip(size_t n) {
  if (!Need(n)) return false;
  pos_ += n;
  return true;
}

}  // namespace ripple::wire
