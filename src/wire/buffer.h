#ifndef RIPPLE_WIRE_BUFFER_H_
#define RIPPLE_WIRE_BUFFER_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace ripple::wire {

/// The zigzag map of PutZigzag: small magnitudes of either sign become
/// small unsigned values ((v << 1) ^ (v >> 63)).
inline constexpr uint64_t ZigzagMap(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

/// Bytes of the LEB128 varint of `v`: one per started 7-bit group.
inline constexpr size_t VarintSize(uint64_t v) {
  return 1 + (static_cast<size_t>(std::bit_width(v | 1)) - 1) / 7;
}

/// A growable byte buffer every wire encoder appends to. Explicit
/// little-endian byte order for the fixed-width encodings, LEB128 varints
/// for counts, zigzag for signed values and bit-exact doubles — so an
/// encode/decode round trip preserves every value exactly (including
/// infinities and the sign of zero), which the engines' determinism
/// contract depends on.
///
/// Encoders are templates over their sink: a Buffer, or a SizeCounter
/// when only the encoded size is wanted.
class Buffer {
 public:
  void PutU8(uint8_t v) { bytes_.push_back(v); }
  void PutFixed32(uint32_t v);
  void PutFixed64(uint64_t v);
  /// Unsigned LEB128: 7 value bits per byte, high bit = continuation.
  void PutVarint(uint64_t v);
  /// Zigzag-mapped varint for signed values ((v << 1) ^ (v >> 63)).
  void PutZigzag(int64_t v);
  /// The double's IEEE-754 bit pattern as a Fixed64 (exact round trip).
  void PutF64(double v);
  void PutBytes(const uint8_t* data, size_t n);

  /// Overwrites 4 bytes at `offset` in place — how frame encoders patch a
  /// length field once the payload size is known. Requires offset + 4 <=
  /// size().
  void WriteFixed32At(size_t offset, uint32_t v);

  size_t size() const { return bytes_.size(); }
  bool empty() const { return bytes_.empty(); }
  const uint8_t* data() const { return bytes_.data(); }
  const std::vector<uint8_t>& bytes() const { return bytes_; }

  void Clear() { bytes_.clear(); }
  /// Moves the accumulated bytes out, leaving the buffer empty.
  std::vector<uint8_t> Take() { return std::exchange(bytes_, {}); }

 private:
  std::vector<uint8_t> bytes_;
};

/// A sink with Buffer's Put* interface that writes nothing and counts the
/// bytes a Buffer would have appended, so an encoder run over it returns
/// the exact encoded size. The recursive engine and the analytic protocols
/// price frames this way; the codec definitions stay single.
class SizeCounter {
 public:
  void PutU8(uint8_t) { size_ += 1; }
  void PutFixed32(uint32_t) { size_ += 4; }
  void PutFixed64(uint64_t) { size_ += 8; }
  void PutVarint(uint64_t v) { size_ += VarintSize(v); }
  void PutZigzag(int64_t v) { PutVarint(ZigzagMap(v)); }
  void PutF64(double) { size_ += 8; }
  void PutBytes(const uint8_t*, size_t n) { size_ += n; }
  /// Patching a length field does not change the size.
  void WriteFixed32At(size_t, uint32_t) {}

  size_t size() const { return size_; }

 private:
  size_t size_ = 0;
};

/// Cursor over received bytes. Decoders never trust the wire: every read
/// checks the remaining length and a failed read latches `ok() == false`
/// and returns 0, so decoding a truncated or corrupted buffer degrades to
/// a rejected message instead of undefined behavior. Callers check ok()
/// once at the end (reads after a failure stay failed).
class Reader {
 public:
  Reader(const uint8_t* data, size_t n) : data_(data), end_(n) {}
  explicit Reader(const std::vector<uint8_t>& bytes)
      : Reader(bytes.data(), bytes.size()) {}

  uint8_t U8();
  uint32_t Fixed32();
  uint64_t Fixed64();
  uint64_t Varint();
  int64_t Zigzag();
  double F64();
  bool Skip(size_t n);

  bool ok() const { return ok_; }
  /// Latches the failure state (decoders use this for semantic rejections:
  /// bad tag, out-of-range dimension, ...).
  void Fail() { ok_ = false; }

  size_t remaining() const { return end_ - pos_; }
  size_t position() const { return pos_; }
  /// Pointer to the next unread byte (frame walkers slice sub-readers).
  const uint8_t* cursor() const { return data_ + pos_; }

 private:
  bool Need(size_t n) {
    if (!ok_ || end_ - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  const uint8_t* data_;
  size_t pos_ = 0;
  size_t end_;
  bool ok_ = true;
};

}  // namespace ripple::wire

#endif  // RIPPLE_WIRE_BUFFER_H_
