// Little-endian word-stream codec for snapshot serialization.
//
// The on-disk image store (sim/image_store.h) persists post-boot and
// post-prefault system state. Components serialize themselves into a
// BlobWriter — a flat vector of 64-bit words, bulk-copyable and
// mmap-friendly — and restore from a BlobReader, which is bounds-checked
// with a sticky failure flag so a truncated or corrupted blob degrades
// into `!ok()` instead of undefined reads. Nothing here owns a format:
// framing, versioning, and checksums live in the store; this is only the
// primitive encode/decode layer shared by every component codec.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace ndp {

/// Append-only encoder: accumulates 64-bit words in host order. The store
/// writes the words verbatim; on-disk endianness is little-endian because
/// every supported target is (a big-endian reader would reject the magic).
class BlobWriter {
 public:
  void u64(std::uint64_t v) { words_.push_back(v); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    words_.push_back(bits);
  }
  /// Length-prefixed byte string, zero-padded to a word boundary.
  void str(const std::string& s) { bytes(s.data(), s.size()); }
  /// Length-prefixed raw bytes, zero-padded to a word boundary.
  void bytes(const void* data, std::size_t n) {
    u64(n);
    const std::size_t nwords = (n + 7) / 8;
    const std::size_t at = words_.size();
    words_.resize(at + nwords, 0);
    std::memcpy(words_.data() + at, data, n);
  }
  /// Length-prefixed u64 array (bulk copy, no per-element overhead).
  void u64s(const std::uint64_t* data, std::size_t n) {
    u64(n);
    words_.insert(words_.end(), data, data + n);
  }
  void u64s(const std::vector<std::uint64_t>& v) { u64s(v.data(), v.size()); }
  /// Make room for `n` more words, so the appends that follow copy once
  /// instead of regrowing.
  void reserve(std::size_t n) { words_.reserve(words_.size() + n); }
  /// Raw word append, no length prefix (the store's section assembly).
  void append(const std::vector<std::uint64_t>& v) {
    words_.insert(words_.end(), v.begin(), v.end());
  }

  std::size_t size() const { return words_.size(); }
  const std::vector<std::uint64_t>& words() const { return words_; }
  std::vector<std::uint64_t> take() { return std::move(words_); }

 private:
  std::vector<std::uint64_t> words_;
};

/// Bounds-checked decoder over a word span. Any read past the end (or any
/// length prefix that does not fit) sets a sticky failure flag and yields
/// zeros/empties; callers validate with ok() once at the end instead of
/// checking every field.
class BlobReader {
 public:
  BlobReader(const std::uint64_t* words, std::size_t n)
      : words_(words), size_(n) {}
  explicit BlobReader(const std::vector<std::uint64_t>& v)
      : BlobReader(v.data(), v.size()) {}

  std::uint64_t u64() {
    if (pos_ >= size_) {
      fail_ = true;
      return 0;
    }
    return words_[pos_++];
  }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  std::string str() {
    const std::uint64_t n = u64();
    const std::uint64_t nwords = (n + 7) / 8;
    if (fail_ || nwords > size_ - pos_) {
      fail_ = true;
      return {};
    }
    std::string s(n, '\0');
    std::memcpy(s.data(), words_ + pos_, n);
    pos_ += nwords;
    return s;
  }
  /// Length-prefixed raw bytes into `out` (resized to the stored length).
  /// `max_bytes` guards against a hostile length prefix allocating the moon.
  bool bytes(void* out, std::size_t expect_n) {
    const std::uint64_t n = u64();
    const std::uint64_t nwords = (n + 7) / 8;
    if (fail_ || n != expect_n || nwords > size_ - pos_) {
      fail_ = true;
      return false;
    }
    std::memcpy(out, words_ + pos_, n);
    pos_ += nwords;
    return true;
  }
  std::vector<std::uint64_t> u64s() {
    const std::uint64_t n = u64();
    if (fail_ || n > size_ - pos_) {
      fail_ = true;
      return {};
    }
    std::vector<std::uint64_t> v(words_ + pos_, words_ + pos_ + n);
    pos_ += n;
    return v;
  }

  bool ok() const { return !fail_; }
  /// Everything consumed and nothing over-read — the strict success check.
  bool done() const { return !fail_ && pos_ == size_; }
  std::size_t remaining() const { return size_ - pos_; }

 private:
  const std::uint64_t* words_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool fail_ = false;
};

}  // namespace ndp
