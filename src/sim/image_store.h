// Persistent on-disk image store: build products that survive the process.
//
// A Session (sim/session.h) already shares post-boot system images across
// the cells of one process's sweep, and with a store captures post-prefault
// PreparedImages. The ImageStore extends that cache one level down: blobs
// live in a directory, keyed by a content digest of the *full* build
// inputs, so a warm restart of `ndpsim` (or of the serve daemon) skips
// boot-noise injection, workload install, and prefault entirely. Restored
// state is byte-identical to freshly built state — the golden suite pins
// results with the store cold, warm, and disabled.
//
// ## Keys and digests
//
// Every blob is addressed by a *key string* carrying the complete build
// input at full fidelity: the Session's image key (kind, cores, physical
// bytes, bit-exact noise fraction, seed, every override), plus — for
// prepared images — the canonical mechanism spelling and the workload key
// (workload, cores, bit-exact scale, seed). The file name is
//
//     <kind>-<digest>.img          kind in {sys, prep}
//
// where digest = two independent 64-bit FNV-1a hashes (different offset
// bases) of `key + "|v" + kFormatVersion`, rendered as 32 hex chars.
// Bumping kFormatVersion therefore changes every file name: old blobs are
// simply never probed again (and CI's cache key rotates with it). The full
// key string is stored in the blob and verified on read, so a digest
// collision degrades to a miss, never to state from the wrong design point.
//
// ## Blob layout (little-endian 64-bit words)
//
//     word 0   magic "NDPIMG01" (bytes, packed)
//     word 1   (kFormatVersion << 8) | kind_id     kind_id: 1 sys, 3 prep
//     word 2   payload word count
//     word 3   FNV-1a 64 checksum of the payload bytes
//     then     key: u64 byte length + key bytes zero-padded to words
//     then     payload
//
// The payload is a section table followed by the sections:
//
//     n_sections, (section_id, word_len) * n_sections, section words...
//
// Section ids: 1 post-boot PhysMemImage, 4 post-prefault PhysMemImage,
// 5 PageTable state, 6 AddressSpace state, 7 OS StatSet state. A `sys` blob
// holds {1}; `prep` is self-contained: {1,4,5,6,7}. Kind id 2 and section
// ids 2 and 3 are retired (format 2's `mat` blobs, its mesh table and its
// trace material) and never reused. Component encodings are the BlobWriter
// streams of the respective save_state() methods (common/blob.h); the
// SystemConfig is *not* serialized — the verified key string implies every
// compatibility-relevant field, and the loader rebuilds the config-derived
// parts from the requesting configuration.
//
// ## Concurrency and crash safety
//
// Writers assemble the whole blob in memory, write it to a unique temp file
// in the store directory, and publish with rename(2) — readers never see a
// partial blob. Builds are deterministic, so concurrent writers of one key
// produce identical bytes and the last rename wins harmlessly. A truncated,
// corrupted, version-mismatched, or foreign blob is rejected (logged at
// warn, counted by the Session as a store error) and the caller rebuilds
// from scratch — the store can never turn a bad file into a crash or a
// wrong result.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/system.h"

namespace ndp {

class ImageStore {
 public:
  /// Bump on ANY change to the blob layout or a component encoding. Old
  /// files become unreachable (digest includes the version) — invalidation
  /// by construction, no migration code. Version 2: the DIPTA page table
  /// saves only the sets it has filled. Version 3: no mesh section in
  /// `sys` and `prep` blobs, and no `mat` blobs.
  static constexpr std::uint64_t kFormatVersion = 3;

  /// Outcome of a load: kHit adopted a blob; kMiss found nothing usable
  /// (absent, or a digest collision with a different key); kReject found a
  /// file that failed validation (truncated/corrupt/wrong version) — the
  /// caller counts it as an error and rebuilds.
  enum class Load { kHit, kMiss, kReject };

  /// `dir` is created on first store. An empty dir is allowed (the Session
  /// treats an ImageStore with an empty dir as disabled and never builds
  /// one; this class itself asserts on use).
  explicit ImageStore(std::string dir);

  const std::string& dir() const { return dir_; }

  /// 32-hex-char content digest of `key` under the current format version.
  static std::string digest(const std::string& key);

  /// File path a blob of `kind` ("sys"/"prep") for `key` lives at.
  std::string path_for(const char* kind, const std::string& key) const;

  Load load_system_image(const std::string& key, const SystemConfig& cfg,
                         std::shared_ptr<const SystemImage>* out) const;
  bool store_system_image(const std::string& key,
                          const SystemImage& image) const;

  Load load_prepared(const std::string& key, const SystemConfig& cfg,
                     std::shared_ptr<const PreparedImage>* out) const;
  bool store_prepared(const std::string& key, const PreparedImage& prep) const;

 private:
  std::string dir_;
};

}  // namespace ndp
