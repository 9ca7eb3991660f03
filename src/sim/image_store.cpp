#include "sim/image_store.h"

#include <atomic>
#include <cassert>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>

#include <unistd.h>

#include "common/blob.h"
#include "obs/log.h"

namespace ndp {

namespace {

constexpr std::uint64_t kFnvBasis = 0xCBF29CE484222325ull;
constexpr std::uint64_t kFnvBasis2 = 0x84222325CBF29CE4ull;  ///< digest half 2
constexpr std::uint64_t kFnvPrime = 0x100000001B3ull;

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t magic_word() {
  std::uint64_t m = 0;
  std::memcpy(&m, "NDPIMG01", 8);
  return m;
}

unsigned kind_id_of(const char* kind) {
  if (std::strcmp(kind, "sys") == 0) return 1;
  assert(std::strcmp(kind, "prep") == 0);
  return 3;
}

// Section ids (see the header's format documentation).
constexpr std::uint64_t kSecPhysBoot = 1;
constexpr std::uint64_t kSecPhysReady = 4;
constexpr std::uint64_t kSecPageTable = 5;
constexpr std::uint64_t kSecSpace = 6;
constexpr std::uint64_t kSecStats = 7;

struct Section {
  std::uint64_t id = 0;
  std::vector<std::uint64_t> words;
};

// ---- component codecs ------------------------------------------------------

void encode_phys(BlobWriter& out, const PhysMemImage& img) {
  out.u64(img.buddy.num_frames());
  img.buddy.save_state(out);
  out.bytes(img.use.data(), img.use.size());
  out.bytes(img.win_movable.data(),
            img.win_movable.size() * sizeof(std::uint16_t));
  out.bytes(img.win_unmovable.data(),
            img.win_unmovable.size() * sizeof(std::uint16_t));
  std::uint64_t rs[4];
  img.rng.save_state(rs);
  out.u64s(rs, 4);
  out.u64(img.noise_frames);
}

/// The blob never stores a PhysMemConfig — `pmc` comes from the requesting
/// SystemConfig, which the verified key string proved equivalent to the
/// writer's. The frame count is still cross-checked before the buddy
/// allocator is even constructed (its constructor asserts on geometry).
bool decode_phys(BlobReader& in, const PhysMemConfig& pmc, PhysMemImage* out) {
  const std::uint64_t nf = in.u64();
  if (!in.ok() || nf != pmc.bytes / kPageSize) return false;
  BuddyAllocator buddy(nf);
  if (!buddy.load_state(in)) return false;
  std::vector<FrameUse> use(nf);
  if (!in.bytes(use.data(), nf)) return false;
  std::vector<std::uint16_t> wm(nf >> 9), wu(nf >> 9);
  if (!in.bytes(wm.data(), wm.size() * sizeof(std::uint16_t))) return false;
  if (!in.bytes(wu.data(), wu.size() * sizeof(std::uint16_t))) return false;
  const std::vector<std::uint64_t> rs = in.u64s();
  const std::uint64_t noise = in.u64();
  if (!in.ok() || rs.size() != 4) return false;
  Rng rng;
  rng.load_state(rs.data());
  *out = PhysMemImage{pmc,           std::move(buddy), std::move(use),
                      std::move(wm), std::move(wu),    rng,
                      noise};
  return true;
}

PhysMemConfig phys_config_from(const SystemConfig& cfg) {
  PhysMemConfig pmc;
  pmc.bytes = cfg.phys_bytes;
  pmc.noise_fraction = cfg.noise_fraction;
  pmc.seed = cfg.seed;
  return pmc;
}

// ---- framing ---------------------------------------------------------------

/// Assemble a full blob (header + key + section table + sections) and
/// publish it atomically: temp file in the same directory, then rename.
bool write_blob(const std::string& dir, const std::string& path,
                const char* kind, const std::string& key,
                std::vector<Section> sections) {
  BlobWriter payload;
  payload.u64(sections.size());
  for (const Section& s : sections) {
    payload.u64(s.id);
    payload.u64(s.words.size());
  }
  for (const Section& s : sections) payload.append(s.words);
  const std::vector<std::uint64_t> body = payload.take();

  BlobWriter full;
  full.u64(magic_word());
  full.u64((ImageStore::kFormatVersion << 8) | kind_id_of(kind));
  full.u64(body.size());
  full.u64(fnv1a(body.data(), body.size() * 8, kFnvBasis));
  full.str(key);
  full.append(body);
  const std::vector<std::uint64_t> words = full.take();

  std::error_code ec;
  std::filesystem::create_directories(dir, ec);  // best effort; write decides

  // Unique temp name per writer: pid alone is not enough (sweep worker
  // threads share one), so add a process-wide ticket.
  static std::atomic<std::uint64_t> ticket{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(ticket.fetch_add(1));
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) {
    obs::log(obs::LogLevel::kWarn, "store.write_fail")
        .kv("path", path)
        .kv("reason", "open");
    return false;
  }
  const std::size_t wrote = std::fwrite(words.data(), 8, words.size(), f);
  const bool flushed = std::fclose(f) == 0 && wrote == words.size();
  if (!flushed) {
    std::remove(tmp.c_str());
    obs::log(obs::LogLevel::kWarn, "store.write_fail")
        .kv("path", path)
        .kv("reason", "write");
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    obs::log(obs::LogLevel::kWarn, "store.write_fail")
        .kv("path", path)
        .kv("reason", "rename");
    return false;
  }
  return true;
}

struct SectionView {
  std::uint64_t id = 0;
  const std::uint64_t* data = nullptr;
  std::size_t len = 0;
};

struct ReadBlob {
  ImageStore::Load status = ImageStore::Load::kMiss;
  std::vector<std::uint64_t> words;  ///< backing storage for the views
  std::vector<SectionView> sections;

  /// The section with `id`, as a bounds-checked reader; a missing section
  /// yields an immediately-failed reader.
  BlobReader section(std::uint64_t id) const {
    for (const SectionView& s : sections)
      if (s.id == id) return BlobReader(s.data, s.len);
    return BlobReader(nullptr, 0);
  }
};

ImageStore::Load reject(const std::string& path, const char* reason) {
  obs::log(obs::LogLevel::kWarn, "store.reject")
      .kv("path", path)
      .kv("reason", reason);
  return ImageStore::Load::kReject;
}

/// Read + fully validate a blob file. Every failure mode is classified:
/// absent file (and absent-only races) -> kMiss; a key mismatch (digest
/// collision) -> kMiss; anything structurally wrong -> kReject, logged.
ReadBlob read_blob(const std::string& path, const char* kind,
                   const std::string& key) {
  ReadBlob out;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return out;  // kMiss: nothing stored under this digest
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  if (size < 0 || size % 8 != 0) {
    std::fclose(f);
    out.status = reject(path, "size");
    return out;
  }
  out.words.resize(static_cast<std::size_t>(size) / 8);
  const std::size_t got = std::fread(out.words.data(), 8, out.words.size(), f);
  std::fclose(f);
  if (got != out.words.size()) {
    out.status = reject(path, "short_read");
    return out;
  }

  BlobReader in(out.words);
  if (in.u64() != magic_word()) {
    out.status = reject(path, "magic");
    return out;
  }
  const std::uint64_t vk = in.u64();
  if ((vk >> 8) != ImageStore::kFormatVersion ||
      (vk & 0xFF) != kind_id_of(kind)) {
    out.status = reject(path, "version");
    return out;
  }
  const std::uint64_t payload_words = in.u64();
  const std::uint64_t checksum = in.u64();
  const std::string stored_key = in.str();
  if (!in.ok() || in.remaining() != payload_words) {
    out.status = reject(path, "framing");
    return out;
  }
  if (stored_key != key) {
    // A digest collision between distinct keys: not our blob. A plain miss
    // by contract — the caller rebuilds and may overwrite the file.
    out.status = ImageStore::Load::kMiss;
    return out;
  }
  const std::uint64_t* payload = out.words.data() + (out.words.size() -
                                                     payload_words);
  if (fnv1a(payload, payload_words * 8, kFnvBasis) != checksum) {
    out.status = reject(path, "checksum");
    return out;
  }

  BlobReader body(payload, payload_words);
  const std::uint64_t n_sections = body.u64();
  if (!body.ok() || n_sections > body.remaining() / 2) {
    out.status = reject(path, "section_table");
    return out;
  }
  std::uint64_t total = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> table;
  table.reserve(n_sections);
  for (std::uint64_t i = 0; i < n_sections; ++i) {
    const std::uint64_t id = body.u64();
    const std::uint64_t len = body.u64();
    table.emplace_back(id, len);
    total += len;
  }
  if (!body.ok() || total != body.remaining()) {
    out.status = reject(path, "section_table");
    return out;
  }
  const std::uint64_t* cursor = payload + (payload_words - body.remaining());
  for (const auto& [id, len] : table) {
    out.sections.push_back(SectionView{id, cursor, len});
    cursor += len;
  }
  out.status = ImageStore::Load::kHit;
  return out;
}

}  // namespace

ImageStore::ImageStore(std::string dir) : dir_(std::move(dir)) {
  assert(!dir_.empty() && "an ImageStore needs a directory");
}

std::string ImageStore::digest(const std::string& key) {
  const std::string keyed = key + "|v" + std::to_string(kFormatVersion);
  const std::uint64_t h1 = fnv1a(keyed.data(), keyed.size(), kFnvBasis);
  const std::uint64_t h2 = fnv1a(keyed.data(), keyed.size(), kFnvBasis2);
  char buf[33];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(h1),
                static_cast<unsigned long long>(h2));
  return std::string(buf, 32);
}

std::string ImageStore::path_for(const char* kind,
                                 const std::string& key) const {
  return dir_ + "/" + kind + "-" + digest(key) + ".img";
}

ImageStore::Load ImageStore::load_system_image(
    const std::string& key, const SystemConfig& cfg,
    std::shared_ptr<const SystemImage>* out) const {
  const std::string path = path_for("sys", key);
  const ReadBlob blob = read_blob(path, "sys", key);
  if (blob.status != Load::kHit) return blob.status;
  PhysMemImage phys{PhysMemConfig{}, BuddyAllocator(1ull << 10), {}, {}, {},
                    Rng(), 0};
  BlobReader phys_in = blob.section(kSecPhysBoot);
  if (!decode_phys(phys_in, phys_config_from(cfg), &phys))
    return reject(path, "decode");
  *out = std::make_shared<const SystemImage>(SystemImage{cfg, std::move(phys)});
  return Load::kHit;
}

bool ImageStore::store_system_image(const std::string& key,
                                    const SystemImage& image) const {
  std::vector<Section> sections(1);
  sections[0].id = kSecPhysBoot;
  BlobWriter phys;
  encode_phys(phys, image.phys);
  sections[0].words = phys.take();
  return write_blob(dir_, path_for("sys", key), "sys", key,
                    std::move(sections));
}

ImageStore::Load ImageStore::load_prepared(
    const std::string& key, const SystemConfig& cfg,
    std::shared_ptr<const PreparedImage>* out) const {
  const std::string path = path_for("prep", key);
  const ReadBlob blob = read_blob(path, "prep", key);
  if (blob.status != Load::kHit) return blob.status;

  auto base = std::make_shared<SystemImage>(
      SystemImage{cfg, PhysMemImage{PhysMemConfig{}, BuddyAllocator(1ull << 10),
                                    {}, {}, {}, Rng(), 0}});
  PhysMemImage ready{PhysMemConfig{}, BuddyAllocator(1ull << 10), {}, {}, {},
                     Rng(), 0};
  BlobReader boot_in = blob.section(kSecPhysBoot);
  BlobReader ready_in = blob.section(kSecPhysReady);
  const PhysMemConfig pmc = phys_config_from(cfg);
  if (!decode_phys(boot_in, pmc, &base->phys) ||
      !decode_phys(ready_in, pmc, &ready))
    return reject(path, "decode");

  auto copy_section = [&blob](std::uint64_t id, std::vector<std::uint64_t>* v) {
    for (const SectionView& s : blob.sections)
      if (s.id == id) {
        v->assign(s.data, s.data + s.len);
        return true;
      }
    return false;
  };
  auto prep = std::make_shared<PreparedImage>(
      PreparedImage{std::move(base), std::move(ready), {}, {}, {}});
  if (!copy_section(kSecPageTable, &prep->pt_state) ||
      !copy_section(kSecSpace, &prep->space_state) ||
      !copy_section(kSecStats, &prep->stats_state))
    return reject(path, "decode");
  *out = std::move(prep);
  return Load::kHit;
}

bool ImageStore::store_prepared(const std::string& key,
                                const PreparedImage& prep) const {
  assert(prep.base && "a PreparedImage always carries its base image");
  std::vector<Section> sections(5);
  sections[0].id = kSecPhysBoot;
  sections[1].id = kSecPhysReady;
  sections[2].id = kSecPageTable;
  sections[3].id = kSecSpace;
  sections[4].id = kSecStats;
  BlobWriter boot;
  encode_phys(boot, prep.base->phys);
  sections[0].words = boot.take();
  BlobWriter ready;
  encode_phys(ready, prep.ready);
  sections[1].words = ready.take();
  sections[2].words = prep.pt_state;
  sections[3].words = prep.space_state;
  sections[4].words = prep.stats_state;
  return write_blob(dir_, path_for("prep", key), "prep", key,
                    std::move(sections));
}

}  // namespace ndp
