#include "io/checkpoint_io.hpp"

#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "io/checksum.hpp"

namespace sf {

namespace {

// Format v2 added the run-topology stamp (algorithm tag + dataset hash)
// after num_ranks; v3 added the owning-query tag to every particle
// record (src/service); v4 replaced the bytewise FNV-1a payload checksum
// with the word-parallel one in io/checksum.hpp.  Older files are
// rejected with a clear error.
constexpr char kMagic[8] = {'S', 'F', 'C', 'K', 'P', 'T', '4', '\n'};

struct CheckpointHeader {
  char magic[8];
  std::uint64_t payload_bytes;
  std::uint64_t payload_checksum;
};

// Serializes into a buffer, or with none only counts the bytes.
class Writer {
 public:
  explicit Writer(std::vector<char>* buf) : buf_(buf) {}

  void u8(std::uint8_t v) { raw(&v, 1); }
  void u32(std::uint32_t v) { raw(&v, 4); }
  void i32(std::int32_t v) { raw(&v, 4); }
  void u64(std::uint64_t v) { raw(&v, 8); }
  void f64(double v) { raw(&v, 8); }

  void particle(const Particle& p) {
    u32(p.id);
    f64(p.pos.x);
    f64(p.pos.y);
    f64(p.pos.z);
    f64(p.time);
    f64(p.h);
    u32(p.steps);
    u32(p.geometry_points);
    u32(p.query);
    u8(static_cast<std::uint8_t>(p.status));
  }

  std::size_t size() const { return size_; }

 private:
  void raw(const void* p, std::size_t n) {
    size_ += n;
    if (buf_ == nullptr) return;
    const char* c = static_cast<const char*>(p);
    buf_->insert(buf_->end(), c, c + n);
  }

  std::vector<char>* buf_;
  std::size_t size_ = 0;
};

void write_payload(Writer& w, const Checkpoint& ck) {
  w.f64(ck.sim_time);
  w.i32(ck.num_ranks);
  w.u8(ck.algorithm);
  w.u64(ck.dataset_hash);
  w.u64(ck.done.size());
  for (const Particle& p : ck.done) w.particle(p);
  w.u64(ck.active.size());
  for (std::size_t i = 0; i < ck.active.size(); ++i) {
    w.particle(ck.active[i]);
    w.i32(i < ck.active_owner.size() ? ck.active_owner[i] : -1);
  }
  w.u64(ck.ranks.size());
  for (const CheckpointRankState& r : ck.ranks) {
    w.i32(r.rank);
    w.u8(r.alive ? 1 : 0);
    w.u32(static_cast<std::uint32_t>(r.resident.size()));
    for (BlockId b : r.resident) w.i32(b);
  }
}

class Reader {
 public:
  explicit Reader(std::vector<char> buf) : buf_(std::move(buf)) {}

  std::uint8_t u8() {
    std::uint8_t v = 0;
    raw(&v, 1);
    return v;
  }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    raw(&v, 4);
    return v;
  }
  std::int32_t i32() {
    std::int32_t v = 0;
    raw(&v, 4);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    raw(&v, 8);
    return v;
  }
  double f64() {
    double v = 0;
    raw(&v, 8);
    return v;
  }

  Particle particle() {
    Particle p;
    p.id = u32();
    p.pos.x = f64();
    p.pos.y = f64();
    p.pos.z = f64();
    p.time = f64();
    p.h = f64();
    p.steps = u32();
    p.geometry_points = u32();
    p.query = u32();
    p.status = static_cast<ParticleStatus>(u8());
    return p;
  }

  bool exhausted() const { return pos_ == buf_.size(); }

 private:
  void raw(void* p, std::size_t n) {
    if (pos_ + n > buf_.size()) {
      throw std::runtime_error("checkpoint: truncated payload");
    }
    std::memcpy(p, buf_.data() + pos_, n);
    pos_ += n;
  }

  std::vector<char> buf_;
  std::size_t pos_ = 0;
};

}  // namespace

std::size_t checkpoint_bytes(const Checkpoint& ck) {
  Writer w(nullptr);
  write_payload(w, ck);
  return sizeof(CheckpointHeader) + w.size();
}

void write_checkpoint(const std::filesystem::path& path,
                      const Checkpoint& ck) {
  std::vector<char> payload;
  Writer w(&payload);
  write_payload(w, ck);

  CheckpointHeader h{};
  std::copy(std::begin(kMagic), std::end(kMagic), h.magic);
  h.payload_bytes = payload.size();
  h.payload_checksum = checksum64(payload.data(), payload.size());

  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path());
  }
  const std::filesystem::path tmp = path.string() + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f) {
      throw std::runtime_error("checkpoint: cannot write " + tmp.string());
    }
    f.write(reinterpret_cast<const char*>(&h), sizeof(h));
    f.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    if (!f) {
      throw std::runtime_error("checkpoint: short write to " + tmp.string());
    }
  }
  std::filesystem::rename(tmp, path);
}

Checkpoint read_checkpoint(const std::filesystem::path& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    throw std::runtime_error("checkpoint: cannot open " + path.string());
  }
  CheckpointHeader h{};
  f.read(reinterpret_cast<char*>(&h), sizeof(h));
  if (!f || !std::equal(std::begin(kMagic), std::end(kMagic), h.magic)) {
    if (f && std::memcmp(h.magic, "SFCKPT", 6) == 0) {
      throw std::runtime_error(
          "checkpoint: " + path.string() +
          " uses an unsupported format version (expected SFCKPT4)");
    }
    throw std::runtime_error("checkpoint: bad magic in " + path.string());
  }
  std::vector<char> payload(h.payload_bytes);
  f.read(payload.data(), static_cast<std::streamsize>(payload.size()));
  if (!f) {
    throw std::runtime_error("checkpoint: truncated file " + path.string());
  }
  if (f.peek() != std::ifstream::traits_type::eof()) {
    // Bytes after the declared payload: appended garbage or a mangled
    // header length.  Either way the file is not what was written.
    throw std::runtime_error("checkpoint: trailing bytes in " + path.string());
  }
  if (checksum64(payload.data(), payload.size()) != h.payload_checksum) {
    throw std::runtime_error("checkpoint: checksum mismatch in " +
                             path.string());
  }

  Reader r(std::move(payload));
  Checkpoint ck;
  ck.sim_time = r.f64();
  ck.num_ranks = r.i32();
  ck.algorithm = r.u8();
  ck.dataset_hash = r.u64();
  const std::uint64_t ndone = r.u64();
  ck.done.reserve(ndone);
  for (std::uint64_t i = 0; i < ndone; ++i) ck.done.push_back(r.particle());
  const std::uint64_t nactive = r.u64();
  ck.active.reserve(nactive);
  ck.active_owner.reserve(nactive);
  for (std::uint64_t i = 0; i < nactive; ++i) {
    ck.active.push_back(r.particle());
    ck.active_owner.push_back(r.i32());
  }
  const std::uint64_t nranks = r.u64();
  ck.ranks.reserve(nranks);
  for (std::uint64_t i = 0; i < nranks; ++i) {
    CheckpointRankState rs;
    rs.rank = r.i32();
    rs.alive = r.u8() != 0;
    const std::uint32_t nres = r.u32();
    rs.resident.reserve(nres);
    for (std::uint32_t j = 0; j < nres; ++j) rs.resident.push_back(r.i32());
    ck.ranks.push_back(std::move(rs));
  }
  if (!r.exhausted()) {
    throw std::runtime_error("checkpoint: trailing bytes in " + path.string());
  }
  return ck;
}

}  // namespace sf
