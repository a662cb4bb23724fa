#include "runtime/message.hpp"

namespace sf {

namespace {

constexpr std::size_t kEnvelope = 32;  // type tag, source, lengths

std::size_t particles_bytes(const std::vector<Particle>& ps,
                            bool carry_geometry) {
  std::size_t n = 0;
  for (const Particle& p : ps) n += particle_message_bytes(p, carry_geometry);
  return n;
}

struct ByteSizer {
  bool carry_geometry;

  std::size_t operator()(const ParticleBatch& b) const {
    return kEnvelope + particles_bytes(b.particles, carry_geometry);
  }
  std::size_t operator()(const StatusUpdate& s) const {
    // Trailing 24: workable+terminated_total counters plus the 8-byte
    // steps_total progress watermark and the 8-byte busy_seconds clock
    // (the computing bit rides in the counters' padding).
    return kEnvelope + s.queued_by_block.size() * 8 + s.loaded.size() * 4 +
           s.loading.size() * 4 + 24;
  }
  std::size_t operator()(const Command& c) const {
    return kEnvelope + 16 + particles_bytes(c.particles, carry_geometry) +
           c.hint_blocks.size() * 4;
  }
  std::size_t operator()(const TerminationCount& t) const {
    return kEnvelope + t.totals.size() * 8;
  }
  std::size_t operator()(const DoneSignal&) const { return kEnvelope; }
  std::size_t operator()(const MasterBeacon&) const { return kEnvelope; }
  std::size_t operator()(const ControlAck&) const { return kEnvelope + 4; }
  std::size_t operator()(const SeedRequest&) const { return kEnvelope; }
  std::size_t operator()(const SeedRelay&) const { return kEnvelope; }
  std::size_t operator()(const SeedTransfer& t) const {
    // Seeds have no geometry yet; they are always compact.
    return kEnvelope + particles_bytes(t.seeds, false);
  }
  std::size_t operator()(const Undeliverable& u) const {
    return kEnvelope + 8 + particles_bytes(u.particles, carry_geometry);
  }
};

}  // namespace

std::size_t message_bytes(const Message& msg, bool carry_geometry) {
  return std::visit(ByteSizer{carry_geometry}, msg.payload);
}

const char* to_string(Command::Type t) {
  switch (t) {
    case Command::Type::kAssign: return "assign";
    case Command::Type::kSendForce: return "send-force";
    case Command::Type::kSendHint: return "send-hint";
    case Command::Type::kLoad: return "load";
    case Command::Type::kTerminate: return "terminate";
  }
  return "unknown";
}

}  // namespace sf
