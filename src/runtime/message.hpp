#pragma once

// Messages exchanged between ranks.
//
// One tagged-union message type covers all three algorithms:
//   * ParticleBatch      — streamlines in flight between ranks (Static
//                          hand-offs, Hybrid Sendforce/Sendhint traffic)
//   * StatusUpdate       — slave -> master state report (§4.3)
//   * Command            — master -> slave work assignment (the 5 rules)
//   * TerminationCount   — the global streamline count of §4.1
//   * DoneSignal         — terminate broadcast
//   * SeedRequest/SeedTransfer — master <-> master balancing
//   * SeedRelay          — a root master brokering a SeedRequest it could
//                          not satisfy down to a leaf donor (or once
//                          across to a peer root); tree layouts only
//   * Undeliverable      — fault injection: a particle-bearing message
//                          bounced back to its sender (dropped in flight
//                          or addressed to a dead rank), so the particles
//                          are never lost
//   * MasterBeacon       — master -> slave liveness beacon; silence beyond
//                          the miss limit triggers master failover
//   * ControlAck         — transport-level acknowledgement of a sequenced
//                          control message; consumed by the runtime's
//                          retransmit layer, never seen by programs
//
// message_bytes() is the serialized size the network model charges; with
// carry_geometry set (the paper's behaviour) particles pay for their full
// recorded polyline, which is why communication gets expensive for long
// streamlines (§8).

#include <cstdint>
#include <utility>
#include <variant>
#include <vector>

#include "core/block_decomposition.hpp"
#include "core/particle.hpp"

namespace sf {

struct ParticleBatch {
  // The block the particles currently reside in (kInvalidBlock when the
  // batch is mixed).
  BlockId block = kInvalidBlock;
  std::vector<Particle> particles;
};

struct StatusUpdate {
  // Waiting particles grouped by the block they currently reside in.
  std::vector<std::pair<BlockId, std::uint32_t>> queued_by_block;
  std::vector<BlockId> loaded;   // blocks resident in the slave's cache
  std::vector<BlockId> loading;  // block loads in flight
  std::uint32_t workable = 0;    // particles advanceable right now
  // Cumulative count of streamlines this rank has terminated since the
  // start of the run.  Cumulative (not a delta) so a re-reported or
  // duplicated status merges idempotently: the receiver keeps a per-rank
  // high-water mark instead of summing deltas.
  std::uint32_t terminated_total = 0;
  // Progress watermark: cumulative integration steps this rank has
  // completed (in-flight bursts pro-rated by planned duration).
  // Cumulative for the same idempotence reason.
  std::uint64_t steps_total = 0;
  // Cumulative seconds this rank has actually spent computing, measured
  // by its own clock across burst start -> completion.  The master
  // differentiates steps_total against busy_seconds into an *effective
  // compute speed* (steps per busy second) — the straggler-detection
  // signal (§16).  Every healthy rank computes at the same speed no
  // matter how starved it is, while a gray-slowed rank's bursts take
  // longer than the steps they retire, so the ratio collapses by
  // exactly the slowdown factor.
  double busy_seconds = 0.0;
  // True while a compute burst is in flight.  Tells the master the slave
  // is *expected* to make progress: a zero-rate window while computing
  // means "slow" (straggler candidate), while the same window on a slave
  // waiting for a block load just means "starved".
  bool computing = false;
  // When >= 0, this status re-homes the slave to a successor after its
  // master at rank `orphaned_from` went silent; the successor adopts the
  // slave and recovers the dead master's state on first sight.
  int orphaned_from = -1;
};

struct Command {
  enum class Type : std::uint8_t {
    kAssign,     // integrate these particles (Assign_loaded/unloaded)
    kSendForce,  // send your particles in `block` to rank `target`
    kSendHint,   // offload particles in `hint_blocks` to `target` if apt
    kLoad,       // load `block`
    kTerminate,  // all streamlines done; shut down
  };
  Type type = Type::kAssign;
  BlockId block = kInvalidBlock;
  int target = -1;
  std::vector<Particle> particles;    // kAssign payload
  std::vector<BlockId> hint_blocks;   // kSendHint payload
};

struct TerminationCount {
  // Cumulative per-origin-rank termination totals (§4.1's global count,
  // made crash- and duplicate-survivable).  The counter rank max-merges
  // every entry into a per-rank high-water board, so duplicates,
  // reordering and post-failover re-reports are all no-ops; the global
  // done count is the sum of the board.
  std::vector<std::pair<int, std::uint32_t>> totals;
};

struct DoneSignal {};

// Periodic master -> slave liveness beacon.  Slaves track the last time
// they heard their master (any Command or beacon); silence longer than
// kHeartbeatMissLimit periods triggers failover to a successor.
struct MasterBeacon {};

// Transport-level acknowledgement of a sequenced control message.  Emitted
// by the receiving rank's transport, consumed by the sending rank's
// transport (cancels the pending retransmit); programs never see it.
struct ControlAck {
  std::uint32_t seq = 0;
};

struct SeedRequest {};

// Tree-mode seed brokering (two-level master tree, DESIGN.md §15): a root
// that cannot satisfy a SeedRequest from its own pool relays the demand to
// one of its leaf masters (or, escalated once, to a peer root).  The
// receiver donates back to the *broker* (msg.from) with a SeedTransfer, and
// a root receiving a relay must never re-escalate it — which is what bounds
// the brokering chain and distinguishes the kind from SeedRequest.
struct SeedRelay {};

struct SeedTransfer {
  std::vector<Particle> seeds;
};

// A particle-bearing message that could not be delivered, returned to the
// sender by the (modeled) reliable transport.  `target` is the rank the
// original message was addressed to and `block` the residency of the
// particles, so the sender can re-route.
struct Undeliverable {
  int target = -1;
  BlockId block = kInvalidBlock;
  std::vector<Particle> particles;
};

struct Message {
  int from = -1;
  std::variant<ParticleBatch, StatusUpdate, Command, TerminationCount,
               DoneSignal, SeedRequest, SeedRelay, SeedTransfer,
               Undeliverable, MasterBeacon, ControlAck>
      payload;
  // Sequence number stamped by the sender's control transport on sequenced
  // control messages (0 = unsequenced).  Receivers dedup on it, so
  // at-least-once retransmission never double-delivers to a program.
  std::uint32_t ctrl_seq = 0;
};

// Serialized size used by the cost model.
std::size_t message_bytes(const Message& msg, bool carry_geometry);

const char* to_string(Command::Type t);

}  // namespace sf
