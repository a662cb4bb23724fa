#pragma once

// Interconnect model: point-to-point messages with per-message latency,
// payload bandwidth, and per-endpoint CPU cost.  The CPU cost is what the
// paper reports as "communication time" (time to post sends/receives and
// associated management), so it is tracked per rank here.

#include <cstdint>

#include "sim/event_queue.hpp"
#include "sim/machine_model.hpp"

namespace sf {

class Network {
 public:
  explicit Network(const MachineModel& model) : model_(model) {}

  // Returns the delivery time of a message sent at `now`, and accounts
  // the transfer.  The caller charges endpoint CPU costs to the ranks.
  SimTime delivery_time(SimTime now, std::size_t bytes) {
    ++messages_;
    bytes_sent_ += bytes;
    return now + model_.message_flight_seconds(bytes);
  }

  double endpoint_cost(std::size_t bytes) const {
    return model_.message_endpoint_seconds(bytes);
  }

  std::uint64_t messages() const { return messages_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }

 private:
  MachineModel model_;
  std::uint64_t messages_ = 0;
  std::uint64_t bytes_sent_ = 0;
};

}  // namespace sf
