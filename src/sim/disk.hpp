#pragma once

// Shared parallel-filesystem model.
//
// The filesystem has `channels` independent servers.  A read request
// entering at time t is served by the earliest-free channel: it starts at
// max(t, channel_free) and occupies the channel for the service time.
// Requests must be submitted in non-decreasing time order (the DES
// processes events chronologically, so this holds by construction).

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/machine_model.hpp"

namespace sf {

class SharedDisk {
 public:
  SharedDisk(const MachineModel& model, int channels)
      : model_(model), free_at_(static_cast<std::size_t>(channels), 0.0) {
    if (channels < 1) throw std::invalid_argument("SharedDisk: channels >= 1");
  }

  // Submit a read of `bytes` at time `now`; returns the completion time.
  SimTime submit_read(SimTime now, std::size_t bytes) {
    if (now < last_submit_) {
      throw std::logic_error("SharedDisk: reads must arrive in time order");
    }
    last_submit_ = now;
    // Earliest-free channel (ties broken by index for determinism).
    std::size_t best = 0;
    for (std::size_t c = 1; c < free_at_.size(); ++c) {
      if (free_at_[c] < free_at_[best]) best = c;
    }
    const SimTime start = std::max(now, free_at_[best]);
    const SimTime done = start + model_.io_service_seconds(bytes);
    free_at_[best] = done;
    ++reads_;
    bytes_read_ += bytes;
    return done;
  }

  std::uint64_t reads() const { return reads_; }
  std::uint64_t bytes_read() const { return bytes_read_; }

 private:
  MachineModel model_;
  std::vector<SimTime> free_at_;
  SimTime last_submit_ = 0.0;
  std::uint64_t reads_ = 0;
  std::uint64_t bytes_read_ = 0;
};

}  // namespace sf
