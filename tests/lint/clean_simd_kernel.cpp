// Lint fixture (never compiled): the clean idioms of the AVX2 kernel TU
// (src/core/integrator_simd.cpp) plus a marked release/acquire flag
// like QueryCancelSet's (src/core/tracer.hpp).  Lane-minor scratch
// arrays, fixed-order lane loops, and marked atomics must pass BOTH
// lints: the determinism lint (no unordered iteration, no wall-clock
// decisions, no entropy) and the lock-order lint's raw-atomic marker
// discipline.

#include <atomic>
#include <cstddef>

namespace sf {

constexpr int kLanes = 4;

// Lane-minor stage registers, exactly the SIMD TU's layout: iteration
// is always the fixed lane order 0..3, never over an unordered set.
struct LaneBlock {
  double y[3][kLanes];
  double k[7][3][kLanes];
  bool active[kLanes];
};

inline void accumulate_stage(LaneBlock& b, int stage, double h) {
  for (int axis = 0; axis < 3; ++axis) {
    for (int lane = 0; lane < kLanes; ++lane) {  // fixed lane order
      if (!b.active[lane]) continue;
      b.k[stage][axis][lane] = b.y[axis][lane] * h;
    }
  }
}

// The kernel's completion flag, published the way QueryCancelSet
// publishes its count.
class RoundFlag {
 public:
  void publish() {
    // lockfree-lint: spsc — release store pairs with the acquire load
    // in consumed(): the lane writes above happen-before any reader
    // that observes done_ == true.
    done_.store(true, std::memory_order_release);
  }

  bool consumed() const {
    // lockfree-lint: spsc — acquire load, the pairing half of
    // publish(): observing true happens-after every lane write.
    return done_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<bool> done_{false};
};

}  // namespace sf
