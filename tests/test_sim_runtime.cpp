#include "runtime/sim_runtime.hpp"

#include <gtest/gtest.h>

#include "test_support.hpp"

namespace sf {
namespace {

using testing::make_world;
using testing::test_model;
using sf::testing::TestWorld;

// A scripted program for poking the runtime contract directly.
class ScriptProgram final : public RankProgram {
 public:
  std::function<void(ScriptProgram&, RankContext&)> on_start;
  std::function<void(ScriptProgram&, RankContext&, Message)> on_msg;
  std::function<void(ScriptProgram&, RankContext&, BlockId)> on_block;
  std::function<void(ScriptProgram&, RankContext&)> on_done;
  bool done = false;

  void start(RankContext& ctx) override {
    if (on_start) on_start(*this, ctx);
  }
  void on_message(RankContext& ctx, Message m) override {
    if (on_msg) on_msg(*this, ctx, std::move(m));
  }
  void on_block_loaded(RankContext& ctx, BlockId id) override {
    if (on_block) on_block(*this, ctx, id);
  }
  void on_compute_done(RankContext& ctx) override {
    if (on_done) on_done(*this, ctx);
  }
  bool finished() const override { return done; }
  void collect_particles(std::vector<Particle>&) const override {}
};

SimRuntimeConfig config_for(int ranks) {
  SimRuntimeConfig cfg;
  cfg.num_ranks = ranks;
  cfg.model = test_model();
  cfg.cache_blocks = 4;
  return cfg;
}

TEST(SimRuntime, MessageDeliveryCostsAndArrives) {
  TestWorld w = testing::rotor_world(2);
  SimRuntime rt(config_for(2), &w.decomp(), w.source.get(),
                IntegratorParams{}, TraceLimits{});

  bool received = false;
  double recv_time = -1.0;
  const RunMetrics m = rt.run([&](int rank, int) {
    auto p = std::make_unique<ScriptProgram>();
    if (rank == 0) {
      p->on_start = [](ScriptProgram& self, RankContext& ctx) {
        Message msg;
        msg.payload = DoneSignal{};
        ctx.send(1, std::move(msg));
        self.done = true;
      };
    } else {
      p->on_msg = [&](ScriptProgram& self, RankContext& ctx, Message msg) {
        received = true;
        recv_time = ctx.now();
        EXPECT_EQ(msg.from, 0);
        self.done = true;
      };
    }
    return p;
  });

  EXPECT_TRUE(received);
  EXPECT_GT(recv_time, 0.0);  // latency applied
  EXPECT_EQ(m.ranks[0].messages_sent, 1u);
  EXPECT_GT(m.ranks[0].comm_time, 0.0);
  EXPECT_GT(m.ranks[1].comm_time, 0.0);  // receive side pays too
  EXPECT_EQ(m.ranks[1].messages_sent, 0u);
}

TEST(SimRuntime, BlockLoadChargesIoAndCacheHitsAreFree) {
  TestWorld w = testing::rotor_world(2);
  SimRuntime rt(config_for(1), &w.decomp(), w.source.get(),
                IntegratorParams{}, TraceLimits{});

  int loads_seen = 0;
  const RunMetrics m = rt.run([&](int, int) {
    auto p = std::make_unique<ScriptProgram>();
    p->on_start = [](ScriptProgram&, RankContext& ctx) {
      ctx.request_block(0);
    };
    p->on_block = [&loads_seen](ScriptProgram& self, RankContext& ctx,
                                BlockId id) {
      EXPECT_EQ(id, 0);
      ++loads_seen;
      EXPECT_TRUE(ctx.block_resident(0));
      EXPECT_NE(ctx.block(0), nullptr);
      if (loads_seen == 1) {
        ctx.request_block(0);  // hit: immediate, no extra I/O
      } else {
        self.done = true;
      }
    };
    return p;
  });

  EXPECT_EQ(loads_seen, 2);
  EXPECT_EQ(m.ranks[0].blocks_loaded, 1u);
  EXPECT_GT(m.ranks[0].io_time, 0.0);
  const double one_load = m.ranks[0].io_time;
  // Exactly one service time: latency + bytes/bw.
  EXPECT_DOUBLE_EQ(one_load,
                   test_model().io_service_seconds(w.source->block_bytes(0)));
}

TEST(SimRuntime, DuplicateRequestsCoalesce) {
  TestWorld w = testing::rotor_world(2);
  SimRuntime rt(config_for(1), &w.decomp(), w.source.get(),
                IntegratorParams{}, TraceLimits{});
  int notifications = 0;
  const RunMetrics m = rt.run([&](int, int) {
    auto p = std::make_unique<ScriptProgram>();
    p->on_start = [](ScriptProgram&, RankContext& ctx) {
      ctx.request_block(2);
      ctx.request_block(2);
      ctx.request_block(2);
      EXPECT_TRUE(ctx.block_pending(2));
    };
    p->on_block = [&notifications](ScriptProgram& self, RankContext&,
                                   BlockId) {
      ++notifications;
      self.done = true;
    };
    return p;
  });
  EXPECT_EQ(notifications, 1);
  EXPECT_EQ(m.ranks[0].blocks_loaded, 1u);
}

TEST(SimRuntime, ComputeBurstAdvancesClockAndBlocksReentry) {
  TestWorld w = testing::rotor_world(2);
  SimRuntime rt(config_for(1), &w.decomp(), w.source.get(),
                IntegratorParams{}, TraceLimits{});
  double done_at = -1.0;
  const RunMetrics m = rt.run([&](int, int) {
    auto p = std::make_unique<ScriptProgram>();
    p->on_start = [](ScriptProgram&, RankContext& ctx) {
      ctx.begin_compute(0.5, 1234);
      EXPECT_TRUE(ctx.busy());
      EXPECT_THROW(ctx.begin_compute(0.1, 1), std::logic_error);
    };
    p->on_done = [&done_at](ScriptProgram& self, RankContext& ctx) {
      EXPECT_FALSE(ctx.busy());
      done_at = ctx.now();
      self.done = true;
    };
    return p;
  });
  EXPECT_DOUBLE_EQ(done_at, 0.5);
  EXPECT_DOUBLE_EQ(m.ranks[0].compute_time, 0.5);
  EXPECT_EQ(m.ranks[0].steps, 1234u);
  EXPECT_DOUBLE_EQ(m.wall_clock, 0.5);
}

TEST(SimRuntime, OomAbortsRun) {
  TestWorld w = testing::rotor_world(2);
  SimRuntimeConfig cfg = config_for(1);
  cfg.model.particle_memory_bytes = 1000;
  SimRuntime rt(cfg, &w.decomp(), w.source.get(), IntegratorParams{},
                TraceLimits{});
  const RunMetrics m = rt.run([&](int, int) {
    auto p = std::make_unique<ScriptProgram>();
    p->on_start = [](ScriptProgram& self, RankContext& ctx) {
      ctx.charge_particle_memory(900);
      EXPECT_THROW(ctx.charge_particle_memory(200), SimAbort);
      self.done = true;  // unreachable in real programs; fine here
      throw SimAbort("re-raise");
    };
    return p;
  });
  EXPECT_TRUE(m.failed_oom);
  EXPECT_TRUE(m.ranks[0].oom);
  EXPECT_GE(m.ranks[0].peak_particle_bytes, 1100u);
}

TEST(SimRuntime, ReleasingMoreParticleMemoryThanHeldFailsTheRun) {
  TestWorld w = testing::rotor_world(2);
  SimRuntime rt(config_for(1), &w.decomp(), w.source.get(),
                IntegratorParams{}, TraceLimits{});
  try {
    rt.run([&](int, int) {
      auto p = std::make_unique<ScriptProgram>();
      p->on_start = [](ScriptProgram& self, RankContext& ctx) {
        ctx.charge_particle_memory(100);
        ctx.charge_particle_memory(-200);
        self.done = true;
      };
      return p;
    });
    FAIL() << "an underflowing release must fail the run";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("rank 0"), std::string::npos)
        << e.what();
  }
}

TEST(SimRuntime, QuiescenceWithUnfinishedProgramIsAnError) {
  TestWorld w = testing::rotor_world(2);
  SimRuntime rt(config_for(1), &w.decomp(), w.source.get(),
                IntegratorParams{}, TraceLimits{});
  // A program that never finishes and never schedules anything.
  EXPECT_THROW(rt.run([&](int, int) { return std::make_unique<ScriptProgram>(); }),
               std::logic_error);
}

TEST(SimRuntime, ValidatesConfiguration) {
  TestWorld w = testing::rotor_world(2);
  SimRuntimeConfig bad = config_for(0);
  EXPECT_THROW(SimRuntime(bad, &w.decomp(), w.source.get(),
                          IntegratorParams{}, TraceLimits{}),
               std::invalid_argument);
  EXPECT_THROW(SimRuntime(config_for(1), nullptr, w.source.get(),
                          IntegratorParams{}, TraceLimits{}),
               std::invalid_argument);
}

TEST(SimRuntime, LruEvictionCountsPurges) {
  TestWorld w = testing::rotor_world(2);  // 8 blocks
  SimRuntimeConfig cfg = config_for(1);
  cfg.cache_blocks = 2;
  SimRuntime rt(cfg, &w.decomp(), w.source.get(), IntegratorParams{},
                TraceLimits{});
  const RunMetrics m = rt.run([&](int, int) {
    auto p = std::make_unique<ScriptProgram>();
    p->on_start = [](ScriptProgram&, RankContext& ctx) {
      ctx.request_block(0);
    };
    p->on_block = [](ScriptProgram& self, RankContext& ctx, BlockId id) {
      if (id < 4) {
        ctx.request_block(id + 1);
      } else {
        self.done = true;
      }
    };
    return p;
  });
  EXPECT_EQ(m.ranks[0].blocks_loaded, 5u);
  EXPECT_EQ(m.ranks[0].blocks_purged, 3u);
  EXPECT_DOUBLE_EQ(m.block_efficiency(), 2.0 / 5.0);
}

}  // namespace
}  // namespace sf
