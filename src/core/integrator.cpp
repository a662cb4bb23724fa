#include "core/integrator.hpp"

namespace sf {

StepResult dopri5_step(const VectorField& field, const Vec3& p, double t,
                       double h, const IntegratorParams& params) {
  return integrator_detail::dopri5_step_impl_fast(
      [&field](const Vec3& ps, double, Vec3& out) {
        return field.sample(ps, out);
      },
      p, t, h, params);
}

StepResult dopri5_step(const UnsteadySampleFn& f, const Vec3& p, double t,
                       double h, const IntegratorParams& params) {
  return integrator_detail::dopri5_step_impl_fast(f, p, t, h, params);
}

}  // namespace sf
