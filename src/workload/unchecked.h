// Generator bodies without the final soundness check.
//
// Each public generator (generate_coadd, generate_uniform, ...) is its
// body here plus one validate_job. Builders that compose generators —
// build_workload in the registry, the multi-tenant generator's
// per-tenant bags — call these bodies and validate the finished job once
// at their own boundary, so a job is never checked twice on its way to
// a simulation.
#pragma once

#include "workload/coadd.h"
#include "workload/generators.h"
#include "workload/open.h"

namespace wcs::workload::unchecked {

[[nodiscard]] Job coadd(const CoaddParams& params);
[[nodiscard]] Job uniform(const GeneratorParams& params);
[[nodiscard]] Job zipf(const GeneratorParams& params, double exponent);
[[nodiscard]] Job partitioned(const GeneratorParams& params);
[[nodiscard]] Workload multi_tenant(const CoaddParams& bag,
                                    const OpenParams& open);

}  // namespace wcs::workload::unchecked
