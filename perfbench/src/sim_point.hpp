// One simulation run of a workload, executed two ways:
//
//   run_point         the public path the CLI and spechpcd use:
//                     core::run_benchmark -> core::build_report ->
//                     perf::to_json;
//   run_point_traced  the same run re-executed as timed calls into each
//                     module's public functions (apps, machine, simmpi,
//                     perf, power), with the cost models wrapped in
//                     forwarding decorators that time every call.
//
// Both return the report bytes; the traced ones have the host-wall fields
// that profile_host adds reset to their untraced values, so the two paths
// can be compared byte for byte.
#pragma once

#include <cstdint>
#include <string>

#include "apps/app_base.hpp"
#include "harness.hpp"
#include "machine/specs.hpp"

namespace perfbench {

/// One `spechpc_cli run --nodes N --analyze all --report` run: regions,
/// trace and event graph on, all cores of `nodes` nodes, 3 measured steps
/// plus 1 warm-up, one engine thread, fault-free.
struct SimPoint {
  std::string app;
  spechpc::apps::Workload size = spechpc::apps::Workload::kTiny;
  const spechpc::mach::ClusterSpec* cluster = nullptr;
  int nodes = 1;
};

struct PointOutput {
  std::string json;         ///< RunReport bytes
  bool checks_ok = false;   ///< the analysis invariants hold
  std::uint64_t events = 0; ///< simulated events processed
};

/// Runs `p` through the public entry points; returns the host seconds the
/// program spent (report production and teardown, checks excluded).
double run_point(const SimPoint& p, PointOutput& out);

/// Runs `p` as timed module calls, recording spans in `spans` and adding
/// counts to `row`; returns the host seconds as run_point does.
double run_point_traced(const SimPoint& p, SpanLog& spans, LayerValues& row,
                        PointOutput& out);

}  // namespace perfbench
