// perfbench harness: the pieces every workload shares.
//
//   * clocks and order statistics (op_s.p50/p90, per-layer medians);
//   * process counters read from getrusage (peak RSS, minor faults);
//   * the span log of the traced run: name, start, end, parent span and op
//     id per span, kept in memory and written out when the benchmark exits;
//   * the per-layer metric table and the JSON result line.
//
// Everything here is benchmark-side: the program under test is only ever
// reached through its public entry points.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Smallest interval two back-to-back Clock::now() calls measure [ns]:
/// the clock's own share of any timed interval, measured once.
std::int64_t clock_floor_ns();

/// Linear-interpolated quantile `q` in [0, 1] of `v`, which it sorts in
/// place; 0 for an empty sample.
template <typename T>
double quantile(std::vector<T>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
inline double median(std::vector<double> v) { return quantile(v, 0.5); }

/// Peak resident set of this process so far [MiB].
double peak_rss_mib();
/// Minor page faults of this process (all threads) so far.
std::uint64_t minor_faults();

// --- per-layer metrics ------------------------------------------------------

/// Every per-layer metric the traced run prints, in print order.  Layer
/// names are the program's module names (simmpi, machine, apps, perf, power,
/// util, service) plus `core` for what falls between them.
#define PERFBENCH_LAYER_METRICS(X)                 \
  X(simmpi_run_s, "simmpi.run_s", "s")             \
  X(simmpi_run_self_s, "simmpi.run_self_s", "s")   \
  X(simmpi_events, "simmpi.events", "count")       \
  X(simmpi_run_minflt, "simmpi.run_minflt", "count") \
  X(simmpi_flat_matches, "simmpi.flat_matches", "count") \
  X(simmpi_hash_matches, "simmpi.hash_matches", "count") \
  X(simmpi_wildcard_matches, "simmpi.wildcard_matches", "count") \
  X(simmpi_queue_hwm, "simmpi.queue_hwm", "count") \
  X(simmpi_engine_build_s, "simmpi.engine_build_s", "s") \
  X(simmpi_teardown_s, "simmpi.teardown_s", "s")   \
  X(simmpi_exec_s, "simmpi.exec_s", "s")           \
  X(simmpi_ingest_s, "simmpi.ingest_s", "s")       \
  X(simmpi_barrier_wait_s, "simmpi.barrier_wait_s", "s") \
  X(simmpi_windows, "simmpi.windows", "count")     \
  X(simmpi_empty_windows, "simmpi.empty_windows", "count") \
  X(simmpi_cross_msgs, "simmpi.cross_msgs", "count") \
  X(simmpi_graph_slices, "simmpi.graph_slices", "count") \
  X(simmpi_graph_events, "simmpi.graph_events", "count") \
  X(simmpi_graph_bytes, "simmpi.graph_bytes", "B") \
  X(machine_models_s, "machine.models_s", "s")     \
  X(machine_compute_s, "machine.compute_s", "s")   \
  X(machine_compute_calls, "machine.compute_calls", "count") \
  X(machine_network_s, "machine.network_s", "s")   \
  X(machine_network_calls, "machine.network_calls", "count") \
  X(machine_to_json_s, "machine.to_json_s", "s")   \
  X(apps_make_s, "apps.make_s", "s")               \
  X(perf_waitstate_s, "perf.waitstate_s", "s")     \
  X(perf_critpath_s, "perf.critpath_s", "s")       \
  X(perf_collect_s, "perf.collect_s", "s")         \
  X(perf_regions_s, "perf.regions_s", "s")         \
  X(perf_series_s, "perf.series_s", "s")           \
  X(perf_to_json_s, "perf.to_json_s", "s")         \
  X(perf_report_bytes, "perf.report_bytes", "B")   \
  X(power_analyze_s, "power.analyze_s", "s")       \
  X(power_timeline_s, "power.timeline_s", "s")     \
  X(power_region_energy_s, "power.region_energy_s", "s") \
  X(util_parse_json_s, "util.parse_json_s", "s")   \
  X(service_parse_request_s, "service.parse_request_s", "s") \
  X(service_cache_key_s, "service.cache_key_s", "s") \
  X(service_cache_get_s, "service.cache_get_s", "s") \
  X(service_handle_line_s, "service.handle_line_s", "s") \
  X(service_residual_s, "service.residual_s", "s") \
  X(service_response_bytes, "service.response_bytes", "B") \
  X(service_hit_ratio, "service.hit_ratio", "ratio") \
  X(service_execute_s, "service.execute_s", "s")   \
  X(service_cache_put_s, "service.cache_put_s", "s") \
  X(core_residual_s, "core.residual_s", "s")       \
  X(core_op_p50_s, "core.op_p50_s", "s")           \
  X(core_trace_overhead, "core.trace_overhead", "ratio")

enum class M : std::uint8_t {
#define PERFBENCH_ENUM(id, name, unit) id,
  PERFBENCH_LAYER_METRICS(PERFBENCH_ENUM)
#undef PERFBENCH_ENUM
  kCount
};
inline constexpr std::size_t kLayerMetrics = static_cast<std::size_t>(M::kCount);

const char* metric_name(M m);
const char* metric_unit(M m);

/// Per-layer values of one traced op (sums over the op's spans and runs).
using LayerValues = std::array<double, kLayerMetrics>;

// --- spans ------------------------------------------------------------------

/// One recorded interval.  `parent` indexes the enclosing span of the same
/// op (-1 at top level); `layer` names the timed call by its metric.
struct Span {
  std::uint32_t op = 0;
  std::int32_t parent = -1;
  M layer = M::kCount;
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = 0;
};

/// In-memory span log of the traced run.  When an op ends its spans are
/// folded into a LayerValues row (summed by layer); all spans are kept for
/// the CSV dump (the traced run caps its op count).
class SpanLog {
 public:
  void begin_op(std::uint32_t op);
  int open(M layer);
  void close(int index);
  /// Adds every span of the current op to `row` by layer; returns the summed
  /// duration of the op's top-level spans.
  double fold_op(LayerValues& row);

  /// Writes all spans as CSV (op,parent,layer,t0_ns,t1_ns).
  bool write_csv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::size_t op_begin_ = 0;
  std::uint32_t op_ = 0;
  Clock::time_point epoch_ = Clock::now();
};

/// RAII span: opens on construction, closes on destruction.
class Scoped {
 public:
  Scoped(SpanLog& log, M layer) : log_(log), index_(log.open(layer)) {}
  ~Scoped() { log_.close(index_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog& log_;
  int index_;
};

// --- results ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result line: {"correct","attempted","failed","metrics"}.
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics);

/// Shortest round-trip decimal form of `v` (all significant digits).
std::string format_double(double v);

}  // namespace perfbench
