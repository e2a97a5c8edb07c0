#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>

namespace perfbench {

std::int64_t clock_floor_ns() {
  static const std::int64_t floor = [] {
    std::int64_t best = INT64_MAX;
    for (int i = 0; i < 1000; ++i) {
      const Clock::time_point t0 = Clock::now();
      const Clock::time_point t1 = Clock::now();
      best = std::min<std::int64_t>(
          best,
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
    }
    return best;
  }();
  return floor;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_minflt);
}

namespace {

struct MetricInfo {
  const char* name;
  const char* unit;
};

constexpr MetricInfo kInfo[] = {
#define PERFBENCH_INFO(id, name, unit) {name, unit},
    PERFBENCH_LAYER_METRICS(PERFBENCH_INFO)
#undef PERFBENCH_INFO
};
static_assert(std::size(kInfo) == kLayerMetrics);

}  // namespace

const char* metric_name(M m) { return kInfo[static_cast<std::size_t>(m)].name; }
const char* metric_unit(M m) { return kInfo[static_cast<std::size_t>(m)].unit; }

void SpanLog::begin_op(std::uint32_t op) {
  op_ = op;
  op_begin_ = spans_.size();
  stack_.clear();
}

int SpanLog::open(M layer) {
  Span s;
  s.op = op_;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.layer = layer;
  s.t0_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - epoch_)
                .count();
  spans_.push_back(s);
  const int index = static_cast<int>(spans_.size() - 1);
  stack_.push_back(index);
  return index;
}

void SpanLog::close(int index) {
  spans_[static_cast<std::size_t>(index)].t1_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch_)
          .count();
  stack_.pop_back();
}

double SpanLog::fold_op(LayerValues& row) {
  double top = 0.0;
  for (std::size_t i = op_begin_; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double d = static_cast<double>(s.t1_ns - s.t0_ns) * 1e-9;
    row[static_cast<std::size_t>(s.layer)] += d;
    if (s.parent < 0) top += d;
  }
  op_begin_ = spans_.size();
  return top;
}

bool SpanLog::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "op,parent,layer,t0_ns,t1_ns\n";
  for (const Span& s : spans_)
    out << s.op << ',' << s.parent << ',' << metric_name(s.layer) << ','
        << s.t0_ns << ',' << s.t1_ns << '\n';
  return static_cast<bool>(out);
}

std::string format_double(double v) {
  if (!std::isfinite(v)) return "null";  // invalid as a metric, visibly
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc() ? std::string(buf, end) : "null";
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           format_double(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
