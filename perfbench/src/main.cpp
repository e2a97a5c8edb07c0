// perfbench_driver: runs one named workload and prints its metrics.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--ops N] [--corrupt none|report|uncached]
//                    [--source ID] [--spans FILE]
//
// --trace 0  times ops for S seconds through the program's public entry
//            points, in kSetups slices with a fresh set-up before each:
//            setup_s, op_s.p50, op_s.p90, peak_rss_mb.
// --trace 1  sets up once, then for S seconds alternates untraced ops with
//            traced ones (timed calls into each module), and prints the
//            per-layer medians, the untraced op median core.op_p50_s, and
//            core.trace_overhead, the traced op median over the untraced
//            one.  Spans go to --spans.
// --ops N    runs exactly N timed ops (N of each kind with --trace 1)
//            instead of running for S seconds.
//
// Every op's outputs are checked; a failed check counts the op as failed
// and the run goes on.  The last stdout line is the result object
// {"correct","attempted","failed","metrics"}; the line before it is the
// fingerprint (host, build, source, seed, workload size).
#include <sys/utsname.h>

#include <algorithm>
#include <charconv>
#include <cstring>
#include <fstream>
#include <iostream>
#include <thread>

#include "harness.hpp"
#include "util/json.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;

/// Set-ups per untraced run, one before each equal slice of the timed ops,
/// so that the set-up times sample the host across the run as the op times
/// do; setup_s is their 75th percentile.
constexpr int kSetups = 16;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::uint64_t ops = 0;  ///< > 0: exactly this many ops, --seconds unused
  Corrupt corrupt = Corrupt::kNone;
  std::string source = "unknown";
  std::string spans_path;
};

[[noreturn]] void usage_error(const std::string& msg) {
  std::cerr << "perfbench_driver: " << msg << "\n";
  std::exit(2);
}

template <typename T>
T parse_number(const std::string& flag, const std::string& v) {
  T out{};
  const auto [p, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  if (ec != std::errc() || p != v.data() + v.size())
    usage_error(flag + " expects a number, got '" + v + "'");
  return out;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage_error(flag + " requires a value");
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = parse_number<std::uint64_t>(flag, v);
    } else if (flag == "--seconds") {
      a.seconds = parse_number<double>(flag, v);
    } else if (flag == "--trace") {
      a.trace = parse_number<int>(flag, v);
    } else if (flag == "--ops") {
      a.ops = parse_number<std::uint64_t>(flag, v);
      if (a.ops < 1) usage_error("--ops must be >= 1");
    } else if (flag == "--corrupt") {
      if (v == "none") a.corrupt = Corrupt::kNone;
      else if (v == "report") a.corrupt = Corrupt::kReport;
      else if (v == "uncached") a.corrupt = Corrupt::kUncached;
      else usage_error("--corrupt expects none|report|uncached");
    } else if (flag == "--source") {
      a.source = v;
    } else if (flag == "--spans") {
      a.spans_path = v;
    } else {
      usage_error("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) usage_error("--workload is required");
  if (!(a.seconds > 0.0)) usage_error("--seconds must be > 0");
  if (a.trace != 0 && a.trace != 1) usage_error("--trace must be 0 or 1");
  return a;
}

std::unique_ptr<Workload> make_workload(const Args& a) {
  Options o;
  o.seed = a.seed;
  o.corrupt = a.corrupt;
  if (a.workload == "scale-1664-analyze") return make_scale_1664_analyze(o);
  if (a.workload == "service-hot") return make_service_hot(o);
  usage_error("unknown workload '" + a.workload +
              "' (scale-1664-analyze|service-hot)");
}

std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line.empty() ? "unknown" : line;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);)
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size())
        return line.substr(colon + 2);
    }
  return "unknown";
}

/// Host, build, source, seed and workload size of this result.
std::string fingerprint(const Args& a, const Workload& w, std::uint64_t ops) {
  using spechpc::util::json_quote;
  utsname un{};
  uname(&un);
  const std::string cache = "/sys/devices/system/cpu/cpu0/cache/";
  std::string out = "{\"workload\":" + json_quote(a.workload) +
                    ",\"seed\":" + std::to_string(a.seed) +
                    ",\"trace\":" + std::to_string(a.trace) +
                    ",\"seconds\":" + format_double(a.seconds) +
                    ",\"ops\":" + std::to_string(ops) +
                    ",\"setups\":" +
                    std::to_string(a.trace == 0 ? kSetups : 1);
  out += ",\"host\":{\"nproc\":" +
         std::to_string(std::thread::hardware_concurrency()) +
         ",\"cpu\":" + json_quote(cpu_model()) +
         ",\"l2\":" + json_quote(read_first_line(cache + "index2/size")) +
         ",\"l3\":" + json_quote(read_first_line(cache + "index3/size")) +
         ",\"kernel\":" + json_quote(un.release) + "}";
  out += ",\"build\":{\"compiler\":" + json_quote(PERFBENCH_COMPILER) +
         ",\"flags\":" + json_quote(PERFBENCH_FLAGS) +
         ",\"type\":" + json_quote(PERFBENCH_BUILD_TYPE) + "}";
  out += ",\"source\":" + json_quote(a.source);
  out += ",\"size\":{";
  for (const auto& [key, value] : w.size()) {
    if (out.back() != '{') out += ',';
    out += json_quote(key) + ":" + value;
  }
  return out + "}}";
}

/// Op count, failures, and op times kept as a uniform random sample of at
/// most kKeep (reservoir sampling; runs with fewer ops keep every time).
/// The benchmark's own memory is then a fixed 256 KiB that cannot push
/// peak_rss_mb around with the op count.
struct Tally {
  static constexpr std::size_t kKeep = 1u << 16;
  Tally() { op_s.reserve(kKeep); }
  std::vector<float> op_s;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::uint64_t rng = 0x5eed;  // fixed: the sample never depends on --seed
  void add(const OpResult& r) {
    ++ops;
    failed += r.ok ? 0 : 1;
    const float s = static_cast<float>(r.seconds);
    if (op_s.size() < kKeep) {
      op_s.push_back(s);
    } else if (const std::uint64_t j = splitmix64(rng) % ops; j < kKeep) {
      op_s[j] = s;
    }
  }
  double quantile(double q) { return perfbench::quantile(op_s, q); }
};

/// Runs op(i) for the next op indices i of `t`: exactly `ops` of them when
/// `ops` > 0, else until `seconds` have passed (at least one) or `t` holds
/// `cap` ops.
template <typename Fn>
void run_for(double seconds, std::uint64_t ops, std::uint64_t cap, Tally& t,
             Fn&& op) {
  const Clock::time_point t0 = Clock::now();
  while (ops > 0 ? t.ops < ops : t.ops < cap) {
    t.add(op(t.ops));
    if (ops == 0 && seconds_since(t0) >= seconds) break;
  }
}

void print_layer_table(const std::vector<Metric>& metrics) {
  std::cout << "per-layer medians over traced ops:\n";
  for (const Metric& m : metrics)
    std::cout << "  " << m.name
              << std::string(m.name.size() < 26 ? 26 - m.name.size() : 1, ' ')
              << format_double(m.value) << " " << m.unit << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  try {
    std::unique_ptr<Workload> w = make_workload(a);
    std::vector<Metric> metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    if (a.trace == 0) {
      Tally timed;
      std::vector<double> setup_s;
      for (int i = 0; i < kSetups; ++i) {
        if (i > 0) w->teardown();
        const Clock::time_point t0 = Clock::now();
        w->setup();
        setup_s.push_back(seconds_since(t0));
        run_for(a.seconds / kSetups, a.ops, UINT64_MAX, timed,
                [&](std::uint64_t op) { return w->run_op(op); });
      }
      metrics = {{"setup_s", quantile(setup_s, 0.75), "s"},
                 {"op_s.p50", timed.quantile(0.5), "s"},
                 {"op_s.p90", timed.quantile(0.9), "s"},
                 {"peak_rss_mb", peak_rss_mib(), "MiB"}};
      attempted = timed.ops;
      failed = timed.failed;
    } else {
      SpanLog spans;
      clock_floor_ns();  // calibrate now, not inside the first timed call
      w->setup();
      const LayerValues setup_row = w->traced_setup(spans);
      // Untraced and traced ops alternate, so both medians sample the same
      // host conditions.  Pairs are capped so a microsecond-scale
      // workload's rows stay small; a median of this many is exact enough.
      constexpr std::uint64_t kMaxPairs = 50000;
      Tally untraced;
      Tally timed;
      std::vector<LayerValues> rows;
      run_for(a.seconds, a.ops, kMaxPairs, timed,
              [&](std::uint64_t pair) {
                untraced.add(w->run_op(2 * pair));
                LayerValues row{};
                const OpResult r = w->run_traced_op(2 * pair + 1, spans, row);
                rows.push_back(row);
                return r;
              });
      for (std::size_t m = 0; m < kLayerMetrics; ++m) {
        std::vector<double> v;
        v.reserve(rows.size());
        for (const LayerValues& row : rows) v.push_back(row[m] + setup_row[m]);
        metrics.push_back({metric_name(static_cast<M>(m)), median(std::move(v)),
                           metric_unit(static_cast<M>(m))});
      }
      const double base = untraced.quantile(0.5);
      const double traced = timed.quantile(0.5);
      metrics[static_cast<std::size_t>(M::core_op_p50_s)].value = base;
      metrics[static_cast<std::size_t>(M::core_trace_overhead)].value =
          base > 0 ? traced / base : 0.0;
      print_layer_table(metrics);
      std::cout << "untraced ops " << untraced.ops << ", traced ops "
                << timed.ops << ", op_s.p50 untraced "
                << format_double(base) << " s, traced "
                << format_double(traced) << " s\n";
      if (!a.spans_path.empty() && !spans.write_csv(a.spans_path))
        std::cerr << "perfbench_driver: cannot write " << a.spans_path << "\n";
      attempted = untraced.ops + timed.ops;
      failed = untraced.failed + timed.failed;
    }

    const bool correct = failed == 0 && w->reference_ok();
    std::cout << "fingerprint " << fingerprint(a, *w, attempted) << "\n";
    std::cout << result_json(correct, attempted, failed, metrics) << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 1;
  }
}
