// The simulation workload.
//
// scale-1664-analyze: minisweep `small` on cluster-b, 16 nodes x 104 =
//   1664 ranks, analyzed (`spechpc_cli run minisweep --cluster B --nodes 16
//   --workload small --analyze all --report`, host self-profiling off).
//   The seed selects nothing: the paper's multi-node case is one fixed run.
#include "machine/registry.hpp"
#include "perf/report.hpp"
#include "sim_point.hpp"
#include "workload.hpp"

namespace perfbench {

namespace spx = spechpc;

namespace {

class SimWorkload final : public Workload {
 public:
  SimWorkload(SimPoint point, const Options& opts)
      : point_(std::move(point)), opts_(opts) {}

  void setup() override {
    PointOutput out;
    run_point(point_, out);
    // A repeated setup must reproduce the reference byte for byte.
    reference_ok_ = reference_ok_ && out.checks_ok &&
                    spx::perf::validate_run_report_json(out.json) &&
                    (reference_.empty() || reference_ == out.json);
    events_ = out.events;
    // Copied, not moved: the reference keeps the buffer the first setup
    // allocated.  A moved-in buffer would sit wherever this run's heap
    // placed it, and the next ops' peak RSS would move with it.
    reference_ = out.json;
  }

  bool reference_ok() const override { return reference_ok_; }

  OpResult run_op(std::uint64_t op) override {
    PointOutput out;
    OpResult r;
    r.seconds = run_point(point_, out);
    r.ok = check(op, out);
    return r;
  }

  OpResult run_traced_op(std::uint64_t op, SpanLog& spans,
                         LayerValues& row) override {
    spans.begin_op(static_cast<std::uint32_t>(op));
    PointOutput out;
    OpResult r;
    r.seconds = run_point_traced(point_, spans, row, out);
    r.ok = check(op, out);
    const double top = spans.fold_op(row);
    auto v = [&row](M m) -> double& { return row[static_cast<std::size_t>(m)]; };
    v(M::simmpi_run_self_s) = v(M::simmpi_run_s) - v(M::machine_compute_s) -
                              v(M::machine_network_s);
    v(M::core_residual_s) = r.seconds - top;
    return r;
  }

  std::vector<std::pair<std::string, std::string>> size() const override {
    return {{"ranks", std::to_string(point_.nodes *
                                     point_.cluster->cores_per_node())},
            {"events_per_op", std::to_string(events_)},
            {"report_bytes_per_op", std::to_string(reference_.size())}};
  }

 private:
  /// Output checks of one op: the analysis invariants, and the report
  /// bytes equal to the reference's.
  bool check(std::uint64_t op, PointOutput& out) const {
    if (opts_.corrupt == Corrupt::kReport && op == kCorruptOp)
      out.json[out.json.size() / 2] ^= 0x01;
    return reference_ok_ && out.checks_ok && out.json == reference_;
  }

  SimPoint point_;
  Options opts_;
  std::string reference_;
  bool reference_ok_ = true;
  std::uint64_t events_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_scale_1664_analyze(const Options& opts) {
  SimPoint p;
  p.app = "minisweep";
  p.size = spx::apps::Workload::kSmall;
  p.cluster = &spx::mach::Registry::builtin().get("cluster-b");
  p.nodes = 16;
  return std::make_unique<SimWorkload>(std::move(p), opts);
}

}  // namespace perfbench
