#include "sim_point.hpp"

#include <algorithm>
#include <atomic>
#include <memory>

#include "core/runner.hpp"
#include "core/suite.hpp"
#include "machine/registry.hpp"
#include "perf/report.hpp"
#include "power/energy_timeline.hpp"
#include "workload.hpp"

namespace perfbench {

namespace spx = spechpc;

namespace {

constexpr int kMeasuredSteps = 3;
constexpr int kWarmupSteps = 1;

std::unique_ptr<spx::apps::AppProxy> make_app(const SimPoint& p) {
  auto app = spx::core::make_app(p.app, p.size);
  app->set_measured_steps(kMeasuredSteps);
  app->set_warmup_steps(kWarmupSteps);
  return app;
}

/// Invariants every analyzed report must satisfy: wait-state classes add
/// up to the MPI time, and the critical path telescopes to the makespan.
bool analysis_ok(const spx::perf::RunReport& rep) {
  const spx::perf::CriticalPath& cp = rep.critical_path;
  return spx::perf::wait_state_conservation_error(rep.wait_states) <= 1e-9 &&
         cp.computed && cp.length_s == cp.makespan_s;
}

/// Host time and call count of one cost model's virtuals.  Every call is
/// counted, but only one in kSampleEvery is timed, picked by hashing the
/// call number so that periodic call patterns cannot alias with the
/// sample; seconds() scales the timed sum up to all calls.  Timing every
/// call would add two clock reads (~50 ns each on a VM) to calls that
/// themselves take tens of nanoseconds, and each sample has the clock's own
/// share (clock_floor_ns) taken off.  Atomic so the tally stays exact
/// should the engine ever call from several threads.
class CallTally {
 public:
  template <typename Call>
  auto operator()(Call&& call) {
    std::uint64_t n = calls_.fetch_add(1, std::memory_order_relaxed);
    if (splitmix64(n) % kSampleEvery != 0) return call();
    const Clock::time_point t0 = Clock::now();
    auto out = call();
    const std::int64_t ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
            .count() -
        clock_floor_ns();
    ns_.fetch_add(std::max<std::int64_t>(ns, 0), std::memory_order_relaxed);
    timed_.fetch_add(1, std::memory_order_relaxed);
    return out;
  }
  std::uint64_t calls() const { return calls_.load(); }
  double seconds() const {
    const std::uint64_t timed = timed_.load();
    return timed == 0 ? 0.0
                      : static_cast<double>(ns_.load()) * 1e-9 *
                            static_cast<double>(calls_.load()) /
                            static_cast<double>(timed);
  }

 private:
  static constexpr std::uint64_t kSampleEvery = 16;
  std::atomic<std::uint64_t> calls_{0};
  std::atomic<std::uint64_t> timed_{0};
  std::atomic<std::int64_t> ns_{0};
};

/// Forwards every ComputeModel virtual to `inner` through a CallTally.
class TimedCompute final : public spx::sim::ComputeModel {
 public:
  explicit TimedCompute(const spx::sim::ComputeModel& inner) : inner_(inner) {}
  spx::sim::ComputeOutcome evaluate(
      int rank, const spx::sim::Placement& placement,
      const spx::sim::KernelWork& work) const override {
    return tally_([&] { return inner_.evaluate(rank, placement, work); });
  }
  spx::sim::ComputeOutcome evaluate_at(int rank,
                                       const spx::sim::Placement& placement,
                                       const spx::sim::KernelWork& work,
                                       double now) const override {
    return tally_([&] { return inner_.evaluate_at(rank, placement, work, now); });
  }
  const CallTally& tally() const { return tally_; }

 private:
  const spx::sim::ComputeModel& inner_;
  mutable CallTally tally_;
};

/// Forwards every NetworkModel virtual to `inner` through a CallTally.
/// cross_node_lookahead must be forwarded too: without it the engine would
/// see no lookahead and silently fall back to its serial loop.
class TimedNetwork final : public spx::sim::NetworkModel {
 public:
  explicit TimedNetwork(const spx::sim::NetworkModel& inner) : inner_(inner) {}
  spx::sim::TransferCost transfer(int src, int dst,
                                  const spx::sim::Placement& placement,
                                  double bytes) const override {
    return tally_([&] { return inner_.transfer(src, dst, placement, bytes); });
  }
  double control_latency(int src, int dst,
                         const spx::sim::Placement& placement) const override {
    return tally_([&] { return inner_.control_latency(src, dst, placement); });
  }
  spx::sim::TransferCost transfer_at(int src, int dst,
                                     const spx::sim::Placement& placement,
                                     double bytes, double now) const override {
    return tally_([&] { return inner_.transfer_at(src, dst, placement, bytes, now); });
  }
  double control_latency_at(int src, int dst,
                            const spx::sim::Placement& placement,
                            double now) const override {
    return tally_([&] { return inner_.control_latency_at(src, dst, placement, now); });
  }
  double cross_node_lookahead(
      const spx::sim::Placement& placement) const override {
    return tally_([&] { return inner_.cross_node_lookahead(placement); });
  }
  const CallTally& tally() const { return tally_; }

 private:
  const spx::sim::NetworkModel& inner_;
  mutable CallTally tally_;
};

double& at(LayerValues& row, M m) { return row[static_cast<std::size_t>(m)]; }

/// Adds the engine's own counters of one run to `row`.
void add_engine_counts(const spx::sim::EngineStats& es, LayerValues& row) {
  at(row, M::simmpi_events) += static_cast<double>(es.events_processed);
  at(row, M::simmpi_flat_matches) += static_cast<double>(es.flat_matches);
  at(row, M::simmpi_hash_matches) += static_cast<double>(es.hash_matches);
  at(row, M::simmpi_wildcard_matches) +=
      static_cast<double>(es.wildcard_matches);
  const std::size_t hwm =
      std::max({es.unexpected_hwm, es.posted_hwm, es.rzv_hwm});
  at(row, M::simmpi_queue_hwm) =
      std::max(at(row, M::simmpi_queue_hwm), static_cast<double>(hwm));
  at(row, M::simmpi_barrier_wait_s) += es.barrier_wait_s;
  std::uint64_t windows = 0;
  for (const spx::sim::PartitionStats& ps : es.partitions) {
    at(row, M::simmpi_exec_s) += ps.exec_wall_s;
    at(row, M::simmpi_ingest_s) += ps.ingest_wall_s;
    at(row, M::simmpi_empty_windows) += static_cast<double>(ps.empty_windows);
    at(row, M::simmpi_cross_msgs) +=
        static_cast<double>(ps.cross_messages_sent);
    windows = std::max(windows, ps.horizon_syncs);
  }
  at(row, M::simmpi_windows) += static_cast<double>(windows);
  at(row, M::simmpi_graph_slices) += static_cast<double>(es.graph_slices);
  at(row, M::simmpi_graph_events) += static_cast<double>(es.graph_events);
  at(row, M::simmpi_graph_bytes) += static_cast<double>(es.graph_bytes);
}

}  // namespace

double run_point(const SimPoint& p, PointOutput& out) {
  const Clock::time_point t0 = Clock::now();
  auto app = make_app(p);
  spx::core::RunOptions opts;
  opts.regions = true;
  opts.trace = true;
  opts.analyze = true;
  opts.engine_threads = 1;
  opts.profile_host = false;
  auto result = std::make_unique<spx::core::RunResult>(
      spx::core::run_on_nodes(*app, *p.cluster, p.nodes, opts));
  auto rep = std::make_unique<spx::perf::RunReport>(spx::core::build_report(
      *result, *p.cluster, p.app, spx::apps::to_string(p.size)));
  out.json = spx::perf::to_json(*rep);
  const double produced_s = seconds_since(t0);

  out.checks_ok = analysis_ok(*rep);
  out.events = result->engine().events_processed();

  const Clock::time_point t1 = Clock::now();
  rep.reset();
  result.reset();
  app.reset();
  return produced_s + seconds_since(t1);
}

double run_point_traced(const SimPoint& p, SpanLog& spans, LayerValues& row,
                        PointOutput& out) {
  const spx::mach::ClusterSpec& cluster = *p.cluster;
  const Clock::time_point t0 = Clock::now();

  // core::run_benchmark, one module call at a time.
  std::unique_ptr<spx::apps::AppProxy> app;
  {
    Scoped s(spans, M::apps_make_s);
    app = make_app(p);
  }
  std::unique_ptr<spx::mach::RooflineComputeModel> roofline;
  std::unique_ptr<spx::mach::HdrNetworkModel> hdr;
  {
    Scoped s(spans, M::machine_models_s);
    roofline = std::make_unique<spx::mach::RooflineComputeModel>(
        cluster, spx::mach::RooflineOptions{});
    hdr = std::make_unique<spx::mach::HdrNetworkModel>(cluster.net);
  }
  const TimedCompute compute(*roofline);
  const TimedNetwork network(*hdr);

  spx::sim::EngineConfig cfg;
  cfg.placement = spx::mach::block_placement_on_nodes(
      cluster, p.nodes * cluster.cores_per_node(), p.nodes);
  cfg.nranks = cfg.placement.nranks();
  cfg.compute = &compute;
  cfg.network = &network;
  cfg.enable_trace = true;
  cfg.enable_regions = true;
  cfg.enable_graph = true;
  cfg.threads = 1;
  cfg.profile_host = true;  // exec/ingest/barrier split; reset below
  std::unique_ptr<spx::sim::Engine> engine;
  {
    Scoped s(spans, M::simmpi_engine_build_s);
    engine = std::make_unique<spx::sim::Engine>(std::move(cfg));
  }
  const std::uint64_t faults0 = minor_faults();
  {
    Scoped s(spans, M::simmpi_run_s);
    const spx::apps::AppProxy& a = *app;
    engine->run([&a](spx::sim::Comm& comm) -> spx::sim::Task<> {
      return a.rank_main(comm);
    });
  }
  at(row, M::simmpi_run_minflt) +=
      static_cast<double>(minor_faults() - faults0);

  spx::perf::RunReport rep;
  {
    Scoped s(spans, M::perf_collect_s);
    rep.metrics = spx::perf::collect(*engine);
  }
  {
    Scoped s(spans, M::power_analyze_s);
    rep.power = spx::power::PowerModel(cluster).analyze(*engine);
  }

  // core::build_report, one module call at a time.
  rep.app = p.app;
  rep.workload = spx::apps::to_string(p.size);
  rep.nranks = engine->nranks();
  rep.nodes = engine->placement().nodes_used();
  rep.steps = app->measured_steps();
  rep.cluster = cluster.name;
  rep.peak_node_flops = cluster.cpu.peak_node_flops();
  rep.sat_bw_per_node_Bps = cluster.cpu.sat_bw_per_node_Bps();
  rep.cores_per_node = cluster.cores_per_node();
  {
    Scoped s(spans, M::machine_to_json_s);
    rep.machine_json = spx::mach::machine_to_json(cluster);
  }
  rep.engine_stats = engine->stats();
  rep.ranks.reserve(static_cast<std::size_t>(engine->nranks()));
  for (int r = 0; r < engine->nranks(); ++r)
    rep.ranks.push_back(engine->measured(r));
  if (engine->regions_enabled()) {
    Scoped s(spans, M::perf_regions_s);
    rep.regions = spx::perf::region_rows(*engine);
  }
  if (!engine->timeline().intervals().empty()) {
    {
      Scoped s(spans, M::perf_series_s);
      rep.series = spx::perf::time_series(engine->timeline(), 32);
    }
    const spx::power::PowerModel model(cluster);
    {
      Scoped s(spans, M::power_timeline_s);
      rep.energy_timeline = spx::power::analyze_timeline(model, *engine, 32);
    }
    if (engine->regions_enabled()) {
      Scoped s(spans, M::power_region_energy_s);
      rep.region_energy = spx::power::attribute_region_energy(
          model, *engine, rep.energy_timeline);
    }
  }
  {
    Scoped s(spans, M::perf_waitstate_s);
    rep.wait_states = spx::perf::wait_state_rows(*engine, engine->threads());
  }
  if (engine->graph_enabled()) {
    Scoped s(spans, M::perf_critpath_s);
    rep.critical_path = spx::perf::analyze_critical_path(
        engine->event_graph(), engine->nranks(), engine->elapsed(),
        engine->threads());
    for (spx::perf::CritRegionRow& cr : rep.critical_path.by_region) {
      cr.path = engine->regions_enabled() ? "(untracked)" : "(all)";
      for (const spx::perf::RegionRow& reg : rep.regions)
        if (reg.id == cr.region) {
          cr.path = reg.path;
          break;
        }
      for (const spx::power::RegionEnergy& re : rep.region_energy)
        if (re.path == cr.path && re.time_s > 0.0) {
          cr.energy_j = re.total_j() / re.time_s * cr.cp_s;
          break;
        }
    }
  }
  {
    Scoped s(spans, M::perf_to_json_s);
    out.json = spx::perf::to_json(rep);
  }
  const double produced_s = seconds_since(t0);

  // Untimed: counts, invariants, and the comparable bytes.
  at(row, M::perf_report_bytes) += static_cast<double>(out.json.size());
  at(row, M::machine_compute_calls) +=
      static_cast<double>(compute.tally().calls());
  at(row, M::machine_compute_s) += compute.tally().seconds();
  at(row, M::machine_network_calls) +=
      static_cast<double>(network.tally().calls());
  at(row, M::machine_network_s) += network.tally().seconds();
  add_engine_counts(rep.engine_stats, row);
  out.checks_ok = analysis_ok(rep);
  out.events = rep.engine_stats.events_processed;
  spx::sim::EngineStats& es = rep.engine_stats;
  es.host_profiled = false;
  es.barrier_wait_s = 0.0;
  for (spx::sim::PartitionStats& ps : es.partitions)
    ps.exec_wall_s = ps.ingest_wall_s = 0.0;
  out.json = spx::perf::to_json(rep);

  const Clock::time_point t1 = Clock::now();
  rep = {};
  {
    Scoped s(spans, M::simmpi_teardown_s);
    engine.reset();
  }
  app.reset();
  roofline.reset();
  hdr.reset();
  return produced_s + seconds_since(t1);
}

}  // namespace perfbench
