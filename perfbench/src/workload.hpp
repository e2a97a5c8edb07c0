// The interface main.cpp drives, and the two workloads behind it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"

namespace perfbench {

/// Deliberate damage for the smoke test: one timed op's output is altered
/// after the program produced it and before the checks read it, so the
/// checks must count exactly that op as failed.
enum class Corrupt {
  kNone,
  kReport,    ///< flip one byte of a report
  kUncached,  ///< service-hot: turn "cached":true into "cached":false
};

/// Op id under which setup-time spans are recorded.
inline constexpr std::uint32_t kSetupOp = 0xffffffffu;

/// The timed op --corrupt damages (the second, so the first is clean).
inline constexpr std::uint64_t kCorruptOp = 1;

struct Options {
  std::uint64_t seed = 1;
  Corrupt corrupt = Corrupt::kNone;
};

/// One op as the harness sees it.
struct OpResult {
  double seconds = 0.0;  ///< wall time inside the program; checks excluded
  bool ok = true;        ///< every output check of the op passed
};

/// A named workload: inputs made from the seed, a reference made by an
/// untimed cold op, and ops whose outputs are checked against it.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Everything before the first timed op, including one untimed cold op
  /// whose checked outputs become the reference.  Called once per setup
  /// repetition; a later call replaces the earlier state and must
  /// reproduce the same reference bytes.
  virtual void setup() = 0;
  /// Releases what setup() built; called untimed between setup repetitions.
  virtual void teardown() {}
  /// False once any reference check failed; every op then counts as failed.
  virtual bool reference_ok() const = 0;

  /// One op through the public entry points, as the CLI and spechpcd run it.
  virtual OpResult run_op(std::uint64_t op) = 0;
  /// The same op re-executed as timed calls into each module, with spans
  /// in `spans` and counts and times added to `row`.
  virtual OpResult run_traced_op(std::uint64_t op, SpanLog& spans,
                                 LayerValues& row) = 0;
  /// Per-layer values measured once per traced run outside the ops (the
  /// service miss path), as spans of the pseudo-op kSetupOp.
  virtual LayerValues traced_setup(SpanLog& /*spans*/) { return LayerValues{}; }

  /// Deterministic size of one op (simulated events, report bytes, keys...)
  /// for the result fingerprint: (key, JSON value) pairs.
  virtual std::vector<std::pair<std::string, std::string>> size() const = 0;
};

std::unique_ptr<Workload> make_scale_1664_analyze(const Options& opts);
std::unique_ptr<Workload> make_service_hot(const Options& opts);

/// splitmix64: the benchmark's only source of pseudo-random inputs.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Uniform double in [0, 1) from splitmix64.
inline double uniform01(std::uint64_t& state) {
  return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

}  // namespace perfbench
