#pragma once
// Result bookkeeping for the origin-of-mass benchmark: metric names and
// units, operation tallies behind fail_frac, order statistics, and the
// two JSON documents a run emits (the full lqcd.perfbench.result/1
// document and the one-line summary that ends standard output).

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dirac/wilson.hpp"

namespace perfbench {

inline constexpr const char* kResultSchema = "lqcd.perfbench.result/1";

/// Relative residual every workload solves to.
inline constexpr double kTol = 1e-9;
/// Bound on a column's true residual |b - M x| / |b|. The normal-equation
/// solvers stop on the residual of the preconditioned system, whose
/// relation to the true one carries a condition-number factor; 10x the
/// solve tolerance leaves that room.
inline constexpr double kResidualTol = 10.0 * kTol;

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  /// Derived from counts and a model rather than measured (bytes, flops,
  /// model predictions).
  bool computed = false;
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics reported by an untraced run, in output order.
[[nodiscard]] std::span<const MetricSpec> end_to_end_metrics();
/// Per-layer metrics reported by a traced run, in output order.
[[nodiscard]] std::span<const MetricSpec> per_layer_metrics();

/// Names must match [A-Za-z0-9_.-]+ (at most 64 characters).
[[nodiscard]] bool valid_metric_name(std::string_view name);

/// Attempted/failed operations: a column solve or an output check.
struct OpTally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void merge(const OpTally& o) {
    attempted += o.attempted;
    failed += o.failed;
  }
  [[nodiscard]] double fail_frac() const {
    return attempted > 0 ? static_cast<double>(failed) /
                               static_cast<double>(attempted)
                         : 0.0;
  }
};

[[nodiscard]] double median(std::vector<double> v);

/// Campaign service time not spent solving or loading configurations
/// (journal appends and flushes, sharding, health tracking, result.json).
/// The spans it subtracts are timed independently of run(), so clock
/// granularity can push the difference below zero; it is clamped.
[[nodiscard]] double serve_overhead_s(double run_s, double solve_s,
                                      double config_load_s);

/// |b - M x| / |b| with the single-domain double Wilson operator: the
/// output check that does not trust the solver that produced x.
[[nodiscard]] double true_residual(const lqcd::WilsonOperator<double>& m,
                                   std::span<const lqcd::WilsonSpinorD> x,
                                   std::span<const lqcd::WilsonSpinorD> b);

struct Provenance {
  std::string source_id;  ///< git sha, or a digest of the source tree
  std::string build_type;
  std::string compiler;
  std::string march;
  int pool_threads = 0;
  int nproc = 0;
  std::string cpu_model;
  std::vector<std::string> caches;  ///< e.g. "L1d 48 KiB"
  std::uint64_t seed = 0;
};

/// Everything one run measured.
struct Result {
  std::string workload;
  bool trace = false;
  bool correct = true;
  OpTally ops;
  int units = 0;          ///< timed repetitions of the workload
  int traced_units = 0;   ///< of which ran with telemetry on
  int setup_samples = 0;
  int propagator_samples = 0;
  std::vector<Metric> metrics;  ///< end-to-end or per-layer set
  std::vector<Metric> details;  ///< everything else worth keeping
  std::vector<std::string> notes;
  Provenance provenance;
};

/// Full result document (pretty JSON, schema kResultSchema).
[[nodiscard]] std::string result_json(const Result& r);
/// The one-line summary that ends standard output: correct, attempted,
/// failed and metrics{name: {value, unit}}.
[[nodiscard]] std::string summary_json(const Result& r);

}  // namespace perfbench
