#include "report.hpp"

#include <algorithm>
#include <cmath>

#include "dirac/wilson.hpp"
#include "linalg/blas.hpp"
#include "util/aligned.hpp"
#include "util/json.hpp"

namespace perfbench {

namespace {

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"propagator_s", "s"},
    {"peak_rss_mb", "MB"},
};

// Grouped by library module; each group's comment names the end-to-end
// metric it should move and on which workload.
constexpr MetricSpec kPerLayer[] = {
    // gauge: wall_s on spectrum*, setup_s on campaign.
    {"gauge.heatbath_s", "s"},
    {"gauge.sweeps", "count"},
    {"gauge.io_s", "s"},
    // solver: propagator_s and wall_s on spectrum*, campaign, dist_solve.
    {"solver.setup_s", "s"},
    {"solver.solve_s", "s"},
    {"solver.iterations", "count"},
    {"solver.restarts", "count"},
    // dirac: propagator_s on spectrum*; gauge_site_loads ~1/K on campaign.
    {"dirac.site_applies", "count"},
    {"dirac.gauge_site_loads", "count"},
    {"dirac.gflops", "GF/s"},
    {"dirac.model_s", "s"},
    // mg: propagator_s and peak_rss_mb on spectrum_mg only.
    {"mg.setup_s", "s"},
    {"mg.vcycle_s", "s"},
    {"mg.vcycles", "count"},
    {"mg.coarse_iterations", "count"},
    {"mg.fine_applies", "count"},
    {"mg.coarse_applies", "count"},
    {"mg.model_s", "s"},
    // spectro: wall_s on spectrum*.
    {"spectro.source_s", "s"},
    {"spectro.contract_s", "s"},
    {"spectro.analysis_s", "s"},
    // serve: wall_s on campaign only.
    {"serve.solve_s", "s"},
    {"serve.config_load_s", "s"},
    {"serve.journal_bytes", "B"},
    {"serve.journal_frames", "count"},
    {"serve.retries", "count"},
    {"serve.overhead_s", "s"},
    // comm: wall_s and propagator_s on dist_solve only.
    {"comm.apply_s", "s"},
    {"comm.begin_s", "s"},
    {"comm.interior_s", "s"},
    {"comm.finish_s", "s"},
    {"comm.surface_s", "s"},
    {"comm.hidden_fraction", "frac"},
    {"comm.messages", "count"},
    {"comm.payload_bytes", "B"},
    {"comm.wire_bytes", "B"},
    {"comm.retransmits", "count"},
    {"comm.model_s", "s"},
    // parallel: wall_s everywhere, most on dist_solve and campaign.
    {"parallel.cpu_util", "frac"},
    // Cost of tracing itself: traced vs untraced unit wall time.
    {"trace.overhead_frac", "frac"},
};

}  // namespace

std::span<const MetricSpec> end_to_end_metrics() { return kEndToEnd; }
std::span<const MetricSpec> per_layer_metrics() { return kPerLayer; }

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
  });
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double serve_overhead_s(double run_s, double solve_s, double config_load_s) {
  return std::max(0.0, run_s - solve_s - config_load_s);
}

double true_residual(const lqcd::WilsonOperator<double>& m,
                     std::span<const lqcd::WilsonSpinorD> x,
                     std::span<const lqcd::WilsonSpinorD> b) {
  lqcd::aligned_vector<lqcd::WilsonSpinorD> r(b.size());
  std::span<lqcd::WilsonSpinorD> rs(r.data(), r.size());
  m.apply(rs, x);
  for (std::size_t i = 0; i < r.size(); ++i) {
    lqcd::WilsonSpinorD d = b[i];
    d -= r[i];
    r[i] = d;
  }
  const double bn = lqcd::blas::norm2<double>(b);
  const double rn = lqcd::blas::norm2<double>(
      std::span<const lqcd::WilsonSpinorD>(r.data(), r.size()));
  return bn > 0.0 ? std::sqrt(rn / bn) : std::sqrt(rn);
}

std::string result_json(const Result& r) {
  lqcd::json::Writer w;
  w.begin_object()
      .field("schema", kResultSchema)
      .field("workload", r.workload)
      .field("trace", r.trace)
      .field("correct", r.correct)
      .field("attempted", r.ops.attempted)
      .field("failed", r.ops.failed)
      .field("fail_frac", r.ops.fail_frac())
      .field("units", r.units)
      .field("traced_units", r.traced_units)
      .field("setup_samples", r.setup_samples)
      .field("propagator_samples", r.propagator_samples);
  const auto metric_list = [&w](const char* key,
                                const std::vector<Metric>& ms) {
    w.key(key).begin_array();
    for (const Metric& m : ms) {
      w.begin_object()
          .field("name", m.name)
          .field("value", std::isfinite(m.value) ? m.value : 0.0)
          .field("unit", m.unit)
          .field("computed", m.computed)
          .end_object();
    }
    w.end_array();
  };
  metric_list("metrics", r.metrics);
  metric_list("details", r.details);
  w.key("notes").begin_array();
  for (const std::string& n : r.notes) w.value(n);
  w.end_array();
  const Provenance& p = r.provenance;
  w.key("provenance")
      .begin_object()
      .field("source_id", p.source_id)
      .field("build_type", p.build_type)
      .field("compiler", p.compiler)
      .field("lqcd_march", p.march)
      .field("pool_threads", p.pool_threads)
      .field("nproc", p.nproc)
      .field("cpu_model", p.cpu_model);
  w.key("caches").begin_array();
  for (const std::string& c : p.caches) w.value(c);
  w.end_array();
  w.field("seed", static_cast<std::int64_t>(p.seed)).end_object();
  w.end_object();
  return w.str();
}

// Hand-assembled because json::Writer pretty-prints across lines and the
// summary must be a single line.
std::string summary_json(const Result& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.ops.attempted);
  out += ", \"failed\": " + std::to_string(r.ops.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (i > 0) out += ", ";
    out += '"';
    lqcd::json::escape(out, m.name);
    out += "\": {\"value\": ";
    lqcd::json::format_double(out, std::isfinite(m.value) ? m.value : 0.0);
    out += ", \"unit\": \"";
    lqcd::json::escape(out, m.unit);
    out += "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
