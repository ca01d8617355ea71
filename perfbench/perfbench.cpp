// Origin-of-mass benchmark: runs one workload in this process and prints
// its metrics, ending with the one-line JSON summary.
//
//   perfbench --workload spectrum|spectrum_mg|campaign|dist_solve
//             --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--reference FILE] [--result FILE]
//             [--source-id ID]
//
// A run sets up the workload's inputs several times (setup_s is their
// median), then repeats the timed work ("units") on the same inputs while
// another unit still fits in --seconds; the first unit always runs.
// Outputs are checked after every unit, outside the timed region. With
// --trace 1 untraced and traced units alternate: telemetry is on only in
// the traced ones, which give the per-layer metrics, and the ratio of
// their wall times gives trace.overhead_frac.
//
// Every layer is measured from outside: the benchmark times its own calls
// into the library's public functions, and reads the library's telemetry
// counters and spans plus the OverlapStats/CommStats accessors.

#include <sys/resource.h>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "comm/dist_eo.hpp"
#include "comm/machine.hpp"
#include "comm/perf_model.hpp"
#include "comm/process_grid.hpp"
#include "core/api.hpp"
#include "dirac/normal.hpp"
#include "gauge/heatbath.hpp"
#include "gauge/io.hpp"
#include "linalg/blas.hpp"
#include "parallel/thread_pool.hpp"
#include "report.hpp"
#include "serve/service.hpp"
#include "solver/cg.hpp"
#include "spectro/source.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/telemetry.hpp"

namespace {

using namespace lqcd;
using perfbench::Metric;
using perfbench::OpTally;

using Clock = std::chrono::steady_clock;
const Clock::time_point kProcessStart = Clock::now();

double now_s() {
  return std::chrono::duration<double>(Clock::now() - kProcessStart).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

using perfbench::kResidualTol;
using perfbench::kTol;

// Quenched Wilson gauge action at beta 5.9 for every workload. Ensembles
// thermalize for 20 sweeps and decorrelate for 5 between configs, the
// hadron_spectrum example's defaults, which keep heatbath a minority of
// the spectrum workloads' time.
constexpr double kBeta = 5.9;
constexpr EnsembleParams kEnsemble{.beta = kBeta,
                                   .thermalization_sweeps = 20,
                                   .sweeps_between_configs = 5};
// Observables against a reference (masses absolute, correlators
// relative): a column residual of r moves a correlator by O(r) relative
// and a plateau mass by the difference of two such errors, so 1000x the
// solve tolerance is a generous bound that still catches a real change.
constexpr double kObservableTol = 1000.0 * kTol;
const Coord kOrigin{0, 0, 0, 0};

std::string read_file(const std::string& path) {
  std::ifstream is(path);
  LQCD_REQUIRE(static_cast<bool>(is), "cannot read " + path);
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

// ---- telemetry -------------------------------------------------------

/// Counters and per-name span seconds (summed over every position in the
/// merged span tree), parsed from telemetry::report_json().
struct Telemetry {
  std::map<std::string, double> counters;
  std::map<std::string, double> spans;

  static Telemetry capture() {
    Telemetry t;
    const json::Value doc = json::Value::parse(telemetry::report_json(true));
    for (const auto& [name, v] : doc.at("counters").items())
      t.counters[name] = v.as_double();
    add_spans(doc.at("trace"), t.spans);
    return t;
  }

  void merge(const Telemetry& o) {
    for (const auto& [k, v] : o.counters) counters[k] += v;
    for (const auto& [k, v] : o.spans) spans[k] += v;
  }

  [[nodiscard]] double counter(const std::string& name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : it->second;
  }
  [[nodiscard]] double span(const std::string& name) const {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second;
  }
  /// Sum of counters named "<prefix><anything><suffix>".
  [[nodiscard]] double counter_sum(std::string_view prefix,
                                   std::string_view suffix) const {
    double s = 0.0;
    for (const auto& [k, v] : counters) {
      const std::string_view n(k);
      if (n.size() > prefix.size() + suffix.size() &&
          n.substr(0, prefix.size()) == prefix &&
          n.substr(n.size() - suffix.size()) == suffix)
        s += v;
    }
    return s;
  }

 private:
  static void add_spans(const json::Value& list,
                        std::map<std::string, double>& out) {
    for (std::size_t i = 0; i < list.size(); ++i) {
      const json::Value& node = list[i];
      out[node.at("name").as_string()] += node.get_or("seconds", 0.0);
      if (const json::Value* ch = node.find("children")) add_spans(*ch, out);
    }
  }
};

// ---- per-unit measurements -------------------------------------------

/// Seconds and counts the benchmark takes around its own library calls.
struct Layers {
  double heatbath_s = 0.0;
  double sweeps = 0.0;
  double io_s = 0.0;
  double solver_setup_s = 0.0;
  double solver_solve_s = 0.0;
  double iterations = 0.0;
  double source_s = 0.0;
  double contract_s = 0.0;
  double analysis_s = 0.0;
  double serve_run_s = 0.0;
  double journal_bytes = 0.0;
  double journal_frames = 0.0;
  double comm_apply_s = 0.0;
  OverlapStats overlap;
  CommStats comm;

  void merge(const Layers& o) {
    heatbath_s += o.heatbath_s;
    sweeps += o.sweeps;
    io_s += o.io_s;
    solver_setup_s += o.solver_setup_s;
    solver_solve_s += o.solver_solve_s;
    iterations += o.iterations;
    source_s += o.source_s;
    contract_s += o.contract_s;
    analysis_s += o.analysis_s;
    serve_run_s += o.serve_run_s;
    journal_bytes += o.journal_bytes;
    journal_frames += o.journal_frames;
    comm_apply_s += o.comm_apply_s;
    overlap.applies += o.overlap.applies;
    overlap.interior_sites += o.overlap.interior_sites;
    overlap.surface_sites += o.overlap.surface_sites;
    overlap.t_begin_s += o.overlap.t_begin_s;
    overlap.t_interior_s += o.overlap.t_interior_s;
    overlap.t_finish_s += o.overlap.t_finish_s;
    overlap.t_surface_s += o.overlap.t_surface_s;
    comm.messages += o.comm.messages;
    comm.bytes += o.comm.bytes;
    comm.wire_bytes += o.comm.wire_bytes;
    comm.retransmits += o.comm.retransmits;
  }
};

struct Unit {
  double wall_s = 0.0;
  std::vector<double> propagator_s;
  Layers layers;
};

/// One workload: inputs built by setup(), timed work in run(), output
/// checks of the last run() in check().
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void setup() = 0;
  virtual Unit run() = 0;
  virtual void check(OpTally& ops, std::vector<std::string>& notes) = 0;
  /// Workload outputs worth recording beside the metrics (masses, ...).
  virtual void details(std::vector<Metric>& /*out*/) const {}
  /// Set-ups before the first unit; setup_s is the median of all set-ups.
  /// A fixed count keeps the allocation history, and so peak RSS, the same
  /// from run to run.
  [[nodiscard]] virtual int setup_reps() const { return 3; }
  /// Lattice and process grid the layer models are priced on.
  [[nodiscard]] virtual Coord dims() const = 0;
  [[nodiscard]] virtual Coord grid() const { return {1, 1, 1, 1}; }
  [[nodiscard]] virtual const mg::MgParams* mg_params() const {
    return nullptr;
  }
};

// ---- spectrum / spectrum_mg -------------------------------------------

/// Hadron masses (or their errors) in lattice units.
struct Masses {
  double pion = 0.0;
  double rho = 0.0;
  double nucleon = 0.0;
};

/// The paper's pipeline: thermalize a quenched ensemble, pull configs,
/// solve the 12-column point-source propagator on each, contract
/// pion/rho/nucleon, take plateau masses and jackknife them.
class SpectrumWorkload final : public Workload {
 public:
  SpectrumWorkload(std::string name, std::uint64_t seed, int threads,
                   double kappa, SolverKind method, int configs,
                   const json::Value* reference)
      : name_(std::move(name)),
        seed_(seed),
        threads_(threads),
        kappa_(kappa),
        method_(method),
        nconfigs_(configs),
        reference_(reference) {}

  void setup() override {
    props_.clear();
    configs_.clear();
    gen_.reset();
    ctx_.reset();
    ctx_ = std::make_unique<Context>(kDims, seed_,
                                     static_cast<std::size_t>(threads_));
    gen_ = std::make_unique<EnsembleGenerator>(
        *ctx_, kEnsemble);
    const LatticeGeometry& geo = ctx_->geometry();
    for (int c = 0; c < nconfigs_; ++c) {
      props_.push_back(std::make_unique<Propagator>(geo));
      configs_.push_back(std::make_unique<GaugeFieldD>(geo));
    }
    converged_.assign(static_cast<std::size_t>(nconfigs_), false);
    pion_.assign(static_cast<std::size_t>(nconfigs_), {});
  }

  Unit run() override {
    Unit unit;
    Layers& L = unit.layers;
    const double t0 = now_s();
    double t = now_s();
    gen_->thermalize();
    L.heatbath_s += now_s() - t;
    L.sweeps += kEnsemble.thermalization_sweeps;

    std::vector<double> m_pi, m_rho, m_n;
    for (int c = 0; c < nconfigs_; ++c) {
      const auto ci = static_cast<std::size_t>(c);
      t = now_s();
      const GaugeFieldD& u = gen_->next_config();
      L.heatbath_s += now_s() - t;
      L.sweeps += kEnsemble.sweeps_between_configs;
      std::ranges::copy(u.span(), configs_[ci]->span().begin());

      PropagatorParams pp;
      pp.kappa = kappa_;
      pp.solver.tol = kTol;
      pp.method = method_;
      // compute_propagator builds its solver, then alternates
      // make_source and solve: the first callback marks the end of
      // solver setup, and the gaps between callbacks are solves.
      double t_call = 0.0;
      double t_mark = 0.0;
      bool first = true;
      const auto source = [&](FermionFieldD& b, int s0, int c0) {
        const double t_in = now_s();
        (first ? L.solver_setup_s : L.solver_solve_s) +=
            t_in - (first ? t_call : t_mark);
        first = false;
        make_point_source(b, kOrigin, s0, c0);
        t_mark = now_s();
        L.source_s += t_mark - t_in;
      };
      t_call = now_s();
      const PropagatorStats stats =
          compute_propagator(*props_[ci], *configs_[ci], pp, source);
      const double t_ret = now_s();
      L.solver_solve_s += t_ret - t_mark;
      unit.propagator_s.push_back(t_ret - t_call);
      L.iterations += stats.total_iterations;
      converged_[ci] = stats.converged;

      t = now_s();
      const Correlator cp = pion_correlator(*props_[ci], 0);
      const Correlator cr = rho_correlator(*props_[ci], 0);
      const Correlator cn = nucleon_correlator(*props_[ci], 0);
      L.contract_s += now_s() - t;

      t = now_s();
      std::vector<double> nabs(cn.c.size());
      for (std::size_t k = 0; k < nabs.size(); ++k)
        nabs[k] = std::abs(cn.c[k]);
      m_pi.push_back(plateau_mass(effective_mass_cosh(cp.c), kTMin, kTMax).mass);
      m_rho.push_back(
          plateau_mass(effective_mass_cosh(cr.c), kTMin, kTMax).mass);
      m_n.push_back(plateau_mass(effective_mass_log(nabs), kTMin, kTMax).mass);
      L.analysis_s += now_s() - t;
      pion_[ci] = cp.c;
    }
    t = now_s();
    const JackknifeResult jpi = jackknife_mean(m_pi);
    const JackknifeResult jrho = jackknife_mean(m_rho);
    const JackknifeResult jn = jackknife_mean(m_n);
    L.analysis_s += now_s() - t;
    masses_ = {jpi.value, jrho.value, jn.value};
    errors_ = {jpi.error, jrho.error, jn.error};
    unit.wall_s = now_s() - t0;
    return unit;
  }

  void check(OpTally& ops, std::vector<std::string>& notes) override {
    FermionFieldD b(ctx_->geometry());
    double worst = 0.0;
    for (int c = 0; c < nconfigs_; ++c) {
      const auto ci = static_cast<std::size_t>(c);
      ops.record(converged_[ci]);
      const WilsonOperator<double> m(*configs_[ci], kappa_);
      for (int s0 = 0; s0 < Ns; ++s0)
        for (int c0 = 0; c0 < Nc; ++c0) {
          make_point_source(b, kOrigin, s0, c0);
          const double rel = perfbench::true_residual(
              m, props_[ci]->column(s0, c0).span(), b.span());
          worst = std::max(worst, rel);
          ops.record(rel <= kResidualTol);
        }
      ops.record(pion_matches_direct_sum(*props_[ci], pion_[ci]));
    }
    worst_residual_ = worst;
    ops.record(masses_match(notes));
  }

  void details(std::vector<Metric>& out) const override {
    out.push_back({"m_pi", "1/a", masses_.pion, false});
    out.push_back({"m_pi_err", "1/a", errors_.pion, false});
    out.push_back({"m_rho", "1/a", masses_.rho, false});
    out.push_back({"m_rho_err", "1/a", errors_.rho, false});
    out.push_back({"m_N", "1/a", masses_.nucleon, false});
    out.push_back({"m_N_err", "1/a", errors_.nucleon, false});
    out.push_back({"worst_true_residual", "rel", worst_residual_, false});
  }

  // Set-up takes milliseconds here; more repetitions steady the median.
  [[nodiscard]] int setup_reps() const override { return 15; }
  [[nodiscard]] Coord dims() const override { return kDims; }

  [[nodiscard]] const mg::MgParams* mg_params() const override {
    return method_ == SolverKind::Mg ? &mg_defaults_ : nullptr;
  }

 private:
  static constexpr Coord kDims{8, 8, 8, 16};
  static constexpr int kTMin = 2;
  static constexpr int kTMax = kDims[3] / 2 - 1;

  /// The pion is sum_x |S(x)|^2 per timeslice: recomputed here without
  /// the library's contraction code.
  static bool pion_matches_direct_sum(const Propagator& s,
                                      const std::vector<double>& pion) {
    const LatticeGeometry& geo = s.geometry();
    std::vector<double> direct(static_cast<std::size_t>(geo.dim(3)), 0.0);
    for (int s0 = 0; s0 < Ns; ++s0)
      for (int c0 = 0; c0 < Nc; ++c0) {
        const FermionFieldD& col = s.column(s0, c0);
        for (std::int64_t i = 0; i < geo.volume(); ++i) {
          const int tt = geo.coords(i)[3];
          double acc = 0.0;
          for (int sp = 0; sp < Ns; ++sp)
            for (int cc = 0; cc < Nc; ++cc)
              acc += norm2(col[i].s[sp].c[cc]);
          direct[static_cast<std::size_t>(tt)] += acc;
        }
      }
    if (pion.size() != direct.size()) return false;
    for (std::size_t k = 0; k < direct.size(); ++k)
      if (!(std::abs(direct[k] - pion[k]) <= 1e-10 * std::abs(direct[k])))
        return false;
    return true;
  }

  bool masses_match(std::vector<std::string>& notes) const {
    const double got[] = {masses_.pion, masses_.rho, masses_.nucleon};
    for (const double m : got)
      if (!std::isfinite(m) || m <= 0.0) return false;
    const json::Value* ref = nullptr;
    if (reference_ != nullptr)
      if (const json::Value* w = reference_->find(name_))
        ref = w->find(std::to_string(seed_));
    if (ref == nullptr) {
      notes.push_back("no reference masses for seed " +
                      std::to_string(seed_) +
                      ": masses checked for finiteness only");
      return true;
    }
    const double want[] = {ref->at("m_pi").as_double(),
                           ref->at("m_rho").as_double(),
                           ref->at("m_N").as_double()};
    for (int k = 0; k < 3; ++k)
      if (!(std::abs(got[k] - want[k]) <= kObservableTol)) {
        notes.push_back("mass " + std::to_string(k) + " off reference: " +
                        std::to_string(got[k]) + " vs " +
                        std::to_string(want[k]));
        return false;
      }
    return true;
  }

  std::string name_;
  std::uint64_t seed_;
  int threads_;
  double kappa_;
  SolverKind method_;
  int nconfigs_;
  const json::Value* reference_;
  mg::MgParams mg_defaults_{};
  std::unique_ptr<Context> ctx_;
  std::unique_ptr<EnsembleGenerator> gen_;
  std::vector<std::unique_ptr<Propagator>> props_;
  std::vector<std::unique_ptr<GaugeFieldD>> configs_;
  std::vector<bool> converged_;
  std::vector<std::vector<double>> pion_;
  Masses masses_;
  Masses errors_;  ///< jackknife errors over the configs
  double worst_residual_ = 0.0;
};

// ---- campaign ----------------------------------------------------------

/// CampaignService::run over generated configs: block_cg K=4, 4 lanes,
/// point and wall sources, journal and result.json on disk.
class CampaignWorkload final : public Workload {
 public:
  CampaignWorkload(std::uint64_t seed, int threads,
                   std::filesystem::path work)
      : seed_(seed), threads_(threads), work_(std::move(work)) {}

  void setup() override {
    ThreadPool::set_global_threads(static_cast<std::size_t>(threads_));
    ++setups_;
    const std::filesystem::path out = work_ / ("run" + std::to_string(setups_));
    std::filesystem::remove_all(out);
    std::filesystem::create_directories(out);
    setup_layers_ = Layers{};
    const Context ctx(kDims, seed_);
    EnsembleGenerator gen(ctx, kEnsemble);
    serve::CampaignSpec spec;
    spec.name = "perfbench";
    for (int c = 0; c < kConfigs; ++c) {
      double t = now_s();
      const GaugeFieldD& u = gen.next_config();
      setup_layers_.heatbath_s += now_s() - t;
      setup_layers_.sweeps += (c == 0 ? kEnsemble.thermalization_sweeps : 0) +
                              kEnsemble.sweeps_between_configs;
      const std::string path =
          (work_ / ("config_" + std::to_string(c) + ".lqcd")).string();
      t = now_s();
      save_gauge(u, path, kBeta);
      setup_layers_.io_s += now_s() - t;
      spec.configs.push_back(path);
    }
    spec.kappas = {0.135, 0.145};
    spec.sources = {"point:0,0,0,0", "wall:0"};
    spec.solver = SolverKind::BlockCg;
    spec.tol = kTol;
    spec.block = 4;
    spec.ranks = 4;
    spec.output = out.string();
    spec_path_ = (out / "spec.json").string();
    json::Writer w;
    serve::write_campaign(w, spec);
    std::ofstream os(spec_path_);
    os << w.str() << "\n";
    LQCD_REQUIRE(static_cast<bool>(os), "cannot write " + spec_path_);
  }

  Unit run() override {
    Unit unit;
    const double t0 = now_s();
    spec_ = serve::load_campaign(spec_path_);
    serve::CampaignService service(spec_);
    const double t_run = now_s();
    outcome_ = service.run();
    const double t_end = now_s();
    unit.wall_s = t_end - t0;

    Layers& L = unit.layers;
    L = setup_layers_;  // the gauge layer's share is set-up work here
    L.serve_run_s = t_end - t_run;
    journal_ = service.journal_path();
    L.journal_bytes =
        static_cast<double>(std::filesystem::file_size(journal_));
    L.journal_frames = static_cast<double>(
        serve::CampaignService::status(journal_).frames);
    result_ = json::Value::parse(read_file(spec_.output + "/result.json"));
    const json::Value& results = result_.at("results");
    for (std::size_t i = 0; i < results.size(); ++i)
      L.iterations += results[i].get_or("iterations", 0.0);
    // The service exposes no per-task wall time without telemetry: each
    // task is charged the mean.
    const int tasks = std::max(1, outcome_.completed);
    unit.propagator_s.assign(static_cast<std::size_t>(tasks),
                             outcome_.seconds / tasks);
    return unit;
  }

  void check(OpTally& ops, std::vector<std::string>& notes) override {
    const int total = spec_.num_tasks();
    // Column solves: a failed attempt discards all 12 of its columns.
    const std::int64_t failed = outcome_.transient_failures * Ns * Nc;
    ops.merge({outcome_.completed * Ns * Nc + failed, failed});

    const serve::CampaignStatus st = serve::CampaignService::status(journal_);
    const bool status_ok = st.journal_found && st.total == total &&
                           st.done == total && st.in_flight == 0 &&
                           st.finished &&
                           st.fingerprint == serve::spec_fingerprint(spec_);
    if (!status_ok) notes.push_back("campaign status incomplete");
    ops.record(status_ok);

    const json::Value& results = result_.at("results");
    const bool result_ok =
        result_.get_or("schema", std::string()) == serve::kResultSchema &&
        result_.get_or("tasks_completed", 0) == total &&
        static_cast<int>(results.size()) == total;
    if (!result_ok) notes.push_back("result.json incomplete");
    ops.record(result_ok);

    // Spot check one task, chosen by the seed, on the scalar eo_cg
    // pipeline: its columns' true residuals, and its pion correlator
    // against the one the campaign journaled.
    const std::vector<serve::SolveTask> tasks = serve::build_tasks(spec_);
    const serve::SolveTask& task =
        tasks[static_cast<std::size_t>(seed_ % tasks.size())];
    const LatticeGeometry geo(kDims);
    GaugeFieldD u(geo);
    load_gauge(u, spec_.configs[static_cast<std::size_t>(task.config)]);
    const SourceSpec src =
        parse_source_spec(spec_.sources[static_cast<std::size_t>(task.source)]);
    const double kappa = spec_.kappas[static_cast<std::size_t>(task.kappa)];
    PropagatorParams pp;
    pp.kappa = kappa;
    pp.solver.tol = kTol;
    pp.method = SolverKind::EoCg;
    Propagator prop(geo);
    (void)compute_propagator(prop, u, pp, src);
    const WilsonOperator<double> m(u, kappa);
    FermionFieldD b(geo);
    for (int s0 = 0; s0 < Ns; ++s0)
      for (int c0 = 0; c0 < Nc; ++c0) {
        make_source(b, src, s0, c0, &u);
        const double rel = perfbench::true_residual(
            m, prop.column(s0, c0).span(), b.span());
        worst_residual_ = std::max(worst_residual_, rel);
        ops.record(rel <= kResidualTol);
      }
    const int t0 = src.kind == SourceKind::Point ? src.point[3] : src.t0;
    const Correlator mine = pion_correlator(prop, t0);
    bool pion_ok = false;
    for (std::size_t i = 0; i < results.size(); ++i) {
      const json::Value& r = results[i];
      if (r.get_or("task", -1) != task.id) continue;
      const json::Value& pion = r.at("pion");
      pion_ok = pion.size() == mine.c.size();
      for (std::size_t k = 0; pion_ok && k < mine.c.size(); ++k)
        pion_ok = std::abs(pion[k].as_double() - mine.c[k]) <=
                  kObservableTol * std::abs(mine.c[k]);
    }
    if (!pion_ok) notes.push_back("spot-check pion correlator mismatch");
    ops.record(pion_ok);
  }

  void details(std::vector<Metric>& out) const override {
    out.push_back({"tasks", "count", static_cast<double>(outcome_.total),
                   false});
    out.push_back({"spot_check_worst_true_residual", "rel", worst_residual_,
                   false});
  }

  [[nodiscard]] Coord dims() const override { return kDims; }

 private:
  static constexpr Coord kDims{8, 8, 8, 8};
  static constexpr int kConfigs = 3;

  std::uint64_t seed_;
  int threads_;
  std::filesystem::path work_;
  int setups_ = 0;
  Layers setup_layers_;
  std::string spec_path_;
  serve::CampaignSpec spec_;
  serve::CampaignOutcome outcome_;
  std::string journal_;
  json::Value result_;
  double worst_residual_ = 0.0;
};

// ---- dist_solve ----------------------------------------------------------

/// Forwards to an operator and accumulates the wall time of its applies.
class TimedOperator final : public LinearOperator<double> {
 public:
  TimedOperator(const LinearOperator<double>& op, double& seconds)
      : op_(&op), seconds_(&seconds) {}
  void apply(std::span<WilsonSpinorD> out,
             std::span<const WilsonSpinorD> in) const override {
    const double t = now_s();
    op_->apply(out, in);
    *seconds_ += now_s() - t;
  }
  [[nodiscard]] std::int64_t vector_size() const override {
    return op_->vector_size();
  }
  [[nodiscard]] double flops_per_apply() const override {
    return op_->flops_per_apply();
  }
  [[nodiscard]] bool hermitian_positive() const override {
    return op_->hermitian_positive();
  }

 private:
  const LinearOperator<double>* op_;
  double* seconds_;
};

/// The 12 columns of a point-source propagator solved by CG on the normal
/// system of the distributed Schur operator: 4 virtual ranks on the
/// in-process transport, split-phase overlap on, full-precision halos.
class DistSolveWorkload final : public Workload {
 public:
  DistSolveWorkload(std::uint64_t seed, int threads)
      : seed_(seed), threads_(threads) {}

  void setup() override {
    ThreadPool::set_global_threads(static_cast<std::size_t>(threads_));
    columns_.clear();
    u_.reset();
    geo_ = std::make_unique<LatticeGeometry>(kDims);
    u_ = std::make_unique<GaugeFieldD>(*geo_);
    u_->set_random(SiteRngFactory(seed_));
    Heatbath hb(*u_, HeatbathParams{.beta = kBeta, .seed = seed_ + 1});
    for (int i = 0; i < kSweeps; ++i) hb.sweep();
    grid_ = choose_grid(kDims, kRanks);
    const auto vol = static_cast<std::size_t>(geo_->volume());
    for (int k = 0; k < Ns * Nc; ++k)
      columns_.emplace_back(vol);
    converged_.assign(static_cast<std::size_t>(Ns * Nc), false);
  }

  Unit run() override {
    Unit unit;
    Layers& L = unit.layers;
    const double t0 = now_s();
    double t = now_s();
    DistributedSchurWilsonOperator<double> op(*u_, kKappa,
                                              ProcessGrid(grid_));
    const TimedOperator timed(op, L.comm_apply_s);
    const NormalOperator<double> normal(timed);
    const auto hv = static_cast<std::size_t>(geo_->half_volume());
    aligned_vector<WilsonSpinorD> bhat(hv), bhat2(hv), xo(hv), tmp(hv);
    FermionFieldD b(*geo_);
    L.solver_setup_s += now_s() - t;
    SolverParams params;
    params.tol = kTol;
    for (int s0 = 0; s0 < Ns; ++s0)
      for (int c0 = 0; c0 < Nc; ++c0) {
        t = now_s();
        make_point_source(b, kOrigin, s0, c0);
        L.source_s += now_s() - t;
        t = now_s();
        auto& x = columns_[static_cast<std::size_t>(s0 * Nc + c0)];
        op.prepare_rhs({bhat.data(), hv}, b.span());
        apply_dagger_g5<double>(timed, {bhat2.data(), hv},
                                {bhat.data(), hv}, {tmp.data(), hv});
        blas::zero(std::span<WilsonSpinorD>(xo.data(), hv));
        const SolverResult r = cg_solve<double>(
            normal, {xo.data(), hv},
            std::span<const WilsonSpinorD>(bhat2.data(), hv), params);
        op.reconstruct({x.data(), x.size()}, {xo.data(), hv}, b.span());
        L.solver_solve_s += now_s() - t;
        L.iterations += r.iterations;
        converged_[static_cast<std::size_t>(s0 * Nc + c0)] = r.converged;
      }
    unit.wall_s = now_s() - t0;
    unit.propagator_s = {unit.wall_s};
    L.overlap = op.overlap_stats();
    L.comm = op.cluster().stats();
    return unit;
  }

  void check(OpTally& ops, std::vector<std::string>& /*notes*/) override {
    const WilsonOperator<double> m(*u_, kKappa);
    FermionFieldD b(*geo_);
    for (int s0 = 0; s0 < Ns; ++s0)
      for (int c0 = 0; c0 < Nc; ++c0) {
        const auto k = static_cast<std::size_t>(s0 * Nc + c0);
        make_point_source(b, kOrigin, s0, c0);
        const double rel = perfbench::true_residual(
            m, {columns_[k].data(), columns_[k].size()}, b.span());
        worst_residual_ = std::max(worst_residual_, rel);
        ops.record(converged_[k] && rel <= kResidualTol);
      }
  }

  void details(std::vector<Metric>& out) const override {
    out.push_back({"worst_true_residual", "rel", worst_residual_, false});
  }

  [[nodiscard]] Coord dims() const override { return kDims; }
  [[nodiscard]] Coord grid() const override { return grid_; }

 private:
  static constexpr Coord kDims{8, 8, 8, 16};
  static constexpr int kRanks = 4;
  static constexpr int kSweeps = 20;
  static constexpr double kKappa = 0.140;

  std::uint64_t seed_;
  int threads_;
  std::unique_ptr<LatticeGeometry> geo_;
  std::unique_ptr<GaugeFieldD> u_;
  Coord grid_{1, 1, 1, 1};
  std::vector<aligned_vector<WilsonSpinorD>> columns_;
  std::vector<bool> converged_;
  double worst_residual_ = 0.0;
};

// ---- per-layer assembly ------------------------------------------------

/// Per-unit means of the traced units' layers, telemetry and models.
std::map<std::string, double> layer_values(
    const Workload& w, const Layers& L, const Telemetry& T, int n,
    double cpu_s, double wall_s, int threads, double overhead_frac,
    std::vector<Metric>& details) {
  const double inv = 1.0 / std::max(1, n);
  std::map<std::string, double> v;
  v["gauge.heatbath_s"] = L.heatbath_s * inv;
  v["gauge.sweeps"] = L.sweeps * inv;
  v["gauge.io_s"] = L.io_s * inv;

  // The campaign's solvers run inside the service: their time is the
  // solver spans, and their set-up is not separable from outside.
  const double span_solve = T.span("solver.block_cg") + T.span("solver.cg");
  const bool service = L.serve_run_s > 0.0;
  const double solve_s = service ? span_solve * inv : L.solver_solve_s * inv;
  v["solver.setup_s"] = L.solver_setup_s * inv;
  v["solver.solve_s"] = solve_s;
  v["solver.iterations"] = L.iterations * inv;
  v["solver.restarts"] = T.counter_sum("solver.", ".restarts") * inv;

  const double sites = T.counter("dslash.site_applies") * inv;
  v["dirac.site_applies"] = sites;
  v["dirac.gauge_site_loads"] = T.counter("dslash.gauge_site_loads") * inv;
  v["dirac.gflops"] =
      solve_s > 0.0 ? kDslashFlopsPerSite * sites / solve_s * 1e-9 : 0.0;

  // Models, calibrated on this machine's measured single-node dslash.
  const MachineModel machine = generic_cluster();
  PerfModelOptions opt;
  opt.calibration = calibrate_node(machine, 8);
  const Coord dims = w.dims();
  const double volume =
      static_cast<double>(dims[0]) * dims[1] * dims[2] * dims[3];
  const DslashCost full = model_dslash(dims, {1, 1, 1, 1}, machine, opt);
  v["dirac.model_s"] = full.t_total / volume * sites;
  details.push_back({"model.calibration", "ratio", opt.calibration, true});

  v["mg.setup_s"] = T.span("mg.setup") * inv;
  v["mg.vcycle_s"] = T.span("mg.vcycle") * inv;
  const double vcycles = T.counter("mg.vcycle.count") * inv;
  const double coarse_its = T.counter("mg.coarse.solve_iterations") * inv;
  v["mg.vcycles"] = vcycles;
  v["mg.coarse_iterations"] = coarse_its;
  v["mg.fine_applies"] = T.counter("mg.fine.applies") * inv;
  v["mg.coarse_applies"] = T.counter("mg.coarse.applies") * inv;
  v["mg.model_s"] = 0.0;
  if (const mg::MgParams* p = w.mg_params(); p != nullptr && vcycles > 0) {
    MgModelParams mp;
    mp.block = p->block;
    mp.nvec = p->nvec;
    mp.smoother_cycles = p->smoother.cycles;
    mp.smoother_mr_iters = p->smoother.block_mr_iterations;
    mp.coarse_iterations =
        std::max(1, static_cast<int>(std::lround(coarse_its / vcycles)));
    const MgIterationCost c =
        model_mg_vcycle(dims, {1, 1, 1, 1}, 1, machine, opt, mp);
    v["mg.model_s"] = c.t_vcycle * vcycles;
  }

  v["spectro.source_s"] = L.source_s * inv;
  v["spectro.contract_s"] = L.contract_s * inv;
  v["spectro.analysis_s"] = L.analysis_s * inv;

  const double serve_solve = T.span("serve.solve") * inv;
  const double serve_load = T.span("serve.config_load") * inv;
  v["serve.solve_s"] = serve_solve;
  v["serve.config_load_s"] = serve_load;
  v["serve.journal_bytes"] = L.journal_bytes * inv;
  v["serve.journal_frames"] = L.journal_frames * inv;
  v["serve.retries"] = T.counter("serve.task_retries") * inv;
  v["serve.overhead_s"] = service ? perfbench::serve_overhead_s(
                                        L.serve_run_s * inv, serve_solve,
                                        serve_load)
                                  : 0.0;

  const OverlapStats& ov = L.overlap;
  v["comm.apply_s"] = L.comm_apply_s * inv;
  v["comm.begin_s"] = ov.t_begin_s * inv;
  v["comm.interior_s"] = ov.t_interior_s * inv;
  v["comm.finish_s"] = ov.t_finish_s * inv;
  v["comm.surface_s"] = ov.t_surface_s * inv;
  v["comm.hidden_fraction"] = ov.hidden_fraction();
  v["comm.messages"] = static_cast<double>(L.comm.messages) * inv;
  v["comm.payload_bytes"] = static_cast<double>(L.comm.bytes) * inv;
  v["comm.wire_bytes"] = static_cast<double>(L.comm.wire_bytes) * inv;
  v["comm.retransmits"] = static_cast<double>(L.comm.retransmits) * inv;
  v["comm.model_s"] = 0.0;
  if (ov.applies > 0) {
    // Alpha-beta halo term of the cluster preset for the same local
    // volume and grid; each overlapped half-volume sweep exchanges the
    // full-spinor ghost planes once.
    const Coord grid = w.grid();
    Coord local{};
    for (int mu = 0; mu < Nd; ++mu) local[mu] = dims[mu] / grid[mu];
    PerfModelOptions copt = opt;
    copt.half_spinor_comm = false;
    const DslashCost c = model_dslash(local, grid, machine, copt);
    v["comm.model_s"] = c.t_comm * static_cast<double>(ov.applies) * inv;
  }

  v["parallel.cpu_util"] =
      wall_s > 0.0 ? cpu_s / (wall_s * threads) : 0.0;
  v["trace.overhead_frac"] = overhead_frac;
  return v;
}

// ---- provenance ----------------------------------------------------------

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    char brand[49] = {};
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &a, &b, &c, &d);
      std::memcpy(brand + 16 * i + 0, &a, 4);
      std::memcpy(brand + 16 * i + 4, &b, 4);
      std::memcpy(brand + 16 * i + 8, &c, 4);
      std::memcpy(brand + 16 * i + 12, &d, 4);
    }
    std::string s(brand);
    const auto first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
  }
#endif
  return "unknown";
}

std::vector<std::string> cache_sizes() {
  std::vector<std::string> out;
  const std::pair<const char*, int> levels[] = {
      {"L1d", _SC_LEVEL1_DCACHE_SIZE},
      {"L2", _SC_LEVEL2_CACHE_SIZE},
      {"L3", _SC_LEVEL3_CACHE_SIZE},
  };
  for (const auto& [name, key] : levels) {
    const long bytes = sysconf(key);
    if (bytes > 0) out.push_back(std::string(name) + " " +
                                 std::to_string(bytes / 1024) + " KiB");
  }
  return out;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

// ---- main -------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
  std::string reference;
  std::string result;
  std::string source_id = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    LQCD_REQUIRE(i + 1 < argc, "missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v != "0";
    else if (k == "--work-dir") a.work_dir = v;
    else if (k == "--reference") a.reference = v;
    else if (k == "--result") a.result = v;
    else if (k == "--source-id") a.source_id = v;
    else throw Error("unknown argument " + k);
  }
  LQCD_REQUIRE(a.seconds > 0.0, "--seconds must be positive");
  return a;
}

std::unique_ptr<Workload> make_workload(const Args& a, int threads,
                                        const json::Value* reference,
                                        const std::filesystem::path& work) {
  if (a.workload == "spectrum")
    return std::make_unique<SpectrumWorkload>(
        a.workload, a.seed, threads, 0.150, SolverKind::EoCg, 3, reference);
  if (a.workload == "spectrum_mg")
    return std::make_unique<SpectrumWorkload>(
        a.workload, a.seed, threads, 0.150, SolverKind::Mg, 2, reference);
  if (a.workload == "campaign")
    return std::make_unique<CampaignWorkload>(a.seed, threads, work);
  if (a.workload == "dist_solve")
    return std::make_unique<DistSolveWorkload>(a.seed, threads);
  throw Error("unknown workload '" + a.workload +
              "' (spectrum, spectrum_mg, campaign, dist_solve)");
}

int run(const Args& args) {
  telemetry::set_enabled(false);
  const int threads =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));

  json::Value reference;
  if (!args.reference.empty() && std::filesystem::exists(args.reference))
    reference = json::Value::parse(read_file(args.reference));
  const std::filesystem::path work =
      std::filesystem::path(args.work_dir) /
      (args.workload + "-" + std::to_string(getpid()));
  std::filesystem::remove_all(work);
  std::filesystem::create_directories(work);
  const std::unique_ptr<Workload> w =
      make_workload(args, threads, reference.is_object() ? &reference : nullptr,
                    work);

  perfbench::Result res;
  res.workload = args.workload;
  res.trace = args.trace;

  // Set-up samples: the first runs from process start.
  std::vector<double> setup_samples;
  for (double t = 0.0; static_cast<int>(setup_samples.size()) < w->setup_reps();
       t = now_s()) {
    w->setup();
    setup_samples.push_back(now_s() - t);
  }

  std::vector<double> traced_walls, untraced_walls, props, iters;
  Layers traced_layers;
  Telemetry traced_tel;
  double traced_cpu = 0.0;
  double traced_wall = 0.0;
  const double start = now_s();
  for (int k = 0;; ++k) {
    if (k > 0) {
      const double elapsed = now_s() - start;
      const double per_unit = elapsed / k;
      const bool need_pair = args.trace && traced_walls.empty();
      if (!need_pair && elapsed + per_unit > args.seconds) break;
      const double ts = now_s();
      w->setup();
      setup_samples.push_back(now_s() - ts);
    }
    const bool traced = args.trace && k % 2 == 1;
    if (traced) {
      telemetry::reset();
      telemetry::set_enabled(true);
    }
    const double cpu0 = cpu_seconds();
    Unit u = w->run();
    const double cpu = cpu_seconds() - cpu0;
    if (traced) {
      telemetry::set_enabled(false);
      traced_tel.merge(Telemetry::capture());
      traced_layers.merge(u.layers);
      traced_cpu += cpu;
      traced_wall += u.wall_s;
      traced_walls.push_back(u.wall_s);
    } else {
      untraced_walls.push_back(u.wall_s);
      iters.push_back(u.layers.iterations);
      props.insert(props.end(), u.propagator_s.begin(), u.propagator_s.end());
    }
    w->check(res.ops, res.notes);
    ++res.units;
  }
  res.traced_units = static_cast<int>(traced_walls.size());
  res.setup_samples = static_cast<int>(setup_samples.size());
  res.propagator_samples = static_cast<int>(props.size());
  res.correct = res.ops.failed == 0;
  std::sort(res.notes.begin(), res.notes.end());
  res.notes.erase(std::unique(res.notes.begin(), res.notes.end()),
                  res.notes.end());

  const double setup_s = perfbench::median(setup_samples);
  const double wall_s = perfbench::median(untraced_walls);
  const double prop_s = perfbench::median(props);
  const double rss = peak_rss_mb();
  const std::vector<Metric> e2e = {
      {"setup_s", "s", setup_s, false},
      {"wall_s", "s", wall_s, false},
      {"propagator_s", "s", prop_s, false},
      {"peak_rss_mb", "MB", rss, false},
  };
  if (args.trace) {
    const double overhead = perfbench::median(traced_walls) /
                                perfbench::median(untraced_walls) -
                            1.0;
    const std::map<std::string, double> v = layer_values(
        *w, traced_layers, traced_tel, res.traced_units, traced_cpu,
        traced_wall, threads, overhead, res.details);
    for (const perfbench::MetricSpec& m : perfbench::per_layer_metrics()) {
      const std::string name = m.name;
      const bool computed =
          name == "dirac.gflops" || name.ends_with("model_s");
      res.metrics.push_back({name, m.unit, v.at(name), computed});
    }
    res.details.insert(res.details.end(), e2e.begin(), e2e.end());
  } else {
    res.metrics = e2e;
  }
  res.details.push_back({"fail_frac", "frac", res.ops.fail_frac(), false});
  res.details.push_back({"solver.iterations_per_unit", "count",
                         perfbench::median(iters), false});
  w->details(res.details);

  perfbench::Provenance& p = res.provenance;
  p.source_id = args.source_id;
  p.build_type = PERFBENCH_BUILD_TYPE;
  p.compiler = compiler();
  p.march = PERFBENCH_MARCH;
  p.pool_threads = static_cast<int>(ThreadPool::global().size());
  p.nproc = static_cast<int>(std::thread::hardware_concurrency());
  p.cpu_model = cpu_model();
  p.caches = cache_sizes();
  p.seed = args.seed;

  std::filesystem::remove_all(work);
  const std::string doc = perfbench::result_json(res);
  if (!args.result.empty()) {
    std::ofstream os(args.result);
    os << doc << "\n";
  }
  std::printf("workload %s seed %llu trace %d: %d units (%d traced), "
              "%d set-ups, %d propagators, %lld/%lld operations failed\n",
              res.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
              res.units, res.traced_units, res.setup_samples,
              res.propagator_samples, static_cast<long long>(res.ops.failed),
              static_cast<long long>(res.ops.attempted));
  for (const Metric& m : res.metrics)
    std::printf("  %-24s %14.6g %s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.computed ? " (computed)" : "");
  for (const std::string& n : res.notes) std::printf("  note: %s\n", n.c_str());
  std::printf("%s\n", perfbench::summary_json(res).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
