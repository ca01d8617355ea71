// Self-tests of the benchmark's own bookkeeping: metric names, the result
// documents, failure accounting of the output check, and the campaign
// overhead subtraction.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "report.hpp"
#include "solver/factory.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace {

using perfbench::Metric;

TEST(PerfbenchMetrics, NamesAreValidAndUnique) {
  std::set<std::string> seen;
  for (const auto list :
       {perfbench::end_to_end_metrics(), perfbench::per_layer_metrics()})
    for (const perfbench::MetricSpec& m : list) {
      EXPECT_TRUE(perfbench::valid_metric_name(m.name)) << m.name;
      EXPECT_TRUE(seen.insert(m.name).second) << "duplicate " << m.name;
      EXPECT_FALSE(std::string(m.unit).empty()) << m.name;
    }
  EXPECT_EQ(seen.count("setup_s"), 1u);
  EXPECT_EQ(seen.count("trace.overhead_frac"), 1u);
  EXPECT_FALSE(perfbench::valid_metric_name(""));
  EXPECT_FALSE(perfbench::valid_metric_name("wall s"));
  EXPECT_FALSE(perfbench::valid_metric_name("comm/bytes"));
  EXPECT_FALSE(perfbench::valid_metric_name(std::string(65, 'a')));
}

TEST(PerfbenchReport, DocumentsRoundTripThroughJson) {
  perfbench::Result r;
  r.workload = "spectrum";
  r.ops.record(true);
  r.ops.record(true);
  r.ops.record(false);
  r.correct = false;
  r.units = 2;
  r.metrics = {{"setup_s", "s", 0.0123456789012345, false},
               {"dirac.gflops", "GF/s", 3.5, true}};
  r.notes = {"a \"quoted\" note"};
  r.provenance.cpu_model = "Test CPU";
  r.provenance.caches = {"L1d 48 KiB"};
  r.provenance.seed = 7;

  const lqcd::json::Value doc =
      lqcd::json::Value::parse(perfbench::result_json(r));
  EXPECT_EQ(doc.at("schema").as_string(), perfbench::kResultSchema);
  EXPECT_EQ(doc.at("workload").as_string(), "spectrum");
  EXPECT_EQ(doc.at("attempted").as_int(), 3);
  EXPECT_EQ(doc.at("failed").as_int(), 1);
  EXPECT_DOUBLE_EQ(doc.at("fail_frac").as_double(), 1.0 / 3.0);
  const lqcd::json::Value& m = doc.at("metrics");
  ASSERT_EQ(m.size(), 2u);
  EXPECT_EQ(m[0].at("value").as_double(), 0.0123456789012345);
  EXPECT_TRUE(m[1].at("computed").as_bool());
  EXPECT_EQ(doc.at("notes")[0].as_string(), "a \"quoted\" note");
  EXPECT_EQ(doc.at("provenance").at("seed").as_int(), 7);
  EXPECT_EQ(doc.at("provenance").at("caches")[0].as_string(), "L1d 48 KiB");

  const std::string line = perfbench::summary_json(r);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  const lqcd::json::Value sum = lqcd::json::Value::parse(line);
  ASSERT_EQ(sum.items().size(), 4u);
  EXPECT_FALSE(sum.at("correct").as_bool());
  EXPECT_EQ(sum.at("attempted").as_int(), 3);
  EXPECT_EQ(sum.at("failed").as_int(), 1);
  const lqcd::json::Value& setup = sum.at("metrics").at("setup_s");
  EXPECT_EQ(setup.at("value").as_double(), 0.0123456789012345);
  EXPECT_EQ(setup.at("unit").as_string(), "s");
}

TEST(PerfbenchCheck, PerturbedSolutionIsCountedAsFailed) {
  using namespace lqcd;
  const LatticeGeometry geo({4, 4, 4, 4});
  GaugeFieldD u(geo);
  u.set_random(SiteRngFactory(11));
  const double kappa = 0.12;
  SolverConfig cfg;
  cfg.kappa = kappa;
  cfg.base.tol = perfbench::kTol;
  const std::unique_ptr<FullSolver> solver =
      make_solver(u, SolverKind::EoCg, cfg);
  FermionFieldD b(geo), x(geo);
  b.set_zero();
  b[geo.cb_index({1, 2, 3, 0})].s[2].c[1] = Cplxd(1.0);
  x.set_zero();
  ASSERT_TRUE(solver->solve(x.span(), b.span()).converged);

  const WilsonOperator<double> m(u, kappa);
  perfbench::OpTally ops;
  ops.record(perfbench::true_residual(m, x.span(), b.span()) <=
             perfbench::kResidualTol);
  x[geo.cb_index({0, 0, 0, 1})].s[0].c[0] += Cplxd(1e-6);
  ops.record(perfbench::true_residual(m, x.span(), b.span()) <=
             perfbench::kResidualTol);
  EXPECT_EQ(ops.attempted, 2);
  EXPECT_EQ(ops.failed, 1);
  EXPECT_DOUBLE_EQ(ops.fail_frac(), 0.5);
}

TEST(PerfbenchServe, OverheadSubtractionNeverNegative) {
  EXPECT_NEAR(perfbench::serve_overhead_s(10.0, 8.0, 1.5), 0.5, 1e-12);
  EXPECT_EQ(perfbench::serve_overhead_s(10.0, 9.0, 1.5), 0.0);
  EXPECT_EQ(perfbench::serve_overhead_s(0.0, 0.0, 0.0), 0.0);
  lqcd::CounterRng rng(5, 0);
  for (int i = 0; i < 1000; ++i) {
    const double run = rng.uniform() * 20.0;
    const double solve = rng.uniform() * 20.0;
    const double load = rng.uniform() * 2.0;
    EXPECT_GE(perfbench::serve_overhead_s(run, solve, load), 0.0);
  }
}

}  // namespace
