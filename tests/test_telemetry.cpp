// Tests for lqcd::telemetry: counter atomicity, nested trace accounting,
// JSON report shape, run-to-run determinism of the counter section under
// the virtual cluster, agreement between the hot-path counters and the
// analytic performance model, and SPMD ranks' counter shares summing to
// the virtual run's counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "comm/dist_eo.hpp"
#include "comm/halo.hpp"
#include "comm/machine.hpp"
#include "comm/perf_model.hpp"
#include "comm/process_grid.hpp"
#include "comm/transport/rank_halo.hpp"
#include "comm/transport/transport.hpp"
#include "dirac/normal.hpp"
#include "gauge/heatbath.hpp"
#include "parallel/thread_pool.hpp"
#include "solver/cg.hpp"
#include "util/telemetry.hpp"

namespace lqcd {
namespace {

const LatticeGeometry& geo4() {
  static LatticeGeometry geo({4, 4, 4, 4});
  return geo;
}

const GaugeFieldD& gauge4() {
  static GaugeFieldD u = [] {
    GaugeFieldD v(geo4());
    v.set_random(SiteRngFactory(900));
    Heatbath hb(v, {.beta = 5.9, .or_per_hb = 1, .seed = 901});
    for (int i = 0; i < 3; ++i) hb.sweep();
    return v;
  }();
  return u;
}

void fill_random(std::span<WilsonSpinorD> f, std::uint64_t seed) {
  SiteRngFactory rngs(seed);
  for (std::size_t i = 0; i < f.size(); ++i) {
    CounterRng rng = rngs.make(i);
    for (int s = 0; s < Ns; ++s)
      for (int c = 0; c < Nc; ++c)
        f[i].s[s].c[c] = Cplxd(rng.gaussian(), rng.gaussian());
  }
}

TEST(TelemetryCounter, AtomicUnderParallelFor) {
  telemetry::set_enabled(true);
  telemetry::Counter& c = telemetry::counter("test.atomicity");
  c.reset();
  constexpr std::size_t kN = 100000;
  parallel_for(kN, [&](std::size_t) { c.add(1); });
  EXPECT_EQ(c.value(), static_cast<std::int64_t>(kN));
  parallel_for(kN, [&](std::size_t) { c.add(3); });
  EXPECT_EQ(c.value(), static_cast<std::int64_t>(4 * kN));
}

TEST(TelemetryCounter, DisabledIsNoop) {
  telemetry::set_enabled(true);
  telemetry::Counter& c = telemetry::counter("test.disabled");
  telemetry::Gauge& g = telemetry::gauge("test.disabled_gauge");
  c.reset();
  g.reset();
  telemetry::set_enabled(false);
  c.add(5);
  g.set(2.5);
  EXPECT_EQ(c.value(), 0);
  EXPECT_EQ(g.value(), 0.0);
  {
    telemetry::TraceRegion r("test.disabled_span");
  }
  telemetry::set_enabled(true);
  c.add(5);
  g.set(2.5);
  EXPECT_EQ(c.value(), 5);
  EXPECT_EQ(g.value(), 2.5);
  // The disabled span never entered the tree.
  const std::string rep = telemetry::report_json(false);
  EXPECT_EQ(rep.find("test.disabled_span"), std::string::npos);
}

TEST(TelemetryCounter, StableReferenceAcrossLookups) {
  telemetry::set_enabled(true);
  telemetry::Counter& a = telemetry::counter("test.stable");
  telemetry::Counter& b = telemetry::counter("test.stable");
  EXPECT_EQ(&a, &b);
}

TEST(TelemetryTrace, NestedAccounting) {
  telemetry::set_enabled(true);
  telemetry::reset();
  {
    telemetry::TraceRegion outer("t_outer");
    for (int i = 0; i < 3; ++i) {
      telemetry::TraceRegion inner("t_inner");
    }
  }
  {
    telemetry::TraceRegion outer("t_outer");
  }
  const std::string rep = telemetry::report_json(false);
  // t_outer entered twice, t_inner three times as its child.
  EXPECT_NE(rep.find("{\"name\": \"t_outer\", \"count\": 2, "
                     "\"children\": [\n"),
            std::string::npos)
      << rep;
  EXPECT_NE(rep.find("{\"name\": \"t_inner\", \"count\": 3}"),
            std::string::npos)
      << rep;
}

TEST(TelemetryTrace, SiblingRegionsStaySiblings) {
  telemetry::set_enabled(true);
  telemetry::reset();
  {
    telemetry::TraceRegion outer("t_a");
    { telemetry::TraceRegion x("t_b"); }
    { telemetry::TraceRegion y("t_c"); }
  }
  const std::string rep = telemetry::report_json(false);
  // t_b and t_c are both leaf children of t_a: each serializes with the
  // closed leaf form (no "children" key), and t_a holds both.
  EXPECT_NE(rep.find("{\"name\": \"t_a\", \"count\": 1, \"children\": [\n"),
            std::string::npos)
      << rep;
  EXPECT_NE(rep.find("{\"name\": \"t_b\", \"count\": 1}"),
            std::string::npos)
      << rep;
  EXPECT_NE(rep.find("{\"name\": \"t_c\", \"count\": 1}"),
            std::string::npos)
      << rep;
}

TEST(TelemetryReport, JsonGoldenShape) {
  telemetry::set_enabled(true);
  telemetry::reset();
  telemetry::counter("zz.golden.count").add(7);
  telemetry::gauge("zz.golden.gauge").set(1.5);
  {
    telemetry::TraceRegion r("zz_golden_span");
  }
  const std::string rep = telemetry::report_json(false);
  // Header and section skeleton are exact.
  EXPECT_EQ(rep.rfind("{\n  \"schema\": \"lqcd.telemetry/1\",\n", 0), 0)
      << rep;
  EXPECT_NE(rep.find("  \"counters\": {"), std::string::npos);
  EXPECT_NE(rep.find("  \"gauges\": {"), std::string::npos);
  EXPECT_NE(rep.find("  \"trace\": ["), std::string::npos);
  // Entries serialize with exact, stable formatting.
  EXPECT_NE(rep.find("\"zz.golden.count\": 7"), std::string::npos) << rep;
  EXPECT_NE(rep.find("\"zz.golden.gauge\": 1.5"), std::string::npos) << rep;
  EXPECT_NE(rep.find("{\"name\": \"zz_golden_span\", \"count\": 1}"),
            std::string::npos)
      << rep;
  // include_timings=false omits every wall-clock field.
  EXPECT_EQ(rep.find("\"seconds\""), std::string::npos) << rep;
  // include_timings=true adds them.
  const std::string timed = telemetry::report_json(true);
  EXPECT_NE(timed.find("\"seconds\""), std::string::npos) << timed;
}

TEST(TelemetryReport, ResetZeroesButKeepsReferences) {
  telemetry::set_enabled(true);
  telemetry::Counter& c = telemetry::counter("test.reset");
  c.add(9);
  telemetry::reset();
  EXPECT_EQ(c.value(), 0);
  c.add(2);
  EXPECT_EQ(telemetry::counter("test.reset").value(), 2);
}

// Two identical virtual-cluster solves must produce byte-identical
// counter/gauge/trace-count sections: every counted quantity (iterations,
// messages, bytes, applies) is deterministic under the functional
// cluster, and the serialization order is fixed.
TEST(TelemetryReport, DeterministicAcrossIdenticalRuns) {
  telemetry::set_enabled(true);
  const auto run = [] {
    telemetry::reset();
    DistributedWilsonOperator<double> dist(gauge4(), 0.12,
                                           ProcessGrid({2, 1, 1, 2}));
    NormalOperator<double> a(dist);
    FermionFieldD x(geo4()), b(geo4());
    fill_random(b.span(), 902);
    const SolverParams p{.tol = 1e-8, .max_iterations = 500};
    const SolverResult r = cg_solve<double>(a, x.span(), b.span(), p);
    EXPECT_TRUE(r.converged);
    return telemetry::report_json(false);
  };
  const std::string first = run();
  const std::string second = run();
  EXPECT_EQ(first, second);
  // And the report actually carries the hot-path counters.
  EXPECT_NE(first.find("\"comm.halo.bytes\""), std::string::npos);
  EXPECT_NE(first.find("\"dslash.site_applies\""), std::string::npos);
  EXPECT_NE(first.find("\"solver.cg.iterations\""), std::string::npos);
}

// The achieved-work counters must agree with the alpha-beta/roofline
// perf model they are diffed against in run reports. With a fully
// decomposed grid and full-spinor double-precision halos, the mapping is
// exact; we still assert the documented 1% tolerance.
TEST(TelemetryReport, CountersMatchPerfModel) {
  telemetry::set_enabled(true);
  const ProcessGrid pg({2, 2, 2, 2});
  DistributedWilsonOperator<double> dist(gauge4(), 0.12, pg);
  FermionFieldD in(geo4()), out(geo4());
  fill_random(in.span(), 903);

  telemetry::Counter& bytes = telemetry::counter("comm.halo.bytes");
  telemetry::Counter& sites = telemetry::counter("dslash.site_applies");
  const std::int64_t b0 = bytes.value();
  const std::int64_t s0 = sites.value();
  constexpr int kApplies = 3;
  for (int i = 0; i < kApplies; ++i) dist.apply(out.span(), in.span());

  PerfModelOptions opt;
  opt.precision_bytes = 8;       // virtual cluster ships doubles
  opt.half_spinor_comm = false;  // ...and full 24-real spinors
  const DslashCost model =
      model_dslash({2, 2, 2, 2}, {2, 2, 2, 2}, blue_gene_q(), opt);

  const double ranks = 16.0;
  const double measured_bytes_per_rank_per_apply =
      static_cast<double>(bytes.value() - b0) / (ranks * kApplies);
  EXPECT_NEAR(measured_bytes_per_rank_per_apply, model.comm_bytes,
              0.01 * model.comm_bytes);

  const double measured_flops =
      static_cast<double>(sites.value() - s0) * kDslashFlopsPerSite;
  const double model_flops = model.flops * ranks * kApplies;
  EXPECT_NEAR(measured_flops, model_flops, 0.01 * model_flops);
}

// Every SPMD rank books its own share of the halo and operator counters,
// and the collective counts (exchanges, applies) only on rank 0 — so the
// counters summed over the ranks of a multi-process run equal the
// 1-process virtual run's. Here the ranks are two threads over
// in-process groups, booking into this process's counters, against the
// virtual operators doing the same work: construction's gauge exchange,
// a blocking and a split exchange, an overlapped and a blocking Wilson
// apply, a Schur apply and a Schur prepare_rhs.
TEST(TelemetryReport, RankCountersSumToVirtualCounters) {
  telemetry::set_enabled(true);
  static constexpr const char* kNames[] = {
      "comm.halo.exchanges",
      "comm.halo.messages",
      "comm.halo.bytes",
      "comm.halo.wire_bytes",
      "comm.halo.wire_frames",
      "comm.halo.retransmits",
      "comm.halo.crc_failures",
      "comm.halo.timeouts",
      "comm.halo.checksum_bytes",
      "comm.halo.straggler_events",
      "comm.halo.full_equiv_bytes",
      "comm.halo.compressed_frames",
      "comm.halo.overlap.split_exchanges",
      "comm.halo.overlap.applies",
      "comm.halo.overlap.interior_sites",
      "comm.halo.overlap.surface_sites",
      "dslash.site_applies",
      "dslash.applies",
      "dslash.dist_schur_applies",
  };
  const auto delta = [](const auto& work) {
    std::map<std::string, std::int64_t> before;
    for (const char* n : kNames) before[n] = telemetry::counter(n).value();
    work();
    std::map<std::string, std::int64_t> d;
    for (const char* n : kNames)
      d[n] = telemetry::counter(n).value() - before[n];
    return d;
  };
  const ProcessGrid grid({1, 1, 1, 2});
  const double kappa = 0.12;
  const auto vol = static_cast<std::size_t>(geo4().volume());
  const auto hv = static_cast<std::size_t>(geo4().half_volume());
  FermionFieldD src(geo4());
  fill_random(src.span(), 904);
  FermionFieldD odd(geo4());  // the Schur input: odd block only
  std::copy(src.span().begin() + static_cast<long>(hv), src.span().end(),
            odd.span().begin() + static_cast<long>(hv));

  const auto virtual_counts = delta([&] {
    DistributedWilsonOperator<double> w(gauge4(), kappa, grid);
    VirtualCluster<double>& vc = w.cluster();
    auto f = vc.make_fermion();
    vc.scatter(f, src.span());
    vc.exchange(f);
    vc.exchange_begin(f);
    vc.exchange_finish(f);
    FermionFieldD out(geo4());
    w.apply(out.span(), src.span());
    w.set_overlap(false);
    w.apply(out.span(), src.span());
    DistributedSchurWilsonOperator<double> s(gauge4(), kappa, grid);
    std::vector<WilsonSpinorD> o(hv);
    s.apply(o, odd.span().subspan(hv));
    s.prepare_rhs(o, src.span());
  });

  const auto rank_counts = delta([&] {
    ThreadPool::set_global_threads(1);  // rank threads share no pool
    auto wilson_eps = transport::make_inprocess_group(grid.size());
    auto schur_eps = transport::make_inprocess_group(grid.size());
    std::vector<std::thread> ts;
    for (int r = 0; r < grid.size(); ++r)
      ts.emplace_back([&, r] {
        const auto k = static_cast<std::size_t>(r);
        RankWilsonOperator<double> w(gauge4(), kappa, grid, *wilson_eps[k]);
        const RankCluster<double>& cl = w.cluster();
        auto f = cl.make_fermion();
        cl.extract_local(f, src.span());
        cl.exchange(f);
        cl.exchange_begin(f);
        cl.exchange_finish(f);
        auto in = cl.make_fermion();
        auto out = cl.make_fermion();
        cl.extract_local(in, src.span());
        w.apply(out, in);
        w.set_overlap(false);
        w.apply(out, in);
        RankSchurWilsonOperator<double> s(gauge4(), kappa, grid,
                                          *schur_eps[k]);
        auto x = s.cluster().make_fermion();
        auto b = s.cluster().make_fermion();
        auto y = s.cluster().make_fermion();
        s.cluster().extract_local(x, odd.span());
        s.cluster().extract_local(b, src.span());
        s.apply(y, x);
        s.prepare_rhs(y, b);
      });
    for (std::thread& t : ts) t.join();
    ThreadPool::set_global_threads(0);
  });

  for (const char* n : kNames)
    EXPECT_EQ(rank_counts.at(n), virtual_counts.at(n)) << n;
  EXPECT_EQ(virtual_counts.at("comm.halo.exchanges"), 9);
  EXPECT_EQ(virtual_counts.at("dslash.site_applies"),
            2 * static_cast<std::int64_t>(vol) +
                static_cast<std::int64_t>(vol + hv));
}

}  // namespace
}  // namespace lqcd
