// Experiment T7: the propagator campaign service, end to end.
//
// A small spec (1 config x 2 kappas x 2 sources) is driven through
// CampaignService, reporting the serve.* telemetry counters (tasks,
// config loads, retries) from the same lqcd.telemetry/1 stream the
// service journals into result.json. Every task solves its 12 columns
// one at a time with eo_cg.
//
// --quick shrinks the lattice to 4^4 and loosens the tolerance;
// --json <path> writes the machine-readable artifact
// (bench/BENCH_serve.json holds a reference run).

#include <cstdio>
#include <filesystem>
#include <string>

#include "bench_common.hpp"
#include "gauge/io.hpp"
#include "serve/service.hpp"
#include "util/cli.hpp"
#include "util/telemetry.hpp"

int main(int argc, char** argv) {
  using namespace lqcd;
  Cli cli(argc, argv);
  const bool quick = cli.get_flag("quick");
  const int L = cli.get_int("L", quick ? 4 : 8);
  const int T = cli.get_int("T", quick ? 4 : 8);
  const double beta = cli.get_double("beta", 5.9);
  const double kappa = cli.get_double("kappa", quick ? 0.115 : 0.124);
  const double tol = cli.get_double("tol", quick ? 1e-7 : 1e-9);
  const std::string json_path = cli.get_string("json", "");
  cli.finish();

  telemetry::set_enabled(true);
  const LatticeGeometry geo({L, L, L, T});
  const GaugeFieldD u = bench::thermalized(geo, beta, 71);

  bench::rule("T7: campaign service end to end (serve.* telemetry)");
  std::printf("lattice %dx%dx%dx%d, beta=%.2f, kappa=%.4f, tol=%.0e\n", L,
              L, L, T, beta, kappa, tol);
  const std::string dir = "bench_serve_campaign";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string cfg_path = dir + "/config_0.lqcd";
  save_gauge(u, cfg_path, beta);

  serve::CampaignSpec spec;
  spec.name = "bench-serve";
  spec.configs = {cfg_path};
  spec.kappas = {kappa - 0.004, kappa};
  spec.sources = {"point:0,0,0,0", "wall:0"};
  spec.tol = tol;
  spec.ranks = 2;
  spec.output = dir;

  serve::CampaignService service(spec);
  const serve::CampaignOutcome outcome = service.run();
  const auto count = [](const char* name) {
    return telemetry::counter(name).value();
  };
  std::printf("campaign: %d tasks, %d completed, %.2fs "
              "(shard imbalance %.3f)\n",
              outcome.total, outcome.completed, outcome.seconds,
              service.plan().imbalance());
  std::printf("serve.tasks_done=%lld serve.config_loads=%lld "
              "serve.task_retries=%lld\n",
              static_cast<long long>(count("serve.tasks_done")),
              static_cast<long long>(count("serve.config_loads")),
              static_cast<long long>(count("serve.task_retries")));

  if (!json_path.empty()) {
    json::Writer w;
    w.begin_object()
        .field("schema", "lqcd.bench.serve/1")
        .field("experiment", "campaign-service-smoke")
        .field("telemetry_schema", telemetry::kSchema);
    w.key("lattice").begin_array();
    for (const int d : {L, L, L, T}) w.value(d);
    w.end_array();
    w.field("beta", beta).field("kappa", kappa).field("tol", tol);
    w.key("campaign")
        .begin_object()
        .field("tasks_total", outcome.total)
        .field("tasks_completed", outcome.completed)
        .field("seconds", outcome.seconds)
        .field("shard_imbalance", service.plan().imbalance())
        .field("serve_tasks_done", count("serve.tasks_done"))
        .field("serve_config_loads", count("serve.config_loads"))
        .field("serve_task_retries", count("serve.task_retries"))
        .field("serve_transient_failures",
               count("serve.transient_failures"))
        .end_object();
    w.end_object();
    bench::write_json(json_path, w);
  }
  return 0;
}
