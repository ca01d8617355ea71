// lqcd_serve — the propagator campaign service, git-style verbs:
//
//   lqcd_serve submit --spec camp.json [--L 8 --T 8 --beta 5.9
//                      --configs 2 --kappas 0.120,0.126
//                      --sources "point:0,0,0,0;wall:0" --block 4
//                      --ranks 4 --output campaign_out]
//       Thermalize the requested gauge configurations, save them next to
//       the output directory, and write a validated campaign spec.
//
//   lqcd_serve run --spec camp.json [--kill-epoch N] [--kills "l:e,..."]
//                  [--lane-dead "l:e,..."] [--drop-prob P]
//                  [--straggle-prob P [--straggle-mult M]]
//       Execute (or resume) the campaign: every finished task in the
//       journal is skipped, the rest are solved and journaled. The fault
//       flags drive the deterministic injector for crash drills; lane
//       deaths exercise the degraded-mode recovery path (re-sharding
//       onto survivors), straggles the speculative re-execution path.
//
//   lqcd_serve status --spec camp.json   (or --journal path/journal.lqj)
//       Summarize the journal without touching gauge data.
//
//   lqcd_serve compact --spec camp.json  (or --journal path/journal.lqj)
//       Rewrite the journal without settled TaskRunning frames and
//       duplicate TaskDone frames; `status` output is unchanged.
//
// Exit code: 0 on success (status: also when no journal exists yet),
// 2 when a run was killed mid-campaign (rerun to resume), 1 on error.

#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "comm/fault.hpp"
#include "comm/transport/transport.hpp"
#include "core/api.hpp"
#include "gauge/io.hpp"
#include "serve/service.hpp"
#include "util/atomic_io.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/telemetry.hpp"

namespace {

using namespace lqcd;
using namespace lqcd::serve;

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t end = s.find(sep, start);
    if (end == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

int cmd_submit(Cli& cli) {
  const std::string spec_path = cli.get_string("spec", "campaign.json");
  const int L = cli.get_int("L", 8);
  const int T = cli.get_int("T", 8);
  const double beta = cli.get_double("beta", 5.9);
  const int nconfigs = cli.get_int("configs", 1);
  const std::string kappas = cli.get_string("kappas", "0.120,0.126");
  // ';' separates sources because the source-spec language uses ','
  // internally (point:X,Y,Z,T).
  const std::string sources =
      cli.get_string("sources", "point:0,0,0,0;wall:0");

  CampaignSpec spec;
  spec.name = cli.get_string("name", "campaign");
  spec.solver = parse_solver_kind(cli.get_string("solver", "block_cg"));
  spec.tol = cli.get_double("tol", 1e-9);
  spec.max_iterations = cli.get_int("max-iterations", 20000);
  spec.block = cli.get_int("block", 4);
  spec.ranks = cli.get_int("ranks", 4);
  spec.machine = cli.get_string("machine", "cluster");
  spec.max_retries = cli.get_int("max-retries", 2);
  spec.output = cli.get_string("output", "campaign_out");
  const std::uint64_t seed =
      static_cast<std::uint64_t>(cli.get_long("seed", 2013));
  const int therm = cli.get_int("therm-sweeps", 20);
  cli.finish();

  for (const std::string& k : kappas.empty()
                                  ? std::vector<std::string>{}
                                  : split(kappas, ','))
    spec.kappas.push_back(std::stod(k));
  for (const std::string& s : split(sources, ';'))
    if (!s.empty()) spec.sources.push_back(s);

  // Thermalize and persist the gauge ensemble the campaign will consume.
  std::filesystem::create_directories(spec.output);
  Context ctx({L, L, L, T}, seed);
  EnsembleGenerator gen(ctx, {.beta = beta,
                              .or_per_hb = 2,
                              .thermalization_sweeps = therm,
                              .sweeps_between_configs = 10});
  for (int c = 0; c < nconfigs; ++c) {
    const GaugeFieldD& u = gen.next_config();
    const std::string path =
        spec.output + "/config_" + std::to_string(c) + ".lqcd";
    save_gauge(u, path, beta);
    spec.configs.push_back(path);
    std::printf("config %d: plaquette = %.5f -> %s\n", c, gen.plaquette(),
                path.c_str());
  }

  // Round-trip through the parser so an invalid spec dies here.
  const std::string doc = canonical_json(spec);
  (void)parse_campaign(json::Value::parse(doc));
  atomic_write_file(spec_path,
                    [&](std::ostream& os) { os << doc << "\n"; });
  std::printf("submitted %s: %d tasks (fingerprint %08x)\n",
              spec_path.c_str(), spec.num_tasks(), spec_fingerprint(spec));
  return 0;
}

/// Parse a "lane:epoch[,lane:epoch...]" schedule string.
std::vector<std::pair<int, std::uint64_t>> parse_schedule(
    const std::string& s, const char* flag) {
  std::vector<std::pair<int, std::uint64_t>> out;
  if (s.empty()) return out;
  for (const std::string& item : split(s, ',')) {
    const std::size_t colon = item.find(':');
    LQCD_REQUIRE(colon != std::string::npos && colon > 0 &&
                     colon + 1 < item.size(),
                 std::string(flag) + ": expected lane:epoch, got '" + item +
                     "'");
    out.emplace_back(std::stoi(item.substr(0, colon)),
                     static_cast<std::uint64_t>(
                         std::stoull(item.substr(colon + 1))));
  }
  return out;
}

int cmd_run(Cli& cli) {
  const std::string spec_path = cli.get_string("spec", "campaign.json");
  const long kill_epoch = cli.get_long("kill-epoch", -1);
  const int kill_lane = cli.get_int("kill-lane", 0);
  const std::string kills = cli.get_string("kills", "");
  const std::string lane_dead = cli.get_string("lane-dead", "");
  const double drop_prob = cli.get_double("drop-prob", 0.0);
  const double straggle_prob = cli.get_double("straggle-prob", 0.0);
  const double straggle_mult = cli.get_double("straggle-mult", 8.0);
  const std::uint64_t fault_seed =
      static_cast<std::uint64_t>(cli.get_long("fault-seed", 7));
  cli.finish();

  const CampaignSpec spec = load_campaign(spec_path);

  // Under lqcd_launch (LQCD_TRANSPORT set) the same verb becomes one
  // SPMD rank of a multi-process campaign: rank 0 coordinates and owns
  // the journal, the other ranks are solver workers. The modeled fault
  // flags above drive in-process runs only; multi-process drills inject
  // real faults through the launcher (--kill-rank / --die-rank).
  if (std::getenv("LQCD_TRANSPORT") != nullptr) {
    const std::unique_ptr<transport::Transport> tp =
        transport::make_transport_from_env();
    if (tp->rank() == 0)
      std::printf("campaign %s: %d tasks over %d worker ranks (%s)\n",
                  spec.name.c_str(), spec.num_tasks(), tp->size() - 1,
                  to_string(tp->kind()));
    const CampaignOutcome out = run_distributed_campaign(spec, *tp);
    if (tp->rank() != 0) return out.finished ? 0 : 1;
    std::printf("done: %d completed, %d skipped (resume), %d transient "
                "retries, %.2fs\n",
                out.completed, out.skipped, out.transient_failures,
                out.seconds);
    if (out.degraded)
      std::printf("degraded: %d lanes lost, %d tasks reassigned\n",
                  out.lanes_lost, out.tasks_reassigned);
    std::printf("result: %s/result.json\n", spec.output.c_str());
    return 0;
  }

  FaultInjector faults(fault_seed, {.drop_prob = drop_prob,
                                    .task_straggle_prob = straggle_prob,
                                    .task_straggle_mult = straggle_mult});
  bool any_fault = drop_prob > 0.0 || straggle_prob > 0.0;
  if (kill_epoch >= 0) {
    faults.schedule_kill(kill_lane,
                         static_cast<std::uint64_t>(kill_epoch));
    any_fault = true;
  }
  for (const auto& [lane, epoch] : parse_schedule(kills, "--kills")) {
    faults.schedule_kill(lane, epoch);
    any_fault = true;
  }
  for (const auto& [lane, epoch] :
       parse_schedule(lane_dead, "--lane-dead")) {
    faults.schedule_lane_death(lane, epoch);
    any_fault = true;
  }

  ServiceOptions opts;
  if (any_fault) opts.faults = &faults;
  CampaignService service(spec, opts);
  std::printf("campaign %s: %d tasks over %d lanes (imbalance %.3f)\n",
              spec.name.c_str(), spec.num_tasks(), spec.ranks,
              service.plan().imbalance());
  try {
    const CampaignOutcome out = service.run();
    std::printf("done: %d completed, %d skipped (resume), %d transient "
                "retries, %.2fs\n",
                out.completed, out.skipped, out.transient_failures,
                out.seconds);
    if (out.degraded || out.speculative_tasks > 0)
      std::printf("degraded: %d lanes lost, %d tasks reassigned, "
                  "%d speculative (%d wins)\n",
                  out.lanes_lost, out.tasks_reassigned,
                  out.speculative_tasks, out.speculative_wins);
    std::printf("result: %s/result.json\n", spec.output.c_str());
  } catch (const TransientError& e) {
    std::printf("killed: %s\n", e.what());
    return 2;  // journal holds the finished prefix; rerun to resume
  }
  return 0;
}

int cmd_status(Cli& cli) {
  std::string journal = cli.get_string("journal", "");
  const std::string spec_path = cli.get_string("spec", "");
  cli.finish();
  if (journal.empty()) {
    LQCD_REQUIRE(!spec_path.empty(),
                 "status needs --journal or --spec");
    journal = load_campaign(spec_path).output + "/journal.lqj";
  }
  const CampaignStatus st = CampaignService::status(journal);
  if (!st.journal_found) {
    std::printf("%s: no journal (campaign not started)\n",
                journal.c_str());
    return 0;
  }
  std::printf("%s: %llu frames, fingerprint %08x\n", journal.c_str(),
              static_cast<unsigned long long>(st.frames), st.fingerprint);
  std::printf("  tasks: %d/%d done, %d failed attempts, %d in flight\n",
              st.done, st.total, st.failed_attempts, st.in_flight);
  if (st.lanes_lost > 0 || st.tasks_reassigned > 0 ||
      st.speculative_tasks > 0)
    std::printf("  recovery: %d lanes lost, %d tasks reassigned, "
                "%d speculative\n",
                st.lanes_lost, st.tasks_reassigned, st.speculative_tasks);
  if (st.truncated_bytes > 0)
    std::printf("  torn tail: %llu bytes dropped\n",
                static_cast<unsigned long long>(st.truncated_bytes));
  std::printf("  %s\n", st.finished ? "finished" : "in progress");
  return 0;
}

int cmd_compact(Cli& cli) {
  std::string journal = cli.get_string("journal", "");
  const std::string spec_path = cli.get_string("spec", "");
  cli.finish();
  if (journal.empty()) {
    LQCD_REQUIRE(!spec_path.empty(),
                 "compact needs --journal or --spec");
    journal = load_campaign(spec_path).output + "/journal.lqj";
  }
  const CompactionStats st = compact_journal(journal);
  std::printf("%s: %llu -> %llu frames, %llu -> %llu bytes\n",
              journal.c_str(),
              static_cast<unsigned long long>(st.frames_before),
              static_cast<unsigned long long>(st.frames_after),
              static_cast<unsigned long long>(st.bytes_before),
              static_cast<unsigned long long>(st.bytes_after));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Cli cli(argc, argv, {"run", "submit", "status", "compact"});
    if (cli.command() == "submit") return cmd_submit(cli);
    if (cli.command() == "run") return cmd_run(cli);
    if (cli.command() == "compact") return cmd_compact(cli);
    return cmd_status(cli);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lqcd_serve: %s\n", e.what());
    return 1;
  }
}
