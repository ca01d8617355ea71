// Experiment T8: chaos soak for the campaign service's failure envelope.
//
// S seeded mini-campaigns (1 config x 2 kappas x 2 sources over 2 lanes)
// each run under a randomized *composed* fault schedule drawn from a
// counter RNG: process kills at increasing epochs, permanent lane deaths,
// capped transient drops, whole-task straggles (speculation drills), torn
// garbage appended to the journal tail after a crash, and mid-campaign
// journal compaction. Every campaign is driven to a verdict through a
// kill/resume lives loop, and the soak asserts the service's whole
// robustness contract:
//
//   1. Completion: every surviving campaign journals exactly one
//      TaskDone per task, regardless of which lane (or replica) ran it,
//      and each payload is byte-identical to the fault-free reference
//      run's once its `attempt` field is set aside. A retry reruns the
//      same pipeline (see serve/service.hpp), so a task that survived
//      injected transient drops differs in that field alone.
//   2. No recompute: across every resume boundary, a task that was done
//      before the crash never gets another TaskRunning frame after it.
//   3. Clean failure: a campaign whose lanes all die raises FatalError,
//      and its journal still replays (status works, a resume re-raises
//      FatalError rather than corrupting state).
//   4. Compaction is invisible: `status` before == after, resumes skip.
//
// Drop budgets are capped below max_retries, so FatalError can only mean
// "every lane is dead" — any other escalation is an invariant failure.
// Torn-tail injection only ever *appends* garbage (the torn-write model:
// a crash can lose the frame being written, never an fsync'd prefix), so
// finished tasks are never silently un-finished.
//
// --quick runs 5 seeds on the default 4^4 lattice; --json <path> writes
// the machine-readable artifact (bench/BENCH_chaos.json is a reference).
// Exit code 1 when any invariant fails.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "comm/fault.hpp"
#include "gauge/io.hpp"
#include "serve/service.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/telemetry.hpp"
#include "util/timer.hpp"

namespace {

using namespace lqcd;

/// One seed's randomized composed fault schedule.
struct ChaosSchedule {
  std::vector<std::pair<int, std::uint64_t>> kills;  // one per life
  std::vector<std::pair<int, std::uint64_t>> lane_deaths;
  double drop_prob = 0.0;
  std::int64_t drop_budget = 0;
  int straggle_lane = -1;  // -1: no straggle fault
  bool torn_tail = false;  // append garbage after each crash
  bool compact_mid = false;  // compact the journal between lives
};

/// Draw a schedule from the soak's counter RNG. All-lanes-dead schedules
/// are drawn deliberately (~1 in 6) to exercise the FatalError path.
ChaosSchedule draw_schedule(std::uint64_t soak_seed, int campaign_seed,
                            int lanes) {
  CounterRng rng(soak_seed, static_cast<std::uint64_t>(campaign_seed));
  ChaosSchedule s;
  const int nkills = static_cast<int>(rng.next_u64() % 3);  // 0..2
  std::uint64_t epoch = 1 + rng.next_u64() % 3;
  for (int k = 0; k < nkills; ++k) {
    s.kills.emplace_back(static_cast<int>(rng.next_u64() %
                                          static_cast<std::uint64_t>(lanes)),
                         epoch);
    epoch += 2 + rng.next_u64() % 3;  // strictly increasing
  }
  const double death_roll = rng.uniform();
  if (death_roll < 1.0 / 6.0) {  // total-loss drill
    for (int l = 0; l < lanes; ++l)
      s.lane_deaths.emplace_back(l, rng.next_u64() % 4);
  } else if (death_roll < 0.55) {  // lose one lane, survive degraded
    s.lane_deaths.emplace_back(
        static_cast<int>(rng.next_u64() % static_cast<std::uint64_t>(lanes)),
        rng.next_u64() % 6);
  }
  if (rng.uniform() < 0.5) {
    s.drop_prob = 0.3;
    s.drop_budget = 1 + static_cast<std::int64_t>(rng.next_u64() % 3);
  }
  if (rng.uniform() < 0.4)
    s.straggle_lane = static_cast<int>(rng.next_u64() %
                                       static_cast<std::uint64_t>(lanes));
  s.torn_tail = rng.uniform() < 0.5;
  s.compact_mid = rng.uniform() < 0.4;
  return s;
}

/// Append garbage to the journal tail: a torn half-frame plus noise. Only
/// ever appends — the fsync'd prefix (finished tasks) must survive.
void tear_journal_tail(const std::string& path, std::uint64_t salt) {
  std::ofstream os(path, std::ios::binary | std::ios::app);
  CounterRng rng(salt, 0xdead);
  std::string junk = "LQJR";  // looks like a frame head, then lies
  const int n = 3 + static_cast<int>(rng.next_u64() % 16);
  for (int i = 0; i < n; ++i)
    junk.push_back(static_cast<char>(rng.next_u64() & 0xff));
  os.write(junk.data(), static_cast<std::streamsize>(junk.size()));
}

std::map<int, std::string> done_payloads(const std::string& journal) {
  std::map<int, std::string> out;
  for (const serve::Record& r : serve::replay_journal(journal).records)
    if (r.type == serve::RecordType::TaskDone) {
      const int id = json::Value::parse(r.payload).get_or("task", -1);
      if (!out.count(id)) out[id] = r.payload;  // first wins
    }
  return out;
}

/// A TaskDone payload with its `attempt` line cut out: the one field in
/// which a retried task's payload may differ from the reference's.
std::string without_attempt(std::string payload) {
  const std::size_t at = payload.find("\"attempt\":");
  if (at == std::string::npos) return payload;
  const std::size_t line = payload.rfind('\n', at) + 1;
  payload.erase(line, payload.find('\n', at) + 1 - line);
  return payload;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lqcd;
  Cli cli(argc, argv);
  const bool quick = cli.get_flag("quick");
  const int seeds = cli.get_int("seeds", quick ? 5 : 20);
  const int L = cli.get_int("L", 4);
  const int T = cli.get_int("T", 4);
  const double beta = cli.get_double("beta", 5.9);
  const std::uint64_t soak_seed =
      static_cast<std::uint64_t>(cli.get_long("seed", 1913));
  const std::string json_path = cli.get_string("json", "");
  cli.finish();

  telemetry::set_enabled(true);
  const std::string root = "bench_chaos_out";
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  const LatticeGeometry geo({L, L, L, T});
  const std::string cfg_path = root + "/config_0.lqcd";
  save_gauge(bench::thermalized(geo, beta, 83), cfg_path, beta);

  const auto make_spec = [&](const std::string& output) {
    serve::CampaignSpec spec;
    spec.name = "chaos";
    spec.configs = {cfg_path};
    spec.kappas = {0.110, 0.115};
    spec.sources = {"point:0,0,0,0", "wall:0"};
    spec.tol = 1e-7;
    spec.ranks = 2;
    spec.max_retries = 4;  // above every drop budget: only lane loss kills
    spec.output = output;
    return spec;
  };

  bench::rule("T8: chaos soak — fault-free reference");
  WallTimer ref_timer;
  serve::CampaignService reference(make_spec(root + "/reference"));
  const serve::CampaignOutcome ref_out = reference.run();
  const double clean_seconds = ref_timer.seconds();
  const std::map<int, std::string> ref_payloads =
      done_payloads(reference.journal_path());
  std::printf("reference: %d tasks in %.2fs\n", ref_out.total,
              clean_seconds);

  bench::rule("T8: chaos soak — seeded fault campaigns");
  int completed = 0, fatal = 0, invariant_failures = 0;
  int torn_journals = 0, compactions = 0;
  int speculative_tasks = 0, speculative_wins = 0;
  double faulted_seconds_sum = 0.0;
  constexpr int kMaxLives = 12;

  for (int seed = 0; seed < seeds; ++seed) {
    const ChaosSchedule sched =
        draw_schedule(soak_seed, seed, /*lanes=*/2);
    const std::string dir = root + "/seed_" + std::to_string(seed);
    const serve::CampaignSpec spec = make_spec(dir);
    const std::string journal = dir + "/journal.lqj";
    const auto fail = [&](const std::string& why) {
      ++invariant_failures;
      std::printf("seed %d: INVARIANT FAILED: %s\n", seed, why.c_str());
    };

    bool finished = false, saw_fatal = false;
    int lives = 0;
    std::size_t kills_used = 0;
    WallTimer seed_timer;
    while (!finished && !saw_fatal && lives < kMaxLives) {
      // No-recompute snapshot at this resume boundary.
      const std::map<int, std::string> done_before = done_payloads(journal);
      const std::size_t frames_before =
          serve::replay_journal(journal).records.size();

      FaultSpec base;
      base.drop_prob = sched.drop_prob;
      FaultInjector faults(soak_seed ^ static_cast<std::uint64_t>(seed),
                           base);
      if (sched.drop_prob > 0.0) faults.set_event_budget(sched.drop_budget);
      if (sched.straggle_lane >= 0) {
        FaultSpec straggly = base;
        straggly.task_straggle_prob = 0.6;
        straggly.task_straggle_mult = 8.0;
        faults.set_rank_spec(sched.straggle_lane, straggly);
        if (sched.drop_prob <= 0.0) faults.set_event_budget(3);
      }
      for (const auto& [lane, epoch] : sched.lane_deaths)
        faults.schedule_lane_death(lane, epoch);
      // One scheduled kill per life, in order: a fired kill must not
      // re-arm on resume (its epoch slot recurs once the task reruns).
      if (kills_used < sched.kills.size())
        faults.schedule_kill(sched.kills[kills_used].first,
                             sched.kills[kills_used].second);

      try {
        serve::CampaignService service(spec, {.faults = &faults});
        const serve::CampaignOutcome out = service.run();
        finished = true;
        speculative_tasks += out.speculative_tasks;
        speculative_wins += out.speculative_wins;
      } catch (const TransientError&) {
        ++kills_used;  // killed mid-campaign: resume in the next life
        if (sched.torn_tail) {
          tear_journal_tail(journal,
                            soak_seed ^ static_cast<std::uint64_t>(
                                seed * 977 + lives));
          ++torn_journals;
        }
        if (sched.compact_mid) {
          const serve::CampaignStatus before =
              serve::CampaignService::status(journal);
          (void)serve::compact_journal(journal);
          ++compactions;
          const serve::CampaignStatus after =
              serve::CampaignService::status(journal);
          if (after.done != before.done ||
              after.failed_attempts != before.failed_attempts ||
              after.in_flight != before.in_flight ||
              after.lanes_lost != before.lanes_lost ||
              after.tasks_reassigned != before.tasks_reassigned ||
              after.fingerprint != before.fingerprint)
            fail("compaction changed status");
        }
      } catch (const FatalError&) {
        saw_fatal = true;
      }
      ++lives;

      // No-recompute check: nothing done before this life may get a new
      // Running frame after it (compaction re-sequences, so compare
      // against the surviving frame count, which only shrinks).
      const auto records = serve::replay_journal(journal).records;
      const std::size_t boundary =
          std::min(frames_before, records.size());
      for (std::size_t i = boundary; i < records.size(); ++i)
        if (records[i].type == serve::RecordType::TaskRunning) {
          const int id =
              json::Value::parse(records[i].payload).get_or("task", -1);
          if (done_before.count(id))
            fail("task " + std::to_string(id) + " recomputed in life " +
                 std::to_string(lives));
        }
    }
    if (finished) {
      faulted_seconds_sum += seed_timer.seconds();  // completed runs only
      ++completed;
      const auto payloads = done_payloads(journal);
      for (const auto& [id, want] : ref_payloads) {
        const auto it = payloads.find(id);
        if (it == payloads.end())
          fail("task " + std::to_string(id) + " missing from results");
        else if (without_attempt(it->second) != without_attempt(want))
          fail("task " + std::to_string(id) +
               " payload not byte-identical to fault-free reference");
      }
      int done_frames = 0;
      std::set<int> distinct;
      for (const serve::Record& r : serve::replay_journal(journal).records)
        if (r.type == serve::RecordType::TaskDone) {
          ++done_frames;
          distinct.insert(json::Value::parse(r.payload).get_or("task", -1));
        }
      if (done_frames != static_cast<int>(distinct.size()) ||
          done_frames != ref_out.total)
        fail("duplicate or missing TaskDone frames");
    } else if (saw_fatal) {
      ++fatal;
      // A fatal campaign must have died loudly *and* cleanly: every lane
      // dead per the schedule, journal still replayable, resume re-fatal.
      if (sched.lane_deaths.size() < 2)
        fail("FatalError without an all-lanes-dead schedule");
      const serve::CampaignStatus st =
          serve::CampaignService::status(journal);
      if (!st.journal_found || st.finished)
        fail("fatal campaign journal does not replay");
      try {
        serve::CampaignService resumed(spec);
        (void)resumed.run();
        fail("resume after total lane loss did not re-raise FatalError");
      } catch (const FatalError&) {
        // expected: lane deaths are journaled, the loss is permanent
      }
    } else {
      fail("campaign did not reach a verdict in " +
           std::to_string(kMaxLives) + " lives");
    }
    std::printf("seed %2d: %s after %d lives (kills %zu/%zu, deaths %zu, "
                "drop %.1f, straggle lane %d%s%s)\n",
                seed, finished ? "completed" : "fatal", lives, kills_used,
                sched.kills.size(), sched.lane_deaths.size(),
                sched.drop_prob, sched.straggle_lane,
                sched.torn_tail ? ", torn tails" : "",
                sched.compact_mid ? ", compacted" : "");
  }

  const auto count = [](const char* name) {
    return telemetry::counter(name).value();
  };
  const double mean_faulted =
      completed > 0 ? faulted_seconds_sum / completed : 0.0;
  const double overhead =
      clean_seconds > 0.0 ? mean_faulted / clean_seconds : 0.0;
  const bool all_pass = invariant_failures == 0;

  bench::rule("T8: verdict");
  std::printf("%d seeds: %d completed, %d fatal (all-lanes-dead), "
              "%d invariant failures\n",
              seeds, completed, fatal, invariant_failures);
  std::printf("faults: kills=%lld lane_deaths=%lld reassigned=%lld "
              "speculative=%d wins=%d torn=%d compactions=%d\n",
              static_cast<long long>(count("serve.kills")),
              static_cast<long long>(count("serve.lane_deaths")),
              static_cast<long long>(count("serve.tasks_reassigned")),
              speculative_tasks, speculative_wins, torn_journals,
              compactions);
  std::printf("recovery overhead: mean faulted campaign %.2fs vs clean "
              "%.2fs (%.2fx)\n",
              mean_faulted, clean_seconds, overhead);
  std::printf("%s\n", all_pass ? "ALL INVARIANTS PASS"
                               : "INVARIANT FAILURES — see above");

  if (!json_path.empty()) {
    json::Writer w;
    w.begin_object()
        .field("schema", "lqcd.bench.chaos/1")
        .field("experiment", "lane-failure-chaos-soak");
    w.key("lattice").begin_array();
    for (const int d : {L, L, L, T}) w.value(d);
    w.end_array();
    w.field("seeds", seeds)
        .field("completed", completed)
        .field("fatal", fatal)
        .field("invariant_failures", invariant_failures)
        .field("all_invariants_pass", all_pass)
        .field("kills", count("serve.kills"))
        .field("lane_deaths", count("serve.lane_deaths"))
        .field("tasks_reassigned", count("serve.tasks_reassigned"))
        .field("speculative_tasks", speculative_tasks)
        .field("speculative_wins", speculative_wins)
        .field("torn_journals", torn_journals)
        .field("compactions", compactions)
        .field("clean_seconds", clean_seconds)
        .field("mean_faulted_seconds", mean_faulted)
        .field("recovery_overhead", overhead)
        .end_object();
    bench::write_json(json_path, w);
  }
  return all_pass ? 0 : 1;
}
