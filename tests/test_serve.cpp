// Tests for the campaign service: spec validation and fingerprinting, the
// CRC-framed journal (replay, torn tails, corruption), deterministic
// sharding, the headline contract — a killed campaign resumes without
// recomputing any finished task, journaling byte-identical results — and
// the one coordinator journaling the same decisions over in-process and
// rank-thread workers.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "comm/fault.hpp"
#include "comm/transport/transport.hpp"
#include "gauge/heatbath.hpp"
#include "gauge/io.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/service.hpp"
#include "util/rng.hpp"
#include "util/telemetry.hpp"

namespace lqcd::serve {
namespace {

namespace fs = std::filesystem;

/// Per-process scratch root: ctest runs each discovered test as its own
/// process in a shared working directory, so paths must not collide
/// across concurrently running tests. Cleaned up at process exit.
const std::string& scratch_root() {
  static const std::string root =
      "serve_test_scratch." + std::to_string(::getpid());
  return root;
}

class ScratchCleanup : public ::testing::Environment {
 public:
  void TearDown() override {
    std::error_code ec;  // best effort; never fail the suite on cleanup
    fs::remove_all(scratch_root(), ec);
  }
};
const auto* const scratch_cleanup =
    ::testing::AddGlobalTestEnvironment(new ScratchCleanup);

std::string scratch(const std::string& name) {
  const std::string dir = scratch_root() + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// One small thermalized 4^4 config on disk, shared by every campaign in
/// this binary (the path is part of the TaskDone payloads, so sharing it
/// keeps cross-campaign payload comparisons meaningful).
const std::string& shared_config() {
  static const std::string path = [] {
    const std::string dir = scratch("gauge");
    const LatticeGeometry geo({4, 4, 4, 4});
    GaugeFieldD u(geo);
    u.set_random(SiteRngFactory(410));
    Heatbath hb(u, {.beta = 5.9, .or_per_hb = 1, .seed = 411});
    for (int i = 0; i < 6; ++i) hb.sweep();
    const std::string p = dir + "/config_0.lqcd";
    save_gauge(u, p, 5.9);
    return p;
  }();
  return path;
}

/// 1 config x 2 kappas x 2 sources = 4 cheap tasks over 2 lanes.
CampaignSpec small_spec(const std::string& output) {
  CampaignSpec spec;
  spec.name = "test-campaign";
  spec.configs = {shared_config()};
  spec.kappas = {0.110, 0.115};
  spec.sources = {"point:0,0,0,0", "wall:0"};
  spec.tol = 1e-7;
  spec.ranks = 2;
  spec.output = output;
  return spec;
}

std::map<int, std::string> done_payloads(const std::string& journal) {
  std::map<int, std::string> out;
  for (const Record& r : replay_journal(journal).records)
    if (r.type == RecordType::TaskDone) {
      const int id = json::Value::parse(r.payload).get_or("task", -1);
      EXPECT_EQ(out.count(id), 0u) << "task " << id << " journaled twice";
      out[id] = r.payload;
    }
  return out;
}

/// A TaskDone payload with its `attempt` line cut out: the one field in
/// which a retried task's payload may differ from a first attempt's.
std::string without_attempt(std::string payload) {
  const std::size_t at = payload.find("\"attempt\":");
  if (at == std::string::npos) return payload;
  const std::size_t line = payload.rfind('\n', at) + 1;
  payload.erase(line, payload.find('\n', at) + 1 - line);
  return payload;
}

TEST(CampaignSpec, CanonicalRoundTripAndFingerprint) {
  const CampaignSpec spec = small_spec("unused");
  const std::string doc = canonical_json(spec);
  const CampaignSpec back = parse_campaign(json::Value::parse(doc));
  EXPECT_EQ(canonical_json(back), doc);  // parse . print = identity
  EXPECT_EQ(spec_fingerprint(back), spec_fingerprint(spec));

  CampaignSpec other = spec;
  other.kappas[0] = 0.111;  // any field change moves the fingerprint
  EXPECT_NE(spec_fingerprint(other), spec_fingerprint(spec));
}

TEST(CampaignSpec, RejectsMalformedDocuments) {
  const auto parse = [](const std::string& body) {
    return parse_campaign(json::Value::parse(body));
  };
  EXPECT_THROW(parse(R"({"schema": "wrong/1"})"), Error);
  const std::string head = R"("schema": "lqcd.campaign/1")";
  EXPECT_THROW(parse("{" + head + R"(, "configs": []})"), Error);
  EXPECT_THROW(
      parse("{" + head +
            R"(, "configs": ["c"], "kappas": [0.3], "sources": ["wall:0"]})"),
      Error);  // kappa outside (0, 0.25)
  EXPECT_THROW(
      parse("{" + head +
            R"(, "configs": ["c"], "kappas": [0.12], "sources": ["blob:1"]})"),
      Error);  // unknown source kind
  EXPECT_THROW(
      parse("{" + head + R"(, "configs": ["c"], "kappas": [0.12],
             "sources": ["wall:0"], "solver": {"kind": "warp"}})"),
      Error);  // unknown solver kind
  EXPECT_THROW(
      parse("{" + head + R"(, "configs": ["c"], "kappas": [0.12],
             "sources": ["wall:0"], "schedule": {"machine": "cray"}})"),
      Error);  // unknown machine preset
  EXPECT_THROW(
      parse("{" + head + R"(, "configs": ["c"], "kappas": [0.12],
             "sources": ["wall:0"], "solver": {"kind": "block_cg"}})"),
      Error);  // the retired multi-RHS kind
  // Integers are rejected, never wrapped or truncated.
  const std::string body =
      "{" + head +
      R"(, "configs": ["c"], "kappas": [0.12], "sources": ["wall:0"], )";
  EXPECT_THROW(parse(body + R"("schedule": {"ranks": 4294967297}})"),
               Error);  // 2^32 + 1 would wrap to 1 lane
  EXPECT_THROW(
      parse(body + R"("solver": {"max_iterations": 4294967301}})"),
      Error);  // would wrap to 5
  EXPECT_THROW(parse(body + R"("schedule": {"ranks": 2.9}})"),
               Error);  // would truncate to 2
  EXPECT_THROW(parse(body + R"("schedule": {"ranks": 1e300}})"),
               Error);  // no int64 holds it
}

TEST(CampaignSpec, BuildsConfigMajorTaskList) {
  CampaignSpec spec = small_spec("unused");
  spec.configs = {shared_config(), shared_config()};
  const std::vector<SolveTask> tasks = build_tasks(spec);
  ASSERT_EQ(tasks.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(tasks[std::size_t(i)].id, i);  // ids dense, in order
    EXPECT_EQ(tasks[std::size_t(i)].config, i / 4);
    EXPECT_EQ(tasks[std::size_t(i)].kappa, (i / 2) % 2);
    EXPECT_EQ(tasks[std::size_t(i)].source, i % 2);
  }
}

TEST(Journal, AppendReplayRoundTrip) {
  const std::string dir = scratch("journal_roundtrip");
  const std::string path = dir + "/j.lqj";
  Journal j;
  j.open(path);
  j.append(RecordType::CampaignBegin, R"({"tasks": 2})");
  j.append(RecordType::TaskRunning, R"({"task": 0})");
  j.append(RecordType::TaskDone, R"({"task": 0, "iterations": 7})");
  const ReplayResult r = replay_journal(path);
  ASSERT_EQ(r.records.size(), 3u);
  EXPECT_EQ(r.truncated_bytes, 0u);
  EXPECT_EQ(r.records[0].type, RecordType::CampaignBegin);
  EXPECT_EQ(r.records[2].payload, R"({"task": 0, "iterations": 7})");
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(r.records[i].seq, i);
}

TEST(Journal, TornTailIsDroppedAndOverwritten) {
  const std::string dir = scratch("journal_torn");
  const std::string path = dir + "/j.lqj";
  {
    Journal j;
    j.open(path);
    j.append(RecordType::CampaignBegin, "{}");
    j.append(RecordType::TaskRunning, R"({"task": 0})");
  }
  // Simulate a crash mid-append: a partial frame at the tail.
  {
    std::ofstream os(path, std::ios::binary | std::ios::app);
    os.write("LQJR\x02\x00\x00", 7);
  }
  Journal j;
  const ReplayResult r = j.open(path);
  ASSERT_EQ(r.records.size(), 2u);
  EXPECT_EQ(r.truncated_bytes, 7u);
  // open() truncated the tail; the next append lands on a clean boundary.
  j.append(RecordType::TaskDone, R"({"task": 0})");
  const ReplayResult r2 = replay_journal(path);
  ASSERT_EQ(r2.records.size(), 3u);
  EXPECT_EQ(r2.truncated_bytes, 0u);
  EXPECT_EQ(r2.records[2].seq, 2u);
}

TEST(Journal, CorruptFrameStopsReplayAtLastGoodPrefix) {
  const std::string dir = scratch("journal_corrupt");
  const std::string path = dir + "/j.lqj";
  {
    Journal j;
    j.open(path);
    j.append(RecordType::CampaignBegin, "{}");
    j.append(RecordType::TaskDone, R"({"task": 0})");
    j.append(RecordType::TaskDone, R"({"task": 1})");
  }
  const ReplayResult before = replay_journal(path);
  ASSERT_EQ(before.records.size(), 3u);
  // Flip one payload bit inside the second frame.
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(before.valid_bytes) / 2);
    char c = 0;
    f.read(&c, 1);
    f.seekp(-1, std::ios::cur);
    c = static_cast<char>(c ^ 0x01);
    f.write(&c, 1);
  }
  const ReplayResult after = replay_journal(path);
  EXPECT_LT(after.records.size(), 3u);  // CRC caught the flip
  EXPECT_GT(after.truncated_bytes, 0u);
}

TEST(Scheduler, DeterministicCoveringShard) {
  CampaignSpec spec = small_spec("unused");
  spec.ranks = 3;
  const std::vector<SolveTask> tasks = build_tasks(spec);
  const LatticeGeometry geo({4, 4, 4, 4});
  const MachineModel machine = machine_by_name(spec.machine);
  const ShardPlan a = shard_tasks(spec, tasks, geo, machine);
  const ShardPlan b = shard_tasks(spec, tasks, geo, machine);
  EXPECT_EQ(a.lane_of, b.lane_of);  // pure function of the spec
  EXPECT_EQ(a.lanes, b.lanes);

  // Every task lands on exactly one lane, consistently with lane_of.
  std::set<int> seen;
  for (std::size_t l = 0; l < a.lanes.size(); ++l)
    for (const int id : a.lanes[l]) {
      EXPECT_TRUE(seen.insert(id).second);
      EXPECT_EQ(a.lane_of[std::size_t(id)], static_cast<int>(l));
    }
  EXPECT_EQ(seen.size(), tasks.size());
  EXPECT_GE(a.imbalance(), 1.0);

  // Within a lane: config-major execution order.
  for (const auto& lane : a.lanes)
    for (std::size_t i = 1; i < lane.size(); ++i) {
      const SolveTask& prev = tasks[std::size_t(lane[i - 1])];
      const SolveTask& cur = tasks[std::size_t(lane[i])];
      EXPECT_LE(prev.config, cur.config);
    }
}

TEST(CampaignService, RunsCampaignAndWritesResult) {
  const std::string dir = scratch("run");
  CampaignService service(small_spec(dir));
  const CampaignOutcome out = service.run();
  EXPECT_TRUE(out.finished);
  EXPECT_EQ(out.total, 4);
  EXPECT_EQ(out.completed, 4);
  EXPECT_EQ(out.skipped, 0);
  EXPECT_EQ(done_payloads(service.journal_path()).size(), 4u);

  // result.json is valid JSON carrying results + telemetry.
  std::ifstream is(dir + "/result.json");
  ASSERT_TRUE(is.good());
  std::string text((std::istreambuf_iterator<char>(is)),
                   std::istreambuf_iterator<char>());
  const json::Value doc = json::Value::parse(text);
  EXPECT_EQ(doc.at("schema").as_string(), "lqcd.campaign.result/1");
  EXPECT_EQ(doc.at("results").size(), 4u);
  EXPECT_EQ(doc.at("telemetry").at("schema").as_string(),
            "lqcd.telemetry/1");

  // Re-running a finished campaign recomputes nothing.
  CampaignService again(small_spec(dir));
  const CampaignOutcome out2 = again.run();
  EXPECT_EQ(out2.completed, 0);
  EXPECT_EQ(out2.skipped, 4);
}

/// run_distributed_campaign on one thread per rank of an in-process
/// group; every rank's outcome, rank 0's first.
std::vector<CampaignOutcome> run_on_rank_threads(const CampaignSpec& spec,
                                                 int nranks) {
  auto eps = transport::make_inprocess_group(nranks);
  const auto n = static_cast<std::size_t>(nranks);
  std::vector<CampaignOutcome> outs(n);
  std::vector<std::exception_ptr> errs(n);
  std::vector<std::thread> ranks;
  for (std::size_t r = 0; r < n; ++r)
    ranks.emplace_back([&, r] {
      try {
        outs[r] = run_distributed_campaign(spec, *eps[r]);
      } catch (...) {
        errs[r] = std::current_exception();
      }
    });
  for (std::thread& t : ranks) t.join();
  for (const std::exception_ptr& e : errs)
    if (e) std::rethrow_exception(e);
  return outs;
}

// One coordinator, two entry points: a 1-worker distributed campaign
// over a 2-rank in-process group (one thread per rank) journals the same
// (type, payload) records, in the same order, as CampaignService::run
// running the same spec on one lane.
TEST(DistributedCampaign, JournalReplaysLikeVirtualService) {
  const std::string dir = scratch("dist");
  CampaignSpec spec = small_spec(dir);
  spec.ranks = 1;
  CampaignService service(spec);
  ASSERT_TRUE(service.run().finished);
  const std::vector<Record> want =
      replay_journal(service.journal_path()).records;
  // Same output directory (it is part of the spec fingerprint the
  // CampaignBegin frame carries), fresh journal.
  fs::remove(service.journal_path());
  fs::remove(dir + "/result.json");

  const std::vector<CampaignOutcome> outs = run_on_rank_threads(spec, 2);
  EXPECT_TRUE(outs[0].finished);
  EXPECT_EQ(outs[0].completed, 4);

  const std::vector<Record> got =
      replay_journal(service.journal_path()).records;
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].type, want[i].type) << "record " << i;
    EXPECT_EQ(got[i].payload, want[i].payload) << "record " << i;
  }
}

/// Pins the fork-join pool to one worker for the scope: rank threads
/// sharing the process-wide pool would race run_chunks.
struct SerialPool {
  SerialPool() { ThreadPool::set_global_threads(1); }
  ~SerialPool() { ThreadPool::set_global_threads(0); }
  SerialPool(const SerialPool&) = delete;
  SerialPool& operator=(const SerialPool&) = delete;
};

// A campaign started in-process resumes on rank-thread workers: the
// journaled speculative replica replays as a replica, not as a move off
// a dead lane, and every task still journals exactly one TaskDone.
TEST(DistributedCampaign, ResumeReplaysSpeculativeReplicaAsReplica) {
  const SerialPool serial;
  const std::string dir = scratch("cross_mode");
  // Lane 0 straggles on its first task at epoch 0 (replicated onto lane
  // 1); lane 1 is killed at epoch 3, its second dispatch.
  FaultInjector faults(37);
  FaultSpec straggly;
  straggly.task_straggle_prob = 1.0;
  straggly.task_straggle_mult = 8.0;
  faults.set_rank_spec(0, straggly);
  faults.set_event_budget(1);
  faults.schedule_kill(/*rank=*/1, /*epoch=*/3);
  CampaignService service(small_spec(dir), {.faults = &faults});
  EXPECT_THROW(service.run(), TransientError);
  const CampaignStatus mid = CampaignService::status(service.journal_path());
  ASSERT_EQ(mid.speculative_tasks, 1);
  ASSERT_LT(mid.done, 4);

  const CampaignOutcome out = run_on_rank_threads(small_spec(dir), 3)[0];
  EXPECT_TRUE(out.finished);
  EXPECT_EQ(out.tasks_reassigned, 0);
  EXPECT_EQ(out.lanes_lost, 0);
  EXPECT_EQ(out.skipped + out.completed, 4);
  // done_payloads fails the test on a second TaskDone for any task.
  EXPECT_EQ(done_payloads(service.journal_path()).size(), 4u);
  const CampaignStatus st = CampaignService::status(service.journal_path());
  EXPECT_TRUE(st.finished);
  EXPECT_EQ(st.tasks_reassigned, 0);
  EXPECT_EQ(st.speculative_tasks, 1);
}

TEST(CampaignService, KillResumeRecomputesNothing) {
  const std::string dir = scratch("kill");

  // Kill lane 0 at its second execution slot: by then the first wave
  // (epochs 0, 1) has finished two tasks.
  FaultInjector faults(7);
  faults.schedule_kill(/*rank=*/0, /*epoch=*/2);
  CampaignService service(small_spec(dir), {.faults = &faults});
  EXPECT_THROW(service.run(), TransientError);
  const auto before = done_payloads(service.journal_path());
  EXPECT_EQ(before.size(), 2u);
  const CampaignStatus mid = CampaignService::status(service.journal_path());
  EXPECT_EQ(mid.done, 2);
  EXPECT_EQ(mid.in_flight, 1);  // the killed task's dangling Running frame
  EXPECT_FALSE(mid.finished);

  // Resume without faults: only the unfinished tasks run.
  CampaignService resumed(small_spec(dir));
  const CampaignOutcome out = resumed.run();
  EXPECT_EQ(out.skipped, 2);
  EXPECT_EQ(out.completed, 2);

  // Zero recompute, journal-verified: every task finished before the kill
  // has exactly one Running frame in the whole (pre + post) journal.
  std::map<int, int> running_frames;
  for (const Record& r : replay_journal(resumed.journal_path()).records)
    if (r.type == RecordType::TaskRunning)
      ++running_frames[json::Value::parse(r.payload).get_or("task", -1)];
  for (const auto& [id, payload] : before) EXPECT_EQ(running_frames[id], 1);

  // The interrupted journal's results are byte-identical to an
  // uninterrupted campaign's (TaskDone payloads carry no wall-clock).
  const std::string clean_dir = scratch("kill_clean");
  CampaignService clean(small_spec(clean_dir));
  clean.run();
  EXPECT_EQ(done_payloads(resumed.journal_path()),
            done_payloads(clean.journal_path()));
}

TEST(CampaignService, TransientFaultsAreRetried) {
  const std::string dir = scratch("retry");
  FaultInjector faults(13, {.drop_prob = 1.0});
  faults.set_event_budget(2);  // two injected failures, then clean
  CampaignService service(small_spec(dir), {.faults = &faults});
  const CampaignOutcome out = service.run();
  EXPECT_TRUE(out.finished);
  EXPECT_EQ(out.completed, 4);
  EXPECT_EQ(out.transient_failures, 2);
  int failed_frames = 0;
  for (const Record& r : replay_journal(service.journal_path()).records)
    failed_frames += r.type == RecordType::TaskFailed;
  EXPECT_EQ(failed_frames, 2);
}

// A retry reruns the same pipeline: every task's payload equals a clean
// run's, byte for byte, apart from its `attempt` field.
TEST(CampaignService, RetriedPayloadsMatchCleanRun) {
  CampaignService clean(small_spec(scratch("retry_ref")));
  ASSERT_TRUE(clean.run().finished);
  FaultInjector faults(13, {.drop_prob = 1.0});
  faults.set_event_budget(2);  // the TransientFaultsAreRetried schedule
  CampaignService retried(small_spec(scratch("retry_faulted")),
                          {.faults = &faults});
  const CampaignOutcome out = retried.run();
  ASSERT_TRUE(out.finished);
  ASSERT_EQ(out.transient_failures, 2);

  const auto want = done_payloads(clean.journal_path());
  const auto got = done_payloads(retried.journal_path());
  ASSERT_EQ(got.size(), want.size());
  int reruns = 0;
  for (const auto& [id, payload] : want) {
    ASSERT_EQ(got.count(id), 1u) << "task " << id;
    reruns += got.at(id) != payload;
    EXPECT_EQ(without_attempt(got.at(id)), without_attempt(payload))
        << "task " << id;
  }
  EXPECT_GT(reruns, 0);  // some payload records attempt > 0
}

// The coordinator counts retries itself: perfbench runs its untraced
// units with telemetry off and charges failed column solves from
// transient_failures.
TEST(CampaignService, RetriesAreCountedWithTelemetryOff) {
  telemetry::set_enabled(false);
  const std::string dir = scratch("retry_untraced");
  FaultInjector faults(13, {.drop_prob = 1.0});
  faults.set_event_budget(2);  // the TransientFaultsAreRetried schedule
  CampaignService service(small_spec(dir), {.faults = &faults});
  const CampaignOutcome out = service.run();
  telemetry::set_enabled(true);
  EXPECT_TRUE(out.finished);
  EXPECT_EQ(out.transient_failures, 2);
}

// In-process workers share the coordinator's config cache: each config
// loads once per campaign, not once per lane that uses it.
TEST(CampaignService, LanesShareOneConfigCache) {
  telemetry::set_enabled(true);
  const std::string dir = scratch("config_cache");
  CampaignSpec spec = small_spec(dir);
  const std::string second = dir + "/config_1.lqcd";
  fs::copy_file(shared_config(), second);
  spec.configs = {shared_config(), second};
  spec.ranks = 4;
  CampaignService service(spec);
  const std::int64_t before =
      telemetry::counter("serve.config_loads").value();
  const CampaignOutcome out = service.run();
  EXPECT_EQ(out.completed, 8);
  EXPECT_EQ(telemetry::counter("serve.config_loads").value() - before,
            static_cast<std::int64_t>(spec.configs.size()));
}

TEST(CampaignService, ExhaustedRetryBudgetIsFatal) {
  const std::string dir = scratch("fatal");
  CampaignSpec spec = small_spec(dir);
  spec.max_retries = 1;
  FaultInjector faults(17, {.drop_prob = 1.0});  // unlimited budget
  CampaignService service(spec, {.faults = &faults});
  EXPECT_THROW(service.run(), FatalError);
}

TEST(CampaignService, RefusesForeignJournal) {
  const std::string dir = scratch("foreign");
  CampaignService first(small_spec(dir));
  first.run();
  CampaignSpec other = small_spec(dir);  // same journal, different spec
  other.kappas = {0.112, 0.117};
  CampaignService second(other);
  EXPECT_THROW(second.run(), FatalError);
}

TEST(CampaignService, StatusOnMissingJournal) {
  const CampaignStatus st = CampaignService::status("does_not_exist.lqj");
  EXPECT_FALSE(st.journal_found);
  EXPECT_EQ(st.frames, 0u);
}

TEST(FaultInjector, HonorsAListOfScheduledKills) {
  FaultInjector fi(7);
  fi.schedule_kill(0, 2);
  fi.schedule_kill(1, 5);  // must not overwrite the first kill
  fi.schedule_kill(0, 9);
  EXPECT_TRUE(fi.should_kill(2, 0));
  EXPECT_TRUE(fi.should_kill(5, 1));
  EXPECT_TRUE(fi.should_kill(9, 0));
  EXPECT_FALSE(fi.should_kill(2, 1));  // rank mismatch
  EXPECT_FALSE(fi.should_kill(5, 0));
  EXPECT_FALSE(fi.should_kill(3, 0));  // epoch mismatch
  fi.clear_kills();
  EXPECT_FALSE(fi.should_kill(2, 0));
  EXPECT_FALSE(fi.should_kill(5, 1));
}

TEST(LaneHealth, HealthyToSuspectToDeadWithRecovery) {
  LaneHealthModel h(3, /*deadline_misses=*/2);
  EXPECT_EQ(h.alive_count(), 3);
  EXPECT_EQ(h.miss(0), LaneHealth::Suspect);
  h.heartbeat(0);  // on-time completion clears the streak
  EXPECT_EQ(h.health(0), LaneHealth::Healthy);
  EXPECT_EQ(h.miss(0), LaneHealth::Suspect);
  EXPECT_EQ(h.miss(0), LaneHealth::Dead);  // second consecutive miss
  EXPECT_FALSE(h.alive(0));
  h.heartbeat(0);  // death is permanent
  EXPECT_EQ(h.health(0), LaneHealth::Dead);
  EXPECT_EQ(h.alive_count(), 2);
  EXPECT_EQ(h.dead_count(), 1);
  h.suspect(1);  // suspicion without a streak: one miss still needed
  EXPECT_EQ(h.health(1), LaneHealth::Suspect);
  h.mark_dead(2);
  EXPECT_EQ(h.alive_count(), 1);
}

TEST(Scheduler, ReshardOrphansIsDeterministicLpt) {
  // Orphans 0 (cost 5), 1 (cost 3), 2 (cost 5) off dead lane 0; lanes 1
  // and 2 survive with remaining 1.0 and 2.0. LPT order: 0 (tie with 2,
  // lower id first), 2, 1.
  const std::vector<double> cost = {5.0, 3.0, 5.0};
  std::vector<double> rem = {0.0, 1.0, 2.0};
  const std::vector<bool> alive = {false, true, true};
  const std::vector<Reassignment> moves =
      reshard_orphans({0, 1, 2}, 0, cost, rem, alive);
  ASSERT_EQ(moves.size(), 3u);
  EXPECT_EQ(moves[0].task, 0);
  EXPECT_EQ(moves[0].to, 1);  // 1.0 < 2.0
  EXPECT_EQ(moves[1].task, 2);
  EXPECT_EQ(moves[1].to, 2);  // now 6.0 vs 2.0
  EXPECT_EQ(moves[2].task, 1);
  EXPECT_EQ(moves[2].to, 1);  // 6.0 vs 7.0
  EXPECT_DOUBLE_EQ(rem[1], 9.0);
  EXPECT_DOUBLE_EQ(rem[2], 7.0);

  std::vector<double> none_rem = {0.0, 0.0, 0.0};
  EXPECT_THROW(
      reshard_orphans({0}, 0, cost, none_rem, {false, false, false}),
      Error);  // no surviving lane
}

TEST(CampaignService, StatusCountsOpenRunsFailuresAndTornTails) {
  const std::string dir = scratch("status_coverage");
  const std::string path = dir + "/j.lqj";
  {
    Journal j;
    j.open(path);
    j.append(RecordType::CampaignBegin,
             R"({"name": "s", "fingerprint": 42, "tasks": 2})");
    j.append(RecordType::TaskRunning, R"({"task": 0, "attempt": 0})");
    j.append(RecordType::TaskFailed, R"({"task": 0, "attempt": 0})");
    j.append(RecordType::TaskRunning, R"({"task": 0, "attempt": 1})");
    j.append(RecordType::TaskDone, R"({"task": 0})");
    j.append(RecordType::TaskRunning, R"({"task": 1, "attempt": 0})");
  }
  {
    std::ofstream os(path, std::ios::binary | std::ios::app);
    os.write("LQJR\x06\x00", 6);  // torn frame at the tail
  }
  const CampaignStatus st = CampaignService::status(path);
  EXPECT_TRUE(st.journal_found);
  EXPECT_EQ(st.frames, 6u);
  EXPECT_EQ(st.total, 2);
  EXPECT_EQ(st.fingerprint, 42u);
  EXPECT_EQ(st.done, 1);
  EXPECT_EQ(st.failed_attempts, 1);
  EXPECT_EQ(st.in_flight, 1);  // task 1's Running frame is unsettled
  EXPECT_EQ(st.truncated_bytes, 6u);
  EXPECT_FALSE(st.finished);
}

TEST(CampaignService, LaneDeathCompletesDegradedOnSurvivor) {
  const std::string dir = scratch("lane_death");
  FaultInjector faults(23);
  faults.schedule_lane_death(/*lane=*/0, /*epoch=*/0);
  CampaignService service(small_spec(dir), {.faults = &faults});
  const CampaignOutcome out = service.run();

  // Lane 0 went silent before finishing anything: all 4 tasks complete
  // on lane 1, the campaign finishes degraded.
  EXPECT_TRUE(out.finished);
  EXPECT_TRUE(out.degraded);
  EXPECT_EQ(out.completed, 4);
  EXPECT_EQ(out.lanes_lost, 1);
  EXPECT_EQ(out.tasks_reassigned, 2);  // lane 0's shard moved over

  // The journal narrates the recovery.
  int lane_dead_frames = 0, reassigned_frames = 0;
  for (const Record& r : replay_journal(service.journal_path()).records) {
    lane_dead_frames += r.type == RecordType::LaneDead;
    reassigned_frames += r.type == RecordType::TaskReassigned;
  }
  EXPECT_EQ(lane_dead_frames, 1);
  EXPECT_EQ(reassigned_frames, 2);
  const CampaignStatus st = CampaignService::status(service.journal_path());
  EXPECT_TRUE(st.finished);
  EXPECT_EQ(st.lanes_lost, 1);
  EXPECT_EQ(st.tasks_reassigned, 2);
  EXPECT_EQ(st.speculative_tasks, 0);

  // Degraded-mode physics is still the physics: payloads byte-identical
  // to a fault-free campaign's.
  const std::string clean_dir = scratch("lane_death_clean");
  CampaignService clean(small_spec(clean_dir));
  clean.run();
  EXPECT_EQ(done_payloads(service.journal_path()),
            done_payloads(clean.journal_path()));
}

TEST(CampaignService, AllLanesDeadIsFatalAndJournalSurvives) {
  const std::string dir = scratch("all_dead");
  FaultInjector faults(29);
  faults.schedule_lane_death(0, 0);
  faults.schedule_lane_death(1, 0);
  CampaignService service(small_spec(dir), {.faults = &faults});
  EXPECT_THROW(service.run(), FatalError);

  // The journal replays cleanly and still refuses resurrection: every
  // lane death is journaled, so a resume sees zero survivors.
  const CampaignStatus st = CampaignService::status(service.journal_path());
  EXPECT_TRUE(st.journal_found);
  EXPECT_EQ(st.lanes_lost, 2);
  EXPECT_FALSE(st.finished);
  CampaignService resumed(small_spec(dir));
  EXPECT_THROW(resumed.run(), FatalError);
}

TEST(CampaignService, KillAfterReassignmentReplaysRecovery) {
  const std::string dir = scratch("kill_recovery");

  // Lane 0 dies at epoch 0 (dead by its second slot, epoch 2); its two
  // tasks move to lane 1. Lane 1 is then killed at epoch 4, after two
  // completions — mid-recovery.
  FaultInjector faults(31);
  faults.schedule_lane_death(0, 0);
  faults.schedule_kill(/*rank=*/1, /*epoch=*/4);
  CampaignService service(small_spec(dir), {.faults = &faults});
  EXPECT_THROW(service.run(), TransientError);
  const auto before = done_payloads(service.journal_path());
  EXPECT_EQ(before.size(), 2u);

  // Resume fault-free: the journaled LaneDead/TaskReassigned frames
  // replay the recovery plan, lane 0 stays dead, nothing recomputes.
  CampaignService resumed(small_spec(dir));
  const CampaignOutcome out = resumed.run();
  EXPECT_TRUE(out.finished);
  EXPECT_TRUE(out.degraded);
  EXPECT_EQ(out.skipped, 2);
  EXPECT_EQ(out.completed, 2);
  EXPECT_EQ(out.lanes_lost, 1);
  EXPECT_EQ(out.tasks_reassigned, 2);  // replayed, not re-decided
  int lane_dead_frames = 0, reassigned_frames = 0;
  std::map<int, int> running_frames;
  for (const Record& r : replay_journal(resumed.journal_path()).records) {
    lane_dead_frames += r.type == RecordType::LaneDead;
    reassigned_frames += r.type == RecordType::TaskReassigned;
    if (r.type == RecordType::TaskRunning)
      ++running_frames[json::Value::parse(r.payload).get_or("task", -1)];
  }
  EXPECT_EQ(lane_dead_frames, 1);   // no duplicate recovery decisions
  EXPECT_EQ(reassigned_frames, 2);
  for (const auto& [id, payload] : before) EXPECT_EQ(running_frames[id], 1);

  const std::string clean_dir = scratch("kill_recovery_clean");
  CampaignService clean(small_spec(clean_dir));
  clean.run();
  EXPECT_EQ(done_payloads(resumed.journal_path()),
            done_payloads(clean.journal_path()));
}

TEST(CampaignService, SpeculativeReplicaWinsOverStraggler) {
  const std::string dir = scratch("speculate");
  FaultInjector faults(37);
  FaultSpec straggly;
  straggly.task_straggle_prob = 1.0;
  straggly.task_straggle_mult = 8.0;  // blows the 4.0 heartbeat margin
  faults.set_rank_spec(0, straggly);
  faults.set_event_budget(1);  // one straggle, then lane 0 runs clean
  CampaignService service(small_spec(dir), {.faults = &faults});
  const CampaignOutcome out = service.run();

  // Lane 0 straggled on its first task; the replica on lane 1 finished
  // it first, lane 0 skipped it and completed the rest on time.
  EXPECT_TRUE(out.finished);
  EXPECT_FALSE(out.degraded);  // suspect lane recovered, nothing died
  EXPECT_EQ(out.completed, 4);
  EXPECT_EQ(out.lanes_lost, 0);
  EXPECT_EQ(out.speculative_tasks, 1);
  EXPECT_EQ(out.speculative_wins, 1);
  EXPECT_EQ(faults.stats().task_straggles.load(), 1);

  // Exactly one TaskDone per task (done_payloads asserts no duplicates),
  // byte-identical to a fault-free campaign.
  const auto payloads = done_payloads(service.journal_path());
  EXPECT_EQ(payloads.size(), 4u);
  const std::string clean_dir = scratch("speculate_clean");
  CampaignService clean(small_spec(clean_dir));
  clean.run();
  EXPECT_EQ(payloads, done_payloads(clean.journal_path()));

  const CampaignStatus st = CampaignService::status(service.journal_path());
  EXPECT_EQ(st.speculative_tasks, 1);
  EXPECT_EQ(st.lanes_lost, 0);
}

TEST(CampaignService, CompactionPreservesStatusAndResume) {
  const std::string dir = scratch("compact");

  // Build an eventful journal: two injected transient failures, a kill
  // mid-campaign, then a fault-free resume to completion.
  {
    FaultInjector faults(41, {.drop_prob = 1.0});
    faults.set_event_budget(2);
    faults.schedule_kill(/*rank=*/1, /*epoch=*/3);
    CampaignService service(small_spec(dir), {.faults = &faults});
    EXPECT_THROW(service.run(), TransientError);
    CampaignService resumed(small_spec(dir));
    EXPECT_TRUE(resumed.run().finished);
  }
  const std::string journal = dir + "/journal.lqj";
  const CampaignStatus before = CampaignService::status(journal);
  ASSERT_TRUE(before.finished);
  ASSERT_EQ(before.done, 4);
  ASSERT_GT(before.failed_attempts, 0);

  const CompactionStats cs = compact_journal(journal);
  EXPECT_LT(cs.frames_after, cs.frames_before);
  EXPECT_LT(cs.bytes_after, cs.bytes_before);

  // `status` cannot tell the difference...
  const CampaignStatus after = CampaignService::status(journal);
  EXPECT_EQ(after.total, before.total);
  EXPECT_EQ(after.done, before.done);
  EXPECT_EQ(after.failed_attempts, before.failed_attempts);
  EXPECT_EQ(after.in_flight, before.in_flight);
  EXPECT_EQ(after.finished, before.finished);
  EXPECT_EQ(after.fingerprint, before.fingerprint);
  EXPECT_EQ(after.lanes_lost, before.lanes_lost);
  EXPECT_EQ(after.tasks_reassigned, before.tasks_reassigned);
  EXPECT_EQ(after.speculative_tasks, before.speculative_tasks);

  // ...and neither can a resume: everything is still finished.
  CampaignService again(small_spec(dir));
  const CampaignOutcome out = again.run();
  EXPECT_EQ(out.skipped, 4);
  EXPECT_EQ(out.completed, 0);

  // Compacting a compacted journal is the identity.
  const CompactionStats cs2 = compact_journal(journal);
  EXPECT_EQ(cs2.frames_after, cs2.frames_before);
}

}  // namespace
}  // namespace lqcd::serve
