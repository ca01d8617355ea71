#include "serve/dist_service.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include <unistd.h>

#include "gauge/io.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/telemetry.hpp"
#include "util/timer.hpp"

namespace lqcd::serve {

namespace {

using transport::make_seq_tag;
using transport::TagKind;

// Coordinator -> worker dispatch, on the kTask tag stream. Result frames
// come back on the kResult stream as "ok\n" + TaskDone payload or
// "err\n" + message — a byte-exact passthrough, never re-serialized.

std::string dispatch_payload(int task, int attempt) {
  json::Writer w;
  w.begin_object()
      .field("op", "task")
      .field("task", task)
      .field("attempt", attempt)
      .end_object();
  return w.str();
}

std::span<const std::byte> as_bytes(std::string_view s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

std::string_view as_view(const std::vector<std::byte>& b) {
  return {reinterpret_cast<const char*>(b.data()), b.size()};
}

/// Per-worker execution state at the coordinator. Lane index l maps to
/// transport rank l+1.
struct Lane {
  std::vector<int> queue;
  std::size_t next = 0;
  double remaining = 0.0;
  bool alive = true;
  int outstanding = -1;     ///< task id in flight, -1 if idle
  int attempt = 0;          ///< attempt number of the in-flight dispatch
  std::uint64_t sent = 0;   ///< kTask stream position
  std::uint64_t recvd = 0;  ///< kResult stream position
};

int run_worker(const CampaignSpec& spec, transport::Transport& tp) {
  const LatticeGeometry geo(read_gauge_header(spec.configs.at(0)).dims);
  std::vector<std::unique_ptr<GaugeFieldD>> configs(spec.configs.size());
  const auto config = [&](int index) -> const GaugeFieldD& {
    auto& slot = configs.at(static_cast<std::size_t>(index));
    if (!slot) {
      slot = std::make_unique<GaugeFieldD>(geo);
      load_gauge(*slot, spec.configs[static_cast<std::size_t>(index)]);
      telemetry::counter("serve.config_loads").add(1);
    }
    return *slot;
  };
  const std::vector<SolveTask> tasks = build_tasks(spec);

  int die_after = -1;
  if (const char* env = std::getenv("LQCD_WORKER_DIE_AFTER"))
    die_after = std::atoi(env);

  int completed = 0;
  std::uint64_t in_seq = 0;
  std::uint64_t out_seq = 0;
  std::vector<std::byte> buf;
  while (true) {
    try {
      tp.recv(0, make_seq_tag(TagKind::kTask, in_seq++), buf);
    } catch (const TransientError&) {
      return 1;  // coordinator died or wedged; nothing to clean up
    }
    const json::Value msg = json::Value::parse(std::string(as_view(buf)));
    if (msg.get_or("op", std::string()) != "task") break;  // stop
    const int tid = msg.get_or("task", -1);
    const int attempt = msg.get_or("attempt", 0);
    // The deterministic kill drill: after K completed tasks, die holding
    // the next one in flight, so the coordinator must orphan-reshard it.
    if (die_after >= 0 && completed >= die_after) _exit(9);
    std::string result;
    try {
      result = "ok\n" + solve_task_payload(
                            spec, geo, config(tasks.at(
                                            static_cast<std::size_t>(tid))
                                                .config),
                            tasks[static_cast<std::size_t>(tid)], attempt);
      ++completed;
    } catch (const TransientError& e) {
      result = std::string("err\n") + e.what();
    }
    tp.send(0, make_seq_tag(TagKind::kResult, out_seq++),
            as_bytes(result));
  }
  return 0;
}

}  // namespace

CampaignOutcome run_distributed_campaign(const CampaignSpec& spec_in,
                                         transport::Transport& tp,
                                         bool write_result) {
  LQCD_REQUIRE(tp.size() >= 2,
               "distributed campaign needs at least one worker rank");
  CampaignSpec spec = spec_in;
  spec.ranks = tp.size() - 1;  // lanes are the real worker processes

  if (tp.rank() != 0) {
    CampaignOutcome out;
    out.finished = run_worker(spec, tp) == 0;
    return out;
  }

  // ---- coordinator -----------------------------------------------------
  telemetry::TraceRegion trace("serve.campaign");
  WallTimer timer;
  const std::vector<SolveTask> tasks = build_tasks(spec);
  const LatticeGeometry geo(read_gauge_header(spec.configs.at(0)).dims);
  const MachineModel machine = machine_by_name(spec.machine);
  const ShardPlan plan = shard_tasks(spec, tasks, geo, machine);
  std::vector<double> task_cost;
  task_cost.reserve(tasks.size());
  for (const SolveTask& t : tasks)
    task_cost.push_back(modeled_task_seconds(spec, t, geo, machine));

  CampaignOutcome outcome;
  outcome.total = static_cast<int>(tasks.size());
  std::filesystem::create_directories(spec.output);
  const std::string journal_path = spec.output + "/journal.lqj";

  Journal journal;
  const ReplayResult replay = journal.open(journal_path);
  const std::size_t nlanes = plan.lanes.size();
  std::set<int> done;
  bool ended = false;
  std::vector<bool> replay_dead(nlanes, false);
  struct Move {
    int task = 0, from = 0, to = 0;
  };
  std::vector<Move> replay_moves;
  if (replay.records.empty()) {
    journal.append(RecordType::CampaignBegin, begin_payload(spec));
  } else {
    const Record& first = replay.records.front();
    LQCD_REQUIRE(first.type == RecordType::CampaignBegin,
                 "journal does not start with campaign_begin: " +
                     journal_path);
    const json::Value head = json::Value::parse(first.payload);
    const auto fp = static_cast<std::uint32_t>(
        head.get_or("fingerprint", std::int64_t{0}));
    if (fp != spec_fingerprint(spec))
      throw FatalError("journal " + journal_path +
                       " belongs to a different campaign spec "
                       "(fingerprint mismatch); refusing to resume");
    for (const Record& rec : replay.records) {
      switch (rec.type) {
        case RecordType::TaskDone:
          done.insert(static_cast<int>(
              json::Value::parse(rec.payload).get_or("task",
                                                     std::int64_t{-1})));
          break;
        case RecordType::CampaignEnd: ended = true; break;
        case RecordType::LaneDead: {
          const int lane =
              json::Value::parse(rec.payload).get_or("lane", -1);
          if (lane >= 0 && lane < static_cast<int>(nlanes))
            replay_dead[static_cast<std::size_t>(lane)] = true;
          break;
        }
        case RecordType::TaskReassigned: {
          const json::Value v = json::Value::parse(rec.payload);
          replay_moves.push_back({.task = v.get_or("task", -1),
                                  .from = v.get_or("from", 0),
                                  .to = v.get_or("to", 0)});
          break;
        }
        default: break;
      }
    }
  }
  outcome.skipped = static_cast<int>(done.size());
  for (std::size_t l = 0; l < nlanes; ++l)
    outcome.lanes_lost += replay_dead[l];
  outcome.tasks_reassigned += static_cast<int>(replay_moves.size());
  telemetry::counter("serve.tasks_skipped")
      .add(static_cast<std::int64_t>(done.size()));

  std::vector<Lane> lanes(nlanes);
  const auto alive_count = [&] {
    int n = 0;
    for (const Lane& l : lanes) n += l.alive;
    return n;
  };
  const auto unfinished = [&] {
    return outcome.total - static_cast<int>(done.size());
  };
  const auto all_dead_error = [&] {
    return FatalError("campaign " + spec.name + ": every lane is dead, " +
                      std::to_string(unfinished()) +
                      " tasks stranded (journal remains replayable: " +
                      journal_path + ")");
  };
  const auto stop_workers = [&] {
    const std::string stop = "{\"op\":\"stop\"}";
    for (std::size_t l = 0; l < nlanes; ++l)
      if (lanes[l].alive && tp.peer_alive(static_cast<int>(l) + 1))
        tp.send(static_cast<int>(l) + 1,
                make_seq_tag(TagKind::kTask, lanes[l].sent++),
                as_bytes(stop));
  };

  try {
    if (!ended) {
      for (std::size_t l = 0; l < nlanes; ++l)
        lanes[l].queue = plan.lanes[l];
      for (const Move& m : replay_moves) {
        const bool ok = m.from >= 0 && m.from < static_cast<int>(nlanes) &&
                        m.to >= 0 && m.to < static_cast<int>(nlanes);
        if (!ok) continue;
        auto& q = lanes[static_cast<std::size_t>(m.from)].queue;
        q.erase(std::remove(q.begin(), q.end(), m.task), q.end());
        lanes[static_cast<std::size_t>(m.to)].queue.push_back(m.task);
      }
      for (std::size_t l = 0; l < nlanes; ++l) {
        lanes[l].alive = !replay_dead[l];
        for (const int id : lanes[l].queue)
          if (!done.count(id))
            lanes[l].remaining += task_cost[static_cast<std::size_t>(id)];
      }

      std::uint64_t epoch = 0;
      const auto reshard_from = [&](std::size_t l, int in_flight) {
        Lane& lane = lanes[l];
        std::vector<int> orphans;
        if (in_flight >= 0 && !done.count(in_flight))
          orphans.push_back(in_flight);
        for (std::size_t i = lane.next; i < lane.queue.size(); ++i)
          if (!done.count(lane.queue[i])) orphans.push_back(lane.queue[i]);
        lane.next = lane.queue.size();
        lane.remaining = 0.0;
        if (orphans.empty()) return;
        if (alive_count() == 0) throw all_dead_error();
        std::vector<double> rem(nlanes, 0.0);
        std::vector<bool> alive(nlanes, false);
        for (std::size_t k = 0; k < nlanes; ++k) {
          rem[k] = lanes[k].remaining;
          alive[k] = lanes[k].alive;
        }
        const std::vector<Reassignment> moves = reshard_orphans(
            orphans, static_cast<int>(l), task_cost, rem, alive);
        for (const Reassignment& m : moves) {
          journal.append(RecordType::TaskReassigned,
                         reassigned_payload(m.task, m.from, m.to, false));
          lanes[static_cast<std::size_t>(m.to)].queue.push_back(m.task);
          ++outcome.tasks_reassigned;
          telemetry::counter("serve.tasks_reassigned").add(1);
        }
        for (std::size_t k = 0; k < nlanes; ++k)
          lanes[k].remaining = rem[k];
      };

      // A previous life may have died between LaneDead and the full
      // batch of TaskReassigned frames; finish the hand-off.
      if (alive_count() == 0 && unfinished() > 0) throw all_dead_error();
      for (std::size_t l = 0; l < nlanes; ++l)
        if (replay_dead[l]) reshard_from(l, -1);

      std::vector<std::byte> buf;
      while (unfinished() > 0) {
        bool progress = false;
        for (std::size_t l = 0; l < nlanes; ++l) {
          Lane& lane = lanes[l];
          const int li = static_cast<int>(l);
          const int peer = li + 1;
          if (!lane.alive) continue;

          // Real lane death: the transport saw the worker's socket EOF
          // or its shm dead flag. Journal it and re-shard, the in-flight
          // task first.
          if (!tp.peer_alive(peer)) {
            lane.alive = false;
            ++outcome.lanes_lost;
            telemetry::counter("serve.lane_deaths").add(1);
            journal.append(RecordType::LaneDead,
                           lane_dead_payload(li, epoch));
            log_warn("serve: worker rank ", peer,
                     " died; re-sharding its tasks");
            reshard_from(l, lane.outstanding);
            lane.outstanding = -1;
            progress = true;
            continue;
          }

          // Idle lane with work left: dispatch the next unfinished task.
          if (lane.outstanding < 0) {
            while (lane.next < lane.queue.size() &&
                   done.count(lane.queue[lane.next]))
              ++lane.next;
            if (lane.next < lane.queue.size()) {
              const int tid = lane.queue[lane.next++];
              lane.outstanding = tid;
              lane.attempt = 0;
              journal.append(
                  RecordType::TaskRunning,
                  running_payload(tasks[static_cast<std::size_t>(tid)], li,
                                  0));
              tp.send(peer, make_seq_tag(TagKind::kTask, lane.sent++),
                      as_bytes(dispatch_payload(tid, 0)));
              ++epoch;
              progress = true;
            }
          }

          // Result pump.
          if (lane.outstanding >= 0 &&
              tp.try_recv(peer, make_seq_tag(TagKind::kResult, lane.recvd),
                          buf)) {
            ++lane.recvd;
            const int tid = lane.outstanding;
            const SolveTask& task = tasks[static_cast<std::size_t>(tid)];
            const std::string_view r = as_view(buf);
            if (r.substr(0, 3) == "ok\n") {
              journal.append(RecordType::TaskDone,
                             std::string(r.substr(3)));
              telemetry::counter("serve.tasks_done").add(1);
              telemetry::counter("serve.columns_solved").add(Ns * Nc);
              done.insert(tid);
              ++outcome.completed;
              lane.remaining = std::max(
                  0.0, lane.remaining -
                           task_cost[static_cast<std::size_t>(tid)]);
              lane.outstanding = -1;
            } else {
              const std::string why(r.substr(std::min<std::size_t>(
                  r.size(), 4)));  // after "err\n"
              journal.append(RecordType::TaskFailed,
                             failed_payload(task, lane.attempt, why));
              telemetry::counter("serve.transient_failures").add(1);
              ++outcome.transient_failures;
              if (lane.attempt >= spec.max_retries)
                throw FatalError("task " + std::to_string(tid) +
                                 " exhausted its retry budget (" +
                                 std::to_string(spec.max_retries) +
                                 "): " + why);
              telemetry::counter("serve.task_retries").add(1);
              ++lane.attempt;
              journal.append(RecordType::TaskRunning,
                             running_payload(task, li, lane.attempt));
              tp.send(peer, make_seq_tag(TagKind::kTask, lane.sent++),
                      as_bytes(dispatch_payload(tid, lane.attempt)));
              ++epoch;
            }
            progress = true;
          }
        }
        if (!progress)
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      outcome.lanes_lost = 0;
      for (std::size_t l = 0; l < nlanes; ++l)
        outcome.lanes_lost += !lanes[l].alive;
      journal.append(RecordType::CampaignEnd, "{}");
    }
    stop_workers();
  } catch (...) {
    stop_workers();  // leave no worker blocked on a recv forever
    throw;
  }
  outcome.degraded = outcome.lanes_lost > 0;
  outcome.finished = true;
  outcome.seconds = timer.seconds();
  telemetry::counter("serve.campaigns").add(1);
  if (write_result)
    write_campaign_result(spec, replay_journal(journal_path).records,
                          outcome);
  return outcome;
}

}  // namespace lqcd::serve
