#include "serve/service.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <set>
#include <thread>
#include <unordered_map>

#include "gauge/io.hpp"
#include "spectro/correlator.hpp"
#include "spectro/propagator.hpp"
#include "util/atomic_io.hpp"
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

}  // namespace

std::string begin_payload(const CampaignSpec& spec) {
  json::Writer w;
  w.begin_object()
      .field("name", spec.name)
      .field("fingerprint",
             static_cast<std::int64_t>(spec_fingerprint(spec)))
      .field("tasks", spec.num_tasks())
      .end_object();
  return w.str();
}

std::string running_payload(const SolveTask& task, int lane, int attempt) {
  json::Writer w;
  w.begin_object()
      .field("task", task.id)
      .field("lane", lane)
      .field("attempt", attempt)
      .end_object();
  return w.str();
}

std::string failed_payload(const SolveTask& task, int attempt,
                           std::string_view why) {
  json::Writer w;
  w.begin_object()
      .field("task", task.id)
      .field("attempt", attempt)
      .field("error", why)
      .end_object();
  return w.str();
}

std::string lane_dead_payload(int lane, std::uint64_t epoch) {
  json::Writer w;
  w.begin_object()
      .field("lane", lane)
      .field("epoch", static_cast<std::int64_t>(epoch))
      .end_object();
  return w.str();
}

std::string reassigned_payload(int task, int from, int to,
                               bool speculative) {
  json::Writer w;
  w.begin_object()
      .field("task", task)
      .field("from", from)
      .field("to", to)
      .field("reason", speculative ? "speculative" : "lane_dead")
      .end_object();
  return w.str();
}

std::string solve_task_payload(const CampaignSpec& spec,
                               const LatticeGeometry& geo,
                               const GaugeFieldD& config,
                               const SolveTask& task, int attempt) {
  const SourceSpec source = parse_source_spec(
      spec.sources[static_cast<std::size_t>(task.source)]);
  const double kappa = spec.kappas[static_cast<std::size_t>(task.kappa)];

  telemetry::TraceRegion trace("serve.solve");
  PropagatorParams params;
  params.kappa = kappa;
  params.solver.tol = spec.tol;
  params.solver.max_iterations = spec.max_iterations;
  params.method = spec.solver;
  params.block = spec.block;
  if (attempt > 0 && spec.solver == SolverKind::BlockCg) {
    // Retry on the scalar pipeline: eo_cg has full breakdown
    // recovery, the block path deliberately does not.
    params.method = SolverKind::EoCg;
    params.block = 1;
  }
  Propagator prop(geo);
  const PropagatorStats stats =
      compute_propagator(prop, config, params, source);
  if (!stats.converged)
    throw TransientError("solve unconverged (worst rel " +
                         std::to_string(stats.worst_residual) + ")");

  const int t0 =
      source.kind == SourceKind::Point ? source.point[3] : source.t0;
  const Correlator pion = pion_correlator(prop, t0);

  // Result payload: deterministic fields only (no wall time), so a
  // resumed campaign journals bytes identical to an uninterrupted
  // one.
  json::Writer w;
  w.begin_object()
      .field("task", task.id)
      .field("config",
             spec.configs[static_cast<std::size_t>(task.config)])
      .field("kappa", kappa)
      .field("source", spec.sources[static_cast<std::size_t>(task.source)])
      .field("solver", to_string(params.method))
      .field("block", params.block)
      .field("attempt", attempt)
      .field("iterations", stats.total_iterations)
      .field("worst_residual", stats.worst_residual);
  w.key("pion").begin_array();
  for (const double c : pion.c) w.value(c);
  w.end_array();
  w.end_object();
  return w.str();
}

std::string CampaignService::journal_path() const {
  return spec_.output + "/journal.lqj";
}

CampaignService::CampaignService(CampaignSpec spec, ServiceOptions opts)
    : spec_(std::move(spec)),
      opts_(opts),
      tasks_(build_tasks(spec_)),
      plan_(shard_tasks(spec_, tasks_,
                        LatticeGeometry(
                            read_gauge_header(spec_.configs.at(0)).dims),
                        machine_by_name(spec_.machine))),
      geo_(read_gauge_header(spec_.configs.at(0)).dims),
      configs_(spec_.configs.size()) {
  // Every config must live on one geometry: the service keeps one
  // propagator workspace shape for the whole campaign.
  for (const std::string& path : spec_.configs) {
    const GaugeFileHeader h = read_gauge_header(path);
    LQCD_REQUIRE(h.dims == geo_.dims(),
                 "campaign configs disagree on lattice dims: " + path);
  }
  // Per-task modeled cost: the currency of heartbeat deadlines and of
  // LPT re-sharding when a lane dies.
  const MachineModel machine = machine_by_name(spec_.machine);
  task_cost_.reserve(tasks_.size());
  for (const SolveTask& t : tasks_)
    task_cost_.push_back(modeled_task_seconds(spec_, t, geo_, machine));
}

CampaignService::~CampaignService() = default;

const GaugeFieldD& CampaignService::config(int index) {
  auto& slot = configs_.at(static_cast<std::size_t>(index));
  if (!slot) {
    telemetry::TraceRegion trace("serve.config_load");
    slot = std::make_unique<GaugeFieldD>(geo_);
    load_gauge(*slot, spec_.configs[static_cast<std::size_t>(index)]);
    telemetry::counter("serve.config_loads").add(1);
  }
  return *slot;
}

struct CampaignService::WorkerStream {
  std::uint64_t in_seq = 0;   ///< kTask stream position
  std::uint64_t out_seq = 0;  ///< kResult stream position
  int completed = 0;          ///< tasks solved by this worker
  int die_after = -1;         ///< kill drill: exit holding task K+1
};

bool CampaignService::serve_next(transport::Transport& tp, WorkerStream& ws) {
  std::vector<std::byte> buf;
  tp.recv(0, make_seq_tag(TagKind::kTask, ws.in_seq++), buf);
  const json::Value msg = json::Value::parse(std::string(as_view(buf)));
  if (msg.get_or("op", std::string()) != "task") return false;  // stop
  const int tid = msg.get_or("task", -1);
  const int attempt = msg.get_or("attempt", 0);
  // The kill drill: after K completed tasks, die holding the next one in
  // flight, so the coordinator must orphan-reshard it.
  if (ws.die_after >= 0 && ws.completed >= ws.die_after) _exit(9);
  std::string result;
  try {
    const SolveTask& task = tasks_.at(static_cast<std::size_t>(tid));
    result = "ok\n" + solve_task_payload(spec_, geo_, config(task.config),
                                         task, attempt);
    ++ws.completed;
  } catch (const TransientError& e) {
    result = std::string("err\n") + e.what();
  }
  tp.send(0, make_seq_tag(TagKind::kResult, ws.out_seq++), as_bytes(result));
  return true;
}

CampaignOutcome CampaignService::run() {
  // The lanes are in-process workers: rank l+1 of the group serves lane
  // l, and the coordinator steps it inline after each dispatch, so every
  // solve runs on this thread and shares this service's config cache.
  const auto group = transport::make_inprocess_group(spec_.ranks + 1);
  std::vector<WorkerStream> streams(group.size());
  return coordinate(*group[0], [&](int rank) {
    serve_next(*group[static_cast<std::size_t>(rank)],
               streams[static_cast<std::size_t>(rank)]);
  });
}

CampaignOutcome run_distributed_campaign(const CampaignSpec& spec_in,
                                         transport::Transport& tp) {
  LQCD_REQUIRE(tp.size() >= 2,
               "distributed campaign needs at least one worker rank");
  CampaignSpec spec = spec_in;
  spec.ranks = tp.size() - 1;  // lanes are the real worker processes
  CampaignService service(std::move(spec));
  if (tp.rank() == 0) return service.coordinate(tp, {});

  CampaignService::WorkerStream ws;
  if (const char* env = std::getenv("LQCD_WORKER_DIE_AFTER"))
    ws.die_after = std::atoi(env);
  CampaignOutcome out;
  try {
    while (service.serve_next(tp, ws)) {
    }
    out.finished = true;
  } catch (const TransientError&) {
    // The coordinator died or wedged; nothing to clean up.
  }
  return out;
}

CampaignOutcome CampaignService::coordinate(
    transport::Transport& tp, const std::function<void(int)>& step) {
  telemetry::TraceRegion trace("serve.campaign");
  WallTimer timer;
  CampaignOutcome outcome;
  outcome.total = static_cast<int>(tasks_.size());
  std::filesystem::create_directories(spec_.output);

  Journal journal;
  const ReplayResult replay = journal.open(journal_path());
  if (replay.truncated_bytes > 0) {
    telemetry::counter("serve.journal_truncated_bytes")
        .add(static_cast<std::int64_t>(replay.truncated_bytes));
    log_warn("serve: dropped ", replay.truncated_bytes,
             " torn bytes from ", journal_path());
  }

  // Reconcile with any previous life of this campaign: finished tasks,
  // and the recovery decisions (lane deaths, reassignments) this journal
  // already committed to — a resumed run replays those instead of
  // re-deriving them.
  const std::size_t nlanes = plan_.lanes.size();
  std::set<int> done;
  bool ended = false;
  std::vector<bool> replay_dead(nlanes, false);
  struct Move {
    int task = 0, from = 0, to = 0;
    bool speculative = false;
  };
  std::vector<Move> replay_moves;
  if (replay.records.empty()) {
    journal.append(RecordType::CampaignBegin, begin_payload(spec_));
  } else {
    const Record& first = replay.records.front();
    LQCD_REQUIRE(first.type == RecordType::CampaignBegin,
                 "journal does not start with campaign_begin: " +
                     journal_path());
    const json::Value head = json::Value::parse(first.payload);
    const auto fp =
        static_cast<std::uint32_t>(head.get_or("fingerprint",
                                               std::int64_t{0}));
    if (fp != spec_fingerprint(spec_))
      throw FatalError("journal " + journal_path() +
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
          replay_moves.push_back(
              {.task = v.get_or("task", -1),
               .from = v.get_or("from", 0),
               .to = v.get_or("to", 0),
               .speculative =
                   v.get_or("reason", std::string()) == "speculative"});
          break;
        }
        default: break;
      }
    }
  }
  outcome.skipped = static_cast<int>(done.size());
  for (std::size_t l = 0; l < nlanes; ++l)
    outcome.lanes_lost += replay_dead[l];
  for (const Move& m : replay_moves)
    outcome.tasks_reassigned += !m.speculative;
  telemetry::counter("serve.tasks_skipped")
      .add(static_cast<std::int64_t>(done.size()));
  if (telemetry::enabled())
    telemetry::gauge("serve.shard_imbalance").set(plan_.imbalance());

  // Every live worker gets a stop message, also when the campaign fails:
  // none may be left blocked on a receive.
  std::vector<std::uint64_t> sent(nlanes, 0);  // kTask stream positions
  const auto stop_workers = [&] {
    const std::string stop = "{\"op\":\"stop\"}";
    for (std::size_t l = 0; l < nlanes; ++l) {
      const int rank = static_cast<int>(l) + 1;
      if (tp.peer_alive(rank))
        tp.send(rank, make_seq_tag(TagKind::kTask, sent[l]++), as_bytes(stop));
    }
  };

  try {
    if (!ended) {
      // Per-lane execution state, seeded from the static shard plan with
      // the journaled recovery decisions replayed on top.
      struct LaneExec {
        std::vector<int> queue;
        std::size_t next = 0;     ///< queue[next] is the lane's current task
        double remaining = 0.0;   ///< modeled seconds of unfinished work
        int stall = 0;            ///< slots left grinding on a straggler
        std::set<int> straggled;  ///< tasks already straggled on this lane
        bool busy = false;        ///< queue[next] dispatched, no result yet
        int attempt = 0;          ///< attempt number of that dispatch
        std::uint64_t epoch = 0;  ///< its slot's epoch (retries reuse it)
        std::uint64_t recvd = 0;  ///< kResult stream position
      };
      std::vector<LaneExec> lanes(nlanes);
      for (std::size_t l = 0; l < nlanes; ++l)
        lanes[l].queue = plan_.lanes[l];

      LaneHealthModel health(static_cast<int>(nlanes), spec_.deadline_misses);
      std::set<int> speculated;       // tasks with a live replica
      std::map<int, int> spec_owner;  // replica task -> original lane
      const auto lane_ok = [&](int lane) {
        return lane >= 0 && lane < static_cast<int>(nlanes);
      };
      for (const Move& m : replay_moves) {
        if (!lane_ok(m.from) || !lane_ok(m.to)) continue;
        if (m.speculative) {
          lanes[static_cast<std::size_t>(m.to)].queue.push_back(m.task);
          speculated.insert(m.task);
          spec_owner[m.task] = m.from;
        } else {
          auto& q = lanes[static_cast<std::size_t>(m.from)].queue;
          q.erase(std::remove(q.begin(), q.end(), m.task), q.end());
          lanes[static_cast<std::size_t>(m.to)].queue.push_back(m.task);
        }
      }
      for (std::size_t l = 0; l < nlanes; ++l)
        if (replay_dead[l]) health.mark_dead(static_cast<int>(l));
      for (std::size_t l = 0; l < nlanes; ++l)
        for (const int id : lanes[l].queue)
          if (!done.count(id))
            lanes[l].remaining += task_cost_[static_cast<std::size_t>(id)];

      FaultInjector* const faults = opts_.faults;
      const auto unfinished = [&] {
        return outcome.total - static_cast<int>(done.size());
      };
      const auto all_dead_error = [&] {
        return FatalError(
            "campaign " + spec_.name + ": every lane is dead, " +
            std::to_string(unfinished()) +
            " tasks stranded (journal remains replayable: " + journal_path() +
            ")");
      };
      const auto cost = [&](int tid) {
        return task_cost_[static_cast<std::size_t>(tid)];
      };
      // The lane is through with queue[next]: finished here, finished
      // elsewhere first, or finished in a previous life.
      const auto advance = [&](LaneExec& lane) {
        lane.remaining =
            std::max(0.0, lane.remaining - cost(lane.queue[lane.next]));
        ++lane.next;
      };

      // Re-shard a dead lane's unfinished tasks, the one in flight
      // first, over the survivors (LPT by remaining modeled seconds) and
      // journal each decision.
      const auto reshard_from = [&](std::size_t l) {
        LaneExec& lane = lanes[l];
        std::vector<int> orphans;
        for (std::size_t i = lane.next; i < lane.queue.size(); ++i)
          if (!done.count(lane.queue[i])) orphans.push_back(lane.queue[i]);
        lane.next = lane.queue.size();
        lane.remaining = 0.0;
        lane.busy = false;
        if (orphans.empty()) return;
        std::vector<double> rem(nlanes, 0.0);
        std::vector<bool> alive(nlanes, false);
        for (std::size_t k = 0; k < nlanes; ++k) {
          rem[k] = lanes[k].remaining;
          alive[k] = health.alive(static_cast<int>(k));
        }
        const std::vector<Reassignment> moves = reshard_orphans(
            orphans, static_cast<int>(l), task_cost_, rem, alive);
        for (const Reassignment& m : moves) {
          journal.append(RecordType::TaskReassigned,
                         reassigned_payload(m.task, m.from, m.to, false));
          lanes[static_cast<std::size_t>(m.to)].queue.push_back(m.task);
          ++outcome.tasks_reassigned;
          telemetry::counter("serve.tasks_reassigned").add(1);
        }
        for (std::size_t k = 0; k < nlanes; ++k) lanes[k].remaining = rem[k];
      };
      // Lane `l` is dead in the health model (modeled deadline misses or
      // a dead worker process): journal it and re-shard its work.
      const auto lane_lost = [&](std::size_t l, std::uint64_t e) {
        const int li = static_cast<int>(l);
        telemetry::counter("serve.lane_deaths").add(1);
        journal.append(RecordType::LaneDead, lane_dead_payload(li, e));
        log_warn("serve: lane ", li, " declared dead at epoch ", e,
                 "; re-sharding its tasks");
        if (health.alive_count() == 0)
          throw all_dead_error();  // nothing left to re-shard onto
        reshard_from(l);
      };

      // A failed attempt: journal it and charge the retry budget.
      const auto fail = [&](const SolveTask& task, int attempt,
                            const std::string& why) {
        journal.append(RecordType::TaskFailed,
                       failed_payload(task, attempt, why));
        ++outcome.transient_failures;
        telemetry::counter("serve.transient_failures").add(1);
        if (attempt >= spec_.max_retries)
          throw FatalError("task " + std::to_string(task.id) +
                           " exhausted its retry budget (" +
                           std::to_string(spec_.max_retries) + "): " + why);
        telemetry::counter("serve.task_retries").add(1);
        log_warn("serve: task ", task.id, " attempt ", attempt,
                 " failed transiently (", why, "), retrying");
      };
      // Dispatch attempt `attempt` of lane l's current task to its
      // worker. A scheduled kill lands after the Running frame: the exact
      // crash window (daemon died mid-solve) the resume path must cover.
      // An injected drop (modeled lost lane / preempted node) fails the
      // attempt before it leaves the coordinator.
      const auto dispatch = [&](std::size_t l, int attempt) {
        LaneExec& lane = lanes[l];
        const int li = static_cast<int>(l);
        const SolveTask& task =
            tasks_[static_cast<std::size_t>(lane.queue[lane.next])];
        for (;; ++attempt) {
          journal.append(RecordType::TaskRunning,
                         running_payload(task, li, attempt));
          if (faults && faults->should_kill(lane.epoch, li)) {
            faults->record_kill();
            telemetry::counter("serve.kills").add(1);
            throw TransientError("service killed at epoch " +
                                 std::to_string(lane.epoch) + " (task " +
                                 std::to_string(task.id) +
                                 "); rerun to resume");
          }
          if (!(faults && faults->should_drop(lane.epoch, li, 0, 0, attempt)))
            break;
          fail(task, attempt, "injected transient fault");
        }
        tp.send(li + 1, make_seq_tag(TagKind::kTask, sent[l]++),
                as_bytes(dispatch_payload(task.id, attempt)));
        lane.busy = true;
        lane.attempt = attempt;
        if (step) step(li + 1);
      };
      // Take every result lane l's worker has sent; a failed attempt is
      // retried at once. True if any result arrived.
      std::vector<std::byte> buf;
      const auto collect = [&](std::size_t l) {
        LaneExec& lane = lanes[l];
        const int li = static_cast<int>(l);
        bool any = false;
        while (lane.busy &&
               tp.try_recv(li + 1, make_seq_tag(TagKind::kResult, lane.recvd),
                           buf)) {
          ++lane.recvd;
          any = true;
          lane.busy = false;
          const int tid = lane.queue[lane.next];
          const std::string_view r = as_view(buf);
          if (r.substr(0, 3) != "ok\n") {
            fail(tasks_[static_cast<std::size_t>(tid)], lane.attempt,
                 std::string(r.substr(std::min<std::size_t>(r.size(), 4))));
            dispatch(l, lane.attempt + 1);
            continue;
          }
          // First TaskDone wins; a replica's late twin is dropped.
          if (done.insert(tid).second) {
            journal.append(RecordType::TaskDone, std::string(r.substr(3)));
            telemetry::counter("serve.tasks_done").add(1);
            telemetry::counter("serve.columns_solved").add(Ns * Nc);
            ++outcome.completed;
            if (speculated.count(tid) && spec_owner[tid] != li) {
              ++outcome.speculative_wins;  // the replica beat the straggler
              telemetry::counter("serve.speculative_wins").add(1);
            }
          }
          advance(lane);
          health.heartbeat(li);  // on-time completion: suspect recovers
        }
        return any;
      };

      // A previous life may have died between LaneDead and the full batch
      // of TaskReassigned frames; finish the hand-off deterministically.
      if (health.alive_count() == 0 && unfinished() > 0)
        throw all_dead_error();
      for (std::size_t l = 0; l < nlanes; ++l)
        if (replay_dead[l]) reshard_from(l);

      std::uint64_t epoch = 0;
      const auto pending = [&] {
        for (std::size_t l = 0; l < nlanes; ++l)
          if (health.alive(static_cast<int>(l)) &&
              lanes[l].next < lanes[l].queue.size())
            return true;
        return false;
      };
      while (pending()) {
        // One scheduling round: every alive lane gets one slot, epochs
        // numbering the slots globally and deterministically. With no
        // lane faults this degenerates to plain wave execution.
        bool progress = false;
        for (std::size_t l = 0; l < nlanes; ++l) {
          LaneExec& lane = lanes[l];
          const int li = static_cast<int>(l);
          if (!health.alive(li)) continue;

          // A worker process died (socket EOF, shm dead flag).
          if (!tp.peer_alive(li + 1)) {
            health.mark_dead(li);
            lane_lost(l, epoch);
            progress = true;
            continue;
          }
          if (lane.busy) {  // real transports only: poll, no epoch
            progress = collect(l) || progress;
            continue;
          }
          if (lane.next >= lane.queue.size()) continue;
          const std::uint64_t e = epoch++;
          progress = true;
          const int tid = lane.queue[lane.next];

          // Dead-lane silence: no heartbeat by the modeled deadline.
          if (faults && faults->lane_dead(e, li)) {
            telemetry::counter("serve.deadline_misses").add(1);
            if (health.miss(li) == LaneHealth::Dead) {
              faults->record_lane_death();
              lane_lost(l, e);
            }
            continue;
          }

          // A straggler still grinding through its modeled slowdown.
          if (lane.stall > 0) {
            --lane.stall;
            continue;
          }

          if (done.count(tid)) {  // finished in a previous life, or the
                                  // other replica won the race
            advance(lane);
            continue;
          }

          // Straggle: the modeled slowdown blows the heartbeat deadline.
          // The lane turns suspect and keeps grinding (stall slots); the
          // task is speculatively replicated onto the least-loaded
          // healthy lane, and whichever copy finishes first wins.
          if (faults && !lane.straggled.count(tid)) {
            const double mult = faults->task_straggle_mult(e, li);
            if (mult > spec_.heartbeat_margin) {
              lane.straggled.insert(tid);
              lane.stall = std::max(1, static_cast<int>(std::lround(mult)) -
                                           1);
              health.suspect(li);
              log_warn("serve: lane ", li, " straggling on task ", tid,
                       " (", mult, "x modeled time)");
              if (spec_.speculate && !speculated.count(tid)) {
                int rescue = -1;
                for (std::size_t k = 0; k < nlanes; ++k) {
                  if (k == l ||
                      health.health(static_cast<int>(k)) !=
                          LaneHealth::Healthy)
                    continue;
                  if (rescue < 0 ||
                      lanes[k].remaining <
                          lanes[static_cast<std::size_t>(rescue)].remaining)
                    rescue = static_cast<int>(k);
                }
                if (rescue >= 0) {
                  speculated.insert(tid);
                  spec_owner[tid] = li;
                  LaneExec& to = lanes[static_cast<std::size_t>(rescue)];
                  to.queue.push_back(tid);
                  to.remaining += cost(tid);
                  journal.append(RecordType::TaskReassigned,
                                 reassigned_payload(tid, li, rescue, true));
                  ++outcome.speculative_tasks;
                  telemetry::counter("serve.speculative_tasks").add(1);
                }
              }
              continue;
            }
          }

          lane.epoch = e;
          dispatch(l, 0);
          collect(l);
        }
        // Only a real transport can leave every lane waiting on a worker.
        if (!progress)
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      if (unfinished() > 0)
        throw all_dead_error();  // drained with work left: no lane survived

      outcome.lanes_lost = health.dead_count();
      journal.append(RecordType::CampaignEnd, "{}");
    }
    stop_workers();
  } catch (...) {
    stop_workers();
    throw;
  }
  outcome.degraded = outcome.lanes_lost > 0;
  outcome.finished = true;
  outcome.seconds = timer.seconds();
  telemetry::counter("serve.campaigns").add(1);
  write_campaign_result(spec_, replay_journal(journal_path()).records,
                        outcome);
  return outcome;
}

void write_campaign_result(const CampaignSpec& spec,
                           const std::vector<Record>& records,
                           const CampaignOutcome& outcome) {
  // Degraded-mode figures are campaign-cumulative, so recount them from
  // the journal rather than trusting this run's outcome (a resume sees
  // only the deltas). Speculative wins are execution-time facts the
  // journal deliberately cannot name (TaskDone payloads carry no lane),
  // so those come from the outcome.
  std::set<int> dead_lanes;
  int tasks_reassigned = 0;
  int speculative_tasks = 0;
  for (const Record& rec : records) {
    if (rec.type == RecordType::LaneDead) {
      dead_lanes.insert(
          json::Value::parse(rec.payload).get_or("lane", -1));
    } else if (rec.type == RecordType::TaskReassigned) {
      const bool spec = json::Value::parse(rec.payload)
                            .get_or("reason", std::string()) ==
                        "speculative";
      ++(spec ? speculative_tasks : tasks_reassigned);
    }
  }
  json::Writer w;
  w.begin_object()
      .field("schema", kResultSchema)
      .field("name", spec.name)
      .field("fingerprint",
             static_cast<std::int64_t>(spec_fingerprint(spec)))
      .field("tasks_total", outcome.total)
      .field("tasks_skipped", outcome.skipped)
      .field("tasks_completed", outcome.completed)
      .field("transient_failures", outcome.transient_failures)
      .field("lanes_lost", static_cast<int>(dead_lanes.size()))
      .field("tasks_reassigned", tasks_reassigned)
      .field("speculative_tasks", speculative_tasks)
      .field("speculative_wins", outcome.speculative_wins)
      .field("degraded", !dead_lanes.empty())
      .field("seconds", outcome.seconds);
  // Every task's first TaskDone payload, in task order (the journal is
  // append order; resumes interleave and a speculative loser may journal
  // a duplicate — first wins, results should carry exactly one per task).
  std::vector<std::pair<int, const Record*>> results;
  std::set<int> seen;
  for (const Record& rec : records)
    if (rec.type == RecordType::TaskDone) {
      const int id =
          static_cast<int>(json::Value::parse(rec.payload)
                               .get_or("task", std::int64_t{-1}));
      if (seen.insert(id).second) results.emplace_back(id, &rec);
    }
  std::sort(results.begin(), results.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  w.key("results").begin_array();
  for (const auto& [id, rec] : results) w.raw(rec->payload);
  w.end_array();
  // The lqcd.telemetry/1 report rides along, serve.* counters included.
  w.key("telemetry").raw(telemetry::report_json(false));
  w.end_object();
  atomic_write_file(spec.output + "/result.json",
                    [&](std::ostream& os) { os << w.str() << "\n"; });
}

CampaignStatus CampaignService::status(const std::string& journal_path) {
  CampaignStatus st;
  const ReplayResult replay = replay_journal(journal_path);
  st.frames = replay.records.size();
  st.truncated_bytes = replay.truncated_bytes;
  if (replay.records.empty()) return st;
  st.journal_found = true;
  std::set<int> done;
  std::set<int> dead_lanes;
  std::unordered_map<int, int> open_runs;
  for (const Record& rec : replay.records) {
    const auto task_of = [&rec]() {
      return static_cast<int>(json::Value::parse(rec.payload)
                                  .get_or("task", std::int64_t{-1}));
    };
    switch (rec.type) {
      case RecordType::CampaignBegin: {
        const json::Value head = json::Value::parse(rec.payload);
        st.total = head.get_or("tasks", 0);
        st.fingerprint = static_cast<std::uint32_t>(
            head.get_or("fingerprint", std::int64_t{0}));
        break;
      }
      case RecordType::TaskRunning: ++open_runs[task_of()]; break;
      case RecordType::TaskDone:
        done.insert(task_of());
        open_runs[task_of()] = 0;
        break;
      case RecordType::TaskFailed:
        ++st.failed_attempts;
        open_runs[task_of()] = 0;
        break;
      case RecordType::CampaignEnd: st.finished = true; break;
      case RecordType::LaneDead:
        dead_lanes.insert(
            json::Value::parse(rec.payload).get_or("lane", -1));
        break;
      case RecordType::TaskReassigned: {
        const bool spec = json::Value::parse(rec.payload)
                              .get_or("reason", std::string()) ==
                          "speculative";
        ++(spec ? st.speculative_tasks : st.tasks_reassigned);
        break;
      }
    }
  }
  st.done = static_cast<int>(done.size());
  st.lanes_lost = static_cast<int>(dead_lanes.size());
  for (const auto& [task, open] : open_runs) st.in_flight += open > 0;
  return st;
}

}  // namespace lqcd::serve
