#include "serve/service.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <set>
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

void CampaignService::execute_task(Journal& journal, const SolveTask& task,
                                   int lane, std::uint64_t epoch) {
  for (int attempt = 0;; ++attempt) {
    journal.append(RecordType::TaskRunning,
                   running_payload(task, lane, attempt));
    // A scheduled kill lands after the Running frame: the exact crash
    // window (daemon died mid-solve) the resume path must cover.
    if (opts_.faults && opts_.faults->should_kill(epoch, lane)) {
      opts_.faults->record_kill();
      telemetry::counter("serve.kills").add(1);
      throw TransientError("service killed at epoch " +
                           std::to_string(epoch) + " (task " +
                           std::to_string(task.id) + "); rerun to resume");
    }
    try {
      // Injected transient fault (modeled lost lane / preempted node).
      if (opts_.faults &&
          opts_.faults->should_drop(epoch, lane, 0, 0, attempt))
        throw TransientError("injected transient fault");

      journal.append(RecordType::TaskDone,
                     solve_task_payload(spec_, geo_, config(task.config),
                                        task, attempt));
      telemetry::counter("serve.tasks_done").add(1);
      telemetry::counter("serve.columns_solved").add(Ns * Nc);
      return;
    } catch (const TransientError& e) {
      journal.append(RecordType::TaskFailed,
                     failed_payload(task, attempt, e.what()));
      telemetry::counter("serve.transient_failures").add(1);
      if (attempt >= spec_.max_retries)
        throw FatalError("task " + std::to_string(task.id) +
                         " exhausted its retry budget (" +
                         std::to_string(spec_.max_retries) +
                         "): " + e.what());
      telemetry::counter("serve.task_retries").add(1);
      log_warn("serve: task ", task.id, " attempt ", attempt,
               " failed transiently (", e.what(), "), retrying");
    }
  }
}

CampaignOutcome CampaignService::run() {
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

  if (!ended) {
    // Per-lane execution state, seeded from the static shard plan with
    // the journaled recovery decisions replayed on top.
    struct LaneExec {
      std::vector<int> queue;
      std::size_t next = 0;
      double remaining = 0.0;  ///< modeled seconds of unfinished work
      int stall = 0;           ///< slots left grinding on a straggler
      std::set<int> straggled; ///< tasks already straggled on this lane
    };
    std::vector<LaneExec> lanes(nlanes);
    for (std::size_t l = 0; l < nlanes; ++l)
      lanes[l].queue = plan_.lanes[l];

    LaneHealthModel health(static_cast<int>(nlanes), spec_.deadline_misses);
    std::set<int> speculated;       // tasks with a live replica
    std::map<int, int> spec_owner;  // replica task -> original lane
    for (const Move& m : replay_moves) {
      const bool lane_ok = m.from >= 0 && m.from < static_cast<int>(nlanes) &&
                           m.to >= 0 && m.to < static_cast<int>(nlanes);
      if (!lane_ok) continue;
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

    // Re-shard a dead lane's unfinished tasks over the survivors (LPT by
    // remaining modeled seconds) and journal each decision.
    const auto reshard_from = [&](std::size_t l) {
      LaneExec& lane = lanes[l];
      std::vector<int> orphans;
      for (std::size_t i = lane.next; i < lane.queue.size(); ++i)
        if (!done.count(lane.queue[i])) orphans.push_back(lane.queue[i]);
      lane.next = lane.queue.size();
      lane.remaining = 0.0;
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

    // A previous life may have died between LaneDead and the full batch
    // of TaskReassigned frames; finish the hand-off deterministically.
    if (health.alive_count() == 0 && unfinished() > 0)
      throw all_dead_error();
    for (std::size_t l = 0; l < nlanes; ++l)
      if (replay_dead[l]) reshard_from(l);

    std::uint64_t epoch = 0;
    const std::int64_t t0 = telemetry::counter("serve.transient_failures")
                                .value();
    while (true) {
      bool pending = false;
      for (std::size_t l = 0; l < nlanes && !pending; ++l)
        pending = health.alive(static_cast<int>(l)) &&
                  lanes[l].next < lanes[l].queue.size();
      if (!pending) break;

      // One scheduling round: every alive lane gets one slot, epochs
      // numbering the slots globally and deterministically (the fault
      // injector keys on them). With no lane faults this degenerates to
      // exactly the original wave execution.
      for (std::size_t l = 0; l < nlanes; ++l) {
        LaneExec& lane = lanes[l];
        const int li = static_cast<int>(l);
        if (!health.alive(li) || lane.next >= lane.queue.size()) continue;
        const std::uint64_t e = epoch++;
        const int tid = lane.queue[lane.next];

        // Dead-lane silence: no heartbeat by the modeled deadline.
        if (opts_.faults && opts_.faults->lane_dead(e, li)) {
          telemetry::counter("serve.deadline_misses").add(1);
          if (health.miss(li) == LaneHealth::Dead) {
            opts_.faults->record_lane_death();
            telemetry::counter("serve.lane_deaths").add(1);
            journal.append(RecordType::LaneDead, lane_dead_payload(li, e));
            log_warn("serve: lane ", li, " declared dead at epoch ", e,
                     "; re-sharding its tasks");
            if (health.alive_count() == 0)
              throw all_dead_error();  // nothing left to re-shard onto
            reshard_from(l);
          }
          continue;
        }

        // A straggler still grinding through its modeled slowdown.
        if (lane.stall > 0) {
          --lane.stall;
          continue;
        }

        const SolveTask& task = tasks_[static_cast<std::size_t>(tid)];
        if (done.count(tid)) {  // finished in a previous life, or the
                                // other replica won the race
          lane.remaining = std::max(
              0.0, lane.remaining - task_cost_[static_cast<std::size_t>(
                                        tid)]);
          ++lane.next;
          continue;
        }

        // Straggle: the modeled slowdown blows the heartbeat deadline.
        // The lane turns suspect and keeps grinding (stall slots); the
        // task is speculatively replicated onto the least-loaded healthy
        // lane, and whichever copy finishes first wins.
        if (opts_.faults && !lane.straggled.count(tid)) {
          const double mult = opts_.faults->task_straggle_mult(e, li);
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
                lanes[static_cast<std::size_t>(rescue)].queue.push_back(
                    tid);
                lanes[static_cast<std::size_t>(rescue)].remaining +=
                    task_cost_[static_cast<std::size_t>(tid)];
                journal.append(
                    RecordType::TaskReassigned,
                    reassigned_payload(tid, li, rescue, true));
                ++outcome.speculative_tasks;
                telemetry::counter("serve.speculative_tasks").add(1);
              }
            }
            continue;
          }
        }

        execute_task(journal, task, li, e);
        done.insert(tid);
        ++outcome.completed;
        lane.remaining = std::max(
            0.0,
            lane.remaining - task_cost_[static_cast<std::size_t>(tid)]);
        ++lane.next;
        health.heartbeat(li);  // on-time completion: suspect recovers
        if (speculated.count(tid) && spec_owner[tid] != li) {
          ++outcome.speculative_wins;  // the replica beat the straggler
          telemetry::counter("serve.speculative_wins").add(1);
        }
      }
    }
    if (static_cast<int>(done.size()) < outcome.total)
      throw all_dead_error();  // drained with work left: no lane survived

    outcome.transient_failures = static_cast<int>(
        telemetry::counter("serve.transient_failures").value() - t0);
    outcome.lanes_lost = health.dead_count();
    journal.append(RecordType::CampaignEnd, "{}");
  }
  outcome.degraded = outcome.lanes_lost > 0;
  outcome.finished = true;
  outcome.seconds = timer.seconds();
  telemetry::counter("serve.campaigns").add(1);

  if (opts_.write_result)
    write_result_json(replay_journal(journal_path()).records, outcome);
  return outcome;
}

void CampaignService::write_result_json(
    const std::vector<Record>& records,
    const CampaignOutcome& outcome) const {
  write_campaign_result(spec_, records, outcome);
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
