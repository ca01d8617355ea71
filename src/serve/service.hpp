#pragma once
// The propagator campaign service: drains a CampaignSpec's task queue
// through the journal, surviving kills, lane deaths and transient faults.
//
// One coordinator runs every campaign. It sits on rank 0 of a transport
// group whose ranks 1..N are the lanes' workers, owns the journal, and
// makes every scheduling decision: the shard plan, lane health,
// straggler speculation, the retry budget and re-sharding. A worker only
// solves: it receives a task on the kTask tag stream, calls
// solve_task_payload() and sends the payload back on the kResult stream.
// Two entry points drive the same coordinator:
//
//   CampaignService::run()      rank 0 of make_inprocess_group(ranks + 1).
//                               Each worker endpoint is stepped inline
//                               right after a dispatch to it, so tasks run
//                               one at a time on the calling thread with
//                               the whole thread pool (no lane threads),
//                               and the workers share one config cache.
//   run_distributed_campaign()  rank 0 of a live group (lqcd_launch); the
//                               other ranks loop on the worker body, each
//                               with its own config cache.
//
// Per task the lifecycle is
//
//   journal TaskRunning -> solve 12 columns (block solver) -> contract
//   pion -> journal TaskDone(result payload)
//
// so a kill at any instant loses at most the task in flight: on the next
// run the journal replay marks every TaskDone task finished and the
// scheduler skips it without touching the gauge field — the "resume
// without recomputing finished propagator columns" contract, asserted by
// tests/test_serve.cpp. Both modes journal the same frame vocabulary
// under the same fingerprint, so a campaign started in one mode can be
// resumed in the other, provided the lane counts agree.
//
// Scheduling: the coordinator visits the lanes round-robin. Each visit
// to an alive lane with queued work takes one epoch (the fault
// injector's key) and spends it on exactly one of: a modeled deadline
// miss, a straggler stall, skipping a finished task, a straggle, or a
// dispatch. A retry reuses its slot's epoch. A lane whose task is still
// in flight — which only happens on a real transport — is polled without
// taking an epoch. In-process every dispatch settles within its slot, so
// the decisions are a pure function of (spec, fault schedule, journal).
//
// Failure taxonomy (util/error.hpp): an injected drop or an unconverged
// solve is a transient failure — journal TaskFailed, retry up to
// spec.max_retries (block_cg campaigns retry on the scalar eo_cg
// pipeline, which has full breakdown recovery); an exhausted budget
// escalates to FatalError and stops the campaign. A scheduled kill from
// the FaultInjector rethrows as TransientError("service killed") after
// the TaskRunning frame, exactly the crash window the journal protects.
// The modeled faults (kills, drops, lane deaths, straggles) drive
// in-process runs only.
//
// Lane-failure recovery (serve/health.hpp): lanes heartbeat on modeled
// deadlines (heartbeat_margin x modeled_task_seconds). A silent lane goes
// healthy -> suspect -> dead; a worker process that really dies (socket
// EOF, shm dead flag) is marked dead in the same health model. On death
// the coordinator journals LaneDead and LPT-redistributes the lane's
// unfinished tasks — the one in flight first — over the survivors as
// TaskReassigned frames, so a killed-and-resumed run replays the
// identical recovery plan. A straggling task on a suspect lane is
// speculatively replicated onto the least-loaded healthy lane; whichever
// copy finishes first journals TaskDone, the other is dropped (TaskDone
// payloads are task-level deterministic, so the winner's bytes are
// identical either way). The campaign completes in degraded mode on
// whatever lanes survive; only when every lane is dead does it raise
// FatalError. The env knob LQCD_WORKER_DIE_AFTER=K (set per rank by
// lqcd_launch --die-rank R --die-after-tasks K) makes a multi-process
// worker exit while holding its (K+1)-th task: the kill drill CI runs.
//
// TaskDone payloads are deterministic (no wall-clock fields), so a killed
// + resumed campaign journals byte-identical results to an uninterrupted
// one, and a multi-process campaign journals the results of an in-process
// run of the same spec — CI diffs the result.json "results" arrays of
// both modes. Wall time and rates go to telemetry (serve.* counters) and
// the final result.json instead.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "comm/fault.hpp"
#include "comm/transport/transport.hpp"
#include "gauge/gauge_field.hpp"
#include "serve/health.hpp"
#include "serve/journal.hpp"
#include "serve/scheduler.hpp"
#include "serve/spec.hpp"

namespace lqcd::serve {

inline constexpr const char* kResultSchema = "lqcd.campaign.result/1";

struct ServiceOptions {
  /// Optional deterministic fault injection (kills via schedule_kill,
  /// transient task failures via drop_prob). Not owned.
  FaultInjector* faults = nullptr;
};

struct CampaignOutcome {
  int total = 0;            ///< tasks in the spec
  int skipped = 0;          ///< finished in an earlier run, not recomputed
  int completed = 0;        ///< finished by this run
  int transient_failures = 0;  ///< failed attempts that were retried
  bool finished = false;    ///< CampaignEnd journaled
  double seconds = 0.0;     ///< wall time of this run

  // Degraded-mode accounting. lanes_lost / tasks_reassigned are
  // campaign-cumulative (journal-replayed deaths count); speculative
  // figures are this run's.
  int lanes_lost = 0;          ///< lanes declared dead
  int tasks_reassigned = 0;    ///< orphans re-sharded off dead lanes
  int speculative_tasks = 0;   ///< stragglers replicated this run
  int speculative_wins = 0;    ///< replicas that finished first this run
  bool degraded = false;       ///< completed with at least one lane lost
};

/// Journal-only campaign summary (for `lqcd_serve status`).
struct CampaignStatus {
  bool journal_found = false;
  std::uint64_t frames = 0;
  std::uint64_t truncated_bytes = 0;
  std::uint32_t fingerprint = 0;
  int total = 0;       ///< from CampaignBegin
  int done = 0;        ///< distinct tasks with TaskDone
  int failed_attempts = 0;
  int in_flight = 0;   ///< Running frames not followed by Done/Failed
  bool finished = false;
  int lanes_lost = 0;         ///< distinct lanes with a LaneDead frame
  int tasks_reassigned = 0;   ///< TaskReassigned frames (reason lane_dead)
  int speculative_tasks = 0;  ///< TaskReassigned frames (speculative)
};

/// Solve one task (12 propagator columns + pion contraction) and return
/// the TaskDone journal payload. Deterministic bytes for a given (spec,
/// task, attempt): no wall-clock fields, fixed key order — which is what
/// makes in-process and multi-process campaigns journal identical results
/// for identical work, and lets CI diff them.
/// Throws TransientError on an unconverged solve.
[[nodiscard]] std::string solve_task_payload(const CampaignSpec& spec,
                                             const LatticeGeometry& geo,
                                             const GaugeFieldD& config,
                                             const SolveTask& task,
                                             int attempt);

// Journal payloads of the coordinator's other frames.

/// CampaignBegin: spec name, fingerprint and task count.
[[nodiscard]] std::string begin_payload(const CampaignSpec& spec);
/// TaskRunning: `task` started on `lane`, attempt number `attempt`.
[[nodiscard]] std::string running_payload(const SolveTask& task, int lane,
                                          int attempt);
/// TaskFailed: attempt `attempt` of `task` failed with `why`.
[[nodiscard]] std::string failed_payload(const SolveTask& task, int attempt,
                                         std::string_view why);
/// LaneDead: `lane` declared dead at scheduling epoch `epoch`.
[[nodiscard]] std::string lane_dead_payload(int lane, std::uint64_t epoch);
/// TaskReassigned: `task` moved from lane `from` to `to`, as a
/// speculative replica or off a dead lane.
[[nodiscard]] std::string reassigned_payload(int task, int from, int to,
                                             bool speculative);

/// Write <spec.output>/result.json from a replayed journal.
void write_campaign_result(const CampaignSpec& spec,
                           const std::vector<Record>& records,
                           const CampaignOutcome& outcome);

/// Execute (or resume) `spec` over a live transport group. Collective:
/// every rank of the group must call it. Returns a populated outcome on
/// rank 0; workers return a default outcome with finished=true (false if
/// the coordinator vanished). The spec's `ranks` field is overridden to
/// size-1 (the worker count). Throws FatalError (rank 0) when a task
/// exhausts its retry budget or every worker died with tasks remaining.
CampaignOutcome run_distributed_campaign(const CampaignSpec& spec,
                                         transport::Transport& tp);

class CampaignService {
 public:
  explicit CampaignService(CampaignSpec spec, ServiceOptions opts = {});
  ~CampaignService();

  /// Execute (or resume) the campaign over in-process workers and write
  /// <output>/result.json. Throws TransientError on a scheduled kill
  /// (rerun to resume), FatalError when a task exhausts its retry budget,
  /// every lane is dead, or the journal belongs to a different spec.
  CampaignOutcome run();

  [[nodiscard]] const ShardPlan& plan() const { return plan_; }
  [[nodiscard]] std::string journal_path() const;

  /// Summarize a journal without touching gauge data.
  [[nodiscard]] static CampaignStatus status(const std::string& journal_path);

 private:
  friend CampaignOutcome run_distributed_campaign(const CampaignSpec& spec,
                                                  transport::Transport& tp);
  struct WorkerStream;  // a worker's position in its message streams

  /// The coordinator, on rank 0 of `tp`. `step(rank)`, when set, runs
  /// that rank's worker body once, right after each dispatch to it.
  CampaignOutcome coordinate(transport::Transport& tp,
                             const std::function<void(int)>& step);
  /// The worker body, once: receive the coordinator's next message and,
  /// unless it is the stop message (returns false), solve the task and
  /// send the result back.
  bool serve_next(transport::Transport& tp, WorkerStream& ws);
  [[nodiscard]] const GaugeFieldD& config(int index);

  CampaignSpec spec_;
  ServiceOptions opts_;
  std::vector<SolveTask> tasks_;
  ShardPlan plan_;
  LatticeGeometry geo_;
  std::vector<double> task_cost_;  ///< modeled seconds per task id
  // Gauge configs stay resident once loaded (campaign lattices are small;
  // the lanes revisit them every wave). In-process workers share them.
  std::vector<std::unique_ptr<GaugeFieldD>> configs_;
};

}  // namespace lqcd::serve
