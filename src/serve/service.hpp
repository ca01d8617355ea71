#pragma once
// The propagator campaign service: drains a CampaignSpec's task queue
// through the journal, surviving kills and retrying transient faults.
//
// One run() call executes the shard plan wave by wave (each wave gives
// every lane its next task, mimicking the parallel cluster the spec
// models). Per task the lifecycle is
//
//   journal TaskRunning -> solve 12 columns (block solver) -> contract
//   pion -> journal TaskDone(result payload)
//
// so a kill at any instant loses at most the task in flight: on the next
// run() the journal replay marks every TaskDone task finished and the
// scheduler skips it without touching the gauge field — the "resume
// without recomputing finished propagator columns" contract, asserted by
// tests/test_serve.cpp.
//
// Failure taxonomy (util/error.hpp): an injected drop or an unconverged
// solve raises TransientError handling — journal TaskFailed, retry up to
// spec.max_retries (block_cg campaigns retry on the scalar eo_cg pipeline,
// which has full breakdown recovery); an exhausted budget escalates to
// FatalError and stops the campaign. A scheduled kill from the
// FaultInjector rethrows as TransientError("service killed") after the
// TaskRunning frame, exactly the crash window the journal protects.
//
// Lane-failure recovery (serve/health.hpp): lanes heartbeat on modeled
// deadlines (heartbeat_margin x modeled_task_seconds). A silent lane goes
// healthy -> suspect -> dead; on death the scheduler LPT-redistributes
// its remaining tasks over the survivors and journals the decisions as
// LaneDead / TaskReassigned frames, so a killed-and-resumed run replays
// the identical recovery plan. A straggling task on a suspect lane is
// speculatively replicated onto the least-loaded healthy lane; whichever
// copy journals TaskDone first wins, the other skips (TaskDone payloads
// are task-level deterministic, so the winner's bytes are identical
// either way). The campaign completes in degraded mode on whatever lanes
// survive; only when every lane is dead does run() raise FatalError.
//
// TaskDone payloads are deterministic (no wall-clock fields), so a killed
// + resumed campaign journals byte-identical results to an uninterrupted
// one. Wall time and rates go to telemetry (serve.* counters) and the
// final result.json instead.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "comm/fault.hpp"
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
  /// Write <output>/result.json when the campaign completes.
  bool write_result = true;
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
/// makes the virtual service and the multi-process coordinator journal
/// identical results for identical work, and lets CI diff them.
/// Throws TransientError on an unconverged solve.
[[nodiscard]] std::string solve_task_payload(const CampaignSpec& spec,
                                             const LatticeGeometry& geo,
                                             const GaugeFieldD& config,
                                             const SolveTask& task,
                                             int attempt);

// Journal payloads of the coordinator's other frames, shared by the
// virtual service and the distributed coordinator so both journal
// byte-identical frames for identical decisions.

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

/// Write <spec.output>/result.json from a replayed journal (shared by
/// the virtual service and the distributed coordinator).
void write_campaign_result(const CampaignSpec& spec,
                           const std::vector<Record>& records,
                           const CampaignOutcome& outcome);

class CampaignService {
 public:
  explicit CampaignService(CampaignSpec spec, ServiceOptions opts = {});
  ~CampaignService();

  /// Execute (or resume) the campaign. Throws TransientError on a
  /// scheduled kill (rerun to resume), FatalError when a task exhausts
  /// its retry budget or the journal belongs to a different spec.
  CampaignOutcome run();

  [[nodiscard]] const CampaignSpec& spec() const { return spec_; }
  [[nodiscard]] const ShardPlan& plan() const { return plan_; }
  [[nodiscard]] std::string journal_path() const;

  /// Summarize a journal without touching gauge data.
  [[nodiscard]] static CampaignStatus status(const std::string& journal_path);

 private:
  struct TaskRun;  // per-task execution state (service.cpp)

  void execute_task(Journal& journal, const SolveTask& task, int lane,
                    std::uint64_t epoch);
  [[nodiscard]] const GaugeFieldD& config(int index);
  void write_result_json(const std::vector<Record>& records,
                         const CampaignOutcome& outcome) const;

  CampaignSpec spec_;
  ServiceOptions opts_;
  std::vector<SolveTask> tasks_;
  ShardPlan plan_;
  LatticeGeometry geo_;
  std::vector<double> task_cost_;  ///< modeled seconds per task id
  // Gauge configs stay resident once loaded (campaign lattices are small;
  // the lanes revisit them every wave).
  std::vector<std::unique_ptr<GaugeFieldD>> configs_;
};

}  // namespace lqcd::serve
