#pragma once
// Deterministic task sharding for the campaign service.
//
// The campaign coordinator (serve/service.hpp) shards over `ranks` lanes,
// one per worker: in-process workers, or worker processes under
// lqcd_launch. Both are priced on the spec's modeled machine (the same
// modeling stance as comm/machine.hpp), never on wall-clock time. Tasks
// are assigned to lanes by LPT (longest-processing-time-first) greedy
// bin packing over a modeled cost, with deterministic tie-breaking —
// identical specs always shard identically, which the journal replay
// tests rely on.
//
// Cost model: a solve at hopping parameter kappa costs roughly
// iterations x dslash work, and CG iteration counts blow up as kappa
// approaches the critical value — modeled as 1/(0.25 - kappa). The
// machine preset converts that to modeled seconds (so lane balance
// reflects the machine the spec targets, not wall-clock of this host).
//
// Within a lane, tasks execute config-major (then by id): consecutive
// tasks reuse the resident gauge field and per-kappa solver setup — the
// DAG edge "config loaded before task runs" becomes "config stays loaded
// across its run of tasks".

#include <vector>

#include "comm/machine.hpp"
#include "lattice/geometry.hpp"
#include "serve/spec.hpp"

namespace lqcd::serve {

struct ShardPlan {
  std::vector<int> lane_of;                ///< task id -> lane
  std::vector<std::vector<int>> lanes;     ///< lane -> task ids, run order
  std::vector<double> modeled_seconds;     ///< lane -> modeled busy time

  /// Makespan / mean lane time (1.0 = perfectly balanced).
  [[nodiscard]] double imbalance() const;
};

/// Modeled cost (seconds on `machine`) of one task of the campaign.
[[nodiscard]] double modeled_task_seconds(const CampaignSpec& spec,
                                          const SolveTask& task,
                                          const LatticeGeometry& geo,
                                          const MachineModel& machine);

/// Shard `tasks` over spec.ranks lanes (LPT over modeled cost,
/// deterministic ties, config-major execution order within a lane).
[[nodiscard]] ShardPlan shard_tasks(const CampaignSpec& spec,
                                    const std::vector<SolveTask>& tasks,
                                    const LatticeGeometry& geo,
                                    const MachineModel& machine);

/// One recovery decision: `task` moves from a dead lane to a survivor.
struct Reassignment {
  int task = 0;
  int from = 0;
  int to = 0;
};

/// Redistribute the `orphans` a dead lane left behind: LPT over the
/// orphans' modeled cost onto the alive lane with the least remaining
/// modeled work, deterministic ties (cost desc, task id asc, lane index
/// asc). `remaining_seconds` is updated in place so successive deaths
/// compose; `task_seconds[id]` prices task `id`. Orphans are returned in
/// decision order — the order the journal records them in, which is the
/// order a resumed run replays them.
[[nodiscard]] std::vector<Reassignment> reshard_orphans(
    const std::vector<int>& orphans, int from_lane,
    const std::vector<double>& task_seconds,
    std::vector<double>& remaining_seconds, const std::vector<bool>& alive);

}  // namespace lqcd::serve
