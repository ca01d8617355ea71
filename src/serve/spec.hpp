#pragma once
// Campaign specifications for the propagator service.
//
// A campaign is the cross product {gauge configs} x {kappas} x {sources}:
// every combination is one *task* — a full 12-column propagator solve plus
// the pion contraction. Specs are JSON documents ("lqcd.campaign/1"); the
// parser validates against the solver factory's kind names and the
// spectro source-spec language, so a typo dies at submit time, not three
// hours into the queue.
//
// The task list is a flat DAG: tasks are mutually independent but each
// depends on its gauge configuration being resident, which is why task
// ids are assigned config-major — the scheduler keeps same-config tasks
// adjacent so one config load (and one solver setup per kappa) serves a
// run of tasks.
//
// canonical_json() re-serializes a spec in fixed key order; its CRC-32 is
// the campaign fingerprint stored in the journal, which is how a resume
// refuses to continue someone else's half-finished campaign.

#include <cstdint>
#include <string>
#include <vector>

#include "solver/factory.hpp"
#include "spectro/source.hpp"
#include "util/json.hpp"

namespace lqcd::serve {

inline constexpr const char* kSpecSchema = "lqcd.campaign/1";

/// One unit of queue work: all 12 propagator columns of (config, kappa,
/// source), solved with the campaign's configured pipeline.
struct SolveTask {
  int id = 0;          ///< dense 0..n-1, config-major order
  int config = 0;      ///< index into CampaignSpec::configs
  int kappa = 0;       ///< index into CampaignSpec::kappas
  int source = 0;      ///< index into CampaignSpec::sources
};

struct CampaignSpec {
  std::string name = "campaign";
  std::vector<std::string> configs;  ///< gauge configuration file paths
  std::vector<double> kappas;
  std::vector<std::string> sources;  ///< spectro source-spec strings

  // Solve pipeline (maps onto SolverConfig via the factory).
  SolverKind solver = SolverKind::BlockCg;
  double tol = 1e-9;
  int max_iterations = 20000;
  int block = 4;  ///< multi-RHS width fed to make_block_solver (1..12)

  // Scheduling.
  int ranks = 4;                     ///< lanes (workers) to shard over
  std::string machine = "cluster";   ///< comm/machine.hpp preset name
  int max_retries = 2;               ///< transient-failure budget per task

  // Lane-failure recovery (see serve/health.hpp). A lane whose current
  // task exceeds heartbeat_margin x modeled_task_seconds missed its
  // heartbeat; deadline_misses consecutive misses declare it dead and
  // re-shard its tasks. Suspect-lane stragglers are speculatively
  // re-executed on a healthy lane when `speculate` is set.
  double heartbeat_margin = 4.0;
  int deadline_misses = 2;
  bool speculate = true;

  std::string output = "campaign_out";  ///< journal + result directory

  [[nodiscard]] int num_tasks() const {
    return static_cast<int>(configs.size() * kappas.size() * sources.size());
  }
};

/// Parse and validate a spec document; throws lqcd::Error with the field
/// name on anything malformed.
[[nodiscard]] CampaignSpec parse_campaign(const json::Value& doc);

/// Read + parse a spec file.
[[nodiscard]] CampaignSpec load_campaign(const std::string& path);

/// Serialize in canonical (fixed) key order.
void write_campaign(json::Writer& w, const CampaignSpec& spec);
[[nodiscard]] std::string canonical_json(const CampaignSpec& spec);

/// CRC-32 of canonical_json(): identifies the campaign in the journal.
[[nodiscard]] std::uint32_t spec_fingerprint(const CampaignSpec& spec);

/// Expand the cross product into the task list, config-major
/// (config, then kappa, then source), ids dense from 0.
[[nodiscard]] std::vector<SolveTask> build_tasks(const CampaignSpec& spec);

}  // namespace lqcd::serve
