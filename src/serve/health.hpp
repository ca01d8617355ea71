#pragma once
// Lane health model for the campaign service.
//
// The service mirrors how a petascale campaign runner reasons about its
// workers: every lane is expected to heartbeat within a modeled deadline
// (heartbeat_margin x modeled_task_seconds of its current task). A lane
// that misses one deadline is *suspect* — still scheduled, but its
// in-flight straggler becomes a speculation candidate. A lane that keeps
// missing deadlines (deadline_misses in a row, default 2) is declared
// *dead* and leaves the rotation permanently; its remaining tasks are
// LPT-redistributed over the survivors. A suspect lane that completes a
// task on time recovers to healthy.
//
// Transitions are driven only by the campaign coordinator's slot loop
// (serve/service.hpp), the one place lane health lives: modeled deadline
// misses and heartbeats, and mark_dead() for a journaled LaneDead or a
// worker process that really died. In-process, health decisions — like
// everything else in the service — are a pure function of (spec, fault
// schedule, journal).

#include <vector>

namespace lqcd::serve {

enum class LaneHealth { Healthy, Suspect, Dead };

class LaneHealthModel {
 public:
  /// `deadline_misses` consecutive missed deadlines declare a lane dead.
  LaneHealthModel(int lanes, int deadline_misses);

  [[nodiscard]] LaneHealth health(int lane) const;
  [[nodiscard]] bool alive(int lane) const {
    return health(lane) != LaneHealth::Dead;
  }
  [[nodiscard]] int alive_count() const;
  [[nodiscard]] int dead_count() const;
  [[nodiscard]] int lanes() const { return static_cast<int>(health_.size()); }

  /// A heartbeat arrived within its deadline (task completed on time):
  /// suspect lanes recover, the miss streak resets.
  void heartbeat(int lane);

  /// A modeled deadline passed with no heartbeat (dead lane silence).
  /// Returns the new health: Suspect on the first miss, Dead once the
  /// streak reaches the configured limit.
  LaneHealth miss(int lane);

  /// A straggler blew through its deadline but the lane still responds:
  /// mark suspect without advancing the death streak.
  void suspect(int lane);

  /// Force-mark dead (replaying a journaled LaneDead decision, or a
  /// worker process the transport saw die).
  void mark_dead(int lane);

 private:
  std::vector<LaneHealth> health_;
  std::vector<int> misses_;
  int deadline_misses_;
};

}  // namespace lqcd::serve
