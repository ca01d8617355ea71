#include "serve/health.hpp"

#include "util/error.hpp"

namespace lqcd::serve {

LaneHealthModel::LaneHealthModel(int lanes, int deadline_misses)
    : health_(static_cast<std::size_t>(lanes), LaneHealth::Healthy),
      misses_(static_cast<std::size_t>(lanes), 0),
      deadline_misses_(deadline_misses) {
  LQCD_REQUIRE(lanes >= 1, "LaneHealthModel: need at least one lane");
  LQCD_REQUIRE(deadline_misses >= 1,
               "LaneHealthModel: deadline_misses must be >= 1");
}

LaneHealth LaneHealthModel::health(int lane) const {
  return health_.at(static_cast<std::size_t>(lane));
}

int LaneHealthModel::alive_count() const {
  int n = 0;
  for (const LaneHealth h : health_) n += h != LaneHealth::Dead;
  return n;
}

int LaneHealthModel::dead_count() const {
  return static_cast<int>(health_.size()) - alive_count();
}

void LaneHealthModel::heartbeat(int lane) {
  const auto l = static_cast<std::size_t>(lane);
  if (health_[l] == LaneHealth::Dead) return;  // death is permanent
  health_[l] = LaneHealth::Healthy;
  misses_[l] = 0;
}

LaneHealth LaneHealthModel::miss(int lane) {
  const auto l = static_cast<std::size_t>(lane);
  if (health_[l] == LaneHealth::Dead) return LaneHealth::Dead;
  if (++misses_[l] >= deadline_misses_) {
    health_[l] = LaneHealth::Dead;
  } else {
    health_[l] = LaneHealth::Suspect;
  }
  return health_[l];
}

void LaneHealthModel::suspect(int lane) {
  const auto l = static_cast<std::size_t>(lane);
  if (health_[l] == LaneHealth::Healthy) health_[l] = LaneHealth::Suspect;
}

void LaneHealthModel::mark_dead(int lane) {
  health_.at(static_cast<std::size_t>(lane)) = LaneHealth::Dead;
}

}  // namespace lqcd::serve
