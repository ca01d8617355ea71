#pragma once
// Shared helpers for the experiment harness binaries.

#include <cstdio>
#include <fstream>
#include <span>
#include <string>

#include "gauge/gauge_field.hpp"
#include "gauge/heatbath.hpp"
#include "lattice/field.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/telemetry.hpp"

namespace lqcd::bench {

/// Write a finished json::Writer document to `path` (the --json artifact
/// every bench emits), with a trailing newline and a console note.
inline void write_json(const std::string& path, const json::Writer& w) {
  std::ofstream os(path);
  os << w.str() << "\n";
  if (!os) throw Error("failed to write " + path);
  std::printf("wrote %s\n", path.c_str());
}

/// Quenched, mildly thermalized configuration for solver experiments.
inline GaugeFieldD thermalized(const LatticeGeometry& geo, double beta,
                               std::uint64_t seed, int sweeps = 8) {
  GaugeFieldD u(geo);
  u.set_random(SiteRngFactory(seed));
  Heatbath hb(u, {.beta = beta, .or_per_hb = 1, .seed = seed + 1});
  for (int i = 0; i < sweeps; ++i) hb.sweep();
  return u;
}

inline void fill_gaussian(std::span<WilsonSpinorD> f, std::uint64_t seed) {
  SiteRngFactory rngs(seed);
  for (std::size_t i = 0; i < f.size(); ++i) {
    CounterRng rng = rngs.make(i);
    for (int s = 0; s < Ns; ++s)
      for (int c = 0; c < Nc; ++c)
        f[i].s[s].c[c] = Cplxd(rng.gaussian(), rng.gaussian());
  }
}

/// Fine-grid Dirac site applies so far: full-grid plus SAP block sweeps,
/// priced at the same rate. Needs telemetry enabled.
inline std::int64_t fine_applies_mark() {
  return telemetry::counter("dslash.site_applies").value() +
         telemetry::counter("dslash.block_site_applies").value();
}

/// Fine-grid Dirac applies per site since `mark`.
inline double fine_applies_since(std::int64_t mark, double volume) {
  return static_cast<double>(fine_applies_mark() - mark) / volume;
}

template <typename T>
std::span<const WilsonSpinor<T>> cspan(std::span<WilsonSpinor<T>> s) {
  return {s.data(), s.size()};
}

inline void rule(const char* title) {
  std::printf("\n--- %s ---\n", title);
}

}  // namespace lqcd::bench
