#include "comm/halo.hpp"

namespace lqcd {

HaloLattice::HaloLattice(const Coord& local_dims) : l_(local_dims) {
  interior_vol_ = 1;
  ext_vol_ = 1;
  for (int mu = 0; mu < Nd; ++mu) {
    LQCD_REQUIRE(l_[mu] >= 2, "local extent must be >= 2 for depth-1 halos");
    e_[mu] = l_[mu] + 2;
    interior_vol_ *= l_[mu];
    stride_[static_cast<std::size_t>(mu)] = ext_vol_;
    ext_vol_ *= e_[mu];
  }
  // Overlap partition: sites >= 1 away from every local face have their
  // full stencil closed over resident data and can be computed while the
  // halo exchange is in flight; the rest wait for the ghosts. The parity
  // split ((x0+x1+x2+x3) mod 2 of the local coordinate) serves the
  // even-odd operators, which sweep one checkerboard at a time.
  for (std::int64_t i = 0; i < interior_vol_; ++i) {
    const Coord x = interior_coords(i);
    bool deep = true;
    for (int mu = 0; mu < Nd; ++mu)
      deep = deep && x[mu] > 0 && x[mu] < l_[mu] - 1;
    const auto par =
        static_cast<std::size_t>((x[0] + x[1] + x[2] + x[3]) & 1);
    (deep ? interior_all_ : surface_all_).push_back(i);
    (deep ? interior_par_ : surface_par_)[par].push_back(i);
  }
}

}  // namespace lqcd
