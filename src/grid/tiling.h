#pragma once

// TiDA-style tiling of a patch for the per-CPE scratch-pad (Sec V-B/V-D).
//
// When a kernel is scheduled on the CPE cluster, its patch is subdivided
// into tiles whose working set (all fields incl. ghost halo) fits the 64 KB
// LDM. The paper assigns tiles to CPEs by "naturally partitioning the
// blocks in the z dimension" (Sec V-D step 1): contiguous runs of z-slabs
// per CPE, which tiles_for_cpe() implements and which ignores per-tile
// load imbalance. sched/tile_policy.h layers the self-scheduled
// (dynamic/guided) assignments on top of this class; the Tiling itself only
// defines the tile geometry and ordering (x-fastest, then y, then z) that
// the shared grab counter walks.
//
// Like a CPE working out its tiles from its own id, a Tiling stores no
// tiles: tile(i) computes the clipped box from the index, so constructing
// one is a few integer ops and every CPE body can build its own.

#include <cstdint>
#include <vector>

#include "grid/box.h"
#include "grid/intvec.h"
#include "support/error.h"

namespace usw::grid {

class Tiling {
 public:
  /// Tiles `patch_cells` by `tile_shape`. Boundary tiles are clipped, so
  /// every cell belongs to exactly one tile.
  Tiling(const Box& patch_cells, IntVec tile_shape);

  IntVec tile_shape() const { return tile_shape_; }
  /// Number of tiles along each axis.
  IntVec tile_grid() const { return tile_grid_; }
  int num_tiles() const { return num_tiles_; }
  /// Tile `index` in x-fastest, then y, then z order, clipped to the patch.
  Box tile(int index) const {
    USW_ASSERT_MSG(index >= 0 && index < num_tiles_, "tile index out of range");
    const int per_slab = tile_grid_.x * tile_grid_.y;
    const IntVec t{index % tile_grid_.x, index % per_slab / tile_grid_.x,
                   index / per_slab};
    const IntVec lo = patch_.lo + t * tile_shape_;
    return Box{lo, IntVec::min(lo + tile_shape_, patch_.hi)};
  }
  /// Every tile, in index order. Builds a vector: keep it off hot paths.
  std::vector<Box> tiles() const;

  /// Tile indices assigned to `cpe_id` of `n_cpes`: z-slabs are divided
  /// contiguously and as evenly as possible among the CPEs.
  std::vector<int> tiles_for_cpe(int cpe_id, int n_cpes) const;

  /// Bytes of LDM needed to stage one full (unclipped) tile of a kernel
  /// that reads one field with `ghost` halo layers and writes one field,
  /// with `bytes_per_cell` per field element. This is the value checked
  /// against the 64 KB limit when choosing the tile size (Sec VI-A).
  static std::uint64_t working_set_bytes(IntVec tile_shape, int ghost,
                                         std::uint64_t bytes_per_cell,
                                         int fields_read, int fields_written);

 private:
  Box patch_;
  IntVec tile_shape_;
  IntVec tile_grid_;
  int num_tiles_ = 0;
};

}  // namespace usw::grid
