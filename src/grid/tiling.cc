#include "grid/tiling.h"

#include "support/error.h"

namespace usw::grid {

Tiling::Tiling(const Box& patch_cells, IntVec tile_shape)
    : patch_(patch_cells), tile_shape_(tile_shape) {
  if (tile_shape.x <= 0 || tile_shape.y <= 0 || tile_shape.z <= 0)
    throw ConfigError("tile shape must be positive: " + tile_shape.to_string());
  USW_ASSERT_MSG(!patch_cells.empty(), "tiling an empty patch");
  const IntVec size = patch_cells.size();
  tile_grid_ = IntVec{(size.x + tile_shape.x - 1) / tile_shape.x,
                      (size.y + tile_shape.y - 1) / tile_shape.y,
                      (size.z + tile_shape.z - 1) / tile_shape.z};
  num_tiles_ = static_cast<int>(tile_grid_.volume());
}

std::vector<Box> Tiling::tiles() const {
  std::vector<Box> out;
  out.reserve(static_cast<std::size_t>(num_tiles_));
  for (int t = 0; t < num_tiles_; ++t) out.push_back(tile(t));
  return out;
}

std::vector<int> Tiling::tiles_for_cpe(int cpe_id, int n_cpes) const {
  USW_ASSERT(cpe_id >= 0 && cpe_id < n_cpes);
  // Partition z-slabs contiguously: slab s goes to CPE s * n_cpes / nz.
  // Each slab carries all of its x-y tiles.
  const int nz = tile_grid_.z;
  const int per_slab = tile_grid_.x * tile_grid_.y;
  std::vector<int> out;
  for (int s = 0; s < nz; ++s) {
    if (static_cast<long>(s) * n_cpes / nz != cpe_id) continue;
    for (int t = 0; t < per_slab; ++t) out.push_back(s * per_slab + t);
  }
  return out;
}

std::uint64_t Tiling::working_set_bytes(IntVec tile_shape, int ghost,
                                        std::uint64_t bytes_per_cell,
                                        int fields_read, int fields_written) {
  USW_ASSERT(ghost >= 0 && fields_read >= 0 && fields_written >= 0);
  const IntVec g{ghost, ghost, ghost};
  const std::uint64_t ghosted =
      static_cast<std::uint64_t>((tile_shape + g * 2).volume());
  const std::uint64_t interior = static_cast<std::uint64_t>(tile_shape.volume());
  return bytes_per_cell * (ghosted * static_cast<std::uint64_t>(fields_read) +
                           interior * static_cast<std::uint64_t>(fields_written));
}

}  // namespace usw::grid
