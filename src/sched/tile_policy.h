#pragma once

// Tile scheduling policies for one CPE offload.
//
// The paper (Sec V-D step 1) statically partitions a patch's tiles across
// the 64 CPEs by z-slab. That leaves CPEs idle whenever the slab count does
// not divide evenly, boundary tiles are clipped, or per-cell work varies
// spatially — the imbalance real Sunway codes attack with atomic-counter
// self-scheduling (each CPE `faaw`s a shared next-tile index, fetches the
// tile, computes, repeats until the counter passes the tile count).
//
// Emulating that loop literally would make the assignment depend on host
// thread interleaving under the threads backend. Instead the assignment is
// computed by deterministic virtual-time list scheduling, which is exactly
// what the atomic counter produces under the virtual-time model: the CPE
// whose accumulated virtual clock is smallest grabs the next tile (ties
// break toward the lowest CPE id, matching the hardware's deterministic
// arbitration in the emulation), pays the faaw grab cost, then advances its
// clock by the tile's modeled cost. The result is a pure function of
// (tiling, costs, policy), so serial and threads backends execute the very
// same assignment and stay bit-identical in fields, virtual times, and
// counters.

#include <functional>
#include <string>
#include <vector>

#include "grid/tiling.h"
#include "support/units.h"

namespace usw::schedpt {
class ScheduleController;
}  // namespace usw::schedpt

namespace usw::sched {

enum class TilePolicy {
  kStaticZ,  ///< the paper's contiguous z-slab partition (Sec V-D)
  kDynamic,  ///< atomic-counter self-scheduling: one tile per grab
  kGuided,   ///< self-scheduling with shrinking chunks (guided OpenMP style)
};

const char* to_string(TilePolicy policy);

/// Parses "static" / "dynamic" / "guided"; throws ConfigError otherwise.
TilePolicy tile_policy_from_string(const std::string& name);

/// The executed tile->CPE assignment of one offload, plus the planner's
/// virtual-time bookkeeping. Planned once per detailed task (inside a
/// sched::TilePlan) and shared by the executor (which tiles each CPE
/// runs), the access checker (the write-set partition), and the metrics.
struct TileAssignment {
  TilePolicy policy = TilePolicy::kStaticZ;
  /// Tile indices per CPE, in execution order.
  std::vector<std::vector<int>> tiles_per_cpe;
  /// Atomic-counter grabs (faaw round trips) each CPE pays, including the
  /// final grab that finds the counter exhausted. Zero under kStaticZ.
  std::vector<int> grabs_per_cpe;
  /// Each CPE's accumulated virtual clock under the planner's cost
  /// estimate. Under synchronous DMA this equals the busy time the CPE is
  /// charged (sched::TilePlan::busy); the double-buffered charge overlaps
  /// DMA and runs below it.
  std::vector<TimePs> est_busy;

  int n_cpes() const { return static_cast<int>(tiles_per_cpe.size()); }
  int num_tiles() const {
    int n = 0;
    for (const std::vector<int>& t : tiles_per_cpe)
      n += static_cast<int>(t.size());
    return n;
  }
};

/// Per-tile virtual cost estimate used to order the self-scheduling grabs.
/// Must be a pure function of the tile index.
using TileCostFn = std::function<TimePs(int tile)>;

/// Plans the assignment of `tiling`'s tiles to `n_cpes` CPEs under
/// `policy`. `tile_cost` prices one tile end to end (overhead + DMA +
/// compute); `grab_cost` is one faaw round trip. Tiles are handed out in
/// tiling order (the shared counter only increments). Deterministic.
///
/// `schedule` (optional) decides the kTileGrab schedule point: when
/// several CPEs' virtual clocks tie for the next grab of a self-scheduled
/// policy, the hardware's faaw arbitration could pick any of them; the
/// controller chooses which (canonical = lowest CPE id). The perturbation
/// permutes only clock-tied CPEs, so the busy-time multiset — and with it
/// est_busy extrema, completion time, and numerics — is invariant; only
/// the tile->CPE mapping changes. `rank` labels the decisions.
TileAssignment assign_tiles(const grid::Tiling& tiling, int n_cpes,
                            TilePolicy policy, const TileCostFn& tile_cost,
                            TimePs grab_cost,
                            schedpt::ScheduleController* schedule = nullptr,
                            int rank = 0);

}  // namespace usw::sched
