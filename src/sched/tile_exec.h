#pragma once

// The CPE tile scheduler (Sec V-D).
//
// On the hardware each CPE runs the paper's tile loop over its assigned
// tiles — statically z-partitioned (Sec V-D step 1) or self-scheduled off
// a shared atomic counter (TilePolicy):
//   athread_get (ghosted tile -> LDM) -> kernel on LDM -> athread_put,
// finishing with the faaw increment modeled inside CpeCluster.
//
// The simulator prices that loop once, on the MPE, when it plans the
// offload: plan_tile_assignment assigns the tiles, then walks each CPE's
// tiles in execution order and records the CPE's busy time (grabs, DMA,
// compute and tile overhead, under the offload's DMA mode), its counted
// flops, and the offload's tile/cell/DMA totals. It also checks the
// staging buffers against the 64 KB LDM with hw::Ldm's own bump
// arithmetic, so an oversized tile throws ResourceError before spawn.
// The scheduler caches the plan per task. Each offload then hands the
// cluster the plan's charge, with this offload's injected faults added on
// the MPE, and on functional storage only a numerics body (stage in,
// kernel, stage out through real LDM buffers) for each CPE that owns
// tiles. A timing-only offload dispatches no body.
//
// Two of the paper's future-work optimizations (Sec IX) are available:
//   * async_dma  - double-buffered tiles: the next tile's athread_get and
//     the previous tile's athread_put overlap with the current tile's
//     compute. Costs the LDM twice the buffers, so it forces smaller
//     tiles — the real trade-off the paper's authors would have faced.
//   * packed_tiles - tiles are stored contiguously in main memory, so DMA
//     runs at the packed (higher) efficiency instead of the strided one.

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "athread/athread.h"
#include "fault/fault.h"
#include "grid/box.h"
#include "grid/tiling.h"
#include "kern/kernel.h"
#include "sched/tile_policy.h"

namespace usw::sched {

/// An offload's injected CPE faults, charged on the MPE. DMA errors are
/// drawn per tile from `plan` with a pure hash of the offload's identity,
/// so any backend and tile policy sees the same errors; they are inactive
/// when `plan` is null, and the scheduler sets it only for plans with a
/// dma_error rule, so other fault kinds cost no per-tile hash. `stall` is
/// the scheduler's cpe_stall decision for this offload, if any.
struct TileFaultProbe {
  const fault::FaultPlan* plan = nullptr;
  std::uint64_t incarnation = 0;
  int rank = -1;
  int step = -1;
  int task = -1;
  std::optional<fault::FaultPlan::Stall> stall;
};

struct TileExecArgs {
  const kern::KernelVariants* kernel = nullptr;
  kern::KernelEnv env;
  /// Input over the patch's ghosted box; invalid view => timing-only.
  kern::FieldView in;
  /// Output covering at least the patch interior.
  kern::FieldView out;
  grid::Box patch_cells;
  bool vectorize = false;
  bool async_dma = false;    ///< double-buffered DMA pipeline (Sec IX)
  bool packed_tiles = false; ///< contiguous tile transfers (Sec IX)
  double cost_scale = 1.0;   ///< per-patch work multiplier
  TilePolicy policy = TilePolicy::kStaticZ;  ///< tile->CPE assignment
  TileFaultProbe fault;      ///< injected DMA errors and CPE stall
};

/// One offload's plan: the tile->CPE assignment and its whole charge. Per
/// CPE it keeps the busy time and the flop sum (a double, so each CPE
/// keeps its own tile-by-tile sum and the cluster's CPE-id ordered sum is
/// the same on any backend); the integer counters are order-free sums and
/// are kept once per offload.
struct TilePlan {
  TileAssignment assignment;
  /// Per CPE: charged busy time under the offload's DMA mode, grabs
  /// included. Equals assignment.est_busy under synchronous DMA.
  std::vector<TimePs> busy;
  /// Per CPE: counted flops, summed tile by tile in execution order.
  std::vector<double> flops;
  /// Tiles, cells, DMA traffic and tile grabs of the whole offload.
  hw::PerfCounters totals;
  /// CPEs that own tiles, ascending: the only ones that run a body.
  std::vector<int> working;

  int n_cpes() const { return assignment.n_cpes(); }
};

/// Plans one offload: args.policy applied to the patch's tiling with the
/// synchronous per-tile cost estimate (tile overhead + get + compute + put,
/// per-tile cost scale included) and the faaw grab cost, then the charge
/// walk described above. `n_cpes` is the offload's group size and
/// `cluster_cpes` the whole cluster's CPE count (DMA contention). Throws
/// ResourceError if a CPE's staging buffers overflow the LDM.
/// Deterministic: a pure function of its arguments. `schedule`/`rank`
/// feed the kTileGrab schedule point (see assign_tiles).
TilePlan plan_tile_assignment(const TileExecArgs& args,
                              const grid::Tiling& tiling, int n_cpes,
                              int cluster_cpes, const hw::CostModel& cost,
                              schedpt::ScheduleController* schedule = nullptr,
                              int rank = 0);

/// The offload that executes `plan` (from plan_tile_assignment with the
/// same `args`, `tiling` and `cluster_cpes`). Its charge is the plan's;
/// when args.fault injects anything, the busy times are copied into
/// `busy` and this offload's faults added there: each DMA error re-issues
/// its tile's athread_get, then the stalled CPE runs `factor` x slower.
/// On functional storage each CPE in plan->working runs the numerics; a
/// timing-only offload has no body. The offload's spans point into `plan`
/// and `busy`; the body copies `args`, whose views must stay valid until
/// the offload completes.
athread::Offload tile_offload(const TileExecArgs& args,
                              const std::shared_ptr<const TilePlan>& plan,
                              const grid::Tiling& tiling, int cluster_cpes,
                              const hw::CostModel& cost,
                              std::vector<TimePs>& busy);

/// The per-CPE write-sets — (cpe id, tile interior box) pairs — of the
/// assignment actually executed, in execution order. Feeds the access
/// checker's tile-partition race detector, which therefore validates the
/// real (policy-dependent) assignment rather than re-deriving the static
/// z-partition.
std::vector<std::pair<int, grid::Box>> tile_writes(const grid::Tiling& tiling,
                                                   const TileAssignment& plan);

}  // namespace usw::sched
