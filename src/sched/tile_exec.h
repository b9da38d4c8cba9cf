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
// The scheduler caches the plan per task, so a step's offload costs the
// CPE bodies O(1) each: a body charges its planned busy time and counters
// and, on functional storage only, runs the numerics (stage in, kernel,
// stage out) through real LDM buffers. Timing-only bodies touch no tile.
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
#include <utility>
#include <vector>

#include "athread/athread.h"
#include "fault/fault.h"
#include "grid/box.h"
#include "grid/tiling.h"
#include "kern/kernel.h"
#include "sched/tile_policy.h"

namespace usw::sched {

/// Identity of an offload for deterministic DMA-error injection. The plan
/// is consulted per tile with a pure hash, so the serial and threads
/// backends (and any tile policy) see the same errors. Inactive when
/// `plan` is null; the scheduler sets it only for plans with a dma_error
/// rule, so other fault kinds cost no per-tile hash.
struct TileFaultProbe {
  const fault::FaultPlan* plan = nullptr;
  std::uint64_t incarnation = 0;
  int rank = -1;
  int step = -1;
  int task = -1;
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
  TileFaultProbe fault;      ///< deterministic DMA-error injection
};

/// One offload's plan: the tile->CPE assignment and everything its CPE
/// bodies charge. Per CPE it keeps only the busy time and the flop sum
/// (a double, so each CPE keeps its own tile-by-tile sum and the CPE-id
/// ordered fold stays bit-identical); the integer counters are order-free
/// sums and are kept once per offload.
struct TilePlan {
  TileAssignment assignment;
  /// Per CPE: charged busy time under the offload's DMA mode, grabs
  /// included. Equals assignment.est_busy under synchronous DMA.
  std::vector<TimePs> busy;
  /// Per CPE: counted flops, summed tile by tile in execution order.
  std::vector<double> flops;
  std::uint64_t tiles = 0;
  std::uint64_t cells = 0;
  std::uint64_t dma_bytes_in = 0;
  std::uint64_t dma_bytes_out = 0;

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

/// Job for CpeCluster::spawn that executes `plan` (from
/// plan_tile_assignment with the same `args`). Copies `args` by value; the
/// views must stay valid until the offload completes. Injected DMA errors
/// (args.fault) are drawn per offload and add their re-issue on top of the
/// planned charge.
athread::CpeJob make_tile_job(TileExecArgs args,
                              std::shared_ptr<const TilePlan> plan);

/// The per-CPE write-sets — (cpe id, tile interior box) pairs — of the
/// assignment actually executed, in execution order. Feeds the access
/// checker's tile-partition race detector, which therefore validates the
/// real (policy-dependent) assignment rather than re-deriving the static
/// z-partition.
std::vector<std::pair<int, grid::Box>> tile_writes(const grid::Tiling& tiling,
                                                   const TileAssignment& plan);

}  // namespace usw::sched
