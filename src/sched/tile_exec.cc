#include "sched/tile_exec.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "hw/ldm.h"
#include "support/error.h"

namespace usw::sched {
namespace {

/// Row-wise copy of `region` between two views (the functional half of a
/// strided DMA transfer).
void copy_region(const kern::FieldView& src, const kern::FieldView& dst,
                 const grid::Box& region) {
  const std::size_t row = static_cast<std::size_t>(region.hi.x - region.lo.x);
  for (int k = region.lo.z; k < region.hi.z; ++k)
    for (int j = region.lo.y; j < region.hi.y; ++j)
      std::memcpy(dst.ptr(region.lo.x, j, k), src.ptr(region.lo.x, j, k),
                  row * sizeof(double));
}

/// The operation mix charged for `tile`: the patch-scaled base, optionally
/// further scaled by the kernel's per-tile cost function.
hw::KernelCost tile_kernel_cost(const kern::KernelVariants& kernel,
                                const hw::KernelCost& base,
                                const grid::Box& tile) {
  if (!kernel.tile_cost_scale) return base;
  return base.scaled(kernel.scale_for_tile(tile));
}

std::uint64_t bytes_of(std::uint64_t cells) { return cells * sizeof(double); }

/// One tile of the paper's loop (Sec V-D): its staging sizes and flops
/// and, when priced, its three stage times.
struct TileCharge {
  std::uint64_t ghosted = 0;   ///< cells staged in (the ghosted tile)
  std::uint64_t interior = 0;  ///< cells computed and staged out
  double flops = 0.0;          ///< counted flops
  TimePs get = 0;              ///< athread_get of the ghosted tile
  TimePs compute = 0;          ///< tile-loop overhead + kernel
  TimePs put = 0;              ///< athread_put of the interior
};

/// Checks one CPE's staging buffers against the LDM, with hw::Ldm's own
/// bump arithmetic and overflow error: per tile, a ghosted input and an
/// interior output under synchronous DMA; two pairs sized by the largest
/// tile under double buffering. `mine` is the CPE's tiles in execution
/// order.
void check_ldm(hw::Ldm& ldm, const std::vector<TileCharge>& mine,
               bool async_dma) {
  if (!async_dma) {
    for (const TileCharge& tile : mine) {
      ldm.reset();
      ldm.reserve<double>(tile.ghosted);
      ldm.reserve<double>(tile.interior);
    }
    return;
  }
  if (mine.empty()) return;
  std::uint64_t max_ghosted = 0, max_interior = 0;
  for (const TileCharge& tile : mine) {
    max_ghosted = std::max(max_ghosted, tile.ghosted);
    max_interior = std::max(max_interior, tile.interior);
  }
  ldm.reset();
  ldm.reserve<double>(max_ghosted);
  ldm.reserve<double>(max_ghosted);
  ldm.reserve<double>(max_interior);
  ldm.reserve<double>(max_interior);
}

/// Busy time of one CPE's tiles (priced, in execution order) under
/// double buffering (Sec IX): the prologue get and the last put are
/// exposed; in between, tile i's stage takes
/// max(compute_i, get_{i+1} + put_{i-1}).
TimePs double_buffered_busy(const std::vector<TileCharge>& mine) {
  const std::size_t n = mine.size();
  if (n == 0) return 0;
  TimePs busy = mine.front().get + mine.back().put;
  for (std::size_t i = 0; i < n; ++i) {
    TimePs overlapped = 0;
    if (i + 1 < n) overlapped += mine[i + 1].get;
    if (i > 0) overlapped += mine[i - 1].put;
    busy += std::max(mine[i].compute, overlapped);
  }
  return busy;
}

/// Injected DMA errors on the offload's tiles, added to its per-CPE
/// `busy` and counter `totals`. A failed athread_get is detected by the CPE
/// and re-issued: one more get under synchronous DMA (time and traffic),
/// one exposed re-transfer that stalls the pipeline under double buffering
/// (time only). Each draw is a pure hash of the offload and the tile and
/// each retry an integer add, so the charge is order-free. The numerics
/// are untouched: the retry rereads the same main-memory bytes.
void charge_dma_errors(const TileExecArgs& args, const TilePlan& plan,
                       const grid::Tiling& tiling, int cluster_cpes,
                       const hw::CostModel& cost, std::vector<TimePs>& busy,
                       hw::PerfCounters& totals) {
  const TileFaultProbe& probe = args.fault;
  for (std::size_t cpe = 0; cpe < busy.size(); ++cpe) {
    for (int t : plan.assignment.tiles_per_cpe[cpe]) {
      if (!probe.plan->dma_error(probe.incarnation, probe.rank, probe.step,
                                 probe.task, t))
        continue;
      const std::uint64_t bytes = bytes_of(static_cast<std::uint64_t>(
          tiling.tile(t).grown(args.kernel->ghost).volume()));
      busy[cpe] += cost.cpe_dma(bytes, cluster_cpes, !args.packed_tiles);
      if (!args.async_dma) totals.dma_bytes_in += bytes;
      totals.fault_injected += 1;
      totals.fault_retries += 1;
    }
  }
}

/// The tile loop's numerics: stage each tile into LDM buffers, run the
/// kernel there, stage the result out. The DMA mode changes when time is
/// charged, not what is computed, so one loop serves both modes.
void run_numerics(const TileExecArgs& args, const grid::Tiling& tiling,
                  const std::vector<int>& mine, hw::Ldm& ldm) {
  const kern::KernelVariants& kernel = *args.kernel;
  for (int t : mine) {
    const grid::Box tile = tiling.tile(t);
    const grid::Box ghosted = tile.grown(kernel.ghost);
    ldm.reset();
    const kern::FieldView in(
        ldm.alloc<double>(static_cast<std::size_t>(ghosted.volume())).data(),
        ghosted);
    const kern::FieldView out(
        ldm.alloc<double>(static_cast<std::size_t>(tile.volume())).data(),
        tile);
    copy_region(args.in, in, ghosted);
    kernel.variant(args.vectorize)(args.env, in, out, tile);
    copy_region(out, args.out, tile);
  }
}

}  // namespace

TilePlan plan_tile_assignment(const TileExecArgs& args,
                              const grid::Tiling& tiling, int n_cpes,
                              int cluster_cpes, const hw::CostModel& cost,
                              schedpt::ScheduleController* schedule, int rank) {
  USW_ASSERT(args.kernel != nullptr);
  const kern::KernelVariants& kernel = *args.kernel;
  const hw::KernelCost base = kernel.cost.scaled(args.cost_scale);
  const bool strided = !args.packed_tiles;
  auto charge = [&](int t, bool priced) {
    const grid::Box tile = tiling.tile(t);
    const hw::KernelCost kc = tile_kernel_cost(kernel, base, tile);
    TileCharge c;
    c.ghosted = static_cast<std::uint64_t>(tile.grown(kernel.ghost).volume());
    c.interior = static_cast<std::uint64_t>(tile.volume());
    c.flops = static_cast<double>(c.interior) * kc.counted_flops_per_cell();
    if (priced) {
      c.get = cost.cpe_dma(bytes_of(c.ghosted), cluster_cpes, strided);
      c.compute = cost.cpe_tile_overhead() +
                  cost.cpe_compute(c.interior, kc, args.vectorize,
                                   kernel.use_ieee_exp);
      c.put = cost.cpe_dma(bytes_of(c.interior), cluster_cpes, strided);
    }
    return c;
  };
  // The assignment is planned with the synchronous end-to-end price of a
  // tile under both DMA modes: it is what the shared counter would see on
  // the hardware, where the grab happens before the pipeline hides any
  // transfer, and it keeps the assignment identical across the modes.
  TilePlan plan;
  plan.assignment = assign_tiles(
      tiling, n_cpes, args.policy,
      [&](int t) {
        const TileCharge c = charge(t, true);
        return c.get + c.compute + c.put;
      },
      cost.cpe_faaw(), schedule, rank);
  const auto n = static_cast<std::size_t>(n_cpes);
  plan.busy.resize(n);
  plan.flops.resize(n);
  hw::Ldm ldm(cost.params().ldm_bytes);  // reserve() only: never allocated
  std::vector<TileCharge> mine;
  for (std::size_t cpe = 0; cpe < n; ++cpe) {
    mine.clear();
    for (int t : plan.assignment.tiles_per_cpe[cpe])
      mine.push_back(charge(t, args.async_dma));
    check_ldm(ldm, mine, args.async_dma);
    // Synchronous DMA exposes every transfer (the paper's implementation:
    // it "does not make use of the fact that the memory-LDM transfer can
    // be asynchronous"), so a CPE's busy time is the estimate its tiles
    // were assigned with.
    const auto grabs = static_cast<TimePs>(plan.assignment.grabs_per_cpe[cpe]);
    plan.busy[cpe] = args.async_dma
                         ? grabs * cost.cpe_faaw() + double_buffered_busy(mine)
                         : plan.assignment.est_busy[cpe];
    double flops = 0.0;
    for (const TileCharge& tile : mine) {
      flops += tile.flops;
      plan.totals.cells_computed += tile.interior;
      plan.totals.dma_bytes_in += bytes_of(tile.ghosted);
      plan.totals.dma_bytes_out += bytes_of(tile.interior);
    }
    plan.flops[cpe] = flops;
    plan.totals.tiles_executed += mine.size();
    plan.totals.tile_grabs +=
        static_cast<std::uint64_t>(plan.assignment.grabs_per_cpe[cpe]);
    if (!mine.empty()) plan.working.push_back(static_cast<int>(cpe));
  }
  return plan;
}

std::vector<std::pair<int, grid::Box>> tile_writes(const grid::Tiling& tiling,
                                                   const TileAssignment& plan) {
  std::vector<std::pair<int, grid::Box>> writes;
  writes.reserve(static_cast<std::size_t>(tiling.num_tiles()));
  for (int cpe = 0; cpe < plan.n_cpes(); ++cpe)
    for (int t : plan.tiles_per_cpe[static_cast<std::size_t>(cpe)])
      writes.emplace_back(cpe, tiling.tile(t));
  return writes;
}

athread::Offload tile_offload(const TileExecArgs& args,
                              const std::shared_ptr<const TilePlan>& plan,
                              const grid::Tiling& tiling, int cluster_cpes,
                              const hw::CostModel& cost,
                              std::vector<TimePs>& busy) {
  USW_ASSERT(args.kernel != nullptr);
  USW_ASSERT(plan != nullptr);
  athread::Offload offload{plan->busy, plan->flops, plan->totals, {}, {}};
  const TileFaultProbe& probe = args.fault;
  if (probe.plan != nullptr || probe.stall) {
    busy.assign(plan->busy.begin(), plan->busy.end());
    if (probe.plan != nullptr)
      charge_dma_errors(args, *plan, tiling, cluster_cpes, cost, busy,
                        offload.totals);
    // The stall scales the CPE's whole charge, DMA re-issues included; the
    // rounding is a deterministic double->int conversion.
    if (probe.stall) {
      TimePs& stalled = busy.at(static_cast<std::size_t>(probe.stall->cpe));
      stalled += static_cast<TimePs>(static_cast<double>(stalled) *
                                     (probe.stall->factor - 1.0));
    }
    offload.busy = busy;
  }
  if (args.in.valid() && args.out.valid()) {
    offload.body = [args, plan, tiling](athread::CpeContext& ctx) {
      run_numerics(args, tiling,
                   plan->assignment.tiles_per_cpe[static_cast<std::size_t>(
                       ctx.cpe_id())],
                   ctx.ldm());
    };
    offload.cpes = plan->working;
  }
  return offload;
}

}  // namespace usw::sched
