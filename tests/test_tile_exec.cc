// Tests for the CPE tile executor: functional equivalence with a direct
// kernel application, LDM capacity enforcement, DMA/tile accounting,
// timing-only behavior, and a differential oracle that checks the planned
// charge against the per-tile walk it replaced. Also failure-injection
// tests: errors thrown inside rank bodies must cancel the whole simulation
// cleanly.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/burgers/burgers_app.h"
#include "apps/burgers/kernels.h"
#include "hw/ldm.h"
#include "runtime/controller.h"
#include "sched/tile_exec.h"
#include "sim/coordinator.h"
#include "support/rng.h"

namespace usw::sched {
namespace {

hw::MachineParams machine() { return hw::MachineParams::sunway_taihulight(); }

kern::KernelEnv test_env() {
  kern::KernelEnv env;
  env.time = 0.02;
  env.dt = 1e-4;
  env.dx = env.dy = env.dz = 1.0 / 32;
  return env;
}

/// Plans `args` for `cluster` the way the scheduler does and spawns the
/// offload that executes the plan.
void spawn_planned(athread::CpeCluster& cluster, const TileExecArgs& args,
                   const hw::CostModel& cost) {
  const grid::Tiling tiling(args.patch_cells, args.kernel->tile_shape);
  const auto plan = std::make_shared<const TilePlan>(plan_tile_assignment(
      args, tiling, cluster.group_size(), cluster.n_cpes(), cost));
  std::vector<TimePs> fault_busy;
  cluster.spawn(
      tile_offload(args, plan, tiling, cluster.n_cpes(), cost, fault_busy));
}

TEST(TileExec, MatchesDirectKernelApplication) {
  const grid::Box patch{{0, 0, 0}, {32, 32, 24}};
  var::CCVariable<double> u0(patch.grown(1)), direct(patch), tiled(patch);
  SplitMix64 rng(31);
  for (double& x : u0.data()) x = rng.next_in(0.0, 1.0);

  const kern::KernelVariants kv = apps::burgers::make_burgers_kernel(false);
  const kern::KernelEnv env = test_env();
  kv.scalar(env, kern::FieldView::of(u0), kern::FieldView::of(direct), patch);

  const hw::CostModel cost(machine());
  sim::run_ranks(1, [&](sim::Coordinator& coord, int rank) {
    athread::CpeCluster cluster(cost, coord, rank);
    TileExecArgs args;
    args.kernel = &kv;
    args.env = env;
    args.in = kern::FieldView::of(u0);
    args.out = kern::FieldView::of(tiled);
    args.patch_cells = patch;
    spawn_planned(cluster, args, cost);
    cluster.join();
  });

  for (std::size_t i = 0; i < direct.data().size(); ++i)
    ASSERT_EQ(direct.data()[i], tiled.data()[i]) << "cell " << i;
}

TEST(TileExec, SimdTilingAlsoMatchesDirect) {
  const grid::Box patch{{0, 0, 0}, {20, 12, 16}};  // remainder lanes in x
  var::CCVariable<double> u0(patch.grown(1)), direct(patch), tiled(patch);
  SplitMix64 rng(33);
  for (double& x : u0.data()) x = rng.next_in(0.0, 1.0);

  const kern::KernelVariants kv = apps::burgers::make_burgers_kernel(false);
  const kern::KernelEnv env = test_env();
  kv.simd(env, kern::FieldView::of(u0), kern::FieldView::of(direct), patch);

  const hw::CostModel cost(machine());
  sim::run_ranks(1, [&](sim::Coordinator& coord, int rank) {
    athread::CpeCluster cluster(cost, coord, rank);
    TileExecArgs args;
    args.kernel = &kv;
    args.env = env;
    args.in = kern::FieldView::of(u0);
    args.out = kern::FieldView::of(tiled);
    args.patch_cells = patch;
    args.vectorize = true;
    spawn_planned(cluster, args, cost);
    cluster.join();
  });
  for (std::size_t i = 0; i < direct.data().size(); ++i)
    ASSERT_EQ(direct.data()[i], tiled.data()[i]);
}

TEST(TileExec, CountsTilesAndDmaTraffic) {
  const grid::Box patch{{0, 0, 0}, {16, 16, 64}};  // 8 tiles of 16x16x8
  var::CCVariable<double> u0(patch.grown(1)), out(patch);
  const kern::KernelVariants kv = apps::burgers::make_burgers_kernel(false);
  const hw::CostModel cost(machine());
  hw::PerfCounters counters;
  sim::run_ranks(1, [&](sim::Coordinator& coord, int rank) {
    athread::CpeCluster cluster(cost, coord, rank, &counters);
    TileExecArgs args;
    args.kernel = &kv;
    args.env = test_env();
    args.in = kern::FieldView::of(u0);
    args.out = kern::FieldView::of(out);
    args.patch_cells = patch;
    spawn_planned(cluster, args, cost);
    cluster.join();
  });
  EXPECT_EQ(counters.tiles_executed, 8u);
  EXPECT_EQ(counters.cells_computed, static_cast<std::uint64_t>(patch.volume()));
  // Each tile stages a ghosted 18x18x10 block in and a 16x16x8 block out.
  EXPECT_EQ(counters.dma_bytes_in, 8u * 18 * 18 * 10 * 8);
  EXPECT_EQ(counters.dma_bytes_out, 8u * 16 * 16 * 8 * 8);
  EXPECT_DOUBLE_EQ(counters.counted_flops,
                   static_cast<double>(patch.volume()) *
                       apps::burgers::burgers_kernel_cost().counted_flops_per_cell());
}

TEST(TileExec, TimingOnlyChargesWithoutData) {
  const grid::Box patch{{0, 0, 0}, {16, 16, 64}};
  const kern::KernelVariants kv = apps::burgers::make_burgers_kernel(false);
  const hw::CostModel cost(machine());
  hw::PerfCounters counters;
  TimePs elapsed = 0;
  sim::run_ranks(1, [&](sim::Coordinator& coord, int rank) {
    athread::CpeCluster cluster(cost, coord, rank, &counters);
    TileExecArgs args;
    args.kernel = &kv;
    args.env = test_env();
    args.patch_cells = patch;  // views left invalid: timing-only
    const TimePs before = coord.now(rank);
    spawn_planned(cluster, args, cost);
    cluster.join();
    elapsed = coord.now(rank) - before;
  });
  EXPECT_GT(elapsed, 0);
  EXPECT_EQ(counters.tiles_executed, 8u);
  EXPECT_GT(counters.counted_flops, 0.0);
}

// ---------------------------------------------------------------------------
// Double-buffered DMA edge cases: a single tile (prologue get and epilogue
// put both exposed, nothing to overlap), CPEs with no tiles at all under a
// dynamic assignment, and heterogeneous clipped tiles (the two buffer pairs
// are sized by the largest assigned tile).

TEST(TileExec, DoubleBufferedSingleTileMatchesDirect) {
  const grid::Box patch{{0, 0, 0}, {8, 8, 8}};  // one tile == the patch
  var::CCVariable<double> u0(patch.grown(1)), direct(patch), tiled(patch);
  SplitMix64 rng(37);
  for (double& x : u0.data()) x = rng.next_in(0.0, 1.0);

  const kern::KernelVariants kv =
      apps::burgers::make_burgers_kernel(false, {8, 8, 8});
  const kern::KernelEnv env = test_env();
  kv.scalar(env, kern::FieldView::of(u0), kern::FieldView::of(direct), patch);

  const hw::CostModel cost(machine());
  hw::PerfCounters counters;
  TimePs elapsed = 0;
  sim::run_ranks(1, [&](sim::Coordinator& coord, int rank) {
    athread::CpeCluster cluster(cost, coord, rank, &counters);
    TileExecArgs args;
    args.kernel = &kv;
    args.env = env;
    args.in = kern::FieldView::of(u0);
    args.out = kern::FieldView::of(tiled);
    args.patch_cells = patch;
    args.async_dma = true;
    const TimePs before = coord.now(rank);
    spawn_planned(cluster, args, cost);
    cluster.join();
    elapsed = coord.now(rank) - before;
  });
  for (std::size_t i = 0; i < direct.data().size(); ++i)
    ASSERT_EQ(direct.data()[i], tiled.data()[i]) << "cell " << i;
  EXPECT_EQ(counters.tiles_executed, 1u);
  EXPECT_EQ(counters.dma_bytes_in, 10u * 10 * 10 * 8);
  EXPECT_EQ(counters.dma_bytes_out, 8u * 8 * 8 * 8);
  EXPECT_GT(elapsed, 0);
}

TEST(TileExec, DoubleBufferedHeterogeneousTilesMatchDirect) {
  // 12x10x20 with 8x8x8 tiles clips every boundary tile: 2x2x3 tiles of
  // mixed shapes on one CPE's slab, so the i%2 buffer rotation must cope
  // with tiles smaller than the buffers.
  const grid::Box patch{{0, 0, 0}, {12, 10, 20}};
  var::CCVariable<double> u0(patch.grown(1)), direct(patch), tiled(patch);
  SplitMix64 rng(41);
  for (double& x : u0.data()) x = rng.next_in(0.0, 1.0);

  const kern::KernelVariants kv =
      apps::burgers::make_burgers_kernel(false, {8, 8, 8});
  const kern::KernelEnv env = test_env();
  kv.scalar(env, kern::FieldView::of(u0), kern::FieldView::of(direct), patch);

  const hw::CostModel cost(machine());
  hw::PerfCounters counters;
  sim::run_ranks(1, [&](sim::Coordinator& coord, int rank) {
    athread::CpeCluster cluster(cost, coord, rank, &counters);
    TileExecArgs args;
    args.kernel = &kv;
    args.env = env;
    args.in = kern::FieldView::of(u0);
    args.out = kern::FieldView::of(tiled);
    args.patch_cells = patch;
    args.async_dma = true;
    spawn_planned(cluster, args, cost);
    cluster.join();
  });
  for (std::size_t i = 0; i < direct.data().size(); ++i)
    ASSERT_EQ(direct.data()[i], tiled.data()[i]) << "cell " << i;
  EXPECT_EQ(counters.tiles_executed, 12u);
  EXPECT_EQ(counters.cells_computed,
            static_cast<std::uint64_t>(patch.volume()));
}

TEST(TileExec, DoubleBufferedDynamicWithEmptyCpesMatchesDirect) {
  // 4 tiles over 64 CPEs under self-scheduling: 60 CPEs win nothing and
  // must pay only the terminating grab, never touching the DMA pipeline.
  const grid::Box patch{{0, 0, 0}, {16, 16, 8}};
  var::CCVariable<double> u0(patch.grown(1)), direct(patch), tiled(patch);
  SplitMix64 rng(43);
  for (double& x : u0.data()) x = rng.next_in(0.0, 1.0);

  const kern::KernelVariants kv =
      apps::burgers::make_burgers_kernel(false, {8, 8, 8});
  const kern::KernelEnv env = test_env();
  kv.scalar(env, kern::FieldView::of(u0), kern::FieldView::of(direct), patch);

  const hw::CostModel cost(machine());
  hw::PerfCounters counters;
  sim::run_ranks(1, [&](sim::Coordinator& coord, int rank) {
    athread::CpeCluster cluster(cost, coord, rank, &counters);
    TileExecArgs args;
    args.kernel = &kv;
    args.env = env;
    args.in = kern::FieldView::of(u0);
    args.out = kern::FieldView::of(tiled);
    args.patch_cells = patch;
    args.async_dma = true;
    args.policy = TilePolicy::kDynamic;
    spawn_planned(cluster, args, cost);
    cluster.join();
  });
  for (std::size_t i = 0; i < direct.data().size(); ++i)
    ASSERT_EQ(direct.data()[i], tiled.data()[i]) << "cell " << i;
  EXPECT_EQ(counters.tiles_executed, 4u);
  // 4 winning grabs plus one terminating grab per CPE.
  EXPECT_EQ(counters.tile_grabs, 4u + 64u);
}

TEST(TileExec, OversizedTileOverflowsLdm) {
  const grid::Box patch{{0, 0, 0}, {32, 32, 32}};
  kern::KernelVariants kv = apps::burgers::make_burgers_kernel(false);
  kv.tile_shape = {32, 32, 32};  // ~300 KB working set
  const hw::CostModel cost(machine());
  EXPECT_THROW(
      sim::run_ranks(1,
                     [&](sim::Coordinator& coord, int rank) {
                       athread::CpeCluster cluster(cost, coord, rank);
                       TileExecArgs args;
                       args.kernel = &kv;
                       args.env = test_env();
                       args.patch_cells = patch;
                       spawn_planned(cluster, args, cost);
                       cluster.join();
                     }),
      ResourceError);
}

// ---------------------------------------------------------------------------
// Differential oracle: the per-tile charge walk the plan replaced, kept here
// as the reference. Each CPE stages every tile through its LDM and charges
// the paper's loop tile by tile: get, kernel, put under synchronous DMA; the
// double-buffered pipeline otherwise; injected DMA errors re-issued as they
// are drawn. The planned offload, with its MPE-side DMA-error charge, must
// match it exactly.

/// What the walk charges one CPE: its busy time and its own counter slot.
struct CpeSlot {
  TimePs busy = 0;
  hw::PerfCounters counters;
};

CpeSlot walk_cpe(const TileExecArgs& args, const TileAssignment& assignment,
                 int cpe_id, const hw::CostModel& cost, hw::Ldm& ldm) {
  CpeSlot slot;
  const kern::KernelVariants& kernel = *args.kernel;
  const grid::Tiling tiling(args.patch_cells, kernel.tile_shape);
  const auto cpe = static_cast<std::size_t>(cpe_id);
  const std::vector<int>& mine = assignment.tiles_per_cpe[cpe];
  const int grabs = assignment.grabs_per_cpe[cpe];
  const bool strided = !args.packed_tiles;
  // athread_get/athread_put and the kernel, charged as a CPE did.
  auto dma_cost = [&](std::size_t bytes) {
    return cost.cpe_dma(bytes, cost.params().cpes_per_cg, strided);
  };
  auto get = [&](std::size_t bytes) {
    slot.busy += dma_cost(bytes);
    slot.counters.dma_bytes_in += bytes;
  };
  auto put = [&](std::size_t bytes) {
    slot.busy += dma_cost(bytes);
    slot.counters.dma_bytes_out += bytes;
  };
  auto compute = [&](std::uint64_t cells, const hw::KernelCost& kc) {
    slot.busy +=
        cost.cpe_compute(cells, kc, args.vectorize, kernel.use_ieee_exp);
    slot.counters.count_kernel_cells(cells, kc);
  };
  hw::PerfCounters counted;
  slot.busy += static_cast<TimePs>(grabs) * cost.cpe_faaw();
  counted.tile_grabs = static_cast<std::uint64_t>(grabs);
  const hw::KernelCost base = kernel.cost.scaled(args.cost_scale);
  auto tile_cost = [&](const grid::Box& tile) {
    return kernel.tile_cost_scale ? base.scaled(kernel.scale_for_tile(tile))
                                  : base;
  };
  auto dma_error = [&](int t) {
    return args.fault.plan != nullptr &&
           args.fault.plan->dma_error(args.fault.incarnation, args.fault.rank,
                                      args.fault.step, args.fault.task, t);
  };
  auto in_bytes = [&](int t) {
    return static_cast<std::size_t>(
               tiling.tile(t).grown(kernel.ghost).volume()) *
           sizeof(double);
  };
  auto out_bytes = [&](int t) {
    return static_cast<std::size_t>(tiling.tile(t).volume()) * sizeof(double);
  };
  if (!args.async_dma) {
    for (int t : mine) {
      const grid::Box tile = tiling.tile(t);
      slot.busy += cost.cpe_tile_overhead();
      ldm.reset();
      (void)ldm.alloc<double>(in_bytes(t) / sizeof(double));
      (void)ldm.alloc<double>(out_bytes(t) / sizeof(double));
      get(in_bytes(t));
      if (dma_error(t)) {
        get(in_bytes(t));
        counted.fault_injected += 1;
        counted.fault_retries += 1;
      }
      compute(static_cast<std::uint64_t>(tile.volume()), tile_cost(tile));
      put(out_bytes(t));
      counted.tiles_executed += 1;
    }
  } else if (!mine.empty()) {
    std::size_t max_in = 0, max_out = 0;
    for (int t : mine) {
      max_in = std::max(max_in, in_bytes(t) / sizeof(double));
      max_out = std::max(max_out, out_bytes(t) / sizeof(double));
    }
    ldm.reset();
    for (std::size_t count : {max_in, max_in, max_out, max_out})
      (void)ldm.alloc<double>(count);
    const std::size_t n = mine.size();
    for (std::size_t i = 0; i < n; ++i) {
      const int t = mine[i];
      const grid::Box tile = tiling.tile(t);
      counted.dma_bytes_in += in_bytes(t);
      counted.dma_bytes_out += out_bytes(t);
      counted.count_kernel_cells(static_cast<std::uint64_t>(tile.volume()),
                                 tile_cost(tile));
      counted.tiles_executed += 1;
      if (dma_error(t)) {
        slot.busy += dma_cost(in_bytes(t));
        counted.fault_injected += 1;
        counted.fault_retries += 1;
      }
      if (i == 0) slot.busy += dma_cost(in_bytes(t));
      TimePs overlapped = 0;
      if (i + 1 < n) overlapped += dma_cost(in_bytes(mine[i + 1]));
      if (i > 0) overlapped += dma_cost(out_bytes(mine[i - 1]));
      const TimePs compute_time =
          cost.cpe_tile_overhead() +
          cost.cpe_compute(static_cast<std::uint64_t>(tile.volume()),
                           tile_cost(tile), args.vectorize,
                           kernel.use_ieee_exp);
      slot.busy += std::max(compute_time, overlapped);
    }
    slot.busy += dma_cost(out_bytes(mine.back()));
  }
  slot.counters.merge(counted);
  return slot;
}

/// Every CPE's walk, in CPE-id order: busy times and flops per CPE, the
/// integer counters summed, the shape a cluster takes an offload in.
struct Walked {
  std::vector<TimePs> busy;
  std::vector<double> flops;
  hw::PerfCounters totals;
};

Walked reference_walk(const TileExecArgs& args,
                      const TileAssignment& assignment,
                      const hw::CostModel& cost) {
  Walked walked;
  hw::Ldm ldm(cost.params().ldm_bytes);
  for (int cpe = 0; cpe < assignment.n_cpes(); ++cpe) {
    CpeSlot slot = walk_cpe(args, assignment, cpe, cost, ldm);
    walked.busy.push_back(slot.busy);
    walked.flops.push_back(std::exchange(slot.counters.counted_flops, 0.0));
    walked.totals.merge(slot.counters);
  }
  return walked;
}

/// One offload's per-CPE busy times and merged counters.
struct Charged {
  std::vector<TimePs> busy;
  hw::PerfCounters counters;
};

Charged run_offload(const hw::CostModel& cost, athread::Backend backend,
                    athread::WorkerPool* pool, const athread::Offload& offload) {
  Charged charged;
  sim::run_ranks(1, [&](sim::Coordinator& coord, int rank) {
    athread::CpeCluster cluster(cost, coord, rank, &charged.counters, 1,
                                backend, pool);
    cluster.spawn(offload);
    charged.busy = cluster.cpe_busy();
    cluster.join();
  });
  return charged;
}

TEST(TileExec, PlanChargeMatchesPerTileWalk) {
  const hw::CostModel cost(machine());
  const fault::FaultPlan faults = fault::FaultPlan::parse("dma_error:p=0.05", 5);
  athread::WorkerPool pool(2);
  // A whole patch, and one offset so every axis ends in a clipped tile.
  const grid::Box patches[] = {{{0, 0, 0}, {32, 32, 32}},
                               {{-3, 5, 17}, {37, 26, 50}}};
  int cases = 0;
  for (const TilePolicy policy : {TilePolicy::kStaticZ, TilePolicy::kDynamic,
                                  TilePolicy::kGuided})
    for (const bool async_dma : {false, true})
      for (const bool packed : {false, true})
        for (const bool hotspot : {false, true})
          for (const grid::Box& patch : patches)
            for (const bool inject : {false, true})
              for (const athread::Backend backend :
                   {athread::Backend::kSerial, athread::Backend::kThreads}) {
                kern::KernelVariants kv =
                    apps::burgers::make_burgers_kernel(false, {8, 8, 8});
                if (hotspot)
                  kv.tile_cost_scale = [](const grid::Box& tile) {
                    return tile.lo.x < 8 && tile.lo.z < 32 ? 3.3 : 1.0;
                  };
                TileExecArgs args;
                args.kernel = &kv;
                args.patch_cells = patch;  // timing-only
                args.vectorize = true;
                args.async_dma = async_dma;
                args.packed_tiles = packed;
                // Inexact flop products make the flop sums order-sensitive.
                args.cost_scale = 1.37;
                args.policy = policy;
                if (inject) args.fault = {&faults, 0, 0, 3, 7, std::nullopt};
                const grid::Tiling tiling(patch, kv.tile_shape);
                const auto plan = std::make_shared<const TilePlan>(
                    plan_tile_assignment(args, tiling, 64, 64, cost));
                std::vector<TimePs> fault_busy;
                const Charged planned = run_offload(
                    cost, backend, &pool,
                    tile_offload(args, plan, tiling, 64, cost, fault_busy));
                const Walked walk = reference_walk(args, plan->assignment, cost);
                const Charged walked = run_offload(
                    cost, backend, &pool,
                    athread::Offload{walk.busy, walk.flops, walk.totals, {}, {}});
                const std::string label =
                    std::string(to_string(policy)) +
                    (async_dma ? " async" : " sync") +
                    (packed ? " packed" : " strided") +
                    (hotspot ? " hotspot" : " uniform") +
                    (patch.lo.x != 0 ? " clipped" : " full") +
                    (inject ? " dma_error" : "") + " " + to_string(backend);
                EXPECT_EQ(planned.busy, walked.busy) << label;
                EXPECT_EQ(planned.counters, walked.counters) << label;
                EXPECT_EQ(std::bit_cast<std::uint64_t>(
                              planned.counters.counted_flops),
                          std::bit_cast<std::uint64_t>(
                              walked.counters.counted_flops))
                    << label;
                EXPECT_EQ(planned.counters.tiles_executed,
                          static_cast<std::uint64_t>(tiling.num_tiles()))
                    << label;
                if (inject) {
                  EXPECT_GT(walked.counters.fault_injected, 0u) << label;
                }
                ++cases;
              }
  EXPECT_EQ(cases, 192);
}

/// The ResourceError message of `fn`, or "" if it does not throw one.
template <typename Fn>
std::string resource_error(Fn&& fn) {
  try {
    fn();
  } catch (const ResourceError& e) {
    return e.what();
  }
  return "";
}

TEST(TileExec, TimingOnlyLdmOverflowMatchesFunctional) {
  // The plan checks the LDM once on the MPE; the message must be the one a
  // CPE staging the tile through a real Ldm gets, on either storage mode
  // and DMA mode.
  const grid::Box patch{{0, 0, 0}, {32, 32, 32}};
  var::CCVariable<double> u0(patch.grown(1)), out(patch);
  kern::KernelVariants kv = apps::burgers::make_burgers_kernel(false);
  kv.tile_shape = {16, 16, 16};  // 5832 + 4096 doubles: one pair fits nowhere
  const hw::CostModel cost(machine());
  const grid::Tiling tiling(patch, kv.tile_shape);
  for (const bool async_dma : {false, true}) {
    TileExecArgs timing;
    timing.kernel = &kv;
    timing.env = test_env();
    timing.patch_cells = patch;
    timing.async_dma = async_dma;
    TileExecArgs functional = timing;
    functional.in = kern::FieldView::of(u0);
    functional.out = kern::FieldView::of(out);
    const std::string walked = resource_error([&] {
      reference_walk(functional,
                     assign_tiles(tiling, 64, TilePolicy::kStaticZ,
                                  [](int) { return TimePs{1}; }, 0),
                     cost);
    });
    ASSERT_NE(walked.find("LDM overflow"), std::string::npos) << walked;
    EXPECT_EQ(resource_error([&] {
                plan_tile_assignment(timing, tiling, 64, 64, cost);
              }),
              walked);
    EXPECT_EQ(resource_error([&] {
                plan_tile_assignment(functional, tiling, 64, 64, cost);
              }),
              walked);
  }
}

TEST(FailureInjection, LdmOverflowSurfacesFromFullSimulation) {
  apps::burgers::BurgersApp::Config app_cfg;
  app_cfg.tile_shape = {32, 32, 16};  // does not fit the 64 KB LDM
  apps::burgers::BurgersApp app(app_cfg);
  runtime::RunConfig cfg;
  cfg.problem = runtime::tiny_problem({2, 2, 1}, {32, 32, 16});
  cfg.variant = runtime::variant_by_name("acc.async");
  cfg.nranks = 2;
  cfg.timesteps = 1;
  cfg.storage = var::StorageMode::kTimingOnly;
  EXPECT_THROW(runtime::run_simulation(cfg, app), ResourceError);
}

TEST(FailureInjection, ThrowingTaskCancelsAllRanks) {
  // An application task throwing on one rank must fail the whole run
  // (other ranks are cancelled, no hang, the original error surfaces).
  class ThrowingApp : public apps::burgers::BurgersApp {
   public:
    void build_step_graph(task::TaskGraph& graph,
                          const grid::Level& level) const override {
      BurgersApp::build_step_graph(graph, level);
      auto bomb = task::Task::make_mpe(
          "bomb", [](const task::TaskContext& ctx, const grid::Patch& patch) -> TimePs {
            if (patch.id() == 3 && ctx.step == 1)
              throw StateError("injected task failure");
            return 0;
          });
      graph.add(std::move(bomb));
    }
  };
  ThrowingApp app;
  runtime::RunConfig cfg;
  cfg.problem = runtime::tiny_problem({2, 2, 1}, {8, 8, 8});
  cfg.variant = runtime::variant_by_name("acc.sync");
  cfg.nranks = 4;
  cfg.timesteps = 3;
  cfg.storage = var::StorageMode::kTimingOnly;
  try {
    runtime::run_simulation(cfg, app);
    FAIL() << "expected StateError";
  } catch (const StateError& e) {
    EXPECT_NE(std::string(e.what()).find("injected task failure"),
              std::string::npos);
  }
}

TEST(FailureInjection, MissingVariableIsDiagnosed) {
  // A task requiring an old-DW variable that initialization never produced
  // must fail with a clear data-warehouse error, not a crash.
  class BadApp : public apps::burgers::BurgersApp {
   public:
    void build_init_graph(task::TaskGraph& graph,
                          const grid::Level& level) const override {
      (void)level;
      auto noop = task::Task::make_mpe(
          "noop", [](const task::TaskContext&, const grid::Patch&) -> TimePs {
            return 0;
          });
      noop->add_computes(var::VarLabel::create("unrelated"));
      graph.add(std::move(noop));
    }
  };
  BadApp app;
  runtime::RunConfig cfg;
  cfg.problem = runtime::tiny_problem({2, 1, 1}, {8, 8, 8});
  cfg.variant = runtime::variant_by_name("host.sync");
  cfg.nranks = 1;
  cfg.timesteps = 1;
  cfg.storage = var::StorageMode::kFunctional;
  EXPECT_THROW(runtime::run_simulation(cfg, app), StateError);
}

}  // namespace
}  // namespace usw::sched
