// Host-side microbenchmarks (Google Benchmark): the functional building
// blocks that every simulated run executes for real. These measure *host*
// throughput (how fast the simulator itself runs), complementing the
// virtual-time benches that reproduce the paper's numbers.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <functional>
#include <memory>
#include <vector>

#include "apps/burgers/kernels.h"
#include "apps/burgers/phi.h"
#include "hw/cost_model.h"
#include "hw/ldm.h"
#include "kern/fastexp.h"
#include "sched/tile_exec.h"
#include "sim/coordinator.h"
#include "sim/fiber.h"
#include "support/rng.h"
#include "var/ccvariable.h"

namespace {

using namespace usw;

kern::KernelEnv burgers_env() {
  kern::KernelEnv env;
  env.time = 0.05;
  env.dt = 1e-4;
  env.dx = env.dy = env.dz = 1.0 / 64;
  return env;
}

void BM_BurgersKernelScalar(benchmark::State& state) {
  const grid::Box region{{0, 0, 0}, {32, 32, 8}};
  var::CCVariable<double> in(region.grown(1)), out(region);
  SplitMix64 rng(1);
  for (double& x : in.data()) x = rng.next_in(0.0, 1.0);
  const kern::KernelVariants kv = apps::burgers::make_burgers_kernel(false);
  const kern::KernelEnv env = burgers_env();
  for (auto _ : state)
    kv.scalar(env, kern::FieldView::of(in), kern::FieldView::of(out), region);
  state.SetItemsProcessed(state.iterations() * region.volume());
}
BENCHMARK(BM_BurgersKernelScalar);

void BM_BurgersKernelSimd(benchmark::State& state) {
  const grid::Box region{{0, 0, 0}, {32, 32, 8}};
  var::CCVariable<double> in(region.grown(1)), out(region);
  SplitMix64 rng(1);
  for (double& x : in.data()) x = rng.next_in(0.0, 1.0);
  const kern::KernelVariants kv = apps::burgers::make_burgers_kernel(false);
  const kern::KernelEnv env = burgers_env();
  for (auto _ : state)
    kv.simd(env, kern::FieldView::of(in), kern::FieldView::of(out), region);
  state.SetItemsProcessed(state.iterations() * region.volume());
}
BENCHMARK(BM_BurgersKernelSimd);

void BM_PhiFast(benchmark::State& state) {
  SplitMix64 rng(2);
  double x = rng.next_double();
  double acc = 0;
  for (auto _ : state) {
    acc += apps::burgers::phi_fast(x, 0.1);
    x += 1e-6;
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PhiFast);

void BM_ExpFast(benchmark::State& state) {
  double x = -50.0;
  double acc = 0;
  for (auto _ : state) {
    acc += kern::exp_fast(x);
    x += 1e-5;
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExpFast);

void BM_ExpIeee(benchmark::State& state) {
  double x = -50.0;
  double acc = 0;
  for (auto _ : state) {
    acc += std::exp(x);
    x += 1e-5;
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExpIeee);

void BM_PackUnpack(benchmark::State& state) {
  const grid::Box box{{0, 0, 0}, {64, 64, 64}};
  var::CCVariable<double> src(box), dst(box);
  const grid::Box region{{0, 0, 0}, {1, 64, 64}};  // x-face, worst stride
  for (auto _ : state) {
    auto bytes = src.pack(region);
    dst.unpack(region, bytes);
    benchmark::DoNotOptimize(bytes);
  }
  state.SetBytesProcessed(state.iterations() * region.volume() * 8);
}
BENCHMARK(BM_PackUnpack);

void BM_LdmAllocReset(benchmark::State& state) {
  hw::Ldm ldm(64 * 1024);
  for (auto _ : state) {
    ldm.reset();
    auto a = ldm.alloc<double>(3240);
    auto b = ldm.alloc<double>(2048);
    benchmark::DoNotOptimize(a.data());
    benchmark::DoNotOptimize(b.data());
  }
}
BENCHMARK(BM_LdmAllocReset);

void BM_GrantHandoff(benchmark::State& state) {
  // Host cost of one grant handoff under the serial cap, the dominant
  // host-side overhead of the discrete-event simulation: every rank
  // advances one full window per gate, so each gate parks and hands the
  // grant to the next rank of the window (window opens amortise over the
  // ranks). Includes run_ranks setup; reported as time per_grant.
  constexpr TimePs kWindow = 10;
  constexpr int kGates = 100;
  const int nranks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::run_ranks(
        nranks,
        [](sim::Coordinator& c, int r) {
          for (int i = 0; i < kGates; ++i) {
            c.advance(r, kWindow);
            c.gate(r);
          }
        },
        nullptr, kWindow);
  }
  // One grant per rank to start, then one per gate.
  const double grants =
      static_cast<double>(state.iterations()) * nranks * (kGates + 1);
  state.SetItemsProcessed(static_cast<std::int64_t>(grants));
  state.counters["per_grant"] = benchmark::Counter(
      grants, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_GrantHandoff)->Arg(2)->Arg(1024)->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_WindowOpen(benchmark::State& state) {
  // Host cost of one window while all but two ranks stay parked on a
  // scan-derived wake (a wait with a refresh, as comm waits park): ranks 0
  // and 1 step one window per gate, the rest wait for a wake past the
  // end. Timed inside the run, from the third window to the last, so
  // fiber setup is excluded; reported as time per_window.
  constexpr TimePs kWindow = 10;
  constexpr int kWindows = 2000;
  constexpr int kTimed = kWindows - 2;
  const int nranks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    std::chrono::steady_clock::time_point start;
    std::chrono::steady_clock::time_point stop;
    sim::run_ranks(
        nranks,
        [&](sim::Coordinator& c, int r) {
          if (r >= 2) {
            const std::function<TimePs()> refresh = [] { return sim::kNever; };
            c.wait_until(r, (kWindows + 1) * kWindow, refresh);
            return;
          }
          for (int i = 0; i < kWindows; ++i) {
            c.advance(r, kWindow);
            c.gate(r);
            if (r == 0 && i == 1) start = std::chrono::steady_clock::now();
          }
          if (r == 0) stop = std::chrono::steady_clock::now();
        },
        nullptr, kWindow);
    state.SetIterationTime(std::chrono::duration<double>(stop - start).count());
  }
  const double windows = static_cast<double>(state.iterations()) * kTimed;
  state.counters["per_window"] = benchmark::Counter(
      windows, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_WindowOpen)->Arg(16)->Arg(1024)->UseManualTime()->Unit(benchmark::kMillisecond);

void BM_FiberSwitch(benchmark::State& state) {
  // One resume + yield round trip of a rank fiber: the context-switch
  // half of a grant handoff.
  bool stop = false;
  sim::Fiber* self = nullptr;
  sim::Fiber fiber([&] {
    while (!stop) self->yield();
  });
  self = &fiber;
  for (auto _ : state) fiber.resume();
  stop = true;
  fiber.resume();
}
BENCHMARK(BM_FiberSwitch);

void BM_OffloadPlan(benchmark::State& state) {
  // Host cost of planning one offload of the paper's 128x128x512 patch
  // (4096 16x16x8 tiles on 64 CPEs): the tiling, the tile->CPE assignment
  // and its charge walk, which the scheduler makes on a task's first
  // offload.
  const auto policy = static_cast<sched::TilePolicy>(state.range(0));
  const hw::CostModel cost(hw::MachineParams::sunway_taihulight());
  const kern::KernelVariants kv = apps::burgers::make_burgers_kernel(false);
  sched::TileExecArgs args;
  args.kernel = &kv;
  args.patch_cells = grid::Box{{0, 0, 0}, {128, 128, 512}};
  args.policy = policy;
  for (auto _ : state) {
    const grid::Tiling tiling(args.patch_cells, kv.tile_shape);
    const sched::TilePlan plan =
        sched::plan_tile_assignment(args, tiling, 64, 64, cost);
    benchmark::DoNotOptimize(plan.busy.data());
  }
  state.SetLabel(sched::to_string(policy));
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_OffloadPlan)
    ->Arg(static_cast<int>(sched::TilePolicy::kStaticZ))
    ->Arg(static_cast<int>(sched::TilePolicy::kDynamic));

void BM_OffloadCharge(benchmark::State& state) {
  // Host cost of one timing-only offload of the planned 128x128x512 patch:
  // spawn and join, the plan's charge set on the MPE, on the serial or the
  // threads backend. What each step pays per offload once the plan is
  // cached; a timing-only offload dispatches no body on either backend.
  const auto backend = static_cast<athread::Backend>(state.range(0));
  const hw::CostModel cost(hw::MachineParams::sunway_taihulight());
  const kern::KernelVariants kv = apps::burgers::make_burgers_kernel(false);
  sched::TileExecArgs args;
  args.kernel = &kv;
  args.patch_cells = grid::Box{{0, 0, 0}, {128, 128, 512}};
  const grid::Tiling tiling(args.patch_cells, kv.tile_shape);
  const auto plan = std::make_shared<const sched::TilePlan>(
      sched::plan_tile_assignment(args, tiling, 64, 64, cost));
  std::unique_ptr<athread::WorkerPool> pool;
  if (backend == athread::Backend::kThreads)
    pool = std::make_unique<athread::WorkerPool>(2);
  std::vector<TimePs> fault_busy;
  sim::run_ranks(1, [&](sim::Coordinator& coord, int rank) {
    athread::CpeCluster cluster(cost, coord, rank, nullptr, 1, backend,
                                pool.get());
    for (auto _ : state) {
      cluster.spawn(
          sched::tile_offload(args, plan, tiling, 64, cost, fault_busy));
      cluster.join();
      benchmark::DoNotOptimize(coord.now(rank));
    }
  });
  state.SetLabel(athread::to_string(backend));
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_OffloadCharge)
    ->Arg(static_cast<int>(athread::Backend::kSerial))
    ->Arg(static_cast<int>(athread::Backend::kThreads));

}  // namespace

BENCHMARK_MAIN();
