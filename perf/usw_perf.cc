// usw_perf: the in-process half of the benchmark (perf/run.py is the
// other half). It runs one named workload through runtime::run_simulation and
// prints raw measurements as a single JSON object on stdout; run.py
// turns them into metrics, checks the outputs, and owns all statistics.
//
//   usw_perf --workload=NAME --seconds=S --seed=N --trace=0|1
//
// --trace=0 times repeated untraced calls: `run` repetitions of the full
// workload and `setup` repetitions of the same call with timesteps = 0,
// interleaved in a seed-chosen order, until S seconds are used. Each call
// records its wall and CPU time and the hypervisor steal ticks during it,
// so run.py can leave out the calls that were stolen from most. The
// peak resident set is read once at the end, so one process must run one
// workload only (ru_maxrss never decreases).
//
// --trace=1 is the per-layer run: traced/untraced pairs of the workload
// (counts, host registry, obs rollups and the tracing overhead), the
// serial/parallel coordinator contract on the halo problem, and replays
// that call each layer's public functions at the workload's shapes and
// time them from here. Nothing inside the simulator is instrumented.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <functional>
#include <iostream>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "apps/burgers/burgers_app.h"
#include "apps/burgers/kernels.h"
#include "athread/athread.h"
#include "athread/worker_pool.h"
#include "comm/comm.h"
#include "grid/level.h"
#include "grid/tiling.h"
#include "hw/cost_model.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "runtime/controller.h"
#include "runtime/observe.h"
#include "sched/tile_policy.h"
#include "sim/coordinator.h"
#include "support/options.h"
#include "support/stats.h"
#include "var/ccvariable.h"

namespace {

using namespace usw;
using Clock = std::chrono::steady_clock;

/// Tile shape of the Burgers kernel (Sec VI-A); also the replay shape.
constexpr grid::IntVec kTileShape{16, 16, 8};
/// Steps of the serial/parallel coordinator contract check on the halo
/// problem: the serial token is slow on 1024 ranks.
constexpr int kContractSteps = 6;
/// Share of the untraced time budget spent on setup calls, and the least
/// number of setup calls an untraced invocation makes.
constexpr double kSetupShare = 0.1;
constexpr int kMinSetupReps = 15;
/// Full-run repetitions the untraced loop makes even past its time budget.
constexpr int kMinRunReps = 3;

int host_threads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hc, 1u, 4u));
}

/// halo_1k's coordinator: windowed-parallel grants on min(4, nproc) threads.
sim::CoordinatorSpec halo_parallel() {
  return {sim::CoordinatorMode::kParallel, host_threads()};
}

struct Workload {
  std::string name;
  runtime::RunConfig config;
};

/// The benchmark's workloads. Each sets only problem, variant, nranks,
/// timesteps, storage, backend and coordinator; every other plane keeps
/// the program's default so the benchmark follows the default as it moves.
Workload make_workload(const std::string& name) {
  Workload w;
  w.name = name;
  runtime::RunConfig& c = w.config;
  c.variant = runtime::variant_by_name("acc_simd.async");
  if (name == "paper_128") {
    c.problem = runtime::problem_by_name("128x128x512");
    c.nranks = 128;
    c.timesteps = 10;
    c.storage = var::StorageMode::kTimingOnly;
  } else if (name == "halo_1k") {
    c.problem = runtime::tiny_problem({16, 16, 8}, {8, 8, 8});
    c.nranks = 1024;
    c.timesteps = 20;
    c.storage = var::StorageMode::kTimingOnly;
    c.coordinator = halo_parallel();
  } else if (name == "burgers_fields") {
    c.problem = runtime::tiny_problem({4, 4, 4}, {32, 32, 32});
    c.nranks = 8;
    c.timesteps = 10;
    c.storage = var::StorageMode::kFunctional;
    c.backend = athread::Backend::kThreads;
    c.backend_threads = host_threads();
  } else {
    throw ConfigError("unknown workload '" + name + "'");
  }
  return w;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Cumulative steal ticks of all CPUs (/proc/stat): time the hypervisor
/// ran something else while this VM wanted to run. -1 when unreadable.
std::int64_t steal_ticks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return -1;
  long long v[8] = {};
  const int n = std::fscanf(f, "cpu %lld %lld %lld %lld %lld %lld %lld %lld", &v[0],
                            &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  return n == 8 ? v[7] : -1;
}

std::string hex(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// Everything a repetition must reproduce exactly: virtual step walls,
/// counters and (functional runs) the verification errors. Two runs of
/// one configuration that differ here are a failure.
std::string signature(const runtime::RunResult& r) {
  const hw::PerfCounters c = r.merged_counters();
  std::string s = "steps=";
  for (int i = 0; i < r.timesteps; ++i)
    s += std::to_string(r.step_wall(i)) + ",";
  s += ";init=" + std::to_string(r.ranks.at(0).init_wall);
  s += ";flops=" + hex(c.counted_flops);
  s += ";msgs=" + std::to_string(c.messages_sent);
  s += ";posts=" + std::to_string(c.mpi_posts);
  s += ";bytes=" + std::to_string(c.bytes_sent);
  s += ";offloads=" + std::to_string(c.kernels_offloaded);
  s += ";tiles=" + std::to_string(c.tiles_executed);
  s += ";cells=" + std::to_string(c.cells_computed);
  s += ";dma=" + std::to_string(c.dma_bytes_in + c.dma_bytes_out);
  s += ";pack=" + std::to_string(c.pack_bytes);
  for (const auto& [key, value] : r.ranks.at(0).metrics)
    s += ";" + key + "=" + hex(value);
  return s;
}

/// One call of run_simulation, as run.py sees it.
struct Rep {
  std::string kind;  ///< "run", "setup", "traced" or "contract"
  std::string config;  ///< which configuration the signature belongs to
  bool ok = false;
  std::string error;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::int64_t steal_ticks = 0;  ///< steal during the call (all CPUs)
  std::int64_t virt_step_ps = 0;
  std::uint64_t msgs = 0;
  std::uint64_t posts = 0;
  std::string signature;
  std::string fallback;  ///< RunResult::coordinator_fallback
  bool has_errors = false;  ///< functional run with l2/linf metrics
  double l2 = 0.0;
  double linf = 0.0;
};

Rep run_once(const std::string& kind, const std::string& config_name,
             const runtime::RunConfig& config, runtime::RunResult* keep) {
  Rep rep;
  rep.kind = kind;
  rep.config = config_name;
  const apps::burgers::BurgersApp app;
  const std::int64_t steal0 = steal_ticks();
  const double cpu0 = cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  try {
    runtime::RunResult result = runtime::run_simulation(config, app);
    rep.wall_s = seconds_since(t0);
    rep.cpu_s = cpu_seconds() - cpu0;
    rep.steal_ticks = steal_ticks() - steal0;
    rep.ok = true;
    rep.virt_step_ps = result.mean_step_wall();
    const hw::PerfCounters c = result.merged_counters();
    rep.msgs = c.messages_sent;
    rep.posts = c.mpi_posts;
    rep.signature = signature(result);
    rep.fallback = result.coordinator_fallback;
    const auto& m = result.ranks.at(0).metrics;
    if (m.count("l2_error") != 0 && m.count("linf_error") != 0) {
      rep.has_errors = true;
      rep.l2 = m.at("l2_error");
      rep.linf = m.at("linf_error");
    }
    if (keep != nullptr) *keep = std::move(result);
  } catch (const std::exception& e) {
    rep.wall_s = seconds_since(t0);
    rep.cpu_s = cpu_seconds() - cpu0;
    rep.error = e.what();
  }
  return rep;
}

void write_rep(obs::JsonWriter& w, const Rep& r) {
  w.begin_object();
  w.kv("kind", r.kind);
  w.kv("config", r.config);
  w.kv("ok", r.ok);
  w.kv("error", r.error);
  w.kv("wall_s", r.wall_s);
  w.kv("cpu_s", r.cpu_s);
  w.kv("steal_ticks", r.steal_ticks);
  w.kv("virt_step_ps", r.virt_step_ps);
  w.kv("msgs", r.msgs);
  w.kv("posts", r.posts);
  w.kv("signature", r.signature);
  w.kv("fallback", r.fallback);
  if (r.has_errors) {
    w.kv("l2_error", r.l2);
    w.kv("linf_error", r.linf);
  }
  w.end_object();
}

/// The untraced loop. Each round is one full run and a batch of setup
/// calls that brings setup time up to kSetupShare of the time used; the
/// seed picks whether the batch goes before or after the run. Rounds go on
/// while the budget lasts (at least kMinRunReps runs), then setup calls
/// are topped up to kMinSetupReps.
std::vector<Rep> timed_reps(const Workload& w, double seconds, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  runtime::RunConfig setup_config = w.config;
  setup_config.timesteps = 0;
  std::vector<Rep> reps;
  int setups = 0;
  double setup_s = 0.0;
  const Clock::time_point t0 = Clock::now();
  const auto setup_batch = [&] {
    while (setup_s < kSetupShare * seconds_since(t0)) {
      reps.push_back(run_once("setup", w.name + "@setup", setup_config, nullptr));
      setup_s += reps.back().wall_s;
      ++setups;
    }
  };
  double last_run_s = 0.0;
  for (int runs = 0;
       runs < kMinRunReps || seconds_since(t0) + last_run_s <= seconds; ++runs) {
    const bool batch_first = (rng() & 1U) != 0;
    if (batch_first) setup_batch();
    reps.push_back(run_once("run", w.name, w.config, nullptr));
    last_run_s = reps.back().wall_s;
    if (!batch_first) setup_batch();
  }
  for (; setups < kMinSetupReps; ++setups)
    reps.push_back(run_once("setup", w.name + "@setup", setup_config, nullptr));
  return reps;
}

// ---------------------------------------------------------------------------
// Replays: each times one layer's public functions at the workload's shape.

/// Median host µs per call of `op` over batches, run for about
/// `seconds` (at least three batches of at least ~20 ms each).
double median_us_per_op(const std::function<void()>& op, double seconds) {
  int batch = 1;
  for (;;) {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < batch; ++i) op();
    if (seconds_since(t0) >= 0.02 || batch >= (1 << 24)) break;
    batch *= 2;
  }
  std::vector<double> per_op;
  const Clock::time_point start = Clock::now();
  while (per_op.size() < 3 || seconds_since(start) < seconds) {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < batch; ++i) op();
    per_op.push_back(seconds_since(t0) * 1e6 / batch);
  }
  std::nth_element(per_op.begin(), per_op.begin() + per_op.size() / 2, per_op.end());
  return per_op[per_op.size() / 2];
}

double median_of(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

/// The coordinator's lookahead: the minimum message latency. Must match
/// the `lookahead` run_simulation computes (runtime/controller.cc), which
/// keeps the formula inline; the sim and comm replays price this window.
TimePs lookahead_of(const hw::MachineParams& m) {
  return m.net_latency + m.mpi_sw_latency;
}

/// sim: µs per Coordinator::advance plus the gate that re-grants, with the
/// workload's rank count and CoordinatorSpec. Each advance moves a rank
/// by one lookahead, so every gate crosses a grant (serial) or a window
/// barrier (parallel), as halo exchanges do.
struct SimReplay {
  double advance_us = 0.0;
  double cpu_per_wall = 0.0;
};

SimReplay replay_sim(const runtime::RunConfig& c) {
  const TimePs dt = lookahead_of(c.machine);
  const int iters = std::max(4, 20000 / c.nranks);
  std::vector<double> us, ratio;
  for (int rep = 0; rep < 3; ++rep) {
    const double cpu0 = cpu_seconds();
    const Clock::time_point t0 = Clock::now();
    sim::run_ranks(
        c.nranks,
        [&](sim::Coordinator& coord, int rank) {
          for (int i = 0; i < iters; ++i) {
            coord.advance(rank, dt);
            coord.gate(rank);
          }
        },
        nullptr, dt, nullptr, 0, c.coordinator);
    const double wall = seconds_since(t0);
    us.push_back(wall * 1e6 / (static_cast<double>(c.nranks) * iters));
    ratio.push_back((cpu_seconds() - cpu0) / wall);
  }
  return {median_of(us), median_of(ratio)};
}

/// comm: µs per message for isend + irecv + test_bulk to completion
/// between ranks 0 and 1 of a P-rank Network, at `bytes` per message.
/// Each endpoint posts a burst of kBurst receives and sends per iteration,
/// as a scheduler posts a step's halo, so the grant handoff between the
/// two rank threads is shared by the burst instead of priced per message.
double replay_comm(const runtime::RunConfig& c, std::uint64_t bytes) {
  constexpr int kBurst = 16;
  const hw::CostModel cost(c.machine);
  const bool functional = c.storage == var::StorageMode::kFunctional;
  const int iters = 200;
  std::vector<double> us;
  for (int rep = 0; rep < 3; ++rep) {
    comm::Network net(std::max(2, c.nranks), cost);
    const Clock::time_point t0 = Clock::now();
    sim::run_ranks(
        2,
        [&](sim::Coordinator& coord, int rank) {
          comm::Comm comm(net, coord, rank);
          comm.set_agg(c.comm_agg);
          comm.set_progress(c.comm_progress);
          const int peer = 1 - rank;
          std::vector<comm::RequestId> ids;
          for (int i = 0; i < iters; ++i) {
            ids.clear();
            for (int m = 0; m < kBurst; ++m) ids.push_back(comm.irecv(peer, m));
            for (int m = 0; m < kBurst; ++m)
              ids.push_back(functional
                                ? comm.isend(peer, m, std::vector<std::byte>(bytes))
                                : comm.isend_bytes(peer, m, bytes));
            comm.flush_sends();
            if (comm.test_bulk(ids) < ids.size()) comm.wait_all(ids);
            comm.reset_requests();
          }
        },
        nullptr, lookahead_of(c.machine));
    us.push_back(seconds_since(t0) * 1e6 / (2.0 * kBurst * iters));
  }
  return median_of(us);
}

/// athread: µs per spawn + join of an empty 64-CPE job on the workload's
/// backend (one rank, so the coordinator never hands the grant away).
double replay_spawn(const runtime::RunConfig& c, double seconds) {
  const hw::CostModel cost(c.machine);
  std::unique_ptr<athread::WorkerPool> pool;
  if (c.backend == athread::Backend::kThreads)
    pool = std::make_unique<athread::WorkerPool>(c.backend_threads);
  double us = 0.0;
  sim::run_ranks(1, [&](sim::Coordinator& coord, int rank) {
    hw::PerfCounters counters;
    athread::CpeCluster cluster(cost, coord, rank, &counters, 1, c.backend,
                                pool.get());
    const athread::CpeJob empty = [](athread::CpeContext&) {};
    us = median_us_per_op(
        [&] {
          cluster.spawn(empty);
          cluster.join();
        },
        seconds);
  });
  return us;
}

/// athread on the serial backend, which has no worker pool: the pool
/// figures of kPoolSpawns spawn+join of the same empty 64-CPE job on the
/// threads backend, through a profiled pool of min(4, nproc) workers.
constexpr int kPoolSpawns = 100;

struct PoolFigures {
  double wait_p50_us = 0.0;
  double wait_p95_us = 0.0;
  std::uint64_t tasks = 0;
};

PoolFigures replay_pool(const runtime::RunConfig& c) {
  const hw::CostModel cost(c.machine);
  athread::WorkerPool pool(host_threads());
  pool.enable_profiling();
  sim::run_ranks(1, [&](sim::Coordinator& coord, int rank) {
    athread::CpeCluster cluster(cost, coord, rank, nullptr, 1,
                                athread::Backend::kThreads, &pool);
    const athread::CpeJob empty = [](athread::CpeContext&) {};
    for (int i = 0; i < kPoolSpawns; ++i) {
      cluster.spawn(empty);
      cluster.join();
    }
  });
  const athread::WorkerPool::PoolStats ps = pool.stats();
  return {percentile(ps.queue_wait_us, 50), percentile(ps.queue_wait_us, 95), ps.tasks};
}

/// kern: cells per second of the Burgers SIMD kernel on one LDM tile.
double replay_kernel(const grid::Level& level, double seconds) {
  const kern::KernelVariants kv = apps::burgers::make_burgers_kernel();
  const grid::Box tile{grid::IntVec{0, 0, 0}, kTileShape};
  var::CCVariable<double> in(tile.grown(kv.ghost));
  var::CCVariable<double> out(tile);
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> u(0.1, 1.0);
  for (double& v : in.data()) v = u(rng);
  kern::KernelEnv env;
  env.dt = 1e-6;
  env.dx = level.dx();
  env.dy = level.dy();
  env.dz = level.dz();
  const kern::FieldView vin = kern::FieldView::of(in);
  const kern::FieldView vout = kern::FieldView::of(out);
  const double us = median_us_per_op([&] { kv.simd(env, vin, vout, tile); }, seconds);
  return static_cast<double>(tile.volume()) / (us * 1e-6);
}

/// var: GB/s of pack + unpack over the six one-layer faces of the
/// workload's patch (the halo a patch provides), counting bytes both ways.
double replay_pack(const grid::Patch& patch, double seconds) {
  var::CCVariable<double> v(patch.ghosted(1));
  std::iota(v.data().begin(), v.data().end(), 0.0);
  const grid::Box cells = patch.cells();
  std::vector<grid::Box> faces;
  for (int axis = 0; axis < 3; ++axis) {
    grid::Box lo = cells;
    grid::Box hi = cells;
    lo.hi[axis] = cells.lo[axis] + 1;
    hi.lo[axis] = cells.hi[axis] - 1;
    faces.push_back(lo);
    faces.push_back(hi);
  }
  double bytes = 0.0;
  for (const grid::Box& f : faces)
    bytes += 2.0 * static_cast<double>(f.volume()) * sizeof(double);
  const double us = median_us_per_op(
      [&] {
        for (const grid::Box& f : faces) v.unpack(f, v.pack(f));
      },
      seconds);
  return bytes / (us * 1e-6) / 1e9;
}

// ---------------------------------------------------------------------------

/// What the traced run returns: merged counters, the host registry and the
/// obs rollups (overlap efficiency, mean per-step critical path).
void write_observation(obs::JsonWriter& w, const runtime::RunResult& r,
                       const runtime::RunConfig& config) {
  const hw::PerfCounters c = r.merged_counters();
  w.key("counters");
  w.begin_object();
  w.kv("messages_sent", c.messages_sent);
  w.kv("mpi_posts", c.mpi_posts);
  w.kv("bytes_sent", c.bytes_sent);
  w.kv("kernels_offloaded", c.kernels_offloaded);
  w.kv("tiles_executed", c.tiles_executed);
  w.kv("cells_computed", c.cells_computed);
  w.kv("pack_bytes", c.pack_bytes);
  w.kv("dma_bytes", c.dma_bytes_in + c.dma_bytes_out);
  w.kv("kernel_time_ps", static_cast<std::int64_t>(c.kernel_time));
  w.kv("mpe_task_time_ps", static_cast<std::int64_t>(c.mpe_task_time));
  w.kv("comm_time_ps", static_cast<std::int64_t>(c.comm_time));
  w.kv("wait_time_ps", static_cast<std::int64_t>(c.wait_time));
  w.end_object();

  const obs::MetricsRegistry& h = r.host.reg;
  w.key("host");
  w.begin_object();
  const obs::Distribution* init = h.distribution("host.rank_init_ms");
  w.kv("rank_init_ms_mean", init != nullptr ? init->stats.mean() : 0.0);
  // The worker pool's figures: the program's own on the threads backend,
  // the pool replay's on the serial backend (which has no pool).
  const obs::Distribution* qw = h.distribution("host.pool_queue_wait_us");
  if (qw != nullptr && !qw->samples.empty()) {
    w.kv("pool_source", "program");
    w.kv("pool_queue_wait_us_p50", qw->pct(50));
    w.kv("pool_queue_wait_us_p95", qw->pct(95));
    w.kv("pool_tasks", h.counter("host.pool_tasks"));
  } else {
    const PoolFigures p = replay_pool(config);
    w.kv("pool_source", "replay");
    w.kv("pool_queue_wait_us_p50", p.wait_p50_us);
    w.kv("pool_queue_wait_us_p95", p.wait_p95_us);
    w.kv("pool_tasks", p.tasks);
  }
  w.end_object();

  const obs::MetricsReport m = obs::build_metrics(runtime::observe(r));
  double cp_ps = 0.0;
  for (const obs::StepMetrics& s : m.steps) cp_ps += static_cast<double>(s.critical_path);
  w.key("obs");
  w.begin_object();
  w.kv("overlap_eff", m.overlap_efficiency);
  w.kv("critical_path_ms_mean",
       m.steps.empty() ? 0.0 : cp_ps / static_cast<double>(m.steps.size()) / 1e9);
  w.end_object();
}

void traced_run(obs::JsonWriter& w, const Workload& wl, double seconds,
                std::uint64_t seed) {
  const runtime::RunConfig& c = wl.config;
  runtime::RunConfig traced = c;
  traced.collect_trace = true;
  traced.collect_metrics = true;

  // Traced/untraced pairs for the counts and the tracing overhead; the
  // seed picks which side of each pair runs first. At least two pairs,
  // within about 60% of the budget. The counts come from the first traced
  // call that succeeds.
  std::mt19937_64 rng(seed);
  std::vector<Rep> reps;
  runtime::RunResult kept;
  const Clock::time_point t0 = Clock::now();
  double pair_s = 0.0;
  for (int pair = 0; pair < 2 || seconds_since(t0) + pair_s <= 0.6 * seconds;
       ++pair) {
    const Clock::time_point p0 = Clock::now();
    const bool traced_first = (rng() & 1U) != 0;
    for (int side = 0; side < 2; ++side) {
      if ((side == 0) == traced_first)
        reps.push_back(
            run_once("traced", wl.name, traced, kept.ranks.empty() ? &kept : nullptr));
      else
        reps.push_back(run_once("run", wl.name, c, nullptr));
    }
    pair_s = seconds_since(p0);
  }

  // Serial/parallel coordinator contract on the halo problem: halo_1k's
  // grid under both coordinators, at one step count.
  if (wl.name == "halo_1k") {
    runtime::RunConfig contract = c;
    contract.timesteps = kContractSteps;
    contract.coordinator = halo_parallel();
    reps.push_back(run_once("contract", "halo@parallel", contract, nullptr));
    contract.coordinator = sim::CoordinatorSpec{};
    reps.push_back(run_once("contract", "halo@serial", contract, nullptr));
  }

  w.key("reps");
  w.begin_array();
  for (const Rep& r : reps) write_rep(w, r);
  w.end_array();
  const bool have_traced = !kept.ranks.empty();
  if (!have_traced) return;
  write_observation(w, kept, c);

  // Replays at this workload's shapes.
  const grid::Level level(c.problem.patch_layout, c.problem.patch_size);
  const grid::Patch& patch = level.patch(0);
  const hw::CostModel cost(c.machine);
  const hw::PerfCounters sum = kept.merged_counters();
  const std::uint64_t msg_bytes =
      sum.messages_sent > 0 ? sum.bytes_sent / sum.messages_sent : 0;
  const double slice = 0.4;  // seconds per time-boxed replay

  w.key("replay");
  w.begin_object();
  const SimReplay s = replay_sim(c);
  w.kv("sim_advance_us", s.advance_us);
  w.kv("sim_cpu_per_wall", s.cpu_per_wall);
  w.kv("comm_msg_bytes", msg_bytes);
  w.kv("comm_exchange_us", msg_bytes > 0 ? replay_comm(c, msg_bytes) : 0.0);
  const grid::Tiling tiling(patch.cells(), kTileShape);
  w.kv("grid_tiles_per_patch", tiling.num_tiles());
  w.kv("grid_tiling_us", median_us_per_op(
                             [&] { grid::Tiling t(patch.cells(), kTileShape); },
                             slice));
  const sched::TileCostFn tile_cost = [&](int i) {
    return static_cast<TimePs>(tiling.tile(i).volume()) * kNanosecond;
  };
  w.kv("sched_assign_us",
       median_us_per_op(
           [&] {
             sched::assign_tiles(tiling, cost.params().cpes_per_cg,
                                 sched::TilePolicy::kStaticZ, tile_cost,
                                 cost.cpe_faaw());
           },
           slice));
  w.kv("athread_spawn_us", replay_spawn(c, slice));
  w.kv("kern_cells_per_s", replay_kernel(level, slice));
  w.kv("var_pack_gbps", replay_pack(patch, slice));
  w.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  try {
    const Workload wl = make_workload(opts.get("workload", ""));
    const double seconds = opts.get_double("seconds", 10.0);
    const auto seed = static_cast<std::uint64_t>(opts.get_int("seed", 0));
    const bool trace = opts.get_bool("trace", false);
    if (!(seconds > 0.0)) throw ConfigError("--seconds must be positive");

    obs::JsonWriter w(std::cout, 0);
    w.begin_object();
    w.kv("workload", wl.name);
    w.kv("seed", seed);
    w.kv("nranks", wl.config.nranks);
    w.kv("timesteps", wl.config.timesteps);
    w.kv("functional", wl.config.storage == var::StorageMode::kFunctional);
    w.kv("host_threads", host_threads());
    if (trace) {
      traced_run(w, wl, seconds, seed);
    } else {
      w.key("reps");
      w.begin_array();
      for (const Rep& r : timed_reps(wl, seconds, seed)) write_rep(w, r);
      w.end_array();
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    w.kv("peak_rss_kb", static_cast<std::int64_t>(ru.ru_maxrss));
    w.end_object();
    std::cout << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "usw_perf: %s\n", e.what());
    return 1;
  }
}
