// Tests for the communication progress engine (comm/progress.h,
// --comm-progress), which every endpoint runs: spec parsing,
// deadline-driven aggregate flushes, the retransmit-stall regression (a
// lost send whose owner is waiting on a DIFFERENT request), shutdown/reset
// hygiene for buffered aggregates, and the central claim that numerics
// stay bit-equal — per variant, with aggregation on or off, under faults,
// across the serial/parallel coordinators, for any flush interval, and
// across checkpoint-restart.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "apps/burgers/burgers_app.h"
#include "comm/agg.h"
#include "comm/comm.h"
#include "comm/progress.h"
#include "fault/fault.h"
#include "hw/perf_counters.h"
#include "runtime/controller.h"
#include "sim/coordinator.h"
#include "support/error.h"

namespace usw::comm {
namespace {

namespace fs = std::filesystem;

hw::MachineParams machine() { return hw::MachineParams::sunway_taihulight(); }

/// Runs `body(comm, rank)` across `n` simulated ranks with aggregation
/// `agg` installed, the default progress policy (no set_progress call),
/// retransmission on, and per-rank counters collected into `counters`
/// (sized to n when non-null).
template <typename Fn>
void with_progress_ranks(int n, const AggSpec& agg, Fn&& body,
                         std::vector<hw::PerfCounters>* counters = nullptr,
                         const fault::FaultPlan* plan = nullptr) {
  const hw::CostModel cost(machine());
  Network net(n, cost);
  if (plan != nullptr) net.set_fault_plan(plan);
  if (counters != nullptr) counters->assign(n, hw::PerfCounters{});
  sim::run_ranks(n, [&](sim::Coordinator& coord, int rank) {
    Comm comm(net, coord, rank,
              counters != nullptr ? &(*counters)[rank] : nullptr);
    comm.set_retransmit(true);
    comm.set_agg(agg);
    body(comm, rank);
  });
}

std::vector<std::byte> bytes_of(const std::string& s) {
  std::vector<std::byte> out(s.size());
  std::memcpy(out.data(), s.data(), s.size());
  return out;
}

std::string str_of(const std::vector<std::byte>& b) {
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

// ---------------------------------------------------------------------------
// ProgressSpec parsing.

TEST(ProgressSpec, ParsesDefaultAndRejectsModeNames) {
  const ProgressSpec def = ProgressSpec::parse("");
  EXPECT_EQ(def.interval_us, -1);  // interval from the cost model
  EXPECT_EQ(def.describe(), "default");
  // Deadline-driven progress is the only path: there is no mode to pick.
  EXPECT_THROW(ProgressSpec::parse("inline"), ConfigError);
  EXPECT_THROW(ProgressSpec::parse("engine"), ConfigError);
  EXPECT_THROW(ProgressSpec::parse("engine:interval=50"), ConfigError);
}

TEST(ProgressSpec, ParsesExplicitInterval) {
  const ProgressSpec spec = ProgressSpec::parse("interval=50");
  EXPECT_EQ(spec.interval_us, 50);
  EXPECT_EQ(spec.describe(), "interval=50");
  // describe() round-trips through parse().
  const ProgressSpec again = ProgressSpec::parse(spec.describe());
  EXPECT_EQ(again.interval_us, spec.interval_us);
}

TEST(ProgressSpec, RejectsMalformedSpecs) {
  EXPECT_THROW(ProgressSpec::parse("turbo"), ConfigError);
  EXPECT_THROW(ProgressSpec::parse("cadence=5"), ConfigError);
  EXPECT_THROW(ProgressSpec::parse("interval="), ConfigError);
  EXPECT_THROW(ProgressSpec::parse("interval=banana"), ConfigError);
  EXPECT_THROW(ProgressSpec::parse("interval=12x"), ConfigError);
  // A zero or negative cadence can never fire: rejected at parse time.
  EXPECT_THROW(ProgressSpec::parse("interval=0"), ConfigError);
  EXPECT_THROW(ProgressSpec::parse("interval=-5"), ConfigError);
}

TEST(ProgressSpec, ValidateRejectsOutOfRangeInterval) {
  ProgressSpec spec;
  spec.interval_us = 0;
  EXPECT_THROW(spec.validate(), ConfigError);
  spec.interval_us = -7;
  EXPECT_THROW(spec.validate(), ConfigError);
  spec.interval_us = -1;  // the cost-model sentinel stays valid
  EXPECT_NO_THROW(spec.validate());
  spec.interval_us = 5;
  EXPECT_NO_THROW(spec.validate());
}

// ---------------------------------------------------------------------------
// Deadline-driven flushes: a buffered sub-message whose sender never calls
// flush_sends() still reaches the wire, at the buffer-age deadline.

TEST(CommProgress, EngineFlushesAgedBufferAtDeadline) {
  std::vector<hw::PerfCounters> counters;
  with_progress_ranks(
      2, AggSpec::parse("on"),
      [](Comm& comm, int rank) {
        if (rank == 0) {
          // Buffered (Bsend-style complete at append); nothing below the
          // size/count thresholds, and no explicit flush anywhere — only
          // the engine's age deadline can move this.
          comm.isend(1, 1, bytes_of("aged out"));
          const RequestId reply = comm.irecv(1, 2);
          comm.wait(reply);
          EXPECT_EQ(str_of(comm.take_payload(reply)), "ack");
        } else {
          const RequestId r = comm.irecv(0, 1);
          comm.wait(r);
          EXPECT_EQ(str_of(comm.take_payload(r)), "aged out");
          const RequestId s = comm.isend(0, 2, bytes_of("ack"));
          comm.wait(s);
        }
      },
      &counters);
  hw::PerfCounters sum;
  for (const auto& c : counters) sum.merge(c);
  EXPECT_GE(sum.progress_polls, 1u);
  EXPECT_GE(sum.progress_flushes_driven, 1u);
  EXPECT_GE(sum.agg_flushes, 1u);
}

// ---------------------------------------------------------------------------
// The retransmit stall. A send is lost; its owner never tests THAT
// request — it waits on a different one whose completion transitively
// depends on the lost send being retransmitted. Progress that only fires
// a retransmit timer from a test of the lost request itself deadlocks
// here in virtual time; the engine services the retransmit deadline no
// matter what the application is waiting on, with no flag needed.

constexpr int kStallTag = 1;
constexpr int kReplyTag = 2;

void stall_scenario(Comm& comm, int rank) {
  if (rank == 0) {
    // Lost on the wire (p=1); rank 0 never tests/waits this request.
    comm.isend(1, kStallTag, bytes_of("request"));
    // ... it waits on the reply instead, which rank 1 only sends after
    // the lost message above finally arrives.
    const RequestId reply = comm.irecv(1, kReplyTag);
    comm.wait(reply);
    EXPECT_EQ(str_of(comm.take_payload(reply)), "reply");
  } else {
    const RequestId r = comm.irecv(0, kStallTag);
    comm.wait(r);
    EXPECT_EQ(str_of(comm.take_payload(r)), "request");
    const RequestId s = comm.isend(0, kReplyTag, bytes_of("reply"));
    comm.wait(s);  // drives its own retransmits (also all-lost under p=1)
  }
}

TEST(CommProgress, LostUntestedSendRecoversUnderEngine) {
  const fault::FaultPlan plan = fault::FaultPlan::parse("msg_loss:p=1", 3);
  std::vector<hw::PerfCounters> counters;
  with_progress_ranks(
      2, AggSpec{},
      [](Comm& comm, int rank) { stall_scenario(comm, rank); }, &counters,
      &plan);
  hw::PerfCounters sum;
  for (const auto& c : counters) sum.merge(c);
  // The engine retransmitted the never-tested request at its deadline
  // (repeatedly: p=1 keeps losing it until the attempt cap forces it
  // through).
  EXPECT_GE(sum.progress_retransmits_driven, 1u);
  EXPECT_GT(sum.fault_injected, 0u);
}

// The same stall expressed through an aggregate: the lost wire message is
// a flushed aggregate whose (Bsend-complete) subs nobody can test.
TEST(CommProgress, LostAggregateRecoversUnderEngine) {
  const fault::FaultPlan plan = fault::FaultPlan::parse("msg_loss:p=1", 5);
  std::vector<hw::PerfCounters> counters;
  with_progress_ranks(
      2, AggSpec::parse("on"),
      [](Comm& comm, int rank) { stall_scenario(comm, rank); }, &counters,
      &plan);
  hw::PerfCounters sum;
  for (const auto& c : counters) sum.merge(c);
  EXPECT_GE(sum.progress_flushes_driven, 1u);
  EXPECT_GE(sum.progress_retransmits_driven, 1u);
}

// ---------------------------------------------------------------------------
// Shutdown/reset hygiene: a buffered aggregate whose age deadline is armed
// must not be stranded (or leak its deadline) across reset_requests().

TEST(CommProgress, ResetRequestsFlushesEngineBufferedAggregates) {
  with_progress_ranks(
      2, AggSpec::parse("on"),
      [](Comm& comm, int rank) {
        if (rank == 0) {
          const RequestId s = comm.isend(1, 9, bytes_of("pre-reset"));
          EXPECT_TRUE(comm.test(s));  // buffered: complete at append
          comm.reset_requests();      // must flush, not strand
          EXPECT_EQ(comm.progress_due(), sim::kNever);  // no stale deadline
          comm.barrier();
        } else {
          const RequestId r = comm.irecv(0, 9);
          comm.wait(r);
          EXPECT_EQ(str_of(comm.take_payload(r)), "pre-reset");
          comm.reset_requests();
          comm.barrier();
        }
      });
}

// ---------------------------------------------------------------------------
// End-to-end bit-equality: the engine may move virtual comm timing but
// never numerics, across every variant class, aggregation on or off.

runtime::RunConfig e2e_config() {
  runtime::RunConfig config;
  config.problem = runtime::tiny_problem({2, 2, 2}, {8, 8, 8});
  config.nranks = 4;
  config.timesteps = 3;
  return config;
}

TEST(CommProgressE2E, NumericsBitEqualAcrossVariants) {
  // serial/parallel coordinator x aggregation off/on, per variant class:
  // identical numerics everywhere, and byte-equal step walls and comm
  // counters between the coordinators for each aggregation setting.
  for (const std::string variant :
       {"host.sync", "acc.sync", "acc_simd.sync", "acc.async",
        "acc_simd.async"}) {
    runtime::RunConfig base = e2e_config();
    base.variant = runtime::variant_by_name(variant);
    const runtime::RunResult ref =
        runtime::run_simulation(base, apps::burgers::BurgersApp());
    for (const char* agg : {"off", "on"}) {
      runtime::RunConfig cfg = base;
      cfg.comm_agg = AggSpec::parse(agg);
      const runtime::RunResult serial =
          runtime::run_simulation(cfg, apps::burgers::BurgersApp());
      cfg.coordinator = sim::CoordinatorSpec::parse("parallel");
      const runtime::RunResult parallel =
          runtime::run_simulation(cfg, apps::burgers::BurgersApp());
      EXPECT_TRUE(parallel.coordinator_fallback.empty());

      ASSERT_EQ(ref.ranks.size(), parallel.ranks.size());
      for (std::size_t r = 0; r < ref.ranks.size(); ++r) {
        EXPECT_EQ(ref.ranks[r].metrics, serial.ranks[r].metrics)
            << variant << " agg " << agg << " rank " << r;
        EXPECT_EQ(ref.ranks[r].metrics, parallel.ranks[r].metrics)
            << variant << " agg " << agg << " rank " << r;
        EXPECT_EQ(serial.ranks[r].step_walls, parallel.ranks[r].step_walls)
            << variant << " agg " << agg << " rank " << r;
      }
      const hw::PerfCounters cs = serial.merged_counters();
      const hw::PerfCounters cp = parallel.merged_counters();
      EXPECT_EQ(cs.messages_sent, ref.merged_counters().messages_sent)
          << variant << " agg " << agg;
      EXPECT_EQ(cs.mpi_posts, cp.mpi_posts) << variant << " agg " << agg;
      EXPECT_EQ(cs.progress_polls, cp.progress_polls)
          << variant << " agg " << agg;
    }
  }
}

TEST(CommProgressE2E, IntervalMovesTimingNeverNumerics) {
  runtime::RunConfig cfg = e2e_config();
  cfg.variant = runtime::variant_by_name("acc_simd.async");
  cfg.comm_agg = AggSpec::parse("on");
  cfg.comm_progress = ProgressSpec::parse("interval=5");
  const runtime::RunResult fast =
      runtime::run_simulation(cfg, apps::burgers::BurgersApp());
  cfg.comm_progress = ProgressSpec::parse("interval=100");
  const runtime::RunResult slow =
      runtime::run_simulation(cfg, apps::burgers::BurgersApp());
  ASSERT_EQ(fast.ranks.size(), slow.ranks.size());
  for (std::size_t r = 0; r < fast.ranks.size(); ++r)
    EXPECT_EQ(fast.ranks[r].metrics, slow.ranks[r].metrics) << "rank " << r;
}

// Message loss with the default configuration (aggregation off): the
// engine drives retransmits at their deadlines and the numerics match the
// clean run bit for bit.
TEST(CommProgressE2E, FaultedRunStaysBitEqualWithEngine) {
  runtime::RunConfig clean_cfg = e2e_config();
  clean_cfg.variant = runtime::variant_by_name("acc.async");
  const runtime::RunResult clean =
      runtime::run_simulation(clean_cfg, apps::burgers::BurgersApp());

  runtime::RunConfig cfg = clean_cfg;
  cfg.faults =
      fault::FaultPlan::parse("msg_loss:p=0.2,msg_delay:p=0.2:factor=10", 13);
  const runtime::RunResult faulted =
      runtime::run_simulation(cfg, apps::burgers::BurgersApp());

  const hw::PerfCounters c = faulted.merged_counters();
  EXPECT_GT(c.fault_injected, 0u);
  EXPECT_GT(c.progress_retransmits_driven, 0u);
  ASSERT_EQ(clean.ranks.size(), faulted.ranks.size());
  for (std::size_t r = 0; r < clean.ranks.size(); ++r)
    EXPECT_EQ(clean.ranks[r].metrics, faulted.ranks[r].metrics)
        << "rank " << r;
}

// Serial vs parallel coordinator with aggregation on and a short flush
// interval, so buffer-age deadlines fire often while ranks run
// concurrently; virtual results must stay byte-equal down to per-step
// walls.
TEST(CommProgressE2E, SerialAndParallelCoordinatorsBitEqualWithEngine) {
  runtime::RunConfig cfg = e2e_config();
  cfg.variant = runtime::variant_by_name("acc_simd.async");
  cfg.comm_agg = AggSpec::parse("on");
  cfg.comm_progress = ProgressSpec::parse("interval=5");
  const runtime::RunResult serial =
      runtime::run_simulation(cfg, apps::burgers::BurgersApp());
  cfg.coordinator = sim::CoordinatorSpec::parse("parallel");
  const runtime::RunResult parallel =
      runtime::run_simulation(cfg, apps::burgers::BurgersApp());
  EXPECT_TRUE(parallel.coordinator_fallback.empty());
  EXPECT_GT(serial.merged_counters().progress_flushes_driven, 0u);

  ASSERT_EQ(serial.ranks.size(), parallel.ranks.size());
  for (std::size_t r = 0; r < serial.ranks.size(); ++r) {
    EXPECT_EQ(serial.ranks[r].metrics, parallel.ranks[r].metrics);
    EXPECT_EQ(serial.ranks[r].step_walls, parallel.ranks[r].step_walls);
  }
}

// ---------------------------------------------------------------------------
// Checkpoint-restart with buffered aggregates armed by the engine: a
// run killed mid-way and continued from its archive ends up byte-equal to
// the uninterrupted run — no sub-message is stranded in a coalescing
// buffer across the checkpoint boundary.

std::map<std::string, std::vector<char>> slurp_tree(const std::string& dir) {
  std::map<std::string, std::vector<char>> out;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    out[fs::relative(entry.path(), dir).string()] = std::vector<char>(
        std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  return out;
}

TEST(CommProgressE2E, RestartArchiveByteEqualWithEngine) {
  const std::string dir_full = ::testing::TempDir() + "/usw_prog_full";
  const std::string dir_cut = ::testing::TempDir() + "/usw_prog_cut";
  fs::remove_all(dir_full);
  fs::remove_all(dir_cut);

  runtime::RunConfig config = e2e_config();
  config.variant = runtime::variant_by_name("acc.async");
  config.comm_agg = AggSpec::parse("on");
  config.timesteps = 6;
  config.output_interval = 2;
  config.output_dir = dir_full;
  runtime::run_simulation(config, apps::burgers::BurgersApp());

  config.output_dir = dir_cut;
  config.timesteps = 4;  // the "killed" run, mid-aggregate lifetimes
  runtime::run_simulation(config, apps::burgers::BurgersApp());
  config.restart_dir = dir_cut;  // continue into the same archive
  config.timesteps = 2;
  runtime::run_simulation(config, apps::burgers::BurgersApp());

  const auto tree_full = slurp_tree(dir_full);
  const auto tree_cut = slurp_tree(dir_cut);
  ASSERT_FALSE(tree_full.empty());
  ASSERT_EQ(tree_full.size(), tree_cut.size());
  for (const auto& [name, bytes] : tree_full) {
    auto it = tree_cut.find(name);
    ASSERT_NE(it, tree_cut.end()) << name;
    EXPECT_TRUE(bytes == it->second) << "archive file differs: " << name;
  }
  fs::remove_all(dir_full);
  fs::remove_all(dir_cut);
}

}  // namespace
}  // namespace usw::comm
