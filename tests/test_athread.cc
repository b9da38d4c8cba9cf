// Tests for the athread emulation: offload protocol, completion-flag
// semantics, planned counters, and virtual-time behavior.

#include <gtest/gtest.h>

#include <vector>

#include "athread/athread.h"
#include "sim/coordinator.h"

namespace usw::athread {
namespace {

hw::MachineParams machine() { return hw::MachineParams::sunway_taihulight(); }

/// Per-CPE busy times (cpe_id + 1) us: CPE 63 is slowest.
std::vector<TimePs> ramp_busy() {
  std::vector<TimePs> busy(64);
  for (std::size_t id = 0; id < busy.size(); ++id)
    busy[id] = static_cast<TimePs>(id + 1) * kMicrosecond;
  return busy;
}

/// An offload with the given per-CPE busy times and no bodies.
Offload timed(const std::vector<TimePs>& busy) { return {busy, {}, {}, {}, {}}; }

/// Runs `body` as a single simulated rank with a cluster.
template <typename Fn>
void with_cluster(Fn&& body) {
  const hw::CostModel cost(machine());
  sim::run_ranks(1, [&](sim::Coordinator& coord, int rank) {
    hw::PerfCounters counters;
    CpeCluster cluster(cost, coord, rank, &counters);
    body(coord, cluster, counters, cost);
  });
}

TEST(CpeCluster, SpawnRunsBodyOncePerCpe) {
  with_cluster([](sim::Coordinator& coord, CpeCluster& cluster,
                  hw::PerfCounters&, const hw::CostModel&) {
    std::vector<int> seen;
    cluster.spawn([&seen](CpeContext& ctx) { seen.push_back(ctx.cpe_id()); });
    EXPECT_EQ(seen.size(), 64u);
    EXPECT_EQ(seen.front(), 0);
    EXPECT_EQ(seen.back(), 63);
    cluster.join();
    (void)coord;
  });
}

TEST(CpeCluster, CompletionIsMaxOverCpes) {
  with_cluster([](sim::Coordinator& coord, CpeCluster& cluster,
                  hw::PerfCounters&, const hw::CostModel&) {
    const std::vector<TimePs> busy = ramp_busy();
    cluster.spawn(timed(busy));
    const TimePs spawn_done = coord.now(0);
    EXPECT_EQ(cluster.completion_time(), spawn_done + 64 * kMicrosecond);
    cluster.join();
    EXPECT_EQ(coord.now(0), spawn_done + 64 * kMicrosecond);
  });
}

TEST(CpeCluster, FlagCountsCompletedCpes) {
  with_cluster([](sim::Coordinator& coord, CpeCluster& cluster,
                  hw::PerfCounters&, const hw::CostModel&) {
    const std::vector<TimePs> busy = ramp_busy();
    cluster.spawn(timed(busy));
    // Halfway through, 32 CPEs have faaw'd.
    coord.advance(0, 32 * kMicrosecond + 500 * kNanosecond);
    EXPECT_EQ(cluster.flag(), 32);
    cluster.join();
    EXPECT_EQ(cluster.flag(), 64);
  });
}

TEST(CpeCluster, PollChargesTimeAndDetectsCompletion) {
  with_cluster([](sim::Coordinator& coord, CpeCluster& cluster,
                  hw::PerfCounters&, const hw::CostModel& cost) {
    const std::vector<TimePs> busy(64, 10 * kMicrosecond);
    cluster.spawn(timed(busy));
    const TimePs t0 = coord.now(0);
    EXPECT_FALSE(cluster.poll());
    EXPECT_EQ(coord.now(0), t0 + cost.flag_poll());
    EXPECT_TRUE(cluster.in_flight());
    coord.advance(0, 20 * kMicrosecond);
    EXPECT_TRUE(cluster.poll());
    EXPECT_FALSE(cluster.in_flight());
  });
}

TEST(CpeCluster, SpawnWhileInFlightAborts) {
  with_cluster([](sim::Coordinator&, CpeCluster& cluster, hw::PerfCounters&,
                  const hw::CostModel&) {
    cluster.spawn([](CpeContext&) {});
    EXPECT_DEATH(cluster.spawn([](CpeContext&) {}), "already in flight");
    cluster.join();
  });
}

TEST(CpeCluster, SpawnAddsPlannedCounters) {
  with_cluster([](sim::Coordinator&, CpeCluster& cluster,
                  hw::PerfCounters& counters, const hw::CostModel&) {
    // Inexact per-CPE flops: the sum must be taken in CPE-id order.
    std::vector<double> flops(64);
    for (std::size_t id = 0; id < flops.size(); ++id)
      flops[id] = 0.1 * static_cast<double>(id * id + 1);
    hw::PerfCounters totals;
    totals.tiles_executed = 8;
    totals.dma_bytes_in = 4096;
    const std::vector<TimePs> busy = ramp_busy();
    cluster.spawn(Offload{busy, flops, totals, {}, {}});
    double expected = 0.0;
    for (const double f : flops) expected += f;
    EXPECT_EQ(counters.counted_flops, expected);  // bitwise, not approx
    EXPECT_EQ(counters.tiles_executed, 8u);
    EXPECT_EQ(counters.dma_bytes_in, 4096u);
    EXPECT_EQ(counters.kernels_offloaded, 1u);
    EXPECT_EQ(counters.kernel_time, 64 * kMicrosecond);
    EXPECT_EQ(cluster.cpe_busy(), busy);
    cluster.join();
  });
}

TEST(CpeCluster, OffloadRunsBodiesOnlyOnListedCpes) {
  with_cluster([](sim::Coordinator&, CpeCluster& cluster, hw::PerfCounters&,
                  const hw::CostModel&) {
    std::vector<int> seen;
    const std::vector<int> cpes = {2, 5, 63};
    cluster.spawn(Offload{{}, {}, {}, [&seen](CpeContext& ctx) {
                            seen.push_back(ctx.cpe_id());
                          },
                          cpes});
    EXPECT_EQ(seen, cpes);
    cluster.join();
  });
}

TEST(CpeCluster, LdmIsResetBetweenCpes) {
  with_cluster([](sim::Coordinator&, CpeCluster& cluster, hw::PerfCounters&,
                  const hw::CostModel&) {
    // Every CPE allocates most of the LDM; if reset() were missing this
    // would overflow on the second CPE.
    cluster.spawn([](CpeContext& ctx) {
      EXPECT_NO_THROW(ctx.ldm().alloc<double>(7000));
    });
    cluster.join();
  });
}

TEST(CpeCluster, JoinAccountsWaitTime) {
  with_cluster([](sim::Coordinator&, CpeCluster& cluster,
                  hw::PerfCounters& counters, const hw::CostModel&) {
    const std::vector<TimePs> busy(64, 5 * kMicrosecond);
    cluster.spawn(timed(busy));
    cluster.join();
    EXPECT_EQ(counters.wait_time, 5 * kMicrosecond);
  });
}

}  // namespace
}  // namespace usw::athread
