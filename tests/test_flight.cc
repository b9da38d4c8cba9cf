// Tests for the diagnostics layer: the flight-recorder ring, the DiagHub
// dump plumbing, the hang watchdog and induced-deadlock crash dumps, the
// host-side profile, and the streaming metrics emitter — plus the
// invariant the whole feature rides on: diagnostics on vs off changes
// nothing about the simulated results.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "athread/worker_pool.h"
#include "obs/diag.h"
#include "obs/flight.h"
#include "obs/host_profile.h"
#include "obs/stream.h"
#include "runtime/controller.h"
#include "apps/burgers/burgers_app.h"
#include "comm/agg.h"
#include "fault/fault.h"
#include "schedpt/schedule.h"
#include "support/build_info.h"
#include "support/error.h"

namespace usw {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path);
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

runtime::RunConfig tiny_config() {
  runtime::RunConfig c;
  c.problem = runtime::tiny_problem({2, 2, 1}, {8, 8, 8});
  c.variant = runtime::variant_by_name("acc.async");
  c.nranks = 2;
  c.timesteps = 3;
  c.storage = var::StorageMode::kTimingOnly;
  return c;
}

// ------------------------------------------------------- flight recorder ---

TEST(FlightRecorder, RecordsInOrder) {
  obs::FlightRecorder ring(8);
  EXPECT_TRUE(ring.enabled());
  ring.record(obs::FlightKind::kStepBegin, 100, 0);
  ring.record(obs::FlightKind::kMsgSend, 200, 1, 7, 512);
  ring.record(obs::FlightKind::kStepEnd, 300, 0);
  EXPECT_EQ(ring.recorded(), 3u);
  EXPECT_EQ(ring.dropped(), 0u);
  const std::vector<obs::FlightEvent> evs = ring.snapshot();
  ASSERT_EQ(evs.size(), 3u);
  EXPECT_EQ(evs[0].kind, obs::FlightKind::kStepBegin);
  EXPECT_EQ(evs[1].kind, obs::FlightKind::kMsgSend);
  EXPECT_EQ(evs[1].a, 1);
  EXPECT_EQ(evs[1].b, 7);
  EXPECT_EQ(evs[1].c, 512);
  EXPECT_EQ(evs[2].time, 300);
  EXPECT_LT(evs[0].seq, evs[2].seq);
}

TEST(FlightRecorder, WrapsKeepingNewest) {
  obs::FlightRecorder ring(4);
  for (int i = 0; i < 10; ++i)
    ring.record(obs::FlightKind::kRankPick, i, i);
  EXPECT_EQ(ring.recorded(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);
  const std::vector<obs::FlightEvent> evs = ring.snapshot();
  ASSERT_EQ(evs.size(), 4u);
  // Oldest first, and only the newest four survive.
  EXPECT_EQ(evs.front().a, 6);
  EXPECT_EQ(evs.back().a, 9);
}

TEST(FlightRecorder, CapacityZeroDisables) {
  obs::FlightRecorder ring(0);
  EXPECT_FALSE(ring.enabled());
  ring.record(obs::FlightKind::kCheckpoint, 1, 2);
  EXPECT_EQ(ring.recorded(), 0u);
  EXPECT_TRUE(ring.snapshot().empty());
}

TEST(FlightRecorder, KindNamesAreSnakeCase) {
  EXPECT_STREQ(to_string(obs::FlightKind::kRankPick), "rank_pick");
  EXPECT_STREQ(to_string(obs::FlightKind::kMsgRetransmit), "msg_retransmit");
  EXPECT_STREQ(to_string(obs::FlightKind::kGroupDegraded), "group_degraded");
  EXPECT_STREQ(to_string(obs::FlightKind::kRestart), "restart");
}

// --------------------------------------------------------------- diag hub ---

TEST(DiagHub, FinalDumpContainsRingsAndProvenance) {
  obs::DiagConfig dc;
  dc.flight_capacity = 8;
  dc.dump_path = temp_path("diag_final_unit.json");
  obs::DiagHub hub(dc, 2);
  hub.rank_ring(0).record(obs::FlightKind::kStepBegin, 42, 0);
  hub.on_rank_pick(1, 2, 7);
  const std::string path = hub.write_final(nullptr);
  EXPECT_EQ(path, dc.dump_path);
  const std::string dump = slurp(path);
  EXPECT_NE(dump.find("\"diag\": \"final\""), std::string::npos);
  EXPECT_NE(dump.find("step_begin"), std::string::npos);
  EXPECT_NE(dump.find("rank_pick"), std::string::npos);
  EXPECT_NE(dump.find("git_sha"), std::string::npos);
  std::remove(path.c_str());
}

TEST(DiagHub, CrashDumpWinsOverFinal) {
  obs::DiagConfig dc;
  dc.dump_path = temp_path("diag_crash_unit.json");
  obs::DiagHub hub(dc, 1);
  std::vector<sim::RankStatus> status(1);
  status[0].rank = 0;
  status[0].state = 'w';
  hub.on_crash("unit-test crash", status);
  EXPECT_TRUE(hub.crashed());
  EXPECT_EQ(hub.crash_dump_path(), dc.dump_path);
  const std::string dump = slurp(dc.dump_path);
  EXPECT_NE(dump.find("\"diag\": \"crash\""), std::string::npos);
  EXPECT_NE(dump.find("unit-test crash"), std::string::npos);
  // A crash dump already captured the interesting state; the clean-finish
  // dump must not overwrite it — write_final just reports the crash dump.
  EXPECT_EQ(hub.write_final(nullptr), dc.dump_path);
  EXPECT_NE(slurp(dc.dump_path).find("\"diag\": \"crash\""), std::string::npos);
  std::remove(dc.dump_path.c_str());
}

TEST(DiagHub, SourcesRemovedInAnyOrder) {
  // 1024 sources over 256 ranks, removed in shuffled order: a dump always
  // holds exactly the live sources, each rank's in registration order.
  constexpr int kRanks = 256;
  constexpr int kSources = 1024;
  obs::DiagConfig dc;
  dc.flight_capacity = 0;
  dc.dump_path = temp_path("diag_sources_unit.json");
  obs::DiagHub hub(dc, kRanks);
  std::vector<obs::DiagHub::Source> sources;
  for (int i = 0; i < kSources; ++i)
    sources.push_back(hub.add_source(i % kRanks, [i](obs::JsonWriter& w) {
      w.kv("src_" + std::to_string(i), i);
    }));
  std::vector<int> order(kSources);
  for (int i = 0; i < kSources; ++i) order[static_cast<std::size_t>(i)] = i;
  std::shuffle(order.begin(), order.end(), std::mt19937(7));
  std::vector<bool> live(kSources, true);
  // The source ids a dump shows, in dump order.
  auto dumped = [&] {
    const std::string dump = slurp(hub.write_final(nullptr));
    std::vector<int> ids;
    const std::string key = "\"src_";
    for (auto at = dump.find(key); at != std::string::npos; at = dump.find(key, at + 1))
      ids.push_back(std::stoi(dump.substr(at + key.size())));
    return ids;
  };
  auto expected = [&] {
    std::vector<int> ids;
    for (int r = 0; r < kRanks; ++r)
      for (int i = r; i < kSources; i += kRanks)
        if (live[static_cast<std::size_t>(i)]) ids.push_back(i);
    return ids;
  };
  EXPECT_EQ(dumped(), expected());
  for (std::size_t k = 0; k < order.size(); ++k) {
    const auto i = static_cast<std::size_t>(order[k]);
    sources[i].reset();
    live[i] = false;
    if (k + 1 == order.size() / 2) {
      EXPECT_EQ(dumped(), expected());
    }
  }
  EXPECT_TRUE(dumped().empty());
  std::remove(dc.dump_path.c_str());
}

// ------------------------------------------------- watchdog and deadlock ---

TEST(Diag, HangWatchdogFiresAndDumps) {
  runtime::RunConfig c = tiny_config();
  c.diag.hang_threshold = kMicrosecond;  // any real step blows 1 us
  c.diag.dump_path = temp_path("diag_watchdog.json");
  apps::burgers::BurgersApp app;
  try {
    runtime::run_simulation(c, app);
    FAIL() << "watchdog did not fire";
  } catch (const StateError& e) {
    EXPECT_NE(std::string(e.what()).find("hang watchdog"), std::string::npos);
  }
  const std::string dump = slurp(c.diag.dump_path);
  EXPECT_NE(dump.find("hang watchdog"), std::string::npos);
  EXPECT_NE(dump.find("ranks_status"), std::string::npos);
  std::remove(c.diag.dump_path.c_str());
}

TEST(Diag, InducedHangDumpNamesLostMessageAndPendingRequest) {
  // The acceptance scenario: total message loss with retransmission
  // disabled deadlocks in virtual time; the dump must name the stalled
  // ranks, the pending (lost) request, and the last schedule points.
  runtime::RunConfig c = tiny_config();
  c.faults = fault::FaultPlan::parse("msg_loss:p=1", 1);
  c.recovery.retransmit = false;
  c.diag.dump_path = temp_path("diag_hang.json");
  apps::burgers::BurgersApp app;
  try {
    runtime::run_simulation(c, app);
    FAIL() << "all-lost exchange did not deadlock";
  } catch (const StateError& e) {
    EXPECT_NE(std::string(e.what()).find("deadlock"), std::string::npos);
  }
  const std::string dump = slurp(c.diag.dump_path);
  EXPECT_NE(dump.find("\"diag\": \"crash\""), std::string::npos);
  EXPECT_NE(dump.find("msg_lost"), std::string::npos);       // flight events
  EXPECT_NE(dump.find("\"lost\": true"), std::string::npos); // pending send
  EXPECT_NE(dump.find("\"pending\""), std::string::npos);
  EXPECT_NE(dump.find("rank_pick"), std::string::npos);      // coord ring
  std::remove(c.diag.dump_path.c_str());
}

TEST(Diag, RetransmissionOnRecoversTheSameExchange) {
  // Same total-loss plan, retransmission left on: the run completes.
  runtime::RunConfig c = tiny_config();
  c.faults = fault::FaultPlan::parse("msg_loss:p=1", 1);
  apps::burgers::BurgersApp app;
  const runtime::RunResult r = runtime::run_simulation(c, app);
  EXPECT_EQ(static_cast<int>(r.ranks[0].step_walls.size()), c.timesteps);
}

// ----------------------------------------------------------- bit equality ---

TEST(Diag, FlightAndWatchdogDoNotChangeResults) {
  apps::burgers::BurgersApp app;
  runtime::RunConfig on = tiny_config();   // defaults: recording + watchdog
  runtime::RunConfig off = tiny_config();
  off.diag.flight_capacity = 0;
  off.diag.hang_threshold = 0;
  const runtime::RunResult a = runtime::run_simulation(on, app);
  const runtime::RunResult b = runtime::run_simulation(off, app);
  ASSERT_EQ(a.ranks.size(), b.ranks.size());
  for (std::size_t r = 0; r < a.ranks.size(); ++r) {
    EXPECT_EQ(a.ranks[r].step_walls, b.ranks[r].step_walls);
    EXPECT_EQ(a.ranks[r].init_wall, b.ranks[r].init_wall);
    EXPECT_EQ(a.ranks[r].counters.counted_flops,
              b.ranks[r].counters.counted_flops);
    EXPECT_EQ(a.ranks[r].counters.messages_sent,
              b.ranks[r].counters.messages_sent);
  }
}

// ------------------------------------------------------------ host profile ---

TEST(HostProfile, FilledForSerialRuns) {
  runtime::RunConfig c = tiny_config();
  apps::burgers::BurgersApp app;
  const runtime::RunResult r = runtime::run_simulation(c, app);
  EXPECT_TRUE(r.host.enabled);
  const obs::Distribution* steps = r.host.reg.distribution("host.step_ms");
  ASSERT_NE(steps, nullptr);
  EXPECT_EQ(steps->stats.count(),
            static_cast<std::size_t>(c.nranks * c.timesteps));
  const obs::Distribution* init = r.host.reg.distribution("host.rank_init_ms");
  ASSERT_NE(init, nullptr);
  EXPECT_EQ(init->stats.count(), static_cast<std::size_t>(c.nranks));
  EXPECT_GT(r.host.reg.counter("host.run_ms"), 0.0);
}

TEST(HostProfile, ThreadsBackendFeedsPoolStats) {
  runtime::RunConfig c = tiny_config();
  c.storage = var::StorageMode::kFunctional;  // timing-only dispatches nothing
  c.backend = athread::Backend::kThreads;
  c.backend_threads = 2;
  apps::burgers::BurgersApp app;
  const runtime::RunResult r = runtime::run_simulation(c, app);
  EXPECT_GT(r.host.reg.counter("host.pool_tasks"), 0.0);
  const obs::Distribution* waits =
      r.host.reg.distribution("host.pool_queue_wait_us");
  ASSERT_NE(waits, nullptr);
  EXPECT_GT(waits->stats.count(), 0u);
}

TEST(WorkerPool, ProfilingCountsTasksAndCapsSamples) {
  athread::WorkerPool pool(2);
  pool.enable_profiling(/*sample_cap=*/4);
  EXPECT_TRUE(pool.profiling());
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i)
    pool.submit([&done](int) { done.fetch_add(1); });
  while (done.load() < 8)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const athread::WorkerPool::PoolStats st = pool.stats();
  EXPECT_EQ(st.tasks, 8u);
  std::uint64_t by_worker = 0;
  for (const std::uint64_t n : st.per_worker) by_worker += n;
  EXPECT_EQ(by_worker, 8u);
  // The sample cap bounds each distribution; the drop counter is shared
  // across queue-wait and lock-wait sampling, so with 8 tasks and cap 4
  // both distributions saturate and the overflow lands in samples_dropped.
  EXPECT_EQ(st.queue_wait_us.size(), 4u);
  EXPECT_LE(st.lock_wait_us.size(), 4u);
  EXPECT_GE(st.samples_dropped, 4u);
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(SchedPt, HostOverheadCountsOnlyRealDecisions) {
  schedpt::ScheduleSpec spec;
  spec.mode = schedpt::Mode::kFuzz;
  spec.seed = 3;
  const std::unique_ptr<schedpt::ScheduleController> ctrl =
      schedpt::ScheduleController::make(spec);
  ASSERT_NE(ctrl, nullptr);
  for (int i = 0; i < 10; ++i)
    ctrl->choose(schedpt::PointKind::kMsgMatch, 0, 3);
  // Single-candidate points carry no decision: not counted, not timed.
  ctrl->choose(schedpt::PointKind::kTileGrab, 0, 1);
  const schedpt::ScheduleController::HostOverhead oh = ctrl->host_overhead();
  EXPECT_EQ(oh.calls[static_cast<int>(schedpt::PointKind::kMsgMatch)], 10u);
  EXPECT_EQ(oh.calls[static_cast<int>(schedpt::PointKind::kTileGrab)], 0u);
}

// -------------------------------------------------------- streaming metrics ---

TEST(StreamSpec, ParsesFileAndInterval) {
  EXPECT_EQ(obs::StreamSpec::parse("m.jsonl").file, "m.jsonl");
  EXPECT_EQ(obs::StreamSpec::parse("m.jsonl").interval, 1);
  EXPECT_EQ(obs::StreamSpec::parse("m.jsonl:5").interval, 5);
  EXPECT_EQ(obs::StreamSpec::parse("m.jsonl:5").file, "m.jsonl");
  // A non-numeric suffix is part of the file name, not an interval.
  EXPECT_EQ(obs::StreamSpec::parse("dir:a/m.jsonl").file, "dir:a/m.jsonl");
  EXPECT_THROW(obs::StreamSpec::parse(""), ConfigError);
  EXPECT_THROW(obs::StreamSpec::parse("m.jsonl:0"), ConfigError);
  EXPECT_THROW(obs::StreamSpec::parse(":3"), ConfigError);
}

TEST(Stream, EmitsHeaderAndPeriodicSnapshots) {
  runtime::RunConfig c = tiny_config();
  c.stream.file = temp_path("stream_test.jsonl");
  c.stream.interval = 2;
  c.collect_metrics = true;
  apps::burgers::BurgersApp app;
  runtime::run_simulation(c, app);
  std::ifstream is(c.stream.file);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(is, line)) lines.push_back(line);
  // Header + snapshots at completed=2 and completed=3 (final step).
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"stream\":\"uswsim\""), std::string::npos);
  EXPECT_NE(lines[0].find("provenance"), std::string::npos);
  for (std::size_t i = 1; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i].front(), '{');
    EXPECT_EQ(lines[i].back(), '}');
    EXPECT_NE(lines[i].find("\"step\""), std::string::npos);
    EXPECT_NE(lines[i].find("counted_flops"), std::string::npos);
  }
  std::remove(c.stream.file.c_str());
}

// ------------------------------------------- coordinator equivalence ---
//
// Message seqs are per sender and stream lines are summed from per-rank
// step-end snapshots, so message faults, flight rings and metrics streams
// are identical under the serial and the parallel coordinator.

/// Each rank's section of a clean-finish diagnostic dump (its flight ring
/// with recorded/dropped counts), in rank order.
std::vector<std::string> rank_rings(const std::string& dump_path) {
  const std::string dump = slurp(dump_path);
  const std::size_t end = dump.find("\"host_profile\":");
  std::vector<std::string> out;
  std::size_t at = dump.find("\"rank\":", dump.find("\"ranks\":"));
  while (at < end) {
    const std::size_t next = std::min(dump.find("\"rank\":", at + 1), end);
    out.push_back(dump.substr(at, next - at));
    at = next;
  }
  return out;
}

/// Runs `c` under both coordinators with a diagnostic dump each; expects
/// the parallel run not to fall back and every rank's counters, step walls
/// and flight ring to match the serial run.
void expect_coordinators_equal(runtime::RunConfig c, const std::string& tag) {
  apps::burgers::BurgersApp app;
  c.diag.flight_capacity = 4096;  // keep every event of the run
  c.diag.dump_path = temp_path("coord_eq_serial_" + tag + ".json");
  const runtime::RunResult serial = runtime::run_simulation(c, app);
  const std::string serial_dump = c.diag.dump_path;
  c.coordinator = sim::CoordinatorSpec::parse("parallel");
  c.diag.dump_path = temp_path("coord_eq_parallel_" + tag + ".json");
  const runtime::RunResult parallel = runtime::run_simulation(c, app);
  EXPECT_TRUE(parallel.coordinator_used.parallel()) << tag;
  EXPECT_TRUE(parallel.coordinator_fallback.empty()) << tag;
  ASSERT_EQ(serial.ranks.size(), parallel.ranks.size());
  for (std::size_t r = 0; r < serial.ranks.size(); ++r) {
    EXPECT_TRUE(serial.ranks[r].counters == parallel.ranks[r].counters)
        << tag << " rank " << r << ": " << serial.ranks[r].counters.summary()
        << " vs " << parallel.ranks[r].counters.summary();
    EXPECT_EQ(serial.ranks[r].step_walls, parallel.ranks[r].step_walls)
        << tag << " rank " << r;
  }
  const std::vector<std::string> a = rank_rings(serial_dump);
  const std::vector<std::string> b = rank_rings(c.diag.dump_path);
  ASSERT_EQ(a.size(), serial.ranks.size()) << tag;
  ASSERT_EQ(b.size(), a.size()) << tag;
  int differ = 0;
  for (std::size_t r = 0; r < a.size(); ++r)
    if (a[r] != b[r]) ++differ;
  EXPECT_EQ(differ, 0) << tag << ": flight rings differ on " << differ << "/"
                       << a.size() << " ranks";
  std::remove(serial_dump.c_str());
  std::remove(c.diag.dump_path.c_str());
}

TEST(CoordinatorEquivalence, MessageFaultsBitEqualWithFlightRings) {
  runtime::RunConfig c = tiny_config();
  c.problem = runtime::tiny_problem({4, 2, 2}, {8, 8, 8});
  c.variant = runtime::variant_by_name("acc_simd.async");
  c.nranks = 8;
  c.faults =
      fault::FaultPlan::parse("msg_loss:p=0.1,msg_delay:p=0.1:factor=8", 3);
  for (const char* agg : {"off", "on"}) {
    c.comm_agg = comm::AggSpec::parse(agg);
    expect_coordinators_equal(c, std::string("msg_faults_agg_") + agg);
  }
}

TEST(CoordinatorEquivalence, FaultFreeFlightRingsMatch) {
  runtime::RunConfig c = tiny_config();
  c.problem = runtime::tiny_problem({8, 8, 4}, {8, 8, 8});
  c.variant = runtime::variant_by_name("acc_simd.async");
  c.nranks = 64;
  c.timesteps = 2;
  expect_coordinators_equal(c, "fault_free_64");
}

/// A stream file's lines with the host-noisy fields cut out.
std::vector<std::string> stream_lines(const std::string& path) {
  std::ifstream is(path);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(is, line)) {
    for (const char* key : {"\"wall_ms\":", "\"pool_queue_depth\":"}) {
      const std::size_t k = line.find(key);
      if (k == std::string::npos) continue;
      const std::size_t v_end = line.find_first_of(",}", k);
      line.erase(k, v_end - k);
    }
    lines.push_back(line);
  }
  return lines;
}

/// Integer value of `"key":N` in a stream line.
std::uint64_t field(const std::string& line, const std::string& key) {
  const std::size_t k = line.find("\"" + key + "\":");
  EXPECT_NE(k, std::string::npos) << key;
  return std::stoull(line.substr(k + key.size() + 3));
}

TEST(Stream, LinesMatchAcrossCoordinatorsAndSumToCounters) {
  apps::burgers::BurgersApp app;
  runtime::RunConfig c = tiny_config();
  c.problem = runtime::tiny_problem({4, 2, 2}, {8, 8, 8});
  c.nranks = 8;
  c.timesteps = 4;
  c.faults = fault::FaultPlan::parse("msg_loss:p=0.1", 5);
  c.stream.file = temp_path("stream_serial.jsonl");
  const runtime::RunResult serial = runtime::run_simulation(c, app);
  c.coordinator = sim::CoordinatorSpec::parse("parallel");
  c.stream.file = temp_path("stream_parallel.jsonl");
  const runtime::RunResult parallel = runtime::run_simulation(c, app);
  EXPECT_TRUE(parallel.coordinator_used.parallel());

  const std::vector<std::string> a = stream_lines(temp_path("stream_serial.jsonl"));
  const std::vector<std::string> b = stream_lines(c.stream.file);
  ASSERT_EQ(a.size(), 1u + c.timesteps);  // header + one line per step
  EXPECT_EQ(a, b);
  for (int s = 0; s < c.timesteps; ++s)
    EXPECT_EQ(field(a[1 + s], "step"), static_cast<std::uint64_t>(s));
  // Each rank contributes at its own final step end, after which a
  // timing-only run changes no counter: the last line is the run total.
  const hw::PerfCounters sum = serial.merged_counters();
  const std::string& last = a.back();
  EXPECT_EQ(field(last, "messages_sent"), sum.messages_sent);
  EXPECT_EQ(field(last, "bytes_sent"), sum.bytes_sent);
  EXPECT_EQ(field(last, "kernels_offloaded"), sum.kernels_offloaded);
  EXPECT_EQ(field(last, "fault_injected"), sum.fault_injected);
  EXPECT_GT(sum.fault_injected, 0u);
  EXPECT_EQ(field(last, "wait_ps"), static_cast<std::uint64_t>(sum.wait_time));
  std::remove(temp_path("stream_serial.jsonl").c_str());
  std::remove(c.stream.file.c_str());
}

// ---------------------------------------------------- config validation ---

TEST(DiagConfig, ValidationCatchesBadCombos) {
  apps::burgers::BurgersApp app;
  {
    runtime::RunConfig c = tiny_config();
    c.diag.dump_path = temp_path("never_written.json");
    c.diag.flight_capacity = 0;
    EXPECT_THROW(runtime::run_simulation(c, app), ConfigError);
  }
  {
    runtime::RunConfig c = tiny_config();
    c.stream.file = temp_path("never_written.jsonl");
    c.stream.interval = 0;
    EXPECT_THROW(runtime::run_simulation(c, app), ConfigError);
  }
  {
    runtime::RunConfig c = tiny_config();
    c.diag.hang_threshold = -1;
    EXPECT_THROW(runtime::run_simulation(c, app), ConfigError);
  }
}

// -------------------------------------------------------- build provenance ---

TEST(BuildInfo, FieldsArePopulated) {
  const BuildInfo& b = build_info();
  EXPECT_STRNE(b.version, "");
  EXPECT_STRNE(b.compiler, "");
  EXPECT_STRNE(b.git_sha, "");
  EXPECT_STRNE(b.sanitizers, "");
  const std::string line = build_info_line();
  EXPECT_NE(line.find("uswsim"), std::string::npos);
  EXPECT_NE(line.find(b.version), std::string::npos);
}

}  // namespace
}  // namespace usw
