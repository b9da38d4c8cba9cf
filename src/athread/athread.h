#pragma once

// Emulation of Sunway's `athread` offload interface (Sec IV-B).
//
// On the real machine, the MPE spawns a group of lightweight threads (one
// per CPE) running a kernel function; the kernel stages data between main
// memory and its 64 KB LDM with athread_get/athread_put DMA calls and
// finally increments a completion flag in shared main memory with the
// `faaw` atomic. The MPE polls that flag to detect completion — this is
// what makes the paper's asynchronous scheduler possible.
//
// This emulation keeps the exact protocol but splits its two halves:
//   * temporally, the MPE decides each offload's virtual result before it
//     spawns: every CPE's busy time, counted flops and counter totals come
//     from the offload's plan (sched::TilePlan prices the whole tile loop:
//     athread_get, kernel, athread_put, grabs). spawn() fixes each CPE's
//     faaw time at spawn_time + busy and the cluster's completion at the
//     max over CPEs; the MPE observes the flag set only once its virtual
//     clock passes that point;
//   * functionally, each CPE that has work runs its kernel body on the
//     host, staging real data through a real capacity-checked Ldm buffer,
//     so numerics, LDM use and tile logic are genuinely exercised. A CPE
//     with nothing to compute runs no body, and a timing-only offload
//     dispatches none at all.
//
// Two execution backends decide *where* the CPE bodies run:
//
//   Backend::kSerial  - every body runs on the MPE's host thread at spawn
//                       time, in CPE-id order. Deterministic, zero host
//                       synchronization; wall-clock is serial.
//   Backend::kThreads - bodies are dispatched across a persistent
//                       WorkerPool of real host threads; spawn() returns
//                       immediately and each CPE increments the group's
//                       body counter with a real std::atomic fetch-add
//                       (the emulated faaw) when its body ends.
//                       Wall-clock scales with host cores.
//
// Both backends produce bit-identical field data and identical virtual-time
// results: virtual time stays the model, threads only buy wall-clock. The
// invariant holds because (a) per-CPE write-sets are disjoint (the tile
// checker enforces it), and (b) no body decides any virtual result: busy
// times, completion and counters are set on the MPE at spawn, with the
// per-CPE flops added in CPE-id order so the double sum is the same
// everywhere. Virtual queries (completion_time, earliest_completion, flag,
// cpe_busy) therefore never wait for workers. Only the points that consume
// the numerics (poll returning true, join, and the destructor) block, in
// host wall-clock only, until the dispatched bodies are done.
//
// The cluster can be partitioned into 1..64 equal CPE *groups* (the paper's
// future-work item "group CPEs and schedule different patches to different
// groups"): each group has its own completion flag and can run its own
// kernel concurrently with the others.
//
// Because results are materialized eagerly but are virtually "not yet
// computed" until the flag is set, callers must not consume results before
// poll()/join() reports completion; the schedulers respect this. Under
// Backend::kThreads the kernel body additionally runs concurrently with
// the MPE thread and with the other CPEs of its offload, so bodies must be
// re-entrant and must not touch MPE-owned state.

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "athread/worker_pool.h"
#include "hw/cost_model.h"
#include "hw/ldm.h"
#include "hw/perf_counters.h"
#include "sim/coordinator.h"
#include "support/units.h"

namespace usw::athread {

/// Where the emulated CPE kernel bodies execute.
enum class Backend {
  kSerial,   ///< on the MPE host thread, in CPE-id order (default)
  kThreads,  ///< across a WorkerPool of real host threads
};

const char* to_string(Backend backend);

/// Parses "serial" / "threads"; throws ConfigError otherwise.
Backend backend_from_string(const std::string& name);

/// Per-CPE execution context handed to the kernel body.
class CpeContext {
 public:
  CpeContext(int cpe_id, int n_cpes, hw::Ldm& ldm)
      : cpe_id_(cpe_id), n_cpes_(n_cpes), ldm_(ldm) {}

  /// Id of this CPE within its group.
  int cpe_id() const { return cpe_id_; }
  /// CPEs in this group (64 for whole-cluster offloads).
  int n_cpes() const { return n_cpes_; }

  /// This CPE's scratch-pad. Allocate tile buffers from it; overflow
  /// throws ResourceError exactly like exceeding the hardware LDM.
  hw::Ldm& ldm() { return ldm_; }

 private:
  int cpe_id_;
  int n_cpes_;
  hw::Ldm& ldm_;
};

/// Kernel body run once per CPE of the target group. Under
/// Backend::kThreads the same callable is invoked concurrently from
/// multiple host threads, so it must be safe to call re-entrantly and its
/// per-CPE write-sets must be disjoint.
using CpeJob = std::function<void(CpeContext&)>;

/// One offload as the MPE hands it to a CPE group: its virtual result,
/// decided before spawn, and the bodies that compute its numerics. The
/// spans need only outlive the spawn() call.
struct Offload {
  /// Per CPE of the group: virtual busy time from spawn to its faaw.
  /// Empty means zero for every CPE.
  std::span<const TimePs> busy;
  /// Per CPE: counted flops, added to the rank's counters one CPE at a
  /// time in CPE-id order, so the double sum is the same on any backend.
  /// Empty means none.
  std::span<const double> flops;
  /// Order-free integer counter totals (tiles, cells, DMA traffic, grabs,
  /// fault retries), merged once.
  hw::PerfCounters totals;
  /// The numerics, run once for each CPE id in `cpes` (ascending). A CPE
  /// not listed runs nothing.
  CpeJob body;
  std::span<const int> cpes;
};

/// The 64-CPE cluster of one core-group, driven by one rank (its MPE),
/// optionally partitioned into independent groups.
class CpeCluster {
 public:
  /// `n_groups` must divide the CPE count; each group owns
  /// cpes_per_cg / n_groups CPEs and an independent completion flag.
  /// Under Backend::kThreads the cluster dispatches CPE bodies onto
  /// `pool`; when `pool` is null it creates a private one.
  CpeCluster(const hw::CostModel& cost, sim::Coordinator& coord, int rank,
             hw::PerfCounters* counters = nullptr, int n_groups = 1,
             Backend backend = Backend::kSerial, WorkerPool* pool = nullptr);

  /// Blocks until every dispatched CPE body has finished; their errors
  /// are dropped (nobody is left to ask).
  ~CpeCluster();

  CpeCluster(const CpeCluster&) = delete;
  CpeCluster& operator=(const CpeCluster&) = delete;

  int n_cpes() const { return cost_.params().cpes_per_cg; }
  int n_groups() const { return static_cast<int>(groups_.size()); }
  int group_size() const { return n_cpes() / n_groups(); }
  Backend backend() const { return backend_; }

  /// Offloads to group `g`. Charges offload_launch of MPE time, then fixes
  /// the offload's virtual result from `offload`'s busy times, flops and
  /// totals. Backend::kSerial runs the listed bodies before returning (a
  /// throwing body propagates out and leaves the group idle);
  /// Backend::kThreads dispatches them onto the worker pool and returns
  /// immediately. The group must be idle.
  void spawn(Offload offload, int g = 0);
  /// Runs `job` once on every CPE of group `g`, with zero busy time.
  void spawn(const CpeJob& job, int g = 0);

  /// True between spawn() and the flag being observed complete.
  bool in_flight(int g = 0) const;
  /// True if any group has an offload in flight.
  bool any_in_flight() const;

  /// Polls group g's completion flag (charges flag_poll of MPE time). On
  /// true, first waits (host wall-clock) for the group's bodies and
  /// rethrows the lowest-id failing CPE's exception.
  bool poll(int g = 0);

  /// Current flag value of group g: CPEs whose virtual completion the MPE
  /// clock has passed (the faaw counter an MPE would read).
  int flag(int g = 0) const;

  /// Completion time of the offload in flight on group g.
  TimePs completion_time(int g = 0) const;

  /// Per-CPE virtual busy times of group g's most recent offload, indexed
  /// by CPE id within the group; valid until the next spawn() on that
  /// group. The schedulers read this after completion to roll up
  /// load-imbalance telemetry.
  const std::vector<TimePs>& cpe_busy(int g = 0) const;
  /// Earliest completion among all in-flight groups (kNever if none).
  TimePs earliest_completion() const;

  /// Blocks (virtual time) until group g's offload completes; the
  /// synchronous MPE+CPE mode's spin loop. Then waits for its bodies like
  /// a successful poll().
  void join(int g = 0);

  /// Installs a schedule controller for the kOffloadPoll point: which
  /// in-flight group's completion flag the async scheduler polls first.
  /// The controller must outlive the cluster; nullptr disarms.
  void set_schedule(schedpt::ScheduleController* schedule) {
    schedule_ = schedule;
  }

  /// Group polling order for a completion sweep. Without a controller this
  /// is every group in ascending id — the canonical order. With one, it is
  /// the in-flight groups, rotated by a kOffloadPoll decision when more
  /// than one offload is in flight (polling order only changes which
  /// completion the MPE *processes* first; each group's completion time is
  /// fixed at spawn, so numerics are unaffected).
  std::vector<int> poll_order() const;

 private:
  struct Group {
    // MPE-owned protocol state, fixed at spawn (never touched by workers).
    bool in_flight = false;
    TimePs spawn_time = 0;
    TimePs completion = 0;
    std::vector<TimePs> cpe_busy;
    std::vector<TimePs> cpe_done;

    // Dispatched bodies (Backend::kThreads). `job` is the shared copy the
    // workers invoke; each worker writes only its own `cpe_errors` slot,
    // then bumps `faaw`. The MPE reads the slots only after faaw ==
    // dispatched, so the fetch-add release sequence orders every write
    // before the read.
    CpeJob job;
    int dispatched = 0;  ///< bodies not yet waited for (0: none pending)
    std::vector<std::exception_ptr> cpe_errors;
    std::atomic<int> faaw{0};  ///< the real faaw: finished bodies
  };

  Group& group(int g) const {
    return *groups_.at(static_cast<std::size_t>(g));
  }
  /// Runs `job` as CPE `cpe` of a group with a context staged out of `ldm`.
  void run_cpe(const CpeJob& job, int cpe, hw::Ldm& ldm) const;
  /// Submits one pool task per CPE id in `cpes`, each running `job`.
  void dispatch(Group& group, CpeJob job, std::span<const int> cpes);
  /// Blocks until every body dispatched on `group` has faaw'd, then
  /// rethrows the lowest-id failing CPE's exception, if any.
  void wait_bodies(Group& group);

  const hw::CostModel& cost_;
  sim::Coordinator& coord_;
  int rank_;
  hw::PerfCounters* counters_;
  schedpt::ScheduleController* schedule_ = nullptr;
  Backend backend_;
  hw::Ldm ldm_;                       ///< kSerial: shared, reset per CPE
  std::vector<hw::Ldm> worker_ldms_;  ///< kThreads: one per pool worker
  std::vector<int> all_cpes_;         ///< 0..group_size()-1, for spawn(job)
  std::vector<std::unique_ptr<Group>> groups_;
  std::mutex sync_mu_;
  std::condition_variable sync_cv_;
  WorkerPool* pool_ = nullptr;  ///< kThreads dispatch target
  // Declared last so a private pool is torn down (joining its workers)
  // before the groups those workers reference.
  std::unique_ptr<WorkerPool> owned_pool_;
};

}  // namespace usw::athread
