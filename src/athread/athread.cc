#include "athread/athread.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "schedpt/schedule.h"
#include "support/error.h"

namespace usw::athread {

const char* to_string(Backend backend) {
  switch (backend) {
    case Backend::kSerial: return "serial";
    case Backend::kThreads: return "threads";
  }
  return "?";
}

Backend backend_from_string(const std::string& name) {
  if (name == "serial") return Backend::kSerial;
  if (name == "threads") return Backend::kThreads;
  throw ConfigError("unknown backend '" + name + "' (expected serial|threads)");
}

CpeCluster::CpeCluster(const hw::CostModel& cost, sim::Coordinator& coord,
                       int rank, hw::PerfCounters* counters, int n_groups,
                       Backend backend, WorkerPool* pool)
    : cost_(cost), coord_(coord), rank_(rank), counters_(counters),
      backend_(backend), ldm_(cost.params().ldm_bytes) {
  const int cpes = cost.params().cpes_per_cg;
  if (n_groups < 1 || cpes % n_groups != 0)
    throw ConfigError("CPE group count " + std::to_string(n_groups) +
                      " must divide the CPE count " + std::to_string(cpes));
  const auto group_cpes = static_cast<std::size_t>(cpes / n_groups);
  all_cpes_.resize(group_cpes);
  std::iota(all_cpes_.begin(), all_cpes_.end(), 0);
  groups_.reserve(static_cast<std::size_t>(n_groups));
  for (int g = 0; g < n_groups; ++g) {
    groups_.push_back(std::make_unique<Group>());
    groups_.back()->cpe_busy.assign(group_cpes, 0);
    groups_.back()->cpe_done.assign(group_cpes, 0);
  }
  if (backend_ == Backend::kThreads) {
    if (pool == nullptr) {
      owned_pool_ = std::make_unique<WorkerPool>();
      pool = owned_pool_.get();
    }
    pool_ = pool;
    // Every pool worker gets an exclusive LDM model: CPE bodies running
    // concurrently must not share a bump allocator.
    worker_ldms_.reserve(static_cast<std::size_t>(pool_->size()));
    for (int w = 0; w < pool_->size(); ++w)
      worker_ldms_.emplace_back(cost.params().ldm_bytes);
  }
}

CpeCluster::~CpeCluster() {
  // Wait (host wall-clock) for any still-dispatched bodies: they reference
  // this cluster's groups. Their errors are dropped.
  for (const std::unique_ptr<Group>& g : groups_) {
    try {
      wait_bodies(*g);
    } catch (...) {
    }
  }
}

void CpeCluster::run_cpe(const CpeJob& job, int cpe, hw::Ldm& ldm) const {
  ldm.reset();
  CpeContext ctx(cpe, group_size(), ldm);
  job(ctx);
}

void CpeCluster::spawn(const CpeJob& job, int g) {
  spawn(Offload{{}, {}, {}, job, all_cpes_}, g);
}

void CpeCluster::spawn(Offload offload, int g) {
  Group& group = this->group(g);
  USW_ASSERT_MSG(!group.in_flight, "spawn while an offload is already in flight");
  const auto n = static_cast<std::size_t>(group_size());
  USW_ASSERT_MSG((offload.busy.empty() || offload.busy.size() == n) &&
                     (offload.flops.empty() || offload.flops.size() == n),
                 "offload charge sized for a different CPE group");
  coord_.advance(rank_, cost_.offload_launch());
  group.spawn_time = coord_.now(rank_);
  if (!offload.cpes.empty()) {
    if (backend_ == Backend::kSerial) {
      for (const int id : offload.cpes) run_cpe(offload.body, id, ldm_);
    } else {
      dispatch(group, std::move(offload.body), offload.cpes);
    }
  }
  // The virtual result is the MPE's, fixed here whatever the backend; the
  // flops go in CPE by CPE so the double sum keeps one order.
  group.completion = group.spawn_time;
  for (std::size_t id = 0; id < n; ++id) {
    group.cpe_busy[id] = offload.busy.empty() ? 0 : offload.busy[id];
    group.cpe_done[id] = group.spawn_time + group.cpe_busy[id];
    group.completion = std::max(group.completion, group.cpe_done[id]);
  }
  if (counters_ != nullptr) {
    for (const double flops : offload.flops) counters_->counted_flops += flops;
    counters_->merge(offload.totals);
    counters_->kernels_offloaded += 1;
    counters_->kernel_time += group.completion - group.spawn_time;
  }
  group.in_flight = true;
}

void CpeCluster::dispatch(Group& group, CpeJob job, std::span<const int> cpes) {
  group.job = std::move(job);
  group.cpe_errors.assign(static_cast<std::size_t>(group_size()), nullptr);
  group.dispatched = static_cast<int>(cpes.size());
  group.faaw.store(0, std::memory_order_relaxed);
  for (const int id : cpes) {
    pool_->submit([this, &group, id](int worker) {
      try {
        run_cpe(group.job, id, worker_ldms_[static_cast<std::size_t>(worker)]);
      } catch (...) {
        group.cpe_errors[static_cast<std::size_t>(id)] =
            std::current_exception();
      }
      // The real faaw: bump the group's body counter in shared memory,
      // then wake an MPE blocked in wait_bodies(). The release fetch-add
      // orders this CPE's error slot before any MPE read that observes the
      // full count. The increment happens under sync_mu_ so the MPE (which
      // checks the count under the same mutex) can only see the full count
      // after this worker has released the lock and no longer touches any
      // cluster member; otherwise a shared-pool MPE could destroy the
      // cluster while the last worker is between the fetch_add and the
      // notify.
      std::lock_guard<std::mutex> lk(sync_mu_);
      group.faaw.fetch_add(1, std::memory_order_release);
      sync_cv_.notify_all();
    });
  }
}

void CpeCluster::wait_bodies(Group& group) {
  if (group.dispatched == 0) return;
  {
    std::unique_lock<std::mutex> lk(sync_mu_);
    sync_cv_.wait(lk, [&group] {
      return group.faaw.load(std::memory_order_acquire) == group.dispatched;
    });
  }
  group.dispatched = 0;
  // Deterministic error surface: the lowest-id failing CPE wins, as it
  // would have in serial execution.
  for (const std::exception_ptr& error : group.cpe_errors)
    if (error != nullptr) std::rethrow_exception(error);
}

bool CpeCluster::in_flight(int g) const { return group(g).in_flight; }

bool CpeCluster::any_in_flight() const {
  for (const std::unique_ptr<Group>& g : groups_)
    if (g->in_flight) return true;
  return false;
}

bool CpeCluster::poll(int g) {
  Group& group = this->group(g);
  USW_ASSERT_MSG(group.in_flight, "poll with no offload in flight");
  coord_.advance(rank_, cost_.flag_poll());
  if (coord_.now(rank_) < group.completion) return false;
  group.in_flight = false;
  wait_bodies(group);
  return true;
}

int CpeCluster::flag(int g) const {
  const TimePs now = coord_.now(rank_);
  int count = 0;
  for (TimePs done : group(g).cpe_done)
    if (done <= now) ++count;
  return count;
}

const std::vector<TimePs>& CpeCluster::cpe_busy(int g) const {
  return group(g).cpe_busy;
}

TimePs CpeCluster::completion_time(int g) const {
  const Group& group = this->group(g);
  USW_ASSERT_MSG(group.in_flight, "completion_time with no offload in flight");
  return group.completion;
}

TimePs CpeCluster::earliest_completion() const {
  TimePs earliest = sim::kNever;
  for (const std::unique_ptr<Group>& g : groups_)
    if (g->in_flight) earliest = std::min(earliest, g->completion);
  return earliest;
}

void CpeCluster::join(int g) {
  Group& group = this->group(g);
  USW_ASSERT_MSG(group.in_flight, "join with no offload in flight");
  const TimePs before = coord_.now(rank_);
  coord_.wait_until(rank_, group.completion);
  if (counters_ != nullptr) counters_->wait_time += coord_.now(rank_) - before;
  group.in_flight = false;
  wait_bodies(group);
}

std::vector<int> CpeCluster::poll_order() const {
  std::vector<int> order;
  if (schedule_ == nullptr) {
    // Canonical sweep: every group, ascending — byte-identical to the
    // historical poll loop.
    order.resize(static_cast<std::size_t>(n_groups()));
    for (int g = 0; g < n_groups(); ++g)
      order[static_cast<std::size_t>(g)] = g;
    return order;
  }
  for (int g = 0; g < n_groups(); ++g)
    if (group(g).in_flight) order.push_back(g);
  if (order.size() > 1) {
    const int k =
        schedule_->choose(schedpt::PointKind::kOffloadPoll, rank_,
                          static_cast<int>(order.size()));
    std::rotate(order.begin(), order.begin() + k, order.end());
  }
  return order;
}

}  // namespace usw::athread
