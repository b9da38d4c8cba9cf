#include "sim/coordinator.h"

#include <algorithm>
#include <sstream>
#include <system_error>
#include <thread>

#include "schedpt/schedule.h"
#include "sim/fiber.h"
#include "support/log.h"

namespace usw::sim {

namespace {

/// Grant order: nondecreasing (eligibility, rank id) — the minimum
/// clock/wake runs first, ties to the lowest rank.
bool grant_order_less(TimePs ta, int ra, TimePs tb, int rb) {
  return ta != tb ? ta < tb : ra < rb;
}

/// Atomic maximum: raises `target` to `value` if larger.
void atomic_max(std::atomic<TimePs>& target, TimePs value) {
  TimePs cur = target.load(std::memory_order_relaxed);
  while (value > cur &&
         !target.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

int default_grant_cap() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 4 : static_cast<int>(hc);
}

}  // namespace

CoordinatorSpec CoordinatorSpec::parse(const std::string& text) {
  CoordinatorSpec spec;
  if (text.empty() || text == "serial") return spec;
  const std::string kPrefix = "parallel";
  if (text.compare(0, kPrefix.size(), kPrefix) != 0)
    throw ConfigError("unknown coordinator '" + text +
                      "' (serial|parallel[:threads=N])");
  spec.mode = CoordinatorMode::kParallel;
  if (text.size() == kPrefix.size()) return spec;
  const std::string rest = text.substr(kPrefix.size());
  const std::string kThreads = ":threads=";
  if (rest.compare(0, kThreads.size(), kThreads) != 0)
    throw ConfigError("unknown coordinator option '" + text +
                      "' (serial|parallel[:threads=N])");
  const std::string num = rest.substr(kThreads.size());
  std::size_t used = 0;
  int n = 0;
  try {
    n = std::stoi(num, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != num.size() || num.empty() || n < 1)
    throw ConfigError("coordinator threads must be a positive integer, got '" +
                      num + "'");
  spec.max_concurrent = n;
  return spec;
}

std::string CoordinatorSpec::describe() const {
  if (!parallel()) return "serial";
  if (max_concurrent <= 0) return "parallel";
  return "parallel:threads=" + std::to_string(max_concurrent);
}

Coordinator::Coordinator(int nranks)
    : Coordinator(nranks, CoordinatorSpec{}, 0) {}

Coordinator::Coordinator(int nranks, const CoordinatorSpec& spec, TimePs window)
    : ranks_(static_cast<std::size_t>(nranks)) {
  USW_ASSERT_MSG(nranks > 0, "coordinator needs at least one rank");
  USW_ASSERT_MSG(window >= 0, "negative coordinator window");
  window_ = window;
  if (!spec.parallel())
    max_concurrent_ = 1;
  else
    max_concurrent_ = spec.max_concurrent > 0 ? spec.max_concurrent
                                              : default_grant_cap();
}

Coordinator::~Coordinator() = default;

TimePs Coordinator::now(int rank) const {
  // The clock is atomic, so no lock: the owner reads its own writes, and
  // any cross-thread reader (diagnostics) tolerates a stale value.
  return ranks_.at(static_cast<std::size_t>(rank))
      .clock.load(std::memory_order_relaxed);
}

void Coordinator::advance(int rank, TimePs dt) {
  USW_ASSERT_MSG(dt >= 0, "cannot advance virtual time backwards");
  RankSlot& slot = ranks_.at(static_cast<std::size_t>(rank));
  // Lock-free: only the owning (granted) rank mutates its clock.
  // The state read is race-free too: only a window barrier writes a
  // rank's state, and only while that rank is parked.
  USW_ASSERT_MSG(slot.state == State::kRunning, "advance requires the grant");
  slot.clock.fetch_add(dt, std::memory_order_relaxed);
}

void Coordinator::gate(int rank) {
  RankSlot& slot = ranks_.at(static_cast<std::size_t>(rank));
  if (!cancelled_.load(std::memory_order_relaxed)) {
    USW_ASSERT_MSG(slot.state == State::kRunning, "gate requires the grant");
    const TimePs t = slot.clock.load(std::memory_order_relaxed);
    // Still strictly inside the window: every message that could be
    // matchable at t was already enqueued when the window opened (sends
    // from concurrently-running ranks arrive at or after the window end),
    // so observing shared state now is exactly as safe as a fresh grant.
    // A one-rank-at-a-time order would park kReady here and re-grant at
    // the same clock — a segment boundary, nothing more.
    if (t < window_end_.load(std::memory_order_relaxed) && !would_stall(t)) {
      slot.seg_start = t;
      return;
    }
  }
  park_and_block(rank, State::kReady, kNever);
}

void Coordinator::wait_until(int rank, TimePs wake) {
  wait_until_impl(rank, wake, nullptr);
}

void Coordinator::wait_until(int rank, TimePs wake,
                             const std::function<TimePs()>& refresh) {
  wait_until_impl(rank, wake, &refresh);
}

void Coordinator::wait_until_impl(int rank, TimePs wake,
                                  const std::function<TimePs()>* refresh) {
  RankSlot& slot = ranks_.at(static_cast<std::size_t>(rank));
  if (cancelled_.load(std::memory_order_relaxed)) {
    park_and_block(rank, State::kWaiting, wake);  // throws Cancelled
    return;
  }
  USW_ASSERT_MSG(slot.state == State::kRunning, "wait_until requires the grant");
  const TimePs t = slot.clock.load(std::memory_order_relaxed);
  // Already past the event: a one-rank-at-a-time order never parks here,
  // so there is no segment boundary either.
  if (wake != kNever && wake <= t) return;
  // The rank parks kWaiting here unless a pending notify record lowers the
  // wake (never below the clock). Resolve them first.
  const TimePs w = resolve_notifies(rank, slot, t, wake, true);
  if (w <= t) {
    // A recorded arrival (from a sender granted after this rank's segment)
    // fires the wait at the current clock, exactly as a wake-up at
    // max(stamp, clock) would.
    slot.seg_start = t;
    return;
  }
  // An effective wake strictly inside the window cannot be preempted by
  // any further notify: in-window sends arrive at or after the window end,
  // and every earlier record was resolved above. Jump.
  if (w != kNever && w < window_end_.load(std::memory_order_relaxed) &&
      !would_stall(w)) {
    slot.clock.store(w, std::memory_order_relaxed);
    slot.seg_start = w;
    return;
  }
  park_and_block(rank, State::kWaiting, w, refresh);
}

void Coordinator::notify(int rank, TimePs stamp, int src) {
  RankSlot& slot = ranks_.at(static_cast<std::size_t>(rank));
  // Recorded, not applied: whether the notification lowers the target's
  // wake or is dropped depends on where the send sits in the grant order —
  // its position is (sender's segment start, sender id). The target
  // resolves the record (resolve_notifies) at its next wait or at the
  // window barrier, whichever the rule demands.
  USW_ASSERT_MSG(src >= 0 && src < size(), "notify requires the posting rank");
  RankSlot& sender = ranks_[static_cast<std::size_t>(src)];
  {
    std::lock_guard<std::mutex> lk(slot.notify_mu);
    slot.pending.push_back(NotifyRec{sender.seg_start, src, stamp});
  }
  slot.has_notify.store(true, std::memory_order_release);
  // Owner-written while the sender runs; the barrier reads it once every
  // rank is parked, to visit this target.
  sender.notified.push_back(rank);
}

TimePs Coordinator::resolve_notifies(int rank, RankSlot& slot, TimePs park_clock,
                                     TimePs wake, bool waiting) {
  if (slot.has_notify.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lk(slot.notify_mu);
    slot.retained.insert(slot.retained.end(), slot.pending.begin(),
                         slot.pending.end());
    slot.pending.clear();
    slot.has_notify.store(false, std::memory_order_relaxed);
  }
  if (slot.retained.empty()) return wake;
  if (window_ == 0) {
    // One grant per window, so host order is grant order: every record
    // was posted while this rank sat in the state it is parked in now,
    // and nothing is retained. A waiting target has its wake lowered to
    // the arrival (never below the parked clock); anything else — a ready
    // or finished target, or a rank's own records, which it posted while
    // running — is dropped. At the owner's own wait_until only its own
    // records can be pending, so they are dropped too.
    TimePs w = wake;
    if (waiting)
      for (const NotifyRec& rec : slot.retained)
        if (rec.src != rank) w = std::min(w, std::max(rec.stamp, park_clock));
    slot.retained.clear();
    return w;
  }
  std::sort(slot.retained.begin(), slot.retained.end(),
            [](const NotifyRec& a, const NotifyRec& b) {
              return grant_order_less(a.seg, a.src, b.seg, b.src);
            });
  // For a wait park, records from before this rank's current segment fell
  // in an earlier interval: either they were dropped (the rank
  // was running or gate-parked) or they were applied/no-ops at an earlier
  // wait — see the header comment. For a gate park the re-grant happens at
  // park_clock, so everything up to that position is dropped too.
  const TimePs drop_bound = waiting ? slot.seg_start : park_clock;
  TimePs w = wake;
  std::vector<NotifyRec> keep;
  for (const NotifyRec& rec : slot.retained) {
    if (grant_order_less(rec.seg, rec.src, drop_bound, rank)) continue;
    if (waiting && grant_order_less(rec.seg, rec.src, w, rank)) {
      // The target is kWaiting when this send posts; the wake is
      // lowered to the arrival, but never below the parked clock.
      w = std::min(w, std::max(rec.stamp, park_clock));
    } else {
      keep.push_back(rec);  // posted after the wake-up: it
                            // belongs to a later wait of this rank
    }
  }
  slot.retained.swap(keep);
  return w;
}

void Coordinator::cancel(const std::string& why) {
  std::lock_guard<std::mutex> lk(lock_);
  crash_locked(why);
}

bool Coordinator::cancelled() const {
  return cancelled_.load(std::memory_order_acquire);
}

std::string Coordinator::cancel_reason() const {
  std::lock_guard<std::mutex> lk(lock_);
  return cancel_reason_;
}

void Coordinator::set_diag(DiagSink* diag, TimePs stall_threshold) {
  USW_ASSERT_MSG(stall_threshold >= 0, "negative stall threshold");
  std::lock_guard<std::mutex> lk(lock_);
  USW_ASSERT_MSG(started_ == 0, "set_diag after ranks started");
  diag_ = diag;
  stall_threshold_ = stall_threshold;
}

void Coordinator::heartbeat(int rank) {
  const RankSlot& slot = ranks_.at(static_cast<std::size_t>(rank));
  USW_ASSERT_MSG(slot.state == State::kRunning ||
                     cancelled_.load(std::memory_order_relaxed),
                 "heartbeat requires the grant");
  atomic_max(progress_mark_, slot.clock.load(std::memory_order_relaxed));
}

void Coordinator::crash_locked(const std::string& why) {
  if (cancelled_.load(std::memory_order_relaxed)) return;
  cancel_reason_ = why;
  cancelled_.store(true, std::memory_order_release);
  // Snapshot + dump BEFORE waking anyone: parked ranks cannot unwind (and
  // destroy the state diagnostic providers point at) until resumed.
  if (diag_ != nullptr) {
    std::vector<RankStatus> status;
    status.reserve(ranks_.size());
    for (int r = 0; r < size(); ++r) {
      const RankSlot& slot = ranks_[static_cast<std::size_t>(r)];
      char st = '?';
      switch (slot.state) {
        case State::kUnstarted: st = 'u'; break;
        case State::kReady: st = 'r'; break;
        case State::kRunning: st = 'R'; break;
        case State::kWaiting: st = 'w'; break;
        case State::kFinished: st = 'f'; break;
      }
      status.push_back(RankStatus{r, st, slot.clock.load(std::memory_order_relaxed),
                                  slot.wake});
    }
    diag_->on_crash(why, status);
  }
  // Resume every parked fiber once: it throws Cancelled at its park and
  // unwinds. Fibers on a carrier right now throw at their next park (or are
  // requeued by after_switch_locked if they were already switching out).
  for (std::size_t r = 0; r < fibers_.size(); ++r) {
    const RankSlot& slot = ranks_[r];
    if (!slot.on_cpu && !slot.queued && !fibers_[r]->done())
      enqueue_locked(static_cast<int>(r));
  }
  carrier_cv_.notify_all();
}

void Coordinator::set_schedule(schedpt::ScheduleController* schedule,
                               TimePs lookahead) {
  USW_ASSERT_MSG(lookahead >= 0, "negative lookahead");
  std::lock_guard<std::mutex> lk(lock_);
  USW_ASSERT_MSG(started_ == 0, "set_schedule after ranks started");
  schedule_ = schedule;
  lookahead_ = lookahead;
  // Fuzz/record/replay decisions form one globally ordered log; only a
  // total order over grants reproduces it: one grant per window.
  if (schedule != nullptr) {
    window_ = 0;
    max_concurrent_ = 1;
  }
}

std::string Coordinator::deadlock_message_locked() const {
  // Every unfinished rank is waiting on kNever: no event can ever fire.
  std::ostringstream os;
  os << "virtual-time deadlock:";
  for (int r = 0; r < size(); ++r) {
    const RankSlot& slot = ranks_[static_cast<std::size_t>(r)];
    if (slot.state == State::kWaiting)
      os << " rank " << r
         << " waiting at t=" << slot.clock.load(std::memory_order_relaxed);
  }
  return os.str();
}

bool Coordinator::watchdog_trips_locked(int best, TimePs best_time) {
  // Hang watchdog: granting at best_time would mean no timestep has
  // completed for more than stall_threshold_ of virtual time — some rank
  // is spinning/retrying without making application progress.
  const TimePs mark = progress_mark_.load(std::memory_order_relaxed);
  if (diag_ != nullptr && stall_threshold_ > 0 && best_time != kNever &&
      best_time - mark > stall_threshold_) {
    std::ostringstream os;
    os << "hang watchdog: no step completed between t=" << mark
       << " and t=" << best_time << " ps (threshold " << stall_threshold_
       << " ps); stalled at rank " << best;
    crash_locked(os.str());
    return true;
  }
  return false;
}

bool Coordinator::index_less(const Eligible& a, const Eligible& b) {
  return grant_order_less(a.eff, a.rank, b.eff, b.rank);
}

void Coordinator::index_place(std::size_t i, Eligible e) {
  eligible_[i] = e;
  ranks_[static_cast<std::size_t>(e.rank)].heap_pos = static_cast<int>(i);
}

void Coordinator::index_sift_up(std::size_t i) {
  const Eligible e = eligible_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!index_less(e, eligible_[parent])) break;
    index_place(i, eligible_[parent]);
    i = parent;
  }
  index_place(i, e);
}

void Coordinator::index_sift_down(std::size_t i) {
  const Eligible e = eligible_[i];
  const std::size_t n = eligible_.size();
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && index_less(eligible_[child + 1], eligible_[child])) ++child;
    if (!index_less(eligible_[child], e)) break;
    index_place(i, eligible_[child]);
    i = child;
  }
  index_place(i, e);
}

void Coordinator::index_set_locked(int rank, TimePs eff) {
  RankSlot& slot = ranks_[static_cast<std::size_t>(rank)];
  if (slot.heap_pos < 0) {
    if (eff == kNever) return;
    eligible_.push_back(Eligible{eff, rank});
    index_sift_up(eligible_.size() - 1);
    return;
  }
  const auto i = static_cast<std::size_t>(slot.heap_pos);
  const TimePs old = eligible_[i].eff;
  if (eff == kNever) {
    slot.heap_pos = -1;
    const Eligible last = eligible_.back();
    eligible_.pop_back();
    if (last.rank == rank) return;
    index_place(i, last);
    index_sift_up(i);
    index_sift_down(static_cast<std::size_t>(ranks_[static_cast<std::size_t>(last.rank)].heap_pos));
    return;
  }
  eligible_[i].eff = eff;
  if (eff < old)
    index_sift_up(i);
  else if (eff > old)
    index_sift_down(i);
}

void Coordinator::visit_locked(int rank, bool parked_now) {
  RankSlot& slot = ranks_[static_cast<std::size_t>(rank)];
  if (slot.visited == barrier_serial_) return;
  slot.visited = barrier_serial_;
  switch (slot.state) {
    case State::kWaiting: {
      const bool mailed = slot.has_notify.load(std::memory_order_acquire);
      const TimePs clock = slot.clock.load(std::memory_order_relaxed);
      slot.wake = resolve_notifies(rank, slot, clock, slot.wake, true);
      // Scan-derived wakes are recomputed here, where every push of the
      // closed window is mutex-ordered before us: an in-window scan can
      // race a concurrent sender whose grant position precedes it, and
      // the notify fold above intentionally drops that class of record
      // (see the 3-arg wait_until). Clamped to the park clock — the
      // min-clock order would spin at the clock, never park below it.
      // The scan reads the rank's own requests, frozen while it is
      // parked, and its mailbox, which only grows by pushes that each
      // notify it: past the first barrier after the park, an unmailed
      // rescan would return what was already folded in.
      if (slot.wake_fn != nullptr && (parked_now || mailed))
        slot.wake = std::min(slot.wake, std::max((*slot.wake_fn)(), clock));
      index_set_locked(rank, slot.wake);
      break;
    }
    case State::kReady: {
      const TimePs clock = slot.clock.load(std::memory_order_relaxed);
      resolve_notifies(rank, slot, clock, kNever, false);
      index_set_locked(rank, clock);
      break;
    }
    case State::kFinished:
      // Notifies to finished ranks are dropped.
      if (slot.has_notify.load(std::memory_order_acquire)) {
        std::lock_guard<std::mutex> nlk(slot.notify_mu);
        slot.pending.clear();
        slot.has_notify.store(false, std::memory_order_relaxed);
      }
      slot.retained.clear();
      break;
    case State::kUnstarted:
    case State::kRunning:
      break;
  }
}

void Coordinator::open_window_locked() {
  USW_ASSERT(active_ == 0);
  if (cancelled_.load(std::memory_order_relaxed)) return;
  // Resolve the notify records posted since the last barrier. Every rank
  // is parked, so the grant-order rule (resolve_notifies) can be
  // applied authoritatively: waiters may have their wake lowered, gate
  // parks drop everything up to their re-grant, and records positioned
  // after a rank's wake stay retained for its next wait. Only two kinds
  // of rank can have changed since their last visit: those that ran in
  // the closed window, and the targets of that window's notifies. For
  // every other rank the resolve is a no-op (no new records; a lowered
  // wake applies none of the retained ones) and its index key stands.
  ++barrier_serial_;
  for (const int r : grant_queue_) visit_locked(r, true);
  for (const int r : grant_queue_) {
    std::vector<int>& targets = ranks_[static_cast<std::size_t>(r)].notified;
    for (const int t : targets) visit_locked(t, false);
    targets.clear();
  }
  grant_queue_.clear();
  grant_next_ = 0;
  if (eligible_.empty()) {
    if (live_ == 0) return;  // everyone done
    // Every unfinished rank is waiting on kNever.
    crash_locked(deadlock_message_locked());
    return;
  }
  const int best = eligible_.front().rank;
  const TimePs best_time = eligible_.front().eff;
  if (watchdog_trips_locked(best, best_time)) return;
  // Window [best_time, best_time + window_): strictness keeps it causal
  // (a message sent at S >= best_time arrives at S + window_ >= the window
  // end, so no in-window rank can observe another's sends).
  const TimePs end = best_time > kNever - window_ ? kNever : best_time + window_;
  window_end_.store(end, std::memory_order_relaxed);
  int candidates = 1;
  if (schedule_ != nullptr) {
    // Schedule point over the ranks strictly inside the lookahead (see
    // set_schedule for the causality argument): candidate 0 is the
    // canonical min-clock/min-rank choice so default == index 0; the rest
    // follow in rank order. The window holds just the chosen rank. The
    // heap walk prunes at the first key past the lookahead: a child's key
    // is never below its parent's.
    std::vector<int> picks;
    std::vector<std::size_t> stack{0};
    while (!stack.empty()) {
      const std::size_t i = stack.back();
      stack.pop_back();
      const int r = eligible_[i].rank;
      if (r != best && eligible_[i].eff - best_time >= lookahead_) continue;
      if (r != best) picks.push_back(r);
      for (std::size_t c = 2 * i + 1; c <= 2 * i + 2 && c < eligible_.size(); ++c)
        stack.push_back(c);
    }
    std::sort(picks.begin(), picks.end());
    picks.insert(picks.begin(), best);
    candidates = static_cast<int>(picks.size());
    const int pick =
        schedule_->choose(schedpt::PointKind::kRankPick, best, candidates);
    grant_queue_.push_back(picks[static_cast<std::size_t>(pick)]);
    index_set_locked(grant_queue_.back(), kNever);
  } else {
    // Every rank strictly inside the window, popped in (time, rank id)
    // order so the diagnostic pick ring and the capped rollout follow the
    // minimum-clock sequence.
    do {
      const int r = eligible_.front().rank;
      grant_queue_.push_back(r);
      index_set_locked(r, kNever);
    } while (!eligible_.empty() && eligible_.front().eff - best_time < window_);
  }
  while (grant_next_ < grant_queue_.size() && active_ < max_concurrent_)
    grant_locked(grant_queue_[grant_next_++], candidates);
}

void Coordinator::grant_locked(int rank, int candidates) {
  RankSlot& slot = ranks_[static_cast<std::size_t>(rank)];
  USW_ASSERT_MSG((slot.state == State::kReady || slot.state == State::kWaiting) &&
                     slot.heap_pos < 0,
                 "granting a rank that is not parked or still indexed");
  if (slot.state == State::kWaiting) {
    slot.clock.store(
        std::max(slot.clock.load(std::memory_order_relaxed), slot.wake),
        std::memory_order_relaxed);
    slot.wake = kNever;
  }
  // The grant starts a new segment at the rank's (possibly raised) clock —
  // the eligibility a one-rank-at-a-time order would have granted at.
  slot.seg_start = slot.clock.load(std::memory_order_relaxed);
  slot.state = State::kRunning;
  slot.wake_fn = nullptr;  // pointed into the parked frame
  ++active_;
  if (diag_ != nullptr)
    diag_->on_rank_pick(rank, candidates,
                        slot.clock.load(std::memory_order_relaxed));
  enqueue_locked(rank);
}

void Coordinator::release_locked() {
  USW_ASSERT(active_ > 0);
  --active_;
  if (grant_next_ < grant_queue_.size()) {
    grant_locked(grant_queue_[grant_next_++], 1);
  } else if (active_ == 0) {
    open_window_locked();
  }
}

void Coordinator::park_and_block(int rank, State state, TimePs wake,
                                 const std::function<TimePs()>* wake_fn) {
  if (cancelled_.load(std::memory_order_acquire)) throw Cancelled(cancel_reason_);
  RankSlot& slot = ranks_.at(static_cast<std::size_t>(rank));
  USW_ASSERT_MSG(slot.state == State::kRunning, "parking a rank without a grant");
  // The carrier applies the park once this fiber is off its stack (see
  // after_switch_locked); until then the rank stays kRunning, so no
  // window can grant it while it is still executing here.
  slot.park_state = state;
  slot.park_wake = wake;
  slot.park_fn = wake_fn;
  fibers_[static_cast<std::size_t>(rank)]->yield();
  // Resumed by a carrier: granted, or woken once to unwind a cancelled run.
  if (cancelled_.load(std::memory_order_acquire)) throw Cancelled(cancel_reason_);
}

void Coordinator::enqueue_locked(int rank) {
  RankSlot& slot = ranks_[static_cast<std::size_t>(rank)];
  USW_ASSERT_MSG(!slot.queued && !slot.on_cpu, "queueing a rank that is on a carrier");
  slot.queued = true;
  runnable_.push_back(rank);
}

void Coordinator::after_switch_locked(int rank) {
  RankSlot& slot = ranks_[static_cast<std::size_t>(rank)];
  slot.on_cpu = false;
  const bool cancelled = cancelled_.load(std::memory_order_relaxed);
  if (fibers_[static_cast<std::size_t>(rank)]->done()) {
    const bool was_running = slot.state == State::kRunning;
    slot.state = State::kFinished;
    if (--live_ == 0) carrier_cv_.notify_all();
    if (was_running && !cancelled) release_locked();
  } else if (cancelled) {
    enqueue_locked(rank);  // resume it once more: it throws Cancelled
  } else {
    slot.state = slot.park_state;
    slot.wake = slot.park_wake;
    slot.wake_fn = slot.park_fn;
    release_locked();
  }
}

void Coordinator::carry() {
  std::unique_lock<std::mutex> lk(lock_);
  while (live_ > 0) {
    if (runnable_.empty()) {
      ++idle_carriers_;
      carrier_cv_.wait(lk);
      --idle_carriers_;
      continue;
    }
    const int rank = runnable_.front();
    runnable_.pop_front();
    // A window opening queues up to cap grants at once: pass the rest on,
    // one idle carrier at a time.
    if (!runnable_.empty() && idle_carriers_ > 0) carrier_cv_.notify_one();
    RankSlot& slot = ranks_[static_cast<std::size_t>(rank)];
    slot.queued = false;
    slot.on_cpu = true;
    lk.unlock();  // no lock is held across a switch
    fibers_[static_cast<std::size_t>(rank)]->resume();
    lk.lock();
    try {
      after_switch_locked(rank);
    } catch (const std::exception& e) {
      // The grant machinery threw while applying this rank's park or
      // finish (e.g. a diverged schedule replay at kRankPick): the rank's
      // own gate failed, so charge the error to it.
      fail_locked(rank, std::current_exception(), std::string(" threw: ") + e.what());
    }
  }
}

void Coordinator::fail_locked(int rank, std::exception_ptr error,
                              const std::string& what) {
  errors_[static_cast<std::size_t>(rank)] = std::move(error);
  crash_locked("rank " + std::to_string(rank) + what);
}

void Coordinator::run_rank(const std::function<void(Coordinator&, int)>& body,
                           int rank) {
  try {
    if (cancelled_.load(std::memory_order_acquire)) throw Cancelled(cancel_reason_);
    body(*this, rank);
  } catch (const Cancelled&) {
    // Another rank failed (or deadlock); its error is reported by run().
  } catch (const std::exception& e) {
    const std::lock_guard<std::mutex> lk(lock_);
    fail_locked(rank, std::current_exception(), std::string(" threw: ") + e.what());
  } catch (...) {
    const std::lock_guard<std::mutex> lk(lock_);
    fail_locked(rank, std::current_exception(), " threw an exception");
  }
}

void Coordinator::run(const std::function<void(Coordinator&, int)>& body) {
  USW_ASSERT_MSG(started_ == 0 && fibers_.empty(), "Coordinator::run called twice");
  errors_.assign(ranks_.size(), nullptr);
  fibers_.reserve(ranks_.size());
  for (int r = 0; r < size(); ++r)
    fibers_.push_back(
        std::make_unique<Fiber>([this, &body, r] { run_rank(body, r); }));
  {
    std::lock_guard<std::mutex> lk(lock_);
    for (int r = 0; r < size(); ++r) {
      RankSlot& slot = ranks_[static_cast<std::size_t>(r)];
      slot.state = State::kReady;
      slot.clock.store(0, std::memory_order_relaxed);
      index_set_locked(r, 0);
    }
    started_ = size();
    live_ = size();
    open_window_locked();
  }
  // This thread is one carrier; cap - 1 more (never more than ranks).
  std::vector<std::thread> helpers;
  const int carriers = std::min(max_concurrent_, size());
  helpers.reserve(static_cast<std::size_t>(carriers - 1));
  try {
    for (int c = 1; c < carriers; ++c) helpers.emplace_back([this] { carry(); });
  } catch (const std::system_error& e) {
    // Fibers are already queued: cancel, and let the carriers that did
    // start unwind them before the error surfaces.
    const std::lock_guard<std::mutex> lk(lock_);
    crash_locked(std::string("cannot start a carrier thread: ") + e.what());
  }
  carry();
  for (std::thread& t : helpers) t.join();
  fibers_.clear();
  for (const auto& err : errors_)
    if (err) std::rethrow_exception(err);
  // A deadlock (or watchdog stall) cancels every rank with sim::Cancelled,
  // which run_rank swallows; surface it as a StateError here.
  if (cancelled())
    throw StateError("simulation did not complete (" + cancel_reason() + ")");
}

void run_ranks(int nranks, const std::function<void(Coordinator&, int)>& body) {
  run_ranks(nranks, body, nullptr, 0);
}

void run_ranks(int nranks, const std::function<void(Coordinator&, int)>& body,
               schedpt::ScheduleController* schedule, TimePs lookahead,
               DiagSink* diag, TimePs stall_threshold,
               const CoordinatorSpec& coord_spec) {
  Coordinator coord(nranks, coord_spec, lookahead);
  if (schedule != nullptr) coord.set_schedule(schedule, lookahead);
  if (diag != nullptr) coord.set_diag(diag, stall_threshold);
  coord.run(body);
}

}  // namespace usw::sim
