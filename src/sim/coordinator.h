#pragma once

// Deterministic discrete-event execution of simulated MPI ranks.
//
// Each simulated rank (one Sunway core-group in this project) owns a
// virtual clock in integer picoseconds and runs as a stackful fiber
// (sim::Fiber) on one of min(cap, ranks) carrier host threads. The
// Coordinator enforces the conservative parallel-discrete-event invariant:
// a rank may only *observe* shared state (incoming messages) while it has
// been granted execution, and grants never violate causality. Because a
// message sent at sender time S arrives at S + latency > S, every message
// that can influence a rank at time T has physically been enqueued by the
// time that rank runs at T. Simulated timings are therefore exactly
// reproducible regardless of host scheduling.
//
// One grant engine: conservative windowed PDES. Let T be the minimum
// eligibility over all runnable ranks and L the window width (the
// network's minimum end-to-end message latency, net_latency +
// mpi_sw_latency — the same causal window the kRankPick schedule point
// uses). Every rank whose eligibility lies strictly inside [T, T + L) is
// granted, in (eligibility, rank id) order; each runs until its clock
// reaches the window end, then parks; when all grants have parked the next
// window opens. Causality: a message sent inside the window at time S >= T
// arrives at S + L >= T + L, i.e. at or after the window end, so no
// in-window rank can observe another in-window rank's sends. All
// cross-rank observation happens at times < window end, against mailbox
// state that was complete when the window opened.
//
// The cap (CoordinatorSpec) bounds how many grants run at once; the rest
// of the window's grants drain one by one as running ranks park. It is a
// host-side throttle only: kSerial is a cap of one, kParallel a cap of
// one per host core (or `threads=N`). Virtual times, matching order,
// numerics, archives and metrics are therefore BIT-IDENTICAL for every
// cap — and equal to the classic min-clock order in which one rank runs at
// a time, always the one with the minimum virtual time (ties broken by
// lowest rank id), parking at every gate and wait. Only host wall-clock
// changes.
//
// Carriers. run_ranks runs the ranks on min(cap, ranks) carrier threads
// (the calling thread is one of them). A grant queues the rank; a carrier
// pops it and switches into its fiber. A parking rank only records how it
// parks and switches back to its carrier, which then applies the park
// under the lock (so a rank is never re-granted while still on a stack)
// and switches into the next queued grant: a handoff is a fiber switch
// (sim::Fiber; on x86-64 no system call), not a kernel wake. When the last
// active rank of a window parks, its carrier opens the next window and
// wakes at most cap - 1 idle carriers. Cancellation resumes every parked
// fiber once so it throws Cancelled and unwinds its own stack.
//
// Barrier cost. Opening a window costs what changed in the closed one,
// not the rank count. Parked ranks with a finite eligibility sit in a
// binary min-heap keyed on (eligibility, rank id): the window minimum is
// its root, the window's grants pop off it in grant order, and a deadlock
// is an empty heap while fibers remain. The barrier visits only the ranks
// that ran in the closed window and the targets of their notifies (each
// sender lists its targets); every other parked rank has no new notify
// record and an unchanged mailbox, so resolving it again would change
// nothing.
//
// Notify equivalence (the subtle part). In the min-clock order, a message
// arrival lowers the target's wake ONLY if the target is kWaiting at the
// moment the sender posts — otherwise it is dropped (the target re-reads
// the mailbox itself when it next waits). That moment is defined by the
// grant order, which is nondecreasing in (eligibility, rank id): the
// minimum always runs next, and a parking rank's next eligibility never
// falls below its grant time. A send therefore executes at position
// (S, sender) where S is the sender's SEGMENT START — its clock at the last
// grant/gate/wait boundary before the send — and the decision is:
//
//   dropped   if (S, sender) < (E, target)      [target still running its
//                                                pre-park segment, or in an
//                                                earlier, already-resolved
//                                                interval]
//   applied   if (E, target) < (S, sender) < (W, target)
//                  wake = min(wake, max(stamp, clock_at_park))
//   deferred  if (S, sender) > (W, target)      [lands on a later wait]
//
// where E is the target's segment start before its park and W its
// (progressively lowered) effective wake. The engine reproduces this
// exactly: each rank tracks its segment start, notify() records
// (S, sender, stamp) into the target's pending list, and the records are
// resolved with the rule above — sorted by (S, sender) — at the target's
// own wait calls and at every window barrier. Records that would land in
// an already-executed interval are provably no-ops (their stamp is at
// least S + window, past that interval's wake), so host-side delivery
// timing cannot change any outcome.
//
// Window 0 (a schedule controller is installed, or no lookahead was
// given). Each window holds exactly one grant, so host order IS grant
// order — but under a fuzzed kRankPick that order is no longer
// (eligibility, rank), and the ordered rule above would misplace records.
// Instead every record is resolved at the next barrier by its target's
// parked state, which is the state it had when the record was posted:
// if the target is kWaiting and is not the sender, wake = min(wake,
// max(stamp, clock)); otherwise the record is dropped. At the owner's own
// wait_until only its own records can be pending; they are dropped.
//
// A schedule controller forces window 0 and a cap of one: fuzz/record/
// replay decisions form one globally ordered log, which only a total order
// over grants can reproduce. The kRankPick point then chooses the single
// grant among the ranks strictly inside the lookahead (set_schedule).
//
// Interaction with the real-threads CPE backend (athread::Backend::
// kThreads): CPE worker threads are NOT simulated ranks and never touch
// the Coordinator or any virtual time. They only run kernel numerics; each
// offload's virtual result is decided by the owning rank at spawn, while
// it is granted. A rank that consumes the numerics (poll, join) blocks its
// carrier, in host wall-clock with its virtual clock frozen, until the
// bodies are done. The conservative invariant therefore holds unchanged:
// all virtual-time mutation still happens on granted rank fibers.
//
// Rank-id grant contract: grants, gates, waits and clocks are keyed on the
// integer rank id, never on a host thread identity — no API here inspects
// std::this_thread. A rank's fiber is driven by different carriers over
// its lifetime, one at a time, with every handoff ordered by the
// coordinator lock. Rank bodies must therefore keep no thread_local state
// across a gate or wait, hold no mutex across one, and never gate or wait
// inside a catch handler or during unwinding (sim::Fiber asserts the last).
//
// Rank states:
//   kReady    - wants to run; eligible at its clock.
//   kRunning  - granted (up to the cap at once, within the open window).
//   kWaiting  - blocked until its wake time; the wake time may be lowered
//               by Coordinator::notify() when a matching message arrives,
//               and may be kNever if the rank has no locally-known event.
//   kFinished - rank function returned.
//
// Deadlock (all unfinished ranks waiting on kNever) is detected and turns
// into a StateError on every participating rank, so tests can assert on it.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "support/error.h"
#include "support/units.h"

namespace usw::schedpt {
class ScheduleController;
}  // namespace usw::schedpt

namespace usw::sim {

/// Sentinel wake time: "no locally known wake event".
inline constexpr TimePs kNever = std::numeric_limits<TimePs>::max();

/// Thrown inside rank bodies when the simulation is cancelled (another rank
/// threw, or deadlock was detected).
class Cancelled : public Error {
 public:
  explicit Cancelled(const std::string& why) : Error("simulation cancelled: " + why) {}
};

/// How the Coordinator grants execution (uswsim --coordinator).
enum class CoordinatorMode : std::uint8_t { kSerial, kParallel };

/// Parsed form of `--coordinator=serial|parallel[:threads=N]`: the
/// concurrent-grant cap. kSerial is a cap of one.
struct CoordinatorSpec {
  CoordinatorMode mode = CoordinatorMode::kSerial;
  /// Concurrent-grant cap for kParallel (0 = one per host core). Purely a
  /// host-side throttle: results are identical for every value.
  int max_concurrent = 0;

  bool parallel() const { return mode == CoordinatorMode::kParallel; }

  /// Parses "serial", "parallel", or "parallel:threads=N"; throws
  /// ConfigError on anything else.
  static CoordinatorSpec parse(const std::string& text);
  std::string describe() const;
};

/// Point-in-time view of one rank for a diagnostic snapshot. `state` is a
/// single letter: 'u' unstarted, 'r' ready, 'R' running, 'w' waiting,
/// 'f' finished. `wake` is kNever when the rank has no locally-known event.
struct RankStatus {
  int rank = -1;
  char state = '?';
  TimePs clock = 0;
  TimePs wake = kNever;
};

/// Diagnostic sink wired into the Coordinator (implemented by obs::DiagHub;
/// declared here so sim does not depend on obs). Both callbacks run with
/// the coordinator lock held:
///  - on_rank_pick: an execution grant was decided; cheap, called per grant
///    (every grant of a window, in grant order). `candidates` is the
///    kRankPick candidate count under a schedule controller, else 1.
///  - on_crash: the run is being cancelled (deadlock, watchdog stall, or an
///    explicit cancel). Called exactly once, BEFORE parked ranks are woken,
///    so their per-rank state is frozen and safe to snapshot — except ranks
///    whose status letter is 'R': a cancel raised by a throwing rank can
///    leave other ranks mid-execution (with a cap above one, several), so
///    implementations must not touch per-rank state of running ranks.
///    Implementations must never call back into the Coordinator
///    (self-deadlock on the held lock).
class DiagSink {
 public:
  virtual ~DiagSink() = default;
  virtual void on_rank_pick(int rank, int candidates, TimePs time) = 0;
  virtual void on_crash(const std::string& reason,
                        const std::vector<RankStatus>& ranks) = 0;
};

class Fiber;

class Coordinator {
 public:
  explicit Coordinator(int nranks);

  /// `window` is the conservative lookahead (the window width); `spec`
  /// sets the concurrent-grant cap. A zero window grants one rank per
  /// window, the minimum.
  Coordinator(int nranks, const CoordinatorSpec& spec, TimePs window);
  ~Coordinator();

  int size() const { return static_cast<int>(ranks_.size()); }

  /// Runs `body(*this, rank)` once per rank, each as a fiber on the
  /// carrier threads (see the header comment), and returns when every
  /// body has returned or unwound. A rank that throws cancels the run;
  /// the lowest-ranked such exception is rethrown here. A deadlock,
  /// watchdog stall or explicit cancel throws StateError with the cancel
  /// reason. Call once, after set_diag/set_schedule.
  void run(const std::function<void(Coordinator&, int)>& body);

  /// Current virtual time of `rank`.
  TimePs now(int rank) const;

  /// Adds local work time. Only legal while `rank` is granted (checked).
  void advance(int rank, TimePs dt);

  /// Yields the grant if required and blocks until `rank` may observe
  /// shared state at its current clock. Must be called before observing
  /// incoming messages. A no-op while the rank's clock is still inside the
  /// open window. Requires the grant.
  void gate(int rank);

  /// Blocks until virtual time `wake` (a locally known future event such as
  /// an offloaded kernel completing), or earlier if notify() reports an
  /// external event first. On return the rank is granted and its clock
  /// equals the wake time that fired. `wake == kNever` blocks purely on
  /// external notification. Requires the grant.
  void wait_until(int rank, TimePs wake);

  /// Like wait_until, but for wakes derived from a scan of shared state
  /// (e.g. mailbox arrival stamps): `refresh` recomputes that scan. A scan
  /// made inside a window can miss a send whose grant-order position
  /// precedes it (there is no real-time ordering between in-window
  /// segments, even at a cap of one), and the pending-notify fold
  /// deliberately drops records positioned before the target's segment on
  /// the assumption the scan covered them. The coordinator therefore
  /// re-runs `refresh` at window barriers while the rank is parked — all
  /// pushes are mutex-ordered by then — and folds the result into the
  /// wake, restoring exactly the min-clock-order scan. It re-runs it at
  /// the first barrier after the park and then only at barriers after a
  /// notify() to this rank, so the scan may read only the rank's own
  /// frozen state and shared state that changes only together with a
  /// notify() to it (a mailbox whose every push is followed by one).
  /// `refresh` must not call back into the Coordinator (it runs under the
  /// coordinator lock, on the carrier that opens the window) and must
  /// stay valid until this call returns.
  void wait_until(int rank, TimePs wake, const std::function<TimePs()>& refresh);

  /// Reports an external event for `rank` (e.g. message arrival) stamped at
  /// virtual time `stamp`. `src` is the posting rank, which must be the
  /// calling, granted rank: the record's grant-order position is its
  /// segment start (see the header comment).
  void notify(int rank, TimePs stamp, int src);

  /// Cancels the simulation; all blocked ranks throw Cancelled.
  void cancel(const std::string& why);

  bool cancelled() const;

  /// Why the run was cancelled ("" if it was not).
  std::string cancel_reason() const;

  /// Installs a diagnostic sink (see DiagSink). `stall_threshold > 0` also
  /// arms the hang watchdog: if the next grant would advance virtual
  /// time more than `stall_threshold` past the last heartbeat() mark, the
  /// run is cancelled with a "hang watchdog" reason and the sink's
  /// on_crash fires. 0 disables the watchdog (the sink still gets crash
  /// dumps from deadlocks and explicit cancels). Call before ranks start.
  void set_diag(DiagSink* diag, TimePs stall_threshold);

  /// Marks application-level progress (a completed timestep) at `rank`'s
  /// current clock. The watchdog measures stall as virtual time elapsed
  /// since the newest mark. Requires the grant.
  void heartbeat(int rank);

  /// Installs a schedule controller for the kRankPick point. When set, the
  /// grant may go to any rank whose effective time lies STRICTLY within
  /// `lookahead` of the minimum clock instead of always the minimum.
  /// Strictness is what keeps the perturbation causal: a candidate B with
  /// T_B < T_min + lookahead cannot observe any message an unrun rank A
  /// would send, because that message arrives at >= T_A + lookahead >
  /// T_B. `lookahead` should be the minimum message latency (wire +
  /// software). Null disables (canonical min-clock order). A non-null
  /// controller forces a zero window and a cap of one — one grant at a
  /// time, so its decision log is totally ordered. Call before ranks
  /// start.
  void set_schedule(schedpt::ScheduleController* schedule, TimePs lookahead);

 private:
  enum class State : std::uint8_t { kUnstarted, kReady, kRunning, kWaiting, kFinished };

  /// One notify() record awaiting resolution. `seg` is the SENDER's
  /// segment start at post time — the record's position in the grant
  /// order (see header comment).
  struct NotifyRec {
    TimePs seg;
    int src;
    TimePs stamp;
  };

  struct RankSlot {
    State state = State::kUnstarted;
    /// Owner-written (lock-free); everyone else reads it
    /// either at a window barrier (mutex-ordered) or for diagnostics.
    std::atomic<TimePs> clock{0};
    TimePs wake = kNever;
    /// Clock at this rank's last grant/gate/wait boundary — where the
    /// min-clock order would have granted its current segment.
    /// Owner-written while running; grant_locked writes it at handoff.
    TimePs seg_start = 0;
    /// notify() records not yet resolved. `pending` is the
    /// senders' inbox (guarded by notify_mu, existence hinted by
    /// has_notify); `retained` holds records whose grant-order position is
    /// beyond this rank's last resolved wait, owner/barrier-accessed only.
    std::mutex notify_mu;
    std::vector<NotifyRec> pending;
    std::atomic<bool> has_notify{false};
    std::vector<NotifyRec> retained;
    /// Authoritative wake recompute for the current
    /// kWaiting park (see the 3-arg wait_until). Points into the parked
    /// caller's frame; set under lock_ at park, cleared at grant. Null
    /// when the park's wake is a fixed local event.
    const std::function<TimePs()>* wake_fn = nullptr;
    /// The park the fiber asked for before switching out (owner-written);
    /// its carrier applies it under lock_ once the fiber is off its stack.
    State park_state = State::kReady;
    TimePs park_wake = kNever;
    const std::function<TimePs()>* park_fn = nullptr;
    /// Carrier bookkeeping, under lock_: in runnable_, or being run.
    bool queued = false;
    bool on_cpu = false;
    /// Position in eligible_, under lock_ (-1 while absent: running,
    /// finished, or waiting on kNever).
    int heap_pos = -1;
    /// Ranks this rank notified while running (owner-written); the next
    /// barrier visits them and clears the list.
    std::vector<int> notified;
    /// barrier_serial_ of this rank's last barrier visit.
    std::uint64_t visited = 0;
  };

  // ---- The windowed engine. All *_locked require lock_ held. ----
  /// Opens the next window: folds pending notifies, finds the minimum
  /// eligibility, runs the deadlock/watchdog checks, and grants every rank
  /// strictly inside the window (up to max_concurrent_ at once; the rest
  /// drain via release_locked) — or, under a schedule controller, the one
  /// rank its kRankPick point chooses.
  void open_window_locked();
  /// Grants execution to `rank`; `candidates` goes to the diag sink.
  void grant_locked(int rank, int candidates);
  /// An active rank stopped running: hand its slot to the next queued
  /// grant, or open the next window when it was the last one.
  void release_locked();
  /// Parks a granted rank in `state` (kReady or kWaiting, with `wake`):
  /// switches back to its carrier, which applies the park, and returns
  /// at the next grant. Slow path of gate() and wait_until(). `wake_fn`
  /// (may be null) is the barrier-time wake recompute for scan-derived
  /// wakes.
  void park_and_block(int rank, State state, TimePs wake,
                      const std::function<TimePs()>* wake_fn = nullptr);
  /// Shared body of the wait_until overloads.
  void wait_until_impl(int rank, TimePs wake,
                       const std::function<TimePs()>* refresh);
  /// Drains `rank`'s notify records and resolves them with the grant-order
  /// rule (header comment; window 0 has its own): records before the current
  /// segment's start are dropped, records before the (progressively
  /// lowered) wake are applied, later records stay retained. `park_clock`
  /// is the clock the rank would park at; `waiting` distinguishes a
  /// wait_until park (wake applies) from a gate park (everything up to the
  /// re-grant at `park_clock` is dropped). Returns the effective wake.
  /// Called by the owning rank and, for parked ranks, at the window
  /// barrier — never concurrently.
  TimePs resolve_notifies(int rank, RankSlot& slot, TimePs park_clock,
                          TimePs wake, bool waiting);
  /// Fast-path watchdog guard: true when advancing to `t` would outrun the
  /// stall threshold, in which case the rank must park so the next window
  /// open (which sees the authoritative minimum) decides whether to crash.
  bool would_stall(TimePs t) const {
    return diag_ != nullptr && stall_threshold_ > 0 &&
           t - progress_mark_.load(std::memory_order_relaxed) > stall_threshold_;
  }

  // ---- Carriers and fibers (run()). ----
  /// One carrier: switches into queued ranks until every fiber is done.
  void carry();
  /// Fiber body of `rank`: runs `body`, turning a throw into a cancel.
  void run_rank(const std::function<void(Coordinator&, int)>& body, int rank);
  /// Records `error` as `rank`'s (run() rethrows the lowest rank's) and
  /// cancels with "rank <rank><what>".
  void fail_locked(int rank, std::exception_ptr error, const std::string& what);
  /// Queues `rank` for the next free carrier.
  void enqueue_locked(int rank);
  /// Applies what `rank` did before switching out: finished, parked, or
  /// (cancelled run) requeued to unwind.
  void after_switch_locked(int rank);

  /// Cancels with `why`, fires diag_->on_crash (if any) while every parked
  /// rank is still frozen, then queues every parked fiber so it unwinds.
  /// Requires lock_ held.
  void crash_locked(const std::string& why);

  /// Barrier visit of a rank that ran in the closed window (`parked_now`)
  /// or was notified in it: resolves its notify records, recomputes a
  /// scan-derived wake when it could have changed, and re-keys the rank in
  /// the eligibility index. At most once per barrier.
  void visit_locked(int rank, bool parked_now);
  /// Sets `rank`'s eligibility key: inserts or moves it in eligible_, or
  /// removes it when `eff` is kNever.
  void index_set_locked(int rank, TimePs eff);
  /// An eligibility index entry: a parked rank and its eligibility (clock
  /// when ready, wake when waiting).
  struct Eligible {
    TimePs eff;
    int rank;
  };
  /// Grant order on index entries.
  static bool index_less(const Eligible& a, const Eligible& b);
  void index_place(std::size_t i, Eligible e);
  void index_sift_up(std::size_t i);
  void index_sift_down(std::size_t i);
  /// Builds the "virtual-time deadlock: ..." message.
  std::string deadlock_message_locked() const;
  /// True (and crashes) when granting at `best_time` trips the watchdog.
  bool watchdog_trips_locked(int best, TimePs best_time);

  mutable std::mutex lock_;
  std::vector<RankSlot> ranks_;
  std::atomic<bool> cancelled_{false};
  std::string cancel_reason_;
  schedpt::ScheduleController* schedule_ = nullptr;
  TimePs lookahead_ = 0;
  DiagSink* diag_ = nullptr;
  TimePs stall_threshold_ = 0;  // 0 = watchdog off
  std::atomic<TimePs> progress_mark_{0};  ///< newest heartbeat() clock

  // Fixed before any rank is released (constructor + set_schedule, both
  // pre-run), so ranks read them without the lock.
  int max_concurrent_ = 1;  ///< concurrent-grant cap
  TimePs window_ = 0;       ///< lookahead window width
  std::atomic<TimePs> window_end_{0};
  int started_ = 0;  ///< ranks started (run() starts them all at once)
  /// Parked ranks with a finite eligibility: a binary min-heap on
  /// (eligibility, rank id), so the window minimum is the root and a
  /// window's grants pop in grant order.
  std::vector<Eligible> eligible_;
  std::uint64_t barrier_serial_ = 0;  ///< window barriers so far
  int active_ = 0;   ///< granted-and-not-parked ranks this window
  std::vector<int> grant_queue_;  ///< this window's grants, in grant order
  std::size_t grant_next_ = 0;    ///< first not-yet-granted queue entry

  std::vector<std::unique_ptr<Fiber>> fibers_;  ///< one per rank during run()
  std::vector<std::exception_ptr> errors_;      ///< per rank, from run_rank
  std::deque<int> runnable_;  ///< granted ranks not yet on a carrier
  std::condition_variable carrier_cv_;  ///< idle carriers wait here
  int idle_carriers_ = 0;
  int live_ = 0;  ///< fibers whose body has not returned
};

/// Runs `body` once per rank under a Coordinator (Coordinator::run): each
/// rank is a fiber, and the fibers share min(cap, nranks) carrier threads.
/// Rethrows the first rank exception after every fiber has unwound.
void run_ranks(int nranks, const std::function<void(Coordinator&, int)>& body);

/// As above, with a schedule controller (may be null) deciding the
/// coordinator's kRankPick points within `lookahead` of the minimum clock,
/// an optional diagnostic sink + hang-watchdog threshold (see
/// Coordinator::set_diag), and a coordinator spec (the grant cap;
/// `lookahead` doubles as the window width). On cancellation the StateError carries the
/// cancel reason.
void run_ranks(int nranks, const std::function<void(Coordinator&, int)>& body,
               schedpt::ScheduleController* schedule, TimePs lookahead,
               DiagSink* diag = nullptr, TimePs stall_threshold = 0,
               const CoordinatorSpec& coord_spec = {});

}  // namespace usw::sim
