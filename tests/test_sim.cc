// Tests for the deterministic discrete-event core: min-clock ordering,
// wait/notify semantics, deadlock detection, cancellation, and traces.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cfenv>
#include <functional>
#include <mutex>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "schedpt/schedule.h"
#include "sim/coordinator.h"
#include "sim/fiber.h"
#include "sim/trace.h"

namespace usw::sim {
namespace {

TEST(Coordinator, SingleRankAdvances) {
  run_ranks(1, [](Coordinator& c, int r) {
    EXPECT_EQ(c.now(r), 0);
    c.advance(r, 100);
    EXPECT_EQ(c.now(r), 100);
    c.gate(r);  // trivially min
    EXPECT_EQ(c.now(r), 100);
  });
}

TEST(Coordinator, GateOrdersByClock) {
  // Each rank advances by a rank-specific amount, then gates; the order in
  // which gates complete must follow virtual clocks, not host scheduling.
  std::mutex mu;
  std::vector<int> order;
  run_ranks(4, [&](Coordinator& c, int r) {
    c.advance(r, (r + 1) * 10);
    c.gate(r);
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(r);
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Coordinator, TieBrokenByRankId) {
  std::mutex mu;
  std::vector<int> order;
  run_ranks(3, [&](Coordinator& c, int r) {
    c.advance(r, 50);  // same clock for everyone
    c.gate(r);
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(r);
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Coordinator, WaitUntilAdvancesClock) {
  run_ranks(1, [](Coordinator& c, int r) {
    c.wait_until(r, 5000);
    EXPECT_EQ(c.now(r), 5000);
    // Waiting for a past time is a no-op.
    c.wait_until(r, 10);
    EXPECT_EQ(c.now(r), 5000);
  });
}

TEST(Coordinator, NotifyWakesWaiter) {
  // Rank 0 waits with no locally-known wake; rank 1 notifies it at t=300.
  run_ranks(2, [](Coordinator& c, int r) {
    if (r == 0) {
      c.wait_until(r, kNever);
      EXPECT_EQ(c.now(r), 300);
    } else {
      c.advance(r, 200);
      c.gate(r);
      c.notify(0, 300, r);
      c.advance(r, 500);
      c.gate(r);
    }
  });
}

TEST(Coordinator, NotifyNeverMovesClockBackwards) {
  run_ranks(2, [](Coordinator& c, int r) {
    if (r == 0) {
      c.advance(r, 1000);
      c.wait_until(r, kNever);
      // The notification stamp (100) is older than our clock: we wake "now".
      EXPECT_EQ(c.now(r), 1000);
    } else {
      c.advance(r, 400);
      c.gate(r);
      c.notify(0, 100, r);
    }
  });
}

TEST(Coordinator, EarlierNotifyLowersWake) {
  run_ranks(2, [](Coordinator& c, int r) {
    if (r == 0) {
      c.wait_until(r, 10000);  // known wake far in the future
      EXPECT_EQ(c.now(r), 250);  // external event arrived first
    } else {
      c.advance(r, 250);
      c.gate(r);
      c.notify(0, 250, r);
      c.advance(r, 1);
      c.gate(r);
    }
  });
}

TEST(Coordinator, DeadlockDetected) {
  EXPECT_THROW(run_ranks(2,
                         [](Coordinator& c, int r) {
                           (void)r;
                           c.wait_until(r, kNever);  // nobody will notify
                         }),
               StateError);
}

TEST(Coordinator, ExceptionPropagatesAndCancelsOthers) {
  EXPECT_THROW(run_ranks(2,
                         [](Coordinator& c, int r) {
                           if (r == 0) throw ConfigError("boom");
                           c.wait_until(r, kNever);  // must be cancelled
                         }),
               ConfigError);
}

/// A little virtual-time dance of `gates` gates over `nranks` ranks;
/// returns the final clocks. Notify stamps lie 5 ps past the sender, so any
/// `window` up to 5 honours the latency contract. When `threads` is set,
/// every host thread that ran a rank body is recorded in it.
std::vector<TimePs> gate_dance(int nranks, int gates,
                               const CoordinatorSpec& spec = {},
                               TimePs window = 0,
                               std::set<std::thread::id>* threads = nullptr) {
  std::vector<TimePs> finals(static_cast<std::size_t>(nranks));
  std::mutex mu;
  run_ranks(
      nranks,
      [&](Coordinator& c, int r) {
        for (int i = 0; i < gates; ++i) {
          if (threads != nullptr) {
            const std::lock_guard<std::mutex> lk(mu);
            threads->insert(std::this_thread::get_id());
          }
          c.advance(r, (r * 7 + i * 3) % 11 + 1);
          c.gate(r);
          if (r > 0) c.notify(r - 1, c.now(r) + 5, r);
        }
        finals[static_cast<std::size_t>(r)] = c.now(r);
      },
      nullptr, window, nullptr, 0, spec);
  return finals;
}

TEST(Coordinator, ManyRanksDeterministicTimeline) {
  // Final clocks must be identical on repeats.
  EXPECT_EQ(gate_dance(8, 50), gate_dance(8, 50));
}

TEST(Coordinator, InvalidConstruction) {
  EXPECT_DEATH(Coordinator(0), "at least one rank");
}

// ------------------------------------------- parallel (windowed) granting ---

CoordinatorSpec parallel_spec(int threads = 0) {
  CoordinatorSpec spec;
  spec.mode = CoordinatorMode::kParallel;
  spec.max_concurrent = threads;
  return spec;
}

/// Runs `body` at window 0 (one minimum-clock grant at a time), then
/// windowed at the parallel cap; any EXPECT inside the body asserts both
/// ways.
void run_both(int nranks, TimePs window,
              const std::function<void(Coordinator&, int)>& body) {
  run_ranks(nranks, body);
  run_ranks(nranks, body, nullptr, window, nullptr, 0, parallel_spec());
}

TEST(CoordinatorSpec, ParsesModesAndThreads) {
  EXPECT_FALSE(CoordinatorSpec::parse("serial").parallel());
  EXPECT_FALSE(CoordinatorSpec::parse("").parallel());
  const CoordinatorSpec p = CoordinatorSpec::parse("parallel");
  EXPECT_TRUE(p.parallel());
  EXPECT_EQ(p.max_concurrent, 0);
  EXPECT_EQ(p.describe(), "parallel");
  const CoordinatorSpec pt = CoordinatorSpec::parse("parallel:threads=4");
  EXPECT_TRUE(pt.parallel());
  EXPECT_EQ(pt.max_concurrent, 4);
  EXPECT_EQ(pt.describe(), "parallel:threads=4");
  EXPECT_EQ(CoordinatorSpec{}.describe(), "serial");
  EXPECT_THROW(CoordinatorSpec::parse("bogus"), ConfigError);
  EXPECT_THROW(CoordinatorSpec::parse("parallelx"), ConfigError);
  EXPECT_THROW(CoordinatorSpec::parse("parallel:threads="), ConfigError);
  EXPECT_THROW(CoordinatorSpec::parse("parallel:threads=0"), ConfigError);
  EXPECT_THROW(CoordinatorSpec::parse("parallel:threads=-2"), ConfigError);
  EXPECT_THROW(CoordinatorSpec::parse("parallel:threads=4x"), ConfigError);
  EXPECT_THROW(CoordinatorSpec::parse("parallel:nope=3"), ConfigError);
}

TEST(ParallelCoordinator, DegeneratesToSerialWithoutWindowOrRanks) {
  // A zero window grants one rank at a time, always the minimum, whatever
  // the cap: gates complete in GateOrdersByClock's order. So does a
  // single rank under a real window.
  auto gate_order = [](int nranks, TimePs window) {
    std::mutex mu;
    std::vector<int> order;
    run_ranks(
        nranks,
        [&](Coordinator& c, int r) {
          c.advance(r, (r + 1) * 10);
          c.gate(r);
          std::lock_guard<std::mutex> lock(mu);
          order.push_back(r);
        },
        nullptr, window, nullptr, 0, parallel_spec());
    return order;
  };
  EXPECT_EQ(gate_order(4, 0), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(gate_order(1, 100), (std::vector<int>{0}));
}

TEST(ParallelCoordinator, NotifyWakesWaiter) {
  run_both(2, 50, [](Coordinator& c, int r) {
    if (r == 0) {
      c.wait_until(r, kNever);
      EXPECT_EQ(c.now(r), 300);
    } else {
      c.advance(r, 200);
      c.gate(r);
      c.notify(0, 300, r);
      c.advance(r, 500);
      c.gate(r);
    }
  });
}

TEST(ParallelCoordinator, NotifyNeverMovesClockBackwards) {
  run_both(2, 50, [](Coordinator& c, int r) {
    if (r == 0) {
      c.advance(r, 1000);
      c.wait_until(r, kNever);
      EXPECT_EQ(c.now(r), 1000);
    } else {
      c.advance(r, 400);
      c.gate(r);
      c.notify(0, 100, r);
    }
  });
}

TEST(ParallelCoordinator, EarlierNotifyLowersWake) {
  run_both(2, 50, [](Coordinator& c, int r) {
    if (r == 0) {
      c.wait_until(r, 10000);
      EXPECT_EQ(c.now(r), 250);
    } else {
      c.advance(r, 250);
      c.gate(r);
      c.notify(0, 250, r);
      c.advance(r, 1);
      c.gate(r);
    }
  });
}

TEST(ParallelCoordinator, TimelineMatchesSerial) {
  // A communication-free virtual-time dance with in-window waits: final
  // clocks must be identical to one-grant-at-a-time (window 0) order
  // under windowed granting, for any grant cap.
  constexpr TimePs kWindow = 100;
  auto timeline = [&](const CoordinatorSpec& spec, TimePs window) {
    std::vector<TimePs> finals(6);
    run_ranks(
        6,
        [&](Coordinator& c, int r) {
          for (int i = 0; i < 50; ++i) {
            c.advance(r, (r * 7 + i * 3) % 23 + 1);
            c.gate(r);
            const int peer = (r + 1) % 6;
            // Honor the physical-latency contract: a notify stamp is an
            // arrival, at least one window past the sender's clock.
            if (i % 3 == 0) c.notify(peer, c.now(r) + kWindow + i % 7, r);
            if (i % 4 == 1) c.wait_until(r, c.now(r) + 15);
          }
          finals[static_cast<std::size_t>(r)] = c.now(r);
        },
        nullptr, window, nullptr, 0, spec);
    return finals;
  };
  const std::vector<TimePs> serial = timeline(CoordinatorSpec{}, 0);
  EXPECT_EQ(serial, timeline(CoordinatorSpec{}, kWindow));
  EXPECT_EQ(serial, timeline(parallel_spec(), kWindow));
  EXPECT_EQ(serial, timeline(parallel_spec(1), kWindow));
  EXPECT_EQ(serial, timeline(parallel_spec(2), kWindow));
}

TEST(ParallelCoordinator, DeadlockMessageMatchesSerial) {
  auto deadlock_msg = [](const CoordinatorSpec& spec, TimePs window = 50) {
    try {
      run_ranks(
          2, [](Coordinator& c, int r) { c.wait_until(r, kNever); }, nullptr,
          window, nullptr, 0, spec);
    } catch (const StateError& e) {
      return std::string(e.what());
    }
    ADD_FAILURE() << "no deadlock under " << spec.describe();
    return std::string();
  };
  const std::string serial = deadlock_msg(CoordinatorSpec{}, 0);
  EXPECT_NE(serial.find("deadlock"), std::string::npos);
  EXPECT_EQ(serial, deadlock_msg(CoordinatorSpec{}));
  EXPECT_EQ(serial, deadlock_msg(parallel_spec()));
}

/// Takes the last candidate at every schedule point: the coordinator's
/// kRankPick then never grants the canonical minimum when it has a choice.
class LastCandidate : public schedpt::ScheduleController {
 public:
  LastCandidate() : ScheduleController(schedpt::ScheduleSpec{}) {}

 protected:
  int decide(schedpt::PointKind, int, int n, std::uint64_t) override {
    return n - 1;
  }
  void on_finish(const std::vector<Entry>&) override {}
};

TEST(ScheduledCoordinator, LaterGrantLowersFixedWakeOfEarlierParkedRank) {
  // With the last candidate always granted, rank 1 runs first and parks on
  // a fixed wake (segment start 20) before rank 0, whose segment starts at
  // 10, notifies it. One rank at a time, rank 1 is waiting when the notify
  // posts, so its wake drops from 1000 to the arrival at 100 — even though
  // the sender's (segment start, rank) precedes the waiter's.
  LastCandidate pick_last;
  TimePs woke = 0;
  run_ranks(
      2,
      [&](Coordinator& c, int r) {
        if (r == 1) {
          c.advance(r, 20);
          c.gate(r);
          c.wait_until(r, 1000);
          woke = c.now(r);
        } else {
          c.advance(r, 10);
          c.gate(r);
          c.notify(1, 100, r);
        }
      },
      &pick_last, 50);
  EXPECT_EQ(woke, 100);
  EXPECT_GT(pick_last.counters().total(), 0U);
}

/// Takes the first decision canonically, then refuses every later one, as
/// a replay that diverges mid-run does.
class RefusingPick : public schedpt::ScheduleController {
 public:
  RefusingPick() : ScheduleController(schedpt::ScheduleSpec{}) {}

 protected:
  int decide(schedpt::PointKind, int, int, std::uint64_t index) override {
    if (index > 0) throw StateError("pick refused");
    return 0;
  }
  void on_finish(const std::vector<Entry>&) override {}
};

TEST(ScheduledCoordinator, ThrowingRankPickFailsTheParkingRank) {
  // The kRankPick decision runs on a carrier while it applies a rank's
  // park. A throw there is that rank's error: it surfaces from run_ranks
  // and every fiber that entered its body unwinds.
  RefusingPick refuse;
  std::atomic<int> entered{0};
  std::atomic<int> unwound{0};
  try {
    run_ranks(
        3,
        [&](Coordinator& c, int r) {
          entered.fetch_add(1);
          struct Guard {
            std::atomic<int>& n;
            ~Guard() { n.fetch_add(1); }
          } guard{unwound};
          c.advance(r, 10 + r);
          c.gate(r);
        },
        &refuse, 50);
    ADD_FAILURE() << "the refused pick did not surface";
  } catch (const StateError& e) {
    EXPECT_NE(std::string(e.what()).find("pick refused"), std::string::npos)
        << e.what();
  }
  EXPECT_GE(entered.load(), 1);
  EXPECT_EQ(unwound.load(), entered.load());
}

/// Minimal crash-capturing diagnostic sink for watchdog tests.
struct CrashSink : DiagSink {
  std::string reason;
  void on_rank_pick(int, int, TimePs) override {}
  void on_crash(const std::string& why,
                const std::vector<RankStatus>&) override {
    reason = why;
  }
};

TEST(ParallelCoordinator, WatchdogReasonMatchesSerial) {
  // No heartbeat ever: the second window outruns the stall threshold. The
  // cancel reason (rank, virtual times) must be bit-identical to the
  // one-grant-at-a-time (window 0) order's.
  auto fire = [](const CoordinatorSpec& spec, TimePs window = 50) {
    CrashSink sink;
    try {
      run_ranks(
          2,
          [](Coordinator& c, int r) {
            for (int i = 0; i < 100; ++i) {
              c.advance(r, 1000);
              c.gate(r);
            }
          },
          nullptr, window, &sink, 500, spec);
      ADD_FAILURE() << "watchdog did not fire under " << spec.describe();
    } catch (const StateError& e) {
      EXPECT_NE(std::string(e.what()).find("hang watchdog"),
                std::string::npos);
    }
    return sink.reason;
  };
  const std::string serial = fire(CoordinatorSpec{}, 0);
  EXPECT_NE(serial.find("hang watchdog"), std::string::npos);
  EXPECT_EQ(serial, fire(CoordinatorSpec{}));
  EXPECT_EQ(serial, fire(parallel_spec()));
}

TEST(ParallelCoordinator, MidAdvanceErrorDrainsWithoutDeadlock) {
  // One rank throws StateError mid-segment while siblings are granted,
  // parked waiting, and parked at gates. Every thread must drain (the
  // throwing rank cancels, parked ranks wake with Cancelled) and the
  // original error must surface — under both coordinators.
  for (const CoordinatorSpec& spec :
       {CoordinatorSpec{}, parallel_spec(), parallel_spec(1)}) {
    std::atomic<int> entered{0};
    std::atomic<int> drained{0};
    try {
      run_ranks(
          4,
          [&](Coordinator& c, int r) {
            entered.fetch_add(1);
            struct Drain {
              std::atomic<int>& n;
              ~Drain() { n.fetch_add(1); }
            } drain{drained};
            c.advance(r, 10 + r);
            c.gate(r);
            if (r == 2) {
              // Keep yielding until every rank has entered the body, so
              // the error provably lands while siblings are granted,
              // parked at gates, and parked waiting.
              while (entered.load() < 4) {
                c.advance(r, 1);
                c.gate(r);
              }
              c.advance(r, 5);
              throw StateError("validation failure mid-advance");
            }
            if (r == 3) c.wait_until(r, kNever);
            for (int i = 0; i < 100; ++i) {
              c.advance(r, 7);
              c.gate(r);
            }
          },
          nullptr, 50, nullptr, 0, spec);
      ADD_FAILURE() << "error did not surface under " << spec.describe();
    } catch (const StateError& e) {
      EXPECT_NE(std::string(e.what()).find("validation failure"),
                std::string::npos)
          << spec.describe();
    }
    EXPECT_EQ(drained.load(), 4) << spec.describe();
  }
}

TEST(ParallelCoordinator, CancelDuringRunReleasesAllRanks) {
  for (const CoordinatorSpec& spec : {CoordinatorSpec{}, parallel_spec()}) {
    try {
      run_ranks(
          3,
          [](Coordinator& c, int r) {
            c.advance(r, 100);
            c.gate(r);
            if (r == 0) c.cancel("operator abort");
            c.wait_until(r, c.now(r) + 1000);
          },
          nullptr, 50, nullptr, 0, spec);
      ADD_FAILURE() << "cancel did not surface under " << spec.describe();
    } catch (const StateError& e) {
      EXPECT_NE(std::string(e.what()).find("operator abort"),
                std::string::npos)
          << spec.describe();
    }
  }
}

// ------------------------------------------- fibers on carrier threads ---

TEST(Coordinator, RanksRunOnCarrierThreads) {
  // Ranks are fibers on min(cap, ranks) carrier threads (the caller is one),
  // so 1024 ranks never cost 1024 host threads, and the windowed timeline
  // at either cap is the min-clock (window 0) reference.
  constexpr int kRanks = 1024;
  constexpr int kGates = 20;
  const std::vector<TimePs> reference = gate_dance(kRanks, kGates);

  std::set<std::thread::id> serial_threads;
  EXPECT_EQ(gate_dance(kRanks, kGates, CoordinatorSpec{}, 5, &serial_threads),
            reference);
  EXPECT_EQ(serial_threads, std::set<std::thread::id>{std::this_thread::get_id()});

  std::set<std::thread::id> parallel_threads;
  EXPECT_EQ(gate_dance(kRanks, kGates, parallel_spec(4), 5, &parallel_threads),
            reference);
  EXPECT_GE(parallel_threads.size(), 1U);
  EXPECT_LE(parallel_threads.size(), 4U);
}

TEST(Coordinator, CancellationUnwindsEveryFiber) {
  // One rank throws mid-run while the others are running, parked at gates
  // or parked waiting on kNever. Every fiber must unwind exactly once (its
  // RAII guard runs once), and the thrower's exception must surface —
  // not the one a later rank would have thrown.
  constexpr int kRanks = 16;
  for (const CoordinatorSpec& spec : {CoordinatorSpec{}, parallel_spec(4)}) {
    std::vector<std::atomic<int>> unwound(kRanks);
    try {
      run_ranks(
          kRanks,
          [&](Coordinator& c, int r) {
            struct Guard {
              std::atomic<int>& n;
              ~Guard() { n.fetch_add(1); }
            } guard{unwound[static_cast<std::size_t>(r)]};
            for (int i = 0; i < 100; ++i) {
              c.advance(r, 3 + r % 5);
              c.gate(r);
              if (r == 5 && i == 40) throw ConfigError("rank 5 fails");
              if (r == 7 && i == 90) throw ConfigError("rank 7 fails");
              if (r % 4 == 2 && i == 10) c.wait_until(r, kNever);
            }
          },
          nullptr, 10, nullptr, 0, spec);
      ADD_FAILURE() << "error did not surface under " << spec.describe();
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("rank 5 fails"), std::string::npos)
          << spec.describe();
    }
    for (int r = 0; r < kRanks; ++r)
      EXPECT_EQ(unwound[static_cast<std::size_t>(r)].load(), 1)
          << "rank " << r << " under " << spec.describe();
  }
}

TEST(Coordinator, DeadlockNamesEveryWaitingRank) {
  // Rank 2 finishes; every other rank waits on kNever at its own clock.
  for (const CoordinatorSpec& spec : {CoordinatorSpec{}, parallel_spec(4)}) {
    try {
      run_ranks(
          6,
          [](Coordinator& c, int r) {
            c.advance(r, 10 * r);
            c.gate(r);
            if (r != 2) c.wait_until(r, kNever);
          },
          nullptr, 50, nullptr, 0, spec);
      ADD_FAILURE() << "no deadlock under " << spec.describe();
    } catch (const StateError& e) {
      const std::string what = e.what();
      for (int r = 0; r < 6; ++r) {
        const std::string entry =
            "rank " + std::to_string(r) + " waiting at t=" + std::to_string(10 * r);
        EXPECT_EQ(what.find(entry) != std::string::npos, r != 2)
            << entry << " in '" << what << "' under " << spec.describe();
      }
    }
  }
}

TEST(ParallelCoordinator, BarrierRefreshesOnlyMailedWaiters) {
  // Rank 0 parks on a fixed far wake with a mailbox-scan refresh; ranks 1
  // and 2 step one window per gate, and rank 1 mails rank 0 (arrivals past
  // the wake, so nothing fires early) every third step. The barrier runs
  // the refresh at rank 0's first barrier and then only after the windows
  // that mailed it: 1 + 10 calls, not one per window.
  constexpr TimePs kWindow = 100;
  constexpr TimePs kWake = 10000;
  constexpr int kSteps = 30;
  auto run = [&](const CoordinatorSpec& spec, TimePs window, int* refreshes) {
    std::mutex box_mu;
    std::vector<TimePs> box;
    TimePs woke = 0;
    *refreshes = 0;
    run_ranks(
        3,
        [&](Coordinator& c, int r) {
          if (r == 0) {
            const std::function<TimePs()> refresh = [&] {
              ++*refreshes;
              std::lock_guard<std::mutex> lk(box_mu);
              return box.empty() ? kNever : *std::min_element(box.begin(), box.end());
            };
            c.wait_until(r, kWake, refresh);
            woke = c.now(r);
            return;
          }
          for (int i = 0; i < kSteps; ++i) {
            c.advance(r, kWindow);
            c.gate(r);
            if (r == 1 && i % 3 == 0) {
              const TimePs stamp = c.now(r) + 2 * kWake;
              {
                std::lock_guard<std::mutex> lk(box_mu);
                box.push_back(stamp);
              }
              c.notify(0, stamp, r);
            }
          }
        },
        nullptr, window, nullptr, 0, spec);
    return woke;
  };
  int serial_refreshes = 0;
  EXPECT_EQ(run(CoordinatorSpec{}, 0, &serial_refreshes), kWake);
  for (const CoordinatorSpec& spec : {CoordinatorSpec{}, parallel_spec(4)}) {
    int refreshes = 0;
    EXPECT_EQ(run(spec, kWindow, &refreshes), kWake) << spec.describe();
    EXPECT_EQ(refreshes, 1 + (kSteps + 2) / 3) << spec.describe();
  }
}

/// One step of a randomized rank script (RandomScriptsMatchMinClockReference).
struct ScriptOp {
  enum Kind : std::uint8_t { kGate, kWait, kNotify } kind;
  TimePs amount;  ///< advance before a gate, wait length, or stamp slack
  int peer;       ///< notify target
};

std::vector<std::vector<ScriptOp>> random_scripts(std::uint64_t seed, int nranks,
                                                  int nops) {
  std::mt19937_64 rng(seed);
  std::vector<std::vector<ScriptOp>> scripts(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    for (int i = 0; i < nops; ++i) {
      const auto pick = rng() % 10;
      const TimePs amount = 1 + static_cast<TimePs>(rng() % 60);
      int peer = static_cast<int>(rng() % static_cast<std::uint64_t>(nranks - 1));
      if (peer >= r) ++peer;
      const ScriptOp::Kind kind = pick < 4   ? ScriptOp::kGate
                                  : pick < 7 ? ScriptOp::kWait
                                             : ScriptOp::kNotify;
      scripts[static_cast<std::size_t>(r)].push_back(ScriptOp{kind, amount, peer});
    }
  }
  return scripts;
}

/// What a run of the scripts shows: every grant as (rank, time), and each
/// rank's clock after each of its gates and waits.
struct ScriptRun {
  std::vector<std::pair<int, TimePs>> grants;
  std::vector<std::vector<TimePs>> clocks;
};

/// The classic min-clock order, one rank at a time: the minimum
/// (eligibility, rank) runs until it gates or waits; a notify lowers its
/// target's wake (never below the target's clock) only if the target is
/// waiting when the notify posts.
ScriptRun min_clock_reference(const std::vector<std::vector<ScriptOp>>& scripts,
                              TimePs latency) {
  enum class St : std::uint8_t { kReady, kWaiting, kFinished };
  struct Rank {
    St st = St::kReady;
    TimePs clock = 0;
    TimePs wake = kNever;
    std::size_t pc = 0;
  };
  const int n = static_cast<int>(scripts.size());
  std::vector<Rank> ranks(scripts.size());
  ScriptRun out;
  out.clocks.resize(scripts.size());
  for (;;) {
    int best = -1;
    TimePs best_time = kNever;
    for (int r = 0; r < n; ++r) {
      const Rank& k = ranks[static_cast<std::size_t>(r)];
      const TimePs eff = k.st == St::kReady     ? k.clock
                         : k.st == St::kWaiting ? k.wake
                                                : kNever;
      if (eff < best_time) {
        best = r;
        best_time = eff;
      }
    }
    if (best < 0) break;
    Rank& me = ranks[static_cast<std::size_t>(best)];
    std::vector<TimePs>& log = out.clocks[static_cast<std::size_t>(best)];
    if (me.st == St::kWaiting) {
      me.clock = std::max(me.clock, me.wake);
      log.push_back(me.clock);
    }
    out.grants.emplace_back(best, me.clock);
    me.st = St::kFinished;
    const std::vector<ScriptOp>& ops = scripts[static_cast<std::size_t>(best)];
    while (me.pc < ops.size()) {
      const ScriptOp& op = ops[me.pc++];
      if (op.kind == ScriptOp::kGate) {
        me.clock += op.amount;
        log.push_back(me.clock);
        me.st = St::kReady;
        break;
      }
      if (op.kind == ScriptOp::kWait) {
        me.wake = me.clock + op.amount;
        me.st = St::kWaiting;
        break;
      }
      Rank& target = ranks[static_cast<std::size_t>(op.peer)];
      if (target.st == St::kWaiting)
        target.wake =
            std::min(target.wake, std::max(me.clock + latency + op.amount, target.clock));
    }
  }
  return out;
}

struct GrantLog : DiagSink {
  std::vector<std::pair<int, TimePs>> grants;
  void on_rank_pick(int rank, int, TimePs time) override {
    grants.emplace_back(rank, time);
  }
  void on_crash(const std::string&, const std::vector<RankStatus>&) override {}
};

ScriptRun run_scripts(const std::vector<std::vector<ScriptOp>>& scripts,
                      TimePs latency, TimePs window, const CoordinatorSpec& spec) {
  GrantLog log;
  ScriptRun out;
  out.clocks.resize(scripts.size());
  run_ranks(
      static_cast<int>(scripts.size()),
      [&](Coordinator& c, int r) {
        std::vector<TimePs>& clocks = out.clocks[static_cast<std::size_t>(r)];
        for (const ScriptOp& op : scripts[static_cast<std::size_t>(r)]) {
          switch (op.kind) {
            case ScriptOp::kGate:
              c.advance(r, op.amount);
              c.gate(r);
              clocks.push_back(c.now(r));
              break;
            case ScriptOp::kWait:
              c.wait_until(r, c.now(r) + op.amount);
              clocks.push_back(c.now(r));
              break;
            case ScriptOp::kNotify:
              c.notify(op.peer, c.now(r) + latency + op.amount, r);
              break;
          }
        }
      },
      nullptr, window, &log, 0, spec);
  out.grants = std::move(log.grants);
  return out;
}

TEST(Coordinator, RandomScriptsMatchMinClockReference) {
  // Random gate/wait/notify scripts. One grant per window (window 0)
  // reproduces the reference grant sequence exactly; windowed granting
  // grants a subsequence of it (in-window gates and waits do not park)
  // and gives every rank the reference clocks, at caps 1 and 4.
  constexpr TimePs kLatency = 50;
  constexpr int kRanks = 8;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto scripts = random_scripts(seed, kRanks, 60);
    const ScriptRun ref = min_clock_reference(scripts, kLatency);
    for (const int cap : {1, 4}) {
      const CoordinatorSpec spec = parallel_spec(cap);
      const ScriptRun one = run_scripts(scripts, kLatency, 0, spec);
      EXPECT_EQ(one.grants, ref.grants) << "seed " << seed << " cap " << cap;
      EXPECT_EQ(one.clocks, ref.clocks) << "seed " << seed << " cap " << cap;
      const ScriptRun win = run_scripts(scripts, kLatency, kLatency, spec);
      EXPECT_EQ(win.clocks, ref.clocks) << "seed " << seed << " cap " << cap;
      EXPECT_TRUE(std::includes(ref.grants.begin(), ref.grants.end(),
                                win.grants.begin(), win.grants.end(),
                                [](const auto& a, const auto& b) {
                                  return a.second != b.second ? a.second < b.second
                                                              : a.first < b.first;
                                }))
          << "seed " << seed << " cap " << cap;
    }
  }
}

// ----------------------------------------------------------------- fibers ---

TEST(Fiber, FpControlStateIsPerFiber) {
  // A rounding mode set inside a fiber stays with the fiber across a yield
  // and a resume on another thread, and never reaches either carrier.
  const auto third = [] {
    volatile double one = 1.0;
    volatile double three = 3.0;
    return one / three;
  };
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  const double nearest = third();
  Fiber* self = nullptr;
  int fiber_mode = -1;
  double fiber_third = 0;
  Fiber fiber([&] {
    std::fesetround(FE_UPWARD);
    self->yield();
    fiber_mode = std::fegetround();
    fiber_third = third();
  });
  self = &fiber;
  fiber.resume();
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
  EXPECT_EQ(third(), nearest);
  int other_mode = -1;
  double other_third = 0;
  std::thread other([&] {
    fiber.resume();
    other_mode = std::fegetround();
    other_third = third();
  });
  other.join();
  EXPECT_TRUE(fiber.done());
  EXPECT_EQ(fiber_mode, FE_UPWARD);
  EXPECT_GT(fiber_third, nearest);
  EXPECT_EQ(other_mode, FE_TONEAREST);
  EXPECT_EQ(other_third, nearest);
}

TEST(Trace, RecordsOnlyWhenEnabled) {
  // A label builder runs only when the event is recorded.
  int built = 0;
  const auto label = [&] {
    ++built;
    return std::string("b");
  };
  Trace t;
  t.record(10, EventKind::kTaskBegin, "a");
  t.record(10, EventKind::kTaskBegin, label);
  EXPECT_TRUE(t.events().empty());
  EXPECT_EQ(built, 0);
  t.enable(true);
  t.record(10, EventKind::kTaskBegin, "a");
  t.record(30, EventKind::kTaskEnd, label);
  ASSERT_EQ(t.events().size(), 2u);
  EXPECT_EQ(built, 1);
  EXPECT_EQ(t.events()[1].label, "b");
}

TEST(Trace, FilterAndTotals) {
  Trace t;
  t.enable(true);
  t.record(10, EventKind::kKernelBegin, "k1");
  t.record(40, EventKind::kKernelEnd, "k1");
  t.record(50, EventKind::kKernelBegin, "k2");
  t.record(90, EventKind::kKernelEnd, "k2");
  t.record(95, EventKind::kSendPosted, "s");
  EXPECT_EQ(t.filter(EventKind::kKernelBegin).size(), 2u);
  EXPECT_EQ(t.total_between(EventKind::kKernelBegin, EventKind::kKernelEnd), 70);
  EXPECT_NE(t.dump().find("kernel_begin"), std::string::npos);
}

TEST(Trace, EventKindNames) {
  EXPECT_STREQ(to_string(EventKind::kOffloadBegin), "offload_begin");
  EXPECT_STREQ(to_string(EventKind::kReduceEnd), "reduce_end");
}

TEST(Trace, TotalBetweenOverlappingSpans) {
  // Two kernels in flight at once (cpe_groups > 1): [10,50] and [30,70]
  // overlap, so the busy time is the union [10,70] = 60, not the sum 80.
  Trace t;
  t.enable(true);
  t.record(10, EventKind::kKernelBegin, "a");
  t.record(30, EventKind::kKernelBegin, "b");
  t.record(50, EventKind::kKernelEnd, "a");
  t.record(70, EventKind::kKernelEnd, "b");
  EXPECT_EQ(t.total_between(EventKind::kKernelBegin, EventKind::kKernelEnd), 60);
}

TEST(Trace, TotalBetweenOutOfOrderRecording) {
  // The async scheduler stamps a kernel's end at its future completion time
  // before recording later begins; totals must not depend on record order.
  Trace t;
  t.enable(true);
  t.record(10, EventKind::kKernelBegin, "a");
  t.record(90, EventKind::kKernelEnd, "a");  // recorded ahead of time
  t.record(20, EventKind::kKernelBegin, "b");
  t.record(40, EventKind::kKernelEnd, "b");
  EXPECT_EQ(t.total_between(EventKind::kKernelBegin, EventKind::kKernelEnd), 80);
}

TEST(Trace, TotalBetweenUnmatchedEvents) {
  // A stray end before any begin is ignored; a begin that never ends is
  // closed at the trace's last stamp.
  Trace t;
  t.enable(true);
  t.record(5, EventKind::kWaitEnd, "stray");
  t.record(10, EventKind::kWaitBegin, "w");
  t.record(30, EventKind::kKernelBegin, "k");  // last stamp = 30
  EXPECT_EQ(t.total_between(EventKind::kWaitBegin, EventKind::kWaitEnd), 20);
}

TEST(Trace, RecordsStructuredIds) {
  Trace t;
  t.enable(true);
  t.record(10, EventKind::kSendPosted, "msg", EventIds{2, 7, 1, 3, 42, -1, 512});
  ASSERT_EQ(t.events().size(), 1u);
  const TraceEvent& e = t.events()[0];
  EXPECT_EQ(e.ids.step, 2);
  EXPECT_EQ(e.ids.task, 7);
  EXPECT_EQ(e.ids.peer, 3);
  EXPECT_EQ(e.ids.tag, 42);
  EXPECT_EQ(e.ids.bytes, 512u);
  EXPECT_NE(t.dump().find("peer3"), std::string::npos);
}

}  // namespace
}  // namespace usw::sim
