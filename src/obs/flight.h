#pragma once

// Flight recorder: a fixed-capacity ring buffer of recent runtime events,
// kept per rank (plus one for the coordinator) so that a crash or hang dump
// can show the last N decisions that led up to the failure.
//
// Design constraints:
//  - Bounded memory: capacity is fixed at construction; old events are
//    overwritten, never reallocated.
//  - No effect on determinism: recording only copies already-computed
//    values (virtual times, ids) into the ring; it never reads host clocks
//    and never feeds anything back into scheduling decisions.
//  - Cheap writes: a record() is two atomic stores and a struct copy.
//
// Concurrency contract: each ring has a SINGLE logical writer — the rank
// thread that owns it (which only records while it holds a coordinator
// grant) or, for the coordinator ring, whichever thread currently holds the
// coordinator lock. snapshot() is only called from crash/final dump paths,
// where every writer is either parked on the coordinator (the dump runs
// before cancellation wakes them, with the coordinator lock providing the
// happens-before edge) or already joined. The per-slot stamp makes a
// snapshot additionally tolerant of a torn slot: a half-written event is
// simply dropped from the snapshot instead of being reported garbled.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "support/units.h"

namespace usw::obs {

/// What happened. Operands a/b/c are kind-specific (documented per kind).
enum class FlightKind : std::uint8_t {
  kRankPick,       // coordinator granted a rank: a=rank, b=candidate count
  kStepBegin,      // rank began a timestep: a=step
  kStepEnd,        // rank completed a timestep: a=step
  kMsgSend,        // posted a send: a=dst, b=msg seq, c=bytes
  kMsgMatch,       // matched an arrival to a recv: a=src, b=msg seq, c=bytes
  kMsgLost,        // fault plane dropped a send: a=dst, b=msg seq, c=attempt
  kMsgRetransmit,  // retransmit after timeout: a=dst, b=msg seq, c=attempt
  kMsgDelayed,     // fault plane delayed a send: a=dst, b=msg seq
  kOffloadSpawn,   // CPE offload started: a=task/dt index, b=group
  kOffloadDone,    // CPE offload completed: a=task/dt index, b=group
  kOffloadFail,    // fault plane failed an offload: a=task/dt index, b=group
  kOffloadRetry,   // offload retry scheduled: a=task/dt index, b=attempt
  kGroupDegraded,  // CPE group degraded to MPE-only: a=group
  kCheckpoint,     // checkpoint written: a=step
  kRestart,        // restart from checkpoint: a=restart number, b=resume step
};

const char* to_string(FlightKind kind);

struct FlightEvent {
  std::uint64_t seq = 0;  // monotonically increasing per ring
  TimePs time = 0;        // virtual time when recorded
  FlightKind kind = FlightKind::kRankPick;
  std::int64_t a = 0;
  std::int64_t b = 0;
  std::int64_t c = 0;
};

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 256;

  /// capacity == 0 disables the recorder: record() becomes a no-op and
  /// snapshot() returns nothing. Not resizable after construction.
  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  bool enabled() const { return !slots_.empty(); }
  std::size_t capacity() const { return slots_.size(); }

  /// Records one event. Single-writer (see file comment); wait-free.
  void record(FlightKind kind, TimePs time, std::int64_t a = 0, std::int64_t b = 0,
              std::int64_t c = 0);

  /// Total events ever recorded (recorded() - capacity() of them have been
  /// overwritten once recorded() exceeds capacity()).
  std::uint64_t recorded() const { return head_.load(std::memory_order_acquire); }

  std::uint64_t dropped() const;

  /// The surviving events, oldest first. See the concurrency contract.
  std::vector<FlightEvent> snapshot() const;

 private:
  struct Slot {
    // 0 = never written; seq+1 = event `seq` fully written; writes go
    // through 0 so a concurrent snapshot can detect the torn window.
    std::atomic<std::uint64_t> stamp{0};
    FlightEvent ev;
  };

  std::vector<Slot> slots_;
  std::atomic<std::uint64_t> head_{0};
};

}  // namespace usw::obs
