#pragma once

// Per-rank event traces of the simulated execution.
//
// Schedulers record begin/end events for kernels, MPI operations, and
// scheduling decisions. Tests use the trace to verify *behaviour* — e.g.
// that the asynchronous scheduler really does progress communication while
// a CPE kernel is in flight — and the observability layer (src/obs) pairs
// the events into structured spans for Chrome-trace export, per-step
// metrics, and critical-path analysis. Recording is O(1) per event and
// disabled by default.

#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/units.h"

namespace usw::sim {

enum class EventKind {
  kTaskBegin,
  kTaskEnd,
  kOffloadBegin,   // kernel handed to the CPE cluster
  kOffloadEnd,     // completion flag observed set
  kKernelBegin,    // CPE cluster starts computing (virtual)
  kKernelEnd,      // CPE cluster done (virtual)
  kSendPosted,
  kSendDone,
  kRecvPosted,
  kRecvDone,
  kReduceBegin,
  kReduceEnd,
  kWaitBegin,
  kWaitEnd,
  kFaultBegin,     // injected fault / recovery action (src/fault)
  kFaultEnd,
};

const char* to_string(EventKind kind);

/// Structured identity attached to an event, so exported spans are
/// machine-matchable instead of only carrying a display string. Fields
/// left at their defaults mean "not applicable"; `step` -1 doubles as the
/// initialization timestep, which is how the scheduler labels it.
struct EventIds {
  int step = -1;   ///< timestep (-1 = initialization / unset)
  int task = -1;   ///< detailed-task index in the rank's compiled graph
  int patch = -1;  ///< patch id
  int peer = -1;   ///< remote rank (comm events)
  int tag = -1;    ///< step-independent tag component (comm events)
  int group = -1;  ///< CPE group (offload/kernel events)
  std::uint64_t bytes = 0;  ///< message / staged-data volume
};

struct TraceEvent {
  TimePs time = 0;
  EventKind kind = EventKind::kTaskBegin;
  std::string label;
  EventIds ids;
};

class Trace {
 public:
  /// Enables recording; off by default so hot paths stay cheap.
  void enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Records one event. `label` is anything a std::string can be built
  /// from, or a callable returning the std::string; either way it is only
  /// turned into a string when recording is on, so a disabled trace costs
  /// call sites no string building.
  template <class Label>
  void record(TimePs time, EventKind kind, Label&& label, EventIds ids = {}) {
    if (!enabled_) return;
    if constexpr (std::is_invocable_r_v<std::string, Label&>)
      events_.push_back(TraceEvent{time, kind, label(), ids});
    else
      events_.push_back(
          TraceEvent{time, kind, std::string(std::forward<Label>(label)), ids});
  }

  const std::vector<TraceEvent>& events() const { return events_; }
  void clear() { events_.clear(); }

  /// Events of one kind, in recorded order.
  std::vector<TraceEvent> filter(EventKind kind) const;

  /// Total virtual time covered by spans of the given begin/end kinds: the
  /// union of the implied intervals. Tolerates interleaved spans (two
  /// in-flight offloads), events recorded out of time order (kernel
  /// completions are stamped at their future completion time), and
  /// unbalanced pairs (an unmatched begin is closed at the last event
  /// time; an unmatched end is ignored).
  TimePs total_between(EventKind begin, EventKind end) const;

  /// Renders one line per event, for debugging.
  std::string dump() const;

 private:
  bool enabled_ = false;
  std::vector<TraceEvent> events_;
};

}  // namespace usw::sim
