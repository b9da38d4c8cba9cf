#pragma once

// Configuration of the communication progress engine (--comm-progress).
//
// Every endpoint runs a progress engine that the coordinator drives at
// deterministic virtual-time deadlines — aggregation-buffer age,
// rendezvous handshake completion, and lost-send retransmit timeouts —
// independently of which requests the application tests. See README
// "Communication progress" and comm.h for the mechanism; this header only
// carries the one tunable: the buffer-age bound.

#include <cstdint>
#include <string>

namespace usw::comm {

struct ProgressSpec {
  /// Maximum age (microseconds) a non-empty coalescing buffer may reach
  /// before the engine flushes it. -1 = derive from the cost model
  /// (MachineParams::comm_progress_interval, ≈ the latency one aggregate
  /// flush adds to a buffered message).
  std::int64_t interval_us = -1;

  /// Parses "interval=US". An empty string means the cost-model default.
  /// Throws ConfigError (naming --comm-progress) on anything else,
  /// including an interval of zero or less.
  static ProgressSpec parse(const std::string& text);

  /// Human-readable form: "interval=US" (parse() accepts it back), or
  /// "default" for the cost-model interval.
  std::string describe() const;

  /// Throws ConfigError if the interval is out of range.
  void validate() const;
};

}  // namespace usw::comm
