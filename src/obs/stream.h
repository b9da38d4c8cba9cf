#pragma once

// Streaming metrics emitter: periodic one-line JSON (JSONL) snapshots of a
// running simulation, so long sweeps and service-style deployments can be
// observed mid-run instead of only post-mortem.
//
// Wire format: the first line is a header record ({"stream":"uswsim", run
// shape, build provenance}); each subsequent line is one snapshot of a
// timestep. Every rank contributes its own counters at its own end of that
// step; the streamer sums the contributions and the last rank to arrive
// writes the line, so lines come out in step order. t_ps is the latest
// step-end time over the ranks. Each rank reads only its own counters, so
// every virtual-plane field is identical under every coordinator; only
// wall_ms and pool_queue_depth are host-noisy.

#include <chrono>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "hw/perf_counters.h"
#include "support/units.h"

namespace usw::obs {

/// Parsed `--metrics-stream=FILE[:interval]` value.
struct StreamSpec {
  std::string file;   // empty = streaming disabled
  int interval = 1;   // snapshot every N completed steps

  bool enabled() const { return !file.empty(); }

  /// Parses "FILE[:interval]". A trailing ":<digits>" is the interval;
  /// any other ':' stays part of the file name. Throws ConfigError naming
  /// --metrics-stream on an empty file or interval < 1.
  static StreamSpec parse(const std::string& spec);
};

class MetricsStreamer {
 public:
  /// Opens `spec.file` (truncating) and writes the header record. Throws
  /// IoError if the file cannot be opened.
  MetricsStreamer(const StreamSpec& spec, int nranks, int timesteps);

  /// Records `rank`'s counters at its end of `step` (virtual time `now`).
  /// Thread-safe: ranks call it concurrently. The call that completes the
  /// step (the nranks-th contribution) sums the snapshots in rank order —
  /// the fold RunResult::merged_counters uses, so the floating-point sum
  /// does not depend on arrival order — appends the line and flushes.
  void contribute(int step, int rank, TimePs now,
                  const hw::PerfCounters& counters,
                  std::size_t pool_queue_depth);

  int interval() const { return interval_; }

 private:
  /// Contributions to one step so far.
  struct Partial {
    std::vector<hw::PerfCounters> by_rank;
    TimePs t_ps = 0;  ///< latest step-end time among the contributors
    int arrived = 0;
  };

  int nranks_;
  int interval_;
  std::chrono::steady_clock::time_point start_;
  std::mutex mu_;  ///< guards out_ and partial_
  std::ofstream out_;
  std::map<int, Partial> partial_;
};

}  // namespace usw::obs
