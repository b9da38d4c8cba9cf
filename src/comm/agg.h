#pragma once

// Configuration of the message aggregation/coalescing layer (--comm-agg).
//
// With aggregation on, a Comm endpoint buffers same-destination small
// sends into a per-destination coalescing buffer and posts the buffer as
// ONE aggregate wire message (sub-message header table inline), flushed
// when the buffer exceeds a size or count threshold, when its age reaches
// the progress interval, or when the endpoint needs quiescence. Large
// messages bypass the buffer and take a rendezvous handshake instead of
// the eager bounce-buffer copy. See README "Communication" and comm.h for the
// mechanism; this header only carries the parsed policy.

#include <cstdint>
#include <string>

namespace usw::comm {

struct AggSpec {
  bool enabled = false;
  /// Flush when the buffered payload+header bytes would exceed this.
  std::uint64_t max_bytes = 16 * 1024;
  /// Flush when this many sub-messages are buffered. Capped at
  /// kMaxSubsPerAggregate so sub-message seqs fit in the aggregate's
  /// seq stride (see comm.h).
  int max_count = 64;
  /// Rendezvous threshold in bytes: sends at least this large skip the
  /// buffer and the eager copy, paying the handshake instead. -1 = derive
  /// from the cost model (copy/handshake break-even); 0 = everything
  /// rendezvous (test knob).
  std::int64_t rdv_bytes = -1;

  /// Largest number of sub-messages one aggregate may carry.
  static constexpr int kMaxSubsPerAggregate = 1023;

  /// Parses "off" | "on" | "size=B,count=N[,rdv=BYTES]" (any key implies
  /// "on"; sizes accept k/m suffixes). Throws ConfigError on nonsense.
  static AggSpec parse(const std::string& text);

  /// Round-trippable human-readable form ("off" or "size=16384,count=64").
  std::string describe() const;

  /// Throws ConfigError if the thresholds are out of range.
  void validate() const;
};

}  // namespace usw::comm
