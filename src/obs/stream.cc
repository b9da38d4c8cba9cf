#include "obs/stream.h"

#include <algorithm>
#include <cctype>

#include "obs/json_writer.h"
#include "support/build_info.h"
#include "support/error.h"

namespace usw::obs {

StreamSpec StreamSpec::parse(const std::string& spec) {
  StreamSpec out;
  out.file = spec;
  const std::size_t colon = spec.rfind(':');
  if (colon != std::string::npos && colon + 1 < spec.size()) {
    bool digits = true;
    for (std::size_t i = colon + 1; i < spec.size(); ++i)
      if (std::isdigit(static_cast<unsigned char>(spec[i])) == 0) digits = false;
    if (digits) {
      out.file = spec.substr(0, colon);
      out.interval = std::stoi(spec.substr(colon + 1));
    }
  }
  if (out.file.empty())
    throw ConfigError("--metrics-stream requires a file path (FILE[:interval])");
  if (out.interval < 1)
    throw ConfigError("--metrics-stream interval must be >= 1, got " +
                      std::to_string(out.interval));
  return out;
}

MetricsStreamer::MetricsStreamer(const StreamSpec& spec, int nranks, int timesteps)
    : nranks_(nranks),
      interval_(spec.interval),
      start_(std::chrono::steady_clock::now()),
      out_(spec.file, std::ios::trunc) {
  if (!out_) throw ResourceError("cannot open metrics stream file: " + spec.file);
  const BuildInfo& b = build_info();
  JsonWriter w(out_, 0);
  w.begin_object();
  w.kv("stream", "uswsim");
  w.kv("nranks", nranks);
  w.kv("timesteps", timesteps);
  w.kv("interval", interval_);
  w.key("provenance").begin_object();
  w.kv("version", b.version);
  w.kv("git_sha", b.git_sha);
  w.kv("compiler", b.compiler);
  w.kv("build_type", b.build_type);
  w.kv("sanitizers", b.sanitizers);
  w.end_object();
  w.end_object();
  out_ << '\n';
  out_.flush();
}

void MetricsStreamer::contribute(int step, int rank, TimePs now,
                                 const hw::PerfCounters& counters,
                                 std::size_t pool_queue_depth) {
  const std::lock_guard<std::mutex> lk(mu_);
  Partial& p = partial_[step];
  if (p.by_rank.empty()) p.by_rank.resize(static_cast<std::size_t>(nranks_));
  p.by_rank.at(static_cast<std::size_t>(rank)) = counters;
  p.t_ps = std::max(p.t_ps, now);
  if (++p.arrived < nranks_) return;
  hw::PerfCounters sum;
  for (const hw::PerfCounters& c : p.by_rank) sum.merge(c);
  const double wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                start_)
          .count();
  JsonWriter w(out_, 0);
  w.begin_object();
  w.kv("step", step);
  w.kv("t_ps", static_cast<std::int64_t>(p.t_ps));
  w.kv("wall_ms", wall_ms);
  w.kv("counted_flops", sum.counted_flops);
  w.kv("messages_sent", sum.messages_sent);
  w.kv("bytes_sent", sum.bytes_sent);
  w.kv("kernels_offloaded", sum.kernels_offloaded);
  w.kv("fault_injected", sum.fault_injected);
  w.kv("wait_ps", static_cast<std::int64_t>(sum.wait_time));
  w.kv("pool_queue_depth", static_cast<std::uint64_t>(pool_queue_depth));
  w.end_object();
  out_ << '\n';
  out_.flush();
  // A restart-from-checkpoint replays the step: it starts a fresh entry.
  partial_.erase(step);
}

}  // namespace usw::obs
