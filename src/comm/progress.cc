#include "comm/progress.h"

#include "support/error.h"

namespace usw::comm {

ProgressSpec ProgressSpec::parse(const std::string& text) {
  ProgressSpec spec;
  if (text.empty()) return spec;
  const std::string kInterval = "interval=";
  if (text.compare(0, kInterval.size(), kInterval) != 0)
    throw ConfigError("unknown --comm-progress option '" + text +
                      "' (interval=US)");
  const std::string num = text.substr(kInterval.size());
  std::size_t used = 0;
  long long us = 0;
  try {
    us = std::stoll(num, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (num.empty() || used != num.size())
    throw ConfigError("--comm-progress interval must be an integer "
                      "microsecond count, got '" + num + "'");
  spec.interval_us = us;
  spec.validate();
  return spec;
}

std::string ProgressSpec::describe() const {
  if (interval_us < 0) return "default";
  return "interval=" + std::to_string(interval_us);
}

void ProgressSpec::validate() const {
  // -1 is the "derive from the cost model" sentinel; an explicit interval
  // must be a positive number of microseconds.
  if (interval_us != -1 && interval_us <= 0)
    throw ConfigError("--comm-progress interval must be positive, got " +
                      std::to_string(interval_us));
}

}  // namespace usw::comm
