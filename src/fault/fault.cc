#include "fault/fault.h"

#include <cmath>

#include "support/error.h"
#include "support/rng.h"

namespace usw::fault {

namespace {

/// One SplitMix64 round: the standard finalizer, order-independent when
/// inputs are folded in via xor-then-mix chains.
std::uint64_t mix(std::uint64_t x) {
  SplitMix64 s(x);
  return s.next_u64();
}

FaultKind parse_kind(const std::string& name, const std::string& spec) {
  if (name == "cpe_stall") return FaultKind::kCpeStall;
  if (name == "offload_fail") return FaultKind::kOffloadFail;
  if (name == "dma_error") return FaultKind::kDmaError;
  if (name == "msg_delay") return FaultKind::kMsgDelay;
  if (name == "msg_loss") return FaultKind::kMsgLoss;
  throw ConfigError("--inject: unknown fault kind '" + name + "' in '" + spec +
                    "' (known: cpe_stall offload_fail dma_error msg_delay msg_loss)");
}

double parse_num(const std::string& key, const std::string& value,
                 const std::string& spec) {
  std::size_t used = 0;
  double v = 0.0;
  try {
    v = std::stod(value, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != value.size() || !std::isfinite(v))
    throw ConfigError("--inject: bad value for '" + key + "' in '" + spec + "'");
  return v;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t end = s.find(sep, start);
    if (end == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

}  // namespace

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCpeStall: return "cpe_stall";
    case FaultKind::kOffloadFail: return "offload_fail";
    case FaultKind::kDmaError: return "dma_error";
    case FaultKind::kMsgDelay: return "msg_delay";
    case FaultKind::kMsgLoss: return "msg_loss";
  }
  return "?";
}

FaultPlan FaultPlan::parse(const std::string& spec, std::uint64_t seed) {
  FaultPlan plan;
  plan.seed_ = seed;
  if (spec.empty()) return plan;
  for (const std::string& clause : split(spec, ',')) {
    if (clause.empty())
      throw ConfigError("--inject: empty clause in '" + spec + "'");
    const std::vector<std::string> parts = split(clause, ':');
    FaultRule rule;
    rule.kind = parse_kind(parts[0], spec);
    for (std::size_t i = 1; i < parts.size(); ++i) {
      const std::size_t eq = parts[i].find('=');
      if (eq == std::string::npos)
        throw ConfigError("--inject: expected key=value, got '" + parts[i] +
                          "' in '" + spec + "'");
      const std::string key = parts[i].substr(0, eq);
      const std::string value = parts[i].substr(eq + 1);
      if (key == "p") {
        rule.p = parse_num(key, value, spec);
        if (rule.p < 0.0 || rule.p > 1.0)
          throw ConfigError("--inject: p=" + value + " out of [0,1] in '" +
                            spec + "'");
      } else if (key == "step") {
        const double s = parse_num(key, value, spec);
        if (s < 0.0 || s != std::floor(s))
          throw ConfigError("--inject: step=" + value +
                            " must be a non-negative integer in '" + spec + "'");
        rule.step = static_cast<int>(s);
      } else if (key == "factor") {
        rule.factor = parse_num(key, value, spec);
        if (rule.factor < 1.0)
          throw ConfigError("--inject: factor=" + value + " must be >= 1 in '" +
                            spec + "'");
      } else {
        throw ConfigError("--inject: unknown key '" + key + "' in '" + spec +
                          "' (known: p step factor)");
      }
    }
    if (rule.probability() <= 0.0)
      throw ConfigError("--inject: clause '" + clause +
                        "' never fires (give p= or step=)");
    for (const FaultRule& prev : plan.rules_)
      if (prev.kind == rule.kind)
        throw ConfigError("--inject: duplicate kind '" +
                          std::string(to_string(rule.kind)) + "' in '" + spec +
                          "'");
    plan.rules_.push_back(rule);
  }
  return plan;
}

std::string FaultPlan::describe() const {
  if (rules_.empty()) return "none";
  std::string out;
  for (const FaultRule& r : rules_) {
    if (!out.empty()) out += ",";
    out += to_string(r.kind);
    out += ":p=" + std::to_string(r.probability());
    if (r.step >= 0) out += ":step=" + std::to_string(r.step);
    if (r.kind == FaultKind::kCpeStall || r.kind == FaultKind::kMsgDelay)
      out += ":factor=" + std::to_string(r.factor);
  }
  return out + " (seed " + std::to_string(seed_) + ")";
}

const FaultRule* FaultPlan::rule(FaultKind kind) const {
  for (const FaultRule& r : rules_)
    if (r.kind == kind) return &r;
  return nullptr;
}

std::uint64_t FaultPlan::hash(FaultKind kind, std::uint64_t a, std::uint64_t b,
                              std::uint64_t c, std::uint64_t d,
                              std::uint64_t e) const {
  std::uint64_t h = mix(seed_ ^ (static_cast<std::uint64_t>(kind) + 1) *
                                    0x9e3779b97f4a7c15ull);
  h = mix(h ^ a);
  h = mix(h ^ b);
  h = mix(h ^ c);
  h = mix(h ^ d);
  h = mix(h ^ e);
  return h;
}

double FaultPlan::uniform(FaultKind kind, std::uint64_t a, std::uint64_t b,
                          std::uint64_t c, std::uint64_t d,
                          std::uint64_t e) const {
  return static_cast<double>(hash(kind, a, b, c, d, e) >> 11) * 0x1.0p-53;
}

std::optional<FaultPlan::Stall> FaultPlan::cpe_stall(std::uint64_t incarnation,
                                                     int rank, int step,
                                                     int task, int attempt,
                                                     int n_cpes) const {
  const FaultRule* r = rule(FaultKind::kCpeStall);
  if (r == nullptr || (r->step >= 0 && r->step != step) || n_cpes <= 0)
    return std::nullopt;
  const auto u64 = [](int v) { return static_cast<std::uint64_t>(v); };
  if (uniform(FaultKind::kCpeStall, incarnation, u64(rank), u64(step),
              u64(task), u64(attempt)) >= r->probability())
    return std::nullopt;
  Stall stall;
  // A second, independent hash picks the victim CPE.
  stall.cpe = static_cast<int>(hash(FaultKind::kCpeStall, incarnation ^ 0x5a5a,
                                    u64(rank), u64(step), u64(task),
                                    u64(attempt)) %
                               static_cast<std::uint64_t>(n_cpes));
  stall.factor = r->factor;
  return stall;
}

bool FaultPlan::offload_fails(std::uint64_t incarnation, int rank, int step,
                              int task, int attempt) const {
  const FaultRule* r = rule(FaultKind::kOffloadFail);
  if (r == nullptr || (r->step >= 0 && r->step != step)) return false;
  const auto u64 = [](int v) { return static_cast<std::uint64_t>(v); };
  return uniform(FaultKind::kOffloadFail, incarnation, u64(rank), u64(step),
                 u64(task), u64(attempt)) < r->probability();
}

bool FaultPlan::dma_error(std::uint64_t incarnation, int rank, int step,
                          int task, int tile) const {
  const FaultRule* r = rule(FaultKind::kDmaError);
  if (r == nullptr || (r->step >= 0 && r->step != step)) return false;
  const auto u64 = [](int v) { return static_cast<std::uint64_t>(v); };
  return uniform(FaultKind::kDmaError, incarnation, u64(rank), u64(step),
                 u64(task), u64(tile)) < r->probability();
}

std::optional<double> FaultPlan::msg_delay_factor(int src, std::uint64_t seq,
                                                  int attempt) const {
  const FaultRule* r = rule(FaultKind::kMsgDelay);
  if (r == nullptr) return std::nullopt;
  if (uniform(FaultKind::kMsgDelay, static_cast<std::uint64_t>(src), seq,
              static_cast<std::uint64_t>(attempt), 0, 0) >= r->probability())
    return std::nullopt;
  return r->factor;
}

bool FaultPlan::msg_lost(int src, std::uint64_t seq, int attempt) const {
  const FaultRule* r = rule(FaultKind::kMsgLoss);
  if (r == nullptr) return false;
  return uniform(FaultKind::kMsgLoss, static_cast<std::uint64_t>(src), seq,
                 static_cast<std::uint64_t>(attempt), 0, 0) < r->probability();
}

}  // namespace usw::fault
