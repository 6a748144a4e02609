// Differential test: PsServer against the std::map implementation it
// replaced, kept here verbatim as the oracle. Every completion id, every
// completion time (compared as %a hex floats, i.e. bit for bit) and
// every error status must match over long random step sequences that
// force ties: equal demands, equal submit times, advances to exactly
// the next completion, zero-length advances and deliberate misuse.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <optional>
#include <random>
#include <string>

#include <gtest/gtest.h>

#include "wsq/eventsim/ps_server.h"

namespace wsq {
namespace {

// ---- Oracle: the map-based PsServer, verbatim. ----------------------

constexpr double kTimeEps = 1e-9;

class MapPsServer {
 public:
  MapPsServer() = default;

  Result<int64_t> Submit(double now_ms, double demand_ms);
  std::optional<double> NextCompletionTime() const;
  Result<std::optional<int64_t>> AdvanceTo(double now_ms);
  int active_jobs() const { return static_cast<int>(remaining_.size()); }
  double now_ms() const { return now_ms_; }

 private:
  std::map<int64_t, double> remaining_;
  double now_ms_ = 0.0;
  int64_t next_id_ = 1;
};

Result<int64_t> MapPsServer::Submit(double now_ms, double demand_ms) {
  if (demand_ms <= 0.0 || !std::isfinite(demand_ms)) {
    return Status::InvalidArgument("PsServer: demand must be positive");
  }
  if (now_ms + kTimeEps < now_ms_) {
    return Status::InvalidArgument("PsServer: time regression on Submit");
  }
  Result<std::optional<int64_t>> advanced = AdvanceTo(std::max(now_ms, now_ms_));
  if (!advanced.ok()) return advanced.status();
  if (advanced.value().has_value()) {
    return Status::FailedPrecondition(
        "PsServer: unharvested completion before Submit");
  }
  const int64_t id = next_id_++;
  remaining_.emplace(id, demand_ms);
  return id;
}

std::optional<double> MapPsServer::NextCompletionTime() const {
  if (remaining_.empty()) return std::nullopt;
  double min_remaining = remaining_.begin()->second;
  for (const auto& [id, remaining] : remaining_) {
    min_remaining = std::min(min_remaining, remaining);
  }
  return now_ms_ + min_remaining * static_cast<double>(remaining_.size());
}

Result<std::optional<int64_t>> MapPsServer::AdvanceTo(double now_ms) {
  if (now_ms + kTimeEps < now_ms_) {
    return Status::InvalidArgument("PsServer: time regression on AdvanceTo");
  }
  if (remaining_.empty()) {
    now_ms_ = std::max(now_ms_, now_ms);
    return std::optional<int64_t>();
  }

  const std::optional<double> completion = NextCompletionTime();
  if (completion.has_value() && *completion < now_ms - kTimeEps) {
    return Status::FailedPrecondition(
        "PsServer: AdvanceTo would skip past a completion at " +
        std::to_string(*completion));
  }

  const double dt = std::max(now_ms - now_ms_, 0.0);
  const double depletion = dt / static_cast<double>(remaining_.size());
  int64_t completed = -1;
  for (auto& [id, remaining] : remaining_) {
    remaining -= depletion;
    if (remaining <= kTimeEps && completed < 0) {
      completed = id;  // at most one job can hit zero per advance
    }
  }
  now_ms_ = std::max(now_ms_, now_ms);
  if (completed >= 0) {
    remaining_.erase(completed);
    return std::optional<int64_t>(completed);
  }
  return std::optional<int64_t>();
}

// ---- Comparison helpers. --------------------------------------------

std::string Hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

std::string Hex(const std::optional<double>& v) {
  return v.has_value() ? Hex(*v) : "idle";
}

std::string Describe(const Status& s) {
  return s.ok() ? "ok" : s.ToString();
}

template <typename T>
std::string Describe(const Result<std::optional<T>>& r) {
  if (!r.ok()) return Describe(r.status());
  return r.value().has_value() ? "id " + std::to_string(*r.value())
                               : "none";
}

std::string Describe(const Result<int64_t>& r) {
  return r.ok() ? "id " + std::to_string(r.value()) : Describe(r.status());
}

/// Drives both servers through `steps` random operations and compares
/// them after every one. Adds the completions seen to `completions`, so
/// the caller can check the walk exercised the completion path.
void RunDifferential(uint64_t seed, int steps, int64_t* completions) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  // A handful of repeated demands makes equal remaining work (and so
  // simultaneous completions) common.
  const double kDemands[] = {1.0, 2.5, 2.5, 10.0, 0.1, 3.0};

  PsServer fast;
  MapPsServer oracle;
  for (int step = 0; step < steps; ++step) {
    SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                 std::to_string(step));
    const double now = oracle.now_ms();
    const std::optional<double> next = oracle.NextCompletionTime();
    const double pick = unit(rng);
    const bool crowded = oracle.active_jobs() >= 16;

    if (pick < 0.40 && !crowded) {
      // Submit: mostly at the current instant (a tie with earlier
      // submissions), sometimes later, at the next completion, or in
      // the past; demands mostly from the repeated set.
      double at = now;
      const double when = unit(rng);
      if (when < 0.25 && next.has_value()) {
        at = now + (*next - now) * unit(rng);
      } else if (when < 0.35 && next.has_value()) {
        at = *next;
      } else if (when < 0.40) {
        at = now - 1.0;
      } else if (when < 0.50) {
        at = now + 5.0 * unit(rng);
      }
      double demand = kDemands[rng() % 6];
      const double how = unit(rng);
      if (how < 0.30) {
        demand = 0.01 + 20.0 * unit(rng);
      } else if (how < 0.33) {
        const double bad[] = {0.0, -1.0,
                              std::numeric_limits<double>::infinity()};
        demand = bad[rng() % 3];
      }
      const Result<int64_t> a = fast.Submit(at, demand);
      const Result<int64_t> b = oracle.Submit(at, demand);
      ASSERT_EQ(Describe(a), Describe(b)) << "Submit(" << Hex(at) << ", "
                                          << Hex(demand) << ")";
    } else {
      // AdvanceTo: mostly exactly to the next completion (the event
      // core's harvest), else a zero-length advance, a point before the
      // completion, just inside or just outside the 1e-9 ms completion
      // slack, well past it, or into the past.
      double to = now;
      const double where = unit(rng);
      if (next.has_value() && (where < 0.60 || crowded)) {
        to = *next;
      } else if (where < 0.70) {
        to = now;
      } else if (where < 0.80) {
        to = next.has_value() ? now + (*next - now) * unit(rng)
                              : now + 10.0 * unit(rng);
      } else if (where < 0.85 && next.has_value()) {
        to = *next + (unit(rng) < 0.5 ? 0.5e-9 : 1.5e-9);
      } else if (where < 0.95) {
        to = next.has_value() ? *next + 1.0 + unit(rng) : now + 1.0;
      } else {
        to = now - 0.5;
      }
      const Result<std::optional<int64_t>> a = fast.AdvanceTo(to);
      const Result<std::optional<int64_t>> b = oracle.AdvanceTo(to);
      ASSERT_EQ(Describe(a), Describe(b)) << "AdvanceTo(" << Hex(to) << ")";
      if (b.ok() && b.value().has_value()) ++*completions;
    }

    EXPECT_EQ(Hex(fast.NextCompletionTime()),
              Hex(oracle.NextCompletionTime()));
    EXPECT_EQ(fast.active_jobs(), oracle.active_jobs());
    ASSERT_EQ(Hex(fast.now_ms()), Hex(oracle.now_ms()));
  }
}

TEST(PsServerDifferentialTest, MatchesMapOracleBitForBit) {
  int64_t completions = 0;
  for (uint64_t seed : {1, 2, 3, 4, 5}) {
    RunDifferential(seed, 4000, &completions);
    if (HasFatalFailure()) return;
  }
  // The walk must actually drain jobs, not just bounce off errors.
  EXPECT_GT(completions, 2000);
}

TEST(PsServerDifferentialTest, EqualDemandsCompleteInAdmissionOrder) {
  // Four identical jobs admitted at one instant tie exactly; both
  // implementations must hand them out lowest id first, one per
  // advance, at bit-identical times.
  PsServer fast;
  MapPsServer oracle;
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(Describe(fast.Submit(7.0, 2.5)),
              Describe(oracle.Submit(7.0, 2.5)));
  }
  for (int i = 0; i < 4; ++i) {
    const std::optional<double> t = oracle.NextCompletionTime();
    ASSERT_TRUE(t.has_value());
    ASSERT_EQ(Hex(fast.NextCompletionTime()), Hex(t));
    const Result<std::optional<int64_t>> a = fast.AdvanceTo(*t);
    const Result<std::optional<int64_t>> b = oracle.AdvanceTo(*t);
    ASSERT_EQ(Describe(a), Describe(b));
    EXPECT_EQ(Describe(b), "id " + std::to_string(i + 1));
  }
}

}  // namespace
}  // namespace wsq
