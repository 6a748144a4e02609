// sim-shared-server: one op is one shared-server scenario, run on both
// simulators of the shared server — EventSimBackend (exact processor
// sharing: a tracked client plus background clients) and
// fleet::RunFleetWorld (admission-snapshot pricing) — followed by
// fleet::AnalyzeFleet. Single thread, no sockets: controllers, the two
// engines and the analytics do all the work. Time is simulated, so the
// adaptive controllers make the same decisions on every run of a seed.

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "probe.h"
#include "timed.h"
#include "workload.h"
#include "wsq/backend/eventsim_backend.h"
#include "wsq/control/factories.h"
#include "wsq/fleet/analytics.h"
#include "wsq/fleet/fleet_spec.h"
#include "wsq/fleet/fleet_world.h"

namespace perfbench {
namespace {

using wsq::Status;

/// Scenarios a run cycles through; the list derives from the run seed.
constexpr int kScenarios = 8;
/// Clients per scenario and engine, and the controller mix they cycle
/// through (FleetSpec controller names).
constexpr int kClients = 12;
const char* const kMix[] = {"hybrid", "mimd", "adaptive"};
/// Paper-sized queries: the Customer relation at scale factor 1.
constexpr int64_t kTuples = 150000;
constexpr double kStaggerMs = 1500.0;
constexpr double kArrivalJitterMs = 400.0;
constexpr double kJitterSigma = 0.1;
constexpr int kSetupReps = 31;

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Decision counters of the traced controllers, one per engine.
struct EngineDecisions {
  DecisionStats eventsim;
  DecisionStats fleet;
};

wsq::ControllerFactoryFn Timed(wsq::ControllerFactoryFn inner,
                               DecisionStats* stats) {
  return [inner = std::move(inner), stats]() -> std::unique_ptr<wsq::Controller> {
    std::unique_ptr<wsq::Controller> c = inner();
    if (c == nullptr) return nullptr;
    return std::make_unique<TimedController>(std::move(c), stats);
  };
}

/// One scenario in both an untraced and a traced build of its specs.
struct Scenario {
  uint64_t seed = 0;
  std::string tracked;
  std::unique_ptr<wsq::EventSimBackend> eventsim[2];
  wsq::fleet::FleetWorldConfig world;
  std::vector<wsq::fleet::TenantSpec> tenants[2];
};

Status BuildScenario(uint64_t seed, EngineDecisions* decisions,
                     Scenario* sc) {
  sc->seed = seed;
  sc->tracked = kMix[0];

  wsq::EventSimConfig config;
  config.seed = seed;
  config.jitter_sigma = kJitterSigma;
  std::vector<wsq::BackgroundClientSpec> background[2];
  for (int i = 1; i < kClients; ++i) {
    wsq::BackgroundClientSpec spec;
    spec.make_controller = wsq::NamedFactory(kMix[i % 3]);
    spec.dataset_tuples = kTuples;
    spec.start_time_ms = kStaggerMs * i;
    background[0].push_back(spec);
    spec.make_controller = Timed(spec.make_controller, &decisions->eventsim);
    background[1].push_back(spec);
  }
  for (int m = 0; m < 2; ++m) {
    sc->eventsim[m] = std::make_unique<wsq::EventSimBackend>(
        config, kTuples, 0.0, std::move(background[m]));
  }

  wsq::fleet::FleetSpec fleet;
  for (const char* name : kMix) fleet.mix.push_back({name, kClients / 3});
  fleet.tuples_per_tenant = kTuples;
  fleet.arrival = wsq::fleet::ArrivalProcess::kJittered;
  fleet.stagger_interval_ms = kStaggerMs;
  fleet.arrival_jitter_ms = kArrivalJitterMs;
  wsq::Result<std::vector<wsq::fleet::TenantSpec>> tenants =
      fleet.BuildTenants(seed);
  if (!tenants.ok()) return tenants.status();
  sc->tenants[0] = tenants.value();
  sc->tenants[1] = tenants.value();
  for (wsq::fleet::TenantSpec& t : sc->tenants[1]) {
    t.factory = Timed(t.factory, &decisions->fleet);
  }
  sc->world.seed = seed;
  sc->world.jitter_sigma = kJitterSigma;
  return Status::Ok();
}

Status BuildScenarios(uint64_t run_seed, EngineDecisions* decisions,
                      std::vector<Scenario>* out) {
  out->clear();
  out->resize(kScenarios);
  for (int k = 0; k < kScenarios; ++k) {
    WSQ_RETURN_IF_ERROR(BuildScenario(SplitMix(run_seed * 131 + k), decisions,
                                      &(*out)[k]));
  }
  return Status::Ok();
}

/// What must repeat exactly whenever a scenario seed repeats.
struct Fingerprint {
  int64_t eventsim_blocks = 0;
  double eventsim_time_ms = 0.0;
  int64_t fleet_blocks = 0;
  double fleet_makespan_ms = 0.0;
  double jain = 0.0;

  bool operator==(const Fingerprint& o) const {
    return eventsim_blocks == o.eventsim_blocks &&
           std::memcmp(&eventsim_time_ms, &o.eventsim_time_ms,
                       sizeof(double)) == 0 &&
           fleet_blocks == o.fleet_blocks &&
           std::memcmp(&fleet_makespan_ms, &o.fleet_makespan_ms,
                       sizeof(double)) == 0 &&
           std::memcmp(&jain, &o.jain, sizeof(double)) == 0;
  }
};

struct ModeData {
  std::vector<TimedSample> op_ms;
  std::vector<TimedSample> eventsim_ms;
  std::vector<double> fleet_ms;
  std::vector<double> analytics_ms;
  std::vector<OpInterval> intervals;
  int64_t ops = 0;
  int64_t eventsim_ns = 0;
  int64_t fleet_ns = 0;
  int64_t fleet_blocks = 0;
  int64_t retries = 0;
};

}  // namespace

WorkloadResult RunSim(const RunOptions& options) {
  WorkloadResult result;
  EngineDecisions decisions;

  // Set-up is spec building; repeated, the last build is the one run.
  std::vector<double> setup_s;
  std::vector<Scenario> scenarios;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (rep > 0) PauseBetweenSetups();
    const int64_t t0 = NowNs();
    Status s = BuildScenarios(options.seed, &decisions, &scenarios);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (!s.ok()) {
      result.Fail("scenario set-up: " + s.ToString());
      return result;
    }
  }

  const std::vector<bool> plan = PhasePlan(options.trace);
  const int64_t phase_ns = static_cast<int64_t>(
      options.seconds * 1e9 / static_cast<double>(plan.size()));

  ModeData mode[2];
  std::vector<Phase> phases[2];
  std::vector<Fingerprint> fingerprints(kScenarios);
  std::vector<bool> seen(kScenarios, false);
  int64_t traced_minor_faults = 0;
  AllocCount traced_allocs;
  SpanLog spans;
  size_t next = 0;
  const int64_t run_start = NowNs();
  UsageSampler sampler(kSamplePeriodMs);
  for (bool traced : plan) {
    const int m = traced ? 1 : 0;
    ModeData& md = mode[m];
    const Usage u0 = ReadUsage();
    const AllocCount a0 = ReadAllocCount();
    if (traced) SetAllocCounting(true);
    const int64_t start = NowNs();
    const int64_t deadline = start + phase_ns;
    while (NowNs() < deadline) {
      const size_t k = next++ % scenarios.size();
      Scenario& sc = scenarios[k];
      result.attempted += 1;

      const int64_t t0 = NowNs();
      std::unique_ptr<wsq::Controller> tracked =
          traced ? Timed(wsq::NamedFactory(sc.tracked),
                         &decisions.eventsim)()
                 : wsq::NamedFactory(sc.tracked)();
      wsq::Result<wsq::RunTrace> run =
          sc.eventsim[m]->RunQuery(tracked.get(), wsq::RunSpec{});
      const int64_t t1 = NowNs();
      wsq::Result<wsq::fleet::FleetTrace> fleet =
          wsq::fleet::RunFleetWorld(sc.world, sc.tenants[m]);
      const int64_t t2 = NowNs();
      wsq::fleet::FleetAnalytics analytics;
      if (fleet.ok()) analytics = wsq::fleet::AnalyzeFleet(fleet.value());
      const int64_t t3 = NowNs();

      Status verdict = !run.ok()     ? run.status()
                       : !fleet.ok() ? fleet.status()
                                     : run.value().CheckConsistent();
      if (verdict.ok()) verdict = fleet.value().CheckConsistent();
      Fingerprint fp;
      if (verdict.ok()) {
        const wsq::RunTrace& trace = run.value();
        if (trace.total_tuples != kTuples || trace.total_retries != 0) {
          verdict = Status::Internal("tracked eventsim client delivered " +
                                     std::to_string(trace.total_tuples) +
                                     " tuples");
        }
        fp.eventsim_blocks = trace.total_blocks;
        fp.eventsim_time_ms = trace.total_time_ms;
        for (const wsq::fleet::TenantTrace& lane : fleet.value().tenants) {
          if (lane.trace.total_tuples != kTuples) {
            verdict = Status::Internal("fleet tenant " + lane.tenant +
                                       " delivered " +
                                       std::to_string(lane.trace.total_tuples) +
                                       " tuples");
          }
          fp.fleet_blocks += lane.trace.total_blocks;
        }
        fp.fleet_makespan_ms = fleet.value().makespan_ms;
        fp.jain = analytics.jain_index;
        if (analytics.tenants.size() != sc.tenants[m].size()) {
          verdict = Status::Internal("analytics lost tenants");
        }
      }
      if (verdict.ok()) {
        if (!seen[k]) {
          fingerprints[k] = fp;
          seen[k] = true;
        } else if (!(fingerprints[k] == fp)) {
          verdict = Status::Internal(
              "scenario seed " + std::to_string(sc.seed) +
              " gave a different fingerprint on repetition");
        }
      }
      if (!verdict.ok()) {
        result.failed += 1;
        result.Fail(verdict.ToString());
        continue;
      }

      md.ops += 1;
      md.op_ms.push_back({t3, static_cast<double>(t3 - t0) / 1e6});
      md.eventsim_ms.push_back({t1, static_cast<double>(t1 - t0) / 1e6});
      md.fleet_ms.push_back(static_cast<double>(t2 - t1) / 1e6);
      md.analytics_ms.push_back(static_cast<double>(t3 - t2) / 1e6);
      md.intervals.push_back({t0, t3, 1.0});
      md.eventsim_ns += t1 - t0;
      md.fleet_ns += t2 - t1;
      md.fleet_blocks += fp.fleet_blocks;
      md.retries += run.value().total_retries;
      if (traced) {
        const uint64_t op_id = static_cast<uint64_t>(result.attempted);
        const uint64_t root = spans.Add("scenario", op_id, 0, t0, t3);
        spans.Add("eventsim.run", op_id, root, t0, t1, fp.eventsim_blocks);
        spans.Add("fleet.run", op_id, root, t1, t2, fp.fleet_blocks);
        spans.Add("fleet.analytics", op_id, root, t2, t3);
      }
    }
    phases[m].push_back({start, deadline});
    SetAllocCounting(false);
    if (traced) {
      const Usage u1 = ReadUsage();
      const AllocCount a1 = ReadAllocCount();
      traced_minor_faults += u1.minor_faults - u0.minor_faults;
      traced_allocs.calls += a1.calls - a0.calls;
      traced_allocs.bytes += a1.bytes - a0.bytes;
    }
  }
  const std::vector<UsageSample> samples = sampler.Finish();

  const CalmFigures calm_u = TakeCalm(samples, phases[0], mode[0].intervals,
                                      mode[0].op_ms, mode[0].eventsim_ms);
  if (!options.trace) {
    AddEndToEnd(calm_u, setup_s, &result);
    result.Add("peak_rss_mb", "MB", ReadUsage().peak_rss_mb, 1);
    return result;
  }

  const ModeData& u = mode[0];
  const ModeData& t = mode[1];
  if (u.ops == 0 || t.ops == 0) {
    result.Fail("a phase completed no scenario");
    return result;
  }
  AddTraceFigures(calm_u, TakeCalm(samples, phases[1], t.intervals, {}, {}),
                  &result);
  const double ops = static_cast<double>(t.ops);
  const int64_t all_decisions =
      decisions.eventsim.decisions + decisions.fleet.decisions;
  if (decisions.fleet.decisions != t.fleet_blocks) {
    result.Fail("fleet controllers decided " +
                std::to_string(decisions.fleet.decisions) + " times for " +
                std::to_string(t.fleet_blocks) + " blocks");
  }
  result.Add("control.decide_us", "us",
             static_cast<double>(decisions.eventsim.ns + decisions.fleet.ns) /
                 1e3 / static_cast<double>(all_decisions),
             all_decisions);
  result.Add("control.decisions_per_op", "count/op",
             static_cast<double>(all_decisions) / ops, t.ops);
  result.Add("eventsim.run_ms", "ms", Median(Values(t.eventsim_ms)), t.ops);
  result.Add("eventsim.us_per_block", "us/block",
             static_cast<double>(t.eventsim_ns) / 1e3 /
                 static_cast<double>(decisions.eventsim.decisions),
             decisions.eventsim.decisions);
  result.Add("eventsim.blocks_per_op", "count/op",
             static_cast<double>(decisions.eventsim.decisions) / ops, t.ops);
  result.Add("fleet.run_ms", "ms", Median(t.fleet_ms), t.ops);
  result.Add("fleet.us_per_block", "us/block",
             static_cast<double>(t.fleet_ns) / 1e3 /
                 static_cast<double>(t.fleet_blocks),
             t.fleet_blocks);
  result.Add("fleet.blocks_per_op", "count/op",
             static_cast<double>(t.fleet_blocks) / ops, t.ops);
  result.Add("fleet.analytics_ms", "ms", Median(t.analytics_ms), t.ops);
  result.Add("codec.allocs_per_op", "count/op",
             static_cast<double>(traced_allocs.calls) / ops, t.ops);
  result.Add("codec.alloc_bytes_per_op", "B/op",
             static_cast<double>(traced_allocs.bytes) / ops, t.ops);
  result.Add("proc.minor_faults_per_op", "count/op",
             static_cast<double>(traced_minor_faults) / ops, t.ops);
  result.Add("client.retries", "count",
             static_cast<double>(u.retries + t.retries), u.ops + t.ops);

  if (!options.spans_path.empty()) {
    WriteChromeTrace(options.spans_path, {&spans}, run_start,
                     kMaxSpansWritten);
  }
  return result;
}

}  // namespace perfbench
