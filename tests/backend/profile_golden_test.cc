// Golden pins of the profile simulator: the exact output of
// ProfileBackend (bounded queries, Fig. 8 schedules, the chaos layer),
// the observer's simulated-time stamps across successive runs, and
// ComputeGroundTruth, rendered with hex floats ("%a") so a pin matches
// iff every float matches to the last bit. The expected strings were
// recorded from SimEngine as it stood before it wrote RunTrace itself;
// they must never be edited to follow a code change — a mismatch means
// an RNG draw, a float addition or an observer event moved.

#include <cinttypes>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "support/golden.h"
#include "wsq/backend/profile_backend.h"
#include "wsq/control/factories.h"
#include "wsq/control/fixed_controller.h"
#include "wsq/fault/fault_plan.h"
#include "wsq/obs/run_observer.h"
#include "wsq/obs/trace.h"
#include "wsq/sim/ground_truth.h"
#include "wsq/sim/profile_library.h"

namespace wsq {
namespace {

std::string Fingerprint(const GroundTruth& truth) {
  std::string out;
  Append(&out, "optimum=%" PRId64 "|%a\n", truth.optimum_block_size,
         truth.optimum_mean_ms);
  for (const SweepPoint& point : truth.sweep) {
    Append(&out, "  %" PRId64 "|%a|%a\n", point.block_size, point.mean_ms,
           point.stddev_ms);
  }
  return out;
}

// ---------------------------------------------------------------------
// Expected fingerprints.

/// (a) A bounded hybrid run on a drifting profile with a ragged last
/// block.
constexpr char kBoundedHybrid[] = R"golden(profile|hybrid|0x1.b7ed6b61f9e14p+12|5|23457|0|0x0p+0|0
  0|1000|1000|0x1.791fe50a1b792p-2|0x1.704925abded45p+8|0|1
  1|3000|3000|0x1.326557b88c6cap-2|0x1.c0d2737f55b32p+9|0|2
  2|5018|5018|0x1.25c023eb70066p-2|0x1.67df84014f1ddp+10|0|3
  3|7004|7004|0x1.2114426516b36p-2|0x1.ee5064885b914p+10|0|4
  4|8956|7435|0x1.4481be23cbf47p-2|0x1.268520e9cd23ap+11|0|5
)golden";

/// (b) The Fig. 8 schedule (conf1.1 -> conf1.2 -> conf1.3), with the
/// last profile persisting past the schedule's end.
constexpr char kFig8Schedule[] = R"golden(profile|hybrid|0x1.806fbf41d66cap+16|30|296261|0|0x0p+0|0
  0|1000|1000|0x1.74c4755d1a2cp-2|0x1.6c07da9ceb8fp+8|0|1
  1|3000|3000|0x1.30fa2b76ca386p-2|0x1.bebe75ab02389p+9|0|2
  2|5018|5018|0x1.0e123a78d87cfp-2|0x1.4add14e24c381p+10|0|3
  3|7004|7004|0x1.1d69e04379625p-2|0x1.e80bcb3b60cfep+10|0|4
  4|8956|8956|0x1.02938d1b259e8p-2|0x1.1ab10fe40dc0bp+11|0|5
  5|10938|10938|0x1.00a6089b2e46cp-2|0x1.56adb05db2b9dp+11|0|6
  6|12938|12938|0x1.1437a901d9809p-2|0x1.b43e281bbbd2ep+11|0|7
  7|14964|14964|0x1.11eeda3c64188p-2|0x1.f461ed6490574p+11|0|8
  8|12956|12956|0x1.7f221ba8fd093p-2|0x1.2ef888bf7197fp+12|0|9
  9|10940|10940|0x1.99d35128eca67p-2|0x1.11a68a0143846p+12|0|10
  10|10672|10672|0x1.9f70acde6c46ep-2|0x1.0e9aa499e1073p+12|0|11
  11|10611|10611|0x1.99fd86fbc2427p-2|0x1.09871e07d4d3ap+12|0|12
  12|10599|10599|0x1.921e49a011681p-2|0x1.04228fe908c2bp+12|0|13
  13|10573|10573|0x1.8eef76ac06a4ep-2|0x1.01716020fb39ap+12|0|14
  14|10581|10581|0x1.a417e31f4b0dp-2|0x1.0f4d3d39b1a4p+12|0|15
  15|10570|10570|0x1.8ecd1dd829634p-2|0x1.01488448fc737p+12|0|16
  16|10560|10560|0x1.58d3e7795b7bbp-2|0x1.bc8128626fed7p+11|0|17
  17|10532|10532|0x1.5965f70810c9cp-2|0x1.bc0f37383e956p+11|0|18
  18|10518|10518|0x1.55843a53ff37bp-2|0x1.b67c35a3b8bedp+11|0|19
  19|10435|10435|0x1.436258419847bp-2|0x1.9bed8d9bce119p+11|0|20
  20|10391|10391|0x1.4fdfe2bc40359p-2|0x1.aa08c3e13891fp+11|0|21
  21|10358|10358|0x1.45874296bcde1p-2|0x1.9b997601f7eep+11|0|22
  22|10269|10269|0x1.3e83a07d79803p-2|0x1.8f452fe649966p+11|0|23
  23|10293|10293|0x1.3ddf750ca8263p-2|0x1.8f65cc69af264p+11|0|24
  24|10276|10276|0x1.411be1623312ap-2|0x1.92cc19184e50cp+11|0|25
  25|10272|10272|0x1.42aa038761338p-2|0x1.94972e6cc0e19p+11|0|26
  26|10226|10226|0x1.49daee7fa1daap-2|0x1.9bc15a57327a8p+11|0|27
  27|10238|10238|0x1.48815a5d4fcdbp-2|0x1.9a8d28defdec2p+11|0|28
  28|10273|10273|0x1.534716b115b44p-2|0x1.a976bdacc1bfbp+11|0|29
  29|10300|10300|0x1.5210fb99c1b4ep-2|0x1.a90f1a57f26d5p+11|0|30
)golden";

/// (c) Bounded and schedule runs under a fault plan and a resilience
/// policy: retries, retry time, fault log and breaker trips.
constexpr char kBoundedFaults[] = R"golden(profile|hybrid|0x1.1e60f73c6b8bfp+13|8|23457|4|0x1.b01b398464ba8p+9|1
 fault 2|unavailability
 fault 2|unavailability
 fault 3|unavailability
 fault 3|unavailability
 fault 5|latency_spike
 fault 7|server_stall
  0|1000|1000|0x1.791fe50a1b792p-2|0x1.704925abded45p+8|0|1
  1|3000|3000|0x1.326557b88c6cap-2|0x1.c0d2737f55b32p+9|0|2
  2|5018|5018|0x1.25c023eb70066p-2|0x1.67df84014f1ddp+10|2|3
  3|500|500|0x1.66fd2828960d3p-2|0x1.5e933937a288ep+7|2|4
  4|500|500|0x1.9355a4296a5p-2|0x1.89e1a25071d22p+7|0|5
  5|6938|6938|0x1.ee83fb0b785ffp-2|0x1.a2d1270da6e2cp+11|0|6
  6|4938|4938|0x1.238970113970dp-2|0x1.5f7790bac3dfap+10|0|7
  7|4954|1563|0x1.3134343aadab4p-2|0x1.d1da6eb890952p+8|0|8
)golden";
constexpr char kScheduleFaults[] = R"golden(profile|mimd|0x1.1a532f7fa89c4p+15|30|75594|5|0x1.bbd3c7c1c5a51p+9|1
 fault 2|unavailability
 fault 2|unavailability
 fault 3|unavailability
 fault 3|unavailability
 fault 5|latency_spike
 fault 7|server_stall
 fault 9|connection_reset
  0|1000|1000|0x1.8691456921a79p-2|0x1.7d69ddc8aaddap+8|0|1
  1|1250|1250|0x1.3419f4ca63abdp-2|0x1.7819af510eab4p+8|0|2
  2|1563|1563|0x1.3aae3aa2157c4p-2|0x1.e0516ffee64b6p+8|2|3
  3|500|500|0x1.c226eef661c55p-2|0x1.b79a055c9b7abp+7|2|4
  4|500|500|0x1.d38184f8848e3p-2|0x1.c88c7bdab172ep+7|0|5
  5|1250|1250|0x1.04b9ab2da195dp-1|0x1.3e44a57533bf6p+9|0|6
  6|1563|1563|0x1.2953e2129a787p-2|0x1.c5d4c951e5475p+8|0|7
  7|1953|1953|0x1.2d985ec5ecbddp-2|0x1.1f9aed607e628p+9|0|8
  8|2441|2441|0x1.fbce4324ca2bep-2|0x1.2ea01be39cbbcp+10|0|9
  9|1953|1953|0x1.21c065386ee2p-1|0x1.144f988670bd4p+10|1|10
  10|1563|1563|0x1.1eda9efec933cp-1|0x1.b5d8322f659bcp+9|0|11
  11|1250|1250|0x1.680a46849b681p-1|0x1.b7808b14dfb48p+9|0|12
  12|1563|1563|0x1.4331f3d37018fp-1|0x1.ed507eeafb5a1p+9|0|13
  13|1953|1953|0x1.17a29d49682f6p-1|0x1.0aa9f23da07a3p+10|0|14
  14|2441|2441|0x1.d3a7b0795401cp-2|0x1.16b29f1b4e205p+10|0|15
  15|1953|1953|0x1.21ef496b2a454p-1|0x1.147c4fe351af5p+10|0|16
  16|2441|2441|0x1.0cc36a2cc584p-1|0x1.405669ec9ceafp+10|0|17
  17|3052|3052|0x1.ddd6a48852e79p-2|0x1.640baf1893c61p+10|0|18
  18|3815|3815|0x1.de631008d306bp-2|0x1.bd91643f380c9p+10|0|19
  19|3052|3052|0x1.b3b4a07ad4f01p-2|0x1.44a6d6938629ep+10|0|20
  20|2441|2441|0x1.0249c21cc3dc1p-1|0x1.33da297c88f1bp+10|0|21
  21|3052|3052|0x1.b3e2ba9578a55p-2|0x1.44c93086dfa53p+10|0|22
  22|3815|3815|0x1.bf47e2e2c378ep-2|0x1.a098846214efep+10|0|23
  23|3052|3052|0x1.048abb60006f9p-1|0x1.8444be3b90a64p+10|0|24
  24|3815|3815|0x1.e2ab10f28ff1p-2|0x1.c18e3498ebf1p+10|0|25
  25|3052|3052|0x1.0594e98ee8a7p-1|0x1.85d16a0e77b4ep+10|0|26
  26|3815|3815|0x1.daa18709dc2eep-2|0x1.ba11d2363f03fp+10|0|27
  27|4768|4768|0x1.abd6238b22e03p-2|0x1.f207455ff698fp+10|0|28
  28|5960|5960|0x1.b8f281b97e428p-2|0x1.40ce6ee1341bep+11|0|29
  29|4768|4768|0x1.f519281c3dee8p-2|0x1.23a7a458700bdp+11|0|30
)golden";

/// (d) The observer's events across two successive runs on one backend:
/// the second run's stamps continue the first's simulated-time cursor.
constexpr char kObserverTwoRuns[] = R"golden(M|1|0|0|thread_name|{"name":"pull loop"}
M|2|0|0|thread_name|{"name":"network / server"}
M|3|0|0|thread_name|{"name":"controller"}
M|4|0|0|thread_name|{"name":"server load"}
M|5|0|0|thread_name|{"name":"faults"}
M|6|0|0|thread_name|{"name":"wsqd server"}
X|1|0|113315|block_request|{"requested":300,"received":300,"per_tuple_ms":0.37771769363707891,"retries":0}
i|3|113315|0|controller_decision|{"controller":"fixed_300","adaptivity_step":"0","next_size":"300","name":"fixed_300","adaptivity_steps":"0","block_size":"300"}
C|3|113315|0|block_size_command|{"value":300}
X|1|113315|99541|block_request|{"requested":300,"received":300,"per_tuple_ms":0.33180311074990837,"retries":0}
i|3|212856|0|controller_decision|{"controller":"fixed_300","adaptivity_step":"0","next_size":"300","name":"fixed_300","adaptivity_steps":"0","block_size":"300"}
C|3|212856|0|block_size_command|{"value":300}
i|5|212856|0|fault_injected|{"kind":"unavailability","block":2,"cost_ms":200}
i|1|424334|0|retry|{"timeout_ms":200}
i|5|424334|0|fault_injected|{"kind":"unavailability","block":2,"cost_ms":200}
i|5|624334|0|breaker_transition|{"from":"closed","to":"open"}
i|1|646840|0|retry|{"timeout_ms":200}
X|1|646840|97247|block_request|{"requested":300,"received":300,"per_tuple_ms":0.32415541667402742,"retries":2}
i|3|744087|0|controller_decision|{"controller":"fixed_300","adaptivity_step":"0","next_size":"500","name":"fixed_300","adaptivity_steps":"0","block_size":"300"}
C|3|744087|0|block_size_command|{"value":500}
i|5|744087|0|fault_injected|{"kind":"unavailability","block":3,"cost_ms":200}
i|1|953091|0|retry|{"timeout_ms":200}
i|5|953091|0|fault_injected|{"kind":"unavailability","block":3,"cost_ms":200}
i|1|1174316|0|retry|{"timeout_ms":200}
X|1|1174316|143009|block_request|{"requested":500,"received":500,"per_tuple_ms":0.28601887655040692,"retries":2}
i|3|1317325|0|controller_decision|{"controller":"fixed_300","adaptivity_step":"0","next_size":"500","name":"fixed_300","adaptivity_steps":"0","block_size":"300"}
C|3|1317325|0|block_size_command|{"value":500}
X|1|1317325|160720|block_request|{"requested":500,"received":500,"per_tuple_ms":0.32143962404529058,"retries":0}
i|3|1478045|0|controller_decision|{"controller":"fixed_300","adaptivity_step":"0","next_size":"300","name":"fixed_300","adaptivity_steps":"0","block_size":"300"}
C|3|1478045|0|block_size_command|{"value":300}
i|5|1478045|0|breaker_transition|{"from":"open","to":"half_open"}
i|5|1478045|0|fault_injected|{"kind":"latency_spike","block":5,"cost_ms":0}
i|5|1478045|0|breaker_transition|{"from":"half_open","to":"closed"}
X|1|1478045|173664|block_request|{"requested":300,"received":300,"per_tuple_ms":0.57888122144024579,"retries":0}
i|3|1651709|0|controller_decision|{"controller":"fixed_300","adaptivity_step":"0","next_size":"300","name":"fixed_300","adaptivity_steps":"0","block_size":"300"}
C|3|1651709|0|block_size_command|{"value":300}
X|1|1651709|95609|block_request|{"requested":300,"received":300,"per_tuple_ms":0.31869628382015808,"retries":0}
i|3|1747318|0|controller_decision|{"controller":"fixed_300","adaptivity_step":"0","next_size":"300","name":"fixed_300","adaptivity_steps":"0","block_size":"300"}
C|3|1747318|0|block_size_command|{"value":300}
i|5|1747318|0|fault_injected|{"kind":"server_stall","block":7,"cost_ms":0}
X|1|1747318|123224|block_request|{"requested":300,"received":300,"per_tuple_ms":0.41074830458274547,"retries":0}
i|3|1870542|0|controller_decision|{"controller":"fixed_300","adaptivity_step":"0","next_size":"300","name":"fixed_300","adaptivity_steps":"0","block_size":"300"}
C|3|1870542|0|block_size_command|{"value":300}
X|1|1870542|111727|block_request|{"requested":300,"received":300,"per_tuple_ms":0.37242393187141398,"retries":0}
i|3|1982269|0|controller_decision|{"controller":"fixed_300","adaptivity_step":"0","next_size":"300","name":"fixed_300","adaptivity_steps":"0","block_size":"300"}
C|3|1982269|0|block_size_command|{"value":300}
X|1|1982269|240863|block_request|{"requested":900,"received":900,"per_tuple_ms":0.26762513465380461,"retries":0}
i|3|2223132|0|controller_decision|{"controller":"fixed_900","adaptivity_step":"0","next_size":"900","name":"fixed_900","adaptivity_steps":"0","block_size":"900"}
C|3|2223132|0|block_size_command|{"value":900}
X|1|2223132|233948|block_request|{"requested":900,"received":900,"per_tuple_ms":0.25994232646769311,"retries":0}
i|3|2457080|0|controller_decision|{"controller":"fixed_900","adaptivity_step":"0","next_size":"900","name":"fixed_900","adaptivity_steps":"0","block_size":"900"}
C|3|2457080|0|block_size_command|{"value":900}
X|1|2457080|269701|block_request|{"requested":900,"received":900,"per_tuple_ms":0.29966723847385374,"retries":0}
i|3|2726781|0|controller_decision|{"controller":"fixed_900","adaptivity_step":"0","next_size":"900","name":"fixed_900","adaptivity_steps":"0","block_size":"900"}
C|3|2726781|0|block_size_command|{"value":900}
X|1|2726781|275275|block_request|{"requested":900,"received":900,"per_tuple_ms":0.30586119339451567,"retries":0}
i|3|3002056|0|controller_decision|{"controller":"fixed_900","adaptivity_step":"0","next_size":"900","name":"fixed_900","adaptivity_steps":"0","block_size":"900"}
C|3|3002056|0|block_size_command|{"value":900}
)golden";

/// (e) ComputeGroundTruth over a small grid.
constexpr char kGroundTruth[] = R"golden(optimum=2000|0x1.d59286c1ff647p+12
  200|0x1.64f7c1bf312d1p+13|0x1.6d871434eca8bp+8
  650|0x1.0c4dc2757cd7ap+13|0x1.ceb7341397537p+6
  1100|0x1.e52ae386e47dp+12|0x1.4a0c4033a398fp+7
  1550|0x1.dc566f92febc2p+12|0x1.d7505d61e167ep+6
  2000|0x1.d59286c1ff647p+12|0x1.442bf0bcbdd7cp+7
)golden";

// ---------------------------------------------------------------------

std::shared_ptr<const ResponseProfile> RaggedProfile() {
  ParametricProfile::Params p;
  p.name = "ragged";
  p.dataset_tuples = 23457;
  p.overhead_ms = 40.0;
  p.per_tuple_ms = 0.3;
  p.slope_ms = 1e-5;
  return std::make_shared<ParametricProfile>(p);
}

SimOptions DriftingOptions() {
  SimOptions options;
  options.noise_amplitude = 0.1;
  options.drift_sigma = 0.02;
  options.seed = 41;
  return options;
}

FaultPlan ChaosPlan() {
  FaultSpec burst;
  burst.kind = FaultKind::kUnavailability;
  burst.first_block = 2;
  burst.last_block = 3;
  burst.faults_per_block = 2;
  FaultSpec spike;
  spike.kind = FaultKind::kLatencySpike;
  spike.first_block = 5;
  spike.last_block = 5;
  spike.latency_multiplier = 1.5;
  spike.latency_add_ms = 10.0;
  FaultSpec stall;
  stall.kind = FaultKind::kServerStall;
  stall.first_block = 7;
  stall.last_block = 7;
  stall.stall_ms = 30.0;
  FaultSpec reset;
  reset.kind = FaultKind::kConnectionReset;
  reset.first_block = 9;
  reset.last_block = 9;
  FaultPlan plan;
  plan.specs = {burst, spike, stall, reset};
  return plan;
}

ResilienceConfig ChaosResilience() {
  ResilienceConfig resilience;
  resilience.max_retries_per_call = 3;
  resilience.backoff_initial_ms = 10.0;
  resilience.backoff_jitter = 0.2;
  resilience.deadline_base_ms = 200.0;
  resilience.breaker_threshold = 2;
  resilience.breaker_fallback_size = 500;
  resilience.breaker_cooldown_blocks = 2;
  return resilience;
}

/// The Fig. 8 methodology on a short horizon: 3 profiles, 8 steps each,
/// 30 steps in total.
RunSpec Fig8Spec(const std::vector<const ResponseProfile*>& schedule) {
  RunSpec spec;
  spec.schedule = schedule;
  spec.steps_per_profile = 8;
  spec.total_steps = 30;
  return spec;
}

TEST(ProfileGoldenTest, BoundedHybridRun) {
  ProfileBackend backend(RaggedProfile(), DriftingOptions());
  std::unique_ptr<Controller> hybrid = NamedFactory("hybrid")();
  Result<RunTrace> trace = backend.RunQuery(hybrid.get(), RunSpec{});
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_EQ(Fingerprint(trace.value()), kBoundedHybrid);
}

TEST(ProfileGoldenTest, Fig8ScheduleRun) {
  const ConfiguredProfile c11 = Conf1_1();
  const ConfiguredProfile c12 = Conf1_2();
  const ConfiguredProfile c13 = Conf1_3();
  ProfileBackend backend = ProfileBackend::FromConfiguration(c11, 7);
  std::unique_ptr<Controller> hybrid = NamedFactory("hybrid")();
  Result<RunTrace> trace = backend.RunQuery(
      hybrid.get(), Fig8Spec({c11.profile.get(), c12.profile.get(),
                              c13.profile.get()}));
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_EQ(Fingerprint(trace.value()), kFig8Schedule);
}

TEST(ProfileGoldenTest, FaultPlanAndResilience) {
  const FaultPlan plan = ChaosPlan();
  const ResilienceConfig resilience = ChaosResilience();
  ProfileBackend backend(RaggedProfile(), DriftingOptions());
  RunSpec spec;
  spec.fault_plan = &plan;
  spec.resilience = &resilience;
  std::unique_ptr<Controller> hybrid = NamedFactory("hybrid")();
  Result<RunTrace> bounded = backend.RunQuery(hybrid.get(), spec);
  ASSERT_TRUE(bounded.ok()) << bounded.status().ToString();
  EXPECT_EQ(Fingerprint(bounded.value()), kBoundedFaults);

  const ConfiguredProfile c11 = Conf1_1();
  const ConfiguredProfile c12 = Conf1_2();
  RunSpec schedule = Fig8Spec({c11.profile.get(), c12.profile.get()});
  schedule.fault_plan = &plan;
  schedule.resilience = &resilience;
  schedule.seed = 9;
  std::unique_ptr<Controller> mimd = NamedFactory("mimd")();
  Result<RunTrace> scheduled = backend.RunQuery(mimd.get(), schedule);
  ASSERT_TRUE(scheduled.ok()) << scheduled.status().ToString();
  EXPECT_EQ(Fingerprint(scheduled.value()), kScheduleFaults);
}

TEST(ProfileGoldenTest, ObserverCursorAcrossTwoRuns) {
  ParametricProfile::Params p;
  p.dataset_tuples = 3100;
  p.overhead_ms = 30.0;
  p.per_tuple_ms = 0.25;
  ProfileBackend backend(std::make_shared<ParametricProfile>(p),
                         DriftingOptions());
  const FaultPlan plan = ChaosPlan();
  const ResilienceConfig resilience = ChaosResilience();
  Tracer tracer;
  RunObserver observer(nullptr, &tracer);

  RunSpec first;
  first.observer = &observer;
  first.fault_plan = &plan;
  first.resilience = &resilience;
  FixedController fixed(300);
  ASSERT_TRUE(backend.RunQuery(&fixed, first).ok());

  RunSpec second = Fig8Spec({backend.profile()});
  second.total_steps = 4;
  second.observer = &observer;
  second.seed = 5;
  FixedController wide(900);
  ASSERT_TRUE(backend.RunQuery(&wide, second).ok());
  EXPECT_EQ(Fingerprint(tracer), kObserverTwoRuns);
}

TEST(ProfileGoldenTest, GroundTruthSmallGrid) {
  BlockSizeLimits limits;
  limits.min_size = 200;
  limits.max_size = 2000;
  Result<GroundTruth> truth = ComputeGroundTruth(
      *RaggedProfile(), limits, /*grid_step=*/450, /*runs=*/3,
      DriftingOptions());
  ASSERT_TRUE(truth.ok()) << truth.status().ToString();
  EXPECT_EQ(Fingerprint(truth.value()), kGroundTruth);
}

}  // namespace
}  // namespace wsq
