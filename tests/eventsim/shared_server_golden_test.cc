// Golden pins of both shared-server simulations: the exact output of
// EventSimBackend (processor sharing) and RunFleetWorld (admission
// snapshot), rendered with hex floats ("%a") so a pin matches iff every
// float matches to the last bit. The expected strings were recorded
// from the simulators as they stood before the two were merged into one
// event core; they must never be edited to follow a code change — a
// mismatch means the event order, a jitter draw or a controller input
// moved.

#include <cinttypes>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "support/golden.h"
#include "wsq/backend/eventsim_backend.h"
#include "wsq/control/factories.h"
#include "wsq/fault/fault_plan.h"
#include "wsq/fleet/fleet_spec.h"
#include "wsq/fleet/fleet_world.h"
#include "wsq/obs/run_observer.h"
#include "wsq/obs/trace.h"

namespace wsq {
namespace {

std::string Fingerprint(const fleet::FleetTrace& fleet) {
  std::string out;
  Append(&out, "seed=%" PRIu64 "|makespan=%a\n", fleet.seed,
         fleet.makespan_ms);
  for (const fleet::TenantTrace& lane : fleet.tenants) {
    Append(&out, "%s|%a|%a\n", lane.tenant.c_str(), lane.start_time_ms,
           lane.completion_time_ms);
    out += Fingerprint(lane.trace);
  }
  return out;
}

// ---------------------------------------------------------------------
// Expected fingerprints.

/// (a) EventSimBackend, Fig. 2 setup: the tracked hybrid client's trace.
constexpr char kEventSimFig2[] = R"golden(eventsim|hybrid|0x1.01ce2cc56e7fap+14|10|40000|0|0x0p+0|0
  0|1000|1000|0x1.42b5df3c4bc68p-3|0x1.3b259c00e1ffep+7|0|1
  1|3000|3000|0x1.1d571a0bf3226p-3|0x1.a1fa972781275p+8|0|2
  2|5018|5018|0x1.2d08b0d4dd947p-3|0x1.70cbc5a2c7f5p+9|0|3
  3|7004|7004|0x1.b177427b979d2p+0|0x1.729ad6f76b407p+13|0|4
  4|4956|4956|0x1.24bb94bddf09bp-3|0x1.6231f738bc9ep+9|0|5
  5|2938|2938|0x1.338a12269a683p-3|0x1.b92fd289e102p+8|0|6
  6|4938|4938|0x1.130c196b528e7p-3|0x1.4b9676250267p+9|0|7
  7|4154|4154|0x1.1e097db9a1da5p-3|0x1.2216602162c5p+9|0|8
  8|4139|4139|0x1.ffc32504ff342p-4|0x1.029140bc3e51p+9|0|9
  9|2853|2853|0x1.2b53ae86792e3p-3|0x1.a0fb7300149p+8|0|10
)golden";

/// (b) (a) under a fault plan and a resilience policy: retries, fault
/// log and breaker trips.
constexpr char kEventSimFaults[] = R"golden(eventsim|hybrid|0x1.4e682149e20cep+13|17|40000|5|0x1.bd3bbc1d25b12p+9|1
 fault 2|unavailability
 fault 2|unavailability
 fault 3|unavailability
 fault 3|unavailability
 fault 5|latency_spike
 fault 7|server_stall
 fault 9|connection_reset
  0|1000|1000|0x1.42b5df3c4bc68p-3|0x1.3b259c00e1ffep+7|0|1
  1|3000|3000|0x1.1d571a0bf3226p-3|0x1.a1fa972781275p+8|0|2
  2|5018|5018|0x1.7c9d7bd0f1005p-1|0x1.d24a6ecfd94p+11|2|3
  3|500|500|0x1.2c99ddb057f1bp-2|0x1.258e427e35e2p+7|2|4
  4|500|500|0x1.19261582c9f5cp-2|0x1.128f3101b93ap+7|0|5
  5|2938|2938|0x1.1dd0f63320133p-2|0x1.9a060530d7c38p+9|0|6
  6|938|938|0x1.79935b23c8f03p-3|0x1.59dd7afc479p+7|0|7
  7|2820|2820|0x1.84a0262602772p-3|0x1.0b8f4243ab328p+9|0|8
  8|2807|2807|0x1.79ba27978099fp-3|0x1.02db8281e3318p+9|0|9
  9|2791|2791|0x1.3682724cb76d4p-3|0x1.a72905844c79p+8|1|10
  10|2767|2767|0x1.2ea07e50e12bcp-3|0x1.98df16a98639p+8|0|11
  11|2669|2669|0x1.244b113d0bbffp-3|0x1.7cec54572e7p+8|0|12
  12|2559|2559|0x1.5850a4aa219b6p-3|0x1.ae39c3c014bep+8|0|13
  13|2610|2610|0x1.32bf672a8033dp-3|0x1.86ec6d39e9e2p+8|0|14
  14|2635|2635|0x1.6040c39423a19p-3|0x1.c53753a2b958p+8|0|15
  15|2640|2640|0x1.28d0d1ca88e41p-3|0x1.7e9d2e6f1476p+8|0|16
  16|1808|1808|0x1.5955b169eedbcp-3|0x1.30dda69f84dep+8|0|17
)golden";

/// (b)'s observer call sequence, as the tracer recorded it (µs).
constexpr char kEventSimObserverCalls[] = R"golden(M|1|0|0|thread_name|{"name":"pull loop"}
M|2|0|0|thread_name|{"name":"network / server"}
M|3|0|0|thread_name|{"name":"controller"}
M|4|0|0|thread_name|{"name":"server load"}
M|5|0|0|thread_name|{"name":"faults"}
M|6|0|0|thread_name|{"name":"wsqd server"}
X|2|0|17147|network_transfer|
C|4|17147|0|server_queue_len|{"value":1}
C|4|17147|0|server_load_level|{"value":1}
X|2|17147|13000|server_residence|
X|2|30147|127426|network_transfer|
C|4|30147|0|server_queue_len|{"value":0}
X|1|0|157573|block_request|{"requested":1000,"received":1000,"per_tuple_ms":0.15757345583685667,"retries":0}
i|3|157573|0|controller_decision|{"controller":"hybrid","adaptivity_step":"1","next_size":"3000","name":"hybrid","adaptivity_steps":"1","phase":"transient","phase_transitions":"0","criterion":"sign_switches","criterion_horizon":"5","criterion_threshold":"1","gain_mode":"constant_gain","gain":"2000","b1":"2000","b2":"25","dither_factor":"25","sign_switches":"0"}
C|3|157573|0|block_size_command|{"value":3000}
X|2|157573|19051|network_transfer|
C|4|176625|0|server_queue_len|{"value":2}
C|4|176625|0|server_load_level|{"value":2}
X|2|176625|37442|server_residence|
X|2|214067|361486|network_transfer|
C|4|214067|0|server_queue_len|{"value":0}
X|1|157573|417979|block_request|{"requested":3000,"received":3000,"per_tuple_ms":0.13932628964393351,"retries":0}
i|3|575552|0|controller_decision|{"controller":"hybrid","adaptivity_step":"2","next_size":"5018","name":"hybrid","adaptivity_steps":"2","phase":"transient","phase_transitions":"0","criterion":"sign_switches","criterion_horizon":"5","criterion_threshold":"1","gain_mode":"constant_gain","gain":"2000","b1":"2000","b2":"25","dither_factor":"25","sign_switches":"0","last_sign":"-1"}
C|3|575552|0|block_size_command|{"value":5018}
i|5|575552|0|fault_injected|{"kind":"unavailability","block":2,"cost_ms":200}
i|1|784755|0|retry|{"timeout_ms":200}
i|5|784755|0|fault_injected|{"kind":"unavailability","block":2,"cost_ms":200}
i|5|984755|0|breaker_transition|{"from":"closed","to":"open"}
i|1|1004903|0|retry|{"timeout_ms":200}
X|2|1004903|20730|network_transfer|
C|4|1025633|0|server_queue_len|{"value":5}
C|4|1025633|0|server_load_level|{"value":7}
X|2|1025633|3250461|server_residence|
X|2|4276095|459135|network_transfer|
C|4|4276095|0|server_queue_len|{"value":7}
X|1|1004903|3730326|block_request|{"requested":5018,"received":5018,"per_tuple_ms":0.74338900495104154,"retries":2}
i|3|4735229|0|controller_decision|{"controller":"hybrid","adaptivity_step":"3","next_size":"500","name":"hybrid","adaptivity_steps":"3","phase":"transient","phase_transitions":"0","criterion":"sign_switches","criterion_horizon":"5","criterion_threshold":"1","gain_mode":"constant_gain","gain":"2000","b1":"2000","b2":"25","dither_factor":"25","sign_switches":"1","last_sign":"1"}
C|3|4735229|0|block_size_command|{"value":500}
i|5|4735229|0|fault_injected|{"kind":"unavailability","block":3,"cost_ms":200}
i|1|4947096|0|retry|{"timeout_ms":200}
i|5|4947096|0|fault_injected|{"kind":"unavailability","block":3,"cost_ms":200}
i|1|5165424|0|retry|{"timeout_ms":200}
X|2|5165424|19678|network_transfer|
C|4|5185102|0|server_queue_len|{"value":5}
C|4|5185102|0|server_load_level|{"value":9}
X|2|5185102|40000|server_residence|
X|2|5225102|87100|network_transfer|
C|4|5225102|0|server_queue_len|{"value":4}
X|1|5165424|146778|block_request|{"requested":500,"received":500,"per_tuple_ms":0.29355570210280896,"retries":2}
i|3|5312202|0|controller_decision|{"controller":"hybrid","adaptivity_step":"4","next_size":"500","name":"hybrid","adaptivity_steps":"4","phase":"transient","phase_transitions":"0","criterion":"sign_switches","criterion_horizon":"5","criterion_threshold":"1","gain_mode":"constant_gain","gain":"2000","b1":"2000","b2":"25","dither_factor":"25","sign_switches":"1","last_sign":"1"}
C|3|5312202|0|block_size_command|{"value":500}
X|2|5312202|21319|network_transfer|
C|4|5333521|0|server_queue_len|{"value":6}
C|4|5333521|0|server_load_level|{"value":8}
X|2|5333521|48000|server_residence|
X|2|5381521|67961|network_transfer|
C|4|5381521|0|server_queue_len|{"value":5}
X|1|5312202|137280|block_request|{"requested":500,"received":500,"per_tuple_ms":0.27455934153339512,"retries":0}
i|3|5449482|0|controller_decision|{"controller":"hybrid","adaptivity_step":"5","next_size":"2938","name":"hybrid","adaptivity_steps":"5","phase":"transient","phase_transitions":"0","criterion":"sign_switches","criterion_horizon":"5","criterion_threshold":"1","gain_mode":"constant_gain","gain":"2000","b1":"2000","b2":"25","dither_factor":"25","sign_switches":"2","last_sign":"-1"}
C|3|5449482|0|block_size_command|{"value":2938}
i|5|5449482|0|breaker_transition|{"from":"open","to":"half_open"}
i|5|5449482|0|fault_injected|{"kind":"latency_spike","block":5,"cost_ms":0}
i|5|5449482|0|breaker_transition|{"from":"half_open","to":"closed"}
X|2|5449482|17301|network_transfer|
C|4|5466783|0|server_queue_len|{"value":5}
C|4|5466783|0|server_load_level|{"value":8}
X|2|5466783|205330|server_residence|
X|2|5672113|317400|network_transfer|
C|4|5672113|0|server_queue_len|{"value":5}
X|1|5449482|820047|block_request|{"requested":2938,"received":2938,"per_tuple_ms":0.27911743819278739,"retries":0}
i|3|6269529|0|controller_decision|{"controller":"hybrid","adaptivity_step":"6","next_size":"938","name":"hybrid","adaptivity_steps":"6","phase":"steady_state","phase_transitions":"1","criterion":"sign_switches","criterion_horizon":"5","criterion_threshold":"1","gain_mode":"adaptive_gain","gain":"2000","b1":"2000","b2":"25","dither_factor":"25","sign_switches":"3","last_sign":"1"}
C|3|6269529|0|block_size_command|{"value":938}
X|2|6269529|17784|network_transfer|
C|4|6287313|0|server_queue_len|{"value":4}
C|4|6287313|0|server_load_level|{"value":5}
X|2|6287313|49520|server_residence|
X|2|6336833|105628|network_transfer|
C|4|6336833|0|server_queue_len|{"value":3}
X|1|6269529|172933|block_request|{"requested":938,"received":938,"per_tuple_ms":0.18436309054333586,"retries":0}
i|3|6442461|0|controller_decision|{"controller":"hybrid","adaptivity_step":"7","next_size":"2820","name":"hybrid","adaptivity_steps":"7","phase":"steady_state","phase_transitions":"1","criterion":"sign_switches","criterion_horizon":"5","criterion_threshold":"1","gain_mode":"adaptive_gain","gain":"0","b1":"2000","b2":"25","dither_factor":"25","sign_switches":"3","last_sign":"1"}
C|3|6442461|0|block_size_command|{"value":2820}
i|5|6442461|0|fault_injected|{"kind":"server_stall","block":7,"cost_ms":0}
X|2|6442461|18430|network_transfer|
C|4|6460891|0|server_queue_len|{"value":4}
C|4|6460891|0|server_load_level|{"value":5}
X|2|6460891|124800|server_residence|
X|2|6585691|361890|network_transfer|
C|4|6585691|0|server_queue_len|{"value":3}
X|1|6442461|535119|block_request|{"requested":2820,"received":2820,"per_tuple_ms":0.18975858500953852,"retries":0}
i|3|6977580|0|controller_decision|{"controller":"hybrid","adaptivity_step":"8","next_size":"2807","name":"hybrid","adaptivity_steps":"8","phase":"steady_state","phase_transitions":"1","criterion":"sign_switches","criterion_horizon":"5","criterion_threshold":"1","gain_mode":"adaptive_gain","gain":"4.7556582403452241","b1":"2000","b2":"25","dither_factor":"25","sign_switches":"3","last_sign":"1"}
C|3|6977580|0|block_size_command|{"value":2807}
X|2|6977580|21871|network_transfer|
C|4|6999452|0|server_queue_len|{"value":4}
C|4|6999452|0|server_load_level|{"value":5}
X|2|6999452|144780|server_residence|
X|2|7144232|351064|network_transfer|
C|4|7144232|0|server_queue_len|{"value":3}
X|1|6977580|517715|block_request|{"requested":2807,"received":2807,"per_tuple_ms":0.18443709307764508,"retries":0}
i|3|7495295|0|controller_decision|{"controller":"hybrid","adaptivity_step":"9","next_size":"2791","name":"hybrid","adaptivity_steps":"9","phase":"steady_state","phase_transitions":"1","criterion":"sign_switches","criterion_horizon":"5","criterion_threshold":"1","gain_mode":"adaptive_gain","gain":"0","b1":"2000","b2":"25","dither_factor":"25","sign_switches":"4","last_sign":"-1"}
C|3|7495295|0|block_size_command|{"value":2791}
i|5|7495295|0|fault_injected|{"kind":"connection_reset","block":9,"cost_ms":20}
i|1|7526216|0|retry|{"timeout_ms":20}
X|2|7526216|19766|network_transfer|
C|4|7545982|0|server_queue_len|{"value":3}
C|4|7545982|0|server_load_level|{"value":4}
X|2|7545982|92730|server_residence|
X|2|7638712|310664|network_transfer|
C|4|7638712|0|server_queue_len|{"value":2}
X|1|7526216|423160|block_request|{"requested":2791,"received":2791,"per_tuple_ms":0.151615994421198,"retries":1}
i|3|7949377|0|controller_decision|{"controller":"hybrid","adaptivity_step":"10","next_size":"2767","name":"hybrid","adaptivity_steps":"10","phase":"steady_state","phase_transitions":"1","criterion":"sign_switches","criterion_horizon":"5","criterion_threshold":"1","gain_mode":"adaptive_gain","gain":"1.4656960897072469","b1":"2000","b2":"25","dither_factor":"25","sign_switches":"5","last_sign":"1"}
C|3|7949377|0|block_size_command|{"value":2767}
X|2|7949377|22425|network_transfer|
C|4|7971801|0|server_queue_len|{"value":3}
C|4|7971801|0|server_load_level|{"value":4}
X|2|7971801|104956|server_residence|
X|2|8076758|281490|network_transfer|
C|4|8076758|0|server_queue_len|{"value":3}
X|1|7949377|408871|block_request|{"requested":2767,"received":2767,"per_tuple_ms":0.14776705440831062,"retries":0}
i|3|8358248|0|controller_decision|{"controller":"hybrid","adaptivity_step":"11","next_size":"2669","name":"hybrid","adaptivity_steps":"11","phase":"steady_state","phase_transitions":"1","criterion":"sign_switches","criterion_horizon":"5","criterion_threshold":"1","gain_mode":"adaptive_gain","gain":"35.271676759096415","b1":"2000","b2":"25","dither_factor":"25","sign_switches":"5","last_sign":"1"}
C|3|8358248|0|block_size_command|{"value":2669}
X|2|8358248|21480|network_transfer|
C|4|8379728|0|server_queue_len|{"value":3}
C|4|8379728|0|server_load_level|{"value":4}
X|2|8379728|89070|server_residence|
X|2|8468798|270373|network_transfer|
C|4|8468798|0|server_queue_len|{"value":2}
X|1|8358248|380923|block_request|{"requested":2669,"received":2669,"per_tuple_ms":0.14272130458400054,"retries":0}
i|3|8739171|0|controller_decision|{"controller":"hybrid","adaptivity_step":"12","next_size":"2559","name":"hybrid","adaptivity_steps":"12","phase":"steady_state","phase_transitions":"1","criterion":"sign_switches","criterion_horizon":"5","criterion_threshold":"1","gain_mode":"adaptive_gain","gain":"99.154939227183931","b1":"2000","b2":"25","dither_factor":"25","sign_switches":"5","last_sign":"1"}
C|3|8739171|0|block_size_command|{"value":2559}
X|2|8739171|20917|network_transfer|
C|4|8760088|0|server_queue_len|{"value":3}
C|4|8760088|0|server_load_level|{"value":4}
X|2|8760088|85770|server_residence|
X|2|8845858|323539|network_transfer|
C|4|8845858|0|server_queue_len|{"value":2}
X|1|8739171|430226|block_request|{"requested":2559,"received":2559,"per_tuple_ms":0.16812256473731474,"retries":0}
i|3|9169397|0|controller_decision|{"controller":"hybrid","adaptivity_step":"13","next_size":"2610","name":"hybrid","adaptivity_steps":"13","phase":"steady_state","phase_transitions":"1","criterion":"sign_switches","criterion_horizon":"5","criterion_threshold":"1","gain_mode":"adaptive_gain","gain":"72.183642537693814","b1":"2000","b2":"25","dither_factor":"25","sign_switches":"6","last_sign":"-1"}
C|3|9169397|0|block_size_command|{"value":2610}
X|2|9169397|20703|network_transfer|
C|4|9190100|0|server_queue_len|{"value":3}
C|4|9190100|0|server_load_level|{"value":3}
X|2|9190100|87300|server_residence|
X|2|9277400|282920|network_transfer|
C|4|9277400|0|server_queue_len|{"value":2}
X|1|9169397|390924|block_request|{"requested":2610,"received":2610,"per_tuple_ms":0.14977913473560447,"retries":0}
i|3|9560320|0|controller_decision|{"controller":"hybrid","adaptivity_step":"14","next_size":"2635","name":"hybrid","adaptivity_steps":"14","phase":"steady_state","phase_transitions":"1","criterion":"sign_switches","criterion_horizon":"5","criterion_threshold":"1","gain_mode":"adaptive_gain","gain":"5.7400982517694672","b1":"2000","b2":"25","dither_factor":"25","sign_switches":"6","last_sign":"-1"}
C|3|9560320|0|block_size_command|{"value":2635}
X|2|9560320|25321|network_transfer|
C|4|9585641|0|server_queue_len|{"value":3}
C|4|9585641|0|server_load_level|{"value":3}
X|2|9585641|88050|server_residence|
X|2|9673691|339845|network_transfer|
C|4|9673691|0|server_queue_len|{"value":2}
X|1|9560320|453216|block_request|{"requested":2635,"received":2635,"per_tuple_ms":0.1719985274871341,"retries":0}
i|3|10013536|0|controller_decision|{"controller":"hybrid","adaptivity_step":"15","next_size":"2640","name":"hybrid","adaptivity_steps":"15","phase":"steady_state","phase_transitions":"1","criterion":"sign_switches","criterion_horizon":"5","criterion_threshold":"1","gain_mode":"adaptive_gain","gain":"18.008681900008963","b1":"2000","b2":"25","dither_factor":"25","sign_switches":"6","last_sign":"-1"}
C|3|10013536|0|block_size_command|{"value":2640}
X|2|10013536|20785|network_transfer|
C|4|10034322|0|server_queue_len|{"value":3}
C|4|10034322|0|server_load_level|{"value":3}
X|2|10034322|88200|server_residence|
X|2|10122522|273629|network_transfer|
C|4|10122522|0|server_queue_len|{"value":2}
X|1|10013536|382614|block_request|{"requested":2640,"received":2640,"per_tuple_ms":0.1449295415815062,"retries":0}
i|3|10396150|0|controller_decision|{"controller":"hybrid","adaptivity_step":"16","next_size":"2663","name":"hybrid","adaptivity_steps":"16","phase":"steady_state","phase_transitions":"1","criterion":"sign_switches","criterion_horizon":"5","criterion_threshold":"1","gain_mode":"adaptive_gain","gain":"31.95607956198667","b1":"2000","b2":"25","dither_factor":"25","sign_switches":"6","last_sign":"-1"}
C|3|10396150|0|block_size_command|{"value":2663}
X|2|10396150|19996|network_transfer|
C|4|10416146|0|server_queue_len|{"value":3}
C|4|10416146|0|server_load_level|{"value":3}
X|2|10416146|63240|server_residence|
X|2|10479386|221630|network_transfer|
C|4|10479386|0|server_queue_len|{"value":2}
X|1|10396150|304866|block_request|{"requested":1808,"received":1808,"per_tuple_ms":0.16862047771961197,"retries":0}
i|3|10701016|0|controller_decision|{"controller":"hybrid","adaptivity_step":"17","next_size":"2622","name":"hybrid","adaptivity_steps":"17","phase":"steady_state","phase_transitions":"1","criterion":"sign_switches","criterion_horizon":"5","criterion_threshold":"1","gain_mode":"adaptive_gain","gain":"17.830436478028499","b1":"2000","b2":"25","dither_factor":"25","sign_switches":"7","last_sign":"1"}
C|3|10701016|0|block_size_command|{"value":2622}
)golden";

/// (c) An 8-tenant simultaneous herd with no jitter and no service
/// noise: equal event times everywhere, so this pins the tie order.
constexpr char kFleetSimultaneous[] = R"golden(seed=5|makespan=0x1.86eeeeeeeeeefp+9
hybrid-0|0x0p+0|0x1.23b7777777777p+9
fleet|hybrid|0x1.23b7777777777p+9|2|4000|0|0x0p+0|0
  0|1000|1000|0x1.4816f0068db8bp-3|0x1.4066666666666p+7|0|1
  1|3000|3000|0x1.20ed62cdfbb8dp-3|0x1.a73bbbbbbbbbbp+8|0|2
hybrid-1|0x0p+0|0x1.26a4444444444p+9
fleet|hybrid|0x1.26a4444444444p+9|2|4000|0|0x0p+0|0
  0|1000|1000|0x1.541205bc01a37p-3|0x1.4c1999999999ap+7|0|1
  1|3000|3000|0x1.20ed62cdfbb8dp-3|0x1.a73bbbbbbbbbbp+8|0|2
hybrid-2|0x0p+0|0x1.2991111111111p+9
fleet|hybrid|0x1.2991111111111p+9|2|4000|0|0x0p+0|0
  0|1000|1000|0x1.600d1b71758e2p-3|0x1.57ccccccccccdp+7|0|1
  1|3000|3000|0x1.20ed62cdfbb8dp-3|0x1.a73bbbbbbbbbcp+8|0|2
mimd-0|0x0p+0|0x1.53a3333333334p+9
fleet|mimd|0x1.53a3333333334p+9|4|4000|0|0x0p+0|0
  0|1000|1000|0x1.6c083126e978dp-3|0x1.638p+7|0|1
  1|1250|1250|0x1.588ab7c61c204p-3|0x1.a495555555556p+7|0|2
  2|1563|1563|0x1.27f99f8a3f65ap-3|0x1.c3c4444444446p+7|0|3
  3|187|187|0x1.65da374e9466p-2|0x1.0566666666668p+6|0|4
mimd-1|0x0p+0|0x1.5e3de353f7ceep+9
fleet|mimd|0x1.5e3de353f7ceep+9|4|4000|0|0x0p+0|0
  0|1000|1000|0x1.780346dc5d639p-3|0x1.6f33333333334p+7|0|1
  1|1250|1250|0x1.63f83eb2340bep-3|0x1.b288888888888p+7|0|2
  2|1563|1563|0x1.32f5c2561cb1ep-3|0x1.d4889e60f04c8p+7|0|3
  3|187|187|0x1.65da374e9466p-2|0x1.0566666666668p+6|0|4
mimd-2|0x0p+0|0x1.68d89374bc6a9p+9
fleet|mimd|0x1.68d89374bc6a9p+9|4|4000|0|0x0p+0|0
  0|1000|1000|0x1.83fe5c91d14e3p-3|0x1.7ae6666666666p+7|0|1
  1|1250|1250|0x1.6f65c59e4bf7bp-3|0x1.c07bbbbbbbbbep+7|0|2
  2|1563|1563|0x1.3df1e521f9fe3p-3|0x1.e54cf87d9c54cp+7|0|3
  3|187|187|0x1.65da374e9466p-2|0x1.0566666666668p+6|0|4
fixed:700-0|0x0p+0|0x1.7deeeeeeeeeefp+9
fleet|fixed_700|0x1.7deeeeeeeeeefp+9|6|4000|0|0x0p+0|0
  0|700|700|0x1.bd4b30dc0382cp-3|0x1.3066666666666p+7|0|0
  1|700|700|0x1.6e4ca759d1c61p-3|0x1.f4cccccccccccp+6|0|0
  2|700|700|0x1.6e4ca759d1c63p-3|0x1.f4cccccccccdp+6|0|0
  3|700|700|0x1.88a17fda8d052p-3|0x1.0c66666666668p+7|0|0
  4|700|700|0x1.6e4ca759d1c5ep-3|0x1.f4cccccccccc8p+6|0|0
  5|500|500|0x1.a13ef11e2c829p-3|0x1.9777777777778p+6|0|0
fixed:700-1|0x0p+0|0x1.86eeeeeeeeeefp+9
fleet|fixed_700|0x1.86eeeeeeeeeefp+9|6|4000|0|0x0p+0|0
  0|700|700|0x1.ca759d1c61223p-3|0x1.3966666666666p+7|0|0
  1|700|700|0x1.7b77139a2f658p-3|0x1.0366666666666p+7|0|0
  2|700|700|0x1.7b77139a2f65bp-3|0x1.0366666666668p+7|0|0
  3|700|700|0x1.95cbec1aeaa49p-3|0x1.1566666666668p+7|0|0
  4|700|700|0x1.6e4ca759d1c5ep-3|0x1.f4cccccccccc8p+6|0|0
  5|500|500|0x1.a13ef11e2c829p-3|0x1.9777777777778p+6|0|0
)golden";

/// (d) A 32-tenant jittered fleet at sigma 0.1 with a resilience config.
constexpr char kFleetJittered[] = R"golden(seed=23|makespan=0x1.983017b96a90bp+10
hybrid-0|0x1.325564616d2efp+4|0x1.91d1f67f9f4e9p+8
fleet|hybrid|0x1.7eaca039887bap+8|2|2500|0|0x0p+0|0
  0|1000|1000|0x1.50e1f13f9ad72p-3|0x1.48fca5981d361p+7|0|1
  1|1500|1500|0x1.29e3bdaebae21p-3|0x1.b45c9adaf3c13p+7|0|2
hybrid-1|0x1.028206dbbffd8p+6|0x1.ba951e1c6c79cp+8
fleet|hybrid|0x1.79f49c657c7a6p+8|2|2500|0|0x0p+0|0
  0|1000|1000|0x1.2d9071691bbc9p-3|0x1.267f0ec0a5162p+7|0|1
  1|1500|1500|0x1.3afe10695ab4ap-3|0x1.cd6a2a0a53deap+7|0|2
hybrid-2|0x1.5750accecaa5p+6|0x1.f2c34adddac1fp+8
fleet|hybrid|0x1.9cef1faa2818bp+8|2|2500|0|0x0p+0|0
  0|1000|1000|0x1.6c2c435e75e21p-3|0x1.63a339ca3f1ecp+7|0|1
  1|1500|1500|0x1.4102bed5099b6p-3|0x1.d63b058a1112ap+7|0|2
hybrid-3|0x1.0cc891fb6a878p+7|0x1.10a7e90f6e219p+9
fleet|hybrid|0x1.9aeb892126ff6p+8|2|2500|0|0x0p+0|0
  0|1000|1000|0x1.5eea8ef821c42p-3|0x1.56b10f9e50f98p+7|0|1
  1|1500|1500|0x1.4719440574114p-3|0x1.df2602a3fd054p+7|0|2
hybrid-4|0x1.6656be527cfd3p+7|0x1.27d0e6ac6711fp+9
fleet|hybrid|0x1.9c766e2f8fa54p+8|2|2500|0|0x0p+0|0
  0|1000|1000|0x1.5b54d5751e4a5p-3|0x1.5330d8745f949p+7|0|1
  1|1500|1500|0x1.4b983ebfa86bep-3|0x1.e5bc03eabfb6p+7|0|2
hybrid-5|0x1.9290eed993cc9p+7|0x1.344589be3b572p+9
fleet|hybrid|0x1.9f429c0facc8p+8|2|2500|0|0x0p+0|0
  0|1000|1000|0x1.6656ab5a9613ep-3|0x1.5df0a356768f7p+7|0|1
  1|1500|1500|0x1.481382ecced97p-3|0x1.e09494c8e3008p+7|0|2
hybrid-6|0x1.f237e16ea8f33p+7|0x1.43c6481c2fd0ap+9
fleet|hybrid|0x1.8e709f810b27ap+8|2|2500|0|0x0p+0|0
  0|1000|1000|0x1.2de34443964d2p-3|0x1.26cff0aa00c75p+7|0|1
  1|1500|1500|0x1.56beac4452f72p-3|0x1.f6114e581588p+7|0|2
hybrid-7|0x1.2b891dfc8b4afp+8|0x1.4d59ee7e3d83ap+9
fleet|hybrid|0x1.6f2abeffefbc5p+8|2|2500|0|0x0p+0|0
  0|1000|1000|0x1.2e765ed28d414p-3|0x1.275f98999df1cp+7|0|1
  1|1500|1500|0x1.2ba9e9bea3846p-3|0x1.b6f5e5664186ep+7|0|2
hybrid-8|0x1.556b218b241f1p+8|0x1.64238bc1193ddp+9
fleet|hybrid|0x1.72dbf5f70e5c9p+8|2|2500|0|0x0p+0|0
  0|1000|1000|0x1.5bbd752e44696p-3|0x1.5397046f2eceep+7|0|1
  1|1500|1500|0x1.12850dfde75dbp-3|0x1.9220e77eedea4p+7|0|2
hybrid-9|0x1.6c6502a8e34a6p+8|0x1.7769f7cb753f5p+9
fleet|hybrid|0x1.826eecee07344p+8|2|2500|0|0x0p+0|0
  0|1000|1000|0x1.7fd052c202e19p-3|0x1.76d170d176d04p+7|0|1
  1|1500|1500|0x1.0fbc03710b542p-3|0x1.8e0c690a97984p+7|0|2
hybrid-10|0x1.9c10500f23297p+8|0x1.8d782e19001cfp+9
fleet|hybrid|0x1.7ee00c22dd107p+8|2|2500|0|0x0p+0|0
  0|1000|1000|0x1.2b37fa0a317d1p-3|0x1.2434aa2df4542p+7|0|1
  1|1500|1500|0x1.4345ecf2dfc73p-3|0x1.d98b6e17c5cccp+7|0|2
hybrid-11|0x1.d09e1cc6055cp+8|0x1.a88cc4ff0535bp+9
fleet|hybrid|0x1.807b6d38050f6p+8|2|2500|0|0x0p+0|0
  0|1000|1000|0x1.5c9ce8c48fb96p-3|0x1.54713b4ff45bp+7|0|1
  1|1500|1500|0x1.2489a3ecf180ep-3|0x1.ac859f2015c3cp+7|0|2
mimd-0|0x1.eee00ce4c44c3p+8|0x1.e1b736fda3a63p+9
fleet|mimd|0x1.d48e611683003p+8|3|2500|0|0x0p+0|0
  0|1000|1000|0x1.59f6d62830664p-3|0x1.51db0d233f43ep+7|0|1
  1|1250|1250|0x1.70de9348730c1p-3|0x1.c247b2c9f0704p+7|0|2
  2|250|250|0x1.311aa459c7442p-2|0x1.29f4047fac988p+6|0|3
mimd-1|0x1.0bf57ca4f85a9p+9|0x1.d98a9c5bc4cf5p+9
fleet|mimd|0x1.9b2a3f6d98e98p+8|3|2500|0|0x0p+0|0
  0|1000|1000|0x1.51445ceb78decp-3|0x1.495cc2bdf4098p+7|0|1
  1|1250|1250|0x1.223b2bc8eea13p-3|0x1.62493af2c74bcp+7|0|2
  2|250|250|0x1.1c05211b926ap-2|0x1.155d0254ecfb8p+6|0|3
mimd-2|0x1.1c7321f91536bp+9|0x1.e997ace42ab1ep+9
fleet|mimd|0x1.9a4915d62af66p+8|3|2500|0|0x0p+0|0
  0|1000|1000|0x1.3eba2581f0da6p-3|0x1.3741c8a0e5354p+7|0|1
  1|1250|1250|0x1.21b6169a767d2p-3|0x1.61a6c6978da3cp+7|0|2
  2|250|250|0x1.3ecc00ed562c9p-2|0x1.375338e7c6278p+6|0|3
mimd-3|0x1.33722845e5bdbp+9|0x1.fe9cb9f163d97p+9
fleet|mimd|0x1.96552356fc378p+8|3|2500|0|0x0p+0|0
  0|1000|1000|0x1.4137030a2f60cp-3|0x1.39afb8f7f2448p+7|0|1
  1|1250|1250|0x1.188f4b2b01694p-3|0x1.567aeb41ff39p+7|0|2
  2|250|250|0x1.408252d924bf8p-2|0x1.38ff44e80de3p+6|0|3
mimd-4|0x1.42cba680a974cp+9|0x1.07fdc115f7c92p+10
fleet|mimd|0x1.9a5fb7568c3bp+8|3|2500|0|0x0p+0|0
  0|1000|1000|0x1.3e30c10efea4ap-3|0x1.36bb9c88a4accp+7|0|1
  1|1250|1250|0x1.2c67b1d5a3a0cp-3|0x1.6eb494954a3dcp+7|0|2
  2|250|250|0x1.257f77ede67dfp-2|0x1.1e9e7b1e5317p+6|0|3
mimd-5|0x1.5484af927009dp+9|0x1.0dceafb0f21efp+10
fleet|mimd|0x1.8e315f9ee8682p+8|3|2500|0|0x0p+0|0
  0|1000|1000|0x1.30360d4b05768p-3|0x1.2914c8fb4355cp+7|0|1
  1|1250|1250|0x1.1b59595039b7fp-3|0x1.59e291866e75p+7|0|2
  2|250|250|0x1.3a34018145ad1p-2|0x1.32d6c9783e0bp+6|0|3
mimd-6|0x1.71e8b6538d93bp+9|0x1.2960750b912e9p+10
fleet|mimd|0x1.c1b067872992ep+8|3|2500|0|0x0p+0|0
  0|1000|1000|0x1.5d4b65505145ep-3|0x1.551ba0f06f5e4p+7|0|1
  1|1250|1250|0x1.4271bdf00d6b5p-3|0x1.899bd85b88618p+7|0|2
  2|250|250|0x1.513a07b2e83d7p-2|0x1.4952ab84b6ccp+6|0|3
mimd-7|0x1.8341f0c5e36ddp+9|0x1.389371d336089p+10
fleet|mimd|0x1.dbc9e5c11146ap+8|3|2500|0|0x0p+0|0
  0|1000|1000|0x1.5f53969d8f4b8p-3|0x1.5717a115ddefcp+7|0|1
  1|1250|1250|0x1.810175a90235bp-3|0x1.d5fa4820cf328p+7|0|2
  2|250|250|0x1.1ba9bf1152c6ap-2|0x1.1503c496ead6p+6|0|3
mimd-8|0x1.91449adaf31bcp+9|0x1.3f5fcb513b87p+10
fleet|mimd|0x1.daf5f78f07e48p+8|3|2500|0|0x0p+0|0
  0|1000|1000|0x1.86cf6979b77f4p-3|0x1.7da68d00dd324p+7|0|1
  1|1250|1250|0x1.504bb5ecfe415p-3|0x1.9a846b93cc5ecp+7|0|2
  2|250|250|0x1.4314677fcb333p-2|0x1.3b81ed12cc7p+6|0|3
mimd-9|0x1.ad91f0dc9ca02p+9|0x1.4649adac1ec1ap+10
fleet|mimd|0x1.be02d4f741c64p+8|3|2500|0|0x0p+0|0
  0|1000|1000|0x1.5fc739b9c50acp-3|0x1.57888e5f6a6c8p+7|0|1
  1|1250|1250|0x1.35261e70a07d5p-3|0x1.796108287be9p+7|0|2
  2|250|250|0x1.5e6ebf48f00e5p-2|0x1.563826cd3a6ep+6|0|3
adaptive-0|0x1.c32b79a58a15cp+9|0x1.404a113b6180ap+10
fleet|adaptive_gain|0x1.7ad151a271d7p+8|2|2500|0|0x0p+0|0
  0|1000|1000|0x1.64057ba9e2fb6p-3|0x1.5bad5ac3e7a98p+7|0|1
  1|1500|1500|0x1.17dd609996e1ap-3|0x1.99f54880fc048p+7|0|2
adaptive-1|0x1.d15db86a586dp+9|0x1.45cea11e439ecp+10
fleet|adaptive_gain|0x1.747f13a45da1p+8|2|2500|0|0x0p+0|0
  0|1000|1000|0x1.49ddbf6410ceep-3|0x1.42228ce7b86ap+7|0|1
  1|1500|1500|0x1.20abc2d196148p-3|0x1.a6db9a6102d8p+7|0|2
adaptive-2|0x1.e49ec6bc9b55fp+9|0x1.51a032a940dadp+10
fleet|adaptive_gain|0x1.7d433d2bccbf6p+8|2|2500|0|0x0p+0|0
  0|1000|1000|0x1.41c610bb2b53bp-3|0x1.3a3b6c56c84fcp+7|0|1
  1|1500|1500|0x1.3208e97963cb7p-3|0x1.c04b0e00d12fp+7|0|2
adaptive-3|0x1.ff8b5bbc423acp+9|0x1.5c2f9fa929027p+10
fleet|adaptive_gain|0x1.71a7c72c1f944p+8|2|2500|0|0x0p+0|0
  0|1000|1000|0x1.2e7155db42948p-3|0x1.275aadd81f05p+7|0|1
  1|1500|1500|0x1.2f1307d9db3b1p-3|0x1.bbf4e08020238p+7|0|2
adaptive-4|0x1.048f3863d0afap+10|0x1.62278c16672dbp+10
fleet|adaptive_gain|0x1.76614eca59f84p+8|2|2500|0|0x0p+0|0
  0|1000|1000|0x1.53f8c5b30946ap-3|0x1.4c00f110d70fp+7|0|1
  1|1500|1500|0x1.1c817bea0f9ecp-3|0x1.a0c1ac83dce18p+7|0|2
adaptive-5|0x1.11801a7998315p+10|0x1.78fab7efde49bp+10
fleet|adaptive_gain|0x1.9dea75d918618p+8|2|2500|0|0x0p+0|0
  0|1000|1000|0x1.995e433639548p-3|0x1.8fc60da2f3fc8p+7|0|1
  1|1500|1500|0x1.243892219cdc3p-3|0x1.ac0ede0f3cc68p+7|0|2
adaptive-6|0x1.191608b83e64p+10|0x1.7f0b9c885d55dp+10
fleet|adaptive_gain|0x1.97d64f407bc74p+8|2|2500|0|0x0p+0|0
  0|1000|1000|0x1.3da275c3fb6c9p-3|0x1.3630a7016388p+7|0|1
  1|1500|1500|0x1.5913c6504448bp-3|0x1.f97bf77f94068p+7|0|2
adaptive-7|0x1.246c249b4fb9ap+10|0x1.872cd85fb6f72p+10
fleet|adaptive_gain|0x1.8b02cf119cf6p+8|2|2500|0|0x0p+0|0
  0|1000|1000|0x1.48c457ded430ap-3|0x1.410fbdcf9b378p+7|0|1
  1|1500|1500|0x1.4024c78fc880bp-3|0x1.d4f5e0539eb48p+7|0|2
adaptive-8|0x1.306847141e33cp+10|0x1.883465f56ff13p+10
fleet|adaptive_gain|0x1.5f307b8546f5cp+8|2|2500|0|0x0p+0|0
  0|1000|1000|0x1.547a98dd86fe7p-3|0x1.4c7fb94855d48p+7|0|1
  1|1500|1500|0x1.f902609bf2782p-4|0x1.71e13dc23817p+7|0|2
adaptive-9|0x1.3a217e686fda5p+10|0x1.983017b96a90bp+10
fleet|adaptive_gain|0x1.783a6543ead98p+8|2|2500|0|0x0p+0|0
  0|1000|1000|0x1.742d54c5c9431p-3|0x1.6b7444c9268b8p+7|0|1
  1|1500|1500|0x1.098f08b35364p-3|0x1.850085beaf278p+7|0|2
)golden";

// ---------------------------------------------------------------------

/// The Fig. 2 cross-check setup: a tracked hybrid client plus 11
/// background clients cycling through the paper's controllers, arriving
/// staggered on one processor-sharing server.
EventSimBackend Fig2Backend() {
  EventSimConfig config;
  config.seed = 31;
  config.jitter_sigma = 0.1;
  const char* const mix[] = {"hybrid", "mimd", "adaptive"};
  std::vector<BackgroundClientSpec> background;
  for (int i = 1; i <= 11; ++i) {
    BackgroundClientSpec spec;
    spec.make_controller = NamedFactory(mix[i % 3]);
    spec.dataset_tuples = 8000 + 1000 * i;
    spec.start_time_ms = 150.0 * i;
    background.push_back(spec);
  }
  return EventSimBackend(config, /*dataset_tuples=*/40000, 0.0,
                         std::move(background));
}

TEST(SharedServerGoldenTest, EventSimFig2Setup) {
  EventSimBackend backend = Fig2Backend();
  std::unique_ptr<Controller> tracked = NamedFactory("hybrid")();
  Result<RunTrace> trace = backend.RunQuery(tracked.get(), RunSpec{});
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_EQ(Fingerprint(trace.value()), kEventSimFig2);
}

TEST(SharedServerGoldenTest, EventSimWithFaultsAndObserver) {
  FaultPlan plan;
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
  plan.specs = {burst, spike, stall, reset};

  ResilienceConfig resilience;
  resilience.max_retries_per_call = 3;
  resilience.backoff_initial_ms = 10.0;
  resilience.backoff_jitter = 0.2;
  resilience.deadline_base_ms = 200.0;
  resilience.breaker_threshold = 2;
  resilience.breaker_fallback_size = 500;
  resilience.breaker_cooldown_blocks = 2;

  Tracer tracer;
  RunObserver observer(nullptr, &tracer);
  RunSpec spec;
  spec.fault_plan = &plan;
  spec.resilience = &resilience;
  spec.observer = &observer;

  EventSimBackend backend = Fig2Backend();
  std::unique_ptr<Controller> tracked = NamedFactory("hybrid")();
  Result<RunTrace> trace = backend.RunQuery(tracked.get(), spec);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_EQ(Fingerprint(trace.value()), kEventSimFaults);
  EXPECT_EQ(Fingerprint(tracer), kEventSimObserverCalls);
}

TEST(SharedServerGoldenTest, FleetSimultaneousHerdTieOrder) {
  fleet::FleetWorldConfig config;
  config.seed = 5;
  config.jitter_sigma = 0.0;
  config.load.noise_sigma = 0.0;
  fleet::FleetSpec spec;
  spec.mix = {{"hybrid", 3}, {"mimd", 3}, {"fixed:700", 2}};
  spec.tuples_per_tenant = 4000;
  spec.arrival = fleet::ArrivalProcess::kSimultaneous;
  Result<std::vector<fleet::TenantSpec>> tenants = spec.BuildTenants(5);
  ASSERT_TRUE(tenants.ok()) << tenants.status().ToString();
  Result<fleet::FleetTrace> fleet =
      fleet::RunFleetWorld(config, tenants.value());
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  EXPECT_EQ(Fingerprint(fleet.value()), kFleetSimultaneous);
}

TEST(SharedServerGoldenTest, FleetJitteredWithResilience) {
  fleet::FleetWorldConfig config;
  config.seed = 23;
  config.jitter_sigma = 0.1;
  fleet::FleetSpec spec;
  spec.mix = {{"hybrid", 12}, {"mimd", 10}, {"adaptive", 10}};
  spec.tuples_per_tenant = 2500;
  spec.arrival = fleet::ArrivalProcess::kJittered;
  spec.stagger_interval_ms = 40.0;
  spec.arrival_jitter_ms = 25.0;
  ResilienceConfig resilience;
  resilience.breaker_threshold = 2;
  resilience.breaker_fallback_size = 400;
  spec.resilience = resilience;
  Result<std::vector<fleet::TenantSpec>> tenants = spec.BuildTenants(23);
  ASSERT_TRUE(tenants.ok()) << tenants.status().ToString();
  Result<fleet::FleetTrace> fleet =
      fleet::RunFleetWorld(config, tenants.value());
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  EXPECT_EQ(Fingerprint(fleet.value()), kFleetJittered);
}

}  // namespace
}  // namespace wsq
