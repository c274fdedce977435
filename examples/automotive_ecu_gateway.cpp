// A CAN-to-backbone gateway ECU with a self-learning activation monitor
// (the Appendix A mechanism as an application).
//
// The hypervisor hosts a gateway partition that processes CAN reception
// IRQs and a diagnostics partition. The IRQ activation pattern is unknown
// at integration time, so the monitor *learns* the traffic's minimum-
// distance vector during a calibration phase and then enforces it (capped
// by a safety bound) to admit interposed handling: low latencies for
// conforming traffic, guaranteed bounded interference when the bus
// misbehaves (babbling-idiot protection).
#include <iostream>

#include "core/analysis_facade.hpp"
#include "core/hypervisor_system.hpp"
#include "mon/learning_monitor.hpp"
#include "stats/table.hpp"
#include "workload/ecu_trace.hpp"

using namespace rthv;
using sim::Duration;

int main() {
  // Synthetic CAN traffic with the structure of an automotive trace.
  workload::EcuTraceConfig trace_cfg;
  trace_cfg.target_activations = 6000;
  trace_cfg.seed = 99;
  const auto trace = workload::EcuTraceSynthesizer(trace_cfg).synthesize();
  const std::size_t learn_events = trace.size() / 10;

  core::SystemConfig cfg;
  cfg.partitions = {
      {"gateway", Duration::us(5000), false},
      {"diagnostics", Duration::us(5000), true},
  };
  core::IrqSourceSpec can_rx;
  can_rx.name = "can-rx";
  can_rx.subscriber = 0;
  can_rx.c_top = Duration::us(5);
  can_rx.c_bottom = Duration::us(30);
  can_rx.monitor = core::MonitorKind::kLearning;
  can_rx.learning_depth = 5;
  can_rx.learning_events = learn_events;
  // Safety bound: never admit more than one interposition per 500 us,
  // whatever the learning phase observed (babbling-idiot protection).
  can_rx.delta_vector = {Duration::us(500), Duration::us(1000), Duration::us(1500),
                         Duration::us(2000), Duration::us(2500)};
  cfg.mode = hv::TopHandlerMode::kInterposing;
  cfg.sources = {can_rx};

  core::HypervisorSystem system(cfg);
  system.keep_completions(true);
  system.attach_trace(0, trace);

  std::cout << "CAN gateway: " << trace.size() << " frames, learning on the first "
            << learn_events << "\n\n";
  system.run(Duration::s(60));

  const auto* monitor =
      dynamic_cast<const mon::LearningDeltaMonitor*>(system.hypervisor().monitor(0));
  std::cout << "learned delta^- vector:  ";
  for (const auto d : monitor->learned()) std::cout << d.as_us() << "us ";
  std::cout << "\nenforced delta^- vector: ";
  for (const auto d : monitor->enforced()) std::cout << d.as_us() << "us ";
  std::cout << "\n(entries raised to the safety bound are babbling-idiot caps)\n\n";

  stats::LatencyRecorder learn_phase;
  stats::LatencyRecorder run_phase;
  for (const auto& rec : system.completions()) {
    (rec.seq < learn_events ? learn_phase : run_phase).record(rec.handling, rec.latency());
  }
  std::cout << "calibration phase: ";
  learn_phase.write_summary(std::cout);
  std::cout << "monitored phase:   ";
  run_phase.write_summary(std::cout);

  const auto& irq = system.hypervisor().irq_stats();
  std::cout << "\nmonitor verdicts: " << monitor->admitted() << " admitted, "
            << monitor->denied() << " denied (" << irq.interpose_started
            << " interpositions started)\n";
  std::cout << "interference bound on diagnostics: at most one interposition per "
            << monitor->enforced()[0].as_us() << "us, each costing at most "
            << core::AnalysisFacade(cfg).effective_bottom_cost(0).as_us()
            << "us effective (Eq. 13)\n";
  return 0;
}
