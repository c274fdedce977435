// An IMA-style (ARINC653-flavoured) integrated modular avionics node.
//
// Four partitions share one core under TDMA:
//   flight-control  4000 us  -- highest-criticality control loops
//   display         3000 us  -- cockpit display rendering
//   io-gateway      2000 us  -- AFDX network I/O handling
//   maintenance     1000 us  -- housekeeping / health monitoring
//
// Two IRQ sources model the node's inputs:
//   afdx-rx    -> io-gateway    (network frames; bursty)
//   sensor-bus -> flight-control (periodic sensor samples)
//
// The io-gateway guest transmits every received frame from an event-driven
// frame-tx task. The example runs the system twice -- with strict TDMA
// handling and with monitored interposed handling -- and compares the
// interrupt latencies and the frame RX -> frame-tx-done delay, while
// demonstrating that the flight-control partition's periodic task keeps
// meeting its deadlines in both cases (sufficient temporal independence).
#include <deque>
#include <iostream>
#include <memory>

#include "core/hypervisor_system.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"
#include "workload/generators.hpp"

using namespace rthv;
using sim::Duration;
using sim::TimePoint;

namespace {

constexpr std::uint32_t kFlightControl = 0;
constexpr std::uint32_t kDisplay = 1;
constexpr std::uint32_t kIoGateway = 2;
constexpr std::uint32_t kMaintenance = 3;

core::SystemConfig make_config(bool interposing) {
  core::SystemConfig cfg;
  cfg.partitions = {
      {"flight-control", Duration::us(4000), false},  // tasks added below
      {"display", Duration::us(3000), true},
      {"io-gateway", Duration::us(2000), false},
      {"maintenance", Duration::us(1000), false},
  };

  core::IrqSourceSpec afdx;
  afdx.name = "afdx-rx";
  afdx.subscriber = kIoGateway;
  afdx.c_top = Duration::us(4);
  afdx.c_bottom = Duration::us(25);
  core::IrqSourceSpec sensor;
  sensor.name = "sensor-bus";
  sensor.subscriber = kFlightControl;
  sensor.c_top = Duration::us(3);
  sensor.c_bottom = Duration::us(15);

  if (interposing) {
    cfg.mode = hv::TopHandlerMode::kInterposing;
    afdx.monitor = core::MonitorKind::kDeltaMin;
    afdx.d_min = Duration::us(800);
    sensor.monitor = core::MonitorKind::kDeltaMin;
    sensor.d_min = Duration::us(2000);
  }
  cfg.sources = {afdx, sensor};
  return cfg;
}

struct RunReport {
  stats::LatencyRecorder afdx;
  stats::LatencyRecorder sensor;
  stats::Summary tx_delay;  // frame RX (top handler) -> frame-tx job done
  std::uint64_t frames_sent = 0;
  std::uint64_t control_jobs = 0;
  std::uint64_t control_overruns = 0;
};

RunReport run(bool interposing) {
  core::HypervisorSystem system(make_config(interposing));
  system.keep_completions(true);

  // Flight-control guest: a control loop synchronized to the TDMA major
  // frame (one job per 10 ms cycle, well within the 4 ms slot).
  auto& fc = system.guest(kFlightControl);
  guest::GuestTaskConfig loop;
  loop.name = "control-loop";
  loop.priority = 1;
  loop.budget = Duration::us(1500);
  loop.period = Duration::ms(10);
  fc.add_task(loop);

  // IO-gateway guest: every completed AFDX bottom handler activates an
  // event-driven frame-tx task (20us of guest processing per frame). The
  // task is guest work, so it never executes inside a foreign slot even
  // when the bottom handler was interposed -- only the budgeted handler is.
  RunReport report;
  auto& io = system.guest(kIoGateway);
  guest::GuestTaskConfig tx;
  tx.name = "frame-tx";
  tx.priority = 1;
  tx.budget = Duration::us(20);
  tx.event_driven = true;
  const auto tx_id = io.add_task(tx);
  auto pending_frames = std::make_shared<std::deque<hv::IrqEvent>>();
  io.set_bottom_handler_callback([&io, tx_id, pending_frames](const hv::IrqEvent& ev) {
    if (ev.source == 0) {
      pending_frames->push_back(ev);
      io.activate(tx_id);
    }
  });
  io.set_job_complete_callback(
      [&report, tx_id, pending_frames](guest::TaskId id, TimePoint now) {
        if (id != tx_id || pending_frames->empty()) return;
        report.tx_delay.add(now - pending_frames->front().th_start);
        pending_frames->pop_front();
        ++report.frames_sent;
      });

  // Display guest: a periodic render task in its own slot.
  auto& display = system.guest(kDisplay);
  guest::GuestTaskConfig render;
  render.name = "render";
  render.priority = 2;
  render.budget = Duration::us(400);
  render.period = Duration::ms(4);
  display.add_task(render);

  // Workloads: bursty AFDX traffic, strictly periodic sensor samples.
  {
    workload::BurstTraceGenerator afdx_gen(Duration::ms(6), 3, Duration::us(900), 7);
    auto events = afdx_gen.generate_until(Duration::s(2));
    system.attach_trace(0, workload::Trace::from_activations(events));
  }
  {
    workload::PeriodicTraceGenerator sensor_gen(Duration::ms(5), Duration::us(200),
                                                Duration::ms(1), 9);
    auto events = sensor_gen.generate_until(Duration::s(2));
    system.attach_trace(1, workload::Trace::from_activations(events));
  }

  system.run(Duration::s(30));

  for (const auto& rec : system.completions()) {
    (rec.source == 0 ? report.afdx : report.sensor).record(rec.handling, rec.latency());
  }
  report.control_jobs = fc.jobs_completed(0);
  report.control_overruns = fc.overruns(0);
  return report;
}

void print_report(const char* title, const RunReport& r) {
  std::cout << title << "\n  afdx-rx:    ";
  r.afdx.write_summary(std::cout);
  std::cout << "  sensor-bus: ";
  r.sensor.write_summary(std::cout);
  if (!r.tx_delay.empty()) {
    std::cout << "  frame delay (RX -> frame-tx done): avg "
              << r.tx_delay.mean().as_us() / 1000.0 << "ms, max "
              << r.tx_delay.max().as_us() / 1000.0 << "ms over " << r.frames_sent
              << " frames\n";
  }
  std::cout << "  flight-control loop: " << r.control_jobs << " jobs, "
            << r.control_overruns << " overruns\n\n";
}

}  // namespace

int main() {
  std::cout << "IMA node: flight-control / display / io-gateway / maintenance, "
               "TDMA cycle 10ms\n\n";
  const auto strict = run(false);
  print_report("[strict TDMA handling]", strict);
  const auto interposed = run(true);
  print_report("[monitored interposed handling]", interposed);

  const double speedup = static_cast<double>(strict.afdx.all().mean().count_ns()) /
                         static_cast<double>(interposed.afdx.all().mean().count_ns());
  std::cout << "afdx-rx average latency improvement: " << stats::Table::num(speedup, 1)
            << "x; flight-control deadlines unaffected ("
            << strict.control_overruns << " vs " << interposed.control_overruns
            << " overruns)\n";
  return 0;
}
