#include "fault/fault_engine.hpp"

#include <stdexcept>

#include "exp/seed.hpp"
#include "mon/monitor.hpp"
#include "obs/metric_catalog.hpp"

namespace rthv::fault {

FaultEngine::FaultEngine(core::HypervisorSystem& system, const FaultPlan& plan,
                         std::uint64_t seed)
    : system_(system),
      ctx_{system.simulator(), system.platform(), system.hypervisor(),
           system.config()} {
  injectors_.reserve(plan.injections.size());
  for (std::size_t i = 0; i < plan.injections.size(); ++i) {
    injectors_.push_back(
        make_injector(plan.injections[i], exp::derive_seed(seed, i)));
  }
}

FaultEngine::~FaultEngine() {
  if (armed_) {
    for (auto& injector : injectors_) injector->disarm(ctx_);
  }
  system_.detach_checkpoint_client(this);
}

void FaultEngine::arm() {
  for (auto& injector : injectors_) injector->arm(ctx_);
  system_.set_run_to_horizon(true);
  armed_ = true;
  if (system_.checkpoint_client() == nullptr) {
    system_.attach_checkpoint_client(this);
  }
}

void FaultEngine::snapshot_state(sim::StateWriter& w) const {
  w.u64(injectors_.size());
  for (const auto& injector : injectors_) injector->snapshot_state(w);
}

void FaultEngine::restore_state(sim::StateReader& r) {
  if (r.u64() != injectors_.size()) {
    throw std::logic_error("FaultEngine::restore_state: injector count changed");
  }
  for (auto& injector : injectors_) injector->restore_state(r);
}

void FaultEngine::append_metrics(obs::MetricsSnapshot& out) const {
  static const auto names = obs::catalog::enum_names<FaultKind>(obs::catalog::kFaultInjectedBy);
  for (const auto& injector : injectors_) {
    out.add_counter(names[static_cast<std::size_t>(injector->kind())], injector->injected());
  }
}

std::uint64_t FaultEngine::total_injected() const {
  std::uint64_t total = 0;
  for (const auto& injector : injectors_) total += injector->injected();
  return total;
}

void weaken_monitor_for_test(core::HypervisorSystem& system,
                             std::uint32_t source_index, std::int64_t divisor) {
  if (source_index >= system.config().sources.size()) {
    throw std::invalid_argument("weaken_monitor_for_test: source out of range");
  }
  const auto& spec = system.config().sources[source_index];
  if (!spec.d_min.is_positive() || divisor <= 1) {
    throw std::invalid_argument(
        "weaken_monitor_for_test: needs a positive configured d_min and a "
        "divisor > 1");
  }
  system.hypervisor().set_monitor(
      source_index, std::make_unique<mon::DeltaVectorMonitor>(mon::DeltaVector{
                        sim::Duration::ns(spec.d_min.count_ns() / divisor)}));
}

}  // namespace rthv::fault
