// Typed binary trace records (the observability substrate's vocabulary).
//
// A TraceEvent is a fixed-size POD: timestamp, an instrumentation point, a
// coarse category, the affected partition / IRQ source and two payload
// words whose meaning is per-point (documented at each TracePoint
// enumerator). Keeping the record
// POD and self-contained lets the ring buffer store events by value with no
// allocation and lets exporters run entirely offline from a snapshot.
//
// This header is dependency-free (std only): time is a raw nanosecond
// count, not sim::TimePoint, so the sim layer can sit *on top of* obs
// without a cycle.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace rthv::obs {

/// "Not a partition / not a source" sentinel in TraceEvent id fields
/// (matches hv::kInvalidPartition's all-ones value).
inline constexpr std::uint32_t kNoId = UINT32_MAX;

/// "No payload" sentinel for payload words that carry an optional quantity
/// (e.g. the monitor's observed distance before two activations exist).
inline constexpr std::uint64_t kNoValue = UINT64_MAX;

/// Coarse event category.
enum class TraceCategory : std::uint8_t {
  kIrq,         // hardware IRQ queue traffic (push/pop/drop)
  kTopHandler,  // hypervisor top-handler activity
  kMonitor,     // monitor admit / deny decisions
  kScheduler,   // TDMA slot switches and deferrals
  kInterpose,   // interposed bottom-handler execution
  kBottom,      // bottom-handler execution
  kGuest,       // guest OS activity
  kOther,       // health events and uncategorized records
  kFault,       // fault-injection engine activity (src/fault)
  kCount_,
};

/// Precise instrumentation point. arg0/arg1 meanings are noted per point.
enum class TracePoint : std::uint8_t {
  kLegacy,            // default-constructed point; value 0 keeps committed goldens' numbering
  kStart,             // hypervisor start(); partition = initial slot owner
  kSlotSwitch,        // TDMA switch; arg0 = new slot index, arg1 = cycles done
  kSlotDeferred,      // boundary deferred by a running bottom handler
  kPartitionRestart,  // reserved, never emitted; keeps the later values' numbering
  kTopEnter,          // top handler begins; arg0 = seq
  kTopExit,           // top handler's timed step ends; arg0 = seq
  kMonitorAdmit,      // arg0 = observed delta^- distance ns (kNoValue if <2 obs), arg1 = seq
  kMonitorDeny,       // same payload as kMonitorAdmit
  kInterposeDeny,     // admitted but not interposed; arg0 = DenyReason, arg1 = seq
  kInterposeEnter,    // context switched into the subscriber
  kInterposeReturn,   // context switched back to the interrupted partition
  kInterposeExitDeferred,  // interpose exit subsumed by a deferred slot switch
  kIrqPush,           // event queued; arg0 = seq, arg1 = queue size after push
  kIrqPop,            // event dequeued for its bottom handler; arg0 = seq, arg1 = size after pop
  kIrqDrop,           // queue full, event dropped; arg0 = seq, arg1 = total drops
  kBottomStart,       // bottom handler starts; arg0 = seq
  kBottomResume,      // preempted/budget-split bottom handler resumes; arg0 = seq
  kBottomEnd,         // bottom handler completed; arg0 = seq, arg1 = HandlingClass
  kHealth,            // re-emitted health event; arg0 = HealthEventKind
  kInterposeStart,    // interposition granted; arg0 = admitted raise time ns, arg1 = seq
  kFaultInject,       // fault engine action; arg0 = fault kind, arg1 = per-kind payload
  kDirectDeliver,     // reserved, never emitted; keeps the later values' numbering
  kDirectComplete,    // reserved, never emitted; keeps the later values' numbering
  kInterposeCharge,   // contention charge of an admission; arg0 = normalized-clock shift ns, arg1 = stall ns
  kCount_,
};

/// Reason codes carried in kInterposeDeny's arg0.
enum class InterposeDenyReason : std::uint8_t {
  kMonitor,      // the delta^- condition failed
  kEngineBusy,   // an interposition (or pending slot switch) was active
  kGuestMasked,  // reserved, never emitted; keeps kBacklog's value
  kBacklog,      // a partially executed bottom handler was pending
  kCount_,
};

// The numeric values are a format: golden traces print deny reasons as
// numbers (a0=), binary trace records store points by value, and CoverageMap
// sizes its regions from TracePoint::kCount_, so a renumbering would
// silently move all three. Retired values stay as reserved placeholders.
static_assert(static_cast<int>(TracePoint::kLegacy) == 0);
static_assert(static_cast<int>(TracePoint::kStart) == 1);
static_assert(static_cast<int>(TracePoint::kSlotSwitch) == 2);
static_assert(static_cast<int>(TracePoint::kSlotDeferred) == 3);
static_assert(static_cast<int>(TracePoint::kPartitionRestart) == 4);
static_assert(static_cast<int>(TracePoint::kTopEnter) == 5);
static_assert(static_cast<int>(TracePoint::kTopExit) == 6);
static_assert(static_cast<int>(TracePoint::kMonitorAdmit) == 7);
static_assert(static_cast<int>(TracePoint::kMonitorDeny) == 8);
static_assert(static_cast<int>(TracePoint::kInterposeDeny) == 9);
static_assert(static_cast<int>(TracePoint::kInterposeEnter) == 10);
static_assert(static_cast<int>(TracePoint::kInterposeReturn) == 11);
static_assert(static_cast<int>(TracePoint::kInterposeExitDeferred) == 12);
static_assert(static_cast<int>(TracePoint::kIrqPush) == 13);
static_assert(static_cast<int>(TracePoint::kIrqPop) == 14);
static_assert(static_cast<int>(TracePoint::kIrqDrop) == 15);
static_assert(static_cast<int>(TracePoint::kBottomStart) == 16);
static_assert(static_cast<int>(TracePoint::kBottomResume) == 17);
static_assert(static_cast<int>(TracePoint::kBottomEnd) == 18);
static_assert(static_cast<int>(TracePoint::kHealth) == 19);
static_assert(static_cast<int>(TracePoint::kInterposeStart) == 20);
static_assert(static_cast<int>(TracePoint::kFaultInject) == 21);
static_assert(static_cast<int>(TracePoint::kDirectDeliver) == 22);
static_assert(static_cast<int>(TracePoint::kDirectComplete) == 23);
static_assert(static_cast<int>(TracePoint::kInterposeCharge) == 24);
static_assert(static_cast<int>(TracePoint::kCount_) == 25);
static_assert(static_cast<int>(InterposeDenyReason::kMonitor) == 0);
static_assert(static_cast<int>(InterposeDenyReason::kEngineBusy) == 1);
static_assert(static_cast<int>(InterposeDenyReason::kGuestMasked) == 2);
static_assert(static_cast<int>(InterposeDenyReason::kBacklog) == 3);
static_assert(static_cast<int>(InterposeDenyReason::kCount_) == 4);

/// One 40-byte binary trace record.
struct TraceEvent {
  std::int64_t time_ns = 0;
  TracePoint point = TracePoint::kLegacy;
  TraceCategory category = TraceCategory::kOther;
  std::uint16_t reserved0 = 0;  // explicit padding, always zero
  std::uint32_t partition = kNoId;
  std::uint32_t source = kNoId;
  std::uint32_t reserved1 = 0;  // explicit padding, always zero
  std::uint64_t arg0 = 0;
  std::uint64_t arg1 = 0;
};

static_assert(sizeof(TraceEvent) == 40, "TraceEvent layout is part of the format");
static_assert(std::is_trivially_copyable_v<TraceEvent>);
static_assert(std::is_standard_layout_v<TraceEvent>);

/// Optional id -> name mapping used by exporters; indices are partition /
/// source ids. Ids beyond the vectors render numerically.
struct TraceMeta {
  std::vector<std::string> partition_names;
  std::vector<std::string> source_names;
};

[[nodiscard]] std::string_view to_string(TraceCategory c);
[[nodiscard]] std::string_view to_string(TracePoint p);
[[nodiscard]] std::string_view to_string(InterposeDenyReason r);

}  // namespace rthv::obs
