// Per-layer timing for the traced binary.
//
// The traced binary interposes on a few public library functions at link
// time (trace_wraps.cpp) and on the global allocator (alloc_count.cpp).
// Each interposed call adds its wall time to the layer's Timer while
// tracing is switched on.  The untraced binary links neither file:
// kTraced is false there, every `if constexpr (kTraced)` block in the
// workloads compiles away, and the timers below stay empty.
#pragma once

#include <array>
#include <cstdint>

#include "common.hpp"

#ifndef PERFBENCH_TRACED
#define PERFBENCH_TRACED 0
#endif

namespace perfbench::trace {

inline constexpr bool kTraced = PERFBENCH_TRACED != 0;

enum class Layer : std::size_t {
  kFindRecord,   // GlobalSwitchboard::find_record
  kFwdCall,      // Forwarder::process_from_wire / process_from_attached
  kFlowFind,     // ShardedFlowTable::find
  kRuleFind,     // RuleTable::find
  kLbPick,       // WeightedChoice::pick
  kCount,
};

struct Timer {
  std::uint64_t total_ns{0};
  Histogram per_call_ns;

  void add(std::uint64_t ns) {
    total_ns += ns;
    per_call_ns.add(ns);
  }
};

/// Interposed calls are timed only while this is set.
extern bool g_enabled;
extern std::array<Timer, static_cast<std::size_t>(Layer::kCount)> g_timers;

inline Timer& timer(Layer layer) {
  return g_timers[static_cast<std::size_t>(layer)];
}

/// Heap allocations made so far through the global operator new (always 0
/// in the untraced binary, which keeps the default allocator).
std::uint64_t allocations();

}  // namespace perfbench::trace
