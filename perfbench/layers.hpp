// Per-layer accounting for the traced run: counter snapshots taken around
// a fixed, seed-determined set of operations (so counts repeat exactly),
// and the conversion of those snapshots and the trace timers into the
// per-layer metrics.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common.hpp"
#include "control.hpp"

namespace perfbench {

/// Cumulative control-plane counters of one deployment.
struct ControlCounters {
  std::uint64_t events{0};
  std::uint64_t published{0};
  std::uint64_t wan_messages{0};
  std::uint64_t local_deliveries{0};
  std::uint64_t acks{0};
  std::uint64_t journal_appends{0};
  std::uint64_t journal_bytes{0};
  std::uint64_t records_streamed{0};
  std::uint64_t compactions{0};
  std::uint64_t allocations{0};

  static ControlCounters read(sb::core::Deployment& deployment);
  [[nodiscard]] ControlCounters minus(const ControlCounters& base) const;
};

/// Control-plane layer totals over a set of workflows.
struct ControlTally {
  std::uint64_t ok_ops{0};
  Histogram submit_ns;
  Histogram step_ns;   // wall time per simulator step
  std::array<double, kPhaseCount> phase_sim_us{};   // sums over ok ops
  std::array<double, kPhaseCount> phase_wall_ns{};  // sums over ok ops
  /// Counter deltas over the workflows of the first round only, so they
  /// repeat exactly from run to run.
  ControlCounters first_round;
  std::uint64_t first_round_ops{0};
  std::uint64_t rounds{0};
  std::uint64_t compactions{0};   // summed over rounds
  double quorum_ack_ms{0.0};      // last round's mean barrier wait

  void add(const OpOutcome& op);
};

/// Cumulative data-plane counters summed over every forwarder.
struct DataplaneCounters {
  std::uint64_t finds{0};
  std::uint64_t hits{0};
  std::uint64_t inserts{0};
  std::uint64_t erases{0};
  std::uint64_t entries{0};

  static DataplaneCounters read(sb::core::Deployment& deployment);
  [[nodiscard]] DataplaneCounters minus(const DataplaneCounters& base) const;
};

/// Data-plane and walk totals over a set of packets.
struct DataplaneTally {
  std::uint64_t packets{0};
  std::uint64_t inject_ns{0};     // summed wall time of the traced injects
  /// Part of inject_ns spent inside the timed forwarder calls and
  /// find_record (trace timer deltas over the same injects).
  std::uint64_t inner_ns{0};
  Histogram teardown_ns;          // per Forwarder::complete_flow call
  /// Exact counts over a fixed packet prefix.
  std::uint64_t counted_packets{0};
  std::uint64_t counted_hops{0};
  std::uint64_t counted_allocations{0};
  DataplaneCounters counted;
  std::uint64_t flow_entries{0};  // live entries when the run ends
};

/// Writes every per-layer metric into `result`; `traced_op_us_p50` is the
/// workload's op_us_p50 measured with tracing on.
void report_layers(RunResult& result, const ControlTally& control,
                   const DataplaneTally& dataplane, double traced_op_us_p50);

/// Wall time spent so far inside the timed forwarder calls and
/// find_record: the part of an inject that is not the walk's own.
std::uint64_t inner_trace_ns();

/// Sums the live flow entries over every forwarder.
std::uint64_t total_flow_entries(sb::core::Deployment& deployment);

}  // namespace perfbench
