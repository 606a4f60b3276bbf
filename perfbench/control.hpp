// The system under test and the portal-side workflow driver shared by all
// workloads.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "common/rng.hpp"
#include "core/deployment.hpp"
#include "trace.hpp"

namespace perfbench {

namespace sb = switchboard;

/// One Switchboard installation: model::make_scenario's 24-site tier-1
/// backbone with 20 VNFs at coverage 0.5 and no pre-placed chains, a
/// reliable bus, and a 3-replica controller.  The network is fixed; the
/// workload seed only shapes what is sent to it.
struct System {
  std::unique_ptr<sb::core::Deployment> deployment;
  sb::EdgeServiceId edge;
};
System build_system();

/// `count` chain specs drawn from `rng`: distinct ingress and egress nodes
/// chosen uniformly, 3-5 distinct VNFs in catalog order, reverse traffic a
/// quarter of forward.
std::vector<sb::control::ChainSpec> make_chain_specs(
    sb::Rng& rng, const sb::model::NetworkModel& model, sb::EdgeServiceId edge,
    std::size_t count, double forward_traffic);

enum class OpKind : std::uint8_t { kCreate, kAddRoute, kAttach };

/// Simulated-time phases of a workflow, in order.  They partition the
/// interval from the portal call to the completion callback (see
/// WorkflowDriver for how each workflow's events map onto them).
inline constexpr std::size_t kPhaseCount = 6;
inline constexpr std::array<const char*, kPhaseCount> kPhaseNames{
    "resolve", "route", "prepare", "commit", "publish", "install"};

struct OpOutcome {
  OpKind kind{OpKind::kCreate};
  bool ok{false};
  /// The simulated deadline passed before the completion callback fired.
  bool expired{false};
  /// Wall time from submit to completion callback.
  std::uint64_t wall_ns{0};
  /// Wall time of the submitting call alone.
  std::uint64_t submit_ns{0};
  /// Simulated latency: portal call to rules installed.
  sb::sim::Duration sim_elapsed{0};
  std::array<sb::sim::Duration, kPhaseCount> phase_sim{};
  /// Wall time of the simulator steps whose simulated time fell in each
  /// phase (traced binary only).
  std::array<std::uint64_t, kPhaseCount> phase_wall_ns{};
  /// Slowest single simulator step of the workflow (traced binary only).
  std::uint64_t max_step_ns{0};
  sb::ChainId chain{};
  sb::dataplane::Labels labels{};
};

/// True when every phase of a successful workflow is non-negative and the
/// phases sum exactly to its simulated latency.
bool phases_consistent(const OpOutcome& op);

/// Closed-loop driver for portal workflows.  Each call submits one
/// workflow and steps the simulator until its completion callback fires
/// or kDeadline of simulated time has passed since submission; an expiry
/// is reported as a failed operation.  It never waits for the event queue
/// to drain: replica heartbeats keep that queue non-empty forever.
class WorkflowDriver {
 public:
  static constexpr sb::sim::Duration kDeadline = sb::sim::seconds(10);

  /// `step_ns` receives the wall time of every simulator step (traced
  /// binary only).
  WorkflowDriver(sb::core::Deployment& deployment, sb::EdgeServiceId edge,
                 Histogram& step_ns)
      : deployment_{deployment}, edge_{edge}, step_ns_{step_ns} {
    if constexpr (trace::kTraced) steps_.reserve(1 << 16);
  }

  OpOutcome create_chain(const sb::control::ChainSpec& spec);
  OpOutcome add_route(sb::ChainId chain);
  OpOutcome attach_edge(sb::ChainId chain, sb::SiteId site);

 private:
  struct Step {
    sb::sim::SimTime at;
    std::uint64_t wall_ns;
  };

  /// Steps until `done()` or the deadline; fills wall/expiry fields.
  template <typename Done>
  void drive(OpOutcome& out, std::uint64_t submit_start, const Done& done);
  /// Splits the recorded steps' wall time over the phase boundaries.
  void attribute_steps(OpOutcome& out,
                       const std::array<sb::sim::SimTime, kPhaseCount + 1>&
                           bounds);
  void finish_creation(OpOutcome& out,
                       const sb::control::CreationReport& report);

  sb::core::Deployment& deployment_;
  sb::EdgeServiceId edge_;
  Histogram& step_ns_;
  std::vector<Step> steps_;
};

}  // namespace perfbench
