#include "control.hpp"

#include <algorithm>
#include <optional>
#include <string_view>

#include "model/scenario.hpp"
#include "trace.hpp"

namespace perfbench {

System build_system() {
  sb::model::ScenarioParams params;   // 24-site tier-1, 20 VNFs, coverage 0.5
  params.chain_count = 0;             // chains arrive through the portal
  sb::core::DeploymentConfig config;
  config.reliable_bus = true;
  System system;
  system.deployment = std::make_unique<sb::core::Deployment>(
      sb::model::make_scenario(params), config);
  system.edge = system.deployment->create_edge_service("edge");
  system.deployment->enable_replication(3);
  return system;
}

std::vector<sb::control::ChainSpec> make_chain_specs(
    sb::Rng& rng, const sb::model::NetworkModel& model, sb::EdgeServiceId edge,
    std::size_t count, double forward_traffic) {
  const auto nodes = static_cast<std::int64_t>(model.topology().node_count());
  const std::size_t vnf_count = model.vnfs().size();
  std::vector<sb::control::ChainSpec> specs;
  specs.reserve(count);
  for (std::size_t c = 0; c < count; ++c) {
    sb::control::ChainSpec spec;
    spec.name = "c" + std::to_string(c);
    spec.ingress_service = edge;
    spec.egress_service = edge;
    spec.ingress_node =
        sb::NodeId{static_cast<std::uint32_t>(rng.uniform_int(0, nodes - 1))};
    do {
      spec.egress_node =
          sb::NodeId{static_cast<std::uint32_t>(rng.uniform_int(0, nodes - 1))};
    } while (spec.egress_node == spec.ingress_node);
    const auto length = static_cast<std::size_t>(rng.uniform_int(3, 5));
    std::vector<std::size_t> picks =
        rng.sample_without_replacement(vnf_count, length);
    std::sort(picks.begin(), picks.end());
    for (const std::size_t p : picks) spec.vnfs.push_back(model.vnfs()[p].id);
    spec.forward_traffic = forward_traffic;
    spec.reverse_traffic = forward_traffic / 4;
    specs.push_back(std::move(spec));
  }
  return specs;
}

bool phases_consistent(const OpOutcome& op) {
  sb::sim::Duration sum = 0;
  for (const sb::sim::Duration phase : op.phase_sim) {
    if (phase < 0) return false;
    sum += phase;
  }
  return sum == op.sim_elapsed;
}

template <typename Done>
void WorkflowDriver::drive(OpOutcome& out, std::uint64_t submit_start,
                           const Done& done) {
  sb::sim::Simulator& sim = deployment_.simulator();
  const sb::sim::SimTime deadline = sim.now() + kDeadline;
  steps_.clear();
  while (!done()) {
    if (sim.now() > deadline) {
      out.expired = true;
      break;
    }
    if constexpr (trace::kTraced) {
      const std::uint64_t start = now_ns();
      const bool stepped = sim.step();
      const std::uint64_t ns = now_ns() - start;
      if (!stepped) {
        out.expired = true;
        break;
      }
      steps_.push_back({sim.now(), ns});
      step_ns_.add(ns);
      out.max_step_ns = std::max(out.max_step_ns, ns);
    } else if (!sim.step()) {
      out.expired = true;   // nothing left that could complete it
      break;
    }
  }
  out.wall_ns = now_ns() - submit_start;
}

void WorkflowDriver::attribute_steps(
    OpOutcome& out,
    const std::array<sb::sim::SimTime, kPhaseCount + 1>& bounds) {
  // A step at simulated time t belongs to the first phase whose end is at
  // or after t: the event that closes a phase does that phase's work.
  for (const Step& step : steps_) {
    std::size_t phase = 0;
    while (phase + 1 < kPhaseCount && step.at > bounds[phase + 1]) ++phase;
    out.phase_wall_ns[phase] += step.wall_ns;
  }
}

namespace {

/// Time of the first (or last) event named `name`, or `fallback`.
sb::sim::SimTime event_time(const sb::control::CreationReport& report,
                            std::string_view name, bool last,
                            sb::sim::SimTime fallback) {
  std::optional<sb::sim::SimTime> found;
  for (const sb::control::CreationEvent& event : report.events) {
    if (event.name != name) continue;
    found = event.at;
    if (!last) break;
  }
  return found.value_or(fallback);
}

}  // namespace

void WorkflowDriver::finish_creation(
    OpOutcome& out, const sb::control::CreationReport& report) {
  // create_chain: spec_received | sites_resolved | route_computed |
  // prepared | committed | routes_published | activated.  add_route has
  // no resolve step, so its resolve phase is empty.  2PC retries stay
  // inside the prepare phase (first route_computed to last prepared).
  std::array<sb::sim::SimTime, kPhaseCount + 1> bounds{};
  bounds[0] = report.started;
  bounds[1] = event_time(report, "sites_resolved", false, report.started);
  bounds[2] = event_time(report, "route_computed", false, -1);
  bounds[3] = event_time(report, "prepared", true, -1);
  bounds[4] = event_time(report, "committed", true, -1);
  bounds[5] = event_time(report, "routes_published", true, -1);
  bounds[6] = report.completed;
  out.sim_elapsed = report.elapsed();
  out.chain = report.chain;
  out.labels = report.labels;
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    out.phase_sim[p] = bounds[p + 1] - bounds[p];
  }
  if constexpr (trace::kTraced) attribute_steps(out, bounds);
}

OpOutcome WorkflowDriver::create_chain(const sb::control::ChainSpec& spec) {
  OpOutcome out;
  out.kind = OpKind::kCreate;
  std::optional<sb::Result<sb::control::CreationReport>> slot;
  const std::uint64_t start = now_ns();
  deployment_.global().create_chain(
      spec, [&slot](sb::Result<sb::control::CreationReport> result) {
        slot = std::move(result);
      });
  out.submit_ns = now_ns() - start;
  drive(out, start, [&slot] { return slot.has_value(); });
  if (slot && slot->ok()) {
    out.ok = true;
    finish_creation(out, slot->value());
  }
  return out;
}

OpOutcome WorkflowDriver::add_route(sb::ChainId chain) {
  OpOutcome out;
  out.kind = OpKind::kAddRoute;
  std::optional<sb::Result<sb::control::CreationReport>> slot;
  const std::uint64_t start = now_ns();
  deployment_.global().add_route(
      chain, {}, [&slot](sb::Result<sb::control::CreationReport> result) {
        slot = std::move(result);
      });
  out.submit_ns = now_ns() - start;
  drive(out, start, [&slot] { return slot.has_value(); });
  if (slot && slot->ok()) {
    out.ok = true;
    finish_creation(out, slot->value());
  }
  return out;
}

OpOutcome WorkflowDriver::attach_edge(sb::ChainId chain, sb::SiteId site) {
  OpOutcome out;
  out.kind = OpKind::kAttach;
  out.chain = chain;
  std::optional<sb::Result<sb::control::EdgeAdditionTrace>> slot;
  sb::sim::SimTime done_at = 0;
  sb::sim::Simulator& sim = deployment_.simulator();
  const sb::sim::SimTime started = sim.now();
  const std::uint64_t start = now_ns();
  // What Middleware::attach_edge does, minus its wait: the edge service
  // brings up an instance at the site, the site's Local Switchboard
  // stitches it into the nearest route.
  const sb::dataplane::ElementId instance =
      deployment_.edge_controller(edge_).ensure_edge_instance(site);
  deployment_.local(site).attach_edge(
      chain, instance,
      [&slot, &done_at, &sim](sb::Result<sb::control::EdgeAdditionTrace> r) {
        slot = std::move(r);
        done_at = sim.now();
      });
  out.submit_ns = now_ns() - start;
  drive(out, start, [&slot] { return slot.has_value(); });
  if (slot && slot->ok()) {
    out.ok = true;
    // Edge addition (Table 2): the site choice is immediate; "publish" is
    // the wait for the first VNF's forwarder info over the bus; "install"
    // runs from there to the later of the local rule install and the
    // remote return-path configuration (the completion callback).
    const sb::control::EdgeAdditionTrace& t = slot->value();
    std::array<sb::sim::SimTime, kPhaseCount + 1> bounds{};
    bounds[0] = started;
    bounds[1] = t.site_chosen;
    bounds[2] = t.site_chosen;
    bounds[3] = t.site_chosen;
    bounds[4] = t.site_chosen;
    bounds[5] = t.forwarder_info_received;
    bounds[6] = done_at;
    out.sim_elapsed = done_at - started;
    for (std::size_t p = 0; p < kPhaseCount; ++p) {
      out.phase_sim[p] = bounds[p + 1] - bounds[p];
    }
    if constexpr (trace::kTraced) attribute_steps(out, bounds);
  }
  return out;
}

}  // namespace perfbench
