#include "layers.hpp"

#include <string>

#include "trace.hpp"

namespace perfbench {

ControlCounters ControlCounters::read(sb::core::Deployment& deployment) {
  ControlCounters c;
  c.events = deployment.simulator().executed_events();
  const sb::bus::BusStats& bus = deployment.bus().stats();
  c.published = bus.published;
  c.wan_messages = bus.wide_area_messages;
  c.local_deliveries = bus.local_deliveries;
  c.acks = bus.acks;
  c.journal_appends = deployment.durable_store().appends();
  c.journal_bytes = deployment.durable_store().bytes_written();
  if (const sb::control::ReplicaGroup* group = deployment.replica_group()) {
    c.records_streamed = group->records_streamed();
    c.compactions = group->replicated_compactions();
  }
  c.allocations = trace::allocations();
  return c;
}

ControlCounters ControlCounters::minus(const ControlCounters& base) const {
  ControlCounters d;
  d.events = events - base.events;
  d.published = published - base.published;
  d.wan_messages = wan_messages - base.wan_messages;
  d.local_deliveries = local_deliveries - base.local_deliveries;
  d.acks = acks - base.acks;
  d.journal_appends = journal_appends - base.journal_appends;
  d.journal_bytes = journal_bytes - base.journal_bytes;
  d.records_streamed = records_streamed - base.records_streamed;
  d.compactions = compactions - base.compactions;
  d.allocations = allocations - base.allocations;
  return d;
}

void ControlTally::add(const OpOutcome& op) {
  submit_ns.add(op.submit_ns);
  if (!op.ok) return;
  ++ok_ops;
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    phase_sim_us[p] += static_cast<double>(op.phase_sim[p]);
    phase_wall_ns[p] += static_cast<double>(op.phase_wall_ns[p]);
  }
}

DataplaneCounters DataplaneCounters::read(sb::core::Deployment& deployment) {
  DataplaneCounters c;
  sb::control::ElementRegistry& elements = deployment.elements();
  for (std::size_t id = 0; id < elements.size(); ++id) {
    const auto element = static_cast<sb::dataplane::ElementId>(id);
    if (elements.info(element).type != sb::control::ElementType::kForwarder) {
      continue;
    }
    const sb::dataplane::ShardedFlowTable& table =
        elements.forwarder(element).flow_table();
    const sb::dataplane::ShardedFlowTable::Stats stats = table.stats();
    c.finds += stats.finds;
    c.hits += stats.hits;
    c.inserts += stats.inserts;
    c.erases += stats.erases;
    c.entries += table.size();
  }
  return c;
}

DataplaneCounters DataplaneCounters::minus(
    const DataplaneCounters& base) const {
  DataplaneCounters d;
  d.finds = finds - base.finds;
  d.hits = hits - base.hits;
  d.inserts = inserts - base.inserts;
  d.erases = erases - base.erases;
  d.entries = entries;
  return d;
}

std::uint64_t total_flow_entries(sb::core::Deployment& deployment) {
  return DataplaneCounters::read(deployment).entries;
}

namespace {

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double ratio(std::uint64_t num, std::uint64_t den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}

}  // namespace

std::uint64_t inner_trace_ns() {
  return trace::timer(trace::Layer::kFwdCall).total_ns +
         trace::timer(trace::Layer::kFindRecord).total_ns;
}

void report_layers(RunResult& r, const ControlTally& control,
                   const DataplaneTally& dp, double traced_op_us_p50) {
  using trace::Layer;
  const auto p50 = [](Layer layer) {
    return trace::timer(layer).per_call_ns.quantile(0.5);
  };

  // core: the packet walk itself.
  r.set("core.find_record_ns", p50(Layer::kFindRecord), "ns");
  r.set("core.walk_self_ns",
        ratio(static_cast<double>(dp.inject_ns - dp.inner_ns),
              static_cast<double>(dp.packets)),
        "ns");
  r.set("core.allocs_per_pkt",
        ratio(dp.counted_allocations, dp.counted_packets), "count");
  r.set("core.hops_per_pkt", ratio(dp.counted_hops, dp.counted_packets),
        "count");
  r.set("traced.op_us_p50", traced_op_us_p50, "us");

  // dataplane: forwarder, flow table, rules, load balancing.
  r.set("dataplane.fwd_call_ns", p50(Layer::kFwdCall), "ns");
  r.set("dataplane.flow_find_ns", p50(Layer::kFlowFind), "ns");
  r.set("dataplane.rule_find_ns", p50(Layer::kRuleFind), "ns");
  r.set("dataplane.lb_pick_ns", p50(Layer::kLbPick), "ns");
  r.set("dataplane.teardown_ns", dp.teardown_ns.quantile(0.5), "ns");
  r.set("dataplane.flow_hit_ratio", ratio(dp.counted.hits, dp.counted.finds),
        "ratio");
  r.set("dataplane.flow_inserts_per_pkt",
        ratio(dp.counted.inserts, dp.counted_packets), "count");
  r.set("dataplane.flow_erases_per_pkt",
        ratio(dp.counted.erases, dp.counted_packets), "count");
  r.set("dataplane.flow_entries", static_cast<double>(dp.flow_entries),
        "count");

  // control: portal workflows, split into simulated-time phases.
  r.set("control.submit_us", control.submit_ns.quantile(0.5) / 1e3, "us");
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    const std::string phase = kPhaseNames[p];
    r.set("control.phase_sim_ms." + phase,
          ratio(control.phase_sim_us[p], static_cast<double>(control.ok_ops)) /
              1e3,
          "ms");
    r.set("control.phase_wall_us." + phase,
          ratio(control.phase_wall_ns[p],
                static_cast<double>(control.ok_ops)) /
              1e3,
          "us");
  }
  const ControlCounters& c = control.first_round;
  const std::uint64_t ops = control.first_round_ops;
  r.set("control.allocs_per_op", ratio(c.allocations, ops), "count");

  // sim, bus, journal, replication.
  r.set("sim.events_per_op", ratio(c.events, ops), "count");
  r.set("sim.step_us_p50", control.step_ns.quantile(0.5) / 1e3, "us");
  r.set("sim.step_us_p99", control.step_ns.quantile(0.99) / 1e3, "us");
  r.set("bus.published_per_op", ratio(c.published, ops), "count");
  r.set("bus.wan_msgs_per_op", ratio(c.wan_messages, ops), "count");
  r.set("bus.local_deliveries_per_op", ratio(c.local_deliveries, ops),
        "count");
  r.set("bus.acks_per_op", ratio(c.acks, ops), "count");
  r.set("journal.appends_per_op", ratio(c.journal_appends, ops), "count");
  r.set("journal.bytes_per_op", ratio(c.journal_bytes, ops), "B");
  r.set("repl.records_streamed_per_op", ratio(c.records_streamed, ops),
        "count");
  r.set("repl.compactions_per_round",
        ratio(control.compactions, control.rounds), "count");
  r.set("repl.quorum_ack_ms", control.quorum_ack_ms, "ms");
}

}  // namespace perfbench
