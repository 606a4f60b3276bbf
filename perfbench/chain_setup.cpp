// chain_setup: closed-loop portal workflows against a 3-replica
// controller.  Each round builds a fresh deployment (set-up time), then
// issues 300 create_chain calls with an add_route after every 4th and an
// attach_edge after every 8th, each driven to completion or a simulated
// deadline.  Attaches the known attach_edge defect predicts will hang are
// held back and issued after the round's workflows as a defect probe,
// which is checked and counted but is not part of the measured
// operations.  Every round sends the same seed-derived inputs, so every
// round must produce the same digest.
#include <algorithm>
#include <string>
#include <vector>

#include "control.hpp"
#include "layers.hpp"
#include "paths.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using sb::dataplane::Direction;

constexpr std::size_t kCreates = 300;
constexpr std::size_t kAddRouteEvery = 4;
constexpr std::size_t kAttachEvery = 8;
constexpr double kChainTraffic = 0.5;
constexpr int kMinRounds = 2;
/// Simulated time the replicas get after the last workflow of a round to
/// finish streaming before convergence is checked.
constexpr sb::sim::Duration kSettle = sb::sim::seconds(1);

/// What a round's inputs are; identical for every round of a run.
struct Plan {
  std::vector<sb::control::ChainSpec> specs;
  std::vector<sb::SiteId> attach_sites;   // one per attach, uniform
};

/// Per-op facts the traced run keeps to attribute the latency tail.
struct TailSample {
  std::uint64_t wall_ns{0};
  std::array<std::uint64_t, kPhaseCount> phase_wall_ns{};
  std::uint64_t submit_ns{0};
  std::uint64_t max_step_ns{0};
  bool compacted{false};
};

struct Totals {
  Histogram op_ns, sim_us, first_half_ns, second_half_ns;
  std::vector<double> round_rate;   // ok ops per second of op wall time
  std::vector<double> setup_s;
  ControlTally control;
  DataplaneTally dp;
  std::vector<TailSample> tail;
  /// The defect probe: attach_edge calls the known defect predicts will
  /// never complete, and how they ended.  A predicted call that completes
  /// is not an error: it means the defect was fixed.
  std::uint64_t attaches_predicted_stuck{0};
  std::uint64_t expired_as_predicted{0};
  std::uint64_t predicted_but_completed{0};
  std::uint64_t chains_broken_by_attach{0};
};

/// The known attach_edge defect (left in the library): the workflow's
/// completion waits for a remote Local Switchboard to configure the
/// return path, and none does when the new edge site is the chain's
/// ingress or egress site (both are skipped as "not mobility") or when
/// the site itself hosts the first VNF of every route (a Local
/// Switchboard ignores edge announcements from its own site).  Those
/// calls never fire their callback and end at the simulated deadline.
bool attach_never_completes(const sb::control::ChainRecord& rec,
                            sb::SiteId site) {
  if (site == rec.ingress_site || site == rec.egress_site) return true;
  return std::all_of(rec.routes.begin(), rec.routes.end(),
                     [site](const sb::control::RouteRecord& route) {
                       return !route.vnf_sites.empty() &&
                              route.vnf_sites.front() == site;
                     });
}

/// A second symptom of the same defect: a stuck attach still installs its
/// edge rule, which holds only the next hop toward the first VNF, on the
/// edge instance's forwarder.  At the chain's egress site that forwarder
/// is the chain's own egress forwarder, and the rule can replace the one
/// that delivers to the egress edge: new connections of the chain are
/// then dropped there.  Only such chains may fail the verification walk.
bool attach_may_break_new_flows(const sb::control::ChainRecord& rec,
                                sb::SiteId site) {
  return site == rec.egress_site;
}

/// One round: fresh deployment, the planned workflows, then checks.
/// Returns the round's digest.
std::uint64_t run_round(const Plan& plan, Totals& t, RunResult& result,
                        bool first, std::uint64_t run_start,
                        std::uint64_t half) {
  const std::uint64_t setup_start = now_ns();
  System system = build_system();
  t.setup_s.push_back(static_cast<double>(now_ns() - setup_start) / 1e9);
  sb::core::Deployment& d = *system.deployment;
  sb::control::ReplicaGroup& group = *d.replica_group();

  WorkflowDriver driver{d, system.edge, t.control.step_ns};
  Digest digest;
  const ControlCounters before = ControlCounters::read(d);
  std::uint64_t ops = 0;
  std::uint64_t ok_ops = 0;
  std::uint64_t ops_wall_ns = 0;
  std::vector<sb::ChainId> created;
  std::vector<bool> may_break;   // parallel to created
  struct HeldAttach {
    sb::ChainId chain;
    sb::SiteId site;
  };
  std::vector<HeldAttach> held;   // predicted stuck, for the defect probe

  const auto record = [&](const OpOutcome& op) {
    ++ops;
    ++result.attempted;
    ops_wall_ns += op.wall_ns;
    digest.add(static_cast<std::uint64_t>(op.kind));
    digest.add(op.ok ? 1 : 0);
    if constexpr (trace::kTraced) t.control.add(op);
    if (!op.ok) {
      // No measured workflow may fail: the only known failure, the
      // attach_edge defect, is predicted and held back for the probe.
      ++result.failed;
      result.fail("a workflow failed that the attach_edge defect does not explain");
      return;
    }
    ++ok_ops;
    digest.add(static_cast<std::uint64_t>(op.sim_elapsed));
    if (!phases_consistent(op)) result.fail("workflow phases out of order");
    t.op_ns.add(op.wall_ns);
    (now_ns() - run_start < half ? t.first_half_ns : t.second_half_ns)
        .add(op.wall_ns);
    t.sim_us.add(static_cast<std::uint64_t>(op.sim_elapsed));
  };
  const auto compactions = [&group] { return group.replicated_compactions(); };

  std::size_t attach = 0;
  for (std::size_t c = 0; c < kCreates; ++c) {
    std::uint64_t compactions_before = 0;
    if constexpr (trace::kTraced) compactions_before = compactions();
    const auto traced = [&](const OpOutcome& op) {
      if constexpr (trace::kTraced) {
        if (op.ok) {
          t.tail.push_back({op.wall_ns, op.phase_wall_ns, op.submit_ns,
                            op.max_step_ns,
                            compactions() != compactions_before});
        }
        compactions_before = compactions();
      }
    };
    const OpOutcome create = driver.create_chain(plan.specs[c]);
    record(create);
    traced(create);
    if (!create.ok) continue;
    created.push_back(create.chain);
    may_break.push_back(false);
    if ((c + 1) % kAddRouteEvery == 0) {
      const OpOutcome op = driver.add_route(create.chain);
      record(op);
      traced(op);
    }
    if ((c + 1) % kAttachEvery == 0) {
      const sb::SiteId site = plan.attach_sites[attach++];
      const sb::control::ChainRecord& rec = d.global().record(create.chain);
      if (attach_never_completes(rec, site)) {
        held.push_back({create.chain, site});
        may_break.back() = attach_may_break_new_flows(rec, site);
        continue;
      }
      const OpOutcome op = driver.attach_edge(create.chain, site);
      record(op);
      traced(op);
    }
  }
  if (first) {
    t.control.first_round = ControlCounters::read(d).minus(before);
    t.control.first_round_ops = ops;
  }
  t.round_rate.push_back(static_cast<double>(ok_ops) * 1e9 /
                         static_cast<double>(ops_wall_ns));

  // The defect probe: every held-back attach is sent now, in plan order,
  // and must end by the deadline as predicted or complete (the defect
  // fixed); any other failure fails the run.
  for (const HeldAttach& h : held) {
    const OpOutcome op = driver.attach_edge(h.chain, h.site);
    digest.add(op.ok ? 1 : 0);
    ++t.attaches_predicted_stuck;
    if (op.ok) {
      ++t.predicted_but_completed;
    } else if (op.expired) {
      ++t.expired_as_predicted;
    } else {
      result.fail("a held-back attach_edge failed other than by the deadline");
    }
  }

  // Replication converged: let the streams settle, then every live
  // follower must hold the leader's digest.
  d.simulator().run_until(d.simulator().now() + kSettle);
  group.verify_convergence();
  for (std::uint32_t r = 0; r < group.replica_count(); ++r) {
    if (group.digest(r) != group.leader_digest()) {
      result.fail("replica digest differs from the leader after settling");
    }
  }
  ++t.control.rounds;
  t.control.compactions += group.replicated_compactions();
  t.control.quorum_ack_ms = group.mean_quorum_ack_ms();

  // The installed state: labels and routes of every created chain.
  for (const sb::ChainId chain : created) {
    const sb::control::ChainRecord& rec = d.global().record(chain);
    digest.add(rec.labels.chain);
    digest.add(rec.labels.egress_site);
    for (const sb::control::RouteRecord& route : rec.routes) {
      digest.add(route.id.value());
      for (const sb::SiteId site : route.vnf_sites) digest.add(site.value());
    }
  }

  // Rules installed means packets flow: one connection per chain, both
  // directions, symmetric; then every connection is closed and no flow
  // state may remain.  Only chains the attach_edge defect may break are
  // allowed to drop their new connection (counted, not failed).
  if constexpr (trace::kTraced) trace::g_enabled = true;
  const DataplaneCounters dp_before = DataplaneCounters::read(d);
  const std::uint64_t allocs_before = trace::allocations();
  std::uint64_t hops = 0;
  std::vector<PathForwarders> paths(created.size());
  for (std::size_t k = 0; k < created.size(); ++k) {
    const sb::control::ChainRecord& rec = d.global().record(created[k]);
    const sb::dataplane::FiveTuple tuple = connection_tuple(k);
    std::uint64_t inner_before = 0;
    if constexpr (trace::kTraced) inner_before = inner_trace_ns();
    const std::uint64_t t0 = now_ns();
    const auto fwd = d.inject(created[k], tuple, Direction::kForward);
    const auto rev = d.inject(created[k], tuple, Direction::kReverse);
    if constexpr (trace::kTraced) {
      t.dp.packets += 2;
      t.dp.inject_ns += now_ns() - t0;
      t.dp.inner_ns += inner_trace_ns() - inner_before;
    }
    hops += forwarder_hops(fwd) + forwarder_hops(rev);
    digest.add(fwd.delivered ? 1 : 0);
    if (may_break[k] && !fwd.delivered) {
      if (first) ++t.chains_broken_by_attach;
      // The walk left state at the forwarders before the drop; that it
      // is all closed is checked by the no-state-left test below.
      if (!paths[k].assign(fwd)) result.fail("path too long");
      continue;
    }
    if (!conforms(d, rec.spec.vnfs, fwd, rev) || !paths[k].assign(fwd)) {
      result.fail("a created chain does not carry packets symmetrically");
      continue;
    }
    for (const auto instance : fwd.vnf_instances()) digest.add(instance);
  }
  const std::uint64_t live_entries = total_flow_entries(d);
  for (std::size_t k = 0; k < created.size(); ++k) {
    const std::uint32_t erased =
        close_connection(d, d.global().record(created[k]).labels,
                         connection_tuple(k), paths[k], t.dp.teardown_ns);
    if (!may_break[k] && erased != paths[k].count) {
      result.fail("verification connection left no state to close");
    }
  }
  if (first) {
    t.dp.counted_packets = 2 * created.size();
    t.dp.counted_hops = hops;
    t.dp.counted_allocations = trace::allocations() - allocs_before;
    t.dp.counted = DataplaneCounters::read(d).minus(dp_before);
    t.dp.flow_entries = live_entries;
  }
  trace::g_enabled = false;
  if (total_flow_entries(d) != 0) {
    result.fail("flow state left after closing verification connections");
  }
  return digest.value();
}

}  // namespace

RunResult run_chain_setup(const Options& options) {
  RunResult result;
  Totals t;

  // The plan needs only the fixed network, so one throwaway system
  // supplies the node and VNF catalog.
  Plan plan;
  {
    const System probe = build_system();
    sb::Rng rng{options.seed};
    plan.specs = make_chain_specs(rng, probe.deployment->network_model(),
                                  probe.edge, kCreates, kChainTraffic);
    const auto sites = static_cast<std::int64_t>(
        probe.deployment->network_model().sites().size());
    for (std::size_t a = 0; a < kCreates / kAttachEvery; ++a) {
      plan.attach_sites.push_back(
          sb::SiteId{static_cast<std::uint32_t>(rng.uniform_int(0, sites - 1))});
    }
  }

  const auto run_ns = static_cast<std::uint64_t>(options.seconds * 1e9);
  const std::uint64_t start = now_ns();
  std::uint64_t first_digest = 0;
  double rss_after_first = 0.0;
  int rounds = 0;
  while (rounds < kMinRounds || now_ns() - start < run_ns) {
    const std::uint64_t digest =
        run_round(plan, t, result, rounds == 0, start, run_ns / 2);
    if (rounds == 0) {
      first_digest = digest;
      rss_after_first = current_rss_mb();
    } else if (digest != first_digest) {
      result.fail("round digest differs from the first round's");
    }
    ++rounds;
  }
  const double rss_end = current_rss_mb();
  // Rounds restart from scratch, so nothing may accumulate across them.
  if (rss_end > rss_after_first * 1.10 + 16.0) {
    result.fail("resident memory grew across identical rounds");
  }
  result.note("rounds", std::to_string(rounds));
  result.note("round_digest", std::to_string(first_digest));
  result.note("ops_per_round",
              std::to_string(result.attempted / static_cast<unsigned>(rounds)));
  result.note("attach_predicted_stuck_per_round",
              std::to_string(t.attaches_predicted_stuck /
                             static_cast<unsigned>(rounds)));
  result.note("chains_broken_by_attach_per_round",
              std::to_string(t.chains_broken_by_attach));
  result.note("attach_expired_as_predicted_per_round",
              std::to_string(t.expired_as_predicted /
                             static_cast<unsigned>(rounds)));
  result.note("attach_predicted_but_completed_per_round",
              std::to_string(t.predicted_but_completed /
                             static_cast<unsigned>(rounds)));
  result.note("rss_mb_first_round_end",
              std::to_string(rss_after_first) + " " + std::to_string(rss_end));
  result.note("op_us_p50_first_second_half",
              std::to_string(t.first_half_ns.quantile(0.5) / 1e3) + " " +
                  std::to_string(t.second_half_ns.quantile(0.5) / 1e3));

  if constexpr (trace::kTraced) {
    // Attribute the ops above the traced p99 to where their wall time
    // went: simulator steps by phase, the submit call, and whether a
    // replicated compaction completed during the op.
    const double p99 = t.op_ns.quantile(0.99);
    std::array<double, kPhaseCount> phase_ns{};
    double total_ns = 0.0;
    double submit_ns = 0.0;
    std::uint64_t tail_ops = 0;
    std::uint64_t with_compaction = 0;
    std::vector<double> max_step_us;
    for (const TailSample& s : t.tail) {
      if (static_cast<double>(s.wall_ns) <= p99) continue;
      ++tail_ops;
      total_ns += static_cast<double>(s.wall_ns);
      submit_ns += static_cast<double>(s.submit_ns);
      for (std::size_t p = 0; p < kPhaseCount; ++p) {
        phase_ns[p] += static_cast<double>(s.phase_wall_ns[p]);
      }
      if (s.compacted) ++with_compaction;
      max_step_us.push_back(static_cast<double>(s.max_step_ns) / 1e3);
    }
    result.note("tail.ops_above_p99", std::to_string(tail_ops));
    result.note("tail.p99_us", std::to_string(p99 / 1e3));
    result.note("tail.with_compaction", std::to_string(with_compaction));
    result.note("tail.median_max_step_us", std::to_string(median(max_step_us)));
    result.note("tail.submit_share",
                std::to_string(total_ns > 0 ? submit_ns / total_ns : 0.0));
    for (std::size_t p = 0; p < kPhaseCount; ++p) {
      result.note(std::string{"tail.phase_share."} + kPhaseNames[p],
                  std::to_string(total_ns > 0 ? phase_ns[p] / total_ns : 0.0));
    }
    report_layers(result, t.control, t.dp, t.op_ns.quantile(0.5) / 1e3);
  } else {
    // Wall-clock figures: printed, not gated (see README, "Dropped").
    result.note("wall.op_us_p50", t.op_ns.quantile(0.5) / 1e3, "us");
    result.note("wall.op_us_p99", t.op_ns.quantile(0.99) / 1e3, "us");
    result.note("wall.ops_per_s", median(t.round_rate), "1/s");
    result.set("sim_ms_p50", t.sim_us.quantile(0.5) / 1e3, "ms");
    result.set("sim_ms_p99", t.sim_us.quantile(0.99) / 1e3, "ms");
    result.set("ok_ratio",
               static_cast<double>(result.attempted - result.failed) /
                   static_cast<double>(result.attempted),
               "ratio");
    result.set("setup_s", median(t.setup_s), "s");
    result.set("peak_rss_mb", peak_rss_mb(), "MB");
  }
  return result;
}

}  // namespace perfbench
