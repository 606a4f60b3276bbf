// Chaos-soak harness (ctest label: chaos): seeded randomized fault
// interleavings — controller crash-with-amnesia, site crashes, partitions,
// message drop/duplicate/delay — driven by sim::ChaosSchedule against a
// durable deployment.  Two properties are asserted: (1) after the chaos
// window heals, a run that only suffered controller amnesia converges to
// the byte-identical end state of a fault-free reference run, and (2)
// under full chaos every layer's check_invariants() holds at each step
// and the surviving chains still deliver traffic.  The soak length is
// CI-tunable via SWB_CHAOS_SOAK_MS (simulated milliseconds of chaos;
// sanitizer jobs run it longer).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "sim/chaos_schedule.hpp"
#include "switchboard/switchboard.hpp"

namespace switchboard {
namespace {

using control::ChainSpec;
using core::DeploymentConfig;
using core::Middleware;

/// Simulated chaos-window length; CI's sanitizer soak raises it.
double soak_ms() {
  if (const char* env = std::getenv("SWB_CHAOS_SOAK_MS")) {
    const double parsed = std::atof(env);
    if (parsed > 0.0) return parsed;
  }
  return 1500.0;
}

dataplane::FiveTuple tuple(std::uint32_t i) {
  return dataplane::FiveTuple{0x0A030000u + i, 0xC0A80002u,
                              static_cast<std::uint16_t>(4000 + i), 443, 6};
}

/// Line A(0) - X(1) - Y(2) - B(3); firewall deployed at X and Y.
model::NetworkModel make_two_pool_model() {
  model::NetworkModel m{net::make_line_topology(4, 100.0, 5.0)};
  m.add_site(NodeId{0}, 100.0, "A");
  m.add_site(NodeId{1}, 100.0, "X");
  m.add_site(NodeId{2}, 100.0, "Y");
  m.add_site(NodeId{3}, 100.0, "B");
  const VnfId fw = m.add_vnf("fw", 1.0);
  m.deploy_vnf(fw, SiteId{1}, 100.0);
  m.deploy_vnf(fw, SiteId{2}, 100.0);
  return m;
}

ChainSpec make_span_spec(EdgeServiceId edge, VnfId fw, std::string name) {
  ChainSpec spec;
  spec.name = std::move(name);
  spec.ingress_service = edge;
  spec.egress_service = edge;
  spec.ingress_node = NodeId{0};
  spec.egress_node = NodeId{3};
  spec.vnfs = {fw};
  spec.forward_traffic = 1.0;
  spec.reverse_traffic = 0.5;
  return spec;
}

/// Controller-side end-state fingerprint (chains, routes, weights, loads);
/// epochs and counters excluded — they legitimately differ across runs.
std::string state_digest(core::Deployment& dep,
                         const std::vector<ChainId>& chains) {
  std::ostringstream out;
  out << std::setprecision(17);
  for (const ChainId chain : chains) {
    const control::ChainRecord* rec = dep.global().find_record(chain);
    if (rec == nullptr) {
      out << "c" << chain.value() << "=absent\n";
      continue;
    }
    out << "c" << rec->id.value() << " active=" << rec->active;
    for (const control::RouteRecord& route : rec->routes) {
      out << " r" << route.id.value() << "@";
      for (const SiteId site : route.vnf_sites) out << site.value() << ",";
      out << "w=" << route.weight;
    }
    out << "\n";
  }
  const te::Loads& loads = dep.global().loads();
  const model::NetworkModel& m = dep.network_model();
  for (std::size_t e = 0; e < m.topology().link_count(); ++e) {
    out << "L" << e << "="
        << loads.link_load(LinkId{static_cast<std::uint32_t>(e)}) << "\n";
  }
  for (std::size_t s = 0; s < m.sites().size(); ++s) {
    const SiteId site{static_cast<std::uint32_t>(s)};
    out << "S" << s << "=" << loads.site_load(site);
    for (std::size_t f = 0; f < m.vnfs().size(); ++f) {
      out << " v" << f
          << "=" << loads.vnf_site_load(VnfId{static_cast<std::uint32_t>(f)},
                                        site);
    }
    out << "\n";
  }
  return out.str();
}

// ----------------------------------------------------- plan determinism

TEST(ChaosSchedule, SameSeedSameConfigDrawsTheIdenticalPlan) {
  auto plan = [](std::uint64_t seed) {
    sim::Simulator sim;
    sim::FaultInjector faults{sim, 1};
    faults.register_target("controller:global", [](bool) {});
    sim::ChaosConfig config;
    config.start = sim::from_ms(10.0);
    config.horizon = sim::from_ms(2000.0);
    config.mean_gap = sim::from_ms(150.0);
    config.min_outage = sim::from_ms(20.0);
    config.max_outage = sim::from_ms(120.0);
    config.crash_targets = {"controller:global"};
    config.partition_sites = {SiteId{0}, SiteId{1}, SiteId{2}};
    sim::ChaosSchedule chaos{sim, faults, config, seed};
    chaos.arm();
    chaos.check_invariants();
    EXPECT_EQ(chaos.crashes_planned() + chaos.partitions_planned(),
              chaos.plan().size());
    EXPECT_FALSE(chaos.plan().empty());
    return chaos.plan_string();
  };
  const std::string a = plan(42);
  EXPECT_EQ(a, plan(42));
  EXPECT_NE(a, plan(43));
}

TEST(ChaosSchedule, EveryOutageHealsBeforeTheHorizon) {
  sim::Simulator sim;
  sim::FaultInjector faults{sim, 1};
  faults.register_target("controller:global", [](bool) {});
  sim::ChaosConfig config;
  config.start = 0;
  config.horizon = sim::from_ms(500.0);
  config.mean_gap = sim::from_ms(40.0);
  config.min_outage = sim::from_ms(100.0);
  config.max_outage = sim::from_ms(900.0);   // longer than the window
  config.partition_weight = 0.0;
  config.crash_targets = {"controller:global"};
  sim::ChaosSchedule chaos{sim, faults, config, 7};
  chaos.arm();
  chaos.check_invariants();   // asserts heal-before-horizon per event
  sim.run_until(config.horizon);
  EXPECT_FALSE(faults.is_down("controller:global"));
}

/// The live coordinator state must be exactly what its own journal
/// replays to: the live path and replay share one interpreter.
void expect_state_matches_journal(core::Deployment& dep) {
  const auto replayed =
      control::ControllerState::replay(dep.state_journal()->records());
  ASSERT_TRUE(replayed.ok()) << replayed.error().to_string();
  EXPECT_EQ(replayed->encode_snapshot(),
            dep.global().state().encode_snapshot());
}

// ------------------------------------------- soak A: amnesia convergence

// Repeated controller crash-with-amnesia plus message drop/duplicate/delay
// during the chaos window; after it heals, the deployment must land on the
// byte-identical controller state of a run that saw no faults at all.
TEST(ChaosSoak, AmnesiaUnderMessageChaosConvergesToFaultFreeReference) {
  const double window_ms = soak_ms();
  auto run = [window_ms](bool chaos_on) {
    model::NetworkModel m = make_two_pool_model();
    const VnfId fw = m.vnfs()[0].id;
    DeploymentConfig config;
    config.durable_controller = true;
    config.reliable_bus = true;
    Middleware mw{std::move(m), config};
    core::Deployment& dep = mw.deployment();

    const EdgeServiceId edge = mw.register_edge_service("vpn");
    std::vector<ChainId> chains;
    for (int i = 0; i < 2; ++i) {
      const auto r =
          mw.create_chain(make_span_spec(edge, fw, "c" + std::to_string(i)));
      EXPECT_TRUE(r.ok()) << r.error().to_string();
      chains.push_back(r->chain);
    }
    dep.register_fault_targets();

    const sim::SimTime t0 = dep.simulator().now();
    const sim::SimTime horizon = t0 + sim::from_ms(window_ms);
    sim::ChaosSchedule chaos{dep.simulator(),
                             dep.fault_injector(),
                             {.start = t0 + sim::from_ms(20.0),
                              .horizon = horizon,
                              .mean_gap = sim::from_ms(250.0),
                              .min_outage = sim::from_ms(40.0),
                              .max_outage = sim::from_ms(200.0),
                              .partition_weight = 0.0,
                              .crash_targets = {"controller:global"},
                              .partition_sites = {}},
                             0xC0FFEEULL};
    if (chaos_on) {
      sim::MessageFaultConfig message_faults;
      message_faults.drop_probability = 0.05;
      message_faults.duplicate_probability = 0.05;
      message_faults.delay_probability = 0.10;
      message_faults.max_extra_delay = sim::from_ms(15.0);
      dep.fault_injector().set_message_faults(message_faults);
      chaos.arm();
    }

    dep.simulator().run_until(horizon);
    if (chaos_on) {
      EXPECT_FALSE(dep.fault_injector().is_down("controller:global"));
      dep.fault_injector().set_message_faults({});
    }
    dep.simulator().run_until(horizon + sim::from_ms(1500.0));

    // Liveness after the heal-and-settle tail: both chains deliver.
    for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(chains.size());
         ++i) {
      const auto walk = mw.send(chains[i], tuple(i));
      EXPECT_TRUE(walk.delivered) << walk.failure;
    }
    dep.global().check_invariants();
    dep.state_journal()->check_invariants();
    dep.durable_store().check_invariants();
    dep.fault_injector().check_invariants();
    expect_state_matches_journal(dep);
    if (chaos_on) {
      EXPECT_GT(dep.global().epoch(), 1u)
          << "the chaos plan never crashed the controller";
    }
    return state_digest(dep, chains);
  };

  const std::string reference = run(false);
  const std::string chaotic = run(true);
  EXPECT_EQ(chaotic, reference);
}

// --------------------------------------------- soak B: invariants + liveness

// Full chaos — controller amnesia, a VNF-hosting site crashing (detector
// suspicion -> pool retire -> replacement -> restore), edge/controller
// partitions, and lossy messaging — with the whole recovery pipeline
// running.  Every layer's invariant audit must hold at every step, and
// after the tail settles the chains must still deliver end to end.
TEST(ChaosSoak, FullChaosKeepsInvariantsAndConvergesLive) {
  const double window_ms = soak_ms();
  model::NetworkModel m = make_two_pool_model();
  const VnfId fw = m.vnfs()[0].id;
  DeploymentConfig config;
  config.durable_controller = true;
  config.reliable_bus = true;
  config.detector.period = sim::from_ms(50.0);
  config.detector.suspicion_threshold = 3;
  Middleware mw{std::move(m), config};
  core::Deployment& dep = mw.deployment();

  const EdgeServiceId edge = mw.register_edge_service("vpn");
  std::vector<ChainId> chains;
  for (int i = 0; i < 2; ++i) {
    const auto r =
        mw.create_chain(make_span_spec(edge, fw, "c" + std::to_string(i)));
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    chains.push_back(r->chain);
  }
  dep.enable_recovery();

  const sim::SimTime t0 = dep.simulator().now();
  const sim::SimTime horizon = t0 + sim::from_ms(window_ms);
  // Victims: the controller (amnesia) and site Y (pool retire/restore).
  // Partitions pair the controller's site with the egress edge — lossy
  // control traffic without detaching a VNF pool, so liveness stays
  // provable after the heal.
  sim::ChaosSchedule chaos{dep.simulator(),
                           dep.fault_injector(),
                           {.start = t0 + sim::from_ms(20.0),
                            .horizon = horizon,
                            .mean_gap = sim::from_ms(300.0),
                            .min_outage = sim::from_ms(50.0),
                            .max_outage = sim::from_ms(250.0),
                            .crash_weight = 2.0,
                            .partition_weight = 1.0,
                            .crash_targets = {"controller:global", "site:2"},
                            .partition_sites = {SiteId{0}, SiteId{3}}},
                           0xDECAFULL};
  sim::MessageFaultConfig message_faults;
  message_faults.drop_probability = 0.02;
  message_faults.duplicate_probability = 0.05;
  message_faults.delay_probability = 0.10;
  message_faults.max_extra_delay = sim::from_ms(10.0);
  dep.fault_injector().set_message_faults(message_faults);
  chaos.arm();
  ASSERT_FALSE(chaos.plan().empty());

  // Step through the window auditing every layer at each step boundary.
  for (sim::SimTime at = t0; at < horizon; at += sim::from_ms(250.0)) {
    dep.simulator().run_until(at + sim::from_ms(250.0));
    dep.global().check_invariants();
    dep.failure_detector().check_invariants();
    dep.state_journal()->check_invariants();
    dep.durable_store().check_invariants();
    dep.fault_injector().check_invariants();
    chaos.check_invariants();
  }

  // Heal-and-settle tail: chaos is over (the schedule guarantees it),
  // message faults off, detector re-observes site Y, replacements finish.
  dep.fault_injector().set_message_faults({});
  dep.simulator().run_until(horizon + sim::from_ms(2000.0));
  dep.stop_recovery();

  EXPECT_FALSE(dep.fault_injector().is_down("controller:global"));
  EXPECT_FALSE(dep.fault_injector().is_down("site:2"));
  dep.global().check_invariants();
  dep.failure_detector().check_invariants();
  dep.state_journal()->check_invariants();

  // Liveness: every chain is active again and delivers a fresh flow.
  for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(chains.size());
       ++i) {
    const control::ChainRecord& rec = mw.chain_record(chains[i]);
    EXPECT_TRUE(rec.active) << "chain " << chains[i] << " never recovered";
    EXPECT_FALSE(rec.routes.empty());
    const auto walk = mw.send(chains[i], tuple(100 + i));
    EXPECT_TRUE(walk.delivered) << walk.failure;
  }
  expect_state_matches_journal(dep);
}

}  // namespace
}  // namespace switchboard
