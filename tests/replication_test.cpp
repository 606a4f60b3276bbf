// Replicated controller (DESIGN.md §18, ctest label: replication):
// journal streaming to hot-standby followers, quorum-acked state changes,
// deterministic epoch-fenced leader failover with no replay window, and
// the chaos soak proving repeated leader kills converge byte-identically
// to the fault-free end state.  Soak length honors SWB_CHAOS_SOAK_MS.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "control/replication.hpp"
#include "sim/chaos_schedule.hpp"
#include "switchboard/switchboard.hpp"

namespace switchboard {
namespace {

using control::ChainSpec;
using control::ReplicaGroup;
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
  return dataplane::FiveTuple{0x0A040000u + i, 0xC0A80002u,
                              static_cast<std::uint16_t>(5000 + i), 443, 6};
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

DeploymentConfig replicated_config() {
  DeploymentConfig config;
  config.reliable_bus = true;   // replication streams need acked delivery
  return config;
}

/// Controller-side end-state fingerprint (chains, routes, weights, loads);
/// epochs and counters excluded — they legitimately differ between a
/// failed-over run and its fault-free reference.
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

// --------------------------------------------- streaming + quorum gating

TEST(Replication, StreamingKeepsHotStandbysConvergent) {
  model::NetworkModel m = make_two_pool_model();
  const VnfId fw = m.vnfs()[0].id;
  Middleware mw{std::move(m), replicated_config()};
  core::Deployment& dep = mw.deployment();
  dep.enable_replication(3);
  ReplicaGroup& group = *dep.replica_group();
  EXPECT_EQ(group.replica_count(), 3u);
  EXPECT_EQ(group.quorum(), 2u);   // majority of 3
  EXPECT_EQ(group.leader(), 0u);

  const EdgeServiceId edge = mw.register_edge_service("vpn");
  std::vector<ChainId> chains;
  for (int i = 0; i < 2; ++i) {
    const auto r =
        mw.create_chain(make_span_spec(edge, fw, "c" + std::to_string(i)));
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    chains.push_back(r->chain);
  }
  const sim::SimTime t0 = dep.simulator().now();
  dep.simulator().run_until(t0 + sim::from_ms(500.0));

  // Every follower holds every record the leader journaled, applied it to
  // its own ControllerState, and folded the identical digest: each hot
  // standby is the coordinator's journaled state, record for record.
  EXPECT_GT(group.records_streamed(), 0u);
  EXPECT_EQ(group.digest(1), group.leader_digest());
  EXPECT_EQ(group.digest(2), group.leader_digest());
  for (std::uint32_t r = 0; r < 3; ++r) {
    const control::ControllerState& state = group.state(r);
    EXPECT_EQ(state.chains.size(), 2u) << "replica " << r;
    for (const control::ChainRecord& chain : state.chains) {
      EXPECT_EQ(chain.routes.size(), 1u) << "replica " << r;
    }
    EXPECT_TRUE(state.inflight.empty()) << "replica " << r;
    EXPECT_EQ(state.encode_snapshot(),
              dep.global().state().encode_snapshot())
        << "replica " << r;
  }
  EXPECT_EQ(group.malformed_records(), 0u);

  // Commits were held at the quorum barrier: each release waited for a
  // real cross-site durability round trip, not zero time.
  EXPECT_GT(group.barriers_released(), 0u);
  EXPECT_EQ(group.barriers_dropped(), 0u);
  EXPECT_GT(group.mean_quorum_ack_ms(), 0.0);
  EXPECT_EQ(group.elections(), 0u);
  EXPECT_EQ(group.divergences(), 0u);

  group.verify_convergence();
  group.check_invariants();
  dep.global().check_invariants();
  dep.stop_replication();
}

TEST(Replication, FailedAddRouteLeavesNoAllocatorGap) {
  // A rejected add_route allocates nothing: the leader's route-id
  // allocator stays where its followers and its own journal replay say.
  model::NetworkModel m = make_two_pool_model();
  const VnfId fw = m.vnfs()[0].id;
  Middleware mw{std::move(m), replicated_config()};
  core::Deployment& dep = mw.deployment();
  dep.enable_replication(3);
  ReplicaGroup& group = *dep.replica_group();
  const EdgeServiceId edge = mw.register_edge_service("vpn");
  const auto created = mw.create_chain(make_span_spec(edge, fw, "c"));
  ASSERT_TRUE(created.ok()) << created.error().to_string();
  const auto added =
      mw.add_route(created->chain, {SiteId{1}, SiteId{2}});   // 1 VNF
  ASSERT_FALSE(added.ok());
  EXPECT_EQ(added.error().code, ErrorCode::kInvalidArgument);
  dep.simulator().run_until(dep.simulator().now() + sim::from_ms(500.0));

  const std::vector<std::string> leader =
      dep.global().state().encode_snapshot();
  for (std::uint32_t r = 1; r < group.replica_count(); ++r) {
    EXPECT_EQ(group.state(r).encode_snapshot(), leader) << "replica " << r;
  }
  const auto replayed =
      control::ControllerState::replay(group.journal(group.leader()).records());
  ASSERT_TRUE(replayed.ok()) << replayed.error().to_string();
  EXPECT_EQ(replayed->encode_snapshot(), leader);
  group.verify_convergence();
  dep.stop_replication();
}

TEST(Replication, SingleReplicaGroupReleasesBarriersImmediately) {
  // Quorum 1-of-1 degenerates to the plain durable controller: every
  // barrier releases with zero wait, and compaction happens locally.
  model::NetworkModel m = make_two_pool_model();
  const VnfId fw = m.vnfs()[0].id;
  DeploymentConfig config = replicated_config();
  config.replication.journal.snapshot_interval = 4;
  Middleware mw{std::move(m), config};
  core::Deployment& dep = mw.deployment();
  dep.enable_replication(1);
  ReplicaGroup& group = *dep.replica_group();
  EXPECT_EQ(group.quorum(), 1u);

  const EdgeServiceId edge = mw.register_edge_service("vpn");
  for (int i = 0; i < 3; ++i) {
    const auto r =
        mw.create_chain(make_span_spec(edge, fw, "c" + std::to_string(i)));
    ASSERT_TRUE(r.ok()) << r.error().to_string();
  }
  EXPECT_GT(group.barriers_released(), 0u);
  EXPECT_EQ(group.mean_quorum_ack_ms(), 0.0);
  EXPECT_EQ(group.records_streamed(), 0u);   // nobody to stream to
  EXPECT_GT(group.journal(0).snapshots_taken(), 0u);
  group.check_invariants();
  dep.stop_replication();
}

TEST(Replication, EveryReplicaCompactsItsOwnJournal) {
  // An aggressive snapshot interval forces compactions during chain
  // creation.  Each replica snapshots its own state into its own journal —
  // no snapshot crosses the bus in a fault-free run — and every journal
  // still replays to the leader's state.
  model::NetworkModel m = make_two_pool_model();
  const VnfId fw = m.vnfs()[0].id;
  DeploymentConfig config = replicated_config();
  config.replication.journal.snapshot_interval = 4;
  Middleware mw{std::move(m), config};
  core::Deployment& dep = mw.deployment();
  dep.enable_replication(3);
  ReplicaGroup& group = *dep.replica_group();

  const EdgeServiceId edge = mw.register_edge_service("vpn");
  std::vector<ChainId> chains;
  for (int i = 0; i < 3; ++i) {
    const auto r =
        mw.create_chain(make_span_spec(edge, fw, "c" + std::to_string(i)));
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    chains.push_back(r->chain);
  }
  const sim::SimTime t0 = dep.simulator().now();
  dep.simulator().run_until(t0 + sim::from_ms(500.0));

  EXPECT_EQ(group.snapshot_installs_sent(), 0u);
  EXPECT_GT(group.replicated_compactions(), 0u);
  const std::vector<std::string> leader_state =
      dep.global().state().encode_snapshot();
  for (std::uint32_t r = 0; r < group.replica_count(); ++r) {
    const control::StateJournal& journal = group.journal(r);
    EXPECT_GT(journal.snapshots_taken(), 0u) << "replica " << r;
    // Beyond the base snapshot: the replica truncated its own log.
    EXPECT_GT(journal.records_compacted(), 0u) << "replica " << r;
    const auto replayed = control::ControllerState::replay(journal.records());
    ASSERT_TRUE(replayed.ok()) << replayed.error().to_string();
    EXPECT_EQ(replayed->encode_snapshot(), leader_state) << "replica " << r;
    EXPECT_EQ(group.digest(r), group.leader_digest()) << "replica " << r;
  }
  group.verify_convergence();
  group.check_invariants();
  dep.stop_replication();
}

TEST(Replication, FollowerRestoresFromItsOwnCompactedJournal) {
  // A follower that compacted locally crashes with amnesia: restore
  // rebuilds its state from its own snapshot + log — the state it held at
  // the crash — and the leader's install then brings it level.
  model::NetworkModel m = make_two_pool_model();
  const VnfId fw = m.vnfs()[0].id;
  DeploymentConfig config = replicated_config();
  config.replication.journal.snapshot_interval = 4;
  Middleware mw{std::move(m), config};
  core::Deployment& dep = mw.deployment();
  dep.enable_replication(3);
  ReplicaGroup& group = *dep.replica_group();

  const EdgeServiceId edge = mw.register_edge_service("vpn");
  for (int i = 0; i < 3; ++i) {
    const auto r =
        mw.create_chain(make_span_spec(edge, fw, "c" + std::to_string(i)));
    ASSERT_TRUE(r.ok()) << r.error().to_string();
  }
  dep.simulator().run_until(dep.simulator().now() + sim::from_ms(500.0));
  ASSERT_GT(group.journal(2).records_compacted(), 0u);
  EXPECT_EQ(group.snapshot_installs_sent(), 0u);
  const std::vector<std::string> at_crash = group.state(2).encode_snapshot();
  EXPECT_EQ(at_crash, dep.global().state().encode_snapshot());

  dep.fault_injector().crash("controller:replica2");
  EXPECT_TRUE(group.state(2).chains.empty()) << "a crash keeps no state";
  const auto during = mw.create_chain(make_span_spec(edge, fw, "during"));
  ASSERT_TRUE(during.ok()) << during.error().to_string();
  dep.fault_injector().restore("controller:replica2");
  EXPECT_EQ(group.state(2).encode_snapshot(), at_crash);

  const auto after = mw.create_chain(make_span_spec(edge, fw, "after"));
  ASSERT_TRUE(after.ok()) << after.error().to_string();
  dep.simulator().run_until(dep.simulator().now() + sim::from_ms(500.0));
  EXPECT_EQ(group.elections(), 0u);
  EXPECT_GT(group.snapshot_installs_sent(), 0u);
  EXPECT_EQ(group.digest(2), group.leader_digest());
  EXPECT_EQ(group.state(2).chains.size(), 5u);
  group.verify_convergence();
  group.check_invariants();
  dep.stop_replication();
}

TEST(Replication, BusRetainsNoStreamFramesButStillReplaysRouteState) {
  // The replication stream and its acks are subscribed before the first
  // frame, so the bus keeps no copy of them (stream topics); the routes
  // topic is state, retained and replayed to a late subscriber.
  model::NetworkModel m = make_two_pool_model();
  const VnfId fw = m.vnfs()[0].id;
  DeploymentConfig config = replicated_config();
  config.replication.journal.snapshot_interval = 8;
  Middleware mw{std::move(m), config};
  core::Deployment& dep = mw.deployment();
  dep.enable_replication(3);
  ReplicaGroup& group = *dep.replica_group();

  const EdgeServiceId edge = mw.register_edge_service("vpn");
  constexpr std::size_t kChains = 12;
  for (std::size_t i = 0; i < kChains; ++i) {
    const auto r =
        mw.create_chain(make_span_spec(edge, fw, "c" + std::to_string(i)));
    ASSERT_TRUE(r.ok()) << r.error().to_string();
  }
  // A follower restart is re-synced with a snapshot install, so installs
  // stream too.
  dep.fault_injector().crash("controller:replica2");
  dep.fault_injector().restore("controller:replica2");
  dep.simulator().run_until(dep.simulator().now() + sim::from_ms(500.0));
  EXPECT_EQ(group.digest(2), group.leader_digest());
  dep.stop_replication();   // no frame is published from here on
  EXPECT_GE(group.records_streamed(), 50u);
  EXPECT_GT(group.snapshot_installs_sent(), 0u);
  const bus::BusStats& stats = dep.bus().stats();
  const std::uint64_t retained = stats.retained_payloads;
  EXPECT_GT(retained, 0u);
  EXPECT_GT(stats.retained_bytes, 0u);

  // A late subscriber at the one site hosting no replica replays
  // whatever the bus retained: nothing on any /ctl/repl/ topic...
  const SiteId late{3};
  int replayed_frames = 0;
  const auto count_frame = [&replayed_frames](const bus::Message&) {
    ++replayed_frames;
  };
  for (std::uint32_t from = 0; from < 3; ++from) {
    ASSERT_NE(group.site_of(from), late);
    for (std::uint32_t to = 0; to < 3; ++to) {
      if (from == to) continue;
      dep.bus().subscribe(late,
                          bus::replication_stream_topic(
                              from, to, group.site_of(from)),
                          count_frame);
      dep.bus().subscribe(
          late, bus::replication_ack_topic(from, to, group.site_of(from)),
          count_frame);
    }
  }
  // ...while the routes topic replays every route announcement.
  std::vector<std::string> routes;
  dep.bus().subscribe(late, dep.global().routes_topic(),
                      [&routes](const bus::Message& message) {
                        routes.push_back(message.payload);
                      });
  dep.simulator().run_until(dep.simulator().now() + sim::from_ms(500.0));
  EXPECT_EQ(replayed_frames, 0);
  EXPECT_GE(routes.size(), kChains);
  EXPECT_EQ(stats.retained_payloads, retained);
}

// ----------------------------------------------- hot failover mid-2PC

TEST(Replication, LeaderDeathMid2PCFailsOverToReferenceState) {
  // Two runs over the same model and inputs.  `kill` crashes the leader
  // after the second chain's 2PC prepare record was journaled and
  // streamed but before the commit round ran; the elected standby must
  // re-drive the prepared round under the bumped epoch with NO journal
  // replay charged, and land byte-identically on the fault-free end
  // state.
  auto run = [](bool kill) {
    model::NetworkModel m = make_two_pool_model();
    const VnfId fw = m.vnfs()[0].id;
    Middleware mw{std::move(m), replicated_config()};
    core::Deployment& dep = mw.deployment();
    dep.enable_replication(3);
    ReplicaGroup& group = *dep.replica_group();

    const EdgeServiceId edge = mw.register_edge_service("vpn");
    const auto a = mw.create_chain(make_span_spec(edge, fw, "a"));
    EXPECT_TRUE(a.ok());
    const ChainId chain_a = a->chain;

    // The second creation is driven manually: its completion callback
    // belongs to the doomed incarnation and must never fire.
    const sim::SimTime t0 = dep.simulator().now();
    bool done_fired = false;
    dep.global().create_chain(make_span_spec(edge, fw, "b"),
                              [&done_fired](Result<control::CreationReport>) {
                                done_fired = true;
                              });
    const ChainId chain_b{chain_a.value() + 1};

    if (kill) {
      // Timeline from t0: site resolve 35 ms, route compute +20 ms,
      // prepare round +35 ms -> prep journaled and streamed at 90 ms; the
      // commit waits on the prep quorum barrier and runs ~20 ms after the
      // acks land.  Crash at 95 ms: after the prep stream left the
      // leader, before the commit round.
      dep.fault_injector().crash_at(t0 + sim::from_ms(95.0),
                                    "controller:leader");
      dep.simulator().run_until(t0 + sim::from_ms(100.0));
      EXPECT_FALSE(group.replica_up(0));
      EXPECT_FALSE(dep.global().up());
    }

    dep.simulator().run_until(t0 + sim::from_ms(3000.0));

    if (kill) {
      EXPECT_FALSE(done_fired)
          << "the dead incarnation's callback must not fire";
      EXPECT_EQ(group.elections(), 1u);
      EXPECT_EQ(group.cold_restarts(), 0u);
      EXPECT_NE(group.leader(), 0u);
      EXPECT_EQ(dep.global().epoch(), 2u);

      // Hot promotion: the coordinator adopted the standby's live state,
      // so the failover replayed no record, charged zero replay cost, and
      // still re-drove the prepared commit.
      const control::ColdStartReport& report = dep.global().last_cold_start();
      EXPECT_EQ(report.replay_cost, sim::Duration{0});
      EXPECT_EQ(report.replayed_records, 0u);
      EXPECT_EQ(report.chains_restored, 2u);
      EXPECT_EQ(report.redriven_commits, 1u);
      EXPECT_FALSE(group.election_string().empty());
    } else {
      EXPECT_TRUE(done_fired);
      EXPECT_EQ(group.elections(), 0u);
      EXPECT_EQ(dep.global().epoch(), 1u);
    }

    // Both runs must deliver on both chains end to end.
    for (const ChainId chain : {chain_a, chain_b}) {
      const auto walk = mw.send(chain, tuple(7));
      EXPECT_TRUE(walk.delivered) << walk.failure;
    }
    EXPECT_EQ(group.divergences(), 0u);
    group.verify_convergence();
    group.check_invariants();
    dep.global().check_invariants();
    dep.stop_replication();
    return state_digest(dep, {chain_a, chain_b});
  };

  const std::string reference = run(false);
  const std::string failed_over = run(true);
  EXPECT_EQ(failed_over, reference);
}

TEST(Replication, RestoreBeforeDetectionTakesTheColdPath) {
  // A leader that crashes and restores inside the detection window was
  // never deposed: no election runs, and recovery is the legacy §13 cold
  // start — full replay cost charged.  This is the contrast the failover
  // bench measures.
  model::NetworkModel m = make_two_pool_model();
  const VnfId fw = m.vnfs()[0].id;
  Middleware mw{std::move(m), replicated_config()};
  core::Deployment& dep = mw.deployment();
  dep.enable_replication(3);
  ReplicaGroup& group = *dep.replica_group();

  const EdgeServiceId edge = mw.register_edge_service("vpn");
  const auto a = mw.create_chain(make_span_spec(edge, fw, "a"));
  ASSERT_TRUE(a.ok());

  const sim::SimTime t0 = dep.simulator().now();
  dep.fault_injector().crash_at(t0 + sim::from_ms(10.0), "controller:leader");
  dep.fault_injector().restore_at(t0 + sim::from_ms(60.0),
                                  "controller:leader");
  dep.simulator().run_until(t0 + sim::from_ms(3000.0));

  EXPECT_EQ(group.elections(), 0u);
  EXPECT_EQ(group.cold_restarts(), 1u);
  EXPECT_EQ(group.leader(), 0u);
  EXPECT_EQ(dep.global().epoch(), 2u);
  EXPECT_GT(dep.global().last_cold_start().replay_cost, sim::Duration{0});
  const auto walk = mw.send(a->chain, tuple(9));
  EXPECT_TRUE(walk.delivered) << walk.failure;
  group.verify_convergence();
  group.check_invariants();
  dep.stop_replication();
}

// ------------------------------------- the standby is the state

/// The coordinator's snapshot must equal the one rebuilt by replaying
/// `replica`'s own journal through the same decode + apply.
void expect_state_is_journal_replay(core::Deployment& dep,
                                    std::uint32_t replica) {
  const auto replayed = control::ControllerState::replay(
      dep.replica_group()->journal(replica).records());
  ASSERT_TRUE(replayed.ok()) << replayed.error().to_string();
  EXPECT_EQ(dep.global().state().encode_snapshot(),
            replayed->encode_snapshot());
}

TEST(Replication, PromotionAdoptsTheStandbyStateItsJournalReplaysTo) {
  // The leader dies with chain b's 2PC round prepared.  The winner's
  // ControllerState becomes the coordinator's without a journal replay,
  // and at every point afterwards it equals the state rebuilt by
  // replaying the winner's journal.
  model::NetworkModel m = make_two_pool_model();
  const VnfId fw = m.vnfs()[0].id;
  Middleware mw{std::move(m), replicated_config()};
  core::Deployment& dep = mw.deployment();
  dep.enable_replication(3);
  ReplicaGroup& group = *dep.replica_group();

  const EdgeServiceId edge = mw.register_edge_service("vpn");
  ASSERT_TRUE(mw.create_chain(make_span_spec(edge, fw, "a")).ok());
  const sim::SimTime t0 = dep.simulator().now();
  dep.global().create_chain(make_span_spec(edge, fw, "b"),
                            [](Result<control::CreationReport>) {});
  dep.fault_injector().crash_at(t0 + sim::from_ms(95.0), "controller:leader");

  sim::SimTime at = t0;
  while (group.elections() == 0 && at < t0 + sim::from_ms(3000.0)) {
    at += sim::from_ms(1.0);
    dep.simulator().run_until(at);
  }
  ASSERT_EQ(group.elections(), 1u);
  const std::uint32_t winner = group.leader();
  EXPECT_EQ(dep.global().last_cold_start().replayed_records, 0u);
  EXPECT_EQ(dep.global().last_cold_start().redriven_commits, 1u);
  expect_state_is_journal_replay(dep, winner);

  dep.simulator().run_until(t0 + sim::from_ms(3000.0));
  expect_state_is_journal_replay(dep, winner);
  for (std::uint32_t r = 0; r < group.replica_count(); ++r) {
    if (r == winner || !group.replica_up(r)) continue;
    EXPECT_EQ(group.state(r).encode_snapshot(),
              dep.global().state().encode_snapshot())
        << "follower " << r;
  }
  group.verify_convergence();
  dep.global().check_invariants();
  dep.stop_replication();
}

TEST(Replication, ChainLookupIsIndexedAcrossIdGapsReplayAndFailover) {
  // Lookups go through the id index ControllerState::apply maintains, so
  // they hold across a failed creation, an id the controller never
  // registered, a journal replay and a promoted standby's adopted state.
  model::NetworkModel m = make_two_pool_model();
  const VnfId fw = m.vnfs()[0].id;
  Middleware mw{std::move(m), replicated_config()};
  core::Deployment& dep = mw.deployment();
  dep.enable_replication(3);
  ReplicaGroup& group = *dep.replica_group();
  const EdgeServiceId edge = mw.register_edge_service("vpn");

  const auto a = mw.create_chain(make_span_spec(edge, fw, "a"));
  ASSERT_TRUE(a.ok()) << a.error().to_string();
  // Far more traffic than both pools hold: registered, then no route.
  ChainSpec heavy = make_span_spec(edge, fw, "heavy");
  heavy.forward_traffic = 1e6;
  ASSERT_FALSE(mw.create_chain(heavy).ok());
  const ChainId failed{a->chain.value() + 1};
  // A chain only the model knows: the controller's ids skip it.
  model::Chain outside;
  outside.ingress = NodeId{0};
  outside.egress = NodeId{3};
  outside.vnfs = {fw};
  outside.forward_traffic.assign(2, 0.0);
  outside.reverse_traffic.assign(2, 0.0);
  const ChainId gap = dep.network_model().add_chain(std::move(outside));
  ASSERT_EQ(gap.value(), failed.value() + 1);
  const auto b = mw.create_chain(make_span_spec(edge, fw, "b"));
  ASSERT_TRUE(b.ok()) << b.error().to_string();
  ASSERT_EQ(b->chain.value(), gap.value() + 1);
  dep.simulator().run_until(dep.simulator().now() + sim::from_ms(500.0));

  const auto expect_lookups = [&](const control::ControllerState& state,
                                  const std::string& where) {
    state.check_invariants();
    ASSERT_EQ(state.chains.size(), 3u) << where;
    const control::ChainRecord* found_a = state.find(a->chain);
    ASSERT_NE(found_a, nullptr) << where;
    EXPECT_EQ(found_a->spec.name, "a") << where;
    EXPECT_TRUE(found_a->active) << where;
    const control::ChainRecord* found_failed = state.find(failed);
    ASSERT_NE(found_failed, nullptr) << where;
    EXPECT_EQ(found_failed->spec.name, "heavy") << where;
    EXPECT_FALSE(found_failed->active) << where;
    EXPECT_EQ(state.find(gap), nullptr) << where;
    const control::ChainRecord* found_b = state.find(b->chain);
    ASSERT_NE(found_b, nullptr) << where;
    EXPECT_EQ(found_b->spec.name, "b") << where;
    EXPECT_EQ(state.find(ChainId{b->chain.value() + 1}), nullptr) << where;
    EXPECT_EQ(state.find(ChainId{}), nullptr) << where;
  };
  expect_lookups(dep.global().state(), "leader");
  EXPECT_EQ(dep.global().find_record(b->chain),
            dep.global().state().find(b->chain));
  EXPECT_EQ(dep.global().find_record(gap), nullptr);
  for (std::uint32_t r = 0; r < group.replica_count(); ++r) {
    expect_lookups(group.state(r), "replica " + std::to_string(r));
    const auto replayed =
        control::ControllerState::replay(group.journal(r).records());
    ASSERT_TRUE(replayed.ok()) << replayed.error().to_string();
    expect_lookups(*replayed, "replay of replica " + std::to_string(r));
  }

  // Failover: the winner's standby state, index included, becomes the
  // coordinator's.
  const sim::SimTime t0 = dep.simulator().now();
  dep.fault_injector().crash("controller:leader");
  sim::SimTime at = t0;
  while (group.elections() == 0 && at < t0 + sim::from_ms(3000.0)) {
    at += sim::from_ms(1.0);
    dep.simulator().run_until(at);
  }
  ASSERT_EQ(group.elections(), 1u);
  expect_lookups(dep.global().state(), "promoted leader");
  dep.simulator().run_until(dep.simulator().now() + sim::from_ms(500.0));
  const auto walk = mw.send(b->chain, tuple(11));
  EXPECT_TRUE(walk.delivered) << walk.failure;
  group.verify_convergence();
  dep.stop_replication();
}

TEST(Replication, SnapshotCutAtA2PCRecordHoldsThatRecord) {
  // With a 5-record interval, the replicated compaction fires inside the
  // append of add_route's begin record.  The install it cuts is
  // positioned after that record, so it must already hold the round:
  // otherwise the follower's journal replays a prep with no begin and the
  // promoted standby cannot resolve the round.
  model::NetworkModel m = make_two_pool_model();
  const VnfId fw = m.vnfs()[0].id;
  DeploymentConfig config = replicated_config();
  config.replication.journal.snapshot_interval = 5;
  Middleware mw{std::move(m), config};
  core::Deployment& dep = mw.deployment();
  dep.enable_replication(3);
  ReplicaGroup& group = *dep.replica_group();

  const EdgeServiceId edge = mw.register_edge_service("vpn");
  const auto a = mw.create_chain(make_span_spec(edge, fw, "a"));
  ASSERT_TRUE(a.ok());
  const sim::SimTime t0 = dep.simulator().now();
  dep.global().add_route(a->chain, {}, [](Result<control::CreationReport>) {});
  dep.fault_injector().crash_at(t0 + sim::from_ms(60.0), "controller:leader");
  dep.simulator().run_until(t0 + sim::from_ms(2000.0));

  EXPECT_EQ(group.malformed_records(), 0u);
  ASSERT_EQ(group.elections(), 1u);
  expect_state_is_journal_replay(dep, group.leader());
  const auto walk = mw.send(a->chain, tuple(11));
  EXPECT_TRUE(walk.delivered) << walk.failure;
  group.verify_convergence();
  dep.global().check_invariants();
  dep.stop_replication();
}

TEST(Replication, FollowerRestoredWhileLeaderIsDownRebuildsAndWins) {
  // A crashed follower forgets its state.  Restored while the leader is
  // also down, no install can reach it: it rebuilds from its own journal,
  // ties replica 1 on (epoch, applied), wins on id, and its rebuilt state
  // becomes the coordinator's.
  model::NetworkModel m = make_two_pool_model();
  const VnfId fw = m.vnfs()[0].id;
  Middleware mw{std::move(m), replicated_config()};
  core::Deployment& dep = mw.deployment();
  dep.enable_replication(3);
  ReplicaGroup& group = *dep.replica_group();

  const EdgeServiceId edge = mw.register_edge_service("vpn");
  std::vector<ChainId> chains;
  for (const char* name : {"a", "b"}) {
    const auto r = mw.create_chain(make_span_spec(edge, fw, name));
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    chains.push_back(r->chain);
  }
  sim::SimTime t0 = dep.simulator().now();
  dep.simulator().run_until(t0 + sim::from_ms(200.0));
  const std::vector<std::string> before =
      dep.global().state().encode_snapshot();

  t0 = dep.simulator().now();
  dep.fault_injector().crash_at(t0 + sim::from_ms(10.0),
                                "controller:replica2");
  dep.fault_injector().crash_at(t0 + sim::from_ms(20.0), "controller:leader");
  dep.fault_injector().restore_at(t0 + sim::from_ms(30.0),
                                  "controller:replica2");
  dep.simulator().run_until(t0 + sim::from_ms(25.0));
  EXPECT_TRUE(group.state(2).chains.empty()) << "a crash keeps no state";
  dep.simulator().run_until(t0 + sim::from_ms(35.0));
  EXPECT_EQ(group.state(2).encode_snapshot(), before);

  dep.simulator().run_until(t0 + sim::from_ms(2000.0));
  EXPECT_EQ(group.elections(), 1u);
  EXPECT_EQ(group.cold_restarts(), 0u);
  EXPECT_EQ(group.leader(), 2u);
  EXPECT_EQ(dep.global().epoch(), 2u);
  expect_state_is_journal_replay(dep, 2);
  for (std::uint32_t i = 0; i < chains.size(); ++i) {
    const auto walk = mw.send(chains[i], tuple(20 + i));
    EXPECT_TRUE(walk.delivered) << walk.failure;
  }
  group.verify_convergence();
  group.check_invariants();
  dep.global().check_invariants();
  dep.stop_replication();
}

TEST(Replication, ChainNamesSurviveColdStartAndFailoverVerbatim) {
  // The codec escapes the bytes its line grammar reserves, so a chain
  // name may hold any of them.
  const std::string name = "a;b%\n=c";
  model::NetworkModel m = make_two_pool_model();
  const VnfId fw = m.vnfs()[0].id;
  Middleware mw{std::move(m), replicated_config()};
  core::Deployment& dep = mw.deployment();
  dep.enable_replication(3);
  ReplicaGroup& group = *dep.replica_group();

  const EdgeServiceId edge = mw.register_edge_service("vpn");
  const auto a = mw.create_chain(make_span_spec(edge, fw, name));
  ASSERT_TRUE(a.ok()) << a.error().to_string();
  sim::SimTime t0 = dep.simulator().now();
  dep.simulator().run_until(t0 + sim::from_ms(200.0));
  EXPECT_EQ(group.state(1).find(a->chain)->spec.name, name);

  // Cold: the leader restores inside the detection window and replays.
  t0 = dep.simulator().now();
  dep.fault_injector().crash_at(t0 + sim::from_ms(10.0), "controller:leader");
  dep.fault_injector().restore_at(t0 + sim::from_ms(60.0),
                                  "controller:leader");
  dep.simulator().run_until(t0 + sim::from_ms(1000.0));
  ASSERT_EQ(group.cold_restarts(), 1u);
  EXPECT_EQ(dep.global().record(a->chain).spec.name, name);

  // Failover: the leader dies for good and a standby is promoted.
  t0 = dep.simulator().now();
  dep.fault_injector().crash_at(t0 + sim::from_ms(10.0), "controller:leader");
  dep.simulator().run_until(t0 + sim::from_ms(2000.0));
  ASSERT_EQ(group.elections(), 1u);
  EXPECT_EQ(dep.global().record(a->chain).spec.name, name);
  const auto walk = mw.send(a->chain, tuple(4));
  EXPECT_TRUE(walk.delivered) << walk.failure;
  group.verify_convergence();
  dep.stop_replication();
}

TEST(Replication, MalformedFramesAreDroppedUnackedAndCounted) {
  model::NetworkModel m = make_two_pool_model();
  const VnfId fw = m.vnfs()[0].id;
  Middleware mw{std::move(m), replicated_config()};
  core::Deployment& dep = mw.deployment();
  dep.enable_replication(3);
  ReplicaGroup& group = *dep.replica_group();

  const EdgeServiceId edge = mw.register_edge_service("vpn");
  ASSERT_TRUE(mw.create_chain(make_span_spec(edge, fw, "a")).ok());
  sim::SimTime t0 = dep.simulator().now();
  dep.simulator().run_until(t0 + sim::from_ms(200.0));

  const bus::Topic to_follower =
      bus::replication_stream_topic(0, 1, group.site_of(0));
  control::ReplicationFrame frame;
  frame.kind = control::ReplicationKind::kRecord;
  frame.epoch = dep.global().epoch();
  frame.seq = 1000;
  frame.records = {"t=bogus;n=1"};                     // does not decode
  dep.bus().publish(to_follower, control::serialize(frame));
  frame.records = {"t=epoch;n=7", "t=epoch;n=8"};      // two per frame
  dep.bus().publish(to_follower, control::serialize(frame));
  frame.kind = control::ReplicationKind::kSnapshotInstall;
  frame.records = {"t=epoch;n=1", "t=prep;chain=0;route=9"};   // no begin
  dep.bus().publish(to_follower, control::serialize(frame));
  dep.bus().publish(to_follower,   // sender id above UINT32_MAX
                    "type=repl;k=0;from=4294967296;ep=1;seq=1;dg=0;body=");

  t0 = dep.simulator().now();
  dep.simulator().run_until(t0 + sim::from_ms(200.0));
  EXPECT_EQ(group.malformed_records(), 4u);
  EXPECT_EQ(group.digest(1), group.leader_digest());
  EXPECT_EQ(group.state(1).encode_snapshot(),
            dep.global().state().encode_snapshot());
  EXPECT_EQ(group.divergences(), 0u);
  group.verify_convergence();
  group.check_invariants();
  dep.stop_replication();
}

// ------------------------------------------------ election determinism

TEST(Replication, ElectionIsDeterministicAcrossPresets) {
  // Three deployment presets, each run twice: the election trace —
  // election time, winner, epoch — must be byte-identical between runs of
  // the same preset.  Nothing in the failover path may consult wall
  // clocks, randomness, or container iteration order.
  struct Preset {
    std::uint32_t replicas;
    std::uint32_t quorum;   // 0 = majority
    double period_ms;
  };
  const std::vector<Preset> presets{{3, 0, 50.0}, {3, 2, 30.0}, {4, 0, 50.0}};

  auto run = [](const Preset& preset) {
    model::NetworkModel m = make_two_pool_model();
    const VnfId fw = m.vnfs()[0].id;
    DeploymentConfig config = replicated_config();
    config.replication.quorum = preset.quorum;
    config.replication.detector.period = sim::from_ms(preset.period_ms);
    Middleware mw{std::move(m), config};
    core::Deployment& dep = mw.deployment();
    dep.enable_replication(preset.replicas);
    ReplicaGroup& group = *dep.replica_group();

    const EdgeServiceId edge = mw.register_edge_service("vpn");
    const auto a = mw.create_chain(make_span_spec(edge, fw, "a"));
    EXPECT_TRUE(a.ok());

    const sim::SimTime t0 = dep.simulator().now();
    dep.fault_injector().crash_at(t0 + sim::from_ms(10.0),
                                  "controller:leader");
    dep.simulator().run_until(t0 + sim::from_ms(2000.0));
    EXPECT_EQ(group.elections(), 1u);
    dep.stop_replication();
    return group.election_string();
  };

  std::vector<std::string> traces;
  for (const Preset& preset : presets) {
    const std::string first = run(preset);
    EXPECT_FALSE(first.empty());
    EXPECT_EQ(first, run(preset)) << "election trace diverged between "
                                  << "identical runs";
    traces.push_back(first);
  }
  // The presets genuinely differ (different timing -> different traces).
  EXPECT_NE(traces[0], traces[1]);
}

// --------------------------------------- follower loss + catch-up resync

TEST(Replication, FollowerCrashDoesNotStallQuorumAndResyncsOnRestore) {
  model::NetworkModel m = make_two_pool_model();
  const VnfId fw = m.vnfs()[0].id;
  Middleware mw{std::move(m), replicated_config()};
  core::Deployment& dep = mw.deployment();
  dep.enable_replication(3);
  ReplicaGroup& group = *dep.replica_group();

  const EdgeServiceId edge = mw.register_edge_service("vpn");
  const auto a = mw.create_chain(make_span_spec(edge, fw, "a"));
  ASSERT_TRUE(a.ok());

  // Follower 2 dies; the 2-of-3 quorum (leader + follower 1) still
  // releases barriers, so the next creation completes during the outage.
  dep.fault_injector().crash("controller:replica2");
  const auto b = mw.create_chain(make_span_spec(edge, fw, "b"));
  ASSERT_TRUE(b.ok()) << b.error().to_string();
  EXPECT_EQ(group.digest(1), group.leader_digest());
  EXPECT_NE(group.digest(2), group.leader_digest());

  // Restore: the live leader re-syncs the amnesiac follower with a fresh
  // snapshot install; it converges without an election or cold start.
  dep.fault_injector().restore("controller:replica2");
  const sim::SimTime t0 = dep.simulator().now();
  dep.simulator().run_until(t0 + sim::from_ms(1000.0));

  EXPECT_EQ(group.elections(), 0u);
  EXPECT_EQ(group.cold_restarts(), 0u);
  EXPECT_GT(group.snapshot_installs_sent(), 0u);
  EXPECT_EQ(group.digest(2), group.leader_digest());
  group.verify_convergence();
  group.check_invariants();
  dep.stop_replication();
}

TEST(Replication, PartitionedLeaderIsAFalseSuspicionNotAnElection) {
  // The CP choice: heartbeat silence from a leader whose process is alive
  // (a pure partition) must never elect a second coordinator.  Move the
  // leader off the detector's site first, then cut the link between them.
  model::NetworkModel m = make_two_pool_model();
  const VnfId fw = m.vnfs()[0].id;
  Middleware mw{std::move(m), replicated_config()};
  core::Deployment& dep = mw.deployment();
  dep.enable_replication(3);
  ReplicaGroup& group = *dep.replica_group();

  const EdgeServiceId edge = mw.register_edge_service("vpn");
  const auto a = mw.create_chain(make_span_spec(edge, fw, "a"));
  ASSERT_TRUE(a.ok());

  // Kill replica 0 long enough for a real election, then bring it back as
  // a follower.
  const sim::SimTime t0 = dep.simulator().now();
  dep.fault_injector().crash_at(t0 + sim::from_ms(10.0), "controller:leader");
  dep.fault_injector().restore_at(t0 + sim::from_ms(800.0),
                                  "controller:leader");
  dep.simulator().run_until(t0 + sim::from_ms(1500.0));
  ASSERT_EQ(group.elections(), 1u);
  const std::uint32_t leader = group.leader();
  ASSERT_NE(leader, 0u);
  ASSERT_TRUE(group.replica_up(0));

  // Partition the new leader's site from the detector's site (site 0).
  // Its heartbeats go silent while its process stays up: the detector
  // suspects it, the group refuses to elect, and the suspicion is
  // counted as false.
  const SiteId leader_site = group.site_of(leader);
  dep.fault_injector().partition_sites(SiteId{0}, leader_site);
  dep.simulator().run_until(t0 + sim::from_ms(2300.0));
  EXPECT_GE(group.false_suspicions(), 1u);
  EXPECT_EQ(group.elections(), 1u);
  EXPECT_EQ(group.leader(), leader);

  // Heal; the stalled follower catches up via the beat-loop repair
  // install and the group converges again.
  dep.fault_injector().heal_sites(SiteId{0}, leader_site);
  dep.simulator().run_until(t0 + sim::from_ms(3500.0));
  const auto walk = mw.send(a->chain, tuple(3));
  EXPECT_TRUE(walk.delivered) << walk.failure;
  group.verify_convergence();
  group.check_invariants();
  dep.stop_replication();
}

// ----------------------------------------------------------- chaos soak

// Repeated scripted leader kills — every outage longer than the detection
// window, so each kill forces a real election — plus partitions between
// replica sites.  After the window heals and the tail settles, the
// controller state must be byte-identical to its own pre-chaos snapshot:
// failovers are invisible to the state machine.
TEST(ReplicationSoak, RepeatedLeaderKillsConvergeByteIdentically) {
  const double window_ms = soak_ms();
  model::NetworkModel m = make_two_pool_model();
  const VnfId fw = m.vnfs()[0].id;
  Middleware mw{std::move(m), replicated_config()};
  core::Deployment& dep = mw.deployment();
  dep.enable_replication(3);
  ReplicaGroup& group = *dep.replica_group();

  const EdgeServiceId edge = mw.register_edge_service("vpn");
  std::vector<ChainId> chains;
  for (int i = 0; i < 2; ++i) {
    const auto r =
        mw.create_chain(make_span_spec(edge, fw, "c" + std::to_string(i)));
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    chains.push_back(r->chain);
  }
  const sim::SimTime t0 = dep.simulator().now();
  dep.simulator().run_until(t0 + sim::from_ms(200.0));
  const std::string before = state_digest(dep, chains);

  // Detection needs ~period * (threshold + 1) of silence; a 400 ms floor
  // clears the 50 ms x 3 default with margin, so every kill is detected
  // and elected around, never ridden out.
  const sim::SimTime horizon = t0 + sim::from_ms(200.0 + window_ms);
  sim::ChaosSchedule chaos{
      dep.simulator(),
      dep.fault_injector(),
      {.start = t0 + sim::from_ms(250.0),
       .horizon = horizon,
       .mean_gap = sim::from_ms(400.0),
       .min_outage = sim::from_ms(400.0),
       .max_outage = sim::from_ms(700.0),
       .crash_weight = 3.0,
       .partition_weight = 1.0,
       .crash_targets = {"controller:leader", "controller:replica1",
                         "controller:replica2"},
       .partition_sites = {SiteId{0}, SiteId{1}, SiteId{2}}},
      0xFA110FELL};
  chaos.arm();
  ASSERT_FALSE(chaos.plan().empty());

  // Step through the window auditing the group at each boundary.
  for (sim::SimTime at = t0; at < horizon; at += sim::from_ms(250.0)) {
    dep.simulator().run_until(at + sim::from_ms(250.0));
    group.check_invariants();
    dep.global().check_invariants();
    dep.fault_injector().check_invariants();
  }

  // Heal-and-settle tail: repair installs re-sync stalled followers.
  dep.simulator().run_until(horizon + sim::from_ms(2500.0));
  dep.stop_replication();

  EXPECT_GE(group.elections(), 1u)
      << "every outage outlives detection, so the plan must have elected";
  EXPECT_EQ(group.divergences(), 0u);
  EXPECT_EQ(state_digest(dep, chains), before)
      << "failovers leaked into the controller state";
  for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(chains.size());
       ++i) {
    const auto walk = mw.send(chains[i], tuple(50 + i));
    EXPECT_TRUE(walk.delivered) << walk.failure;
  }
  group.verify_convergence();
  group.check_invariants();
  dep.global().check_invariants();
  dep.durable_store().check_invariants();
}

}  // namespace
}  // namespace switchboard
