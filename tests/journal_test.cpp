// Controller durability (DESIGN.md §13): DurableStore and StateJournal
// mechanics, TwoPhaseTracker replay idempotency, and the crash-with-
// amnesia recovery path of the Global Switchboard — cold start from
// snapshot+replay, re-driven 2PC commits, epoch fencing at participants
// and Local Switchboards, and reconciliation of orphaned capacity.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iomanip>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "sim/durable_store.hpp"
#include "switchboard/switchboard.hpp"

namespace switchboard {
namespace {

using control::ChainSpec;
using control::StateJournal;
using control::TwoPhaseState;
using control::TwoPhaseTracker;
using core::DeploymentConfig;
using core::Middleware;

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

/// End-state fingerprint: chain/route/weight structure plus the full load
/// model, formatted round-trip-exact so two runs can be compared byte for
/// byte.  Excludes epochs and counters, which legitimately differ between
/// a crashed run and its fault-free reference.
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
    const LinkId link{static_cast<LinkId::underlying_type>(e)};
    out << "L" << e << "=" << loads.link_load(link) << "\n";
  }
  for (std::size_t s = 0; s < m.sites().size(); ++s) {
    const SiteId site{static_cast<SiteId::underlying_type>(s)};
    out << "S" << s << "=" << loads.site_load(site);
    for (std::size_t f = 0; f < m.vnfs().size(); ++f) {
      const VnfId vnf{static_cast<VnfId::underlying_type>(f)};
      out << " v" << f << "=" << loads.vnf_site_load(vnf, site);
    }
    out << "\n";
  }
  return out.str();
}

// ---------------------------------------------------------- DurableStore

TEST(DurableStore, AppendWriteReadEraseAndCounters) {
  sim::DurableStore store;
  EXPECT_FALSE(store.exists("a"));
  EXPECT_EQ(store.read("a"), "");

  store.append("a", "one\n");
  store.append("a", "two\n");
  EXPECT_TRUE(store.exists("a"));
  EXPECT_EQ(store.read("a"), "one\ntwo\n");
  EXPECT_EQ(store.appends(), 2u);

  store.write("a", "fresh\n");
  EXPECT_EQ(store.read("a"), "fresh\n");
  EXPECT_EQ(store.writes(), 1u);
  EXPECT_GE(store.bytes_written(), std::string{"one\ntwo\nfresh\n"}.size());

  store.erase("a");
  EXPECT_FALSE(store.exists("a"));
  EXPECT_EQ(store.read("a"), "");
  store.check_invariants();
}

// ---------------------------------------------------------- record codec

TEST(JournalCodec, EncodesTheTextWireFormatByteForByte) {
  namespace journal = control::journal;
  control::ChainRecord c;
  c.id = ChainId{3};
  c.spec.name = "web";
  c.spec.ingress_service = EdgeServiceId{0};
  c.spec.ingress_node = NodeId{0};
  c.spec.egress_service = EdgeServiceId{0};
  c.spec.egress_node = NodeId{3};
  c.spec.vnfs = {VnfId{0}, VnfId{1}};
  c.spec.forward_traffic = 1.0 / 3.0;
  c.spec.reverse_traffic = 0.5;
  c.labels = dataplane::Labels{1003, 3};
  c.ingress_site = SiteId{0};
  c.egress_site = SiteId{3};
  EXPECT_EQ(control::encode(journal::Chain{c}),
            "t=chain;id=3;name=web;ins=0;inn=0;egs=0;egn=3;vnfs=0,1;"
            "ft=0.33333333333333331;rt=0.5;cl=1003;el=3;insite=0;egsite=3");
  const journal::Round round{ChainId{3}, RouteId{7}};
  EXPECT_EQ(control::encode(journal::Begin{ChainId{3}, RouteId{7},
                                           {SiteId{1}, SiteId{2}}}),
            "t=begin;chain=3;route=7;sites=1,2");
  EXPECT_EQ(control::encode(journal::Prep{round}), "t=prep;chain=3;route=7");
  EXPECT_EQ(control::encode(journal::Commit{round}),
            "t=commit;chain=3;route=7");
  EXPECT_EQ(control::encode(journal::Abort{round}), "t=abort;chain=3;route=7");
  EXPECT_EQ(control::encode(journal::Retire{round}),
            "t=retire;chain=3;route=7");
  EXPECT_EQ(control::encode(journal::Epoch{2}), "t=epoch;n=2");
  EXPECT_EQ(control::encode(journal::NextRouteId{8}), "t=nri;n=8");
  EXPECT_EQ(control::encode(journal::PoolDown{VnfId{1}, SiteId{2}, 0.1}),
            "t=pooldown;vnf=1;site=2;cap=0.10000000000000001");
  EXPECT_EQ(control::encode(journal::PoolUp{VnfId{1}, SiteId{2}}),
            "t=poolup;vnf=1;site=2");

  // The name is the one escaped field.
  c.spec.name = "a;b%\n=c";
  const std::string line = control::encode(journal::Chain{c});
  EXPECT_NE(line.find(";name=a%3Bb%25%0A=c;"), std::string::npos) << line;
  const auto decoded = control::decode(line);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(std::get<journal::Chain>(*decoded).chain.spec.name, c.spec.name);
}

/// The stream formatting the codec used before it wrote through
/// std::to_chars — kept here only as the byte-identity reference.
std::string stream_format(double value) {
  std::ostringstream out;
  out << std::setprecision(17) << value;
  return out.str();
}

std::string printf_format(double value) {
  char text[64];
  std::snprintf(text, sizeof text, "%.17g", value);
  return text;
}

TEST(JournalCodec, NumbersMatchPrintfAndTheStreamReferenceByteForByte) {
  namespace journal = control::journal;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> values = {
      0.0, -0.0, kInf, -kInf, 1e308, 1e-308, -1e308, 0.1, 1.0 / 3.0, 0.5,
      1.0, 100.0, 1e17, 123456789012345678.0,
      std::numeric_limits<double>::max(), std::numeric_limits<double>::min(),
      std::numeric_limits<double>::denorm_min(), 4.9e-320, -2.5e-310,
      std::numeric_limits<double>::quiet_NaN()};
  std::mt19937_64 bits{20240601};
  for (int i = 0; i < 20000; ++i) {
    values.push_back(std::bit_cast<double>(bits()));
  }
  for (const double value : values) {
    const std::string line =
        control::encode(journal::PoolDown{VnfId{1}, SiteId{2}, value});
    const std::string prefix = "t=pooldown;vnf=1;site=2;cap=";
    ASSERT_EQ(line.substr(0, prefix.size()), prefix);
    const std::string text = line.substr(prefix.size());
    ASSERT_EQ(text, printf_format(value)) << line;
    ASSERT_EQ(text, stream_format(value)) << line;
    if (std::isfinite(value)) {
      const auto decoded = control::decode(line);
      ASSERT_TRUE(decoded.ok()) << line;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(
                    std::get<journal::PoolDown>(*decoded).capacity),
                std::bit_cast<std::uint64_t>(value))
          << line;
    }
  }

  // Integers at the top of their ranges.
  constexpr std::uint32_t kMax32 = std::numeric_limits<std::uint32_t>::max();
  constexpr std::uint64_t kMax64 = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(control::encode(journal::Epoch{kMax64}),
            "t=epoch;n=18446744073709551615");
  EXPECT_EQ(control::encode(journal::NextRouteId{kMax32}),
            "t=nri;n=4294967295");
  EXPECT_EQ(control::encode(journal::Commit{{ChainId{kMax32 - 1},
                                              RouteId{kMax32 - 1}}}),
            "t=commit;chain=4294967294;route=4294967294");

  // Whole chain and begin lines against the stream reference.
  control::ChainRecord c;
  c.id = ChainId{kMax32 - 1};
  c.spec.name = "edge;%case";
  c.spec.ingress_service = EdgeServiceId{kMax32 - 1};
  c.spec.ingress_node = NodeId{0};
  c.spec.egress_service = EdgeServiceId{7};
  c.spec.egress_node = NodeId{kMax32 - 1};
  c.spec.vnfs = {VnfId{0}, VnfId{kMax32 - 1}, VnfId{12}};
  c.labels = dataplane::Labels{kMax32, 0};
  c.ingress_site = SiteId{kMax32 - 1};
  c.egress_site = SiteId{3};
  for (int i = 0; i < 200; ++i) {
    c.spec.forward_traffic = std::bit_cast<double>(bits());
    c.spec.reverse_traffic = 1.0 / (i + 1);
    std::ostringstream ref;
    ref << std::setprecision(17) << "t=chain;id=" << c.id.value()
        << ";name=edge%3B%25case;ins=" << c.spec.ingress_service.value()
        << ";inn=0;egs=7;egn=" << c.spec.egress_node.value()
        << ";vnfs=0," << kMax32 - 1 << ",12;ft=" << c.spec.forward_traffic
        << ";rt=" << c.spec.reverse_traffic << ";cl=" << kMax32
        << ";el=0;insite=" << c.ingress_site.value() << ";egsite=3";
    ASSERT_EQ(control::encode(journal::Chain{c}), ref.str());
  }
  EXPECT_EQ(control::encode(journal::Begin{ChainId{kMax32 - 1}, RouteId{0},
                                           {SiteId{kMax32 - 1}, SiteId{0}}}),
            "t=begin;chain=4294967294;route=0;sites=4294967294,0");
  EXPECT_EQ(control::encode(journal::Begin{ChainId{1}, RouteId{2}, {}}),
            "t=begin;chain=1;route=2;sites=");
}

TEST(JournalCodec, MalformedLinesAreErrorsAndMisfitRecordsAreRejected) {
  for (const char* bad :
       {"", "t=", "t=bogus", "t=prep;chain=1", "t=epoch;n=-1",
        "t=nri;n=4294967296", "t=begin;chain=1;route=2;sites=1,x",
        "t=pooldown;vnf=1;site=2", "t=chain;id=1;name=%4"}) {
    EXPECT_FALSE(control::decode(bad).ok()) << "'" << bad << "'";
  }
  // Well-formed records that do not fit the state are rejected, and the
  // state is left as it was.
  control::ControllerState state;
  const auto rejects = [&state](const std::string& line) {
    const auto record = control::decode(line);
    return record.ok() && !state.apply(*record).ok();
  };
  EXPECT_TRUE(rejects("t=prep;chain=1;route=2"));
  EXPECT_TRUE(rejects("t=commit;chain=1;route=2"));
  EXPECT_TRUE(rejects("t=begin;chain=1;route=2;sites=3"));
  EXPECT_TRUE(rejects("t=pooldown;vnf=1;site=2;cap=0"));
  EXPECT_TRUE(state.chains.empty() && state.inflight.empty() &&
              state.dead_pools.empty());
}

// ---------------------------------------------------------- StateJournal

TEST(StateJournal, AppendsAccumulateInTheLog) {
  sim::DurableStore store;
  StateJournal journal{store, {.name = "j", .snapshot_interval = 0}};
  journal.append("t=epoch;n=1");
  journal.append("t=nri;n=0");
  EXPECT_EQ(journal.appends(), 2u);
  EXPECT_FALSE(journal.wants_snapshot());   // interval 0 = never compact
  const auto log = journal.log_records();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], "t=epoch;n=1");
  EXPECT_EQ(log[1], "t=nri;n=0");
  EXPECT_TRUE(journal.snapshot_records().empty());
  journal.check_invariants();
}

TEST(StateJournal, SnapshotCompactsTheLog) {
  sim::DurableStore store;
  StateJournal journal{store, {.name = "j", .snapshot_interval = 3}};
  journal.append("r1");
  journal.append("r2");
  EXPECT_FALSE(journal.wants_snapshot());
  journal.append("r3");
  EXPECT_TRUE(journal.wants_snapshot());

  journal.write_snapshot({"s1", "s2"});
  EXPECT_EQ(journal.snapshots_taken(), 1u);
  EXPECT_EQ(journal.records_compacted(), 3u);
  EXPECT_EQ(journal.appends_since_snapshot(), 0u);
  EXPECT_FALSE(journal.wants_snapshot());
  EXPECT_TRUE(journal.log_records().empty());
  const auto snap = journal.snapshot_records();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0], "s1");
  EXPECT_EQ(snap[1], "s2");

  journal.append("r4");   // post-snapshot appends land in the fresh log
  ASSERT_EQ(journal.log_records().size(), 1u);
  EXPECT_EQ(journal.log_records()[0], "r4");
  journal.check_invariants();
}

TEST(StateJournal, TornTrailingRecordIsDroppedAndCounted) {
  // A crash mid-append leaves the last log record unterminated; replay
  // must shed exactly that record (its write never durably completed),
  // keep every record before it, and count the drop.
  sim::DurableStore store;
  StateJournal writer{store, {.name = "j", .snapshot_interval = 0}};
  writer.append("t=epoch;n=1");
  writer.append("t=nri;n=0");
  store.append(writer.log_blob(), "t=chain;id=7");   // no trailing '\n'

  StateJournal reader{store, {.name = "j", .snapshot_interval = 0}};
  const auto log = reader.log_records();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], "t=epoch;n=1");
  EXPECT_EQ(log[1], "t=nri;n=0");
  EXPECT_EQ(reader.torn_records_dropped(), 1u);

  // The next append re-terminates the blob: the torn bytes stay dead (a
  // second read still drops one torn record, never a merged frankenstein
  // record), and the new record survives.
  reader.append("t=nri;n=1");
  const auto log2 = reader.log_records();
  ASSERT_EQ(log2.size(), 3u);
  EXPECT_EQ(log2[2], "t=nri;n=1");
  reader.check_invariants();
}

TEST(StateJournal, SnapshotAtExactIntervalBoundary) {
  // wants_snapshot() must trip exactly AT the interval, not one past it,
  // and the appends_since_snapshot counter must reset so the next window
  // is a full interval wide.
  sim::DurableStore store;
  StateJournal journal{store, {.name = "j", .snapshot_interval = 2}};
  journal.append("r1");
  EXPECT_FALSE(journal.wants_snapshot());
  journal.append("r2");
  EXPECT_TRUE(journal.wants_snapshot());
  journal.write_snapshot({"s1"});
  EXPECT_FALSE(journal.wants_snapshot());
  EXPECT_EQ(journal.appends_since_snapshot(), 0u);

  journal.append("r3");
  EXPECT_FALSE(journal.wants_snapshot());
  journal.append("r4");
  EXPECT_TRUE(journal.wants_snapshot());
  EXPECT_EQ(journal.snapshots_taken(), 1u);
  EXPECT_EQ(journal.records_compacted(), 2u);
  journal.check_invariants();
}

TEST(StateJournal, ReplayCostScalesWithPersistedRecords) {
  sim::DurableStore store;
  StateJournal journal{store,
                       {.name = "j",
                        .snapshot_interval = 0,
                        .replay_cost_per_record = sim::Duration{50}}};
  EXPECT_EQ(journal.replay_cost(), sim::Duration{0});
  journal.write_snapshot({"s1", "s2", "s3"});
  journal.append("r1");
  EXPECT_EQ(journal.replay_cost(), sim::Duration{4 * 50});
}

// ------------------------------------------------- TwoPhaseTracker replay

TEST(TwoPhaseReplay, DuplicateTerminalTransitionsAreRejectedAndCounted) {
  TwoPhaseTracker tracker;
  const ChainId chain{1};
  const RouteId route{2};
  tracker.transition(chain, route, TwoPhaseState::kPrepared);
  tracker.transition(chain, route, TwoPhaseState::kCommitted);

  // A late abort replayed against a committed route is protocol noise:
  // shed, counted, state untouched.
  EXPECT_FALSE(tracker.try_transition(chain, route, TwoPhaseState::kAborted));
  EXPECT_EQ(tracker.rejected(), 1u);
  EXPECT_EQ(tracker.state(chain, route), TwoPhaseState::kCommitted);

  // A re-delivered commit is an idempotent terminal self-loop.
  EXPECT_TRUE(tracker.try_transition(chain, route, TwoPhaseState::kCommitted));
  EXPECT_EQ(tracker.rejected(), 1u);
  EXPECT_EQ(tracker.count(TwoPhaseState::kCommitted), 1u);
  tracker.check_invariants();
}

TEST(TwoPhaseReplay, CommitAfterAbortStaysRejected) {
  TwoPhaseTracker tracker;
  const ChainId chain{3};
  const RouteId route{4};
  tracker.transition(chain, route, TwoPhaseState::kPrepared);
  tracker.transition(chain, route, TwoPhaseState::kAborted);
  // The coordinator must never commit past a no vote; a replayed commit
  // for the aborted round bounces every time it is re-delivered.
  EXPECT_FALSE(tracker.try_transition(chain, route,
                                      TwoPhaseState::kCommitted));
  EXPECT_FALSE(tracker.try_transition(chain, route,
                                      TwoPhaseState::kCommitted));
  EXPECT_EQ(tracker.rejected(), 2u);
  EXPECT_EQ(tracker.state(chain, route), TwoPhaseState::kAborted);
  tracker.check_invariants();
}

// ------------------------------------------------- participant epoch fence

TEST(EpochFence, ParticipantRejectsCommandsFromOlderIncarnations) {
  model::NetworkModel m = make_two_pool_model();
  const VnfId fw = m.vnfs()[0].id;
  Middleware mw{std::move(m), {}};
  control::VnfController& c = mw.deployment().vnf_controller(fw);

  // Epoch 5 prepares; the fence advances to 5.
  EXPECT_TRUE(c.prepare(ChainId{9}, RouteId{1}, SiteId{1}, 1.0, 0, 5));
  EXPECT_EQ(c.highest_epoch(), 5u);

  // A stale incarnation's abort bounces without touching the round.
  c.abort(ChainId{9}, RouteId{1}, 3);
  EXPECT_EQ(c.stale_commands_rejected(), 1u);
  ASSERT_EQ(c.committed_routes().size(), 0u);

  // The current incarnation still drives the round to completion.
  c.commit(ChainId{9}, RouteId{1}, 42, 5);
  ASSERT_EQ(c.committed_routes().size(), 1u);
  EXPECT_EQ(c.committed_routes()[0].first, ChainId{9});

  // An unfenced (legacy) call bypasses the fence entirely.
  c.release(ChainId{9}, RouteId{1});
  EXPECT_EQ(c.committed_routes().size(), 0u);
  EXPECT_EQ(c.stale_commands_rejected(), 1u);
  c.check_invariants();
}

// ----------------------------------------- cold start: quiet-state replay

TEST(ColdStart, QuietCrashRecoversIdenticalStateAndBumpsEpoch) {
  model::NetworkModel m = make_two_pool_model();
  const VnfId fw = m.vnfs()[0].id;
  DeploymentConfig config;
  config.durable_controller = true;
  Middleware mw{std::move(m), config};
  core::Deployment& dep = mw.deployment();

  const EdgeServiceId edge = mw.register_edge_service("vpn");
  const auto a = mw.create_chain(make_span_spec(edge, fw, "a"));
  ASSERT_TRUE(a.ok()) << a.error().to_string();
  const auto b = mw.create_chain(make_span_spec(edge, fw, "b"));
  ASSERT_TRUE(b.ok()) << b.error().to_string();
  const std::vector<ChainId> chains{a->chain, b->chain};

  EXPECT_TRUE(dep.global().durable());
  EXPECT_EQ(dep.global().epoch(), 1u);
  const std::string before = state_digest(dep, chains);

  // Crash with amnesia at a quiet moment and restore: replay alone must
  // reproduce the exact pre-crash state.
  dep.register_fault_targets();
  const sim::SimTime t0 = dep.simulator().now();
  dep.fault_injector().crash_at(t0 + sim::from_ms(10.0),
                                "controller:global");
  dep.fault_injector().restore_at(t0 + sim::from_ms(50.0),
                                  "controller:global");
  dep.simulator().run_until(t0 + sim::from_ms(2000.0));

  EXPECT_EQ(dep.global().epoch(), 2u);
  EXPECT_EQ(state_digest(dep, chains), before);

  const control::ColdStartReport& report = dep.global().last_cold_start();
  EXPECT_EQ(report.epoch, 2u);
  EXPECT_EQ(report.chains_restored, 2u);
  EXPECT_EQ(report.routes_restored, 2u);
  EXPECT_GT(report.replayed_records, 0u);
  EXPECT_EQ(report.redriven_commits, 0u);
  EXPECT_EQ(report.aborted_inflight, 0u);
  EXPECT_EQ(report.orphans_released, 0u);
  EXPECT_GT(report.replay_cost, sim::Duration{0});

  // The amnesia restore is traced distinctly from a plain restore.
  ASSERT_EQ(dep.fault_injector().trace().size(), 2u);
  EXPECT_EQ(dep.fault_injector().trace()[0].kind, "crash");
  EXPECT_EQ(dep.fault_injector().trace()[1].kind, "restore-amnesia");

  dep.global().check_invariants();
  dep.state_journal()->check_invariants();
  dep.durable_store().check_invariants();
}

TEST(ColdStart, SnapshotCompactionSurvivesCrash) {
  model::NetworkModel m = make_two_pool_model();
  const VnfId fw = m.vnfs()[0].id;
  DeploymentConfig config;
  config.durable_controller = true;
  config.journal.snapshot_interval = 4;   // compact aggressively
  Middleware mw{std::move(m), config};
  core::Deployment& dep = mw.deployment();

  const EdgeServiceId edge = mw.register_edge_service("vpn");
  std::vector<ChainId> chains;
  for (int i = 0; i < 3; ++i) {
    const auto r =
        mw.create_chain(make_span_spec(edge, fw, "c" + std::to_string(i)));
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    chains.push_back(r->chain);
  }
  ASSERT_GT(dep.state_journal()->snapshots_taken(), 0u);
  ASSERT_GT(dep.state_journal()->records_compacted(), 0u);
  const std::string before = state_digest(dep, chains);

  dep.register_fault_targets();
  const sim::SimTime t0 = dep.simulator().now();
  dep.fault_injector().crash_at(t0 + sim::from_ms(5.0), "controller:global");
  dep.fault_injector().restore_at(t0 + sim::from_ms(25.0),
                                  "controller:global");
  dep.simulator().run_until(t0 + sim::from_ms(2000.0));

  EXPECT_EQ(state_digest(dep, chains), before);
  EXPECT_EQ(dep.global().last_cold_start().chains_restored, 3u);
}

// ------------------------------------ crash mid-2PC: re-driven commit

TEST(ColdStart, CrashBetweenPrepareAndCommitConvergesToReferenceRun) {
  // Two runs over the same model and inputs.  `crash` kills the Global
  // Switchboard after the 2PC prepare round of the second chain was
  // journaled but before the commit round ran; recovery must re-drive the
  // commit and land byte-identically on the fault-free end state.
  auto run = [](bool crash) {
    model::NetworkModel m = make_two_pool_model();
    const VnfId fw = m.vnfs()[0].id;
    DeploymentConfig config;
    config.durable_controller = true;
    Middleware mw{std::move(m), config};
    core::Deployment& dep = mw.deployment();

    const EdgeServiceId edge = mw.register_edge_service("vpn");
    const auto a = mw.create_chain(make_span_spec(edge, fw, "a"));
    EXPECT_TRUE(a.ok());
    const ChainId chain_a = a->chain;

    // The second creation is driven manually: its completion callback dies
    // with the crashed incarnation (the route still must activate).
    const sim::SimTime t0 = dep.simulator().now();
    bool done_fired = false;
    dep.global().create_chain(make_span_spec(edge, fw, "b"),
                              [&done_fired](Result<control::CreationReport>) {
                                done_fired = true;
                              });
    const ChainId chain_b{chain_a.value() + 1};

    if (crash) {
      // Timeline from t0: site resolve 35 ms, route compute +20 ms,
      // prepare round +35 ms -> prep journaled at 90 ms; commit runs at
      // 110 ms.  Crash in the gap.
      dep.register_fault_targets();
      dep.fault_injector().crash_at(t0 + sim::from_ms(95.0),
                                    "controller:global");
      dep.fault_injector().restore_at(t0 + sim::from_ms(200.0),
                                      "controller:global");
      dep.simulator().run_until(t0 + sim::from_ms(100.0));

      // Prove the crash point: chain b's round is journaled prepared but
      // not committed.
      bool saw_prep = false;
      bool saw_commit = false;
      for (const std::string& record : dep.state_journal()->log_records()) {
        if (record.find("t=prep;chain=" + std::to_string(chain_b.value())) !=
            std::string::npos) {
          saw_prep = true;
        }
        if (record.find("t=commit;chain=" +
                        std::to_string(chain_b.value())) !=
            std::string::npos) {
          saw_commit = true;
        }
      }
      EXPECT_TRUE(saw_prep) << "crash landed before the prepare round";
      EXPECT_FALSE(saw_commit) << "crash landed after the commit round";
    }

    dep.simulator().run_until(t0 + sim::from_ms(3000.0));

    if (crash) {
      EXPECT_FALSE(done_fired)
          << "the crashed incarnation's callback must not fire";
      EXPECT_EQ(dep.global().epoch(), 2u);
      EXPECT_EQ(dep.global().last_cold_start().redriven_commits, 1u);
    } else {
      EXPECT_TRUE(done_fired);
      EXPECT_EQ(dep.global().epoch(), 1u);
    }

    // Both runs must deliver on both chains end to end.
    for (const ChainId chain : {chain_a, chain_b}) {
      const auto walk =
          mw.send(chain, dataplane::FiveTuple{0x0A020001u, 0xC0A80002u, 3001,
                                              443, 6});
      EXPECT_TRUE(walk.delivered) << walk.failure;
    }
    dep.global().check_invariants();
    return state_digest(dep, {chain_a, chain_b});
  };

  const std::string reference = run(false);
  const std::string recovered = run(true);
  EXPECT_EQ(recovered, reference);
}

TEST(ColdStart, UnpreparedInflightRoundIsAborted) {
  model::NetworkModel m = make_two_pool_model();
  const VnfId fw = m.vnfs()[0].id;
  DeploymentConfig config;
  config.durable_controller = true;
  Middleware mw{std::move(m), config};
  core::Deployment& dep = mw.deployment();

  const EdgeServiceId edge = mw.register_edge_service("vpn");
  const sim::SimTime t0 = dep.simulator().now();
  dep.global().create_chain(make_span_spec(edge, fw, "x"),
                            [](Result<control::CreationReport>) {});

  // Crash after the 2PC begin was journaled (55 ms: route computed,
  // commit_route ran) but before the prepare round (90 ms): recovery
  // cannot know any vote, so the round must abort.
  dep.register_fault_targets();
  dep.fault_injector().crash_at(t0 + sim::from_ms(60.0),
                                "controller:global");
  dep.fault_injector().restore_at(t0 + sim::from_ms(150.0),
                                  "controller:global");
  dep.simulator().run_until(t0 + sim::from_ms(3000.0));

  EXPECT_EQ(dep.global().last_cold_start().aborted_inflight, 1u);
  EXPECT_EQ(dep.global().last_cold_start().redriven_commits, 0u);
  // The chain record replayed but never activated; no capacity is held.
  const control::ChainRecord* rec = dep.global().find_record(ChainId{0});
  ASSERT_NE(rec, nullptr);
  EXPECT_FALSE(rec->active);
  EXPECT_TRUE(rec->routes.empty());
  EXPECT_EQ(dep.vnf_controller(fw).committed_routes().size(), 0u);
  dep.global().check_invariants();
}

// -------------------------------------------- reconciliation + LS fencing

TEST(ColdStart, OrphanedParticipantCapacityIsReleasedOnReconciliation) {
  model::NetworkModel m = make_two_pool_model();
  const VnfId fw = m.vnfs()[0].id;
  DeploymentConfig config;
  config.durable_controller = true;
  Middleware mw{std::move(m), config};
  core::Deployment& dep = mw.deployment();

  const EdgeServiceId edge = mw.register_edge_service("vpn");
  const auto a = mw.create_chain(make_span_spec(edge, fw, "a"));
  ASSERT_TRUE(a.ok());

  // Plant an orphan: capacity committed at the participant for a round no
  // journal record owns (as if the journaled release was lost with a
  // crashed disk batch on a pre-durability build).
  control::VnfController& c = dep.vnf_controller(fw);
  ASSERT_TRUE(c.prepare(ChainId{77}, RouteId{99}, SiteId{1}, 2.0, 0));
  c.commit(ChainId{77}, RouteId{99}, 42);
  ASSERT_EQ(c.committed_routes().size(), 2u);   // chain a + the orphan

  dep.register_fault_targets();
  const sim::SimTime t0 = dep.simulator().now();
  dep.fault_injector().crash_at(t0 + sim::from_ms(5.0), "controller:global");
  dep.fault_injector().restore_at(t0 + sim::from_ms(25.0),
                                  "controller:global");
  dep.simulator().run_until(t0 + sim::from_ms(2000.0));

  // The sweep released exactly the orphan; chain a's capacity survives.
  EXPECT_EQ(dep.global().last_cold_start().orphans_released, 1u);
  ASSERT_EQ(c.committed_routes().size(), 1u);
  EXPECT_EQ(c.committed_routes()[0].first, a->chain);
  dep.global().check_invariants();
}

TEST(ColdStart, LocalSwitchboardFencesStaleEpochAnnouncements) {
  model::NetworkModel m = make_two_pool_model();
  const VnfId fw = m.vnfs()[0].id;
  DeploymentConfig config;
  config.durable_controller = true;
  Middleware mw{std::move(m), config};
  core::Deployment& dep = mw.deployment();

  const EdgeServiceId edge = mw.register_edge_service("vpn");
  const auto a = mw.create_chain(make_span_spec(edge, fw, "a"));
  ASSERT_TRUE(a.ok());

  dep.register_fault_targets();
  const sim::SimTime t0 = dep.simulator().now();
  dep.fault_injector().crash_at(t0 + sim::from_ms(5.0), "controller:global");
  dep.fault_injector().restore_at(t0 + sim::from_ms(25.0),
                                  "controller:global");
  dep.simulator().run_until(t0 + sim::from_ms(2000.0));

  // The epoch-2 republish advanced every site's fence.
  control::LocalSwitchboard& ls = dep.local(SiteId{0});
  ASSERT_EQ(ls.highest_route_epoch(), 2u);
  const std::uint64_t rejected_before = ls.stale_routes_rejected();

  // A retained epoch-1 announcement from the dead incarnation arrives
  // late: it must be fenced, not applied.
  const control::ChainRecord& rec = mw.chain_record(a->chain);
  control::RouteAnnouncement stale;
  stale.chain = rec.id;
  stale.route = RouteId{555};
  stale.chain_label = rec.labels.chain;
  stale.egress_label = rec.labels.egress_site;
  stale.ingress_site = rec.ingress_site;
  stale.egress_site = rec.egress_site;
  stale.weight = 1.0;
  stale.epoch = 1;
  ls.handle_route(stale);
  EXPECT_EQ(ls.stale_routes_rejected(), rejected_before + 1);
  EXPECT_EQ(ls.highest_route_epoch(), 2u);

  // Route announcements round-trip the epoch through the wire format.
  const std::string wire = control::serialize(stale);
  const auto parsed = control::parse_route(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->epoch, 1u);
}

}  // namespace
}  // namespace switchboard
