// Randomized differential tests ("fuzz"): drive data-plane and simulator
// components with random operation sequences and compare against simple
// reference models, and feed the journal codec and the bus-message parsers
// random records and random byte mutations of them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "common/rng.hpp"
#include "control/controller_state.hpp"
#include "control/messages.hpp"
#include "dataplane/forwarder.hpp"
#include "dataplane/sharded_flow_table.hpp"
#include "sim/simulator.hpp"

namespace switchboard {
namespace {

using namespace dataplane;

FiveTuple tuple_for(std::uint32_t i) {
  return FiveTuple{0x0A000000u + (i % 97), 0xC0A80000u + (i % 89),
                   static_cast<std::uint16_t>(1000 + i % 83),
                   static_cast<std::uint16_t>(2000 + i % 79),
                   static_cast<std::uint8_t>(i % 2 ? 6 : 17)};
}

// ---------------------------------------------- ShardedFlowTable vs std::map

struct KeyLess {
  bool operator()(const std::pair<Labels, FiveTuple>& a,
                  const std::pair<Labels, FiveTuple>& b) const {
    const auto pack = [](const std::pair<Labels, FiveTuple>& k) {
      return std::make_tuple(k.first.chain, k.first.egress_site,
                             k.second.src_ip, k.second.dst_ip,
                             k.second.src_port, k.second.dst_port,
                             k.second.protocol);
    };
    return pack(a) < pack(b);
  }
};

class FlowTableFuzz : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, FlowTableFuzz,
                         ::testing::Values(1, 7, 42, 1337));

TEST_P(FlowTableFuzz, MatchesReferenceMap) {
  Rng rng{GetParam()};
  // Small (4 shards of the 16-slot minimum): forces per-shard growth and
  // tombstone churn.
  ShardedFlowTable table{16, 4};
  std::map<std::pair<Labels, FiveTuple>, FlowEntry, KeyLess> reference;

  for (int op = 0; op < 20000; ++op) {
    const auto i = static_cast<std::uint32_t>(rng.uniform_int(0, 400));
    const Labels labels{static_cast<std::uint32_t>(rng.uniform_int(1, 3)), 1};
    const FiveTuple t = tuple_for(i);
    const auto key = std::make_pair(labels, t);
    const double dice = rng.uniform();
    if (dice < 0.5) {
      // The entry varies per op, so re-inserting a live key checks that
      // insert overwrites; the same tuple under three chain labels checks
      // that labels are part of the key.
      const FlowEntry entry{i, i + 1, static_cast<ElementId>(op)};
      table.insert(labels, t, entry);
      reference[key] = entry;
    } else if (dice < 0.8) {
      const auto found = table.find(labels, t);
      const auto ref = reference.find(key);
      if (ref == reference.end()) {
        EXPECT_FALSE(found.has_value());
      } else {
        ASSERT_TRUE(found.has_value());
        EXPECT_EQ(found->vnf_instance, ref->second.vnf_instance);
        EXPECT_EQ(found->next_forwarder, ref->second.next_forwarder);
        EXPECT_EQ(found->prev_element, ref->second.prev_element);
      }
    } else {
      const bool erased = table.erase(labels, t);
      EXPECT_EQ(erased, reference.erase(key) > 0);
    }
    ASSERT_EQ(table.size(), reference.size());
  }
  table.check_invariants();
}

// ------------------------------------------------ Forwarder affinity fuzz

class ForwarderFuzz : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, ForwarderFuzz, ::testing::Values(3, 9, 27));

TEST_P(ForwarderFuzz, AffinityInvariantUnderRuleChurn) {
  // Random interleaving of packets and rule updates: once a flow is
  // pinned, its delivery target never changes (until completed), no
  // matter how rules churn.
  Rng rng{GetParam()};
  Forwarder fw{1};
  const Labels labels{9, 9};

  auto install_random_rule = [&] {
    LoadBalanceRule rule;
    const int instances = static_cast<int>(rng.uniform_int(1, 4));
    for (int k = 0; k < instances; ++k) {
      rule.vnf_instances.add(100 + static_cast<ElementId>(rng.uniform_int(0, 9)),
                             rng.uniform(0.5, 2.0));
    }
    rule.next_forwarders.add(200, 1.0);
    fw.rules().install(labels, std::move(rule));
  };
  install_random_rule();

  std::unordered_map<std::uint32_t, ElementId> pinned;
  for (int op = 0; op < 20000; ++op) {
    const double dice = rng.uniform();
    const auto flow = static_cast<std::uint32_t>(rng.uniform_int(0, 200));
    if (dice < 0.75) {
      Packet p;
      p.flow = tuple_for(flow);
      p.labels = labels;
      p.arrival_source = 50;
      const ForwardAction action = fw.process_from_wire(p);
      ASSERT_EQ(action.type, ActionType::kDeliverToAttached);
      const auto it = pinned.find(flow);
      if (it != pinned.end()) {
        EXPECT_EQ(action.element, it->second) << "flow " << flow
                                              << " repinned at op " << op;
      } else {
        pinned[flow] = action.element;
      }
    } else if (dice < 0.9) {
      install_random_rule();   // affinity must survive this
    } else {
      fw.complete_flow(labels, tuple_for(flow));
      pinned.erase(flow);
    }
  }
}

// ----------------------------------------------------------- Simulator fuzz

class SimulatorFuzz : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorFuzz, ::testing::Values(5, 55, 555));

TEST_P(SimulatorFuzz, RandomScheduleCancelKeepsOrderAndCounts) {
  Rng rng{GetParam()};
  sim::Simulator sim;
  int fired = 0;
  int expected = 0;
  sim::SimTime last = -1;
  bool monotone = true;

  std::vector<sim::EventHandle> handles;
  for (int i = 0; i < 5000; ++i) {
    const auto delay = rng.uniform_int(0, 10000);
    handles.push_back(sim.schedule(delay, [&] {
      if (sim.now() < last) monotone = false;
      last = sim.now();
      ++fired;
    }));
    ++expected;
  }
  // Cancel a random third.
  int cancelled = 0;
  for (const sim::EventHandle h : handles) {
    if (rng.bernoulli(0.33) && sim.cancel(h)) ++cancelled;
  }
  expected -= cancelled;
  sim.run();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(sim.pending_events(), 0u);
}

// ------------------------------------------------------- journal codec

namespace journal = control::journal;

/// Doubles a %.17g line must round-trip, extremes included.
double random_double(Rng& rng) {
  static const double kExtremes[] = {
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(),
      std::numeric_limits<double>::epsilon(),
      std::numeric_limits<double>::infinity(),
      1.0 / 3.0,
      0.1};
  if (rng.bernoulli(0.5)) {
    return kExtremes[rng.uniform_int(0, std::size(kExtremes) - 1)];
  }
  return rng.uniform(-1.0, 1.0) *
         std::pow(10.0, static_cast<double>(rng.uniform_int(-300, 300)));
}

/// Any byte, with the ones the line grammar reserves over-represented.
std::string random_name(Rng& rng) {
  static const char kReserved[] = {'%', ';', '\n', '=', ',', ':', '0', 'A'};
  std::string name;
  for (auto n = rng.uniform_int(0, 12); n > 0; --n) {
    name += rng.bernoulli(0.5)
                ? kReserved[rng.uniform_int(0, std::size(kReserved) - 1)]
                : static_cast<char>(rng.uniform_int(0, 255));
  }
  return name;
}

std::vector<SiteId> random_sites(Rng& rng) {
  std::vector<SiteId> sites;
  for (auto n = rng.uniform_int(0, 4); n > 0; --n) {
    sites.emplace_back(static_cast<std::uint32_t>(rng()));
  }
  return sites;
}

control::JournalRecord random_record(Rng& rng) {
  const auto id = [&rng] { return static_cast<std::uint32_t>(rng()); };
  const journal::Round round{ChainId{id()}, RouteId{id()}};
  switch (rng.uniform_int(0, 9)) {
    case 0: return journal::Epoch{rng()};
    case 1: return journal::NextRouteId{id()};
    case 2: {
      control::ChainRecord c;
      c.id = ChainId{id()};
      c.spec.name = random_name(rng);
      c.spec.ingress_service = EdgeServiceId{id()};
      c.spec.ingress_node = NodeId{id()};
      c.spec.egress_service = EdgeServiceId{id()};
      c.spec.egress_node = NodeId{id()};
      for (const SiteId s : random_sites(rng)) c.spec.vnfs.emplace_back(s.value());
      c.spec.forward_traffic = random_double(rng);
      c.spec.reverse_traffic = random_double(rng);
      c.labels = dataplane::Labels{id(), id()};
      c.ingress_site = SiteId{id()};
      c.egress_site = SiteId{id()};
      return journal::Chain{c};
    }
    case 3: return journal::Begin{round.chain, round.route, random_sites(rng)};
    case 4: return journal::Prep{round};
    case 5: return journal::Commit{round};
    case 6: return journal::Abort{round};
    case 7: return journal::Retire{round};
    case 8:
      return journal::PoolDown{VnfId{id()}, SiteId{id()}, random_double(rng)};
    default: return journal::PoolUp{VnfId{id()}, SiteId{id()}};
  }
}

/// One random edit: overwrite, insert or erase a byte, or truncate.
std::string mutate(Rng& rng, std::string text) {
  const auto at = [&] {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(text.size())));
  };
  const char byte = rng.bernoulli(0.5)
                        ? ";=,:%\n-9"[rng.uniform_int(0, 7)]
                        : static_cast<char>(rng.uniform_int(0, 255));
  switch (rng.uniform_int(0, 3)) {
    case 0:
      if (!text.empty()) text[std::min(at(), text.size() - 1)] = byte;
      break;
    case 1: text.insert(at(), 1, byte); break;
    case 2:
      if (!text.empty()) text.erase(std::min(at(), text.size() - 1), 1);
      break;
    default: text.resize(at()); break;
  }
  return text;
}

class JournalCodecFuzz : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, JournalCodecFuzz,
                         ::testing::Values(2, 17, 99, 2024));

TEST_P(JournalCodecFuzz, EveryRecordKindRoundTripsByteForByte) {
  Rng rng{GetParam()};
  std::set<std::size_t> kinds;
  for (int i = 0; i < 4000; ++i) {
    const control::JournalRecord record = random_record(rng);
    const std::string line = control::encode(record);
    ASSERT_EQ(line.find('\n'), std::string::npos) << line;
    const auto decoded = control::decode(line);
    ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
    ASSERT_EQ(decoded->index(), record.index());
    EXPECT_EQ(control::encode(*decoded), line);
    if (const auto* chain = std::get_if<journal::Chain>(&record)) {
      EXPECT_EQ(std::get<journal::Chain>(*decoded).chain.spec.name,
                chain->chain.spec.name);
    }
    kinds.insert(record.index());
  }
  EXPECT_EQ(kinds.size(), std::variant_size_v<control::JournalRecord>);
}

TEST_P(JournalCodecFuzz, MutatedRecordsAndFramesNeverAbort) {
  // Every parser returns a value or an error on any bytes, and whatever
  // decodes and applies leaves a state that passes its audit.
  Rng rng{GetParam()};
  control::ControllerState state;
  std::size_t decoded = 0;
  std::size_t applied = 0;
  for (int i = 0; i < 6000; ++i) {
    std::string line = control::encode(random_record(rng));
    for (auto edits = rng.uniform_int(1, 3); edits > 0; --edits) {
      line = mutate(rng, std::move(line));
    }
    const auto record = control::decode(line);
    if (!record.ok()) continue;
    ++decoded;
    if (state.apply(*record).ok()) ++applied;

    control::ReplicationFrame frame;
    frame.kind = static_cast<control::ReplicationKind>(rng.uniform_int(0, 3));
    frame.from = static_cast<std::uint32_t>(rng());
    frame.epoch = rng();
    frame.seq = rng();
    frame.digest = rng();
    frame.records = {control::encode(random_record(rng)), line};
    const std::string payload = mutate(rng, control::serialize(frame));
    if (const auto parsed = control::parse_replication(payload)) {
      for (const std::string& body : parsed->records) {
        (void)control::decode(body);
      }
    }
    (void)control::parse_heartbeat(payload);
    (void)control::parse_route(payload);
    (void)control::parse_instance(payload);
    (void)control::parse_forwarder(payload);
    (void)control::parse_anycast(payload);
  }
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(applied, 0u);
  state.check_invariants();
}

}  // namespace
}  // namespace switchboard
