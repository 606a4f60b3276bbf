// Edge cases of the core facade (Deployment / Middleware) not covered by
// the scenario-level integration tests.
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "switchboard/switchboard.hpp"

namespace switchboard::core {
namespace {

using control::ChainSpec;

dataplane::FiveTuple tuple(std::uint32_t i) {
  return dataplane::FiveTuple{0x0A020000u + i, 0xC0A80001u,
                              static_cast<std::uint16_t>(4000 + i), 80, 6};
}

model::NetworkModel tiny_model() {
  model::NetworkModel m{net::make_line_topology(3, 50.0, 5.0)};
  m.add_site(NodeId{0}, 100.0);
  const SiteId mid = m.add_site(NodeId{1}, 100.0);
  m.add_site(NodeId{2}, 100.0);
  const VnfId fw = m.add_vnf("fw", 1.0);
  m.deploy_vnf(fw, mid, 100.0);
  return m;
}

TEST(Deployment, InjectOnInactiveChainFails) {
  Middleware mw{tiny_model()};
  mw.register_edge_service("vpn");
  // Chain id 0 exists in no record.
  const auto walk = mw.deployment().inject(ChainId{0}, tuple(1));
  EXPECT_FALSE(walk.delivered);
}

TEST(Deployment, RegisterVnfServiceAfterConstruction) {
  // VNFs registered through the Middleware (not pre-seeded in the model)
  // must be routable: controllers sync lazily.
  model::NetworkModel m{net::make_line_topology(3, 50.0, 5.0)};
  m.add_site(NodeId{0}, 100.0);
  const SiteId mid = m.add_site(NodeId{1}, 100.0);
  m.add_site(NodeId{2}, 100.0);

  Middleware mw{std::move(m)};
  const EdgeServiceId edge = mw.register_edge_service("vpn");
  const Result<VnfId> registered =
      mw.register_vnf_service("dpi", 2.0, {{mid, 50.0}});
  ASSERT_TRUE(registered.ok()) << registered.error().to_string();
  const VnfId dpi = *registered;

  ChainSpec spec;
  spec.ingress_service = edge;
  spec.egress_service = edge;
  spec.ingress_node = NodeId{0};
  spec.egress_node = NodeId{2};
  spec.vnfs = {dpi};
  const auto report = mw.create_chain(spec);
  ASSERT_TRUE(report.ok()) << report.error().to_string();
  const auto walk = mw.send(report->chain, tuple(2));
  ASSERT_TRUE(walk.delivered) << walk.failure;
  EXPECT_EQ(walk.vnf_instances().size(), 1u);
}

TEST(Deployment, RegisterVnfServiceRejectsBadInputWithoutTouchingTheModel) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  const SiteId mid{1};
  struct Case {
    const char* what;
    double load;
    std::vector<Middleware::VnfSite> sites;
  };
  const std::vector<Case> cases = {
      {"NaN load", kNan, {{mid, 50.0}}},
      {"negative load", -1.0, {{mid, 50.0}}},
      {"infinite load", kInf, {{mid, 50.0}}},
      {"NaN capacity", 1.0, {{mid, kNan}}},
      {"+inf capacity", 1.0, {{mid, kInf}}},
      {"-inf capacity", 1.0, {{mid, -kInf}}},
      {"zero capacity", 1.0, {{mid, 0.0}}},
      {"negative capacity", 1.0, {{mid, -5.0}}},
      {"site out of range", 1.0, {{SiteId{3}, 50.0}}},
      {"invalid site id", 1.0, {{SiteId{}, 50.0}}},
      {"duplicate site", 1.0, {{mid, 50.0}, {mid, 20.0}}},
      {"bad site after a good one", 1.0, {{SiteId{0}, 50.0}, {mid, kInf}}},
  };
  Middleware mw{tiny_model()};
  const model::NetworkModel& model = mw.deployment().network_model();
  const std::vector<model::Vnf> before = model.vnfs();
  for (const Case& c : cases) {
    const Result<VnfId> result = mw.register_vnf_service("bad", c.load,
                                                         c.sites);
    ASSERT_FALSE(result.ok()) << c.what;
    EXPECT_EQ(result.error().code, ErrorCode::kInvalidArgument) << c.what;
    ASSERT_EQ(model.vnfs().size(), before.size()) << c.what;
    for (std::size_t f = 0; f < before.size(); ++f) {
      const auto& now = model.vnfs()[f].deployments;
      ASSERT_EQ(now.size(), before[f].deployments.size()) << c.what;
      for (std::size_t d = 0; d < now.size(); ++d) {
        EXPECT_EQ(now[d].site, before[f].deployments[d].site) << c.what;
        EXPECT_EQ(now[d].capacity, before[f].deployments[d].capacity)
            << c.what;
      }
    }
  }

  // A valid call afterwards still registers a routable VNF.
  const Result<VnfId> dpi = mw.register_vnf_service("dpi", 2.0, {{mid, 50.0}});
  ASSERT_TRUE(dpi.ok()) << dpi.error().to_string();
  EXPECT_EQ(dpi->value(), before.size());
  const EdgeServiceId edge = mw.register_edge_service("vpn");
  ChainSpec spec;
  spec.ingress_service = edge;
  spec.egress_service = edge;
  spec.ingress_node = NodeId{0};
  spec.egress_node = NodeId{2};
  spec.vnfs = {*dpi};
  const auto report = mw.create_chain(spec);
  ASSERT_TRUE(report.ok()) << report.error().to_string();
  EXPECT_TRUE(mw.send(report->chain, tuple(5)).delivered);
}

TEST(Deployment, WalkReportsPerHopLatency) {
  Middleware mw{tiny_model()};
  const EdgeServiceId edge = mw.register_edge_service("vpn");
  ChainSpec spec;
  spec.ingress_service = edge;
  spec.egress_service = edge;
  spec.ingress_node = NodeId{0};
  spec.egress_node = NodeId{2};
  spec.vnfs = {mw.deployment().network_model().vnfs()[0].id};
  const auto report = mw.create_chain(spec);
  ASSERT_TRUE(report.ok());
  const auto walk = mw.send(report->chain, tuple(3));
  ASSERT_TRUE(walk.delivered);
  double total = 0.0;
  for (const auto& hop : walk.path) total += hop.latency_ms;
  EXPECT_NEAR(total, walk.latency_ms, 1e-9);
  // Path structure: edge, fwd, ..., edge.
  EXPECT_EQ(walk.path.front().type, control::ElementType::kEdgeInstance);
  EXPECT_EQ(walk.path.back().type, control::ElementType::kEdgeInstance);
}

TEST(Deployment, VnfProcessingLatencyConfigurable) {
  auto run = [](double processing_ms) {
    DeploymentConfig config;
    config.vnf_processing_ms = processing_ms;
    Middleware mw{tiny_model(), config};
    const EdgeServiceId edge = mw.register_edge_service("vpn");
    ChainSpec spec;
    spec.ingress_service = edge;
    spec.egress_service = edge;
    spec.ingress_node = NodeId{0};
    spec.egress_node = NodeId{2};
    spec.vnfs = {mw.deployment().network_model().vnfs()[0].id};
    const auto report = mw.create_chain(spec);
    EXPECT_TRUE(report.ok());
    return mw.send(report->chain, tuple(4)).latency_ms;
  };
  const double fast = run(0.1);
  const double slow = run(100.0);
  EXPECT_NEAR(slow - fast, 99.9, 1e-6);
}

TEST(Deployment, TwoEdgeServicesCoexist) {
  model::NetworkModel m{net::make_line_topology(3, 50.0, 5.0)};
  m.add_site(NodeId{0}, 100.0);
  const SiteId mid = m.add_site(NodeId{1}, 100.0);
  m.add_site(NodeId{2}, 100.0);
  const VnfId fw = m.add_vnf("fw", 1.0);
  m.deploy_vnf(fw, mid, 100.0);

  Middleware mw{std::move(m)};
  const EdgeServiceId vpn = mw.register_edge_service("vpn");
  const EdgeServiceId cellular = mw.register_edge_service("cellular");

  // One chain enters via VPN and leaves via cellular.
  ChainSpec spec;
  spec.ingress_service = vpn;
  spec.egress_service = cellular;
  spec.ingress_node = NodeId{0};
  spec.egress_node = NodeId{2};
  spec.vnfs = {fw};
  const auto report = mw.create_chain(spec);
  ASSERT_TRUE(report.ok()) << report.error().to_string();
  const auto walk = mw.send(report->chain, tuple(5));
  ASSERT_TRUE(walk.delivered) << walk.failure;
  // The two edge services own distinct instances (and forwarders).
  const auto ingress_instance = walk.path.front().element;
  const auto egress_instance = walk.path.back().element;
  EXPECT_NE(ingress_instance, egress_instance);
}

TEST(Middleware, SequentialChainsGetDistinctLabels) {
  Middleware mw{tiny_model()};
  const EdgeServiceId edge = mw.register_edge_service("vpn");
  ChainSpec spec;
  spec.ingress_service = edge;
  spec.egress_service = edge;
  spec.ingress_node = NodeId{0};
  spec.egress_node = NodeId{2};
  spec.vnfs = {mw.deployment().network_model().vnfs()[0].id};
  const auto a = mw.create_chain(spec);
  const auto b = mw.create_chain(spec);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->labels.chain, b->labels.chain);
  EXPECT_NE(a->chain, b->chain);
}

}  // namespace
}  // namespace switchboard::core
