// switchboard::Middleware — the library's public facade.
//
// Wraps a Deployment with the synchronous, portal-level operations of
// Section 2: register services, define a chain, activate it, add routes,
// follow a user to a new edge site, and send traffic through the chain.
// Each blocking call drives the discrete-event simulator until the
// corresponding control-plane workflow completes.
//
//   switchboard::core::Middleware mw{std::move(model)};
//   auto vpn = mw.register_edge_service("vpn");
//   auto chain = mw.create_chain({.name = "enterprise",
//                                 .ingress_service = vpn, ...});
//   auto walk = mw.send(chain->chain, tuple);
#pragma once

#include <optional>
#include <string>

#include "common/result.hpp"
#include "core/deployment.hpp"

namespace switchboard::core {

class Middleware {
 public:
  explicit Middleware(model::NetworkModel model, DeploymentConfig config = {});

  /// Registers an edge service (VPN, broadband, cellular, ...).
  EdgeServiceId register_edge_service(std::string name);

  /// Adds a VNF to the catalog and deploys it at the given sites.  A NaN,
  /// infinite or negative load, a capacity that is not finite and
  /// positive, or a site out of range or listed twice is kInvalidArgument,
  /// with the model left unchanged.
  struct VnfSite {
    SiteId site;
    double capacity;
  };
  [[nodiscard]] Result<VnfId> register_vnf_service(
      std::string name, double load_per_unit,
      const std::vector<VnfSite>& sites);

  /// Creates and activates a chain; blocks (in simulated time) until every
  /// involved site installed its rules.
  [[nodiscard]] Result<control::CreationReport> create_chain(
      const control::ChainSpec& spec);

  /// Adds a wide-area route to an active chain (Fig. 10).  Non-empty
  /// `preferred_vnf_sites` must name one in-range site per VNF stage, or
  /// the call returns kInvalidArgument with nothing journaled.
  [[nodiscard]] Result<control::CreationReport> add_route(
      ChainId chain, const std::vector<SiteId>& preferred_vnf_sites = {});

  /// Extends the chain to a new edge site (mobility, Table 2).  An
  /// out-of-range site or an unregistered edge service is kInvalidArgument.
  [[nodiscard]] Result<control::EdgeAdditionTrace> attach_edge(
      ChainId chain, SiteId site, EdgeServiceId edge_service);

  /// Sends one packet of `flow` through the chain's data plane.
  Deployment::WalkResult send(ChainId chain, const dataplane::FiveTuple& flow,
                              dataplane::Direction direction =
                                  dataplane::Direction::kForward);

  [[nodiscard]] Deployment& deployment() { return deployment_; }
  [[nodiscard]] const control::ChainRecord& chain_record(ChainId chain) {
    return deployment_.global().record(chain);
  }

 private:
  Deployment deployment_;
};

}  // namespace switchboard::core
