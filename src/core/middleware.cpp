#include "core/middleware.hpp"

#include <cmath>
#include <cstdint>
#include <set>
#include <utility>

namespace switchboard::core {
namespace {

/// Runs the simulator until `slot` is filled (the async workflow calls the
/// completion callback) or the event queue drains.
template <typename T>
Result<T> wait_for(sim::Simulator& sim, std::optional<Result<T>>& slot) {
  while (!slot.has_value() && sim.step()) {
  }
  if (!slot.has_value()) {
    return Result<T>{ErrorCode::kInternal,
                     "control-plane workflow did not complete"};
  }
  return std::move(*slot);
}

}  // namespace

Middleware::Middleware(model::NetworkModel model, DeploymentConfig config)
    : deployment_{std::move(model), config} {}

EdgeServiceId Middleware::register_edge_service(std::string name) {
  return deployment_.create_edge_service(std::move(name));
}

Result<VnfId> Middleware::register_vnf_service(
    std::string name, double load_per_unit,
    const std::vector<VnfSite>& sites) {
  model::NetworkModel& model = deployment_.network_model();
  // Everything is checked before the model changes: the model SWB_CHECKs
  // these, and an infinite capacity would only abort at the pool's first
  // failure (its pooldown record does not apply).
  const auto invalid = [](const char* why) {
    return Result<VnfId>{ErrorCode::kInvalidArgument, why};
  };
  if (!(std::isfinite(load_per_unit) && load_per_unit >= 0.0)) {
    return invalid("load per unit must be finite and non-negative");
  }
  std::set<std::uint32_t> seen;
  for (const VnfSite& site : sites) {
    if (!(std::isfinite(site.capacity) && site.capacity > 0.0)) {
      return invalid("capacity must be finite and positive");
    }
    if (site.site.value() >= model.sites().size()) {
      return invalid("site out of range");
    }
    if (!seen.insert(site.site.value()).second) {
      return invalid("site listed twice");
    }
  }
  const VnfId vnf = model.add_vnf(std::move(name), load_per_unit);
  for (const VnfSite& site : sites) {
    model.deploy_vnf(vnf, site.site, site.capacity);
  }
  deployment_.sync_vnf_controllers();
  return vnf;
}

Result<control::CreationReport> Middleware::create_chain(
    const control::ChainSpec& spec) {
  std::optional<Result<control::CreationReport>> slot;
  deployment_.global().create_chain(
      spec, [&slot](Result<control::CreationReport> result) {
        slot = std::move(result);
      });
  return wait_for(deployment_.simulator(), slot);
}

Result<control::CreationReport> Middleware::add_route(
    ChainId chain, const std::vector<SiteId>& preferred_vnf_sites) {
  std::optional<Result<control::CreationReport>> slot;
  deployment_.global().add_route(
      chain, preferred_vnf_sites,
      [&slot](Result<control::CreationReport> result) {
        slot = std::move(result);
      });
  return wait_for(deployment_.simulator(), slot);
}

Result<control::EdgeAdditionTrace> Middleware::attach_edge(
    ChainId chain, SiteId site, EdgeServiceId edge_service) {
  if (site.value() >= deployment_.site_count()) {
    return Result<control::EdgeAdditionTrace>{ErrorCode::kInvalidArgument,
                                              "site out of range"};
  }
  if (edge_service.value() >= deployment_.edge_service_count()) {
    return Result<control::EdgeAdditionTrace>{ErrorCode::kInvalidArgument,
                                              "edge service not registered"};
  }
  // The edge service brings up an instance at the new site, then the
  // Local Switchboard stitches it into the nearest route.
  const dataplane::ElementId edge_instance =
      deployment_.edge_controller(edge_service).ensure_edge_instance(site);
  std::optional<Result<control::EdgeAdditionTrace>> slot;
  deployment_.local(site).attach_edge(
      chain, edge_instance,
      [&slot](Result<control::EdgeAdditionTrace> result) {
        slot = std::move(result);
      });
  return wait_for(deployment_.simulator(), slot);
}

Deployment::WalkResult Middleware::send(ChainId chain,
                                        const dataplane::FiveTuple& flow,
                                        dataplane::Direction direction) {
  return deployment_.inject(chain, flow, direction);
}

}  // namespace switchboard::core
