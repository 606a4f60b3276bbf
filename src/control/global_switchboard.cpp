#include "control/global_switchboard.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.hpp"
#include "common/log.hpp"

namespace switchboard::control {
namespace {

/// Why `spec` cannot name a chain in `model`, or empty when it can: every
/// id must be in range and the traffic estimates finite and non-negative.
std::string invalid_spec_reason(const ChainSpec& spec,
                                const model::NetworkModel& model) {
  const std::size_t nodes = model.topology().node_count();
  if (!spec.ingress_node.valid() || spec.ingress_node.value() >= nodes ||
      !spec.egress_node.valid() || spec.egress_node.value() >= nodes) {
    return "ingress/egress node out of range";
  }
  for (const VnfId vnf : spec.vnfs) {
    if (!vnf.valid() || vnf.value() >= model.vnfs().size()) {
      return "unknown VNF " + std::to_string(vnf.value());
    }
  }
  if (!std::isfinite(spec.forward_traffic) || spec.forward_traffic < 0.0 ||
      !std::isfinite(spec.reverse_traffic) || spec.reverse_traffic < 0.0) {
    return "traffic must be finite and non-negative";
  }
  return {};
}

}  // namespace

GlobalSwitchboard::GlobalSwitchboard(ControlContext& context, SiteId home_site)
    : context_{context}, home_site_{home_site}, loads_{context.model} {
  write_record(journal::Epoch{1});   // nothing journals before durability
}

bus::Topic GlobalSwitchboard::routes_topic() const {
  return bus::Topic{"/chains/all", home_site_};
}

void GlobalSwitchboard::register_edge_controller(EdgeController* controller) {
  SWB_CHECK(controller != nullptr);
  if (edge_controllers_.size() <= controller->id().value()) {
    edge_controllers_.resize(controller->id().value() + 1, nullptr);
  }
  edge_controllers_[controller->id().value()] = controller;
}

void GlobalSwitchboard::register_vnf_controller(VnfController* controller) {
  SWB_CHECK(controller != nullptr);
  if (vnf_controllers_.size() <= controller->vnf().value()) {
    vnf_controllers_.resize(controller->vnf().value() + 1, nullptr);
  }
  vnf_controllers_[controller->vnf().value()] = controller;
}

void GlobalSwitchboard::register_local_switchboard(LocalSwitchboard* local) {
  SWB_CHECK(local != nullptr);
  if (local_switchboards_.size() <= local->site().value()) {
    local_switchboards_.resize(local->site().value() + 1, nullptr);
  }
  local_switchboards_[local->site().value()] = local;
}

const ChainRecord& GlobalSwitchboard::record(ChainId chain) const {
  const ChainRecord* found = find_record(chain);
  SWB_CHECK(found != nullptr) << "unknown chain " << chain.value();
  return *found;
}

const ChainRecord* GlobalSwitchboard::find_record(ChainId chain) const {
  return state_.find(chain);
}

RouteAnnouncement GlobalSwitchboard::to_announcement(
    const ChainRecord& record, const RouteRecord& route) const {
  RouteAnnouncement announcement;
  announcement.chain = record.id;
  announcement.route = route.id;
  announcement.chain_label = record.labels.chain;
  announcement.egress_label = record.labels.egress_site;
  announcement.ingress_site = record.ingress_site;
  announcement.egress_site = record.egress_site;
  announcement.weight = route.weight;
  announcement.epoch = state_.epoch;
  for (std::size_t z = 1; z <= record.spec.vnfs.size(); ++z) {
    announcement.hops.push_back(RouteHop{z, record.spec.vnfs[z - 1],
                                         route.vnf_sites[z - 1]});
  }
  return announcement;
}

void GlobalSwitchboard::publish_routes(const ChainRecord& record) {
  for (const RouteRecord& route : record.routes) {
    context_.bus.publish(routes_topic(),
                         serialize(to_announcement(record, route)));
  }
}

GlobalSwitchboard::ModelShape GlobalSwitchboard::model_shape() const {
  return ModelShape{context_.model.topology().link_count(),
                    context_.model.sites().size(),
                    context_.model.vnfs().size()};
}

void GlobalSwitchboard::rebuild_loads_into(te::Loads& loads) const {
  loads.reset();
  for (const ChainRecord& record : state_.chains) {
    if (!record.active) continue;
    for (const RouteRecord& route : record.routes) {
      add_route_flow(loads, record, route, route.weight);
    }
  }
}

void GlobalSwitchboard::add_route_flow(te::Loads& loads,
                                       const ChainRecord& record,
                                       const RouteRecord& route,
                                       double weight) const {
  const model::Chain& chain = context_.model.chain(record.id);
  const NodeId egress_node = context_.model.site(record.egress_site).node;
  NodeId prev = context_.model.site(record.ingress_site).node;
  for (std::size_t z = 1; z <= chain.stage_count(); ++z) {
    const NodeId next = z <= route.vnf_sites.size()
        ? context_.model.site(route.vnf_sites[z - 1]).node
        : egress_node;
    loads.add_stage_flow(chain, z, prev, next, weight);
    prev = next;
  }
}

void GlobalSwitchboard::rebuild_loads() {
  rebuild_loads_into(loads_);
  loads_shape_ = model_shape();
  loads_primed_ = true;
}

void GlobalSwitchboard::ensure_loads_current() {
  if (!loads_primed_ || !(model_shape() == loads_shape_)) rebuild_loads();
}

void GlobalSwitchboard::apply_weight_deltas(
    const ChainRecord& record, const std::vector<RouteRecord>& before) {
  // Absent routes weigh 0; a present one never does (weights are 1/N).
  const auto weight_in = [](const std::vector<RouteRecord>& routes,
                            RouteId id) {
    const auto it =
        std::find_if(routes.begin(), routes.end(),
                     [id](const RouteRecord& r) { return r.id == id; });
    return it == routes.end() ? 0.0 : it->weight;
  };
  for (const RouteRecord& route : before) {
    if (weight_in(record.routes, route.id) == 0.0) {
      add_route_flow(loads_, record, route, -route.weight);
    }
  }
  for (const RouteRecord& route : record.routes) {
    const double delta = route.weight - weight_in(before, route.id);
    if (delta != 0.0) add_route_flow(loads_, record, route, delta);
  }
}

void GlobalSwitchboard::create_chain(const ChainSpec& spec,
                                     CreationCallback done) {
  CreationReport report;
  report.started = context_.sim.now();
  report.events.push_back({"spec_received", context_.sim.now()});

  // Fig. 4 step 1: obtain ingress/egress sites from the edge controllers
  // (parallel RPC round trip + controller processing).
  const sim::Duration resolve_delay = 2 * context_.timings.controller_rpc +
                                      context_.timings.controller_processing;
  context_.sim.schedule(
      resolve_delay,
      fenced([this, spec, report, done = std::move(done)]() mutable {
    if (const std::string reason = invalid_spec_reason(spec, context_.model);
        !reason.empty()) {
      done(Result<CreationReport>{ErrorCode::kInvalidArgument, reason});
      return;
    }
    if (spec.ingress_service.value() >= edge_controllers_.size() ||
        edge_controllers_[spec.ingress_service.value()] == nullptr ||
        spec.egress_service.value() >= edge_controllers_.size() ||
        edge_controllers_[spec.egress_service.value()] == nullptr) {
      done(Result<CreationReport>{ErrorCode::kUnavailable,
                                  "edge service not registered"});
      return;
    }
    const auto ingress =
        edge_controllers_[spec.ingress_service.value()]->resolve_site(
            spec.ingress_node);
    const auto egress =
        edge_controllers_[spec.egress_service.value()]->resolve_site(
            spec.egress_node);
    if (!ingress.ok() || !egress.ok()) {
      done(Result<CreationReport>{ErrorCode::kNotFound,
                                  "cannot resolve ingress/egress site"});
      return;
    }
    report.events.push_back({"sites_resolved", context_.sim.now()});

    // Register the chain in the network model.
    model::Chain chain;
    chain.name = spec.name;
    chain.ingress = spec.ingress_node;
    chain.egress = spec.egress_node;
    chain.vnfs = spec.vnfs;
    chain.forward_traffic.assign(spec.vnfs.size() + 1, spec.forward_traffic);
    chain.reverse_traffic.assign(spec.vnfs.size() + 1, spec.reverse_traffic);
    const ChainId chain_id = context_.model.add_chain(std::move(chain));

    ChainRecord record;
    record.id = chain_id;
    record.spec = spec;
    record.labels = dataplane::Labels{1000 + chain_id.value(),
                                      egress.value().value()};
    record.ingress_site = *ingress;
    record.egress_site = *egress;
    write_record(journal::Chain{record});
    report.chain = chain_id;
    report.labels = record.labels;

    // Fig. 4 step 2: compute the wide-area route.
    context_.sim.schedule(
        context_.timings.route_compute,
        fenced([this, chain_id, report, done = std::move(done)]() mutable {
          const ChainRecord* rec = state_.find(chain_id);
          SWB_CHECK(rec != nullptr);
          auto vnf_sites = route_sites(*rec, dp_options_, /*try_lp=*/true,
                                       /*admissible_only=*/true);
          report.events.push_back({"route_computed", context_.sim.now()});
          if (!vnf_sites) {
            done(Result<CreationReport>{ErrorCode::kInfeasible,
                                        "no feasible wide-area route"});
            return;
          }
          commit_route(chain_id, std::move(*vnf_sites), /*prepare_weight=*/1.0,
                       std::move(report), std::move(done), {}, 0);
        }));
  }));
}

namespace {

/// Bounded exponential backoff before RPC retry `rpc_retry` (0-based).
sim::Duration rpc_backoff(const ControlTimings& timings,
                          std::size_t rpc_retry) {
  return timings.rpc_retry_backoff
         << static_cast<sim::Duration>(std::min<std::size_t>(rpc_retry, 6));
}

}  // namespace

void GlobalSwitchboard::commit_route(
    ChainId chain_id, std::vector<SiteId> vnf_sites, double prepare_weight,
    CreationReport report, CreationCallback done,
    std::set<std::pair<std::uint32_t, std::uint32_t>> excluded,
    std::size_t attempt) {
  // Journal the 2PC intent before any participant hears about it: after a
  // crash anywhere in the round, recovery knows this (chain, route, sites)
  // begun and can re-drive or abort it.  Applying the begin allocates the
  // route id.
  const journal::Round round{chain_id, RouteId{state_.next_route_id}};
  report.route = round.route;
  write_record(journal::Begin{chain_id, round.route, std::move(vnf_sites)});

  // Two-phase commit, prepare round: parallel RPCs to each VNF controller
  // (round trip + processing).
  const sim::Duration prepare_delay = 2 * context_.timings.controller_rpc +
                                      context_.timings.controller_processing;
  context_.sim.schedule(
      prepare_delay,
      fenced([this, round, prepare_weight, report, done = std::move(done),
              excluded, attempt]() mutable {
        start_prepare_round(round, prepare_weight, std::move(report),
                            std::move(done), std::move(excluded), attempt,
                            /*rpc_retry=*/0);
      }));
}

void GlobalSwitchboard::start_prepare_round(
    journal::Round round, double prepare_weight, CreationReport report,
    CreationCallback done,
    std::set<std::pair<std::uint32_t, std::uint32_t>> excluded,
    std::size_t attempt, std::size_t rpc_retry) {
  const ChainRecord* rec = state_.find(round.chain);
  const auto inflight =
      state_.inflight.find({round.chain.value(), round.route.value()});
  SWB_CHECK(rec != nullptr && inflight != state_.inflight.end());
  const model::Chain& chain = context_.model.chain(round.chain);

  // Parallel prepares: collect a vote from every reachable participant; a
  // down controller answers nothing and leaves a timeout.  Re-delivered
  // prepares on a later retry are deduplicated per (chain, route, stage).
  bool all_prepared = true;
  bool timed_out = false;
  std::pair<std::uint32_t, std::uint32_t> rejected{0, 0};
  std::set<std::uint32_t> prepared_vnfs;
  for (std::size_t z = 1; z <= rec->spec.vnfs.size(); ++z) {
    const VnfId vnf = rec->spec.vnfs[z - 1];
    const SiteId site = inflight->second.vnf_sites[z - 1];
    VnfController* controller = vnf_controllers_[vnf.value()];
    SWB_CHECK(controller != nullptr);
    if (!controller->up()) {
      timed_out = true;
      continue;
    }
    const double load =
        context_.model.vnf(vnf).load_per_unit *
        (chain.stage_traffic(z) + chain.stage_traffic(z + 1)) *
        prepare_weight;
    if (controller->prepare(round.chain, round.route, site, load, z,
                            state_.epoch)) {
      prepared_vnfs.insert(vnf.value());
    } else {
      all_prepared = false;
      rejected = {vnf.value(), site.value()};
      break;
    }
  }

  if (!all_prepared) {
    // Abort the reservations made so far and recompute with the
    // rejecting placement excluded (Section 3, chain creation).
    for (const std::uint32_t vnf : prepared_vnfs) {
      vnf_controllers_[vnf]->abort(round.chain, round.route, state_.epoch);
    }
    write_record(journal::Abort{round});
    excluded.insert(rejected);
    report.events.push_back({"route_rejected", context_.sim.now()});
    if (attempt + 1 >= 4) {
      done(Result<CreationReport>{
          ErrorCode::kResourceExhausted,
          "2PC: no feasible route after repeated rejections"});
      return;
    }
    context_.sim.schedule(
        context_.timings.route_compute,
        fenced([this, chain_id = round.chain, report, done = std::move(done),
                excluded, attempt]() mutable {
          const ChainRecord* rec2 = state_.find(chain_id);
          SWB_CHECK(rec2 != nullptr);
          te::DpOptions options = dp_options_;
          options.site_allowed = [excluded](VnfId vnf, SiteId site) {
            return excluded.count({vnf.value(), site.value()}) == 0;
          };
          auto vnf_sites = route_sites(*rec2, options, /*try_lp=*/false,
                                       /*admissible_only=*/true);
          report.events.push_back({"route_recomputed", context_.sim.now()});
          if (!vnf_sites) {
            done(Result<CreationReport>{ErrorCode::kInfeasible,
                                        "no feasible route after 2PC "
                                        "rejection"});
            return;
          }
          commit_route(chain_id, std::move(*vnf_sites), /*prepare_weight=*/1.0,
                       std::move(report), std::move(done),
                       std::move(excluded), attempt + 1);
        }));
    return;
  }

  if (timed_out) {
    // Some participant never answered.  The timeout clock runs from round
    // entry; the round retries with bounded exponential backoff.
    report.events.push_back({"prepare_timeout", context_.sim.now()});
    if (rpc_retry >= context_.timings.max_rpc_retries) {
      SB_LOG(kWarn) << "2pc: prepare for chain " << round.chain << " route "
                    << round.route << " gave up after " << rpc_retry
                    << " retries";
      for (const std::uint32_t vnf : prepared_vnfs) {
        vnf_controllers_[vnf]->abort(round.chain, round.route, state_.epoch);
      }
      write_record(journal::Abort{round});
      done(Result<CreationReport>{
          ErrorCode::kUnavailable,
          "2PC prepare: participant unreachable after retries"});
      return;
    }
    context_.sim.schedule(
        context_.timings.rpc_timeout + rpc_backoff(context_.timings,
                                                   rpc_retry),
        fenced([this, round, prepare_weight, report, done = std::move(done),
                excluded, attempt, rpc_retry]() mutable {
          start_prepare_round(round, prepare_weight, std::move(report),
                              std::move(done), std::move(excluded), attempt,
                              rpc_retry + 1);
        }));
    return;
  }
  report.events.push_back({"prepared", context_.sim.now()});

  // Every participant voted yes: journal it so a crash from here on
  // re-drives the commit round instead of aborting (participants may have
  // already committed by then; re-commits are idempotent).
  write_record(journal::Prep{round});

  // Commit round — behind the quorum barrier: with replication on, the
  // prep record must be durable on a quorum before any participant hears
  // commit, or a failed-over leader could abort a round whose
  // participants already committed.
  after_quorum(fenced([this, round, report = std::move(report),
                       done = std::move(done)]() mutable {
    context_.sim.schedule(
        context_.timings.controller_rpc +
            context_.timings.controller_processing,
        fenced([this, round, report = std::move(report),
                done = std::move(done)]() mutable {
          start_commit_round(round, std::move(report), std::move(done),
                             /*rpc_retry=*/0);
        }));
  }));
}

void GlobalSwitchboard::start_commit_round(journal::Round round,
                                           CreationReport report,
                                           CreationCallback done,
                                           std::size_t rpc_retry) {
  const ChainRecord* rec = state_.find(round.chain);
  SWB_CHECK(rec != nullptr);

  // Commits to reachable participants; re-delivery on retry is idempotent
  // (kCommitted -> kCommitted, no reservations left to move).
  bool timed_out = false;
  for (const VnfId vnf : rec->spec.vnfs) {
    VnfController* controller = vnf_controllers_[vnf.value()];
    if (!controller->up()) {
      timed_out = true;
      continue;
    }
    controller->commit(round.chain, round.route, rec->labels.egress_site,
                       state_.epoch);
  }

  if (timed_out) {
    report.events.push_back({"commit_timeout", context_.sim.now()});
    if (rpc_retry >= context_.timings.max_rpc_retries) {
      // Roll the route back: reachable participants get abort (rejected-
      // and-counted where already committed) and release their committed
      // capacity; unreachable ones recover via the reservation TTL GC.
      SB_LOG(kWarn) << "2pc: commit for chain " << round.chain << " route "
                    << round.route << " gave up after " << rpc_retry
                    << " retries";
      // Journal the abort and make it quorum-durable BEFORE releasing the
      // participants: an abort the standbys never saw would make a
      // failed-over leader re-drive this prepared round against
      // participants that already rolled back.
      write_record(journal::Abort{round});
      after_quorum(fenced([this, round, done = std::move(done)]() mutable {
        const ChainRecord* rec3 = state_.find(round.chain);
        SWB_CHECK(rec3 != nullptr);
        for (const VnfId vnf : rec3->spec.vnfs) {
          VnfController* controller = vnf_controllers_[vnf.value()];
          if (!controller->up()) continue;
          controller->abort(round.chain, round.route, state_.epoch);
          controller->release(round.chain, round.route, state_.epoch);
        }
        done(Result<CreationReport>{
            ErrorCode::kUnavailable,
            "2PC commit: participant unreachable after retries"});
      }));
      return;
    }
    context_.sim.schedule(
        context_.timings.rpc_timeout + rpc_backoff(context_.timings,
                                                   rpc_retry),
        fenced([this, round, report, done = std::move(done),
                rpc_retry]() mutable {
          start_commit_round(round, std::move(report), std::move(done),
                             rpc_retry + 1);
        }));
    return;
  }
  report.events.push_back({"committed", context_.sim.now()});

  // The commit record moves the placement into the chain's routes and
  // rebalances the weights to 1/N (Fig. 10: the new route takes an even
  // share of new connections); loads follow by the chain's weight deltas
  // instead of a full rebuild over every active chain.  From here the
  // round is durable-committed: replay re-applies the route and recovery
  // re-drives participant commits if needed.
  ensure_loads_current();
  const std::vector<RouteRecord> before = rec->routes;
  write_record(journal::Commit{round});
  apply_weight_deltas(*rec, before);
  std::set<std::uint32_t> waiting_sites{rec->ingress_site.value(),
                                        rec->egress_site.value()};
  for (const SiteId site : rec->routes.back().vnf_sites) {
    waiting_sites.insert(site.value());
  }

  // Acknowledgment — behind the quorum barrier: routes are published,
  // edge instances announced, readiness tracked, and `done` armed only
  // once a quorum of replicas has the commit record durable.  The record
  // is re-found inside the resume: state_.chains may reallocate while the
  // barrier is pending.
  after_quorum(fenced([this, round, waiting_sites = std::move(waiting_sites),
                       report = std::move(report),
                       done = std::move(done)]() mutable {
    const ChainRecord* rec2 = state_.find(round.chain);
    SWB_CHECK(rec2 != nullptr);

    publish_routes(*rec2);
    report.events.push_back({"routes_published", context_.sim.now()});

    // Edge controllers allocate + announce instances (Fig. 4 step 4).
    edge_controllers_[rec2->spec.ingress_service.value()]
        ->announce_edge_instance(round.chain, rec2->labels.egress_site,
                                 rec2->ingress_site);
    edge_controllers_[rec2->spec.egress_service.value()]
        ->announce_edge_instance(round.chain, rec2->labels.egress_site,
                                 rec2->egress_site);

    // Track readiness of every involved site.
    PendingActivation pending;
    pending.chain = round.chain;
    pending.route = round.route;
    pending.waiting_sites = std::move(waiting_sites);
    pending.report = std::move(report);
    pending.done = std::move(done);
    pending_.push_back(std::move(pending));
#ifndef NDEBUG
    check_invariants();
#endif
  }));
}

void GlobalSwitchboard::add_route(ChainId chain,
                                  const std::vector<SiteId>& preferred_vnf_sites,
                                  CreationCallback done) {
  const ChainRecord* rec = state_.find(chain);
  if (rec == nullptr || !rec->active) {
    context_.sim.schedule(0, [done = std::move(done)] {
      done(Result<CreationReport>{ErrorCode::kNotFound,
                                  "chain not active"});
    });
    return;
  }

  CreationReport report;
  report.started = context_.sim.now();
  report.chain = chain;
  report.labels = rec->labels;
  report.events.push_back({"route_requested", context_.sim.now()});

  context_.sim.schedule(
      context_.timings.route_compute,
      fenced([this, chain, preferred_vnf_sites, report,
              done = std::move(done)]() mutable {
        const ChainRecord* rec2 = state_.find(chain);
        SWB_CHECK(rec2 != nullptr);
        // The new route prepares an equal share of traffic.
        const double prepare_weight =
            1.0 / static_cast<double>(rec2->routes.size() + 1);
        std::vector<SiteId> vnf_sites = preferred_vnf_sites;
        if (vnf_sites.empty()) {
          auto computed = route_sites(*rec2, dp_options_, /*try_lp=*/true,
                                      /*admissible_only=*/false);
          if (!computed) {
            done(Result<CreationReport>{ErrorCode::kInfeasible,
                                        "no feasible additional route"});
            return;
          }
          vnf_sites = std::move(*computed);
        } else if (vnf_sites.size() != rec2->spec.vnfs.size() ||
                   std::any_of(vnf_sites.begin(), vnf_sites.end(),
                               [this](SiteId site) {
                                 return site.value() >=
                                        context_.model.sites().size();
                               })) {
          done(Result<CreationReport>{ErrorCode::kInvalidArgument,
                                      "preferred sites must name one "
                                      "in-range site per VNF"});
          return;
        }
        report.events.push_back({"route_computed", context_.sim.now()});
        commit_route(chain, std::move(vnf_sites), prepare_weight,
                     std::move(report), std::move(done), {}, 0);
      }));
}

void GlobalSwitchboard::check_invariants() const {
  state_.check_invariants();   // names are labels: no uniqueness contract
  for (const ChainRecord& record : state_.chains) {
    if (!record.active) continue;
    for (const VnfId vnf : record.spec.vnfs) {
      SWB_CHECK(vnf.value() < vnf_controllers_.size() &&
                vnf_controllers_[vnf.value()] != nullptr)
          << "active chain " << record.id.value()
          << " uses unregistered vnf " << vnf.value();
    }
  }

  for (const PendingActivation& pending : pending_) {
    const ChainRecord* record = find_record(pending.chain);
    SWB_CHECK(record != nullptr)
        << "pending activation for unknown chain " << pending.chain.value();
    // Drained activations are erased in on_route_ready, so a lingering
    // empty waiting set means a completion was lost.
    SWB_CHECK(!pending.waiting_sites.empty())
        << "pending activation for chain " << pending.chain.value()
        << " route " << pending.route.value() << " awaits no site";
    const bool route_known =
        std::any_of(record->routes.begin(), record->routes.end(),
                    [&](const RouteRecord& r) { return r.id == pending.route; });
    SWB_CHECK(route_known) << "pending activation for unknown route "
                           << pending.route.value();
  }

  for (const VnfController* controller : vnf_controllers_) {
    if (controller != nullptr) controller->check_invariants();
  }
  loads_.check_invariants();

  // The incrementally-maintained loads must match a rebuild from the
  // active chains (within round-off from weight-delta accumulation).
  if (loads_primed_ && model_shape() == loads_shape_) {
    constexpr double kTolerance = 1e-6;
    te::Loads rebuilt{context_.model};
    rebuild_loads_into(rebuilt);
    for (std::size_t e = 0; e < context_.model.topology().link_count(); ++e) {
      const LinkId link{static_cast<LinkId::underlying_type>(e)};
      SWB_CHECK_LE(std::abs(loads_.link_load(link) - rebuilt.link_load(link)),
                   kTolerance * std::max(1.0, rebuilt.link_load(link)))
          << "incremental link load drifted on link " << e;
    }
    for (std::size_t s = 0; s < context_.model.sites().size(); ++s) {
      const SiteId site{static_cast<SiteId::underlying_type>(s)};
      SWB_CHECK_LE(std::abs(loads_.site_load(site) - rebuilt.site_load(site)),
                   kTolerance * std::max(1.0, rebuilt.site_load(site)))
          << "incremental site load drifted on site " << s;
      for (std::size_t f = 0; f < context_.model.vnfs().size(); ++f) {
        const VnfId vnf{static_cast<VnfId::underlying_type>(f)};
        SWB_CHECK_LE(
            std::abs(loads_.vnf_site_load(vnf, site) -
                     rebuilt.vnf_site_load(vnf, site)),
            kTolerance * std::max(1.0, rebuilt.vnf_site_load(vnf, site)))
            << "incremental vnf load drifted: vnf " << f << " site " << s;
      }
    }
  }
}

RecoveryReport GlobalSwitchboard::on_instance_down(VnfId vnf, SiteId site) {
  if (!up_) return RecoveryReport{};   // a dead coordinator reacts to nothing
  SB_LOG(kInfo) << "recovery: vnf " << vnf << " down at site " << site;
  // Remember the healthy capacity (first report only — a site death fans
  // out one report per pool, and repeats must not save the zeroed value)
  // so on_instance_up can undo the zeroing, across crashes.
  if (state_.dead_pools.count({vnf.value(), site.value()}) == 0) {
    const double capacity = context_.model.vnf(vnf).capacity_at(site);
    if (capacity > 0.0) write_record(journal::PoolDown{vnf, site, capacity});
  }
  // The dead pool contributes no capacity until restored: route
  // computation (replacements and future chains) avoids the site, and a
  // participant prepare there votes abort.
  context_.model.set_vnf_site_capacity(vnf, site, 0.0);
  // The recovery actions — the drain trigger (weight-0 instance
  // re-announcements that invalidate pinned flows) and the route
  // retirements — wait on the quorum barrier: a failed-over leader must
  // know the pool transition it is retiring routes for.  Without a gate
  // this runs synchronously and the report is returned to the caller;
  // behind a gate the report is empty (the actions settle later — the
  // detector's post-failover resync re-reports still-down pools, so a
  // dropped barrier self-heals).
  auto actions = [this, vnf, site]() -> RecoveryReport {
    if (vnf.value() < vnf_controllers_.size() &&
        vnf_controllers_[vnf.value()] != nullptr &&
        vnf_controllers_[vnf.value()]->up()) {
      vnf_controllers_[vnf.value()]->reannounce_instances(site);
    }
    return retire_routes(
        [vnf, site](const ChainRecord& record, const RouteRecord& route) {
          for (std::size_t z = 0; z < route.vnf_sites.size(); ++z) {
            if (record.spec.vnfs[z] == vnf && route.vnf_sites[z] == site) {
              return true;
            }
          }
          return false;
        });
  };
  if (quorum_gate_ == nullptr) return actions();
  quorum_gate_(fenced([actions] { actions(); }));
  return RecoveryReport{};
}

std::optional<std::vector<SiteId>> GlobalSwitchboard::route_sites(
    const ChainRecord& record, const te::DpOptions& options, bool try_lp,
    bool admissible_only) {
  ensure_loads_current();   // resizes after late VNF registration
  if (try_lp && te_mode_ == TeMode::kSbLp) {
    if (auto sites = lp_route_sites(record.id)) return sites;
  }
  const te::SingleRoute route = te::find_single_route(
      context_.model, context_.model.chain(record.id), loads_, options, 1.0,
      te::TeContext{nullptr, &scratch_});
  if (!route.found || (admissible_only && route.admissible_fraction <= 0)) {
    return std::nullopt;
  }
  const auto first = route.sites.begin() + 1;
  return std::vector<SiteId>(
      first, first + static_cast<std::ptrdiff_t>(record.spec.vnfs.size()));
}

std::optional<std::vector<SiteId>> GlobalSwitchboard::lp_route_sites(
    ChainId chain) {
  te::LpRoutingOptions options;
  options.objective = te::LpObjective::kMaxThroughput;
  if (lp_basis_valid_) options.warm_start = &lp_basis_;
  te::LpRoutingResult result = te::solve_lp_routing(context_.model, options);
  if (!result.optimal()) return std::nullopt;
  lp_basis_ = std::move(result.basis);
  lp_basis_valid_ = true;
  return te::primary_route_sites(context_.model, result.routing, chain);
}

RecoveryReport GlobalSwitchboard::retire_routes(
    const std::function<bool(const ChainRecord&, const RouteRecord&)>&
        doomed) {
  RecoveryReport report;
  ensure_loads_current();
  for (const ChainRecord& record : state_.chains) {
    if (!record.active) continue;
    const std::vector<RouteRecord> before = record.routes;
    std::vector<RouteRecord> removed;
    for (const RouteRecord& route : before) {
      if (doomed(record, route)) removed.push_back(route);
    }
    if (removed.empty()) continue;
    ++report.affected_chains;

    std::vector<CreationCallback> stranded;
    for (const RouteRecord& route : removed) {
      ++report.routes_removed;
      report.rerouted_volume +=
          route.weight *
          (record.spec.forward_traffic + record.spec.reverse_traffic);

      // Weight-0 tombstone: Local Switchboards keep the route record (its
      // id may linger in flow pinnings) but stop steering traffic onto it.
      RouteAnnouncement tombstone = to_announcement(record, route);
      tombstone.weight = 0.0;
      context_.bus.publish(routes_topic(), serialize(tombstone));

      // Return the committed 2PC capacity at every reachable participant;
      // unreachable ones reconcile when they come back (their state is
      // kCommitted either way).
      for (const VnfId vnf : record.spec.vnfs) {
        if (vnf.value() >= vnf_controllers_.size()) continue;
        VnfController* controller = vnf_controllers_[vnf.value()];
        if (controller != nullptr && controller->up()) {
          controller->release(record.id, route.id, state_.epoch);
        }
      }
      // The retire record drops the route; survivors split the chain's
      // traffic evenly again, and a chain left with none deactivates.
      write_record(journal::Retire{{record.id, route.id}});

      // A failure racing activation: complete the waiting creation with an
      // error instead of leaving it stranded forever.
      const auto waiting = std::find_if(
          pending_.begin(), pending_.end(), [&](const PendingActivation& p) {
            return p.chain == record.id && p.route == route.id;
          });
      if (waiting != pending_.end()) {
        stranded.push_back(std::move(waiting->done));
        pending_.erase(waiting);
      }
    }
    // Only the affected chain's load deltas are applied (incremental
    // re-solve), before any stranded creation hears of the retirement.
    apply_weight_deltas(record, before);
    for (CreationCallback& done : stranded) {
      if (done) {
        done(Result<CreationReport>{
            ErrorCode::kUnavailable,
            "route retired by failure recovery during activation"});
      }
    }

    if (record.active) {
      publish_routes(record);
    } else {
      // The failure took the chain's last route: request a replacement
      // through the normal compute + 2PC pipeline.
      ++report.replacements_requested;
      replace_route(record.id);
    }
  }
  SB_LOG(kInfo) << "recovery: " << report.routes_removed
                << " route(s) retired across " << report.affected_chains
                << " chain(s), " << report.replacements_requested
                << " replacement(s) requested";
#ifndef NDEBUG
  check_invariants();
#endif
  return report;
}

void GlobalSwitchboard::replace_route(ChainId chain) {
  CreationReport report;
  report.started = context_.sim.now();
  report.chain = chain;
  report.events.push_back({"replacement_requested", context_.sim.now()});
  context_.sim.schedule(
      context_.timings.route_compute, fenced([this, chain, report]() mutable {
        const ChainRecord* rec = state_.find(chain);
        SWB_CHECK(rec != nullptr);
        report.labels = rec->labels;
        auto vnf_sites = route_sites(*rec, dp_options_, /*try_lp=*/true,
                                     /*admissible_only=*/true);
        report.events.push_back({"route_computed", context_.sim.now()});
        if (!vnf_sites) {
          SB_LOG(kWarn) << "recovery: no feasible replacement route for "
                        << "chain " << chain;
          return;
        }
        commit_route(chain, std::move(*vnf_sites), /*prepare_weight=*/1.0,
                     std::move(report),
                     [chain](Result<CreationReport> result) {
                       if (result.ok()) {
                         SB_LOG(kInfo)
                             << "recovery: replacement route active for "
                             << "chain " << chain;
                       } else {
                         SB_LOG(kWarn)
                             << "recovery: replacement route failed for "
                             << "chain " << chain << ": "
                             << result.error().message;
                       }
                     },
                     {}, 0);
      }));
}

void GlobalSwitchboard::on_route_ready(ChainId chain, RouteId route,
                                       SiteId site) {
  if (!up_) return;   // readiness from the old incarnation is re-derived
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    PendingActivation& pending = pending_[i];
    if (pending.chain != chain || pending.route != route) continue;
    pending.waiting_sites.erase(site.value());
    pending.report.events.push_back(
        {"site_" + std::to_string(site.value()) + "_ready",
         context_.sim.now()});
    if (!pending.waiting_sites.empty()) return;
    pending.report.completed = context_.sim.now();
    pending.report.events.push_back({"activated", context_.sim.now()});
    CreationCallback done = std::move(pending.done);
    CreationReport report = std::move(pending.report);
    pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
#ifndef NDEBUG
    check_invariants();
#endif
    if (done) done(Result<CreationReport>{std::move(report)});
    return;
  }
}

// --- durability & crash-with-amnesia recovery ----------------------------

void GlobalSwitchboard::enable_durability(StateJournal* journal) {
  SWB_CHECK(journal != nullptr) << "enable_durability(nullptr)";
  journal_ = journal;
  // Persist the current state as the base snapshot so a crash before the
  // first journaled change still recovers the epoch and any pre-existing
  // chains.
  journal_->write_snapshot(state_.encode_snapshot());
}

void GlobalSwitchboard::write_record(const JournalRecord& record) {
  const Status applied = state_.apply(record);
  SWB_CHECK(applied.ok()) << "coordinator record does not apply: "
                          << encode(record) << ": "
                          << applied.error().to_string();
  if (journal_ == nullptr) return;
  const std::string line = encode(record);
  journal_->append(line);
  // The replication stream taps every append, in order, right here.
  if (journal_observer_) journal_observer_(line);
  if (journal_->wants_snapshot()) {
    journal_->write_snapshot(state_.encode_snapshot());
    ++compactions_;
  }
}

void GlobalSwitchboard::set_journal_observer(
    std::function<void(const std::string&)> observer) {
  journal_observer_ = std::move(observer);
}

void GlobalSwitchboard::set_quorum_gate(
    std::function<void(std::function<void()>)> gate) {
  quorum_gate_ = std::move(gate);
}

void GlobalSwitchboard::after_quorum(std::function<void()> resume) {
  if (quorum_gate_ == nullptr) {
    resume();   // single-controller mode: no barrier, identical timing
    return;
  }
  quorum_gate_(std::move(resume));
}

ColdStartReport GlobalSwitchboard::cold_start() {
  SWB_CHECK(journal_ != nullptr) << "cold_start requires enable_durability";
  SB_LOG(kInfo) << "durability: cold start from journal '"
                << journal_->config().name << "'";
  const std::vector<std::string> records = journal_->records();
  Result<ControllerState> replayed = ControllerState::replay(records);
  SWB_CHECK(replayed.ok()) << "journal does not replay: "
                           << replayed.error().to_string();
  return restart_with(std::move(replayed).value(), records.size(),
                      journal_->replay_cost());
}

ColdStartReport GlobalSwitchboard::warm_failover(StateJournal* journal,
                                                 ControllerState state) {
  SWB_CHECK(journal != nullptr);
  journal_ = journal;
  SB_LOG(kInfo) << "replication: warm failover onto journal '"
                << journal_->config().name << "'";
  return restart_with(std::move(state), 0, sim::Duration{0});
}

ColdStartReport GlobalSwitchboard::restart_with(
    ControllerState state, std::size_t replayed_records,
    sim::Duration charged_replay_cost) {
  // Amnesia: every volatile structure is forgotten; the journaled part is
  // `state`, rebuilt by replay or adopted from a hot standby.
  state_ = std::move(state);
  pending_.clear();

  ColdStartReport report;
  report.replayed_records = replayed_records;
  report.chains_restored = state_.chains.size();
  for (const ChainRecord& record : state_.chains) {
    report.routes_restored += record.routes.size();
  }
  rebuild_loads();

  // The new incarnation outranks everything the journal has seen; persist
  // the bump so a second crash recovers a still-higher epoch.
  report.replay_cost = charged_replay_cost;
  up_ = true;
  write_record(journal::Epoch{state_.epoch + 1});
  report.epoch = state_.epoch;
  last_cold_start_ = report;

  // Charge the replay as simulated downtime, then resolve what the crash
  // interrupted and reconcile the participants.
  context_.sim.schedule(
      std::max<sim::Duration>(sim::Duration{1}, report.replay_cost),
      fenced([this] { resolve_inflight_and_reconcile(); }));
  SB_LOG(kInfo) << "durability: replayed " << report.replayed_records
                << " record(s), " << report.chains_restored << " chain(s), "
                << report.routes_restored << " route(s), new epoch "
                << state_.epoch;
  return report;
}

void GlobalSwitchboard::resolve_inflight_and_reconcile() {
  // Resolve every 2PC round the crash interrupted.  Prepared rounds hold
  // unanimous votes, so commit is the only outcome that cannot strand a
  // participant reservation; unprepared rounds abort (no participant may
  // have heard anything, and an abort for an unknown round is a no-op).
  const auto inflight = state_.inflight;   // re-drives mutate state_.inflight
  for (const auto& [key, round] : inflight) {
    const ChainId chain{key.first};
    const RouteId route_id{key.second};
    if (round.prepared) {
      ++last_cold_start_.redriven_commits;
      SB_LOG(kInfo) << "durability: re-driving commit for chain " << chain
                    << " route " << route_id;
      CreationReport report;
      report.started = context_.sim.now();
      report.chain = chain;
      report.route = route_id;
      start_commit_round(
          journal::Round{chain, route_id}, std::move(report),
          [chain, route_id](Result<CreationReport> result) {
            if (result.ok()) {
              SB_LOG(kInfo) << "durability: re-driven commit active for "
                            << "chain " << chain << " route " << route_id;
            } else {
              SB_LOG(kWarn) << "durability: re-driven commit failed for "
                            << "chain " << chain << " route " << route_id
                            << ": " << result.error().message;
            }
          },
          /*rpc_retry=*/0);
    } else {
      ++last_cold_start_.aborted_inflight;
      const ChainRecord* rec = find_record(chain);
      if (rec != nullptr) {
        for (const VnfId vnf : rec->spec.vnfs) {
          if (vnf.value() >= vnf_controllers_.size()) continue;
          VnfController* controller = vnf_controllers_[vnf.value()];
          if (controller != nullptr && controller->up()) {
            controller->abort(chain, route_id, state_.epoch);
            ++last_cold_start_.reconciliation_messages;
          }
        }
      }
      write_record(journal::Abort{{chain, route_id}});
    }
  }

  // Reconciliation sweep: any capacity a participant holds committed for a
  // (chain, route) the journal does not own — routes retired or aborted
  // whose release the crash swallowed — is orphaned; release it.
  for (VnfController* controller : vnf_controllers_) {
    if (controller == nullptr || !controller->up()) continue;
    ++last_cold_start_.reconciliation_messages;   // the sweep query itself
    for (const auto& [chain, route_id] : controller->committed_routes()) {
      bool owned =
          state_.inflight.count({chain.value(), route_id.value()}) > 0;
      if (!owned) {
        const ChainRecord* rec = find_record(chain);
        if (rec != nullptr) {
          owned = std::any_of(
              rec->routes.begin(), rec->routes.end(),
              [&](const RouteRecord& r) { return r.id == route_id; });
        }
      }
      if (owned) continue;
      SB_LOG(kInfo) << "durability: releasing orphaned capacity for chain "
                    << chain << " route " << route_id;
      controller->release(chain, route_id, state_.epoch);
      ++last_cold_start_.orphans_released;
      ++last_cold_start_.reconciliation_messages;
    }
  }

  // Re-publish every active chain under the new epoch so the Local
  // Switchboards' fences advance and any stale-incarnation announcement
  // still in flight is rejected on arrival.
  for (const ChainRecord& record : state_.chains) {
    if (!record.active) continue;
    publish_routes(record);
    last_cold_start_.reconciliation_messages += record.routes.size();
  }
#ifndef NDEBUG
  check_invariants();
#endif
}

void GlobalSwitchboard::on_instance_up(VnfId vnf, SiteId site) {
  if (!up_) return;
  const auto it = state_.dead_pools.find({vnf.value(), site.value()});
  if (it == state_.dead_pools.end()) return;   // never seen down, or already up
  SB_LOG(kInfo) << "recovery: vnf " << vnf << " back up at site " << site
                << ", restoring capacity " << it->second;
  context_.model.set_vnf_site_capacity(vnf, site, it->second);
  write_record(journal::PoolUp{vnf, site});
  // Re-announce the pool so Local Switchboards rebalance onto it — behind
  // the quorum barrier, like the pool-down drain.
  after_quorum(fenced([this, vnf, site] {
    if (vnf.value() < vnf_controllers_.size() &&
        vnf_controllers_[vnf.value()] != nullptr &&
        vnf_controllers_[vnf.value()]->up()) {
      vnf_controllers_[vnf.value()]->reannounce_instances(site);
    }
  }));
}

}  // namespace switchboard::control
