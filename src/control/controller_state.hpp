// control::ControllerState — the journaled part of the Global Switchboard,
// its typed journal records, and their one codec and one interpreter
// (DESIGN.md §13, §18).
//
// encode() writes a JournalRecord as one "k=v;" line (the bus-message
// grammar, read by the shared KvFields); decode() returns an error instead
// of aborting, because records also arrive over the bus.  The chain name,
// the one free-text field, has '%', ';' and '\n' percent-escaped.
//
// apply() is the only interpreter: the live coordinator (applying each
// record just before it journals it, so a snapshot cut inside the append
// already holds the record), cold-start replay, every follower's hot
// standby, and encode_snapshot() (the shortest record sequence that applies
// back to the same state) all go through it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "common/result.hpp"
#include "common/types.hpp"
#include "dataplane/packet.hpp"

namespace switchboard::control {

struct ChainSpec {
  std::string name;
  EdgeServiceId ingress_service;
  NodeId ingress_node;
  EdgeServiceId egress_service;
  NodeId egress_node;
  std::vector<VnfId> vnfs;
  /// Estimated per-stage traffic (customer estimate at first deployment).
  double forward_traffic{1.0};
  double reverse_traffic{0.0};
};

struct RouteRecord {
  RouteId id;
  std::vector<SiteId> vnf_sites;   // one per VNF in the chain
  double weight{1.0};
};

struct ChainRecord {
  ChainId id;
  ChainSpec spec;
  dataplane::Labels labels;
  SiteId ingress_site;
  SiteId egress_site;
  std::vector<RouteRecord> routes;
  bool active{false};
};

/// The record kinds, one struct each; the comments give the "t=" tag.
namespace journal {
struct Epoch {   // epoch: an incarnation, bumped by every restart
  std::uint64_t epoch{0};
};
struct NextRouteId {   // nri: the route-id allocator (snapshots only)
  std::uint32_t next{0};
};
struct Chain {   // chain: a registration; its routes follow as begin+commit
  ChainRecord chain;
};
struct Begin {   // begin: a 2PC round's intent with its VNF placement
  ChainId chain;
  RouteId route;
  std::vector<SiteId> sites;
};
/// The (chain, route) round a prep/commit/abort/retire record moves.
struct Round {
  ChainId chain;
  RouteId route;
};
struct Prep : Round {   // every participant voted yes
  static constexpr const char* kTag = "prep";
};
struct Commit : Round {   // the route is live
  static constexpr const char* kTag = "commit";
};
struct Abort : Round {   // the round rolled back
  static constexpr const char* kTag = "abort";
};
struct Retire : Round {   // failure recovery removed the route
  static constexpr const char* kTag = "retire";
};
struct PoolDown {   // pooldown: `capacity` is what poolup restores
  VnfId vnf;
  SiteId site;
  double capacity{0.0};
};
struct PoolUp {   // poolup: the pool is back
  VnfId vnf;
  SiteId site;
};
}  // namespace journal

using JournalRecord =
    std::variant<journal::Epoch, journal::NextRouteId, journal::Chain,
                 journal::Begin, journal::Prep, journal::Commit,
                 journal::Abort, journal::Retire, journal::PoolDown,
                 journal::PoolUp>;

/// One journal line (no '\n'); doubles round-trip exactly (%.17g).
[[nodiscard]] std::string encode(const JournalRecord& record);
/// Parses one journal line; any malformed input is an error value.
[[nodiscard]] Result<JournalRecord> decode(std::string_view text);

struct ControllerState {
  /// (chain, route) for rounds; (vnf, site) for pools.
  using Key = std::pair<std::uint32_t, std::uint32_t>;
  /// One 2PC round between its begin and its terminal record — exactly
  /// what a restart must resolve.
  struct Inflight {
    std::vector<SiteId> vnf_sites;
    bool prepared{false};
  };

  std::vector<ChainRecord> chains;
  std::map<Key, Inflight> inflight;
  /// Failed pools (vnf, site) -> capacity to restore on poolup.
  std::map<Key, double> dead_pools;
  std::uint32_t next_route_id{0};
  /// Highest incarnation journaled — the live coordinator's own epoch.
  std::uint64_t epoch{0};

  /// O(1) through the id index apply() keeps beside `chains`.
  [[nodiscard]] ChainRecord* find(ChainId id) {
    const auto it = chain_slots_.find(id.value());
    return it == chain_slots_.end() ? nullptr : &chains[it->second];
  }
  [[nodiscard]] const ChainRecord* find(ChainId id) const {
    const auto it = chain_slots_.find(id.value());
    return it == chain_slots_.end() ? nullptr : &chains[it->second];
  }

  /// Applies one record.  A record that does not fit the state (a prep or
  /// commit with no begin, a begin for an unknown chain, ...) is rejected
  /// with the state unchanged.  A begin advances the route-id allocator
  /// past its id; route weights stay 1/N and a chain is active iff it has
  /// routes.
  [[nodiscard]] Status apply(const JournalRecord& record);

  /// Rebuilds a state from journal lines (snapshot, then log) through
  /// decode + apply; the first bad line fails the whole replay.
  [[nodiscard]] static Result<ControllerState> replay(
      const std::vector<std::string>& records);

  /// The shortest record sequence that replays to this state.
  [[nodiscard]] std::vector<std::string> encode_snapshot() const;

  /// Audits (SWB_CHECK): chain ids unique and each indexed at its slot;
  /// every route has one site per VNF, a weight in (0, 1] and an id below
  /// the allocator; a chain is active iff it has routes, whose weights
  /// then sum to 1; every in-flight round belongs to a known chain and is
  /// not committed yet.
  void check_invariants() const;

 private:
  /// Position in `chains` of each chain id.  Chains are only ever
  /// appended, by apply(), which records the slot — so replay, the
  /// standbys and an adopted state carry the index with them.
  std::unordered_map<std::uint32_t, std::size_t> chain_slots_;
};

}  // namespace switchboard::control
