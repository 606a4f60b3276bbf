#include "control/messages.hpp"

#include <algorithm>
#include <charconv>
#include <limits>
#include <sstream>

namespace switchboard::control {
namespace {

/// Calls `fn` on every non-empty `sep`-separated item of `list`; false as
/// soon as `fn` is.
template <typename Fn>
bool for_each_item(std::string_view list, char sep, Fn&& fn) {
  while (!list.empty()) {
    const std::size_t end = std::min(list.find(sep), list.size());
    if (end > 0 && !fn(list.substr(0, end))) return false;
    list.remove_prefix(std::min(end + 1, list.size()));
  }
  return true;
}

/// Calls `fn` with the three ':'-separated fields of every ','-separated
/// item of `list`; false when an item is malformed or `fn` says so.
template <typename Fn>
bool for_each_triple(std::string_view list, Fn&& fn) {
  return for_each_item(list, ',', [&fn](std::string_view item) {
    const auto c1 = item.find(':');
    const auto c2 = item.find(':', c1 + 1);
    return c1 != std::string_view::npos && c2 != std::string_view::npos &&
           fn(item.substr(0, c1), item.substr(c1 + 1, c2 - c1 - 1),
              item.substr(c2 + 1));
  });
}

template <typename T>
std::optional<T> parse_number(std::string_view token) {
  T value{};
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (token.empty() || ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

std::optional<std::uint32_t> parse_u32(std::string_view token) {
  const auto value = parse_number<std::uint64_t>(token);
  if (!value || *value > std::numeric_limits<std::uint32_t>::max()) {
    return std::nullopt;
  }
  return static_cast<std::uint32_t>(*value);
}

}  // namespace

KvFields::KvFields(std::string_view payload) {
  for_each_item(payload, ';', [this](std::string_view pair) {
    const std::size_t eq = pair.find('=');
    if (eq != std::string_view::npos) {
      fields_.emplace_back(pair.substr(0, eq), pair.substr(eq + 1));
    }
    return true;
  });
}

std::optional<std::string_view> KvFields::text(std::string_view key) const {
  for (auto it = fields_.rbegin(); it != fields_.rend(); ++it) {
    if (it->first == key) return it->second;
  }
  return std::nullopt;
}

std::uint64_t KvFields::u64(std::string_view key) {
  const auto value = parse_number<std::uint64_t>(text(key).value_or(""));
  ok_ = ok_ && value;
  return value.value_or(0);
}

std::uint32_t KvFields::u32(std::string_view key) {
  const auto value = parse_u32(text(key).value_or(""));
  ok_ = ok_ && value;
  return value.value_or(0);
}

double KvFields::f64(std::string_view key) {
  const auto value = parse_number<double>(text(key).value_or(""));
  ok_ = ok_ && value;
  return value.value_or(0.0);
}

std::vector<std::uint32_t> KvFields::u32_list(std::string_view key) {
  std::vector<std::uint32_t> out;
  const auto list = text(key);
  ok_ = ok_ && list && for_each_item(*list, ',', [&out](std::string_view v) {
          const auto id = parse_u32(v);
          if (id) out.push_back(*id);
          return id.has_value();
        });
  return out;
}

std::string serialize(const InstanceAnnouncement& m) {
  std::ostringstream out;
  out << "type=instance;id=" << m.instance << ";fw=" << m.forwarder
      << ";w=" << m.weight;
  return out.str();
}

std::string serialize(const ForwarderAnnouncement& m) {
  std::ostringstream out;
  out << "type=forwarder;id=" << m.forwarder << ";w=" << m.weight;
  return out.str();
}

std::string serialize(const RouteAnnouncement& m) {
  std::ostringstream out;
  out << "type=route;chain=" << m.chain.value() << ";route=" << m.route.value()
      << ";cl=" << m.chain_label << ";el=" << m.egress_label
      << ";in=" << m.ingress_site.value() << ";out=" << m.egress_site.value()
      << ";w=" << m.weight << ";ep=" << m.epoch << ";hops=";
  for (std::size_t i = 0; i < m.hops.size(); ++i) {
    if (i > 0) out << ',';
    out << m.hops[i].stage << ':' << m.hops[i].vnf.value() << ':'
        << m.hops[i].site.value();
  }
  return out.str();
}

std::string serialize(const Heartbeat& m) {
  std::ostringstream out;
  out << "type=heartbeat;site=" << m.site.value() << ";seq=" << m.seq
      << ";down=";
  for (std::size_t i = 0; i < m.down_elements.size(); ++i) {
    if (i > 0) out << ',';
    out << m.down_elements[i];
  }
  return out.str();
}

std::optional<Heartbeat> parse_heartbeat(const std::string& payload) {
  KvFields f{payload};
  Heartbeat m{SiteId{f.u32("site")}, f.u64("seq"),
              f.u32_list("down")};
  if (!f.ok()) return std::nullopt;
  return m;
}

std::optional<InstanceAnnouncement> parse_instance(const std::string& payload) {
  KvFields f{payload};
  InstanceAnnouncement m{f.u32("id"), f.u32("fw"), f.f64("w")};
  if (!f.ok()) return std::nullopt;
  return m;
}

std::optional<ForwarderAnnouncement> parse_forwarder(
    const std::string& payload) {
  KvFields f{payload};
  ForwarderAnnouncement m{f.u32("id"), f.f64("w")};
  if (!f.ok()) return std::nullopt;
  return m;
}

std::optional<RouteAnnouncement> parse_route(const std::string& payload) {
  KvFields f{payload};
  RouteAnnouncement m{ChainId{f.u32("chain")}, RouteId{f.u32("route")},
                      f.u32("cl"),   f.u32("el"),
                      SiteId{f.u32("in")}, SiteId{f.u32("out")},
                      f.f64("w"),
                      // Optional for wire compatibility with pre-epoch
                      // senders: absent => 0.
                      f.text("ep") ? f.u64("ep") : 0, {}};
  const auto hops = f.text("hops");
  if (!f.ok() || !hops) return std::nullopt;
  const bool ok = for_each_triple(*hops, [&m](auto stage, auto vnf,
                                             auto site) {
    const auto z = parse_u32(stage);
    const auto v = parse_u32(vnf);
    const auto s = parse_u32(site);
    if (z && v && s) m.hops.push_back(RouteHop{*z, VnfId{*v}, SiteId{*s}});
    return z && v && s;
  });
  if (!ok) return std::nullopt;
  return m;
}

std::string serialize(const AnycastAnnouncement& m) {
  std::ostringstream out;
  out << "type=anycast;origin=" << m.origin.value() << ";seq=" << m.seq
      << ";pd=" << m.path_delay_ms << ";vnfs=";
  for (std::size_t i = 0; i < m.entries.size(); ++i) {
    if (i > 0) out << ',';
    out << m.entries[i].vnf.value() << ':' << m.entries[i].live_instances
        << ':' << m.entries[i].residual_capacity;
  }
  return out.str();
}

std::optional<AnycastAnnouncement> parse_anycast(const std::string& payload) {
  KvFields f{payload};
  AnycastAnnouncement m{SiteId{f.u32("origin")}, f.u64("seq"), f.f64("pd"),
                        {}};
  const auto vnfs = f.text("vnfs");
  if (!f.ok() || !vnfs) return std::nullopt;
  const bool ok = for_each_triple(*vnfs, [&m](auto vnf, auto live,
                                             auto residual) {
    const auto v = parse_u32(vnf);
    const auto l = parse_u32(live);
    const auto r = parse_number<double>(residual);
    if (v && l && r) m.entries.push_back(AnycastVnfEntry{VnfId{*v}, *l, *r});
    return v && l && r;
  });
  if (!ok) return std::nullopt;
  return m;
}

std::string serialize(const ReplicationFrame& m) {
  std::ostringstream out;
  out << "type=repl;k=" << static_cast<unsigned>(m.kind)
      << ";from=" << m.from << ";ep=" << m.epoch << ";seq=" << m.seq
      << ";dg=" << m.digest << ";body=";
  for (std::size_t i = 0; i < m.records.size(); ++i) {
    if (i > 0) out << '\n';
    out << m.records[i];
  }
  return out.str();
}

std::optional<ReplicationFrame> parse_replication(const std::string& payload) {
  // The body carries raw journal records, which embed ';' and '=' freely —
  // it is always the LAST field, split off verbatim before the k=v parse.
  const std::string_view marker = ";body=";
  const auto body_at = payload.find(marker);
  if (body_at == std::string::npos) return std::nullopt;
  KvFields f{std::string_view{payload}.substr(0, body_at)};
  const std::uint64_t kind = f.u64("k");
  ReplicationFrame m{static_cast<ReplicationKind>(kind), f.u32("from"),
                     f.u64("ep"), f.u64("seq"), f.u64("dg"), {}};
  if (!f.ok() ||
      kind > static_cast<std::uint64_t>(ReplicationKind::kSnapshotAck)) {
    return std::nullopt;
  }
  std::istringstream body_in{payload.substr(body_at + marker.size())};
  std::string record;
  while (std::getline(body_in, record)) {
    if (record.empty()) return std::nullopt;
    m.records.push_back(record);
  }
  return m;
}

}  // namespace switchboard::control
