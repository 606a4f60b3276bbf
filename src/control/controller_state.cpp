#include "control/controller_state.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdio>
#include <optional>
#include <set>
#include <type_traits>

#include "common/check.hpp"
#include "control/messages.hpp"

namespace switchboard::control {
namespace {

template <typename T, typename... Kinds>
constexpr bool kIsOneOf = (std::is_same_v<T, Kinds> || ...);

/// The name is the one free-text field: the bytes the line grammar
/// reserves are percent-escaped.
std::string escape(const std::string& name) {
  std::string out;
  for (const char c : name) {
    if (c != '%' && c != ';' && c != '\n') {
      out += c;
      continue;
    }
    char hex[4];
    std::snprintf(hex, sizeof hex, "%%%02X", static_cast<unsigned char>(c));
    out += hex;
  }
  return out;
}

std::optional<std::string> unescape(std::string_view text) {
  std::string out;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '%') {
      out += text[i];
      continue;
    }
    unsigned byte = 0;
    const char* end = text.data() + std::min(i + 3, text.size());
    const auto [ptr, ec] = std::from_chars(text.data() + i + 1, end, byte, 16);
    if (ec != std::errc{} || ptr != text.data() + i + 3) return std::nullopt;
    out += static_cast<char>(byte);
    i += 2;
  }
  return out;
}

/// Builds one journal line in a std::string: numbers go through
/// std::to_chars (a double as %.17g, so it round-trips exactly), which
/// costs no stream and no locale per record.
class LineWriter {
 public:
  LineWriter& operator<<(std::string_view text) {
    line_ += text;
    return *this;
  }
  template <std::unsigned_integral T>
  LineWriter& operator<<(T value) {
    char digits[24];
    const auto end = std::to_chars(digits, digits + sizeof digits, value).ptr;
    line_.append(digits, end);
    return *this;
  }
  LineWriter& operator<<(double value) {
    char digits[32];
    const auto end = std::to_chars(digits, digits + sizeof digits, value,
                                   std::chars_format::general, 17)
                         .ptr;
    line_.append(digits, end);
    return *this;
  }
  template <typename Id>
  LineWriter& ids(const std::vector<Id>& ids) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      *this << (i > 0 ? "," : "") << ids[i].value();
    }
    return *this;
  }
  [[nodiscard]] std::string take() { return std::move(line_); }

 private:
  std::string line_;
};

// The two record writers encode_snapshot() shares with encode(), so a
// snapshot copies no chain or placement to encode it.
std::string chain_line(const ChainRecord& c) {
  LineWriter out;
  out << "t=chain;id=" << c.id.value() << ";name=" << escape(c.spec.name)
      << ";ins=" << c.spec.ingress_service.value()
      << ";inn=" << c.spec.ingress_node.value()
      << ";egs=" << c.spec.egress_service.value()
      << ";egn=" << c.spec.egress_node.value() << ";vnfs=";
  out.ids(c.spec.vnfs)
      << ";ft=" << c.spec.forward_traffic << ";rt=" << c.spec.reverse_traffic
      << ";cl=" << c.labels.chain << ";el=" << c.labels.egress_site
      << ";insite=" << c.ingress_site.value()
      << ";egsite=" << c.egress_site.value();
  return out.take();
}

std::string begin_line(ChainId chain, RouteId route,
                       const std::vector<SiteId>& sites) {
  LineWriter out;
  out << "t=begin;chain=" << chain.value() << ";route=" << route.value()
      << ";sites=";
  return out.ids(sites).take();
}

std::optional<JournalRecord> decode_chain(KvFields& f) {
  // The one free-text field; a missing name reads as the empty name.
  auto name = unescape(f.text("name").value_or(""));
  if (!name) return std::nullopt;
  ChainRecord c;
  c.spec.name = std::move(*name);
  c.id = ChainId{f.u32("id")};
  c.spec.ingress_service = EdgeServiceId{f.u32("ins")};
  c.spec.ingress_node = NodeId{f.u32("inn")};
  c.spec.egress_service = EdgeServiceId{f.u32("egs")};
  c.spec.egress_node = NodeId{f.u32("egn")};
  for (const std::uint32_t vnf : f.u32_list("vnfs")) {
    c.spec.vnfs.emplace_back(vnf);
  }
  c.spec.forward_traffic = f.f64("ft");
  c.spec.reverse_traffic = f.f64("rt");
  c.labels = dataplane::Labels{f.u32("cl"), f.u32("el")};
  c.ingress_site = SiteId{f.u32("insite")};
  c.egress_site = SiteId{f.u32("egsite")};
  return journal::Chain{std::move(c)};
}

/// Equal shares of the chain's traffic; a chain is active iff routed.
void rebalance(ChainRecord& chain) {
  chain.active = !chain.routes.empty();
  for (RouteRecord& route : chain.routes) {
    route.weight = 1.0 / static_cast<double>(chain.routes.size());
  }
}

}  // namespace

std::string encode(const JournalRecord& record) {
  return std::visit(
      [](const auto& r) {
        using T = std::decay_t<decltype(r)>;
        LineWriter out;
        if constexpr (std::is_same_v<T, journal::Chain>) {
          return chain_line(r.chain);
        } else if constexpr (std::is_same_v<T, journal::Begin>) {
          return begin_line(r.chain, r.route, r.sites);
        } else if constexpr (std::is_same_v<T, journal::Epoch>) {
          out << "t=epoch;n=" << r.epoch;
        } else if constexpr (std::is_same_v<T, journal::NextRouteId>) {
          out << "t=nri;n=" << r.next;
        } else if constexpr (std::is_same_v<T, journal::PoolDown>) {
          out << "t=pooldown;vnf=" << r.vnf.value()
              << ";site=" << r.site.value() << ";cap=" << r.capacity;
        } else if constexpr (std::is_same_v<T, journal::PoolUp>) {
          out << "t=poolup;vnf=" << r.vnf.value()
              << ";site=" << r.site.value();
        } else if constexpr (std::is_base_of_v<journal::Round, T>) {
          out << "t=" << T::kTag << ";chain=" << r.chain.value()
              << ";route=" << r.route.value();
        }
        return out.take();
      },
      record);
}

Result<JournalRecord> decode(std::string_view text) {
  KvFields f{text};
  const std::string_view type = f.text("t").value_or("");
  const auto round = [&f] {
    return journal::Round{ChainId{f.u32("chain")}, RouteId{f.u32("route")}};
  };
  std::optional<JournalRecord> record;
  if (type == "epoch") {
    record = journal::Epoch{f.u64("n")};
  } else if (type == "nri") {
    record = journal::NextRouteId{f.u32("n")};
  } else if (type == "chain") {
    record = decode_chain(f);
  } else if (type == "begin") {
    const journal::Round r = round();
    std::vector<SiteId> sites;
    for (const std::uint32_t site : f.u32_list("sites")) {
      sites.emplace_back(site);
    }
    record = journal::Begin{r.chain, r.route, std::move(sites)};
  } else if (type == journal::Prep::kTag) {
    record = journal::Prep{round()};
  } else if (type == journal::Commit::kTag) {
    record = journal::Commit{round()};
  } else if (type == journal::Abort::kTag) {
    record = journal::Abort{round()};
  } else if (type == journal::Retire::kTag) {
    record = journal::Retire{round()};
  } else if (type == "pooldown") {
    record = journal::PoolDown{VnfId{f.u32("vnf")}, SiteId{f.u32("site")},
                               f.f64("cap")};
  } else if (type == "poolup") {
    record = journal::PoolUp{VnfId{f.u32("vnf")}, SiteId{f.u32("site")}};
  }
  if (!record || !f.ok()) {
    return Error{ErrorCode::kInvalidArgument,
                 "malformed journal record: " + std::string{text}};
  }
  return std::move(*record);
}

Status ControllerState::apply(const JournalRecord& record) {
  return std::visit(
      [this](const auto& r) -> Status {
        using T = std::decay_t<decltype(r)>;
        if constexpr (std::is_same_v<T, journal::Epoch>) {
          epoch = std::max(epoch, r.epoch);
        } else if constexpr (std::is_same_v<T, journal::NextRouteId>) {
          next_route_id = std::max(next_route_id, r.next);
        } else if constexpr (std::is_same_v<T, journal::Chain>) {
          if (find(r.chain.id) != nullptr) {
            return Status{ErrorCode::kAlreadyExists, "chain registered twice"};
          }
          chain_slots_.emplace(r.chain.id.value(), chains.size());
          chains.push_back(r.chain);   // routes follow as begin + commit
        } else if constexpr (std::is_same_v<T, journal::Begin>) {
          const ChainRecord* chain = find(r.chain);
          if (chain == nullptr || r.sites.size() != chain->spec.vnfs.size() ||
              r.route.value() == RouteId::kInvalid ||
              std::any_of(chain->routes.begin(), chain->routes.end(),
                          [&](const RouteRecord& route) {
                            return route.id == r.route;
                          })) {
            return Status{ErrorCode::kInvalidArgument, "begin fits no chain"};
          }
          inflight[{r.chain.value(), r.route.value()}] = Inflight{r.sites};
          next_route_id = std::max(next_route_id, r.route.value() + 1);
        } else if constexpr (kIsOneOf<T, journal::Prep, journal::Commit>) {
          const auto it = inflight.find({r.chain.value(), r.route.value()});
          ChainRecord* chain = find(r.chain);
          if (it == inflight.end() || chain == nullptr) {
            return Status{ErrorCode::kInvalidArgument, "round without begin"};
          }
          if constexpr (std::is_same_v<T, journal::Prep>) {
            it->second.prepared = true;
          } else {
            chain->routes.push_back(
                RouteRecord{r.route, std::move(it->second.vnf_sites), 1.0});
            inflight.erase(it);
            rebalance(*chain);
          }
        } else if constexpr (kIsOneOf<T, journal::Abort, journal::Retire>) {
          inflight.erase({r.chain.value(), r.route.value()});
          if (ChainRecord* chain = find(r.chain)) {
            std::erase_if(chain->routes, [&](const RouteRecord& route) {
              return route.id == r.route;
            });
            rebalance(*chain);
          }
        } else if constexpr (std::is_same_v<T, journal::PoolDown>) {
          if (!(r.capacity > 0.0 && std::isfinite(r.capacity))) {
            return Status{ErrorCode::kInvalidArgument,
                          "pooldown without a positive finite capacity"};
          }
          dead_pools[{r.vnf.value(), r.site.value()}] = r.capacity;
        } else if constexpr (std::is_same_v<T, journal::PoolUp>) {
          dead_pools.erase({r.vnf.value(), r.site.value()});
        }
        return {};
      },
      record);
}

Result<ControllerState> ControllerState::replay(
    const std::vector<std::string>& records) {
  ControllerState state;
  for (const std::string& text : records) {
    const Result<JournalRecord> record = decode(text);
    if (!record.ok()) return record.error();
    const Status applied = state.apply(*record);
    if (!applied.ok()) return applied.error();
  }
  return state;
}

std::vector<std::string> ControllerState::encode_snapshot() const {
  std::vector<std::string> records{encode(journal::Epoch{epoch}),
                                   encode(journal::NextRouteId{next_route_id})};
  for (const ChainRecord& chain : chains) {
    records.push_back(chain_line(chain));
    for (const RouteRecord& route : chain.routes) {
      records.push_back(begin_line(chain.id, route.id, route.vnf_sites));
      records.push_back(encode(journal::Commit{{chain.id, route.id}}));
    }
  }
  for (const auto& [pool, capacity] : dead_pools) {
    records.push_back(encode(
        journal::PoolDown{VnfId{pool.first}, SiteId{pool.second}, capacity}));
  }
  for (const auto& [key, round] : inflight) {
    const ChainId chain{key.first};
    const RouteId route{key.second};
    records.push_back(begin_line(chain, route, round.vnf_sites));
    if (round.prepared) {
      records.push_back(encode(journal::Prep{{chain, route}}));
    }
  }
  return records;
}

void ControllerState::check_invariants() const {
  SWB_CHECK_EQ(chain_slots_.size(), chains.size()) << "chain index size";
  for (std::size_t slot = 0; slot < chains.size(); ++slot) {
    const ChainRecord& chain = chains[slot];
    SWB_CHECK(find(chain.id) == &chain)
        << "chain " << chain.id.value() << " not indexed at slot " << slot;
    SWB_CHECK_EQ(chain.active, !chain.routes.empty())
        << "chain " << chain.id.value() << " active flag vs routes";
    std::set<std::uint32_t> route_ids;
    double weight_sum = 0.0;
    for (const RouteRecord& route : chain.routes) {
      SWB_CHECK_LT(route.id.value(), next_route_id)
          << "route id outside the allocator for chain " << chain.id.value();
      SWB_CHECK(route_ids.insert(route.id.value()).second)
          << "duplicate route id " << route.id.value() << " in chain "
          << chain.id.value();
      // One placement per VNF stage — announcements index vnf_sites
      // positionally against spec.vnfs.
      SWB_CHECK_EQ(route.vnf_sites.size(), chain.spec.vnfs.size())
          << "chain " << chain.id.value() << " route " << route.id.value();
      SWB_CHECK(route.weight > 0.0 && route.weight <= 1.0 + 1e-9)
          << "chain " << chain.id.value() << " route " << route.id.value()
          << " weight " << route.weight;
      weight_sum += route.weight;
    }
    if (chain.active) {
      SWB_CHECK_LE(std::abs(weight_sum - 1.0), 1e-6)
          << "chain " << chain.id.value() << " route weights sum to "
          << weight_sum;
    }
  }
  for (const auto& [key, round] : inflight) {
    const ChainRecord* chain = find(ChainId{key.first});
    SWB_CHECK(chain != nullptr)
        << "in-flight round for unknown chain " << key.first;
    SWB_CHECK(std::none_of(chain->routes.begin(), chain->routes.end(),
                           [&](const RouteRecord& route) {
                             return route.id.value() == key.second;
                           }))
        << "round (" << key.first << "," << key.second
        << ") both in flight and committed";
  }
}

}  // namespace switchboard::control
