// walk_established and walk_conn_churn: single-thread, closed-loop packet
// walks (Deployment::inject) over ~1,000 admitted chains and 65,536 live
// connections, Zipf(0.9) over connections, 3 forward : 1 reverse.
#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common/zipf.hpp"
#include "control.hpp"
#include "layers.hpp"
#include "paths.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using sb::dataplane::Direction;

constexpr std::size_t kChains = 1000;
constexpr double kChainTraffic = 0.5;
constexpr std::size_t kConnections = 65536;
constexpr double kZipfExponent = 0.9;
constexpr double kReverseShare = 0.25;
constexpr std::uint32_t kPacketsPerConnection = 8;
constexpr std::size_t kSampleConnections = 1024;
constexpr int kSetups = 5;
/// Per-layer counts are taken over this many packets from the start of
/// the timed phase, so they repeat exactly for a seed.
constexpr std::size_t kCountedPackets = 200000;
constexpr std::size_t kScheduleSize = std::size_t{1} << 20;
constexpr std::size_t kWindowOps = 4096;

struct Chain {
  sb::ChainId id;
  sb::dataplane::Labels labels;
  std::vector<sb::VnfId> vnfs;
};

struct Connection {
  std::uint32_t chain{0};   // index into WalkSetup::chains
  sb::dataplane::FiveTuple tuple;
  std::uint32_t packets{0};
  PathForwarders path;
  /// Simulated latency of the connection's forward path, in ns.
  std::uint64_t path_sim_ns{0};
};

struct WalkSetup {
  System system;
  std::vector<Chain> chains;
  std::vector<Connection> connections;
  std::uint64_t next_tuple{0};
  /// Flow entries the live connections must account for, summed over
  /// every forwarder on their paths.
  std::uint64_t expected_entries{0};
  std::uint64_t sample_digest{0};
  ControlTally control;   // the admission workflows
};

/// Sends the first (forward) packet of `c` on a fresh 5-tuple and records
/// the forwarders that now hold its state.
bool open_connection(WalkSetup& s, Connection& c) {
  c.tuple = connection_tuple(s.next_tuple++);
  c.packets = 0;
  const Chain& chain = s.chains[c.chain];
  const auto walk = s.system.deployment->inject(chain.id, c.tuple);
  if (!walk.delivered || vnf_hops(walk) != chain.vnfs.size() ||
      !c.path.assign(walk)) {
    return false;
  }
  c.packets = 1;
  s.expected_entries += c.path.count;
  c.path_sim_ns = static_cast<std::uint64_t>(walk.latency_ms * 1e6);
  return true;
}

/// Walks a fixed sample of connections both ways, checks each conforms
/// to its chain with symmetric return, and digests what they visited.
bool sample_digest(WalkSetup& s, std::uint64_t& digest) {
  sb::core::Deployment& d = *s.system.deployment;
  Digest h;
  for (std::size_t i = 0; i < kSampleConnections; ++i) {
    const Connection& c = s.connections[i];
    const Chain& chain = s.chains[c.chain];
    const auto fwd = d.inject(chain.id, c.tuple, Direction::kForward);
    const auto rev = d.inject(chain.id, c.tuple, Direction::kReverse);
    if (!conforms(d, chain.vnfs, fwd, rev)) return false;
    h.add(chain.id.value());
    h.add(i);
    for (const auto instance : fwd.vnf_instances()) h.add(instance);
  }
  digest = h.value();
  return true;
}

std::unique_ptr<WalkSetup> set_up(std::uint64_t seed, RunResult& result,
                                  bool trace_opening) {
  auto s = std::make_unique<WalkSetup>();
  s->system = build_system();
  sb::core::Deployment& d = *s->system.deployment;
  sb::Rng rng{seed};

  // Admission through the portal, one workflow at a time.
  const std::vector<sb::control::ChainSpec> specs = make_chain_specs(
      rng, d.network_model(), s->system.edge, kChains, kChainTraffic);
  WorkflowDriver driver{d, s->system.edge, s->control.step_ns};
  const ControlCounters before = ControlCounters::read(d);
  for (const sb::control::ChainSpec& spec : specs) {
    const OpOutcome op = driver.create_chain(spec);
    s->control.add(op);
    if (!op.ok) continue;   // refused admission: counted in the note below
    if (!phases_consistent(op)) result.fail("creation phases out of order");
    s->chains.push_back({op.chain, op.labels, spec.vnfs});
  }
  s->control.first_round = ControlCounters::read(d).minus(before);
  s->control.first_round_ops = specs.size();
  s->control.rounds = 1;
  s->control.compactions = s->control.first_round.compactions;
  s->control.quorum_ack_ms = d.replica_group()->mean_quorum_ack_ms();
  if (s->chains.empty()) {
    result.fail("no chain admitted");
    return s;
  }

  // Open every connection with one forward packet.
  trace::g_enabled = trace_opening;
  s->connections.resize(kConnections);
  for (Connection& c : s->connections) {
    c.chain = static_cast<std::uint32_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(s->chains.size()) - 1));
    if (!open_connection(*s, c)) {
      result.fail("a connection's first packet was not delivered");
      break;
    }
  }
  trace::g_enabled = false;
  if (!sample_digest(*s, s->sample_digest)) {
    result.fail("sample walk failed or returned asymmetrically");
  }
  return s;
}

}  // namespace

RunResult run_walk(const Options& options, bool churn) {
  RunResult result;

  // Set up several times; report the median, keep the last.
  std::vector<double> setup_s;
  std::unique_ptr<WalkSetup> s;
  std::uint64_t first_digest = 0;
  for (int k = 0; k < kSetups; ++k) {
    s.reset();   // one deployment alive at a time
    const std::uint64_t start = now_ns();
    s = set_up(options.seed, result, trace::kTraced && k + 1 == kSetups);
    setup_s.push_back(static_cast<double>(now_ns() - start) / 1e9);
    if (k == 0) first_digest = s->sample_digest;
    if (s->sample_digest != first_digest) {
      result.fail("sample digest differs between identical set-ups");
    }
  }
  if (!result.correct) return result;
  sb::core::Deployment& d = *s->system.deployment;

  // The packet schedule: Zipf(0.9) over connections (ranks shuffled onto
  // connections), a quarter of packets in the reverse direction.
  sb::Rng traffic{options.seed ^ 0x7A11C0DEULL};
  const sb::ZipfSampler zipf{kConnections, kZipfExponent};
  std::vector<std::uint32_t> by_rank(kConnections);
  std::iota(by_rank.begin(), by_rank.end(), 0u);
  traffic.shuffle(by_rank);
  std::vector<std::uint32_t> slots(kScheduleSize);
  std::vector<std::uint8_t> reverse(kScheduleSize);
  for (std::size_t i = 0; i < kScheduleSize; ++i) {
    slots[i] = by_rank[std::min(zipf.sample(traffic), kConnections - 1)];
    reverse[i] = traffic.uniform() < kReverseShare ? 1 : 0;
  }

  const std::uint64_t entries_start = total_flow_entries(d);
  if (entries_start != s->expected_entries) {
    result.fail("flow entries at start do not match the live connections");
  }
  Histogram op_ns, first_half_ns, second_half_ns;
  std::vector<double> window_rate;
  window_rate.reserve(1 << 16);
  DataplaneTally dp;   // filled in the traced binary only
  DataplaneCounters counted_base;
  std::uint64_t inner_base = 0;
  if constexpr (trace::kTraced) {
    counted_base = DataplaneCounters::read(d);
    dp.counted_allocations = trace::allocations();
    inner_base = inner_trace_ns();
    trace::g_enabled = true;
  }

  const double rss_start = current_rss_mb();
  const auto run_ns = static_cast<std::uint64_t>(options.seconds * 1e9);
  const std::uint64_t start = now_ns();
  const std::uint64_t half = start + run_ns / 2;
  std::uint64_t window_start = start;
  std::size_t i = 0;
  bool broken = false;
  while (!broken) {
    for (std::size_t j = 0; j < kWindowOps; ++j, ++i) {
      Connection& c = s->connections[slots[i % kScheduleSize]];
      const Chain& chain = s->chains[c.chain];
      Direction dir = reverse[i % kScheduleSize] ? Direction::kReverse
                                                  : Direction::kForward;
      if (churn && c.packets == kPacketsPerConnection) {
        // Close the connection everywhere and reuse the slot for a new
        // one, whose first packet is this one.
        if (close_connection(d, chain.labels, c.tuple, c.path,
                             dp.teardown_ns) != c.path.count) {
          result.fail("teardown found no flow entry at a path forwarder");
          broken = true;
          break;
        }
        s->expected_entries -= c.path.count;
        c.tuple = connection_tuple(s->next_tuple++);
        c.packets = 0;
      }
      const bool opening = c.packets == 0;
      if (opening) dir = Direction::kForward;

      const std::uint64_t t0 = now_ns();
      const auto walk = d.inject(chain.id, c.tuple, dir);
      const std::uint64_t t1 = now_ns();
      ++result.attempted;
      if (!walk.delivered || vnf_hops(walk) != chain.vnfs.size()) {
        // Every packet of a live connection must get through.
        ++result.failed;
        result.fail("a packet was dropped or skipped a VNF stage");
        broken = true;
        break;
      }
      if (opening) {
        if (!c.path.assign(walk)) {
          result.fail("path longer than PathForwarders::kMax");
          broken = true;
          break;
        }
        s->expected_entries += c.path.count;
        c.path_sim_ns = static_cast<std::uint64_t>(walk.latency_ms * 1e6);
      }
      ++c.packets;
      const std::uint64_t ns = t1 - t0;
      op_ns.add(ns);
      (t1 < half ? first_half_ns : second_half_ns).add(ns);
      if constexpr (trace::kTraced) {
        ++dp.packets;
        dp.inject_ns += ns;
        if (i < kCountedPackets) dp.counted_hops += forwarder_hops(walk);
        if (i + 1 == kCountedPackets) {
          dp.counted_packets = kCountedPackets;
          dp.counted_allocations = trace::allocations() - dp.counted_allocations;
          dp.counted = DataplaneCounters::read(d).minus(counted_base);
        }
      }
    }
    const std::uint64_t now = now_ns();
    window_rate.push_back(static_cast<double>(kWindowOps) * 1e9 /
                          static_cast<double>(now - window_start));
    window_start = now;
    if (now - start >= run_ns) break;
  }
  if constexpr (trace::kTraced) {
    trace::g_enabled = false;
    dp.inner_ns = inner_trace_ns() - inner_base;
    if (dp.counted_packets == 0) {
      result.fail("traced run ended before the counted packet prefix");
    }
  }
  const double rss_end = current_rss_mb();

  // Stationarity: the live flow state must be exactly what the live
  // connections account for, at the end as at the start.
  const std::uint64_t entries_end = total_flow_entries(d);
  if (entries_end != s->expected_entries) {
    result.fail("flow entries at end do not match the live connections");
  }
  if (rss_end > rss_start * 1.10 + 16.0) {
    result.fail("resident memory grew during the timed phase");
  }
  // Determinism and symmetric return, again after the run.  Established
  // connections keep their pinning, so the digest must not move.
  std::uint64_t end_digest = 0;
  if (!sample_digest(*s, end_digest)) {
    result.fail("sample walk failed or returned asymmetrically after run");
  } else if (!churn && end_digest != s->sample_digest) {
    result.fail("sample digest moved during the run");
  }
  // Path latency of the live connections, one sample per connection:
  // every packet follows its connection's pinned path, so weighting by
  // the Zipf packet share would only resample a few hot connections.
  Histogram path_sim_ns;
  for (const Connection& c : s->connections) path_sim_ns.add(c.path_sim_ns);

  // Close everything: no flow state may be left behind.
  trace::g_enabled = trace::kTraced;
  for (const Connection& c : s->connections) {
    if (close_connection(d, s->chains[c.chain].labels, c.tuple, c.path,
                         dp.teardown_ns) != c.path.count) {
      result.fail("final teardown found no flow entry at a path forwarder");
      break;
    }
  }
  trace::g_enabled = false;
  if (total_flow_entries(d) != 0) {
    result.fail("flow entries left after closing every connection");
  }

  result.note("admitted_chains", std::to_string(s->chains.size()) + " of " +
                                     std::to_string(kChains));
  result.note("sample_digest", std::to_string(s->sample_digest));
  result.note("flow_entries_start_end", std::to_string(entries_start) + " " +
                                            std::to_string(entries_end));
  result.note("rss_mb_start_end",
              std::to_string(rss_start) + " " + std::to_string(rss_end));
  result.note("op_us_p50_first_second_half",
              std::to_string(first_half_ns.quantile(0.5) / 1e3) + " " +
                  std::to_string(second_half_ns.quantile(0.5) / 1e3));
  result.note("windows", std::to_string(window_rate.size()));

  if constexpr (trace::kTraced) {
    dp.flow_entries = entries_end;
    report_layers(result, s->control, dp, op_ns.quantile(0.5) / 1e3);
  } else {
    // Wall-clock figures: printed, not gated (see README, "Dropped").
    result.note("wall.op_us_p50", op_ns.quantile(0.5) / 1e3, "us");
    result.note("wall.op_us_p99", op_ns.quantile(0.99) / 1e3, "us");
    result.note("wall.ops_per_s", median(window_rate), "1/s");
    result.set("sim_ms_p50", path_sim_ns.quantile(0.5) / 1e6, "ms");
    result.set("sim_ms_p99", path_sim_ns.quantile(0.99) / 1e6, "ms");
    result.set("ok_ratio",
               result.attempted == 0
                   ? 0.0
                   : static_cast<double>(result.attempted - result.failed) /
                         static_cast<double>(result.attempted),
               "ratio");
    result.set("setup_s", median(setup_s), "s");
    result.set("peak_rss_mb", peak_rss_mb(), "MB");
  }
  return result;
}

}  // namespace perfbench
