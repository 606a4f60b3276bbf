// Checks on packet walks and the forwarder state a connection leaves
// behind, shared by the walk workloads and chain_setup's verification
// walks.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "core/deployment.hpp"
#include "trace.hpp"

namespace perfbench {

namespace sb = switchboard;

/// Forwarders that hold flow state for one connection: every distinct
/// forwarder on its forward path.
struct PathForwarders {
  static constexpr std::size_t kMax = 8;
  std::array<sb::dataplane::ElementId, kMax> ids{};
  std::uint32_t count{0};

  /// Collects the forwarders of `walk`; false if there are more than kMax.
  bool assign(const sb::core::Deployment::WalkResult& walk) {
    count = 0;
    for (const sb::core::Deployment::HopTrace& hop : walk.path) {
      if (hop.type != sb::control::ElementType::kForwarder) continue;
      if (std::find(ids.begin(), ids.begin() + count, hop.element) !=
          ids.begin() + count) {
        continue;
      }
      if (count == kMax) return false;
      ids[count++] = hop.element;
    }
    return true;
  }
};

/// Forwarder visits of a walk.
inline std::size_t forwarder_hops(const sb::core::Deployment::WalkResult& w) {
  return static_cast<std::size_t>(std::count_if(
      w.path.begin(), w.path.end(), [](const auto& hop) {
        return hop.type == sb::control::ElementType::kForwarder;
      }));
}

/// VNF-instance visits of a walk.
inline std::size_t vnf_hops(const sb::core::Deployment::WalkResult& w) {
  return static_cast<std::size_t>(std::count_if(
      w.path.begin(), w.path.end(), [](const auto& hop) {
        return hop.type == sb::control::ElementType::kVnfInstance;
      }));
}

/// True when `forward` and `reverse` were both delivered, `forward`
/// visited one instance of each VNF of `vnfs` in order, and `reverse`
/// visited the same instances in the opposite order (symmetric return).
inline bool conforms(sb::core::Deployment& deployment,
                     const std::vector<sb::VnfId>& vnfs,
                     const sb::core::Deployment::WalkResult& forward,
                     const sb::core::Deployment::WalkResult& reverse) {
  if (!forward.delivered || !reverse.delivered) return false;
  const std::vector<sb::dataplane::ElementId> there = forward.vnf_instances();
  std::vector<sb::dataplane::ElementId> back = reverse.vnf_instances();
  std::reverse(back.begin(), back.end());
  if (there != back || there.size() != vnfs.size()) return false;
  for (std::size_t z = 0; z < there.size(); ++z) {
    if (deployment.elements().info(there[z]).vnf != vnfs[z]) return false;
  }
  return true;
}

/// Closes a connection at every forwarder on its path and returns how
/// many of them held an entry for it.  Each complete_flow call is timed
/// into `teardown_ns` in the traced binary.
inline std::uint32_t close_connection(sb::core::Deployment& deployment,
                             const sb::dataplane::Labels& labels,
                             const sb::dataplane::FiveTuple& tuple,
                             const PathForwarders& path,
                             Histogram& teardown_ns) {
  std::uint32_t erased = 0;
  for (std::uint32_t k = 0; k < path.count; ++k) {
    sb::dataplane::Forwarder& fwd = deployment.elements().forwarder(path.ids[k]);
    if constexpr (trace::kTraced) {
      const std::uint64_t start = now_ns();
      erased += fwd.complete_flow(labels, tuple) ? 1 : 0;
      teardown_ns.add(now_ns() - start);
    } else {
      erased += fwd.complete_flow(labels, tuple) ? 1 : 0;
    }
  }
  return erased;
}

/// A distinct forward 5-tuple for every n below 2^40.
inline sb::dataplane::FiveTuple connection_tuple(std::uint64_t n) {
  return sb::dataplane::FiveTuple{
      static_cast<std::uint32_t>(0x0A000000u + (n >> 16)), 0xC0A80001u,
      static_cast<std::uint16_t>(n & 0xFFFF), 443, 6};
}

}  // namespace perfbench
