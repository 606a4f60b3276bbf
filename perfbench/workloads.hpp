// The three workloads.  Each builds its inputs from the seed, measures for
// `seconds` of wall time, checks its outputs, and returns the end-to-end
// metrics (untraced binary) or the per-layer metrics (traced binary).
#pragma once

#include <cstdint>

#include "common.hpp"

namespace perfbench {

struct Options {
  std::uint64_t seed{1};
  double seconds{10.0};
};

/// walk_established (churn = false) and walk_conn_churn (churn = true).
RunResult run_walk(const Options& options, bool churn);
RunResult run_chain_setup(const Options& options);

}  // namespace perfbench
