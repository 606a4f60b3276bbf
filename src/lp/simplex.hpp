// Bounded-variable two-phase revised primal simplex.
//
// Engineering choices suited to Switchboard's TE problems (tens of
// thousands of sparse columns, thousands of rows):
//   * constraint matrix stored column-sparse; simple bounds `l <= x <= u`
//     handled as nonbasic-at-lower/upper statuses, never as rows, so the
//     basis stays at the size of the structural constraints;
//   * sparse LU factorization of the basis (sparse_lu.hpp) with
//     product-form eta updates and periodic / instability-triggered
//     refactorization — no dense m^2 inverse anywhere;
//   * artificial-free phase 1: the all-slack basis is always available and
//     the phase-1 objective is the sum of basic bound violations, so warm
//     starts that are primal feasible skip phase 1 entirely and infeasible
//     ones are repaired in place;
//   * candidate-list partial pricing (full Dantzig scans only when the
//     list runs dry) with deterministic lowest-index tie-breaking and a
//     Bland's-rule fallback when degeneracy stalls progress, so solves are
//     bit-reproducible and guaranteed to terminate.
//
// The previous dense-inverse implementation is kept as a reference
// function (solve_dense_reference); property tests assert status parity
// and objective agreement between the two on seeded random LPs.
#pragma once

#include <cstddef>

#include "lp/problem.hpp"

namespace switchboard::lp {

struct SimplexOptions {
  std::size_t max_iterations{200'000};
  double feasibility_tol{1e-7};
  double optimality_tol{1e-7};
  double pivot_tol{1e-9};
  /// Rebuild the basis factorization every this many pivots (the eta file
  /// also triggers an earlier rebuild once it outgrows the LU).
  std::size_t refactor_interval{128};
  /// Consecutive degenerate pivots before switching to Bland's rule.
  std::size_t degeneracy_threshold{64};
  /// Candidate-list size for partial pricing (sparse engine only).
  std::size_t candidate_list_size{64};
};

/// Solves `problem`; `options` tunes tolerances and limits.
[[nodiscard]] Solution solve(const Problem& problem,
                             const SimplexOptions& options = {});

/// As solve(), optionally warm-started: when `warm` names a basis whose
/// dimensions match the problem and whose basic count equals the row
/// count, the solve starts there — skipping phase 1 outright when the
/// basis is primal feasible and repairing it with the bounded phase 1
/// otherwise.  A mismatched or singular warm basis silently falls back to
/// the cold all-slack start (stats.warm_started reports what happened).
[[nodiscard]] Solution solve_simplex(const Problem& problem,
                                     const SimplexOptions& options,
                                     const Basis* warm);

/// The dense-inverse reference solver (previous implementation).  Simple
/// bounds are expanded into explicit rows, general lower bounds handled by
/// variable shifting.  Used by tests and benchmarks to cross-check the
/// sparse engine; returns an empty Solution::basis.
[[nodiscard]] Solution solve_dense_reference(const Problem& problem,
                                             const SimplexOptions& options);

}  // namespace switchboard::lp
