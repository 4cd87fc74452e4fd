// The exact graph optimizer — the algorithm the paper anticipates.
//
// Section VI: "The LP formulation provides a convenient theoretical
// foundation ... for developing algorithms that are potentially more
// efficient than the simplex algorithm. We are currently investigating just
// such algorithms, noting that the entries of the constraint matrix for
// this problem are exclusively topological (i.e., 0, ±1)."
//
// Realization (the direction later taken by Szymanski '92 and
// Shenoy-Brayton): after the change of variables
//     e_i  = s_i + T_i          (phase end)
//     dh_i = s_{p_i} + D_i      (absolute departure)
// every SMO constraint with Tc FIXED becomes a pure difference constraint
// x_u − x_v ≤ w(Tc):
//     C1:  e_i − s_i ≤ Tc,  s_i − x0 ≤ Tc,  x0 − s_i ≤ 0,  s_i − e_i ≤ 0
//     C2:  s_i − s_{i+1} ≤ 0
//     C3:  e_j − s_i ≤ C_ji·Tc − margin
//     L1:  dh_i − e_{p_i} ≤ −Δ_DC_i
//     L2R: dh_j − dh_i ≤ C_{p_j,p_i}·Tc − Δ_DQ_j − Δ_ji
//     L3:  s_{p_i} − dh_i ≤ 0
// (flip-flop pin/setup rows and the optional width/separation/skew/hold
// extensions transform the same way). A difference system is feasible iff
// its constraint graph has no negative cycle (Bellman-Ford), and every
// weight is base + tc_coeff·Tc with tc_coeff ≥ 0, so each cycle's weight
// is nondecreasing in Tc and crosses zero at Tc = −Σbase / Σtc_coeff.
//
// Tc* is found by a parametric negative-cycle step (Lawler/Newton): start
// at the lower bound Tc = 0; while Bellman-Ford finds a negative cycle,
// jump Tc to that cycle's zero point. Every jump strictly raises Tc to the
// exact ratio of some cycle, so the loop ends at the largest one — the
// binding cycle, whose weight at Tc* is zero. A cycle with Σtc_coeff = 0
// and negative weight makes the system infeasible at every Tc.
//
// Production callers (serve `min` and schedule-less `load`, `timing_tool
// min`) use this solver. The simplex MLP stays the paper oracle: the
// figure reproductions, dual-based sensitivities, and the fuzz leg that
// holds the two solvers to 1e-9 relative agreement.
#pragma once

#include <vector>

#include "base/error.h"
#include "model/circuit.h"
#include "obs/stats.h"
#include "opt/constraints.h"

namespace mintc::opt {

/// One difference constraint x_u − x_v ≤ base + tc_coeff·Tc.
struct DiffEdge {
  int u = 0;
  int v = 0;
  double base = 0.0;
  double tc_coeff = 0.0;  // always >= 0
};

/// The difference system of a circuit: node 0 is the time origin; each
/// phase contributes a start and an end node; each element contributes an
/// absolute-departure node.
struct DifferenceSystem {
  int num_nodes = 0;
  std::vector<DiffEdge> edges;
  std::vector<int> s_node, e_node, d_node;

  void add(int u, int v, double base, double tc_coeff = 0.0) {
    edges.push_back({u, v, base, tc_coeff});
  }
};

DifferenceSystem difference_system(const Circuit& circuit, const GeneratorOptions& options = {});

struct GraphSolveOptions {
  GeneratorOptions generator;  // same extension knobs as the LP path
  /// Skip Circuit::validate() — for session loops over a circuit already
  /// validated once (see MlpOptions::assume_valid).
  bool assume_valid = false;
};

struct GraphSolveResult {
  double min_cycle = 0.0;
  ClockSchedule schedule;
  std::vector<double> departure;  // L2-fixpoint departures under the schedule
  /// Edge ids (into difference_system() of the same circuit and options)
  /// of the binding cycle: its weight at min_cycle is zero. Empty when
  /// Tc* = 0 needed no jump.
  std::vector<int> binding_cycle;
  int jumps = 0;                  // parametric steps (failed Bellman-Ford runs)
  long relaxations = 0;           // Bellman-Ford edge relaxations, total
  EngineStats stats;              // wall + parametric-search stage split
};

/// Minimize the cycle time by the parametric negative-cycle step. Tc*
/// equals minimize_cycle_time's optimum; the schedule is the Bellman-Ford
/// one, another optimal schedule than the LP vertex. Fails with
/// kInfeasible when no Tc satisfies the constraints.
Expected<GraphSolveResult> minimize_cycle_time_graph(const Circuit& circuit,
                                                     const GraphSolveOptions& options = {});

}  // namespace mintc::opt
