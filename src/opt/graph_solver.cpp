#include "opt/graph_solver.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sta/fixpoint.h"

namespace mintc::opt {

namespace {

DifferenceSystem build_system(const Circuit& circuit, const TimingView& view,
                              const GeneratorOptions& opt) {
  DifferenceSystem sys;
  const int k = circuit.num_phases();
  const int l = circuit.num_elements();
  sys.num_nodes = 1 + 2 * k + l;
  for (int p = 0; p < k; ++p) {
    sys.s_node.push_back(1 + p);
    sys.e_node.push_back(1 + k + p);
  }
  for (int i = 0; i < l; ++i) sys.d_node.push_back(1 + 2 * k + i);
  const auto s_of = [&](int phase) { return sys.s_node[static_cast<size_t>(phase - 1)]; };
  const auto e_of = [&](int phase) { return sys.e_node[static_cast<size_t>(phase - 1)]; };

  // C1 + C4: 0 <= s_i <= Tc, 0 <= T_i <= Tc (as e_i - s_i).
  for (int p = 1; p <= k; ++p) {
    sys.add(s_of(p), 0, 0.0, 1.0);   // s - x0 <= Tc
    sys.add(0, s_of(p), 0.0);        // x0 - s <= 0
    sys.add(e_of(p), s_of(p), 0.0, 1.0);  // T <= Tc
    sys.add(s_of(p), e_of(p), 0.0);       // T >= 0
    if (opt.min_phase_width > 0.0) {
      sys.add(s_of(p), e_of(p), -opt.min_phase_width);  // T >= width
    }
  }
  // C2 ordering.
  for (int p = 1; p < k; ++p) sys.add(s_of(p), s_of(p + 1), 0.0);
  // C3 nonoverlap. Mirrors generate_lp: the margin charges the worst
  // effective skew (max over per-latch σ_i, floored by the global option).
  if (opt.enforce_nonoverlap) {
    const KMatrix K = circuit.k_matrix();
    const double margin =
        opt.min_phase_separation + std::max(view.max_skew(), opt.clock_skew);
    for (int i = 1; i <= k; ++i) {
      for (int j = 1; j <= k; ++j) {
        if (!K.at(i, j)) continue;
        // e_j - s_i <= C_ji*Tc - margin
        sys.add(e_of(j), s_of(i), -margin, static_cast<double>(c_flag(j, i)));
      }
    }
  }

  for (int i = 0; i < l; ++i) {
    const int p = view.phase(i);
    // Per-element capture margins, floored by the legacy global option
    // (same effective-skew rule as generate_lp's eff_skew).
    const double setup_skew = view.setup(i) + std::max(view.skew(i), opt.clock_skew);
    const double hold_skew = view.hold(i) + std::max(view.skew(i), opt.clock_skew);
    const int dn = sys.d_node[static_cast<size_t>(i)];
    const EdgeIndex fi_end = view.fanin_end(i);
    // L3: D >= 0  ->  s_p - dh <= 0.
    sys.add(s_of(p), dn, 0.0);
    if (view.is_latch(i)) {
      if (!opt.arrival_based_setup) {
        // L1: dh - e_p <= -setup - skew.
        sys.add(dn, e_of(p), -setup_skew);
      } else {
        for (EdgeIndex fe = view.fanin_begin(i); fe < fi_end; ++fe) {
          // A_i + setup <= T_p: dh_j - e_p <= C*Tc - dq - delta - setup.
          sys.add(sys.d_node[static_cast<size_t>(view.edge_src(fe))], e_of(p),
                  -(view.edge_max_const(fe) + setup_skew),
                  static_cast<double>(view.edge_cross(fe)));
        }
      }
    } else {
      // Flip-flop pin: dh == s_p.
      sys.add(dn, s_of(p), 0.0);
      sys.add(s_of(p), dn, 0.0);
      // FF setup: dh_j - s_p <= C*Tc - dq - delta - setup.
      for (EdgeIndex fe = view.fanin_begin(i); fe < fi_end; ++fe) {
        sys.add(sys.d_node[static_cast<size_t>(view.edge_src(fe))], s_of(p),
                -(view.edge_max_const(fe) + setup_skew),
                static_cast<double>(view.edge_cross(fe)));
      }
    }
    // Hold extension.
    if (opt.hold_constraints) {
      for (EdgeIndex fe = view.fanin_begin(i); fe < fi_end; ++fe) {
        const double c = static_cast<double>(view.edge_cross(fe));
        const double rhs_base = -(hold_skew - view.edge_min_const(fe));
        const int src_phase = view.phase(view.edge_src(fe));
        if (view.is_latch(i)) {
          // e_p - s_pj <= (1-C)*Tc - hold + delta.
          sys.add(e_of(p), s_of(src_phase), rhs_base, 1.0 - c);
        } else {
          sys.add(s_of(p), s_of(src_phase), rhs_base, 1.0 - c);
        }
      }
    }
  }

  // L2R propagation: dh_j - dh_i <= C*Tc - dq_j - delta_ji.
  for (int pi = 0; pi < circuit.num_paths(); ++pi) {
    const EdgeIndex fe = view.edge_of_path(pi);
    if (!view.is_latch(view.edge_dst(fe))) continue;
    sys.add(sys.d_node[static_cast<size_t>(view.edge_src(fe))],
            sys.d_node[static_cast<size_t>(view.edge_dst(fe))], -view.edge_max_const(fe),
            static_cast<double>(view.edge_cross(fe)));
  }
  return sys;
}

// Relaxation threshold relative to the operands' magnitudes: rounding noise
// around a zero-weight cycle of L edges sheds ~L ulps per round, far below
// it, so noise never reads as a negative cycle.
constexpr double kRelTol = 1e-12;

// The negative cycle closed by the predecessor edges, as edge ids, or empty.
std::vector<int> pred_cycle(const DifferenceSystem& sys, const std::vector<int>& pred) {
  std::vector<int> seen(pred.size(), -1);  // walk that first reached each node
  for (int start = 0; start < sys.num_nodes; ++start) {
    int u = start;
    while (u >= 0 && seen[static_cast<size_t>(u)] < 0) {
      seen[static_cast<size_t>(u)] = start;
      const int id = pred[static_cast<size_t>(u)];
      u = id < 0 ? -1 : sys.edges[static_cast<size_t>(id)].v;
    }
    if (u < 0 || seen[static_cast<size_t>(u)] != start) continue;
    std::vector<int> cycle;  // u lies on a cycle closed by this walk
    int v = u;
    do {
      cycle.push_back(pred[static_cast<size_t>(v)]);
      v = sys.edges[static_cast<size_t>(cycle.back())].v;
    } while (v != u);
    return cycle;
  }
  return {};
}

// Bellman-Ford at a concrete Tc from a virtual source at distance 0 to every
// node. Returns true with a feasible `x` (x[0] == 0); otherwise false with
// a negative cycle's edge ids in `cycle` (empty only if noise kept
// relaxing). Checking the predecessor graph after every pass finds a
// negative cycle long before the n-th pass.
bool bellman_ford(const DifferenceSystem& sys, double tc, std::vector<double>& x,
                  std::vector<int>& cycle, long& relaxations) {
  const obs::TraceSpan span("graph.bellman-ford", "opt");
  const size_t n = static_cast<size_t>(sys.num_nodes);
  x.assign(n, 0.0);
  std::vector<int> pred(n, -1);  // edge that last lowered each node
  for (size_t pass = 0; pass < n; ++pass) {
    bool improved = false;
    for (size_t id = 0; id < sys.edges.size(); ++id) {
      // Constraint x_u <= x_v + w: relax dist(u) against dist(v) + w.
      const DiffEdge& e = sys.edges[id];
      const double w = e.base + e.tc_coeff * tc;
      const double cand = x[static_cast<size_t>(e.v)] + w;
      double& xu = x[static_cast<size_t>(e.u)];
      ++relaxations;
      if (xu - cand > kRelTol * (std::fabs(xu) + std::fabs(w))) {
        xu = cand;
        pred[static_cast<size_t>(e.u)] = static_cast<int>(id);
        improved = true;
      }
    }
    if (!improved) {
      const double x0 = x[0];  // normalize so the origin sits at zero
      for (double& v : x) v -= x0;
      return true;
    }
    cycle = pred_cycle(sys, pred);
    if (!cycle.empty()) return false;
  }
  return false;
}

}  // namespace

DifferenceSystem difference_system(const Circuit& circuit, const GeneratorOptions& options) {
  return build_system(circuit, TimingView(circuit), options);
}

Expected<GraphSolveResult> minimize_cycle_time_graph(const Circuit& circuit,
                                                     const GraphSolveOptions& options) {
  if (!options.assume_valid) {
    const std::vector<std::string> problems = circuit.validate();
    if (!problems.empty()) {
      return make_error(ErrorKind::kInvalidCircuit,
                        "circuit '" + circuit.name() + "' failed validation");
    }
  }
  const StageTimer wall_timer;
  const obs::TraceSpan span("graph.solve", "opt");
  const TimingView view(circuit);
  const DifferenceSystem sys = build_system(circuit, view, options.generator);
  GraphSolveResult res;
  res.stats.view_build_seconds = view.build_seconds();
  std::vector<double> x;
  std::vector<int> cycle;

  // Parametric step from the lower bound Tc = 0 (C1 forces Tc >= 0): each
  // negative cycle's zero point is a tighter lower bound, and Tc* is the
  // first one at which no negative cycle remains.
  const StageTimer search_timer;
  double tc = 0.0;
  while (!bellman_ford(sys, tc, x, cycle, res.relaxations)) {
    double base = 0.0, coeff = 0.0;
    for (const int id : cycle) {
      base += sys.edges[static_cast<size_t>(id)].base;
      coeff += sys.edges[static_cast<size_t>(id)].tc_coeff;
    }
    // +inf when the cycle has no Tc term (or its weight overflowed): then
    // it is negative at every cycle time. NaN or no raise: only noise left.
    const double next = -base / coeff;
    if (!(next > tc)) {
      return make_error(ErrorKind::kNotConverged,
                        "parametric step stalled at Tc = " + std::to_string(tc));
    }
    const double cap = options.generator.tc_upper_bound;
    if (std::isinf(next) || (cap >= 0.0 && next > cap)) {
      return make_error(ErrorKind::kInfeasible,
                        "no cycle time satisfies the constraints of '" + circuit.name() + "'");
    }
    tc = next;
    res.binding_cycle = cycle;
    ++res.jumps;
  }
  res.stats.add_stage("parametric-search", search_timer.seconds());

  res.min_cycle = tc;
  res.schedule.cycle = tc;
  const int k = circuit.num_phases();
  for (int p = 0; p < k; ++p) {
    const double s = x[static_cast<size_t>(sys.s_node[static_cast<size_t>(p)])];
    const double e = x[static_cast<size_t>(sys.e_node[static_cast<size_t>(p)])];
    res.schedule.start.push_back(s);
    res.schedule.width.push_back(e - s);
  }
  // Departures: the least L2 fixpoint under the schedule, iterated from
  // below. Sliding *down* from the Bellman-Ford point (as MLP steps 3-5 do)
  // needs O(1/|loop gain|) sweeps, and a critical loop's gain is zero at
  // Tc*; the upward iteration's cost is bounded by path depth instead.
  sta::FixpointOptions fix_opts;
  fix_opts.scheme = sta::UpdateScheme::kEventDriven;
  const sta::FixpointResult fix = sta::compute_departures(
      circuit, res.schedule,
      std::vector<double>(static_cast<size_t>(circuit.num_elements()), 0.0), fix_opts);
  if (!fix.converged) {
    return make_error(ErrorKind::kNotConverged,
                      fix.hit_sweep_limit()
                          ? "fixpoint hit the sweep budget (residual " +
                                std::to_string(fix.residual) + ")"
                          : "fixpoint diverged");
  }
  res.departure = fix.departure;
  res.stats.absorb(fix.stats);  // folds the departure fixpoint's accounting in
  res.stats.wall_seconds = wall_timer.seconds();
  auto& reg = obs::MetricsRegistry::instance();
  reg.counter("graph.solves").inc();
  reg.counter("graph.jumps").inc(res.jumps);
  reg.counter("graph.bf_relaxations").inc(res.relaxations);
  return res;
}

}  // namespace mintc::opt
