// The parametric Bellman-Ford optimizer must agree with the simplex
// everywhere — two exact algorithms, no shared machinery beyond the model —
// and certify its own optimum with a zero-weight binding cycle.
#include "opt/graph_solver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "circuits/appendix_fig1.h"
#include "circuits/example1.h"
#include "circuits/example2.h"
#include "circuits/gaas.h"
#include "circuits/synthetic.h"
#include "graph/cycle_ratio.h"
#include "obs/trace.h"
#include "opt/mlp.h"
#include "sta/analysis.h"

namespace mintc::opt {
namespace {

// Solver agreement: 1e-9 relative (absolute below Tc = 1).
double agreement_tol(double tc) { return 1e-9 * std::max(1.0, std::fabs(tc)); }

void expect_matches_lp(const Circuit& c, const MlpOptions& lp_opts = {},
                       const GraphSolveOptions& g_opts = {}) {
  const auto lp = minimize_cycle_time(c, lp_opts);
  const auto bf = minimize_cycle_time_graph(c, g_opts);
  ASSERT_TRUE(lp) << c.name();
  ASSERT_TRUE(bf) << c.name() << ": " << bf.error().to_string();
  EXPECT_NEAR(bf->min_cycle, lp->min_cycle, agreement_tol(lp->min_cycle)) << c.name();
  EXPECT_TRUE(satisfies_p1(c, bf->schedule, bf->departure, 1e-5)) << c.name();
  EXPECT_TRUE(sta::check_schedule(c, bf->schedule).feasible) << c.name();
}

TEST(GraphSolver, MatchesLpOnExample1Sweep) {
  for (double d41 = 0.0; d41 <= 160.0; d41 += 20.0) {
    const Circuit c = circuits::example1(d41);
    const auto bf = minimize_cycle_time_graph(c);
    ASSERT_TRUE(bf) << d41;
    const double expected = circuits::example1_optimal_tc(d41);
    EXPECT_NEAR(bf->min_cycle, expected, agreement_tol(expected)) << d41;
  }
}

TEST(GraphSolver, MatchesLpOnPaperCircuits) {
  expect_matches_lp(circuits::example2());
  expect_matches_lp(circuits::gaas_datapath());
  expect_matches_lp(circuits::appendix_fig1());
}

TEST(GraphSolver, MatchesLpOnSynthetics) {
  circuits::SyntheticParams p;
  for (const int k : {2, 3}) {
    p.num_phases = k;
    p.num_stages = 2 * k + 2;
    for (const uint64_t seed : {401u, 402u}) {
      expect_matches_lp(circuits::synthetic_circuit(p, seed));
    }
  }
}

TEST(GraphSolver, MatchesLpWithExtensions) {
  const Circuit c = circuits::example1(80.0);
  MlpOptions lp_opts;
  GraphSolveOptions g_opts;
  lp_opts.generator.min_phase_width = 55.0;
  g_opts.generator.min_phase_width = 55.0;
  lp_opts.generator.clock_skew = 3.0;
  g_opts.generator.clock_skew = 3.0;
  lp_opts.generator.min_phase_separation = 4.0;
  g_opts.generator.min_phase_separation = 4.0;
  expect_matches_lp(c, lp_opts, g_opts);
}

TEST(GraphSolver, MatchesLpWithHoldRows) {
  Circuit c = circuits::example1(80.0);
  for (int i = 0; i < c.num_elements(); ++i) {
    c.element(i).hold = 2.0;
    c.element(i).dq_min = 5.0;
  }
  MlpOptions lp_opts;
  GraphSolveOptions g_opts;
  lp_opts.generator.hold_constraints = true;
  g_opts.generator.hold_constraints = true;
  expect_matches_lp(c, lp_opts, g_opts);
}

TEST(GraphSolver, MatchesLpWithArrivalBasedSetup) {
  MlpOptions lp_opts;
  GraphSolveOptions g_opts;
  lp_opts.generator.arrival_based_setup = true;
  g_opts.generator.arrival_based_setup = true;
  expect_matches_lp(circuits::example1(100.0), lp_opts, g_opts);
}

TEST(GraphSolver, InfeasibleHoldReported) {
  // The same degenerate hold system the LP path rejects (see mlp_test).
  Circuit c("infeasible", 1);
  c.add_latch("A", 1, 1.0, 2.0);
  Element b;
  b.name = "B";
  b.phase = 1;
  b.setup = 1.0;
  b.dq = 2.0;
  b.hold = 1e6;
  c.add_element(b);
  c.add_path("A", "B", 10.0, 0.0);
  GraphSolveOptions g_opts;
  g_opts.generator.hold_constraints = true;
  // Infeasibility is certified by the first negative cycle with no Tc term:
  // one Bellman-Ford run, not a doubling search up to some limit.
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.clear();
  tracer.set_enabled(true);
  const auto bf = minimize_cycle_time_graph(c, g_opts);
  tracer.set_enabled(false);
  ASSERT_FALSE(bf);
  EXPECT_EQ(bf.error().kind, ErrorKind::kInfeasible);
  const std::vector<obs::TraceEvent> events = tracer.snapshot();
  const auto runs = std::count_if(events.begin(), events.end(), [](const obs::TraceEvent& e) {
    return e.kind == obs::EventKind::kBegin && e.name == "graph.bellman-ford";
  });
  EXPECT_EQ(runs, 1);
  tracer.clear();
}

TEST(GraphSolver, HonorsTcUpperBoundLikeTheLp) {
  const Circuit c = circuits::example1(80.0);  // Tc* = 110
  MlpOptions lp_opts;
  GraphSolveOptions g_opts;
  lp_opts.generator.tc_upper_bound = 200.0;
  g_opts.generator.tc_upper_bound = 200.0;
  expect_matches_lp(c, lp_opts, g_opts);
  lp_opts.generator.tc_upper_bound = 100.0;
  g_opts.generator.tc_upper_bound = 100.0;
  const auto lp = minimize_cycle_time(c, lp_opts);
  const auto bf = minimize_cycle_time_graph(c, g_opts);
  ASSERT_FALSE(lp);
  ASSERT_FALSE(bf);
  EXPECT_EQ(bf.error().kind, lp.error().kind);
  EXPECT_EQ(bf.error().kind, ErrorKind::kInfeasible);
}

TEST(GraphSolver, InvalidCircuitRejected) {
  Circuit c("bad", 1);
  c.add_latch("X", 9, 1.0, 2.0);
  const auto bf = minimize_cycle_time_graph(c);
  ASSERT_FALSE(bf);
  EXPECT_EQ(bf.error().kind, ErrorKind::kInvalidCircuit);
}

TEST(GraphSolver, ReportsWork) {
  const auto bf = minimize_cycle_time_graph(circuits::gaas_datapath());
  ASSERT_TRUE(bf);
  EXPECT_GT(bf->jumps, 0);
  EXPECT_FALSE(bf->binding_cycle.empty());
  EXPECT_GT(bf->relaxations, 0);
}

TEST(GraphSolver, FlipFlopCircuits) {
  Circuit c("ff", 2);
  c.add_latch("L", 1, 1.0, 2.0);
  c.add_flipflop("F", 2, 1.0, 2.0);
  c.add_path("L", "F", 10.0);
  c.add_path("F", "L", 10.0);
  expect_matches_lp(c);
}

// The binding cycle is a closed walk in the difference system whose weight
// at Tc* is zero to rounding: the certificate that Tc* cannot go lower.
void expect_zero_weight_binding_cycle(const Circuit& c, const GeneratorOptions& gen = {}) {
  GraphSolveOptions g_opts;
  g_opts.generator = gen;
  const auto bf = minimize_cycle_time_graph(c, g_opts);
  ASSERT_TRUE(bf) << c.name();
  const DifferenceSystem sys = difference_system(c, gen);
  const std::vector<int>& cycle = bf->binding_cycle;
  ASSERT_FALSE(cycle.empty()) << c.name();
  double weight = 0.0, magnitude = 0.0;
  for (size_t i = 0; i < cycle.size(); ++i) {
    const DiffEdge& e = sys.edges[static_cast<size_t>(cycle[i])];
    const DiffEdge& next = sys.edges[static_cast<size_t>(cycle[(i + 1) % cycle.size()])];
    EXPECT_EQ(e.v, next.u) << c.name() << ": cycle broken at edge " << i;
    weight += e.base + e.tc_coeff * bf->min_cycle;
    magnitude += std::fabs(e.base) + e.tc_coeff * bf->min_cycle;
  }
  const double ulp = std::numeric_limits<double>::epsilon() * magnitude;
  EXPECT_LE(std::fabs(weight), 4.0 * ulp) << c.name() << ": weight " << weight;
}

TEST(GraphSolverCertificate, BindingCycleWeighsZeroAtTheOptimum) {
  expect_zero_weight_binding_cycle(circuits::example1(80.0));
  expect_zero_weight_binding_cycle(circuits::example1(0.0));
  expect_zero_weight_binding_cycle(circuits::example2());
  expect_zero_weight_binding_cycle(circuits::gaas_datapath());
  expect_zero_weight_binding_cycle(circuits::appendix_fig1());
  GeneratorOptions gen;
  gen.min_phase_width = 55.0;
  gen.clock_skew = 3.0;
  expect_zero_weight_binding_cycle(circuits::example1(80.0), gen);
  circuits::SyntheticParams p;
  for (const uint64_t seed : {401u, 402u, 403u}) {
    expect_zero_weight_binding_cycle(circuits::synthetic_circuit(p, seed));
  }
}

TEST(GraphSolverCertificate, PaperOptimaAreExact) {
  const auto e1 = minimize_cycle_time_graph(circuits::example1(80.0));
  const auto e2 = minimize_cycle_time_graph(circuits::example2());
  const auto gaas = minimize_cycle_time_graph(circuits::gaas_datapath());
  ASSERT_TRUE(e1 && e2 && gaas);
  EXPECT_DOUBLE_EQ(e1->min_cycle, 110.0);
  EXPECT_DOUBLE_EQ(e2->min_cycle, 70.0);
  EXPECT_DOUBLE_EQ(gaas->min_cycle, 4.4);
}

// A two-phase latch ring: latch i on phase 1 + i % 2, path i -> i+1 with the
// given delays. Setup times are a quarter of Δ_DQ, so only the loop binds.
Circuit latch_ring(const std::vector<double>& delays, double dq) {
  Circuit c("ring", 2);
  const int n = static_cast<int>(delays.size());
  for (int i = 0; i < n; ++i) c.add_latch("L" + std::to_string(i), 1 + i % 2, 0.25 * dq, dq);
  for (int i = 0; i < n; ++i) {
    c.add_path("L" + std::to_string(i), "L" + std::to_string((i + 1) % n),
               delays[static_cast<size_t>(i)]);
  }
  return c;
}

TEST(GraphSolverCertificate, PureLoopOptimumIsTheMaxCycleRatio) {
  const Circuit rings[] = {latch_ring({10.0, 10.0}, 2.0),
                           latch_ring({7.3, 12.9, 4.1, 9.7}, 1.7),
                           latch_ring({3.1, 8.8, 5.5, 6.2, 9.9, 1.3}, 0.9),
                           latch_ring({1e-3, 2.5e-3, 1.7e-3, 3.3e-3}, 4e-4)};
  for (const Circuit& c : rings) {
    const auto bf = minimize_cycle_time_graph(c);
    ASSERT_TRUE(bf) << bf.error().to_string();
    // Only L2R rows (departure node to departure node) bind: no setup or
    // hold row is on the binding cycle.
    const DifferenceSystem sys = difference_system(c);
    const int first_d = sys.d_node.front();
    for (const int id : bf->binding_cycle) {
      EXPECT_GE(sys.edges[static_cast<size_t>(id)].u, first_d);
      EXPECT_GE(sys.edges[static_cast<size_t>(id)].v, first_d);
    }
    const auto howard = graph::max_cycle_ratio_howard(c.latch_graph());
    ASSERT_TRUE(howard);
    EXPECT_NEAR(bf->min_cycle, howard->ratio, 1e-12 * howard->ratio);
    const auto lp = minimize_cycle_time(c);
    ASSERT_TRUE(lp);
    EXPECT_NEAR(lp->min_cycle, bf->min_cycle, agreement_tol(bf->min_cycle));
  }
}

}  // namespace
}  // namespace mintc::opt
