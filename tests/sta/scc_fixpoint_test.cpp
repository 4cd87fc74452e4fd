// The LEADOUT-inspired SCC-ordered update scheme.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/thread_pool.h"
#include "circuits/example1.h"
#include "circuits/example2.h"
#include "circuits/gaas.h"
#include "graph/scc.h"
#include "netlist/generators.h"
#include "opt/mlp.h"
#include "sta/analysis.h"
#include "sta/fixpoint.h"

namespace mintc::sta {
namespace {

TEST(SccOrdered, AgreesWithOtherSchemesEverywhere) {
  for (const Circuit& c : {circuits::example1(120.0), circuits::example2(),
                           circuits::gaas_datapath()}) {
    const auto r = opt::minimize_cycle_time(c);
    ASSERT_TRUE(r) << c.name();
    const ClockSchedule sch = r->schedule.scaled(1.02);
    FixpointOptions gs;
    gs.scheme = UpdateScheme::kGaussSeidel;
    FixpointOptions scc;
    scc.scheme = UpdateScheme::kSccOrdered;
    const std::vector<double> zero(static_cast<size_t>(c.num_elements()), 0.0);
    const FixpointResult a = compute_departures(c, sch, zero, gs);
    const FixpointResult b = compute_departures(c, sch, zero, scc);
    ASSERT_TRUE(a.converged && b.converged) << c.name();
    for (int i = 0; i < c.num_elements(); ++i) {
      EXPECT_NEAR(a.departure[static_cast<size_t>(i)], b.departure[static_cast<size_t>(i)],
                  1e-9)
          << c.name() << " " << c.element(i).name;
    }
  }
}

TEST(SccOrdered, FewerUpdatesOnChainOfLoops) {
  // Three feedback loops in series: global Gauss-Seidel re-sweeps everything
  // until the last loop settles; SCC ordering settles each loop once.
  Circuit c("chain", 2);
  const int loops = 3;
  const int per = 6;
  for (int g = 0; g < loops; ++g) {
    for (int i = 0; i < per; ++i) {
      c.add_latch("G" + std::to_string(g) + "L" + std::to_string(i), (i % 2) + 1, 1.0, 2.0);
    }
    const int base = g * per;
    for (int i = 0; i < per; ++i) c.add_path(base + i, base + (i + 1) % per, 55.0);
    if (g > 0) c.add_path(base - 1, base, 55.0);  // bridge from previous loop
  }
  const ClockSchedule sch = symmetric_schedule(2, 400.0);
  FixpointOptions gs;
  gs.scheme = UpdateScheme::kGaussSeidel;
  FixpointOptions scc;
  scc.scheme = UpdateScheme::kSccOrdered;
  const std::vector<double> zero(static_cast<size_t>(c.num_elements()), 0.0);
  const FixpointResult a = compute_departures(c, sch, zero, gs);
  const FixpointResult b = compute_departures(c, sch, zero, scc);
  ASSERT_TRUE(a.converged && b.converged);
  EXPECT_LE(b.updates, a.updates);
  for (int i = 0; i < c.num_elements(); ++i) {
    EXPECT_NEAR(a.departure[static_cast<size_t>(i)], b.departure[static_cast<size_t>(i)],
                1e-9);
  }
}

TEST(SccOrdered, DetectsDivergence) {
  Circuit c("race", 1);
  c.add_latch("A", 1, 1.0, 2.0);
  c.add_latch("B", 1, 1.0, 2.0);
  c.add_path("A", "B", 30.0);
  c.add_path("B", "A", 30.0);
  FixpointOptions opt;
  opt.scheme = UpdateScheme::kSccOrdered;
  const FixpointResult r =
      compute_departures(c, ClockSchedule(10.0, {0.0}, {10.0}), {0.0, 0.0}, opt);
  EXPECT_TRUE(r.diverged);
  EXPECT_FALSE(r.converged);
}

TEST(SccOrdered, WorksInsideMlp) {
  opt::MlpOptions options;
  options.fixpoint.scheme = UpdateScheme::kSccOrdered;
  const auto r = opt::minimize_cycle_time(circuits::example1(80.0), options);
  ASSERT_TRUE(r);
  EXPECT_NEAR(r->min_cycle, 110.0, 1e-6);
  EXPECT_TRUE(opt::satisfies_p1(circuits::example1(80.0), r->schedule, r->departure));
}

TEST(SccOrdered, SchemeName) {
  EXPECT_STREQ(to_string(UpdateScheme::kSccOrdered), "scc-ordered");
}

// ---------------------------------------------------------------------------
// Determinism at the extremes of the SCC partition: a single giant SCC, 10^4
// independent components and a wavefront DAG. Every scheme must reach the
// same least fixpoint, and solves run concurrently on base::ThreadPool
// workers (the socket server runs each request as one pool task) must
// reproduce the serial result to the last bit: a solve reads a shared const
// TimingView and keeps no state outside its own result, so neither the pool
// size nor the interleaving may move a departure, a sweep or an update.
// ---------------------------------------------------------------------------

constexpr UpdateScheme kSchemes[] = {UpdateScheme::kJacobi, UpdateScheme::kGaussSeidel,
                                     UpdateScheme::kEventDriven, UpdateScheme::kSccOrdered};
constexpr int kPoolSizes[] = {1, 2, 4};

int scc_count(const Circuit& c) {
  return graph::strongly_connected_components(latch_graph_of(TimingView(c))).num_components;
}

void expect_deterministic(const Circuit& c, const ClockSchedule& sch, const std::string& what) {
  const TimingView view(c);
  const ShiftTable shifts(sch);
  const std::vector<double> zero(static_cast<size_t>(c.num_elements()), 0.0);
  std::vector<FixpointOptions> opts;
  std::vector<FixpointResult> serial;
  for (const UpdateScheme scheme : kSchemes) {
    FixpointOptions fo;
    fo.scheme = scheme;
    opts.push_back(fo);
    serial.push_back(compute_departures(view, shifts, zero, fo));
    ASSERT_TRUE(serial.back().converged) << what << " " << to_string(scheme);
    EXPECT_EQ(serial.back().departure, serial.front().departure)
        << what << " " << to_string(scheme) << ": schemes disagree";
  }
  AnalysisOptions ao;
  ao.check_hold = true;
  const TimingReport serial_rep = check_schedule(c, sch, ao);
  ASSERT_TRUE(serial_rep.converged) << what;
  EXPECT_EQ(serial_rep.fixpoint.departure, serial.front().departure) << what;

  for (const int threads : kPoolSizes) {
    std::vector<FixpointResult> par(opts.size());
    std::vector<TimingReport> reps(static_cast<size_t>(threads));
    {
      base::ThreadPool pool(threads);
      for (size_t i = 0; i < opts.size(); ++i) {
        pool.submit([&, i] { par[i] = compute_departures(view, shifts, zero, opts[i]); });
      }
      for (size_t t = 0; t < reps.size(); ++t) {
        pool.submit([&, t] { reps[t] = check_schedule(c, sch, ao); });
      }
      pool.wait();
    }
    for (size_t i = 0; i < opts.size(); ++i) {
      const std::string tag =
          what + " threads=" + std::to_string(threads) + " " + to_string(opts[i].scheme);
      ASSERT_TRUE(par[i].converged) << tag;
      ASSERT_EQ(par[i].departure, serial[i].departure) << tag << ": not bitwise equal";
      EXPECT_EQ(par[i].sweeps, serial[i].sweeps) << tag;
      EXPECT_EQ(par[i].updates, serial[i].updates) << tag;
    }
    for (const TimingReport& rep : reps) {
      EXPECT_EQ(rep.feasible, serial_rep.feasible) << what << " threads=" << threads;
      EXPECT_EQ(rep.fixpoint.departure, serial_rep.fixpoint.departure)
          << what << " threads=" << threads;
      EXPECT_EQ(rep.worst_setup_slack, serial_rep.worst_setup_slack)
          << what << " threads=" << threads;
      EXPECT_EQ(rep.worst_hold_slack, serial_rep.worst_hold_slack)
          << what << " threads=" << threads;
    }
  }
}

TEST(ParallelDeterminism, SingleGiantScc) {
  // A ring-closed pipeline: one nontrivial SCC spanning every latch, so the
  // SCC-ordered scheme has no ordering freedom at all.
  netlist::DeepPipelineConfig cfg;
  cfg.depth = 64;
  cfg.width = 16;
  cfg.fanin = 2;
  cfg.ring = true;
  const Circuit c = netlist::make_deep_pipeline(cfg);
  EXPECT_EQ(scc_count(c), 1);
  expect_deterministic(c, netlist::generator_schedule(cfg.num_phases, cfg.dq, cfg.delay),
                       "single-scc ring");
}

TEST(ParallelDeterminism, TenThousandComponentSoup) {
  // 10^4 independent rings + random cross edges: maximal ordering freedom,
  // the case where any order dependence would show as a moved departure.
  netlist::SccSoupConfig cfg;
  cfg.num_sccs = 10000;
  cfg.scc_size = 3;
  cfg.cross_edges = 20000;
  cfg.seed = 7;
  const Circuit c = netlist::make_scc_soup(cfg);
  EXPECT_GE(scc_count(c), 10000);
  expect_deterministic(c, netlist::generator_schedule(cfg.num_phases, cfg.dq, cfg.delay),
                       "10^4-component soup");
}

TEST(ParallelDeterminism, AcyclicMeshWavefront) {
  // The mesh's diamond-shaped DAG: every node has two predecessors and two
  // successors, so the fixpoint is reached along a fork/join wavefront.
  netlist::MeshConfig cfg;
  cfg.rows = 40;
  cfg.cols = 40;
  const Circuit c = netlist::make_mesh(cfg);
  expect_deterministic(c, netlist::generator_schedule(cfg.num_phases, cfg.dq, cfg.delay),
                       "mesh 40x40");
}

}  // namespace
}  // namespace mintc::sta
