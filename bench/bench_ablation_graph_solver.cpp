// Ablation: simplex LP vs the parametric Bellman-Ford optimizer — the
// "more efficient than the simplex algorithm" direction of Section VI,
// exploiting the purely topological (0, ±1) constraint matrix. Both are
// exact; the table verifies agreement (exit 1 if any row's Tc* differ by
// more than 1e-9 relative) and the benchmarks compare costs as the circuit
// grows. `--table-only` skips the benchmarks.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "base/table.h"
#include "circuits/example1.h"
#include "circuits/example2.h"
#include "circuits/gaas.h"
#include "circuits/synthetic.h"
#include "opt/graph_solver.h"
#include "opt/mlp.h"

using namespace mintc;

namespace {

Circuit synthetic_sized(int stages) {
  circuits::SyntheticParams p;
  p.num_phases = 2;
  p.num_stages = stages;
  p.latches_per_stage = 4;
  p.fanin = 3;
  return circuits::synthetic_circuit(p, 2718);
}

// Prints the agreement table; returns false if any row disagrees.
bool print_agreement_table() {
  std::printf("== exact optimizers: simplex vs parametric Bellman-Ford ==\n");
  TextTable table({"circuit", "Tc* simplex", "Tc* graph", "rel. diff", "pivots",
                   "BF relaxations", "jumps"});
  struct Named {
    const char* name;
    Circuit circuit;
  };
  const Named list[] = {{"example1(d41=80)", circuits::example1(80.0)},
                        {"example2", circuits::example2()},
                        {"gaas", circuits::gaas_datapath()},
                        {"synthetic(l=64)", synthetic_sized(16)},
                        {"synthetic(l=256)", synthetic_sized(64)}};
  bool agree = true;
  for (const auto& [name, circuit] : list) {
    const auto lp = opt::minimize_cycle_time(circuit);
    const auto bf = opt::minimize_cycle_time_graph(circuit);
    if (!lp || !bf) {
      agree = agree && !lp && !bf;
      table.add_row({name, lp ? "ok" : "error", bf ? "ok" : "error", "", "", "", ""});
      continue;
    }
    const double rel =
        std::fabs(lp->min_cycle - bf->min_cycle) / std::max(1.0, std::fabs(lp->min_cycle));
    agree = agree && rel <= 1e-9;
    char a[32], b[32], d[32];
    std::snprintf(a, sizeof a, "%.17g", lp->min_cycle);
    std::snprintf(b, sizeof b, "%.17g", bf->min_cycle);
    std::snprintf(d, sizeof d, "%.2g", rel);
    table.add_row({name, a, b, d,
                   std::to_string(lp->lp_stats.phase1_pivots + lp->lp_stats.phase2_pivots),
                   std::to_string(bf->relaxations), std::to_string(bf->jumps)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("the graph method never builds a tableau: its work is edges x passes x\n"
              "parametric jumps, all on the topological +-1 structure.\n");
  std::printf("agreement (1e-9 relative): %s\n\n", agree ? "PASS" : "FAIL");
  return agree;
}

void BM_Simplex(benchmark::State& state) {
  const Circuit c = synthetic_sized(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto r = opt::minimize_cycle_time(c);
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel("l=" + std::to_string(c.num_elements()));
}
BENCHMARK(BM_Simplex)->Arg(8)->Arg(16)->Arg(32);

void BM_GraphSolver(benchmark::State& state) {
  const Circuit c = synthetic_sized(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto r = opt::minimize_cycle_time_graph(c);
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel("l=" + std::to_string(c.num_elements()));
}
BENCHMARK(BM_GraphSolver)->Arg(8)->Arg(16)->Arg(32);

}  // namespace

int main(int argc, char** argv) {
  const bool agree = print_agreement_table();
  if (argc > 1 && std::string(argv[1]) == "--table-only") return agree ? 0 : 1;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return agree ? 0 : 1;
}
