#include "sta/fixpoint.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "graph/digraph.h"
#include "graph/scc.h"
#include "obs/cost.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mintc::sta {

const char* to_string(UpdateScheme scheme) {
  switch (scheme) {
    case UpdateScheme::kJacobi: return "jacobi";
    case UpdateScheme::kGaussSeidel: return "gauss-seidel";
    case UpdateScheme::kEventDriven: return "event-driven";
    case UpdateScheme::kSccOrdered: return "scc-ordered";
  }
  return "?";
}

const char* to_string(FixpointStatus status) {
  switch (status) {
    case FixpointStatus::kConverged: return "converged";
    case FixpointStatus::kDiverged: return "diverged";
    case FixpointStatus::kSweepLimit: return "sweep-limit";
  }
  return "?";
}

double fixpoint_residual(const TimingView& view, const ShiftTable& shifts,
                         const std::vector<double>& departure) {
  double residual = 0.0;
  for (int i = 0; i < view.num_elements(); ++i) {
    const double v = mintc::departure_update(view, shifts, departure, i);
    const double delta = std::fabs(v - departure[static_cast<size_t>(i)]);
    if (delta > residual) residual = delta;
  }
  return residual;
}

double divergence_bound(const TimingView& view, const ShiftTable& shifts) {
  // Any departure beyond this bound means a positive loop: in one period a
  // signal cannot legitimately accumulate more than every delay in the
  // circuit plus a full cycle of slack.
  return std::fabs(shifts.cycle()) * (view.num_phases() + 1) + 1.0 + view.divergence_base();
}

graph::Digraph latch_graph_of(const TimingView& view) {
  graph::Digraph g(view.num_elements());
  for (int p = 0; p < view.num_edges(); ++p) {
    const EdgeIndex e = view.edge_of_path(p);
    g.add_edge(view.edge_src(e), view.edge_dst(e), view.edge_max_const(e),
               static_cast<double>(view.edge_cross(e)), p);
  }
  return g;
}

double departure_update(const Circuit& circuit, const ClockSchedule& schedule,
                        const std::vector<double>& departure, int i) {
  const TimingView view(circuit);
  const ShiftTable shifts(schedule);
  return mintc::departure_update(view, shifts, departure, i);
}


FixpointResult compute_departures(const Circuit& circuit, const ClockSchedule& schedule,
                                  std::vector<double> initial, const FixpointOptions& options) {
  const TimingView view(circuit);
  const ShiftTable shifts(schedule);
  FixpointResult res = compute_departures(view, shifts, std::move(initial), options);
  res.stats.view_build_seconds = view.build_seconds();
  res.stats.shift_build_seconds = shifts.build_seconds();
  res.stats.wall_seconds += view.build_seconds() + shifts.build_seconds();
  return res;
}

FixpointResult compute_departures(const TimingView& view, const ShiftTable& shifts,
                                  std::vector<double> initial, const FixpointOptions& options) {
  const int l = view.num_elements();
  assert(static_cast<int>(initial.size()) == l);
  assert(shifts.num_phases() >= view.num_phases());
  const StageTimer timer;
  // Hoisted once per solve: with tracing disabled, the only cost the tracer
  // adds to the loops below is this relaxed atomic load.
  obs::Tracer& tracer = obs::Tracer::instance();
  const bool tracing = tracer.enabled();
  const obs::TraceSpan span("fixpoint.solve", "sta");
  FixpointResult res;
  res.departure = std::move(initial);
  const double bound = divergence_bound(view, shifts);
  // Hoisted into locals: a store through res.departure's double* may alias
  // FixpointOptions' double members under TBAA, so reading options.eps
  // inside the sweep forces a reload per latch (~3% on the overhead gate).
  const double eps = options.eps;
  const int max_sweeps = options.effective_max_sweeps(l);

  const auto diverged = [&](double v) { return v > bound; };
  const auto finish = [&]() -> FixpointResult&& {
    if (res.converged) {
      res.status = FixpointStatus::kConverged;
    } else if (res.diverged) {
      res.status = FixpointStatus::kDiverged;
    } else {
      // Sweep budget exhausted: attach the outstanding residual (one extra
      // read-only pass, negligible next to the sweeps already spent) so the
      // caller can distinguish "nearly there" from "nowhere close".
      res.status = FixpointStatus::kSweepLimit;
      res.residual = fixpoint_residual(view, shifts, res.departure);
    }
    res.stats.sweeps = res.sweeps;
    res.stats.solve_seconds = timer.seconds();
    res.stats.wall_seconds = res.stats.solve_seconds;
    const char* scheme = to_string(options.scheme);
    auto& reg = obs::MetricsRegistry::instance();
    reg.counter("fixpoint.solves", {{"scheme", scheme}}).inc();
    reg.counter("fixpoint.sweeps", {{"scheme", scheme}}).inc(res.sweeps);
    reg.counter("fixpoint.edge_relaxations", {{"scheme", scheme}})
        .inc(res.stats.edge_relaxations);
    reg.histogram("fixpoint.sweeps_per_solve", {{"scheme", scheme}})
        .observe(static_cast<double>(res.sweeps));
    // Attribute the solve's work to the requesting context (serve layer);
    // one pointer test when no account is installed.
    obs::charge_solve(res.stats.edge_relaxations, res.sweeps);
    if (tracing && res.diverged) tracer.instant("fixpoint.diverged", "sta");
    return std::move(res);
  };
  const auto relax = [&](int i) {
    ++res.updates;
    res.stats.edge_relaxations += view.fanin_count(i);
    return mintc::departure_update(view, shifts, res.departure, i);
  };

  // The solve loops are instantiated twice, kTracing on/off, so the
  // disabled-tracing path compiles with no residual tracking at all — the
  // bench_view_fixpoint --overhead-check gate holds it within 5% of the
  // pre-observability loop, which a runtime `if (tracing)` in the inner
  // loop measurably failed.
  const auto solve = [&]<bool kTracing>() -> FixpointResult {
  switch (options.scheme) {
    case UpdateScheme::kJacobi: {
      std::vector<double> next(static_cast<size_t>(l), 0.0);
      for (res.sweeps = 0; res.sweeps < max_sweeps; ++res.sweeps) {
        bool changed = false;
        [[maybe_unused]] double residual = 0.0;  // max |ΔD| this sweep
        for (int i = 0; i < l; ++i) {
          ++res.updates;
          res.stats.edge_relaxations += view.fanin_count(i);
          next[static_cast<size_t>(i)] =
              mintc::departure_update(view, shifts, res.departure, i);
          const double delta =
              std::fabs(next[static_cast<size_t>(i)] - res.departure[static_cast<size_t>(i)]);
          if (delta > eps) changed = true;
          if constexpr (kTracing) {
            if (delta > residual) residual = delta;
          }
          if (diverged(next[static_cast<size_t>(i)])) {
            res.diverged = true;
            // Report a consistent state: this sweep's values up to i, the
            // previous sweep beyond. (`next` past i still holds the sweep
            // before last, so copying all of it would mix three sweeps.)
            std::copy(next.begin(), next.begin() + i + 1, res.departure.begin());
            return finish();
          }
        }
        res.departure.swap(next);
        if constexpr (kTracing) tracer.counter("fixpoint.residual", residual, "sta");
        if (!changed) {
          res.converged = true;
          ++res.sweeps;
          return finish();
        }
      }
      return finish();
    }

    case UpdateScheme::kGaussSeidel: {
      for (res.sweeps = 0; res.sweeps < max_sweeps; ++res.sweeps) {
        bool changed = false;
        [[maybe_unused]] double residual = 0.0;  // max |ΔD| this sweep
        for (int i = 0; i < l; ++i) {
          const double v = relax(i);
          const double delta = std::fabs(v - res.departure[static_cast<size_t>(i)]);
          if (delta > eps) changed = true;
          if constexpr (kTracing) {
            if (delta > residual) residual = delta;
          }
          res.departure[static_cast<size_t>(i)] = v;
          if (diverged(v)) {
            res.diverged = true;
            return finish();
          }
        }
        if constexpr (kTracing) tracer.counter("fixpoint.residual", residual, "sta");
        if (!changed) {
          res.converged = true;
          ++res.sweeps;
          return finish();
        }
      }
      return finish();
    }

    case UpdateScheme::kSccOrdered: {
      // Condense the latch graph into SCCs; Tarjan emits components in
      // reverse topological order, so walking them backwards visits sources
      // first. Each component is swept (Gauss-Seidel) to its own fixpoint
      // before any downstream component is touched.
      const graph::SccResult scc = graph::strongly_connected_components(latch_graph_of(view));
      for (int comp = scc.num_components - 1; comp >= 0; --comp) {
        const std::vector<int>& members = scc.members[static_cast<size_t>(comp)];
        int local_sweeps = 0;
        while (local_sweeps < max_sweeps) {
          bool changed = false;
          [[maybe_unused]] double residual = 0.0;  // max |ΔD| this component sweep
          for (const int i : members) {
            const double v = relax(i);
            const double delta = std::fabs(v - res.departure[static_cast<size_t>(i)]);
            if (delta > eps) changed = true;
            if constexpr (kTracing) {
              if (delta > residual) residual = delta;
            }
            res.departure[static_cast<size_t>(i)] = v;
            if (diverged(v)) {
              res.diverged = true;
              return finish();
            }
          }
          if constexpr (kTracing) tracer.counter("fixpoint.residual", residual, "sta");
          ++local_sweeps;
          if (!changed) break;
          // Acyclic components converge after one changing sweep.
          if (!scc.nontrivial[static_cast<size_t>(comp)]) break;
        }
        res.sweeps = std::max(res.sweeps, local_sweeps);
        if (local_sweeps >= max_sweeps) return finish();  // not converged
      }
      res.converged = true;
      return finish();
    }

    case UpdateScheme::kEventDriven: {
      // Worklist seeded with every element; a change to D_i re-enqueues the
      // elements fed by i. This is the paper's suggested enhancement.
      std::vector<bool> queued(static_cast<size_t>(l), true);
      std::vector<int> work;
      work.reserve(static_cast<size_t>(l));
      for (int i = 0; i < l; ++i) work.push_back(i);
      const long max_updates = static_cast<long>(max_sweeps) * std::max(1, l);
      size_t head = 0;
      while (head < work.size()) {
        if (static_cast<long>(res.updates) >= max_updates) return finish();
        const int i = work[head++];
        queued[static_cast<size_t>(i)] = false;
        const double v = relax(i);
        const double delta = std::fabs(v - res.departure[static_cast<size_t>(i)]);
        if (delta <= eps) continue;
        // The event-driven scheme has no sweeps; the accepted-update ΔD
        // stream is its convergence record.
        if constexpr (kTracing) tracer.counter("fixpoint.residual", delta, "sta");
        res.departure[static_cast<size_t>(i)] = v;
        if (diverged(v)) {
          res.diverged = true;
          return finish();
        }
        const EdgeIndex fo_end = view.fanout_end(i);
        for (EdgeIndex f = view.fanout_begin(i); f < fo_end; ++f) {
          const int dst = view.edge_dst(view.fanout_edge(f));
          if (!queued[static_cast<size_t>(dst)]) {
            queued[static_cast<size_t>(dst)] = true;
            work.push_back(dst);
          }
        }
        // Compact the worklist occasionally to bound memory.
        if (head > 4096 && head * 2 > work.size()) {
          work.erase(work.begin(), work.begin() + static_cast<long>(head));
          head = 0;
        }
      }
      res.converged = true;
      res.sweeps = (res.updates + l - 1) / std::max(1, l);
      return finish();
    }
  }
  return finish();
  };  // solve
  return tracing ? solve.template operator()<true>() : solve.template operator()<false>();
}

FixpointResult warm_departures(const TimingView& view, const ShiftTable& shifts,
                               std::vector<double> departure, const std::vector<int>& seeds,
                               const FixpointOptions& options) {
  const int l = view.num_elements();
  assert(static_cast<int>(departure.size()) == l);
  const StageTimer timer;
  const obs::TraceSpan span("fixpoint.warm", "sta");
  FixpointResult res;
  res.departure = std::move(departure);
  const double bound = divergence_bound(view, shifts);

  std::vector<bool> queued(static_cast<size_t>(l), false);
  std::vector<int> work;
  work.reserve(seeds.size());
  for (const int i : seeds) {
    if (!queued[static_cast<size_t>(i)]) {
      queued[static_cast<size_t>(i)] = true;
      work.push_back(i);
    }
  }
  const long max_updates =
      static_cast<long>(options.effective_max_sweeps(l)) * std::max(1, l);
  size_t head = 0;
  while (head < work.size()) {
    if (static_cast<long>(res.updates) >= max_updates) break;
    const int i = work[head++];
    queued[static_cast<size_t>(i)] = false;
    ++res.updates;
    res.stats.edge_relaxations += view.fanin_count(i);
    const double v = mintc::departure_update(view, shifts, res.departure, i);
    // Strict acceptance: from an exact previous fixpoint under nondecreasing
    // weights, every genuine move is upward; an eps deadband here would stop
    // short of the exact least fixpoint the cold engines settle on.
    if (v <= res.departure[static_cast<size_t>(i)]) continue;
    res.departure[static_cast<size_t>(i)] = v;
    if (v > bound) {
      res.diverged = true;
      break;
    }
    const EdgeIndex fo_end = view.fanout_end(i);
    for (EdgeIndex f = view.fanout_begin(i); f < fo_end; ++f) {
      const int dst = view.edge_dst(view.fanout_edge(f));
      if (!queued[static_cast<size_t>(dst)]) {
        queued[static_cast<size_t>(dst)] = true;
        work.push_back(dst);
      }
    }
    if (head > 4096 && head * 2 > work.size()) {
      work.erase(work.begin(), work.begin() + static_cast<long>(head));
      head = 0;
    }
  }
  if (!res.diverged && head == work.size()) res.converged = true;
  if (res.converged) {
    res.status = FixpointStatus::kConverged;
  } else if (res.diverged) {
    res.status = FixpointStatus::kDiverged;
  } else {
    res.status = FixpointStatus::kSweepLimit;
    res.residual = fixpoint_residual(view, shifts, res.departure);
  }
  res.sweeps = (res.updates + l - 1) / std::max(1, l);
  res.stats.sweeps = res.sweeps;
  res.stats.solve_seconds = timer.seconds();
  res.stats.wall_seconds = res.stats.solve_seconds;
  // This runs once per warm analyze (the session's hot loop), so resolve the
  // registry handles once — each lookup builds a labeled key under a mutex.
  auto& reg = obs::MetricsRegistry::instance();
  static obs::Counter& solves = reg.counter("fixpoint.solves", {{"scheme", "event-warm"}});
  static obs::Counter& sweeps = reg.counter("fixpoint.sweeps", {{"scheme", "event-warm"}});
  static obs::Counter& relaxations =
      reg.counter("fixpoint.edge_relaxations", {{"scheme", "event-warm"}});
  static obs::Histogram& sweeps_hist =
      reg.histogram("fixpoint.sweeps_per_solve", {{"scheme", "event-warm"}});
  solves.inc();
  sweeps.inc(res.sweeps);
  relaxations.inc(res.stats.edge_relaxations);
  sweeps_hist.observe(static_cast<double>(res.sweeps));
  obs::charge_solve(res.stats.edge_relaxations, res.sweeps);
  return res;
}

std::vector<double> compute_arrivals(const Circuit& circuit, const ClockSchedule& schedule,
                                     const std::vector<double>& departure) {
  const TimingView view(circuit);
  const ShiftTable shifts(schedule);
  return compute_arrivals(view, shifts, departure);
}

std::vector<double> compute_arrivals(const TimingView& view, const ShiftTable& shifts,
                                     const std::vector<double>& departure) {
  std::vector<double> arrival(static_cast<size_t>(view.num_elements()));
  for (int i = 0; i < view.num_elements(); ++i) {
    arrival[static_cast<size_t>(i)] = arrival_update(view, shifts, departure, i);
  }
  return arrival;
}

}  // namespace mintc::sta
