// AnalysisSession unit tests: the correctness contract (warm/cold/cached
// analyze() bit-identical to a fresh check_schedule of the current state),
// the undo log, derating composition, and the counter semantics.
#include "sta/session.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "circuits/example1.h"
#include "circuits/gaas.h"
#include "circuits/synthetic.h"
#include "opt/mlp.h"
#include "sta/analysis.h"
#include "sta/corners.h"
#include "sta/fixpoint.h"

namespace mintc::sta {
namespace {

// Exact ==, not NEAR: the session must reproduce a fresh analysis to the
// last bit no matter which path (cache, warm fixpoint, cold solve) it took.
void expect_reports_identical(const TimingReport& got, const TimingReport& want) {
  ASSERT_EQ(got.feasible, want.feasible);
  ASSERT_EQ(got.schedule_ok, want.schedule_ok);
  ASSERT_EQ(got.converged, want.converged);
  ASSERT_EQ(got.setup_ok, want.setup_ok);
  ASSERT_EQ(got.hold_ok, want.hold_ok);
  ASSERT_EQ(got.elements.size(), want.elements.size());
  for (size_t i = 0; i < want.elements.size(); ++i) {
    EXPECT_EQ(got.elements[i].departure, want.elements[i].departure) << "element " << i;
    EXPECT_EQ(got.elements[i].arrival, want.elements[i].arrival) << "element " << i;
    EXPECT_EQ(got.elements[i].setup_slack, want.elements[i].setup_slack) << "element " << i;
    EXPECT_EQ(got.elements[i].hold_slack, want.elements[i].hold_slack) << "element " << i;
  }
  ASSERT_EQ(got.fixpoint.departure.size(), want.fixpoint.departure.size());
  for (size_t i = 0; i < want.fixpoint.departure.size(); ++i) {
    EXPECT_EQ(got.fixpoint.departure[i], want.fixpoint.departure[i]) << "departure " << i;
  }
  EXPECT_EQ(got.worst_setup_slack, want.worst_setup_slack);
  EXPECT_EQ(got.worst_setup_element, want.worst_setup_element);
  EXPECT_EQ(got.worst_hold_slack, want.worst_hold_slack);
  EXPECT_EQ(got.worst_hold_element, want.worst_hold_element);
}

struct Fixture {
  Circuit circuit;
  ClockSchedule schedule;  // relaxed optimum: all loops have negative gain
  AnalysisOptions options;

  explicit Fixture(Circuit c) : circuit(std::move(c)) {
    const auto mlp = opt::minimize_cycle_time(circuit);
    EXPECT_TRUE(mlp);
    schedule = mlp->schedule.scaled(1.25);
    options.check_hold = true;
  }

  TimingReport fresh(const Circuit& c, const ClockSchedule& s) const {
    return check_schedule(c, s, options);
  }
};

TEST(AnalysisSession, ColdAnalyzeMatchesCheckSchedule) {
  const Fixture f(circuits::example1(80.0));
  AnalysisSession session(f.circuit, f.schedule, f.options);
  expect_reports_identical(session.analyze(), f.fresh(f.circuit, f.schedule));
  EXPECT_EQ(session.counters().analyses, 1);
  EXPECT_EQ(session.counters().warm_hits, 0);
  EXPECT_EQ(session.counters().cold_fallbacks, 0);  // first solve is not a fallback
}

TEST(AnalysisSession, CachedReportCountsAsWarmHit) {
  const Fixture f(circuits::example1(80.0));
  AnalysisSession session(f.circuit, f.schedule, f.options);
  session.analyze();
  session.analyze();  // nothing changed: served from cache
  EXPECT_EQ(session.counters().analyses, 2);
  EXPECT_EQ(session.counters().warm_hits, 1);
  EXPECT_EQ(session.counters().invalidations, 0);
}

TEST(AnalysisSession, DelayIncreaseWarmStartsAndBitMatches) {
  const Fixture f(circuits::gaas_datapath());
  AnalysisSession session(f.circuit, f.schedule, f.options);
  session.analyze();
  const double d0 = f.circuit.path(0).delay;
  session.set_path_delay(0, d0 * 1.05);
  Circuit mutated = f.circuit;
  mutated.set_path_delay(0, d0 * 1.05);
  expect_reports_identical(session.analyze(), f.fresh(mutated, f.schedule));
  EXPECT_EQ(session.counters().warm_hits, 1);
  EXPECT_EQ(session.counters().cold_fallbacks, 0);
  EXPECT_EQ(session.counters().invalidations, 1);
}

// The session's warm path is the repo's incremental update: after a path
// delay increase it re-relaxes only what the edit reaches. On a wide circuit,
// bumping one path must not re-visit every latch.
TEST(Incremental, TouchesFewerNodesThanFullSolve) {
  circuits::SyntheticParams p;
  p.num_phases = 2;
  p.num_stages = 10;
  p.latches_per_stage = 4;
  const Fixture f(circuits::synthetic_circuit(p, 12));
  AnalysisSession session(f.circuit, f.schedule, f.options);
  session.analyze();
  const double d0 = f.circuit.path(0).delay;
  session.set_path_delay(0, d0 + 1.0);  // small bump, localized effect
  Circuit mutated = f.circuit;
  mutated.set_path_delay(0, d0 + 1.0);
  const TimingReport& warm = session.analyze();
  ASSERT_TRUE(warm.converged);
  EXPECT_EQ(session.counters().warm_hits, 1);
  EXPECT_EQ(session.counters().cold_fallbacks, 0);
  const TimingReport cold = f.fresh(mutated, f.schedule);
  expect_reports_identical(warm, cold);
  EXPECT_LT(warm.fixpoint.updates, cold.fixpoint.updates);
  // Also fewer than an event-driven solve from zero, the cheapest cold
  // scheme in updates.
  FixpointOptions evd;
  evd.scheme = UpdateScheme::kEventDriven;
  const FixpointResult full = compute_departures(
      mutated, f.schedule,
      std::vector<double>(static_cast<size_t>(mutated.num_elements()), 0.0), evd);
  ASSERT_TRUE(full.converged);
  EXPECT_LT(warm.fixpoint.updates, full.updates);
  EXPECT_EQ(warm.fixpoint.departure, full.departure);
}

TEST(AnalysisSession, DelayDecreaseFallsBackColdAndBitMatches) {
  const Fixture f(circuits::gaas_datapath());
  AnalysisSession session(f.circuit, f.schedule, f.options);
  session.analyze();
  const double d0 = f.circuit.path(0).delay;
  session.set_path_delay(0, d0 * 0.5);
  Circuit mutated = f.circuit;
  mutated.set_path_delay(0, d0 * 0.5);
  expect_reports_identical(session.analyze(), f.fresh(mutated, f.schedule));
  EXPECT_EQ(session.counters().warm_hits, 0);
  EXPECT_EQ(session.counters().cold_fallbacks, 1);
}

TEST(AnalysisSession, DivergenceDetectedOnRunawayIncrease) {
  Circuit c("race", 1);
  c.add_latch("A", 1, 1.0, 2.0);
  c.add_latch("B", 1, 1.0, 2.0);
  c.add_path("A", "B", 1.0);
  c.add_path("B", "A", 1.0);
  const ClockSchedule sch(10.0, {0.0}, {10.0});
  AnalysisSession session(c, sch);
  ASSERT_TRUE(session.analyze().converged);  // feasible: tiny delays
  session.set_path_delay(0, 30.0);            // now the loop gains every traversal
  c.set_path_delay(0, 30.0);
  const TimingReport& rep = session.analyze();
  EXPECT_TRUE(rep.fixpoint.diverged);
  EXPECT_FALSE(rep.feasible);
  expect_reports_identical(rep, check_schedule(c, sch));
}

TEST(AnalysisSession, ScheduleShrinkWarmStartsGrowFallsBack) {
  const Fixture f(circuits::gaas_datapath());
  AnalysisSession session(f.circuit, f.schedule, f.options);
  session.analyze();

  // Scaling the schedule DOWN scales every (negative) shift up toward zero:
  // monotone-nondecreasing, warm-start eligible. 1.25 * 0.99 stays above
  // the optimum, so the fixpoint still converges.
  const ClockSchedule shrunk = f.schedule.scaled(0.99);
  session.set_schedule(shrunk);
  expect_reports_identical(session.analyze(), f.fresh(f.circuit, shrunk));
  EXPECT_EQ(session.counters().warm_hits, 1);
  EXPECT_EQ(session.counters().cold_fallbacks, 0);

  // Scaling UP shrinks cross-cycle shifts: cold fallback, same contract.
  const ClockSchedule grown = f.schedule.scaled(1.1);
  session.set_schedule(grown);
  expect_reports_identical(session.analyze(), f.fresh(f.circuit, grown));
  EXPECT_EQ(session.counters().cold_fallbacks, 1);
}

TEST(AnalysisSession, DeratingMatchesDerateComposedFromPristine) {
  const Fixture f(circuits::gaas_datapath());
  AnalysisSession session(f.circuit, f.schedule, f.options);
  session.analyze();
  // Corners compose from the pristine reference, not cumulatively: applying
  // slow then fast must equal derate(original, fast).
  session.apply_derating(1.1, 1.1);
  session.analyze();
  session.apply_derating(0.9, 0.9);
  const Corner fast{"fast", 0.9, 0.9};
  expect_reports_identical(session.analyze(), f.fresh(derate(f.circuit, fast), f.schedule));
}

TEST(AnalysisSession, StructuralEditRebuildsAndBitMatches) {
  const Fixture f(circuits::gaas_datapath());
  AnalysisSession session(f.circuit, f.schedule, f.options);
  session.analyze();
  session.remove_path(0);
  expect_reports_identical(session.analyze(), f.fresh(session.circuit(), f.schedule));
  EXPECT_EQ(session.counters().cold_fallbacks, 1);

  session.remove_element(0);
  expect_reports_identical(session.analyze(), f.fresh(session.circuit(), f.schedule));
  EXPECT_EQ(session.counters().cold_fallbacks, 2);
}

TEST(AnalysisSession, UndoRoundTripRestoresEverythingBitwise) {
  const Fixture f(circuits::gaas_datapath());
  AnalysisSession session(f.circuit, f.schedule, f.options);
  const TimingReport original = session.analyze();  // copy

  const size_t mark = session.mark();
  session.set_path_delay(1, f.circuit.path(1).delay + 0.7);
  session.set_element_dq(0, f.circuit.element(0).dq + 0.3);
  session.set_schedule(f.schedule.scaled(1.3));
  session.remove_path(0);
  session.remove_element(0);
  session.analyze();
  session.undo_to(mark);

  EXPECT_EQ(session.circuit().num_paths(), f.circuit.num_paths());
  EXPECT_EQ(session.circuit().num_elements(), f.circuit.num_elements());
  for (int p = 0; p < f.circuit.num_paths(); ++p) {
    EXPECT_EQ(session.circuit().path(p).delay, f.circuit.path(p).delay) << "path " << p;
    EXPECT_EQ(session.circuit().path(p).from, f.circuit.path(p).from) << "path " << p;
    EXPECT_EQ(session.circuit().path(p).to, f.circuit.path(p).to) << "path " << p;
  }
  expect_reports_identical(session.analyze(), original);
}

TEST(AnalysisSession, HoldVectorReusedAcrossMaxSideEdits) {
  const Fixture f(circuits::gaas_datapath());
  AnalysisSession session(f.circuit, f.schedule, f.options);
  session.analyze();
  // A max-delay-only edit leaves the hold-side min-fixpoint untouched.
  session.set_path_delay(0, f.circuit.path(0).delay * 1.02);
  session.analyze();
  EXPECT_GE(session.counters().hold_reuses, 1);

  // A min-delay edit invalidates it.
  const long reuses = session.counters().hold_reuses;
  session.set_path_min_delay(0, f.circuit.path(0).min_delay * 0.5);
  Circuit mutated = f.circuit;
  mutated.set_path_delay(0, f.circuit.path(0).delay * 1.02);
  mutated.set_path_min_delay(0, f.circuit.path(0).min_delay * 0.5);
  expect_reports_identical(session.analyze(), f.fresh(mutated, f.schedule));
  EXPECT_EQ(session.counters().hold_reuses, reuses);
}

TEST(AnalysisSession, SetterNoOpsDoNotInvalidate) {
  const Fixture f(circuits::example1(80.0));
  AnalysisSession session(f.circuit, f.schedule, f.options);
  session.analyze();
  session.set_path_delay(0, f.circuit.path(0).delay);  // unchanged value
  session.set_schedule(f.schedule);                    // identical schedule
  session.analyze();
  EXPECT_EQ(session.counters().invalidations, 0);
  EXPECT_EQ(session.counters().warm_hits, 1);  // pure cache hit
}

// -- Content fingerprint ------------------------------------------------------

// Three elements (two latches and a flip-flop) in a loop, built from plain
// element/path lists so a test can tweak any field before construction.
Circuit fingerprint_circuit(const std::function<void(std::vector<Element>&,
                                                     std::vector<CombPath>&)>& tweak = {}) {
  std::vector<Element> elements(3);
  elements[0].name = "A";
  elements[0].phase = 1;
  elements[0].setup = 1.0;
  elements[0].dq = 2.0;
  elements[1].name = "B";
  elements[1].phase = 2;
  elements[1].setup = 1.0;
  elements[1].dq = 2.5;
  elements[1].hold = 0.5;
  elements[2].name = "C";
  elements[2].kind = ElementKind::kFlipFlop;
  elements[2].phase = 1;
  elements[2].setup = 0.5;
  elements[2].dq = 1.5;
  std::vector<CombPath> paths = {
      {0, 1, 10.0, 2.0, "f"}, {1, 2, 20.0, 4.0, "g"}, {2, 0, 10.0, 1.0, "h"}};
  if (tweak) tweak(elements, paths);
  Circuit c("fp", 2);
  for (const Element& e : elements) c.add_element(e);
  for (const CombPath& p : paths) c.add_path(p.from, p.to, p.delay, p.min_delay, p.label);
  return c;
}

std::uint64_t fingerprint_of(const Circuit& c, const ClockSchedule& s) {
  return AnalysisSession(c, s).content_fingerprint();
}

TEST(AnalysisSessionFingerprint, IndependentOfEditHistory) {
  const Fixture f(circuits::gaas_datapath());
  AnalysisSession a(f.circuit, f.schedule, f.options);
  AnalysisSession b(f.circuit, f.schedule, f.options);
  const std::uint64_t start = a.content_fingerprint();
  EXPECT_EQ(b.content_fingerprint(), start);

  // The same edits in two orders.
  const double d1 = f.circuit.path(1).delay + 0.5;
  const double dq0 = f.circuit.element(0).dq + 0.25;
  a.set_path_delay(1, d1);
  a.set_element_dq(0, dq0);
  a.set_path_label(2, "renamed");
  b.set_path_label(2, "renamed");
  b.set_element_dq(0, dq0);
  b.set_path_delay(1, d1);
  EXPECT_NE(a.content_fingerprint(), start);
  EXPECT_EQ(a.content_fingerprint(), b.content_fingerprint());

  // Edit then undo.
  a.undo_to(0);
  EXPECT_EQ(a.content_fingerprint(), start);

  // Structural edits and their undos.
  a.remove_path(2);
  EXPECT_NE(a.content_fingerprint(), start);
  a.undo();
  EXPECT_EQ(a.content_fingerprint(), start);
  a.remove_element(0);
  EXPECT_NE(a.content_fingerprint(), start);
  a.undo_to(0);
  EXPECT_EQ(a.content_fingerprint(), start);

  // An edited session — with scalar edits both before and after a pending
  // structural recompute — equals a fresh session on copies of its content.
  a.set_element_skew(1, 0.125);
  a.set_schedule(f.schedule.scaled(1.1));
  a.remove_path(0);
  a.set_path_min_delay(0, 0.0);
  a.set_element_hold(2, 0.75);
  (void)a.content_fingerprint();
  a.set_path_delay(1, a.circuit().path(1).delay + 1.0);
  a.set_element_setup(0, 0.0);
  a.set_element_dq_min(1, 0.5);
  const AnalysisSession fresh(Circuit(a.circuit()), ClockSchedule(a.schedule()), f.options);
  EXPECT_EQ(a.content_fingerprint(), fresh.content_fingerprint());
}

TEST(AnalysisSessionFingerprint, SeesEveryField) {
  const Circuit base = fingerprint_circuit();
  const ClockSchedule schedule(40.0, {0.0, 20.0}, {15.0, 15.0});
  const std::uint64_t want = fingerprint_of(base, schedule);
  EXPECT_EQ(fingerprint_of(fingerprint_circuit(), schedule), want);

  using Tweak = std::function<void(std::vector<Element>&, std::vector<CombPath>&)>;
  const std::vector<std::pair<const char*, Tweak>> tweaks = {
      {"element name", [](auto& e, auto&) { e[1].name = "B2"; }},
      {"element kind", [](auto& e, auto&) { e[1].kind = ElementKind::kFlipFlop; }},
      {"element phase", [](auto& e, auto&) { e[1].phase = 1; }},
      {"element setup", [](auto& e, auto&) { e[1].setup = 1.25; }},
      {"element dq", [](auto& e, auto&) { e[1].dq = 3.0; }},
      {"element hold", [](auto& e, auto&) { e[1].hold = 0.25; }},
      {"element dq_min", [](auto& e, auto&) { e[1].dq_min = 1.0; }},
      {"element skew", [](auto& e, auto&) { e[1].skew = 0.1; }},
      {"path from", [](auto&, auto& p) { p[1].from = 0; }},
      {"path to", [](auto&, auto& p) { p[1].to = 0; }},
      {"path delay", [](auto&, auto& p) { p[1].delay = 21.0; }},
      {"path min delay", [](auto&, auto& p) { p[1].min_delay = 3.0; }},
      {"path label", [](auto&, auto& p) { p[1].label = "g2"; }},
      {"swapped path delays", [](auto&, auto& p) { std::swap(p[0].delay, p[1].delay); }},
  };
  for (const auto& [what, tweak] : tweaks) {
    EXPECT_NE(fingerprint_of(fingerprint_circuit(tweak), schedule), want) << what;
  }
  EXPECT_NE(fingerprint_of(base, ClockSchedule(41.0, {0.0, 20.0}, {15.0, 15.0})), want)
      << "schedule cycle";
  EXPECT_NE(fingerprint_of(base, ClockSchedule(40.0, {0.0, 21.0}, {15.0, 15.0})), want)
      << "schedule start";
  EXPECT_NE(fingerprint_of(base, ClockSchedule(40.0, {0.0, 20.0}, {15.0, 14.0})), want)
      << "schedule width";
  EXPECT_NE(AnalysisSession(base).content_fingerprint(), want) << "no schedule";
  EXPECT_NE(fingerprint_of(Circuit("other", 2), schedule),
            fingerprint_of(Circuit("fp", 2), schedule))
      << "circuit name";

  // Every setter's O(1) delta lands where a fresh computation does.
  AnalysisSession s(base, schedule);
  (void)s.content_fingerprint();  // start from a maintained (not stale) sum
  const auto expect_fresh = [&](const char* what) {
    EXPECT_EQ(s.content_fingerprint(), fingerprint_of(s.circuit(), s.schedule())) << what;
  };
  s.set_element_setup(1, 1.25);
  expect_fresh("set_element_setup");
  s.set_element_dq(1, 3.0);
  expect_fresh("set_element_dq");
  s.set_element_hold(1, 0.25);
  expect_fresh("set_element_hold");
  s.set_element_dq_min(1, 1.0);
  expect_fresh("set_element_dq_min");
  s.set_element_skew(1, 0.1);
  expect_fresh("set_element_skew");
  s.set_path_delay(1, 21.0);
  expect_fresh("set_path_delay");
  s.set_path_min_delay(1, 3.0);
  expect_fresh("set_path_min_delay");
  s.set_path_label(1, "g2");
  expect_fresh("set_path_label");
  s.set_schedule(ClockSchedule(41.0, {0.0, 20.0}, {15.0, 15.0}));
  expect_fresh("set_schedule");
  s.undo_to(0);
  EXPECT_EQ(s.content_fingerprint(), want) << "undo_to(0)";
}

}  // namespace
}  // namespace mintc::sta
