// Equivalence suite for the incremental AnalysisSession: over 200 seeded
// fuzzer circuits, drive one session through the four edit families the
// ISSUE contract names — single-delay edit, schedule slide, corner swap,
// structural edit forcing a cold fallback — and assert after every step
// that analyze() reproduces a fresh sta::check_schedule of the session's
// current circuit/schedule BIT-identically (departures, slacks, worst-case
// records), then rewind the whole edit history via undo_to(0) and require
// the original report again. After every step the session's maintained
// content fingerprint must also equal a fresh session's on the same content.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "check/fuzzer.h"
#include "opt/mlp.h"
#include "sta/analysis.h"
#include "sta/corners.h"
#include "sta/session.h"

namespace mintc::check {
namespace {

void expect_reports_identical(const sta::TimingReport& got, const sta::TimingReport& want,
                              uint64_t seed, const char* leg) {
  ASSERT_EQ(got.feasible, want.feasible) << "seed " << seed << " " << leg;
  ASSERT_EQ(got.schedule_ok, want.schedule_ok) << "seed " << seed << " " << leg;
  ASSERT_EQ(got.converged, want.converged) << "seed " << seed << " " << leg;
  ASSERT_EQ(got.setup_ok, want.setup_ok) << "seed " << seed << " " << leg;
  ASSERT_EQ(got.hold_ok, want.hold_ok) << "seed " << seed << " " << leg;
  ASSERT_EQ(got.elements.size(), want.elements.size()) << "seed " << seed << " " << leg;
  for (size_t i = 0; i < want.elements.size(); ++i) {
    // Exact ==: the session's warm path must land on the same least
    // fixpoint to the last bit, not merely within a tolerance.
    ASSERT_EQ(got.elements[i].departure, want.elements[i].departure)
        << "seed " << seed << " " << leg << " element " << i;
    ASSERT_EQ(got.elements[i].arrival, want.elements[i].arrival)
        << "seed " << seed << " " << leg << " element " << i;
    ASSERT_EQ(got.elements[i].setup_slack, want.elements[i].setup_slack)
        << "seed " << seed << " " << leg << " element " << i;
    ASSERT_EQ(got.elements[i].hold_slack, want.elements[i].hold_slack)
        << "seed " << seed << " " << leg << " element " << i;
  }
  ASSERT_EQ(got.worst_setup_slack, want.worst_setup_slack) << "seed " << seed << " " << leg;
  ASSERT_EQ(got.worst_setup_element, want.worst_setup_element) << "seed " << seed << " " << leg;
  ASSERT_EQ(got.worst_hold_slack, want.worst_hold_slack) << "seed " << seed << " " << leg;
  ASSERT_EQ(got.worst_hold_element, want.worst_hold_element) << "seed " << seed << " " << leg;
}

// The delta-maintained fingerprint must be a pure function of content: a
// fresh session built from copies of the current circuit and schedule
// computes it from scratch.
void expect_fingerprint_fresh(const sta::AnalysisSession& session, uint64_t seed,
                              const char* leg) {
  const sta::AnalysisSession fresh(session.circuit(), session.schedule(), session.options());
  ASSERT_EQ(session.content_fingerprint(), fresh.content_fingerprint())
      << "seed " << seed << " " << leg;
}

TEST(SessionEquivalence, FuzzCircuitsBitMatchFreshAnalysisAcrossEditFamilies) {
  int compared = 0;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    const Circuit circuit = fuzz_circuit(seed);
    const auto mlp = opt::minimize_cycle_time(circuit);
    if (!mlp) continue;  // infeasible draws carry no schedule to analyze
    if (circuit.num_paths() == 0) continue;
    sta::AnalysisOptions options;
    options.check_hold = true;
    const ClockSchedule relaxed = mlp->schedule.scaled(1.25);

    sta::AnalysisSession session(circuit, relaxed, options);
    const sta::TimingReport original = session.analyze();  // copy for the undo leg
    expect_reports_identical(original, sta::check_schedule(circuit, relaxed, options), seed,
                             "cold");
    const std::uint64_t original_fingerprint = session.content_fingerprint();

    // 1. Single-delay edit (increase: warm-start eligible).
    const int p = static_cast<int>(seed % static_cast<uint64_t>(circuit.num_paths()));
    session.set_path_delay(p, session.circuit().path(p).delay * 1.05 + 0.01);
    expect_reports_identical(
        session.analyze(),
        sta::check_schedule(session.circuit(), session.schedule(), options), seed,
        "delay-edit");
    expect_fingerprint_fresh(session, seed, "delay-edit");

    // 2. Schedule slide (shrinking the schedule scales every shift up:
    //    warm; the result must still match a fresh solve exactly).
    session.set_schedule(relaxed.scaled(0.98));
    expect_reports_identical(
        session.analyze(),
        sta::check_schedule(session.circuit(), session.schedule(), options), seed,
        "schedule-slide");
    expect_fingerprint_fresh(session, seed, "schedule-slide");

    // 3. Corner swap: derating composes from the pristine circuit, so the
    //    reference is derate(original) under the slid schedule.
    session.apply_derating(1.05, 0.95);
    expect_reports_identical(
        session.analyze(),
        sta::check_schedule(sta::derate(circuit, {"slow", 1.05, 0.95}), session.schedule(),
                            options),
        seed, "corner-swap");
    expect_fingerprint_fresh(session, seed, "corner-swap");

    // 4. Structural edit: forces a view rebuild + cold solve.
    const long cold_before = session.counters().cold_fallbacks;
    session.remove_path(session.circuit().num_paths() - 1);
    expect_reports_identical(
        session.analyze(),
        sta::check_schedule(session.circuit(), session.schedule(), options), seed,
        "structural");
    expect_fingerprint_fresh(session, seed, "structural");
    EXPECT_GT(session.counters().cold_fallbacks, cold_before)
        << "seed " << seed << ": structural edit must cold-start";

    // 5. Full rewind: the undo log must restore the original circuit AND
    //    schedule, and re-analysis must reproduce the first report.
    session.undo_to(0);
    expect_reports_identical(session.analyze(), original, seed, "undo-rewind");
    expect_fingerprint_fresh(session, seed, "undo-rewind");
    ASSERT_EQ(session.content_fingerprint(), original_fingerprint) << "seed " << seed;
    ++compared;
  }
  // Most fuzzer draws are feasible; guard against this suite silently
  // comparing nothing.
  EXPECT_GE(compared, 100) << "fuzzer feasibility collapsed; suite lost its teeth";
}

}  // namespace
}  // namespace mintc::check
