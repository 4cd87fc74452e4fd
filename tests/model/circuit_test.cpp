#include "model/circuit.h"

#include <gtest/gtest.h>

#include <limits>

namespace mintc {
namespace {

Circuit two_phase_loop() {
  Circuit c("loop", 2);
  c.add_latch("A", 1, 1.0, 2.0);
  c.add_latch("B", 2, 1.0, 2.0);
  c.add_path("A", "B", 10.0, 2.0, "f");
  c.add_path("B", "A", 20.0, 4.0, "g");
  return c;
}

TEST(Circuit, BasicConstruction) {
  const Circuit c = two_phase_loop();
  EXPECT_EQ(c.name(), "loop");
  EXPECT_EQ(c.num_phases(), 2);
  EXPECT_EQ(c.num_elements(), 2);
  EXPECT_EQ(c.num_paths(), 2);
  EXPECT_EQ(c.element(0).name, "A");
  EXPECT_EQ(c.path(0).delay, 10.0);
  EXPECT_EQ(c.path(1).label, "g");
}

TEST(Circuit, FindElement) {
  const Circuit c = two_phase_loop();
  EXPECT_EQ(c.find_element("A"), std::optional<int>(0));
  EXPECT_EQ(c.find_element("B"), std::optional<int>(1));
  EXPECT_FALSE(c.find_element("nope").has_value());
}

TEST(Circuit, FaninFanout) {
  Circuit c("f", 2);
  c.add_latch("A", 1, 1.0, 2.0);
  c.add_latch("B", 2, 1.0, 2.0);
  c.add_latch("C", 2, 1.0, 2.0);
  c.add_path("A", "C", 1.0);
  c.add_path("B", "C", 1.0);
  EXPECT_EQ(c.fanin(2).size(), 2u);
  EXPECT_EQ(c.fanout(0).size(), 1u);
  EXPECT_TRUE(c.fanin(0).empty());
  EXPECT_EQ(c.max_fanin(), 2);
}

TEST(Circuit, SetPathDelay) {
  Circuit c = two_phase_loop();
  c.set_path_delay(1, 99.0);
  EXPECT_EQ(c.path(1).delay, 99.0);
}

TEST(Circuit, SetPathMinDelay) {
  Circuit c = two_phase_loop();
  c.set_path_min_delay(0, 7.5);
  EXPECT_EQ(c.path(0).min_delay, 7.5);
  EXPECT_EQ(c.path(0).delay, 10.0);  // max delay untouched
}

TEST(Circuit, KMatrixFromLatchPaths) {
  const Circuit c = two_phase_loop();
  const KMatrix k = c.k_matrix();
  EXPECT_TRUE(k.at(1, 2));
  EXPECT_TRUE(k.at(2, 1));
  EXPECT_FALSE(k.at(1, 1));
  EXPECT_FALSE(k.at(2, 2));
}

TEST(Circuit, FlipFlopPathsExemptFromK) {
  Circuit c("ff", 2);
  c.add_latch("L", 1, 1.0, 2.0);
  c.add_flipflop("F", 2, 1.0, 2.0);
  c.add_path("L", "F", 5.0);
  c.add_path("F", "L", 5.0);
  const KMatrix k = c.k_matrix();
  EXPECT_EQ(k.num_pairs(), 0);
}

TEST(Circuit, LatchGraphWeightsAndTransit) {
  const Circuit c = two_phase_loop();
  const graph::Digraph g = c.latch_graph();
  ASSERT_EQ(g.num_edges(), 2);
  // A(phi1) -> B(phi2): weight dq_A + delay = 2 + 10, transit C_12 = 0.
  EXPECT_DOUBLE_EQ(g.edge(0).weight, 12.0);
  EXPECT_DOUBLE_EQ(g.edge(0).transit, 0.0);
  // B(phi2) -> A(phi1): 2 + 20, transit C_21 = 1.
  EXPECT_DOUBLE_EQ(g.edge(1).weight, 22.0);
  EXPECT_DOUBLE_EQ(g.edge(1).transit, 1.0);
}

TEST(CircuitValidate, CleanCircuitPasses) {
  EXPECT_TRUE(two_phase_loop().validate().empty());
}

TEST(CircuitValidate, PhaseOutOfRange) {
  Circuit c("bad", 2);
  Element e;
  e.name = "X";
  e.phase = 3;
  e.setup = 1.0;
  e.dq = 2.0;
  c.add_element(e);
  const auto p = c.validate();
  ASSERT_FALSE(p.empty());
  EXPECT_NE(p[0].find("phase 3"), std::string::npos);
}

TEST(CircuitValidate, NegativeParameters) {
  Circuit c("bad", 1);
  c.add_latch("X", 1, -1.0, 2.0);
  EXPECT_FALSE(c.validate().empty());
}

TEST(CircuitValidate, DqLessThanSetupFlagged) {
  // The paper assumes Δ_DQ >= Δ_DC.
  Circuit c("bad", 1);
  c.add_latch("X", 1, 5.0, 2.0);
  const auto p = c.validate();
  ASSERT_FALSE(p.empty());
  EXPECT_NE(p[0].find("Δ_DQ >= Δ_DC"), std::string::npos);
}

TEST(CircuitValidate, MinDelayGreaterThanMax) {
  Circuit c("bad", 1);
  c.add_latch("X", 1, 1.0, 2.0);
  c.add_latch("Y", 1, 1.0, 2.0);
  c.add_path("X", "Y", 5.0, 9.0);
  EXPECT_FALSE(c.validate().empty());
}

TEST(CircuitValidate, ParallelPathsFlagged) {
  Circuit c("bad", 2);
  c.add_latch("X", 1, 1.0, 2.0);
  c.add_latch("Y", 2, 1.0, 2.0);
  c.add_path("X", "Y", 5.0);
  c.add_path("X", "Y", 7.0);
  const auto p = c.validate();
  ASSERT_FALSE(p.empty());
  EXPECT_NE(p[0].find("parallel"), std::string::npos);
}

TEST(CircuitValidate, DuplicatePairsReportedInPathOrderAroundNonFinitePaths) {
  // Pins validate()'s exact text and order: element problems first, then one
  // pass over the paths in index order. A non-finite path is reported as such
  // and never takes part in the parallel-path pairing, so the finite path
  // after it on the same element pair is not a duplicate.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Circuit c("dups", 2);
  c.add_latch("X", 1, 3.0, 2.0);
  c.add_latch("Y", 2, 1.0, 2.0);
  c.add_latch("Z", 1, 1.0, 2.0);
  c.add_path("X", "Y", 5.0, 1.0, "a");
  c.add_path("Y", "Z", 5.0, 1.0, "b");
  c.add_path("X", "Y", kInf, 1.0, "nf");
  c.add_path("Y", "Z", 4.0, 6.0, "b2");
  c.add_path("X", "Y", 7.0, 1.0, "a2");
  c.add_path("Z", "Y", kInf, 0.0, "zy_nf");
  c.add_path("Z", "Y", 3.0, 0.0, "zy");
  const std::vector<std::string> want = {
      "element 'X' violates the paper's assumption \u0394_DQ >= \u0394_DC (\u0394_DQ=2, \u0394_DC=3)",
      "path 'nf' has a non-finite delay",
      "path 'b2' has min delay greater than max delay",
      "parallel combinational paths between 'Y' and 'Z' (merge them by taking max/min delays)",
      "parallel combinational paths between 'X' and 'Y' (merge them by taking max/min delays)",
      "path 'zy_nf' has a non-finite delay",
  };
  EXPECT_EQ(c.validate(), want);
}

TEST(CircuitValidate, NonFiniteElementParameterFlagged) {
  const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()};
  for (const double v : bad) {
    Circuit c("bad", 1);
    c.add_latch("X", 1, v, 2.0);
    const auto p = c.validate();
    ASSERT_FALSE(p.empty());
    EXPECT_NE(p[0].find("non-finite"), std::string::npos);
  }
}

TEST(CircuitValidate, NonFinitePathDelayFlagged) {
  const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity()};
  for (const double v : bad) {
    Circuit c("bad", 1);
    c.add_latch("X", 1, 1.0, 2.0);
    c.add_latch("Y", 1, 1.0, 2.0);
    c.add_path("X", "Y", v);
    const auto p = c.validate();
    ASSERT_FALSE(p.empty());
    EXPECT_NE(p[0].find("non-finite"), std::string::npos);
  }
}

TEST(CircuitValidate, NanDoesNotSlipPastOrderingChecks) {
  // NaN compares false against everything, so the sign/ordering checks alone
  // would silently accept it; the finiteness check must fire instead.
  Circuit c("bad", 1);
  c.add_latch("X", 1, 1.0, std::numeric_limits<double>::quiet_NaN());
  EXPECT_FALSE(c.validate().empty());
}

TEST(CircuitValidate, ElementDqMinAboveDq) {
  Circuit c("bad", 1);
  Element e;
  e.name = "X";
  e.phase = 1;
  e.setup = 1.0;
  e.dq = 2.0;
  e.dq_min = 3.0;
  c.add_element(e);
  EXPECT_FALSE(c.validate().empty());
}

TEST(Element, MinDqDefaultsToDq) {
  Element e;
  e.dq = 4.0;
  EXPECT_DOUBLE_EQ(e.min_dq(), 4.0);
  e.dq_min = 1.5;
  EXPECT_DOUBLE_EQ(e.min_dq(), 1.5);
}

TEST(Element, KindNames) {
  EXPECT_STREQ(to_string(ElementKind::kLatch), "latch");
  EXPECT_STREQ(to_string(ElementKind::kFlipFlop), "flipflop");
}

}  // namespace
}  // namespace mintc
