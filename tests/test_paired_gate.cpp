#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/paired_gate.hpp"

namespace obliv::bench {
namespace {

/// A fake timed run: returns the next scripted ns and logs its tag.
struct ScriptedRun {
  std::vector<double> ns;
  char tag;
  std::string* log;
  std::size_t next = 0;

  double operator()() {
    *log += tag;
    return ns.at(next++);
  }
};

PairedMeasurement with(double over_pct, double noise_pct) {
  PairedMeasurement m;
  m.over_pct = over_pct;
  m.noise_pct = noise_pct;
  return m;
}

TEST(PairedGate, ScriptedRunsDriveMeasureAndGate) {
  {
    SCOPED_TRACE("alternating order and exact medians");
    std::string log;
    // rep 0 (a, a2, b): a=100 a2=100 b=110 -> over 1.10, A/A 1.00
    // rep 1 (b, a2, a): b=240 a2=200 a=250 -> over 1.20, A/A 1.25
    // rep 2 (a, a2, b): a=100 a2=80  b=100 -> over 1.25, A/A 1.25
    ScriptedRun base{{100, 100, 200, 250, 100, 80}, 'a', &log};
    ScriptedRun cand{{110, 240, 100}, 'b', &log};
    const PairedMeasurement m = paired_measure(3, base, cand);
    EXPECT_EQ(log, "aabbaaaab");
    EXPECT_DOUBLE_EQ(m.over_pct, 100.0 * (240.0 / 200.0 - 1.0));
    EXPECT_DOUBLE_EQ(m.noise_pct, 100.0 * (250.0 / 200.0 - 1.0));
    EXPECT_DOUBLE_EQ(m.base_ns, 80.0);
    EXPECT_DOUBLE_EQ(m.cand_ns, 100.0);
  }
  {
    SCOPED_TRACE("budget is max(floor, A/A noise + 1%)");
    // Quiet data: the floor sets the budget.
    EXPECT_TRUE(with(4.9, 0.5).within(5.0));
    EXPECT_FALSE(with(5.1, 0.5).within(5.0));
    EXPECT_FALSE(with(1.1, 0.0).within(1.0));
    // Noisy data: noise + 1% sets the budget.
    EXPECT_TRUE(with(6.9, 6.0).within(5.0));
    EXPECT_FALSE(with(7.1, 6.0).within(5.0));
    EXPECT_TRUE(with(2.4, 1.5).within(1.0));
  }
  {
    SCOPED_TRACE("confirm-once re-measure");
    auto gate = [](bool smoke, std::vector<PairedMeasurement> script,
                   int& calls) {
      calls = 0;
      return paired_gate(smoke, 1.0, [&] { return script.at(calls++); });
    };
    int calls = 0;
    GateResult g = gate(false, {with(0.5, 0.0)}, calls);
    EXPECT_TRUE(g.ok);
    EXPECT_EQ(calls, 1);  // a pass is never re-measured

    g = gate(false, {with(3.0, 0.0), with(0.2, 0.0)}, calls);
    EXPECT_TRUE(g.ok);
    EXPECT_EQ(calls, 2);
    EXPECT_DOUBLE_EQ(g.m.over_pct, 0.2);  // judged on the re-measure

    g = gate(false, {with(3.0, 0.0), with(2.5, 0.0)}, calls);
    EXPECT_FALSE(g.ok);
    EXPECT_EQ(calls, 2);  // one re-measure only
    EXPECT_DOUBLE_EQ(g.m.over_pct, 2.5);

    SCOPED_TRACE("smoke never fails");
    g = gate(true, {with(50.0, 0.0)}, calls);
    EXPECT_TRUE(g.ok);
    EXPECT_EQ(calls, 1);
  }
  EXPECT_EQ(gate_label(false, 1.0), "on (<= max(1%, A/A noise + 1%))");
  EXPECT_EQ(gate_label(false, 5.0), "on (<= max(5%, A/A noise + 1%))");
  EXPECT_EQ(gate_label(true, 5.0), "off (smoke)");
}

}  // namespace
}  // namespace obliv::bench
