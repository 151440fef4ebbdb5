// Tests for the fault-injection layer: deterministic replay, outage
// window semantics, MNAR coupling, and record-level fault application.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "measure/faults.h"

namespace sisyphus::measure {
namespace {

using core::SimTime;

/// A record probed over a path whose traceroute shows IXP 0 at hop 2.
SpeedTestRecord MakeRecord() {
  SpeedTestRecord record;
  record.time = SimTime::FromHours(12);
  record.rtt_ms = 25.0;
  record.loss_rate = 0.01;
  record.throughput_mbps = 40.0;
  record.ixp_crossing = 0;
  return record;
}

/// Applies the record faults of a probe over a 5-hop path whose IXP hop is
/// hop 2, as MakeRecord's.
bool Apply(FaultInjector& injector, SpeedTestRecord& record,
           core::Rng& rng) {
  return injector.ApplyRecordFaults(record, /*path_hops=*/5, /*ixp_hop=*/2,
                                    rng);
}

TEST(OutageWindowTest, HalfOpenContainment) {
  const OutageWindow window{SimTime(10), SimTime(20)};
  EXPECT_FALSE(window.Contains(SimTime(9)));
  EXPECT_TRUE(window.Contains(SimTime(10)));
  EXPECT_TRUE(window.Contains(SimTime(19)));
  EXPECT_FALSE(window.Contains(SimTime(20)));
}

TEST(GenerateOutageWindowsTest, DeterministicSortedAndBounded) {
  const auto a = GenerateOutageWindows(7, SimTime::FromDays(10), 5,
                                       SimTime::FromHours(6));
  const auto b = GenerateOutageWindows(7, SimTime::FromDays(10), 5,
                                       SimTime::FromHours(6));
  ASSERT_EQ(a.size(), 5u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].start, b[i].start);
    EXPECT_EQ(a[i].end, b[i].end);
    EXPECT_EQ(a[i].end - a[i].start, SimTime::FromHours(6));
    EXPECT_GE(a[i].start, SimTime(0));
    EXPECT_LE(a[i].end, SimTime::FromDays(10));
    if (i > 0) {
      EXPECT_GE(a[i].start, a[i - 1].start);
    }
  }
  // A different seed moves the windows.
  const auto c = GenerateOutageWindows(8, SimTime::FromDays(10), 5,
                                       SimTime::FromHours(6));
  bool any_differ = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].start != c[i].start) any_differ = true;
  }
  EXPECT_TRUE(any_differ);
}

TEST(FaultInjectorTest, DarkWindowQueriesAreConstAndExact) {
  FaultPlan plan;
  plan.vantage_outages.push_back(
      {3, {{SimTime::FromHours(2), SimTime::FromHours(4)}}});
  plan.collector_outages.push_back(
      {SimTime::FromHours(10), SimTime::FromHours(11)});
  const FaultInjector injector(plan);
  EXPECT_TRUE(injector.VantageDark(3, SimTime::FromHours(3)));
  EXPECT_FALSE(injector.VantageDark(3, SimTime::FromHours(4)));
  EXPECT_FALSE(injector.VantageDark(4, SimTime::FromHours(3)));
  EXPECT_TRUE(injector.CollectorDark(SimTime::FromHours(10)));
  EXPECT_FALSE(injector.CollectorDark(SimTime::FromHours(12)));
  // Pure queries leave the stats untouched.
  EXPECT_EQ(injector.stats().vantage_outage_hits, 0u);
}

TEST(FaultInjectorTest, ProbeFaultStreamIsSeedDeterministic) {
  FaultPlan plan;
  plan.seed = 99;
  plan.probe_loss_probability = 0.3;
  FaultInjector a(plan), b(plan);
  core::Rng rng_a(4242), rng_b(4242);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.SampleProbeFault(0.0, rng_a), b.SampleProbeFault(0.0, rng_b));
  }
  EXPECT_EQ(a.stats().probes_lost, b.stats().probes_lost);
  EXPECT_GT(a.stats().probes_lost, 20u);  // ~60 expected
  EXPECT_LT(a.stats().probes_lost, 120u);
}

TEST(FaultInjectorTest, PlanSeedChangesDecisionsOnTheSameStream) {
  // The plan seed is mixed into every decision, so two plans differing
  // only in seed realize different faults from identical caller streams.
  FaultPlan plan_a, plan_b;
  plan_a.seed = 1;
  plan_b.seed = 2;
  plan_a.probe_loss_probability = plan_b.probe_loss_probability = 0.5;
  FaultInjector a(plan_a), b(plan_b);
  core::Rng rng_a(7), rng_b(7);
  bool any_differ = false;
  for (int i = 0; i < 200; ++i) {
    if (a.SampleProbeFault(0.0, rng_a) != b.SampleProbeFault(0.0, rng_b)) {
      any_differ = true;
    }
  }
  EXPECT_TRUE(any_differ);
}

TEST(FaultInjectorTest, DecisionsConsumeAFixedNumberOfDraws) {
  // Stream alignment: every injector call costs the same number of caller
  // draws no matter what the plan's probabilities are or which faults
  // fire, so runs under different plans stay draw-for-draw comparable.
  FaultPlan heavy;
  heavy.seed = 23;
  heavy.probe_loss_probability = 1.0;
  heavy.traceroute_truncation_probability = 1.0;
  heavy.corruption_probability = 1.0;
  heavy.duplicate_probability = 1.0;
  heavy.max_clock_skew = SimTime(3);
  FaultInjector none(FaultPlan{}), all(heavy);
  core::Rng rng_none(31), rng_all(31);
  auto record_none = MakeRecord();
  auto record_all = MakeRecord();
  none.SampleProbeFault(0.0, rng_none);
  all.SampleProbeFault(0.0, rng_all);
  Apply(none, record_none, rng_none);
  Apply(all, record_all, rng_all);
  // Equal consumption leaves the two streams at the same position.
  EXPECT_EQ(rng_none.Next(), rng_all.Next());
}

TEST(FaultInjectorTest, MnarGainCouplesLossToCongestion) {
  FaultPlan plan;
  plan.seed = 5;
  plan.probe_loss_probability = 0.05;
  plan.mnar_loss_gain = 20.0;  // 2% path loss -> +40 pp probe loss
  FaultInjector calm(plan), congested(plan);
  core::Rng calm_rng(1), congested_rng(1);
  int calm_lost = 0, congested_lost = 0;
  for (int i = 0; i < 500; ++i) {
    if (calm.SampleProbeFault(0.0, calm_rng) == ProbeFault::kProbeLoss) {
      ++calm_lost;
    }
    if (congested.SampleProbeFault(0.02, congested_rng) ==
        ProbeFault::kProbeLoss) {
      ++congested_lost;
    }
  }
  EXPECT_GT(congested_lost, calm_lost + 50);
  // Gain saturates at certainty: loss probability clamps to 1.
  FaultInjector saturated(plan);
  core::Rng saturated_rng(2);
  EXPECT_EQ(saturated.SampleProbeFault(1.0, saturated_rng),
            ProbeFault::kProbeLoss);
}

TEST(FaultInjectorTest, ZeroProbabilityPlanIsTransparent) {
  FaultInjector injector(FaultPlan{});
  core::Rng rng(3);
  auto record = MakeRecord();
  const auto before = record;
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(injector.SampleProbeFault(0.0, rng), ProbeFault::kNone);
    EXPECT_FALSE(Apply(injector, record, rng));
  }
  EXPECT_EQ(record.time, before.time);
  EXPECT_EQ(record.rtt_ms, before.rtt_ms);
  EXPECT_EQ(record.ixp_crossing, before.ixp_crossing);
  EXPECT_EQ(injector.stats().records_corrupted, 0u);
  EXPECT_EQ(injector.stats().records_skewed, 0u);
}

TEST(FaultInjectorTest, TruncationClearsACrossingItCutsOff) {
  // Six PoPs in a line, a traceroute hop per PoP, and one IXP whose LAN
  // answers at whichever hop the sweep below puts it.
  constexpr std::size_t kHops = 6;
  netsim::Topology topology;
  const auto city = topology.cities().Add({"X", {0, 0}, 1.0});
  for (std::uint32_t i = 0; i < kHops; ++i) {
    ASSERT_TRUE(
        topology.AddPop(core::Asn{100 + i}, city, netsim::AsRole::kTransit)
            .ok());
  }
  const core::IxpId ixp = topology.AddIxp("IX", city).value();

  FaultPlan plan;
  plan.seed = 11;
  plan.traceroute_truncation_probability = 1.0;
  plan.truncation_min_hops = 2;
  FaultInjector injector(plan);
  core::Rng rng(4);
  for (int trial = 0; trial < 100; ++trial) {
    // One truncation decision, replayed with the IXP hop at every
    // position: the crossing survives at exactly the kept positions.
    const core::Rng decision = rng;
    std::vector<bool> survives(kHops);
    std::size_t kept = 0;
    for (std::size_t hop = 0; hop < kHops; ++hop) {
      core::Rng replay = decision;
      SpeedTestRecord record = MakeRecord();
      injector.ApplyRecordFaults(record, kHops, hop, replay);
      survives[hop] = record.ixp_crossing == ixp.value();
      if (survives[hop]) ++kept;
      rng = replay;
    }
    EXPECT_GE(kept, plan.truncation_min_hops);
    EXPECT_LE(kept, kHops - 1);
    for (std::size_t hop = 0; hop < kHops; ++hop) {
      Traceroute traceroute;
      for (std::uint32_t pop = 0; pop < kHops; ++pop) {
        traceroute.hops.push_back(
            {pop == hop ? topology.IxpLanAddress(ixp, pop)
                        : topology.RouterAddress(pop),
             core::Asn{100 + pop}, pop});
      }
      traceroute.hops.resize(kept);
      EXPECT_EQ(survives[hop], CrossesIxp(topology, traceroute, ixp))
          << "trial " << trial << ", IXP hop " << hop << ", kept " << kept;
    }
  }
  EXPECT_EQ(injector.stats().traceroutes_truncated, 100u * kHops);
}

TEST(FaultInjectorTest, CorruptionProducesInvalidRecords) {
  FaultPlan plan;
  plan.seed = 13;
  plan.corruption_probability = 1.0;
  FaultInjector injector(plan);
  core::Rng rng(5);
  std::size_t invalid = 0;
  for (int i = 0; i < 100; ++i) {
    auto record = MakeRecord();
    Apply(injector, record, rng);
    const bool bad_rtt = record.rtt_ms <= 0.0;
    const bool bad_time = record.time < SimTime(0);
    const bool bad_loss = record.loss_rate > 1.0;
    const bool bad_throughput = !std::isfinite(record.throughput_mbps);
    if (bad_rtt || bad_time || bad_loss || bad_throughput) ++invalid;
  }
  EXPECT_EQ(invalid, 100u);
  EXPECT_EQ(injector.stats().records_corrupted, 100u);
}

TEST(FaultInjectorTest, ClockSkewIsBounded) {
  FaultPlan plan;
  plan.seed = 17;
  plan.max_clock_skew = SimTime(5);
  FaultInjector injector(plan);
  core::Rng rng(6);
  for (int i = 0; i < 200; ++i) {
    auto record = MakeRecord();
    const SimTime original = record.time;
    Apply(injector, record, rng);
    EXPECT_GE(record.time, original - SimTime(5));
    EXPECT_LE(record.time, original + SimTime(5));
  }
  EXPECT_EQ(injector.stats().records_skewed, 200u);
}

TEST(FaultInjectorTest, DuplicationFlagRateMatchesPlan) {
  FaultPlan plan;
  plan.seed = 19;
  plan.duplicate_probability = 0.5;
  FaultInjector injector(plan);
  core::Rng rng(8);
  int duplicates = 0;
  for (int i = 0; i < 400; ++i) {
    auto record = MakeRecord();
    if (Apply(injector, record, rng)) {
      ++duplicates;
    }
  }
  EXPECT_NEAR(duplicates, 200, 60);
  EXPECT_EQ(injector.stats().records_duplicated,
            static_cast<std::size_t>(duplicates));
}

TEST(ProbeFaultTest, NamesStable) {
  EXPECT_STREQ(ToString(ProbeFault::kNone), "none");
  EXPECT_STREQ(ToString(ProbeFault::kProbeLoss), "probe_loss");
  EXPECT_STREQ(ToString(ProbeFault::kVantageOutage), "vantage_outage");
  EXPECT_STREQ(ToString(ProbeFault::kCollectorOutage), "collector_outage");
  EXPECT_STREQ(ToString(ProbeFault::kUnreachable), "unreachable");
}

}  // namespace
}  // namespace sisyphus::measure
