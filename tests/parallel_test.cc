// Tests for the deterministic parallel execution layer (DESIGN.md §7):
// pool lifecycle, ParallelFor/ParallelMap semantics, exception
// propagation, the nested-submit deadlock guard, and the headline
// contract — byte-identical results at 1 and 8 lanes, all the way up to
// a full placebo analysis and a measurement campaign.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <set>
#include <string>
#include <stdexcept>
#include <thread>
#include <vector>

#include "causal/placebo.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "measure/panel.h"
#include "measure/platform.h"
#include "netsim/scenario_za.h"

namespace sisyphus {
namespace {

using core::ThreadPool;

TEST(ThreadPoolTest, LifecycleAndLaneCounts) {
  {
    ThreadPool single(1);
    EXPECT_EQ(single.thread_count(), 1u);
  }
  {
    ThreadPool quad(4);
    EXPECT_EQ(quad.thread_count(), 4u);
  }
  // Repeated construction/destruction does not leak or deadlock.
  for (int i = 0; i < 10; ++i) {
    ThreadPool pool(3);
    std::atomic<int> touched{0};
    pool.ParallelFor(7, [&](std::size_t) { ++touched; });
    EXPECT_EQ(touched.load(), 7);
  }
}

TEST(ThreadPoolTest, DefaultThreadCountHonorsEnv) {
  ::setenv("SISYPHUS_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::DefaultThreadCount(), 3u);
  ::setenv("SISYPHUS_THREADS", "not-a-number", 1);
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1u);
  ::unsetenv("SISYPHUS_THREADS");
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1u);
}

TEST(ThreadPoolTest, ParallelForRunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.ParallelFor(100, [&](std::size_t i) { ++hits[i]; });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPoolTest, ParallelMapKeepsIndexOrder) {
  ThreadPool pool(4);
  const auto out =
      pool.ParallelMap(64, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 64u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPoolTest, ZeroAndOneTaskEdgeCases) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(1, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, LowestIndexExceptionWins) {
  ThreadPool pool(4);
  // Several tasks throw; the contract picks the lowest task index, so the
  // surfaced message is thread-count-independent.
  try {
    pool.ParallelFor(32, [&](std::size_t i) {
      if (i % 5 == 2) {  // 2, 7, 12, ... throw
        throw std::runtime_error("task " + std::to_string(i));
      }
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "task 2");
  }
  // The pool survives a throwing region.
  std::atomic<int> touched{0};
  pool.ParallelFor(8, [&](std::size_t) { ++touched; });
  EXPECT_EQ(touched.load(), 8);
}

TEST(ThreadPoolTest, NestedSubmitRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  std::atomic<int> inner_total{0};
  pool.ParallelFor(8, [&](std::size_t) {
    // A nested region from inside a task must not block on pool lanes.
    pool.ParallelFor(8, [&](std::size_t) { ++inner_total; });
  });
  EXPECT_EQ(inner_total.load(), 64);
}

TEST(ThreadPoolTest, WorkDistributesAcrossLanes) {
  ThreadPool pool(4);
  std::mutex mu;
  std::set<std::thread::id> lanes;
  pool.ParallelFor(64, [&](std::size_t) {
    // Make tasks slow enough that the workers wake up and claim some.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const std::lock_guard<std::mutex> lock(mu);
    lanes.insert(std::this_thread::get_id());
  });
  // On a single-core host the workers still exist and time-slice; at least
  // the caller plus one worker should have claimed tasks.
  EXPECT_GE(lanes.size(), 2u);
}

TEST(ThreadPoolTest, ForkedStreamsMakeMapDeterministicAcrossLaneCounts) {
  const std::uint64_t seed = 20260805;
  const auto run = [&](std::size_t lanes) {
    ThreadPool pool(lanes);
    return pool.ParallelMap(200, [&](std::size_t i) {
      core::Rng rng = core::Rng::Fork(seed, i);
      double acc = 0.0;
      for (int k = 0; k < 50; ++k) acc += rng.Gaussian();
      return acc;
    });
  };
  const auto serial = run(1);
  const auto parallel = run(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    // Bit-identity, not approximate equality.
    EXPECT_EQ(serial[i], parallel[i]) << "task " << i;
  }
}

/// Shared ZA-scenario panel for the end-to-end determinism checks.
causal::SyntheticControlInput BuildPanelInput() {
  netsim::ScenarioZaOptions options;
  options.donor_units = 12;
  options.treatment_time = core::SimTime::FromDays(7);
  options.horizon = core::SimTime::FromDays(14);
  auto scenario = netsim::BuildScenarioZa(options);
  measure::PlatformOptions platform_options;
  platform_options.server = scenario.content_jnb;
  measure::Platform platform(*scenario.simulator, platform_options);
  measure::VantageConfig vantage;
  vantage.baseline_tests_per_day = 12.0;
  for (const auto& unit : scenario.treated) {
    vantage.pop = unit.access_pop;
    platform.AddVantage(vantage);
  }
  for (auto donor : scenario.donors) {
    vantage.pop = donor;
    platform.AddVantage(vantage);
  }
  measure::StreamingOptions campaign_options;
  campaign_options.panel.bucket = core::SimTime::FromHours(6);
  campaign_options.panel.periods = 4 * 14;
  measure::StreamingCampaign campaign(platform_options.validation,
                                      campaign_options);
  core::Rng rng(17);
  platform.Run(options.horizon, rng, campaign);
  const auto panel = campaign.FinalizePanel();
  return measure::MakeSyntheticControlInput(panel, scenario.treated[0].name,
                                            scenario.donor_names,
                                            options.treatment_time)
      .value();
}

TEST(DeterministicParallelismTest, PlaceboAnalysisBitIdenticalAt1And8) {
  const auto input = BuildPanelInput();
  const auto run = [&](std::size_t lanes) {
    ThreadPool::SetGlobalThreadCount(lanes);
    auto result = causal::RunPlaceboAnalysis(input);
    ThreadPool::SetGlobalThreadCount(0);
    return result;
  };
  const auto serial = run(1);
  const auto parallel = run(8);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  const auto& a = serial.value();
  const auto& b = parallel.value();
  // Bit-identical PlaceboResult: every float compared with EQ, not NEAR.
  EXPECT_EQ(a.treated_fit.average_effect, b.treated_fit.average_effect);
  EXPECT_EQ(a.treated_fit.rmse_pre, b.treated_fit.rmse_pre);
  EXPECT_EQ(a.treated_fit.rmse_post, b.treated_fit.rmse_post);
  EXPECT_EQ(a.treated_fit.rmse_ratio, b.treated_fit.rmse_ratio);
  EXPECT_EQ(a.p_value, b.p_value);
  EXPECT_EQ(a.skipped_donors, b.skipped_donors);
  ASSERT_EQ(a.placebo_ratios.size(), b.placebo_ratios.size());
  for (std::size_t i = 0; i < a.placebo_ratios.size(); ++i) {
    EXPECT_EQ(a.placebo_ratios[i], b.placebo_ratios[i]) << i;
  }
}

TEST(DeterministicParallelismTest, MeasurementCampaignBitIdenticalAt1And8) {
  const auto run = [&](std::size_t lanes) {
    ThreadPool::SetGlobalThreadCount(lanes);
    netsim::ScenarioZaOptions options;
    options.donor_units = 8;
    options.treatment_time = core::SimTime::FromDays(4);
    options.horizon = core::SimTime::FromDays(8);
    auto scenario = netsim::BuildScenarioZa(options);
    measure::PlatformOptions platform_options;
    platform_options.server = scenario.content_jnb;
    platform_options.conditional_activation = true;
    measure::Platform platform(*scenario.simulator, platform_options);
    measure::VantageConfig vantage;
    vantage.baseline_tests_per_day = 10.0;
    vantage.user_tests_per_day = 4.0;
    for (const auto& unit : scenario.treated) {
      vantage.pop = unit.access_pop;
      platform.AddVantage(vantage);
    }
    for (auto donor : scenario.donors) {
      vantage.pop = donor;
      platform.AddVantage(vantage);
    }
    measure::StreamingCampaign campaign(platform_options.validation, {});
    core::Rng rng(23);
    platform.Run(options.horizon, rng, campaign);
    // Every column, doubles at round-trip precision: bit-identical.
    std::string archive = campaign.store().ToCsv();
    archive += "failures " + std::to_string(platform.failures().size());
    ThreadPool::SetGlobalThreadCount(0);
    return archive;
  };
  const std::string serial = run(1);
  EXPECT_GT(serial.size(), 1000u);
  EXPECT_EQ(serial, run(8));
}

}  // namespace
}  // namespace sisyphus
