#include <gtest/gtest.h>

#include "sim/testbed.h"

namespace mtcache {
namespace sim {
namespace {

TEST(DesTest, EventsFireInTimeOrder) {
  Des des;
  std::vector<int> fired;
  des.Schedule(2.0, [&] { fired.push_back(2); });
  des.Schedule(1.0, [&] { fired.push_back(1); });
  des.Schedule(3.0, [&] { fired.push_back(3); });
  des.RunUntil(10.0);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(des.now(), 10.0);
}

TEST(DesTest, EqualTimesFireInScheduleOrder) {
  Des des;
  std::vector<int> fired;
  for (int i = 0; i < 5; ++i) {
    des.Schedule(1.0, [&, i] { fired.push_back(i); });
  }
  des.RunUntil(2.0);
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(DesTest, RunUntilLeavesLaterEventsQueued) {
  Des des;
  int fired = 0;
  des.Schedule(5.0, [&] { ++fired; });
  des.RunUntil(4.0);
  EXPECT_EQ(fired, 0);
  des.RunUntil(6.0);
  EXPECT_EQ(fired, 1);
}

TEST(MachineTest, SingleCpuServesFifo) {
  Des des;
  Machine m(&des, "m", 1, 100.0);  // 100 units/sec
  std::vector<double> completions;
  m.Submit(100, [&] { completions.push_back(des.now()); });  // 1s
  m.Submit(200, [&] { completions.push_back(des.now()); });  // 2s more
  des.RunUntil(100);
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_DOUBLE_EQ(completions[0], 1.0);
  EXPECT_DOUBLE_EQ(completions[1], 3.0);
  EXPECT_DOUBLE_EQ(m.busy_cpu_seconds(), 3.0);
}

TEST(MachineTest, TwoCpusRunInParallel) {
  Des des;
  Machine m(&des, "m", 2, 100.0);
  std::vector<double> completions;
  m.Submit(100, [&] { completions.push_back(des.now()); });
  m.Submit(100, [&] { completions.push_back(des.now()); });
  m.Submit(100, [&] { completions.push_back(des.now()); });
  des.RunUntil(100);
  ASSERT_EQ(completions.size(), 3u);
  EXPECT_DOUBLE_EQ(completions[0], 1.0);
  EXPECT_DOUBLE_EQ(completions[1], 1.0);
  EXPECT_DOUBLE_EQ(completions[2], 2.0);
}

TEST(MachineTest, UtilizationReflectsLoad) {
  Des des;
  Machine m(&des, "m", 1, 100.0);
  m.Submit(500, nullptr);  // 5 seconds of work
  des.RunUntil(10.0);
  EXPECT_NEAR(m.Utilization(10.0), 0.5, 1e-9);
}

class TestbedTest : public ::testing::Test {
 protected:
  static TestbedConfig SmallConfig(bool caching) {
    TestbedConfig config;
    config.tpcw.num_items = 200;
    config.tpcw.num_authors = 50;
    config.tpcw.num_customers = 300;
    config.tpcw.num_orders = 260;
    config.tpcw.best_seller_window = 40;
    config.num_web_servers = 2;
    config.caching = caching;
    config.profile_samples = 5;
    return config;
  }
};

TEST_F(TestbedTest, ProfileMeasuresEveryInteraction) {
  Testbed testbed(SmallConfig(/*caching=*/true));
  ASSERT_TRUE(testbed.Initialize().ok());
  for (int t = 0; t < tpcw::kNumInteractions; ++t) {
    ASSERT_EQ(testbed.profile().samples[t].size(), 5u);
    double total = 0;
    for (auto [w, b] : testbed.profile().samples[t]) total += w + b;
    EXPECT_GT(total, 0) << tpcw::InteractionName(static_cast<tpcw::Interaction>(t));
  }
  // Update interactions cause replication work; pure reads do not.
  EXPECT_GT(testbed.profile().repl_publisher_cost[static_cast<int>(
                tpcw::Interaction::kBuyConfirm)],
            0);
  EXPECT_DOUBLE_EQ(testbed.profile().repl_publisher_cost[static_cast<int>(
                       tpcw::Interaction::kProductDetail)],
                   0);
}

TEST_F(TestbedTest, RunProducesThroughputAndLatency) {
  Testbed testbed(SmallConfig(/*caching=*/false));
  ASSERT_TRUE(testbed.Initialize().ok());
  auto r = testbed.Run(10, 5, 20);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->wips, 0);
  EXPECT_GT(r->p90_latency, 0);
  EXPECT_GT(r->backend_util, 0);
}

TEST_F(TestbedTest, DeterministicForSameSeed) {
  Testbed a(SmallConfig(false));
  Testbed b(SmallConfig(false));
  ASSERT_TRUE(a.Initialize().ok());
  ASSERT_TRUE(b.Initialize().ok());
  auto ra = a.Run(20, 5, 20);
  auto rb = b.Run(20, 5, 20);
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_DOUBLE_EQ(ra->wips, rb->wips);
  EXPECT_DOUBLE_EQ(ra->p90_latency, rb->p90_latency);
}

TEST_F(TestbedTest, MoreUsersMoreThroughputUntilSaturation) {
  Testbed testbed(SmallConfig(false));
  ASSERT_TRUE(testbed.Initialize().ok());
  auto r10 = testbed.Run(10, 5, 20);
  auto r40 = testbed.Run(40, 5, 20);
  ASSERT_TRUE(r10.ok() && r40.ok());
  EXPECT_GT(r40->wips, r10->wips);
}

TEST_F(TestbedTest, CachingOffloadsBackend) {
  Testbed plain(SmallConfig(false));
  Testbed cached(SmallConfig(true));
  ASSERT_TRUE(plain.Initialize().ok());
  ASSERT_TRUE(cached.Initialize().ok());
  auto rp = plain.Run(20, 5, 20);
  auto rc = cached.Run(20, 5, 20);
  ASSERT_TRUE(rp.ok() && rc.ok());
  // Browse-class reads over the cached tables never reach the backend.
  for (tpcw::Interaction kind :
       {tpcw::Interaction::kNewProducts, tpcw::Interaction::kBestSellers,
        tpcw::Interaction::kProductDetail, tpcw::Interaction::kSearchRequest,
        tpcw::Interaction::kSearchResults}) {
    for (auto [web_cost, backend_cost] :
         cached.profile().samples[static_cast<int>(kind)]) {
      EXPECT_EQ(backend_cost, 0) << tpcw::InteractionName(kind);
    }
  }
  // The backend keeps the writes and the uncached customer and cart reads,
  // whose work the cost model fixes; the share caching removes grows with
  // the cost of the cached reads (72% when BestSellers sorted every order,
  // 47% with its indexed plan).
  EXPECT_LT(rc->backend_util, rp->backend_util * 0.6)
      << "cache servers should absorb the query load";
}

TEST_F(TestbedTest, FindMaxThroughputRespectsLatencyBound) {
  Testbed testbed(SmallConfig(false));
  ASSERT_TRUE(testbed.Initialize().ok());
  auto r = testbed.FindMaxThroughput(5, 20);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_LE(r->p90_latency, testbed.config().latency_limit);
  EXPECT_GT(r->users, 1);
  // At the operating point some tier is the busy resource.
  EXPECT_GT(std::max(r->backend_util, r->max_web_util), 0.5);
}

TEST_F(TestbedTest, BypassModeMeasuresApplyOverhead) {
  TestbedConfig config = SmallConfig(true);
  config.drivers_use_cache = false;
  config.mix = tpcw::WorkloadMix::kOrdering;
  Testbed testbed(config);
  ASSERT_TRUE(testbed.Initialize().ok());
  auto r = testbed.Run(30, 5, 20);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Cache machines only apply replicated changes: some but little CPU.
  EXPECT_GT(r->cache_apply_util, 0);
  EXPECT_LT(r->cache_apply_util, 0.5);
  EXPECT_GT(r->repl_avg_latency, 0);
}

}  // namespace
}  // namespace sim
}  // namespace mtcache
