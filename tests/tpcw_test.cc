#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "repl/replication.h"
#include "tpcw/cache_setup.h"
#include "tpcw/datagen.h"
#include "tpcw/procs.h"
#include "tpcw/workload.h"

namespace mtcache {
namespace tpcw {
namespace {

TpcwConfig SmallConfig() {
  TpcwConfig config;
  config.num_items = 200;
  config.num_authors = 50;
  config.num_customers = 300;
  config.num_orders = 260;
  config.best_seller_window = 40;
  return config;
}

class TpcwBackendTest : public ::testing::Test {
 protected:
  TpcwBackendTest()
      : backend_(ServerOptions{"backend", "dbo", {}}, &clock_, &links_) {}

  virtual TpcwConfig Config() const { return SmallConfig(); }

  void SetUp() override {
    config_ = Config();
    ASSERT_TRUE(CreateSchema(&backend_).ok());
    ASSERT_TRUE(GenerateData(&backend_, config_).ok());
    ASSERT_TRUE(CreateProcedures(&backend_, config_).ok());
    clock_.AdvanceTo(LoadEndTime(config_));
  }

  int64_t Count(const std::string& table) {
    auto r = backend_.Execute("SELECT COUNT(*) FROM " + table);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r->rows[0][0].AsInt();
  }

  SimClock clock_;
  LinkedServerRegistry links_;
  Server backend_;
  TpcwConfig config_;
};

TEST_F(TpcwBackendTest, DataGeneratedAtConfiguredScale) {
  EXPECT_EQ(Count("item"), config_.num_items);
  EXPECT_EQ(Count("author"), config_.num_authors);
  EXPECT_EQ(Count("customer"), config_.num_customers);
  EXPECT_EQ(Count("orders"), config_.num_orders);
  EXPECT_EQ(Count("cc_xacts"), config_.num_orders);
  EXPECT_GE(Count("order_line"), config_.num_orders);
}

TEST_F(TpcwBackendTest, DataIsDeterministicForSeed) {
  Server other(ServerOptions{"backend2", "dbo", {}}, &clock_);
  ASSERT_TRUE(CreateSchema(&other).ok());
  ASSERT_TRUE(GenerateData(&other, config_).ok());
  auto a = backend_.Execute("SELECT i_title FROM item WHERE i_id = 17");
  auto b = other.Execute("SELECT i_title FROM item WHERE i_id = 17");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->rows[0][0].AsString(), b->rows[0][0].AsString());
}

TEST_F(TpcwBackendTest, GetBookReturnsItemWithAuthor) {
  auto r = backend_.CallProcedure("getbook", {Value::Int(5)}, nullptr);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsInt(), 5);
  EXPECT_FALSE(r->rows[0][8].is_null());  // a_fname
}

TEST_F(TpcwBackendTest, BestSellersRanksBySales) {
  auto r = backend_.CallProcedure(
      "getbestsellers", {Value::String("history")}, nullptr);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  for (size_t i = 1; i < r->rows.size(); ++i) {
    EXPECT_GE(r->rows[i - 1][4].AsInt(), r->rows[i][4].AsInt());
  }
}

TEST_F(TpcwBackendTest, SearchProceduresReturnBoundedResults) {
  auto subject = backend_.CallProcedure("dosubjectsearch",
                                        {Value::String("arts")}, nullptr);
  ASSERT_TRUE(subject.ok()) << subject.status().ToString();
  EXPECT_LE(subject->rows.size(), 50u);
  auto title = backend_.CallProcedure("dotitlesearch",
                                      {Value::String("%river%")}, nullptr);
  ASSERT_TRUE(title.ok()) << title.status().ToString();
  EXPECT_LE(title->rows.size(), 50u);
  auto author = backend_.CallProcedure("doauthorsearch",
                                       {Value::String("shadow%")}, nullptr);
  ASSERT_TRUE(author.ok()) << author.status().ToString();
}

TEST_F(TpcwBackendTest, CartLifecycleAndOrderPlacement) {
  ASSERT_TRUE(backend_.CallProcedure("createemptycart", {Value::Int(7000)},
                                     nullptr)
                  .ok());
  ASSERT_TRUE(backend_
                  .CallProcedure("additem", {Value::Int(7000), Value::Int(3),
                                             Value::Int(2)},
                                 nullptr)
                  .ok());
  // Adding the same item again increments quantity.
  ASSERT_TRUE(backend_
                  .CallProcedure("additem", {Value::Int(7000), Value::Int(3),
                                             Value::Int(1)},
                                 nullptr)
                  .ok());
  auto cart = backend_.CallProcedure("getcart", {Value::Int(7000)}, nullptr);
  ASSERT_TRUE(cart.ok());
  ASSERT_EQ(cart->rows.size(), 1u);
  EXPECT_EQ(cart->rows[0][1].AsInt(), 3);  // qty 2 + 1
  int64_t orders_before = Count("orders");
  auto order = backend_.CallProcedure(
      "enterorder",
      {Value::Int(900000), Value::Int(1), Value::Int(7000), Value::Int(1),
       Value::Double(82.5)},
      nullptr);
  ASSERT_TRUE(order.ok()) << order.status().ToString();
  EXPECT_EQ(Count("orders"), orders_before + 1);
  EXPECT_EQ(Count("shopping_cart_line"), 0);  // cart cleared
  auto lines = backend_.Execute(
      "SELECT ol_qty FROM order_line WHERE ol_o_id = 900000");
  ASSERT_TRUE(lines.ok());
  ASSERT_EQ(lines->rows.size(), 1u);
  EXPECT_EQ(lines->rows[0][0].AsInt(), 3);
}

TEST_F(TpcwBackendTest, DriverRunsEveryInteraction) {
  TpcwDriver driver(&backend_, config_, /*seed=*/17);
  for (int i = 0; i < kNumInteractions; ++i) {
    Interaction kind = static_cast<Interaction>(i);
    auto stats = driver.Run(kind);
    ASSERT_TRUE(stats.ok())
        << InteractionName(kind) << ": " << stats.status().ToString();
    EXPECT_GT(stats->local_cost + stats->remote_cost, 0)
        << InteractionName(kind);
  }
}

TEST_F(TpcwBackendTest, MixClassFrequenciesMatchPaperTable) {
  TpcwDriver driver(&backend_, config_, 23);
  const int n = 20000;
  struct {
    WorkloadMix mix;
    double expect;
  } cases[] = {{WorkloadMix::kBrowsing, 0.95},
               {WorkloadMix::kShopping, 0.80},
               {WorkloadMix::kOrdering, 0.50}};
  for (const auto& c : cases) {
    int browse = 0;
    for (int i = 0; i < n; ++i) {
      if (IsBrowseClass(driver.Pick(c.mix))) ++browse;
    }
    EXPECT_NEAR(browse / static_cast<double>(n), c.expect, 0.02)
        << MixName(c.mix);
  }
}

// Per-interaction conformance to the TPC-W §6 mix tables: at 30k draws every
// one of the fourteen interaction frequencies matches MixFraction within a
// 5-sigma binomial band (plus a small floor for the sub-percent rows). The
// draws go through TpcwDriver::Pick, the same path every workload run uses.
TEST_F(TpcwBackendTest, MixInteractionFrequenciesMatchSpecTables) {
  const int n = 30000;
  for (WorkloadMix mix : {WorkloadMix::kBrowsing, WorkloadMix::kShopping,
                          WorkloadMix::kOrdering}) {
    TpcwDriver driver(&backend_, config_, 29);
    int counts[kNumInteractions] = {};
    double total = 0;
    for (int i = 0; i < n; ++i) ++counts[static_cast<int>(driver.Pick(mix))];
    for (int t = 0; t < kNumInteractions; ++t) {
      Interaction kind = static_cast<Interaction>(t);
      double expect = MixFraction(mix, kind);
      total += expect;
      double sigma = std::sqrt(expect * (1 - expect) / n);
      double observed = counts[t] / static_cast<double>(n);
      EXPECT_NEAR(observed, expect, 5 * sigma + 0.001)
          << MixName(mix) << "/" << InteractionName(kind);
    }
    // The frequency table itself is a distribution.
    EXPECT_NEAR(total, 1.0, 1e-9) << MixName(mix);
  }
}

TEST_F(TpcwBackendTest, PickInteractionCoversUnitInterval) {
  // Boundary draws map to valid interactions; 0 maps to the first
  // non-zero-frequency entry and draws just under 1 to the last.
  for (WorkloadMix mix : {WorkloadMix::kBrowsing, WorkloadMix::kShopping,
                          WorkloadMix::kOrdering}) {
    Interaction first = PickInteraction(mix, 0.0);
    Interaction last = PickInteraction(mix, 0.999999999);
    EXPECT_GT(MixFraction(mix, first), 0) << MixName(mix);
    EXPECT_GT(MixFraction(mix, last), 0) << MixName(mix);
  }
}

// Every interaction a mix can draw executes without error against the
// seeded schema — a sustained RunNext stream per mix, long enough that the
// common interactions all occur, plus an explicit pass over all fourteen
// kinds (catching the rare ones a finite stream may miss).
TEST_F(TpcwBackendTest, AllMixInteractionsExecuteWithoutError) {
  int mix_index = 0;
  for (WorkloadMix mix : {WorkloadMix::kBrowsing, WorkloadMix::kShopping,
                          WorkloadMix::kOrdering}) {
    // One driver per mix, each in its own client-id residue class so the
    // three streams' generated carts/orders/customers never collide.
    TpcwDriver driver(&backend_, config_, 31, /*driver_index=*/mix_index++,
                      /*driver_stride=*/3);
    int64_t statements_before = driver.statements_issued();
    for (int i = 0; i < 200; ++i) {
      auto result = driver.RunNext(mix);
      ASSERT_TRUE(result.ok())
          << MixName(mix) << " draw " << i << ": "
          << result.status().ToString();
    }
    EXPECT_GT(driver.statements_issued(), statements_before) << MixName(mix);
    for (int t = 0; t < kNumInteractions; ++t) {
      auto stats = driver.Run(static_cast<Interaction>(t));
      ASSERT_TRUE(stats.ok())
          << MixName(mix) << "/"
          << InteractionName(static_cast<Interaction>(t)) << ": "
          << stats.status().ToString();
    }
  }
}

class TpcwCacheTest : public TpcwBackendTest {
 protected:
  TpcwCacheTest()
      : cache_(ServerOptions{"cache1", "dbo", {}}, &clock_, &links_),
        repl_(&clock_) {}

  void SetUp() override {
    TpcwBackendTest::SetUp();
    auto setup = MTCache::Setup(&cache_, &backend_, &repl_);
    ASSERT_TRUE(setup.ok()) << setup.status().ToString();
    mtcache_ = setup.ConsumeValue();
    Status s = SetupTpcwCache(mtcache_.get(), config_);
    ASSERT_TRUE(s.ok()) << s.ToString();
  }

  Server cache_;
  ReplicationSystem repl_;
  std::unique_ptr<MTCache> mtcache_;
};

TEST_F(TpcwCacheTest, CachedViewsPopulated) {
  auto r = cache_.Execute("SELECT COUNT(*) FROM item_cache");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][0].AsInt(), config_.num_items);
  r = cache_.Execute("SELECT COUNT(*) FROM order_line_cache");
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->rows[0][0].AsInt(), 0);
}

TEST_F(TpcwCacheTest, BrowseProceduresRunFullyLocally) {
  for (const char* proc : {"getbook", "getrelated"}) {
    ExecStats stats;
    auto r = cache_.CallProcedure(proc, {Value::Int(5)}, &stats);
    ASSERT_TRUE(r.ok()) << proc << ": " << r.status().ToString();
    EXPECT_DOUBLE_EQ(stats.remote_cost, 0) << proc;
  }
  ExecStats stats;
  auto r = cache_.CallProcedure("getbestsellers", {Value::String("arts")},
                                &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_DOUBLE_EQ(stats.remote_cost, 0) << "best sellers offloaded";
}

TEST_F(TpcwCacheTest, CacheResultsMatchBackendResults) {
  for (const char* subject : {"arts", "history", "travel"}) {
    auto local = cache_.CallProcedure("getnewproducts",
                                      {Value::String(subject)}, nullptr);
    auto remote = backend_.CallProcedure("getnewproducts",
                                         {Value::String(subject)}, nullptr);
    ASSERT_TRUE(local.ok() && remote.ok());
    ASSERT_EQ(local->rows.size(), remote->rows.size()) << subject;
    for (size_t i = 0; i < local->rows.size(); ++i) {
      EXPECT_EQ(local->rows[i][0].AsInt(), remote->rows[i][0].AsInt());
    }
  }
}

// BestSellers' window is the TOP n most recent orders. GETDATE() has
// whole-second resolution, so many orders share an o_date and the cut can
// fall inside a tie group; heap order must not decide it, because the cache
// applies transactions in commit order and the backend stores them in insert
// order. A one-order window puts the cut between two tied orders.
class TpcwWindowTieTest : public TpcwCacheTest {
 protected:
  TpcwConfig Config() const override {
    TpcwConfig config = SmallConfig();
    config.best_seller_window = 1;
    return config;
  }
};

TEST_F(TpcwWindowTieTest, BestSellersAgreeOnBothTiersWhenTheCutTies) {
  auto items = backend_.Execute(
      "SELECT TOP 2 i_id FROM item WHERE i_subject = 'arts' ORDER BY i_id");
  ASSERT_TRUE(items.ok());
  ASSERT_EQ(items->rows.size(), 2u);
  const int64_t first_item = items->rows[0][0].AsInt();
  const int64_t second_item = items->rows[1][0].AsInt();
  const std::string date =
      std::to_string(static_cast<int64_t>(clock_.Now()) + 1000);
  const std::string x = std::to_string(config_.num_orders + 1);
  const std::string y = std::to_string(config_.num_orders + 2);
  auto order = [&](const std::string& id, int64_t item) {
    return "INSERT INTO orders VALUES (" + id + ", 1, " + date +
           ", 10.0, 10.0, 'PENDING', 1); INSERT INTO order_line VALUES (" +
           id + ", " + std::to_string(item) + ", 5, 0.0); ";
  };
  // Order x is inserted first but commits last: the backend's heap holds
  // x before y, the cache's holds y before x.
  Session a;
  Session b;
  ASSERT_TRUE(backend_
                  .ExecuteOnSession(&a, "BEGIN TRANSACTION; " +
                                            order(x, first_item),
                                    nullptr)
                  .ok());
  ASSERT_TRUE(backend_
                  .ExecuteOnSession(&b, "BEGIN TRANSACTION; " +
                                            order(y, second_item) + "COMMIT",
                                    nullptr)
                  .ok());
  ASSERT_TRUE(backend_.ExecuteOnSession(&a, "COMMIT", nullptr).ok());
  ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
  auto cached =
      cache_.Execute("SELECT COUNT(*) FROM orders_cache WHERE o_id >= " + x);
  ASSERT_TRUE(cached.ok());
  ASSERT_EQ(cached->rows[0][0].AsInt(), 2);

  auto on_backend = backend_.CallProcedure(
      "getbestsellers", {Value::String("arts")}, nullptr);
  auto on_cache = cache_.CallProcedure(
      "getbestsellers", {Value::String("arts")}, nullptr);
  ASSERT_TRUE(on_backend.ok() && on_cache.ok());
  ASSERT_EQ(on_backend->rows.size(), 1u);
  ASSERT_EQ(on_cache->rows.size(), 1u);
  // The most recent order is the one with the larger o_id.
  EXPECT_EQ(on_backend->rows[0][0].AsInt(), second_item);
  EXPECT_EQ(on_cache->rows[0][0].AsInt(), second_item);
}

TEST_F(TpcwCacheTest, UpdatesFlowThroughCacheToBackendAndBack) {
  // Customer table is not cached: getcustomer is copied and runs locally,
  // fetching remotely. Order placement forwards to the backend and then
  // replicates into orders_cache / order_line_cache.
  TpcwDriver driver(&cache_, config_, 99);
  auto stats = driver.Run(Interaction::kBuyConfirm);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->remote_cost, 0);
  auto backend_count = backend_.Execute("SELECT COUNT(*) FROM orders");
  ASSERT_TRUE(backend_count.ok());
  EXPECT_EQ(backend_count->rows[0][0].AsInt(), config_.num_orders + 1);
  // Cached copy is stale until replication runs.
  auto cache_count = cache_.Execute("SELECT COUNT(*) FROM orders_cache");
  ASSERT_TRUE(cache_count.ok());
  EXPECT_EQ(cache_count->rows[0][0].AsInt(), config_.num_orders);
  ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
  cache_count = cache_.Execute("SELECT COUNT(*) FROM orders_cache");
  ASSERT_TRUE(cache_count.ok());
  EXPECT_EQ(cache_count->rows[0][0].AsInt(), config_.num_orders + 1);
}

TEST_F(TpcwCacheTest, FreshnessClauseSeesNewOrdersImmediately) {
  // An order placed through the cache is visible to a freshness-bounded
  // query right away (it bypasses the now-stale orders_cache), while the
  // unconstrained query is served the stale cached copy until replication.
  TpcwDriver driver(&cache_, config_, 5);
  ASSERT_TRUE(driver.Run(Interaction::kBuyConfirm).ok());
  clock_.Advance(30);
  auto stale = cache_.Execute("SELECT COUNT(*) FROM orders");
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(stale->rows[0][0].AsInt(), config_.num_orders);
  auto fresh = cache_.Execute(
      "SELECT COUNT(*) FROM orders WITH MAXSTALENESS 5");
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(fresh->rows[0][0].AsInt(), config_.num_orders + 1);
}

TEST_F(TpcwCacheTest, ProcedurePlansCachedAcrossCalls) {
  int64_t misses_before = cache_.plan_cache_stats().misses;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        cache_.CallProcedure("getbook", {Value::Int(i + 1)}, nullptr).ok());
  }
  // One optimization for the procedure's SELECT, not five.
  EXPECT_EQ(cache_.plan_cache_stats().misses, misses_before + 1);
}

TEST_F(TpcwCacheTest, CachedViewsConvergeUnderMixedWorkloadStress) {
  // End-to-end stress: 200 mixed interactions through the cache with
  // periodic replication; afterwards every cached view must equal the
  // select-project of its backend base table, row for row.
  TpcwDriver driver(&cache_, config_, 4242);
  for (int i = 0; i < 200; ++i) {
    auto result = driver.RunNext(WorkloadMix::kOrdering);
    ASSERT_TRUE(result.ok()) << i << ": " << result.status().ToString();
    if (i % 7 == 6) {
      clock_.Advance(0.5);
      ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
    }
  }
  clock_.Advance(0.5);
  ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
  ASSERT_EQ(repl_.PendingChanges(), 0);

  auto canonical = [](Server* server, const std::string& sql) {
    auto r = server->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    std::vector<std::string> rows;
    if (r.ok()) {
      for (const Row& row : r->rows) {
        std::string s;
        for (const Value& v : row) s += v.ToSqlLiteral() + "|";
        rows.push_back(std::move(s));
      }
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  for (const char* table : {"item", "author", "orders", "order_line"}) {
    EXPECT_EQ(canonical(&cache_,
                        "SELECT * FROM " + std::string(table) + "_cache"),
              canonical(&backend_, "SELECT * FROM " + std::string(table)))
        << table << " diverged after the stress run";
  }
  // Interactions really happened: orders grew.
  auto grown = backend_.Execute("SELECT COUNT(*) FROM orders");
  ASSERT_TRUE(grown.ok());
  EXPECT_GT(grown->rows[0][0].AsInt(), config_.num_orders);
}

TEST_F(TpcwCacheTest, DriverWorkloadRunsAgainstCache) {
  TpcwDriver driver(&cache_, config_, 7);
  double local = 0;
  double remote = 0;
  for (int i = 0; i < 60; ++i) {
    auto result = driver.RunNext(WorkloadMix::kShopping);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    local += result->second.local_cost;
    remote += result->second.remote_cost;
    if (i % 20 == 19) {
      ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
    }
  }
  // The Shopping mix is read-dominated: most work lands on the cache server.
  EXPECT_GT(local, remote);
}

}  // namespace
}  // namespace tpcw
}  // namespace mtcache
