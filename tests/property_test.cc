#include <algorithm>

#include <gtest/gtest.h>

#include "check/consistency.h"
#include "common/random.h"
#include "mtcache/mtcache.h"

namespace mtcache {
namespace {

// ===========================================================================
// Property 1 — routing transparency: for randomly generated queries, the
// cache server returns exactly what the backend returns, under EVERY
// optimizer configuration (view matching on/off, dynamic plans on/off,
// cost-based vs heuristic routing, pull-up on/off). This is the paper's
// transparency requirement stated as an executable property.
// ===========================================================================

class QueryEquivalenceTest : public ::testing::TestWithParam<int> {
 protected:
  QueryEquivalenceTest()
      : backend_(ServerOptions{"backend", "dbo", {}}, &clock_, &links_),
        cache_(ServerOptions{"cache", "dbo", {}}, &clock_, &links_),
        repl_(&clock_), rng_(GetParam() * 7919 + 13) {}

  void SetUp() override {
    ASSERT_TRUE(backend_
                    .ExecuteScript(
                        "CREATE TABLE customer (cid INT PRIMARY KEY, "
                        "cname VARCHAR(30), region VARCHAR(10), "
                        "balance FLOAT); "
                        "CREATE TABLE orders (okey INT PRIMARY KEY, "
                        "ckey INT, qty INT, total FLOAT); "
                        "CREATE INDEX orders_ckey ON orders (ckey);")
                    .ok());
    static const char* kRegions[] = {"east", "west", "north", "south"};
    for (int i = 1; i <= 300; ++i) {
      ASSERT_TRUE(backend_
                      .ExecuteScript(
                          "INSERT INTO customer VALUES (" + std::to_string(i) +
                          ", 'name" + std::to_string(i % 37) + "', '" +
                          kRegions[i % 4] + "', " + std::to_string(i * 0.5) +
                          ")")
                      .ok());
    }
    for (int i = 1; i <= 600; ++i) {
      ASSERT_TRUE(backend_
                      .ExecuteScript(
                          "INSERT INTO orders VALUES (" + std::to_string(i) +
                          ", " + std::to_string(i % 300 + 1) + ", " +
                          std::to_string(i % 7 + 1) + ", " +
                          std::to_string(i * 1.25) + ")")
                      .ok());
    }
    backend_.RecomputeStats();
    auto setup = MTCache::Setup(&cache_, &backend_, &repl_);
    ASSERT_TRUE(setup.ok()) << setup.status().ToString();
    mtcache_ = setup.ConsumeValue();
    // A partial customer view and a full orders view, so random queries hit
    // unconditional matches, conditional matches, and misses.
    ASSERT_TRUE(mtcache_
                    ->CreateCachedView("cust150",
                                       "SELECT cid, cname, region FROM "
                                       "customer WHERE cid <= 150")
                    .ok());
    ASSERT_TRUE(mtcache_
                    ->CreateCachedView(
                        "orders_all",
                        "SELECT okey, ckey, qty, total FROM orders")
                    .ok());
  }

  // --- random query generator ---------------------------------------------

  std::string RandomCustomerPredicate(ParamMap* params, int* param_counter) {
    switch (rng_.Uniform(0, 4)) {
      case 0:
        return "cid = " + std::to_string(rng_.Uniform(1, 320));
      case 1:
        return "cid <= " + std::to_string(rng_.Uniform(1, 320));
      case 2: {
        static const char* kRegions[] = {"east", "west", "north", "nowhere"};
        return std::string("region = '") + kRegions[rng_.Uniform(0, 3)] + "'";
      }
      case 3:
        return "cname LIKE 'name1%'";
      default: {
        // Parameterized: exercises dynamic plans.
        std::string name = "@p" + std::to_string((*param_counter)++);
        (*params)[name] = Value::Int(rng_.Uniform(1, 320));
        return "cid <= " + name;
      }
    }
  }

  std::string RandomQuery(ParamMap* params) {
    int param_counter = 0;
    int shape = static_cast<int>(rng_.Uniform(0, 7));
    std::string sql;
    switch (shape) {
      case 0:  // select-project-filter on customer
        sql = "SELECT cid, cname FROM customer WHERE " +
              RandomCustomerPredicate(params, &param_counter);
        break;
      case 1:  // conjunction
        sql = "SELECT cid, region FROM customer WHERE " +
              RandomCustomerPredicate(params, &param_counter) + " AND " +
              RandomCustomerPredicate(params, &param_counter);
        break;
      case 2:  // join
        sql = "SELECT c.cid, o.total FROM customer c, orders o "
              "WHERE c.cid = o.ckey AND " +
              RandomCustomerPredicate(params, &param_counter);
        break;
      case 3:  // aggregation
        sql = "SELECT region, COUNT(*), SUM(balance) FROM customer WHERE " +
              RandomCustomerPredicate(params, &param_counter) +
              " GROUP BY region";
        break;
      case 4:  // top-k
        sql = "SELECT TOP 7 okey, total FROM orders WHERE qty = " +
              std::to_string(rng_.Uniform(1, 7)) + " ORDER BY total DESC, okey";
        break;
      case 5:  // CASE projection
        sql = "SELECT cid, CASE WHEN balance > " +
              std::to_string(rng_.Uniform(10, 140)) +
              " THEN 'rich' WHEN region = 'east' THEN 'east' ELSE 'other' "
              "END FROM customer WHERE " +
              RandomCustomerPredicate(params, &param_counter);
        break;
      default:  // UNION ALL of two filtered selects
        sql = "SELECT cid FROM customer WHERE " +
              RandomCustomerPredicate(params, &param_counter) +
              " UNION ALL SELECT ckey FROM orders WHERE okey <= " +
              std::to_string(rng_.Uniform(1, 40));
        break;
    }
    return sql;
  }

  // Canonical form for comparison: sorted multiset of rendered rows.
  static std::vector<std::string> Canonical(const QueryResult& result) {
    std::vector<std::string> rows;
    for (const Row& row : result.rows) {
      std::string s;
      for (const Value& v : row) {
        s += v.ToSqlLiteral();
        s += "|";
      }
      rows.push_back(std::move(s));
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  SimClock clock_;
  LinkedServerRegistry links_;
  Server backend_;
  Server cache_;
  ReplicationSystem repl_;
  std::unique_ptr<MTCache> mtcache_;
  Random rng_;
};

TEST_P(QueryEquivalenceTest, CacheAgreesWithBackendUnderAllConfigs) {
  struct Config {
    const char* name;
    void (*tweak)(OptimizerOptions*);
  };
  static const Config kConfigs[] = {
      {"default", [](OptimizerOptions*) {}},
      {"no view matching",
       [](OptimizerOptions* o) { o->enable_view_matching = false; }},
      {"no dynamic plans",
       [](OptimizerOptions* o) { o->enable_dynamic_plans = false; }},
      {"heuristic routing",
       [](OptimizerOptions* o) { o->cost_based_routing = false; }},
      {"no pull-up",
       [](OptimizerOptions* o) { o->pull_up_chooseplan = false; }},
      {"no mixed results",
       [](OptimizerOptions* o) { o->allow_mixed_results = false; }},
  };
  const OptimizerOptions base = cache_.optimizer_options();

  for (int q = 0; q < 25; ++q) {
    ParamMap params;
    std::string sql = RandomQuery(&params);
    ExecStats stats;
    auto expected = backend_.Execute(sql, params, &stats);
    ASSERT_TRUE(expected.ok()) << sql << "\n" << expected.status().ToString();
    std::vector<std::string> want = Canonical(*expected);

    for (const Config& config : kConfigs) {
      OptimizerOptions opts = base;
      config.tweak(&opts);
      cache_.set_optimizer_options(opts);
      auto got = cache_.Execute(sql, params, &stats);
      ASSERT_TRUE(got.ok())
          << config.name << ": " << sql << "\n" << got.status().ToString();
      EXPECT_EQ(Canonical(*got), want) << config.name << ": " << sql;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryEquivalenceTest, ::testing::Range(0, 8));

// ===========================================================================
// Property 2 — replication convergence: after any randomized DML workload
// over the published tables, the invariant checker proves every cached view
// equals the select-project of its base table, and the transactions applied
// at the cache are a prefix of backend commit order. The workload generator
// draws inserts, updates, deletes, and multi-statement transactions over
// several tables; the ConsistencyChecker recomputes ground truth itself, so
// no per-view expected-rows fixture is needed.
// ===========================================================================

class ReplicationConvergenceTest : public ::testing::TestWithParam<int> {
 protected:
  ReplicationConvergenceTest()
      : backend_(ServerOptions{"backend", "dbo", {}}, &clock_, &links_),
        cache_(ServerOptions{"cache", "dbo", {}}, &clock_, &links_),
        repl_(&clock_), rng_(GetParam() * 104729 + 7) {}

  void SetUp() override {
    ASSERT_TRUE(backend_
                    .ExecuteScript(
                        "CREATE TABLE stock (sid INT PRIMARY KEY, "
                        "sym VARCHAR(8), px FLOAT, active INT); "
                        "CREATE TABLE trades (tid INT PRIMARY KEY, "
                        "sid INT, qty INT, side VARCHAR(4))")
                    .ok());
    for (int i = 1; i <= 60; ++i) {
      ASSERT_TRUE(backend_
                      .ExecuteScript("INSERT INTO stock VALUES (" +
                                     std::to_string(i) + ", 'S" +
                                     std::to_string(i % 9) + "', " +
                                     std::to_string(i * 1.5) + ", " +
                                     std::to_string(i % 2) + ")")
                      .ok());
    }
    for (int i = 1; i <= 40; ++i) {
      ASSERT_TRUE(backend_
                      .ExecuteScript("INSERT INTO trades VALUES (" +
                                     std::to_string(i) + ", " +
                                     std::to_string(i % 60 + 1) + ", " +
                                     std::to_string(i % 5 + 1) + ", '" +
                                     (i % 2 == 0 ? "buy" : "sell") + "')")
                      .ok());
    }
    backend_.RecomputeStats();
    auto setup = MTCache::Setup(&cache_, &backend_, &repl_);
    ASSERT_TRUE(setup.ok());
    mtcache_ = setup.ConsumeValue();
    // Three view shapes: filtered projection, range predicate, full copy.
    ASSERT_TRUE(mtcache_
                    ->CreateCachedView("active_stock",
                                       "SELECT sid, sym, px FROM stock "
                                       "WHERE active = 1")
                    .ok());
    ASSERT_TRUE(mtcache_
                    ->CreateCachedView("cheap_stock",
                                       "SELECT sid, px FROM stock "
                                       "WHERE px <= 40")
                    .ok());
    ASSERT_TRUE(mtcache_
                    ->CreateCachedView("trades_all",
                                       "SELECT tid, sid, qty, side "
                                       "FROM trades")
                    .ok());
    next_id_ = 1000;
  }

  void RandomDml() {
    switch (rng_.Uniform(0, 5)) {
      case 0: {  // insert (sometimes into the article regions, sometimes not)
        int64_t id = next_id_++;
        ASSERT_TRUE(backend_
                        .ExecuteScript("INSERT INTO stock VALUES (" +
                                       std::to_string(id) + ", 'N', " +
                                       std::to_string(rng_.Uniform(1, 80)) +
                                       ".0, " +
                                       std::to_string(rng_.Uniform(0, 1)) +
                                       ")")
                        .ok());
        break;
      }
      case 1: {  // update price (moves rows across cheap_stock's range) or
                 // flip membership in active_stock
        std::string set = rng_.Bernoulli(0.5)
                              ? "px = px + " + std::to_string(rng_.Uniform(1, 30))
                              : "active = 1 - active";
        ASSERT_TRUE(backend_
                        .ExecuteScript("UPDATE stock SET " + set +
                                       " WHERE sid % 13 = " +
                                       std::to_string(rng_.Uniform(0, 12)))
                        .ok());
        break;
      }
      case 2: {  // delete a stripe
        ASSERT_TRUE(backend_
                        .ExecuteScript("DELETE FROM stock WHERE sid % 17 = " +
                                       std::to_string(rng_.Uniform(0, 16)))
                        .ok());
        break;
      }
      case 3: {  // trade flow on the second published table
        ASSERT_TRUE(backend_
                        .ExecuteScript("INSERT INTO trades VALUES (" +
                                       std::to_string(next_id_++) + ", " +
                                       std::to_string(rng_.Uniform(1, 60)) +
                                       ", 1, 'buy')")
                        .ok());
        break;
      }
      case 4: {  // cross-table multi-statement transaction
        ASSERT_TRUE(backend_
                        .ExecuteScript(
                            std::string("BEGIN TRANSACTION; ") +
                            "INSERT INTO trades VALUES (" +
                            std::to_string(next_id_++) +
                            ", 1, 2, 'sell'); " +
                            "UPDATE stock SET px = px + 0.5 WHERE sid = 1; " +
                            "COMMIT;")
                        .ok());
        break;
      }
      default: {  // multi-statement transaction, sometimes rolled back
        bool commit = rng_.Bernoulli(0.7);
        ASSERT_TRUE(backend_
                        .ExecuteScript(
                            std::string("BEGIN TRANSACTION; ") +
                            "INSERT INTO stock VALUES (" +
                            std::to_string(next_id_++) + ", 'T', 2.0, 1); " +
                            "UPDATE stock SET px = px * 1.1 WHERE active = 1; " +
                            (commit ? "COMMIT;" : "ROLLBACK;"))
                        .ok());
        break;
      }
    }
  }

  SimClock clock_;
  LinkedServerRegistry links_;
  Server backend_;
  Server cache_;
  ReplicationSystem repl_;
  std::unique_ptr<MTCache> mtcache_;
  Random rng_;
  int64_t next_id_ = 1000;
};

TEST_P(ReplicationConvergenceTest, CheckerProvesViewsEqualAfterEveryRound) {
  ConsistencyChecker checker(&repl_, &backend_, &cache_);
  for (int round = 0; round < 10; ++round) {
    int burst = static_cast<int>(rng_.Uniform(1, 5));
    for (int i = 0; i < burst; ++i) RandomDml();
    clock_.Advance(0.3);
    ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
    // One fault-free round fully propagates the burst; the checker
    // recomputes every view against the backend and diffs row-by-row, and
    // verifies applied txns are a prefix of commit order.
    ConsistencyReport report = checker.Check();
    EXPECT_TRUE(report.ok())
        << "diverged after round " << round << ":\n" << report.ToString();
  }
  // No residue left anywhere in the pipeline.
  EXPECT_TRUE(repl_.Quiesced());
  EXPECT_EQ(repl_.PendingChanges(), 0);
  EXPECT_EQ(backend_.db().log().size(), 0);
}

TEST_P(ReplicationConvergenceTest, MaterializedViewMatchesOracleAfterEveryRound) {
  // A regular materialized view on the backend, maintained by the base
  // transactions, next to the cached views maintained by replication. It
  // leaves out px and sym, so view matching answers no checker query from it.
  ASSERT_TRUE(backend_
                  .ExecuteScript("CREATE MATERIALIZED VIEW cheap_flags AS "
                                 "SELECT sid, active FROM stock "
                                 "WHERE px <= 40")
                  .ok());
  // Oracle: the base rows filtered and projected here, not by the engine.
  auto expected = [&] {
    std::vector<std::pair<int64_t, int64_t>> rows;
    auto base = backend_.Execute("SELECT sid, active, px FROM stock");
    EXPECT_TRUE(base.ok()) << base.status().ToString();
    if (!base.ok()) return rows;
    for (const Row& row : base->rows) {
      if (!row[2].is_null() && row[2].AsDouble() <= 40) {
        rows.emplace_back(row[0].AsInt(), row[1].AsInt());
      }
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  auto actual = [&] {
    std::vector<std::pair<int64_t, int64_t>> rows;
    auto view = backend_.Execute("SELECT sid, active FROM cheap_flags");
    EXPECT_TRUE(view.ok()) << view.status().ToString();
    if (!view.ok()) return rows;
    for (const Row& row : view->rows) {
      rows.emplace_back(row[0].AsInt(), row[1].AsInt());
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  ASSERT_EQ(actual(), expected());
  ConsistencyChecker checker(&repl_, &backend_, &cache_);
  for (int round = 0; round < 10; ++round) {
    int burst = static_cast<int>(rng_.Uniform(1, 5));
    for (int i = 0; i < burst; ++i) RandomDml();
    clock_.Advance(0.3);
    ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
    EXPECT_EQ(actual(), expected()) << "view diverged after round " << round;
    ConsistencyReport report = checker.Check();
    EXPECT_TRUE(report.ok())
        << "diverged after round " << round << ":\n" << report.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplicationConvergenceTest,
                         ::testing::Range(0, 8));

}  // namespace
}  // namespace mtcache
