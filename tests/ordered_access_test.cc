// Ordered index access, the bounded Sort, and cost-based join ordering:
// B+-tree backward iteration, Sort(top n) against stable_sort + Limit, a
// backward seek under TOP n that stops early, join orders that must not
// change answers on a backend or a cache, and the BestSellers plan and its
// time as the order count grows.

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "engine/server.h"
#include "exec/exec.h"
#include "mtcache/mtcache.h"
#include "opt/optimizer.h"
#include "repl/replication.h"
#include "storage/bptree.h"
#include "tpcw/cache_setup.h"
#include "tpcw/datagen.h"
#include "tpcw/procs.h"
#include "tpcw/schema.h"

namespace mtcache {
namespace {

// ---------------------------------------------------------------------------
// BPlusTree backward iteration.
// ---------------------------------------------------------------------------

Row K(int64_t v) { return Row{Value::Int(v)}; }

std::vector<int64_t> Backward(const BPlusTree& tree) {
  std::vector<int64_t> out;
  for (auto it = tree.Last(); it.Valid(); it.Prev()) {
    out.push_back(it.key()[0].AsInt());
  }
  return out;
}

std::vector<int64_t> Forward(const BPlusTree& tree) {
  std::vector<int64_t> out;
  for (auto it = tree.Begin(); it.Valid(); it.Next()) {
    out.push_back(it.key()[0].AsInt());
  }
  return out;
}

TEST(OrderedAccessTest, BPlusTreeBackwardIterationAcrossSplitsAndErases) {
  BPlusTree tree;
  EXPECT_FALSE(tree.Last().Valid());
  EXPECT_FALSE(tree.SeekLe(K(5)).Valid());
  // 2,000 keys in scrambled order: many leaf splits, three tree levels.
  std::vector<int64_t> keys;
  for (int64_t v = 0; v < 2000; ++v) keys.push_back((v * 7919) % 2000);
  for (int64_t v : keys) tree.Insert(K(v), v);
  std::vector<int64_t> expect = Forward(tree);
  ASSERT_EQ(expect.size(), 2000u);
  std::reverse(expect.begin(), expect.end());
  EXPECT_EQ(Backward(tree), expect);

  // Erase whole leaves' worth of keys (every key in [500, 900)) plus every
  // third key elsewhere, so the chain holds empty leaves to step over.
  for (int64_t v = 0; v < 2000; ++v) {
    if ((v >= 500 && v < 900) || v % 3 == 0) ASSERT_TRUE(tree.Erase(K(v), v));
  }
  expect = Forward(tree);
  std::reverse(expect.begin(), expect.end());
  EXPECT_EQ(Backward(tree), expect);
  for (size_t i = 1; i < expect.size(); ++i) {
    ASSERT_GT(expect[i - 1], expect[i]);
  }

  // Prefix seeks from the top of a range land on the right entry.
  auto le = tree.SeekLe(K(700));  // [500, 900) is gone
  ASSERT_TRUE(le.Valid());
  EXPECT_EQ(le.key()[0].AsInt(), 499);
  auto lt = tree.SeekLt(K(904));
  ASSERT_TRUE(lt.Valid());
  EXPECT_EQ(lt.key()[0].AsInt(), 902);  // 903 was erased (multiple of 3)
  EXPECT_FALSE(tree.SeekLt(K(1)).Valid());
  EXPECT_EQ(tree.SeekLe(K(5000)).key()[0].AsInt(), 1999);
}

TEST(OrderedAccessTest, BPlusTreeDuplicateKeysWalkBackwardByRowId) {
  BPlusTree tree;
  for (RowId rid = 0; rid < 300; ++rid) tree.Insert(K(rid % 3), rid);
  std::vector<RowId> rids;
  for (auto it = tree.SeekLe(K(1));
       it.Valid() && BPlusTree::ComparePrefix(it.key(), K(1)) == 0;
       it.Prev()) {
    rids.push_back(it.rowid());
  }
  ASSERT_EQ(rids.size(), 100u);
  EXPECT_EQ(rids.front(), 298);
  EXPECT_EQ(rids.back(), 1);
  EXPECT_TRUE(std::is_sorted(rids.rbegin(), rids.rend()));
}

// ---------------------------------------------------------------------------
// Executor: the bounded Sort and the early-stopping seek.
// ---------------------------------------------------------------------------

class OrderedExecTest : public ::testing::Test {
 protected:
  OrderedExecTest() : server_(ServerOptions{"s", "dbo", {}}, &clock_) {}

  void Exec(const std::string& sql) {
    auto r = server_.Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
  }

  // `rows` rows of t(id, grp, v): grp has only `groups` values, so sort
  // keys tie heavily.
  void Load(int rows, int groups) {
    Exec("CREATE TABLE t (id INT PRIMARY KEY, grp INT, v VARCHAR(10))");
    Exec("CREATE INDEX t_grp ON t (grp)");
    Random rng(17);
    std::string batch;
    for (int i = 0; i < rows; ++i) {
      batch += "INSERT INTO t VALUES (" + std::to_string(i) + ", " +
               std::to_string(rng.Uniform(0, groups - 1)) + ", 'v" +
               std::to_string(i % 7) + "');";
      if (batch.size() > 20000 || i + 1 == rows) {
        ASSERT_TRUE(server_.ExecuteScript(batch).ok());
        batch.clear();
      }
    }
    server_.RecomputeStats();
  }

  StatusOr<QueryResult> Run(const PhysicalOp& plan, bool batch,
                            OperatorProfile* profile = nullptr) {
    ExecContext ctx;
    ctx.storage = &server_.db();
    ctx.use_batch = batch;
    return ExecutePlan(plan, &ctx, profile);
  }

  SimClock clock_;
  Server server_;
};

PhysicalPtr SortOverScan(const TableDef* def, int64_t limit) {
  auto scan = std::make_unique<PhysSeqScan>();
  scan->def = def;
  scan->schema = def->schema;
  auto sort = std::make_unique<PhysSort>();
  // ORDER BY grp DESC, v: ties within (grp, v) are left to input order.
  sort->keys.push_back(SortKey{
      std::make_unique<BoundColumnRef>(1, TypeId::kInt64, "grp"), true});
  sort->keys.push_back(SortKey{
      std::make_unique<BoundColumnRef>(2, TypeId::kString, "v"), false});
  sort->limit = limit;
  sort->schema = def->schema;
  sort->children.push_back(std::move(scan));
  return sort;
}

TEST_F(OrderedExecTest, BoundedSortEqualsStableSortThenLimit) {
  Load(3000, 4);
  const TableDef* def = server_.db().catalog().GetTable("t");
  // The oracle: the scan's rows, std::stable_sort on the keys, then cut.
  auto scan = std::make_unique<PhysSeqScan>();
  scan->def = def;
  scan->schema = def->schema;
  auto input = Run(*scan, /*batch=*/true);
  ASSERT_TRUE(input.ok());
  std::vector<Row> sorted = input->rows;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Row& a, const Row& b) {
                     int c = a[1].Compare(b[1]);
                     if (c != 0) return c > 0;  // grp DESC
                     return a[2].Compare(b[2]) < 0;  // v ASC
                   });
  for (bool batch : {true, false}) {
    // -1: the unbounded Sort.
    for (int64_t n : {-1, 0, 1, 7, 333, 1500, 2999, 3000, 5000}) {
      auto got = Run(*SortOverScan(def, n), batch);
      ASSERT_TRUE(got.ok());
      size_t want = n < 0 ? sorted.size() : std::min<size_t>(n, sorted.size());
      ASSERT_EQ(got->rows.size(), want) << n;
      for (size_t i = 0; i < want; ++i) {
        ASSERT_EQ(got->rows[i][0].AsInt(), sorted[i][0].AsInt())
            << "row " << i << " of top " << n << (batch ? " batch" : " row");
      }
    }
  }
}

TEST_F(OrderedExecTest, BackwardSeekUnderTopPinsOnlyWhatTheLimitNeeds) {
  constexpr int kRows = 20000;
  constexpr int kTop = 50;
  Load(kRows, kRows);
  auto explained = server_.Explain(
      "SELECT TOP 50 id, grp FROM t ORDER BY grp DESC");
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  const PhysicalOp& plan = *explained->plan;
  std::string text = PhysicalToString(plan);
  ASSERT_EQ(text.find("Sort"), std::string::npos) << text;
  ASSERT_NE(text.find("IndexSeek(t.t_grp) [backward]"), std::string::npos)
      << text;
  for (bool batch : {true, false}) {
    OperatorProfile profile = MakeProfileTree(plan);
    auto r = Run(plan, batch, &profile);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r->rows.size(), static_cast<size_t>(kTop));
    for (int i = 1; i < kTop; ++i) {
      EXPECT_GE(r->rows[i - 1][1].AsInt(), r->rows[i][1].AsInt());
    }
    const OperatorProfile* seek = &profile;
    while (!seek->children.empty()) seek = &seek->children[0];
    ASSERT_EQ(seek->op_name.rfind("IndexSeek", 0), 0u) << seek->op_name;
    // The seek stops at the Limit's row count; the whole range would pin
    // kRows entries.
    EXPECT_LE(seek->mem_peak_bytes,
              static_cast<int64_t>(kTop * sizeof(RowPtr)));
  }
}

TEST_F(OrderedExecTest, SeekUnderTopWithResidualFilterReturnsTheFirstMatches) {
  Load(5000, 5000);
  auto explained = server_.Explain(
      "SELECT TOP 40 id, grp FROM t WHERE v = 'v3' ORDER BY grp DESC");
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  std::string text = PhysicalToString(*explained->plan);
  ASSERT_EQ(text.find("Sort"), std::string::npos) << text;
  ASSERT_NE(text.find("[backward]"), std::string::npos) << text;
  // The oracle: every matching row, sorted on grp descending.
  auto all = server_.Execute("SELECT grp FROM t WHERE v = 'v3'");
  ASSERT_TRUE(all.ok());
  std::vector<int64_t> want;
  for (const Row& row : all->rows) want.push_back(row[0].AsInt());
  std::sort(want.rbegin(), want.rend());
  want.resize(40);
  for (bool batch : {true, false}) {
    auto r = Run(*explained->plan, batch);
    ASSERT_TRUE(r.ok());
    std::vector<int64_t> got;
    for (const Row& row : r->rows) got.push_back(row[1].AsInt());
    EXPECT_EQ(got, want) << (batch ? "batch" : "row");
  }
}

// ---------------------------------------------------------------------------
// Join ordering never changes an answer.
// ---------------------------------------------------------------------------

std::vector<std::string> Multiset(const QueryResult& r) {
  std::vector<std::string> out;
  for (const Row& row : r.rows) {
    std::string s;
    for (const Value& v : row) s += v.ToString() + "|";
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Five tables r0..r4 (id pk, a indexed, b, c) of different sizes, and a
// seeded generator of 3–5-way joins in random FROM order: a spanning tree of
// equi-joins over id/a/b, plus an optional filter or parameter predicate.
class JoinOrderTest : public ::testing::Test {
 protected:
  static constexpr int kTables = 5;
  static constexpr int kRows[kTables] = {40, 400, 120, 900, 60};

  JoinOrderTest()
      : backend_(ServerOptions{"backend", "dbo", {}}, &clock_, &links_),
        cache_(ServerOptions{"cache1", "dbo", {}}, &clock_, &links_),
        repl_(&clock_) {}

  void SetUp() override {
    Random rng(4242);
    for (int t = 0; t < kTables; ++t) {
      std::string name = "r" + std::to_string(t);
      ASSERT_TRUE(backend_
                      .ExecuteScript("CREATE TABLE " + name +
                                     " (id INT PRIMARY KEY, a INT, b INT, "
                                     "c VARCHAR(8)); CREATE INDEX " + name +
                                     "_a ON " + name + " (a)")
                      .ok());
      std::string batch;
      for (int i = 1; i <= kRows[t]; ++i) {
        batch += "INSERT INTO " + name + " VALUES (" + std::to_string(i) +
                 ", " + std::to_string(rng.Uniform(1, 60)) + ", " +
                 std::to_string(rng.Uniform(1, 200)) + ", 'c" +
                 std::to_string(rng.Uniform(0, 4)) + "');";
      }
      ASSERT_TRUE(backend_.ExecuteScript(batch).ok());
    }
    backend_.RecomputeStats();
    auto setup = MTCache::Setup(&cache_, &backend_, &repl_);
    ASSERT_TRUE(setup.ok()) << setup.status().ToString();
    mtcache_ = setup.ConsumeValue();
    // r0..r2 fully cached (local), r3 half cached (dynamic plans on
    // `r3.id <= @p`), r4 only shadowed (remote).
    for (const char* view : {"r0", "r1", "r2"}) {
      ASSERT_TRUE(mtcache_
                      ->CreateCachedView(std::string(view) + "_cache",
                                         std::string("SELECT * FROM ") + view)
                      .ok());
    }
    ASSERT_TRUE(
        mtcache_->CreateCachedView("r3_cache", "SELECT * FROM r3 WHERE id <= 450")
            .ok());
  }

  std::string Query(Random* rng, bool* has_param) {
    int n = static_cast<int>(rng->Uniform(3, kTables));
    std::vector<int> tables = {0, 1, 2, 3, 4};
    for (int i = kTables - 1; i > 0; --i) {
      std::swap(tables[i], tables[rng->Uniform(0, i)]);
    }
    tables.resize(n);
    const char* cols[] = {"id", "a", "b"};
    std::string from;
    std::string where;
    std::string select;
    for (int i = 0; i < n; ++i) {
      std::string alias = "t" + std::to_string(i);
      from += (i > 0 ? ", r" : "r") + std::to_string(tables[i]) + " " + alias;
      select += (i > 0 ? ", " : "") + alias + ".id";
      if (i == 0) continue;
      int other = static_cast<int>(rng->Uniform(0, i - 1));
      where += (where.empty() ? "" : " AND ") + alias + "." +
               cols[rng->Uniform(0, 2)] + " = t" + std::to_string(other) + "." +
               cols[rng->Uniform(0, 2)];
    }
    *has_param = false;
    int pick = static_cast<int>(rng->Uniform(0, n - 1));
    std::string alias = "t" + std::to_string(pick);
    switch (rng->Uniform(0, 3)) {
      case 0:
        where += " AND " + alias + ".c = 'c" +
                 std::to_string(rng->Uniform(0, 4)) + "'";
        break;
      case 1:
        where += " AND " + alias + ".b < " +
                 std::to_string(rng->Uniform(20, 180));
        break;
      case 2: {
        // Parameter predicate on the id, on r3 when it takes part: there it
        // becomes the dynamic-plan guard against the cached range.
        auto r3 = std::find(tables.begin(), tables.end(), 3);
        if (r3 != tables.end()) {
          alias = "t" + std::to_string(r3 - tables.begin());
        }
        where += " AND " + alias + ".id <= @p";
        *has_param = true;
        break;
      }
      default:
        break;
    }
    return "SELECT " + select + " FROM " + from + " WHERE " + where;
  }

  SimClock clock_;
  LinkedServerRegistry links_;
  Server backend_;
  Server cache_;
  ReplicationSystem repl_;
  std::unique_ptr<MTCache> mtcache_;
};

TEST_F(JoinOrderTest, ReorderedJoinsReturnFromOrderAnswers) {
  // The reference answer: the backend with reordering switched off.
  OptimizerOptions from_order = backend_.optimizer_options();
  from_order.reorder_joins = false;
  Random rng(20030609);
  int reordered = 0;
  int remote = 0;
  int dynamic = 0;
  for (int q = 0; q < 80; ++q) {
    bool has_param = false;
    std::string sql = Query(&rng, &has_param);
    ParamMap params;
    if (has_param) params["@p"] = Value::Int(rng.Uniform(100, 800));
    SCOPED_TRACE("seed 20030609 query " + std::to_string(q) + ": " + sql +
                 (has_param ? " @p=" + params["@p"].ToString() : ""));

    auto cached = cache_.Execute(sql, params, nullptr);
    auto reordered_backend = backend_.Execute(sql, params, nullptr);
    ASSERT_TRUE(cached.ok()) << cached.status().ToString();
    ASSERT_TRUE(reordered_backend.ok())
        << reordered_backend.status().ToString();
    auto plan_on = backend_.Explain(sql);
    backend_.set_optimizer_options(from_order);
    auto want = backend_.Execute(sql, params, nullptr);
    auto plan_off = backend_.Explain(sql);
    OptimizerOptions on = from_order;
    on.reorder_joins = true;
    backend_.set_optimizer_options(on);
    ASSERT_TRUE(want.ok() && plan_on.ok() && plan_off.ok());

    EXPECT_EQ(Multiset(*reordered_backend), Multiset(*want));
    EXPECT_EQ(Multiset(*cached), Multiset(*want));

    if (PhysicalToString(*plan_on->plan) != PhysicalToString(*plan_off->plan)) {
      ++reordered;
    }
    auto cache_plan = cache_.Explain(sql);
    ASSERT_TRUE(cache_plan.ok());
    remote += cache_plan->uses_remote ? 1 : 0;
    dynamic += cache_plan->dynamic_plan ? 1 : 0;
  }
  // The corpus exercises what it claims to: reordered plans, and cache
  // plans that ship work to the backend or guard a cached range.
  EXPECT_GT(reordered, 10);
  EXPECT_GT(remote, 5);
  EXPECT_GT(dynamic, 2);
}

// ---------------------------------------------------------------------------
// BestSellers on a TPC-W cache.
// ---------------------------------------------------------------------------

// A backend with TPC-W data at `num_orders` and a fully cached MTCache
// server in front of it.
struct TpcwPair {
  explicit TpcwPair(int num_orders)
      : backend(ServerOptions{"backend", "dbo", {}}, &clock, &links),
        cache(ServerOptions{"cache1", "dbo", {}}, &clock, &links),
        repl(&clock) {
    config.num_orders = num_orders;
  }

  Status Init() {
    MT_RETURN_IF_ERROR(tpcw::CreateSchema(&backend));
    MT_RETURN_IF_ERROR(tpcw::GenerateData(&backend, config));
    MT_RETURN_IF_ERROR(tpcw::CreateProcedures(&backend, config));
    clock.AdvanceTo(tpcw::LoadEndTime(config));
    MT_ASSIGN_OR_RETURN(mtcache, MTCache::Setup(&cache, &backend, &repl));
    return tpcw::SetupTpcwCache(mtcache.get(), config);
  }

  // The BestSellers statement as the cache compiles it.
  StatusOr<OptimizeResult> ExplainBestSellers(Server* server) {
    const ProcedureDef* proc =
        server->db().catalog().GetProcedure("getbestsellers");
    if (proc == nullptr) return Status::NotFound("getbestsellers");
    return server->Explain(proc->body_source);
  }

  // Best of `reps` rounds, each calling BestSellers once per subject in
  // `subjects`; microseconds per call.
  double BestCallMicros(int reps, int subjects) {
    double best = 1e30;
    for (int r = 0; r < reps; ++r) {
      auto start = std::chrono::steady_clock::now();
      for (int s = 0; s < subjects; ++s) {
        auto res = cache.CallProcedure(
            "getbestsellers", {Value::String(tpcw::kSubjects[s])}, nullptr);
        EXPECT_TRUE(res.ok()) << res.status().ToString();
      }
      double us = std::chrono::duration<double, std::micro>(
                      std::chrono::steady_clock::now() - start)
                      .count() /
                  subjects;
      best = std::min(best, us);
    }
    return best;
  }

  SimClock clock;
  LinkedServerRegistry links;
  Server backend;
  Server cache;
  ReplicationSystem repl;
  std::unique_ptr<MTCache> mtcache;
  tpcw::TpcwConfig config;
};

TEST(BestSellersTest, CachePlanSeeksRecentOrdersWithoutSortOrScan) {
  TpcwPair pair(2590);
  ASSERT_TRUE(pair.Init().ok());
  for (Server* server : {&pair.cache, &pair.backend}) {
    auto r = pair.ExplainBestSellers(server);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    std::string text = PhysicalToString(*r->plan);
    SCOPED_TRACE(server->name() + "\n" + text);
    // The only Sort is the root's ORDER BY total DESC, bounded by TOP 50.
    EXPECT_EQ(text.rfind("Sort(top 50)", 0), 0u);
    EXPECT_EQ(text.find("Sort", 1), std::string::npos);
    for (const char* table : {"orders", "order_line"}) {
      std::string name = server == &pair.cache
                             ? std::string(table) + "_cache"
                             : std::string(table);
      EXPECT_EQ(text.find("SeqScan(" + name + ")"), std::string::npos);
    }
    EXPECT_NE(text.find("orders_date") , std::string::npos);
    EXPECT_FALSE(r->uses_remote);
    // Join enumeration stays cheap: at most 10x the FROM-order planner's
    // 28 alternatives for this statement.
    EXPECT_LE(r->alternatives_considered, 280);
  }
}

// ROADMAP item 8's gate: BestSellers time does not grow with the order
// count. Best-of-N per size, both sizes in this one binary.
TEST(BestSellersTest, TimeIndependentOfOrderCount) {
  TpcwPair small(2590);
  ASSERT_TRUE(small.Init().ok());
  TpcwPair large(20000);
  ASSERT_TRUE(large.Init().ok());
  constexpr int kReps = 7;
  constexpr int kSubjects = 6;
  small.BestCallMicros(1, kSubjects);  // warm the plan caches
  large.BestCallMicros(1, kSubjects);
  double t_small = small.BestCallMicros(kReps, kSubjects);
  double t_large = large.BestCallMicros(kReps, kSubjects);
  RecordProperty("best_sellers_us_2590", std::to_string(t_small));
  RecordProperty("best_sellers_us_20000", std::to_string(t_large));
  EXPECT_LE(t_large, 2.0 * t_small)
      << "2,590 orders: " << t_small << " us; 20,000 orders: " << t_large
      << " us";
}

}  // namespace
}  // namespace mtcache
