#include <algorithm>

#include <gtest/gtest.h>

#include "check/consistency.h"
#include "mtcache/mtcache.h"
#include "repl/fault.h"

namespace mtcache {
namespace {

/// Snapshot/resync crash tests: killing a cached-view copy mid-flight must
/// either roll back cleanly or complete on retry — never leave a
/// half-populated backing table visible to the optimizer.
class MtcacheResyncTest : public ::testing::Test {
 protected:
  MtcacheResyncTest()
      : backend_(ServerOptions{"backend", "dbo", {}}, &clock_, &links_),
        cache_(ServerOptions{"cache", "dbo", {}}, &clock_, &links_),
        repl_(&clock_) {}

  void SetUp() override {
    ASSERT_TRUE(backend_
                    .ExecuteScript(
                        "CREATE TABLE product (p_id INT PRIMARY KEY, "
                        "p_name VARCHAR(30), p_cat VARCHAR(10), "
                        "p_price FLOAT)")
                    .ok());
    for (int i = 1; i <= 40; ++i) {
      std::string cat = i % 2 == 0 ? "hot" : "cold";
      ASSERT_TRUE(backend_
                      .ExecuteScript("INSERT INTO product VALUES (" +
                                     std::to_string(i) + ", 'p" +
                                     std::to_string(i) + "', '" + cat +
                                     "', " + std::to_string(i * 2.0) + ")")
                      .ok());
    }
    backend_.RecomputeStats();
    auto setup = MTCache::Setup(&cache_, &backend_, &repl_);
    ASSERT_TRUE(setup.ok()) << setup.status().ToString();
    mtcache_ = setup.ConsumeValue();
    mtcache_->set_fault_plan(&plan_);
    repl_.set_fault_plan(&plan_);
  }

  Status CreateHotView() {
    return mtcache_->CreateCachedView(
        "hot_products",
        "SELECT p_id, p_name FROM product WHERE p_cat = 'hot'");
  }

  /// Rows currently in a backing table, straight off the heap (bypasses the
  /// optimizer, which might otherwise route around a broken replica).
  std::vector<std::string> BackingRows(const std::string& name) {
    std::vector<std::string> rows;
    StoredTable* table = cache_.db().GetStoredTable(name);
    if (table == nullptr) return rows;
    for (RowId rid = 0; rid < table->heap().slot_count(); ++rid) {
      if (!table->heap().IsLive(rid)) continue;
      std::string s;
      for (const Value& v : table->heap().Get(rid)) {
        s += v.ToSqlLiteral();
        s += "|";
      }
      rows.push_back(std::move(s));
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  void ExpectConsistent() {
    ASSERT_TRUE(DrainPipeline(&repl_, &clock_).ok());
    ConsistencyReport report =
        ConsistencyChecker(&repl_, &backend_, &cache_).Check();
    EXPECT_TRUE(report.ok()) << report.ToString();
  }

  SimClock clock_;
  LinkedServerRegistry links_;
  Server backend_;
  Server cache_;
  ReplicationSystem repl_;
  std::unique_ptr<MTCache> mtcache_;
  FaultPlan plan_;
};

TEST_F(MtcacheResyncTest, CreateCrashMidCopyRollsBackCompletely) {
  plan_.AddRule(FaultSite::kSnapshotRow, FaultAction::kCrash, 5);
  Status crashed = CreateHotView();
  EXPECT_EQ(crashed.code(), StatusCode::kUnavailable) << crashed.ToString();
  // Nothing of the view survives: no catalog entry, no storage, so the
  // optimizer cannot possibly match a query to a half-populated replica.
  EXPECT_EQ(cache_.db().catalog().GetTable("hot_products"), nullptr);
  EXPECT_EQ(cache_.db().GetStoredTable("hot_products"), nullptr);
  EXPECT_EQ(mtcache_->DropCachedView("hot_products").code(),
            StatusCode::kNotFound);
  // Queries on the cache still answer correctly (routed to the backend).
  auto r = cache_.Execute(
      "SELECT COUNT(*) FROM product WHERE p_cat = 'hot'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][0].AsInt(), 20);
}

TEST_F(MtcacheResyncTest, CreateCompletesOnRetryAfterCrash) {
  plan_.AddRule(FaultSite::kSnapshotRow, FaultAction::kCrash, 5);
  EXPECT_EQ(CreateHotView().code(), StatusCode::kUnavailable);
  // The retry starts from scratch and completes.
  ASSERT_TRUE(CreateHotView().ok());
  EXPECT_EQ(static_cast<int64_t>(BackingRows("hot_products").size()), 20);
  // The recovered view replicates normally from its new snapshot position.
  ASSERT_TRUE(backend_
                  .ExecuteScript(
                      "INSERT INTO product VALUES (41, 'p41', 'hot', 82.0)")
                  .ok());
  ExpectConsistent();
  EXPECT_EQ(static_cast<int64_t>(BackingRows("hot_products").size()), 21);
}

TEST_F(MtcacheResyncTest, RefreshCrashMidCopyRestoresOldContents) {
  ASSERT_TRUE(CreateHotView().ok());
  // Simulate divergence (the condition a resync repairs): tamper a row out
  // of the backing table behind replication's back.
  {
    StoredTable* backing = cache_.db().GetStoredTable("hot_products");
    ASSERT_NE(backing, nullptr);
    auto txn = cache_.db().txn_manager().Begin();
    RowId victim = -1;
    for (RowId rid = 0; rid < backing->heap().slot_count(); ++rid) {
      if (backing->heap().IsLive(rid)) {
        victim = rid;
        break;
      }
    }
    ASSERT_GE(victim, 0);
    ASSERT_TRUE(backing->Delete(victim, txn.get()).ok());
    cache_.db().txn_manager().Commit(txn.get(), clock_.Now());
  }
  std::vector<std::string> tampered = BackingRows("hot_products");
  ASSERT_EQ(tampered.size(), 19u);

  // Visit counts are absolute over the plan's lifetime; aim the crash at
  // the 7th row of the upcoming refresh copy.
  plan_.AddRule(FaultSite::kSnapshotRow, FaultAction::kCrash,
                plan_.visits(FaultSite::kSnapshotRow) + 7);
  Status crashed = mtcache_->RefreshCachedView("hot_products");
  EXPECT_EQ(crashed.code(), StatusCode::kUnavailable) << crashed.ToString();
  // Rolled back cleanly: the exact pre-refresh contents, not a half-copied
  // mix of old and new rows.
  EXPECT_EQ(BackingRows("hot_products"), tampered);
  // The view is left unsubscribed, and the checker refuses to bless it.
  const TableDef* def = cache_.db().catalog().GetTable("hot_products");
  ASSERT_NE(def, nullptr);
  EXPECT_LT(def->subscription_id, 0);
  ConsistencyReport report =
      ConsistencyChecker(&repl_, &backend_, &cache_).Check();
  EXPECT_FALSE(report.ok());

  // Retrying the refresh repairs everything, including divergence that
  // accumulated while the view was dead.
  ASSERT_TRUE(backend_
                  .ExecuteScript(
                      "INSERT INTO product VALUES (42, 'p42', 'hot', 84.0)")
                  .ok());
  ASSERT_TRUE(mtcache_->RefreshCachedView("hot_products").ok());
  EXPECT_EQ(static_cast<int64_t>(BackingRows("hot_products").size()), 21);
  ExpectConsistent();
}

TEST_F(MtcacheResyncTest, OtherViewsKeepReplicatingWhileOneResyncFails) {
  ASSERT_TRUE(CreateHotView().ok());
  ASSERT_TRUE(mtcache_
                  ->CreateCachedView(
                      "cheap_products",
                      "SELECT p_id, p_price FROM product WHERE p_price <= 20")
                  .ok());
  plan_.AddRule(FaultSite::kSnapshotRow, FaultAction::kCrash,
                plan_.visits(FaultSite::kSnapshotRow) + 7);
  EXPECT_EQ(mtcache_->RefreshCachedView("hot_products").code(),
            StatusCode::kUnavailable);
  // The untouched view still receives changes.
  ASSERT_TRUE(backend_
                  .ExecuteScript(
                      "INSERT INTO product VALUES (43, 'p43', 'cold', 3.0)")
                  .ok());
  ASSERT_TRUE(DrainPipeline(&repl_, &clock_).ok());
  std::vector<std::string> cheap = BackingRows("cheap_products");
  EXPECT_EQ(cheap.size(), 11u);  // 10 loaded + the new cheap row
  // Repair the failed view; everything converges.
  ASSERT_TRUE(mtcache_->RefreshCachedView("hot_products").ok());
  ExpectConsistent();
}

TEST_F(MtcacheResyncTest, RefreshOnASharedStreamDropsOnlyItsStaleChanges) {
  // hot_products (A) and cheap_products (B) share the cache's one stream.
  ASSERT_TRUE(CreateHotView().ok());
  ASSERT_TRUE(mtcache_
                  ->CreateCachedView(
                      "cheap_products",
                      "SELECT p_id, p_price FROM product WHERE p_price <= 20")
                  .ok());
  // Three source txns queued for both views, not yet applied: A sees the
  // insert of 44; B sees the insert and update of 44 and the insert of 45.
  ASSERT_TRUE(backend_
                  .ExecuteScript(
                      "INSERT INTO product VALUES (44, 'p44', 'hot', 4.0); "
                      "UPDATE product SET p_price = 5.0 WHERE p_id = 44; "
                      "INSERT INTO product VALUES (45, 'p45', 'cold', 6.0)")
                  .ok());
  ASSERT_TRUE(repl_.RunLogReader(&backend_, nullptr).ok());
  const int64_t queued = repl_.PendingChanges();
  // Refreshing A re-snapshots it: its fresh copy already holds row 44, so
  // the queued insert of 44 must never be applied on top of it (it would
  // also fail on the key and block the stream).
  ASSERT_TRUE(mtcache_->RefreshCachedView("hot_products").ok());
  EXPECT_EQ(repl_.PendingChanges(), 3) << "B's three changes, of " << queued;
  ConsistencyChecker checker(&repl_, &backend_, &cache_);
  ConsistencyReport invariants = checker.CheckInvariants();
  EXPECT_TRUE(invariants.ok()) << invariants.ToString();
  // B's changes still apply, in commit order (the update after the insert).
  const int64_t applied_before = repl_.metrics().changes_applied;
  ASSERT_TRUE(repl_.RunDistributionAgent(&cache_, nullptr).ok());
  EXPECT_EQ(repl_.metrics().changes_applied - applied_before, 3);
  std::vector<std::string> cheap = BackingRows("cheap_products");
  EXPECT_NE(std::find(cheap.begin(), cheap.end(), "44|5.0|"), cheap.end());
  EXPECT_NE(std::find(cheap.begin(), cheap.end(), "45|6.0|"), cheap.end());
  invariants = checker.CheckInvariants();
  EXPECT_TRUE(invariants.ok()) << invariants.ToString();
  ExpectConsistent();
}

}  // namespace
}  // namespace mtcache
