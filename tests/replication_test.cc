#include <gtest/gtest.h>

#include <array>
#include <map>
#include <utility>

#include "check/consistency.h"
#include "common/random.h"
#include "repl/replication.h"

namespace mtcache {
namespace {

class ReplicationTest : public ::testing::Test {
 protected:
  ReplicationTest()
      : backend_(ServerOptions{"backend", "dbo", {}}, &clock_, &links_),
        cache_(ServerOptions{"cache", "dbo", {}}, &clock_, &links_),
        repl_(&clock_) {}

  void SetUp() override {
    ASSERT_TRUE(backend_
                    .ExecuteScript(
                        "CREATE TABLE customer (c_id INT PRIMARY KEY, "
                        "c_name VARCHAR(30), c_region VARCHAR(10), "
                        "c_balance FLOAT)")
                    .ok());
    for (int i = 1; i <= 20; ++i) {
      std::string region = i <= 10 ? "east" : "west";
      ASSERT_TRUE(backend_
                      .ExecuteScript("INSERT INTO customer VALUES (" +
                                     std::to_string(i) + ", 'cust" +
                                     std::to_string(i) + "', '" + region +
                                     "', 0.0)")
                      .ok());
    }
    // Target table on the cache: east customers, name+id only.
    ASSERT_TRUE(cache_
                    .ExecuteScript(
                        "CREATE TABLE customer_east (c_id INT PRIMARY KEY, "
                        "c_name VARCHAR(30))")
                    .ok());
    repl_.AddPublisher(&backend_);
    Article article;
    article.name = "customer_east_article";
    article.def.base_table = "customer";
    article.def.columns = {"c_id", "c_name"};
    article.def.predicates = {
        {"c_region", CompareOp::kEq, Value::String("east")}};
    auto sub = repl_.Subscribe(&backend_, article, &cache_, "customer_east");
    ASSERT_TRUE(sub.ok()) << sub.status().ToString();
    sub_id_ = *sub;
  }

  int64_t CountCacheRows() {
    auto r = cache_.Execute("SELECT COUNT(*) FROM customer_east");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r->rows[0][0].AsInt();
  }

  void InsertEastRow(int id) {
    ASSERT_TRUE(backend_
                    .ExecuteScript("INSERT INTO customer VALUES (" +
                                   std::to_string(id) + ", 'c" +
                                   std::to_string(id) + "', 'east', 0.0)")
                    .ok());
  }

  SimClock clock_;
  LinkedServerRegistry links_;
  Server backend_;
  Server cache_;
  ReplicationSystem repl_;
  int64_t sub_id_ = 0;
};

TEST_F(ReplicationTest, InsertPropagatesWhenMatchingArticle) {
  ASSERT_TRUE(backend_
                  .ExecuteScript(
                      "INSERT INTO customer VALUES (21, 'new east', 'east', 0.0)")
                  .ok());
  ExecStats pub_stats, sub_stats;
  ASSERT_TRUE(repl_.RunOnce(&pub_stats, &sub_stats).ok());
  EXPECT_EQ(CountCacheRows(), 1);
  EXPECT_GT(pub_stats.local_cost, 0) << "log reader/distributor work";
  EXPECT_GT(sub_stats.local_cost, 0) << "apply work";
}

TEST_F(ReplicationTest, NonMatchingInsertFilteredOut) {
  ASSERT_TRUE(backend_
                  .ExecuteScript(
                      "INSERT INTO customer VALUES (22, 'new west', 'west', 0.0)")
                  .ok());
  ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
  EXPECT_EQ(CountCacheRows(), 0);
}

TEST_F(ReplicationTest, ProjectionDropsUnpublishedColumns) {
  ASSERT_TRUE(backend_
                  .ExecuteScript(
                      "INSERT INTO customer VALUES (23, 'eve', 'east', 9.5)")
                  .ok());
  ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
  auto r = cache_.Execute("SELECT c_id, c_name FROM customer_east");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][1].AsString(), "eve");
}

TEST_F(ReplicationTest, UpdatePropagates) {
  ASSERT_TRUE(backend_
                  .ExecuteScript(
                      "INSERT INTO customer VALUES (24, 'old name', 'east', 0.0)")
                  .ok());
  ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
  ASSERT_TRUE(backend_
                  .ExecuteScript(
                      "UPDATE customer SET c_name = 'new name' WHERE c_id = 24")
                  .ok());
  ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
  auto r = cache_.Execute("SELECT c_name FROM customer_east WHERE c_id = 24");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsString(), "new name");
}

TEST_F(ReplicationTest, UpdateMovingRowIntoArticleRegionInserts) {
  ASSERT_TRUE(backend_
                  .ExecuteScript(
                      "UPDATE customer SET c_region = 'east' WHERE c_id = 15")
                  .ok());
  ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
  auto r = cache_.Execute("SELECT c_id FROM customer_east WHERE c_id = 15");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 1u);
}

TEST_F(ReplicationTest, UpdateMovingRowOutOfRegionDeletes) {
  ASSERT_TRUE(backend_
                  .ExecuteScript(
                      "INSERT INTO customer VALUES (25, 'mover', 'east', 0.0)")
                  .ok());
  ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
  EXPECT_EQ(CountCacheRows(), 1);
  ASSERT_TRUE(backend_
                  .ExecuteScript(
                      "UPDATE customer SET c_region = 'west' WHERE c_id = 25")
                  .ok());
  ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
  EXPECT_EQ(CountCacheRows(), 0);
}

TEST_F(ReplicationTest, DeletePropagates) {
  ASSERT_TRUE(backend_
                  .ExecuteScript(
                      "INSERT INTO customer VALUES (26, 'gone', 'east', 0.0)")
                  .ok());
  ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
  ASSERT_TRUE(backend_.ExecuteScript("DELETE FROM customer WHERE c_id = 26").ok());
  ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
  EXPECT_EQ(CountCacheRows(), 0);
}

TEST_F(ReplicationTest, AbortedTransactionNeverShips) {
  ASSERT_TRUE(backend_
                  .ExecuteScript(
                      "BEGIN TRANSACTION; "
                      "INSERT INTO customer VALUES (27, 'phantom', 'east', 0.0); "
                      "ROLLBACK;")
                  .ok());
  ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
  EXPECT_EQ(CountCacheRows(), 0);
  EXPECT_EQ(repl_.metrics().changes_enqueued, 0);
}

TEST_F(ReplicationTest, MultiStatementTransactionAppliedAtomicallyInOrder) {
  ASSERT_TRUE(backend_
                  .ExecuteScript(
                      "BEGIN TRANSACTION; "
                      "INSERT INTO customer VALUES (28, 'a', 'east', 0.0); "
                      "INSERT INTO customer VALUES (29, 'b', 'east', 0.0); "
                      "UPDATE customer SET c_name = 'a2' WHERE c_id = 28; "
                      "COMMIT;")
                  .ok());
  ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
  auto r = cache_.Execute(
      "SELECT c_id, c_name FROM customer_east ORDER BY c_id");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 2u);
  EXPECT_EQ(r->rows[0][1].AsString(), "a2");
  EXPECT_EQ(repl_.metrics().txns_applied, 1);
}

TEST_F(ReplicationTest, LatencyMeasuredOnSimulatedClock) {
  ASSERT_TRUE(backend_
                  .ExecuteScript(
                      "INSERT INTO customer VALUES (30, 'timed', 'east', 0.0)")
                  .ok());
  clock_.Advance(0.75);  // replication delay before the agent fires
  ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
  EXPECT_NEAR(repl_.metrics().AvgLatency(), 0.75, 1e-9);
  EXPECT_NEAR(repl_.metrics().latency_max, 0.75, 1e-9);
}

TEST_F(ReplicationTest, LogReaderDisabledStopsPipeline) {
  repl_.set_log_reader_enabled(false);
  ASSERT_TRUE(backend_
                  .ExecuteScript(
                      "INSERT INTO customer VALUES (31, 'held', 'east', 0.0)")
                  .ok());
  ExecStats pub_stats;
  ASSERT_TRUE(repl_.RunOnce(&pub_stats, nullptr).ok());
  EXPECT_EQ(CountCacheRows(), 0);
  EXPECT_DOUBLE_EQ(pub_stats.local_cost, 0.0);
  // Re-enable: the pending log is drained.
  repl_.set_log_reader_enabled(true);
  ASSERT_TRUE(repl_.RunOnce(&pub_stats, nullptr).ok());
  EXPECT_EQ(CountCacheRows(), 1);
}

TEST_F(ReplicationTest, LogTruncatedAfterDistribution) {
  ASSERT_TRUE(backend_
                  .ExecuteScript(
                      "INSERT INTO customer VALUES (32, 'x', 'east', 0.0)")
                  .ok());
  EXPECT_GT(backend_.db().log().size(), 0);
  ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
  EXPECT_EQ(backend_.db().log().size(), 0);
}

TEST_F(ReplicationTest, SubscriberLogRetainsNoRecords) {
  // Nothing reads the cache's WAL, so the changes applied there leave no
  // records behind; the publisher's log is truncated after each scan.
  for (int i = 200; i < 210; ++i) InsertEastRow(i);
  EXPECT_GT(backend_.db().log().size(), 0);
  ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
  EXPECT_EQ(repl_.metrics().txns_applied, 10);
  EXPECT_EQ(cache_.db().log().size(), 0);
  EXPECT_EQ(backend_.db().log().size(), 0);
}

TEST_F(ReplicationTest, PendingChangesCountsQueue) {
  ASSERT_TRUE(backend_
                  .ExecuteScript(
                      "INSERT INTO customer VALUES (33, 'q', 'east', 0.0)")
                  .ok());
  ASSERT_TRUE(repl_.RunLogReader(&backend_, nullptr).ok());
  EXPECT_EQ(repl_.PendingChanges(), 1);
  ASSERT_TRUE(repl_.RunDistributionAgent(&cache_, nullptr).ok());
  EXPECT_EQ(repl_.PendingChanges(), 0);
}

TEST_F(ReplicationTest, SubscriptionSkipsChangesPredatingItsSnapshot) {
  // Regression: changes logged BEFORE a subscription exists must not be
  // delivered to it (they are covered by the initial snapshot). Here the
  // "snapshot" is simulated by inserting the row into the target directly.
  ASSERT_TRUE(backend_
                  .ExecuteScript(
                      "INSERT INTO customer VALUES (40, 'pre', 'east', 0.0)")
                  .ok());
  // A second subscription created after that insert, with the row already
  // present in its target (as a real snapshot would have it).
  ASSERT_TRUE(cache_
                  .ExecuteScript(
                      "CREATE TABLE customer_east2 (c_id INT PRIMARY KEY, "
                      "c_name VARCHAR(30)); "
                      "INSERT INTO customer_east2 VALUES (40, 'pre')")
                  .ok());
  Article article;
  article.name = "late";
  article.def.base_table = "customer";
  article.def.columns = {"c_id", "c_name"};
  article.def.predicates = {
      {"c_region", CompareOp::kEq, Value::String("east")}};
  ASSERT_TRUE(
      repl_.Subscribe(&backend_, article, &cache_, "customer_east2").ok());
  // Without the per-subscription start LSN this round would try to re-insert
  // row 40 into customer_east2 and fail on the unique key.
  ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
  auto r = cache_.Execute("SELECT COUNT(*) FROM customer_east2");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt(), 1);
  // ...while the ORIGINAL (earlier) subscription did receive it.
  EXPECT_EQ(CountCacheRows(), 1);
}

TEST_F(ReplicationTest, ApplyConflictSurfacesAndPreservesAtomicity) {
  // Failure injection: someone tampers with the subscriber's backing table,
  // creating a key collision for the next replicated insert. The apply must
  // fail loudly, roll back the whole transaction's changes (commit-order
  // atomicity), and keep the batch queued for retry after repair.
  ASSERT_TRUE(cache_
                  .ExecuteScript(
                      "INSERT INTO customer_east VALUES (50, 'intruder')")
                  .ok());
  ASSERT_TRUE(backend_
                  .ExecuteScript(
                      "BEGIN TRANSACTION; "
                      "INSERT INTO customer VALUES (49, 'ok', 'east', 0.0); "
                      "INSERT INTO customer VALUES (50, 'clash', 'east', 0.0); "
                      "COMMIT;")
                  .ok());
  ASSERT_TRUE(repl_.RunLogReader(&backend_, nullptr).ok());
  Status apply = repl_.RunDistributionAgent(&cache_, nullptr);
  EXPECT_EQ(apply.code(), StatusCode::kAlreadyExists) << apply.ToString();
  // Atomic: row 49 must NOT have been half-applied.
  auto r = cache_.Execute("SELECT COUNT(*) FROM customer_east WHERE c_id = 49");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt(), 0);
  EXPECT_EQ(repl_.PendingChanges(), 2);
  // Repair (remove the intruder), wait out the retry backoff, and retry:
  // the batch drains.
  ASSERT_TRUE(
      cache_.ExecuteScript("DELETE FROM customer_east WHERE c_id = 50").ok());
  clock_.Advance(repl_.backoff_max());
  ASSERT_TRUE(repl_.RunDistributionAgent(&cache_, nullptr).ok());
  EXPECT_EQ(CountCacheRows(), 2);
  EXPECT_EQ(repl_.PendingChanges(), 0);
  EXPECT_GE(repl_.metrics().txns_retried, 1);
}

TEST_F(ReplicationTest, FailedDeliveryBacksOffUntilClockAdvances) {
  // A failed apply must not be retried hot: the subscription backs off on
  // the simulated clock, so an immediate agent run is a no-op.
  ASSERT_TRUE(cache_
                  .ExecuteScript("INSERT INTO customer_east VALUES (51, 'dup')")
                  .ok());
  ASSERT_TRUE(backend_
                  .ExecuteScript(
                      "INSERT INTO customer VALUES (51, 'clash', 'east', 0.0)")
                  .ok());
  ASSERT_TRUE(repl_.RunLogReader(&backend_, nullptr).ok());
  EXPECT_FALSE(repl_.RunDistributionAgent(&cache_, nullptr).ok());
  ASSERT_TRUE(
      cache_.ExecuteScript("DELETE FROM customer_east WHERE c_id = 51").ok());
  // Still backing off: nothing is delivered...
  ASSERT_TRUE(repl_.RunDistributionAgent(&cache_, nullptr).ok());
  EXPECT_EQ(repl_.PendingChanges(), 1);
  // ...until the clock passes the backoff deadline.
  clock_.Advance(repl_.backoff_max());
  ASSERT_TRUE(repl_.RunDistributionAgent(&cache_, nullptr).ok());
  EXPECT_EQ(repl_.PendingChanges(), 0);
  EXPECT_EQ(CountCacheRows(), 1);
}

TEST(ReplicationMetricsTest, AvgLatencyGuardsDivideByZero) {
  // Freshly-reset metrics have latency_count == 0; AvgLatency must return a
  // defined 0.0, not NaN (this pins the divide-by-zero guard).
  ReplicationMetrics metrics;
  EXPECT_EQ(metrics.latency_count, 0);
  EXPECT_EQ(metrics.AvgLatency(), 0.0);
  metrics.latency_sum = 3.5;  // stale sum with no samples still guards
  EXPECT_EQ(metrics.AvgLatency(), 0.0);
  metrics.latency_count = 2;
  EXPECT_DOUBLE_EQ(metrics.AvgLatency(), 1.75);
}

TEST_F(ReplicationTest, DeleteOfAlreadyMissingRowIsIdempotent) {
  // The subscriber may have lost a row (tampering/cleanup); a replicated
  // delete for it must not fail the pipeline.
  ASSERT_TRUE(backend_
                  .ExecuteScript(
                      "INSERT INTO customer VALUES (60, 'gone', 'east', 0.0)")
                  .ok());
  ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
  ASSERT_TRUE(
      cache_.ExecuteScript("DELETE FROM customer_east WHERE c_id = 60").ok());
  ASSERT_TRUE(
      backend_.ExecuteScript("DELETE FROM customer WHERE c_id = 60").ok());
  EXPECT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
  EXPECT_EQ(repl_.PendingChanges(), 0);
}

TEST_F(ReplicationTest, UnsubscribeStopsDeliveryAndDropsQueue) {
  ASSERT_TRUE(backend_
                  .ExecuteScript(
                      "INSERT INTO customer VALUES (70, 'x', 'east', 0.0)")
                  .ok());
  ASSERT_TRUE(repl_.RunLogReader(&backend_, nullptr).ok());
  EXPECT_EQ(repl_.PendingChanges(), 1);
  ASSERT_TRUE(repl_.Unsubscribe(sub_id_).ok());
  EXPECT_EQ(repl_.PendingChanges(), 0);
  ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
  EXPECT_EQ(CountCacheRows(), 0);
  EXPECT_EQ(repl_.Unsubscribe(sub_id_).code(), StatusCode::kNotFound);
}

TEST_F(ReplicationTest, BlockedStreamDoesNotStarveOtherSubscribers) {
  // A second cache subscribes to the same article: its own stream.
  Server cache2(ServerOptions{"cache2", "dbo", {}}, &clock_, &links_);
  ASSERT_TRUE(cache2
                  .ExecuteScript("CREATE TABLE customer_east (c_id INT "
                                 "PRIMARY KEY, c_name VARCHAR(30))")
                  .ok());
  Article east;
  east.name = "customer_east_article";
  east.def.base_table = "customer";
  east.def.columns = {"c_id", "c_name"};
  east.def.predicates = {{"c_region", CompareOp::kEq, Value::String("east")}};
  auto sub2 = repl_.Subscribe(&backend_, east, &cache2, "customer_east");
  ASSERT_TRUE(sub2.ok()) << sub2.status().ToString();
  // Cache 1's target vanishes, so its stream cannot deliver.
  ASSERT_TRUE(cache_.ExecuteScript("DROP TABLE customer_east").ok());
  InsertEastRow(90);
  Status first = repl_.RunOnce(nullptr, nullptr);
  EXPECT_EQ(first.code(), StatusCode::kNotFound) << first.ToString();
  auto r = cache2.Execute("SELECT COUNT(*) FROM customer_east WHERE c_id = 90");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][0].AsInt(), 1) << "cache 2 starved behind cache 1";
  ASSERT_TRUE(repl_.Unsubscribe(*sub2).ok());
}

TEST_F(ReplicationTest, VanishedTargetBlocksItsWholeStream) {
  // A second article on the same cache shares customer_east's stream.
  ASSERT_TRUE(cache_
                  .ExecuteScript("CREATE TABLE customer_west (c_id INT "
                                 "PRIMARY KEY, c_name VARCHAR(30))")
                  .ok());
  Article west;
  west.name = "customer_west_article";
  west.def.base_table = "customer";
  west.def.columns = {"c_id", "c_name"};
  west.def.predicates = {{"c_region", CompareOp::kEq, Value::String("west")}};
  ASSERT_TRUE(repl_.Subscribe(&backend_, west, &cache_, "customer_west").ok());
  ASSERT_TRUE(cache_.ExecuteScript("DROP TABLE customer_west").ok());
  ASSERT_TRUE(backend_
                  .ExecuteScript(
                      "INSERT INTO customer VALUES (80, 'w', 'west', 0.0); "
                      "INSERT INTO customer VALUES (81, 'e', 'east', 0.0)")
                  .ok());
  // The west txn cannot apply, and the east txn queued behind it waits:
  // apply is transactional and in commit order, per stream.
  Status blocked = repl_.RunOnce(nullptr, nullptr);
  EXPECT_EQ(blocked.code(), StatusCode::kNotFound) << blocked.ToString();
  EXPECT_EQ(CountCacheRows(), 0);
  // The stream backs off; once the article is unsubscribed its changes
  // leave the queue and the rest of the stream drains.
  ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
  EXPECT_EQ(CountCacheRows(), 0) << "retried inside the backoff window";
  ASSERT_TRUE(repl_.Unsubscribe(sub_id_ + 1).ok());
  clock_.Advance(repl_.backoff_max());
  ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
  EXPECT_EQ(CountCacheRows(), 1);
}

TEST_F(ReplicationTest, SubscribeIntoTargetWithoutPrimaryKeyRejected) {
  // Updates and deletes apply by primary key; a target without one used to
  // drop deletes and turn updates into inserts.
  ASSERT_TRUE(cache_
                  .ExecuteScript("CREATE TABLE customer_nopk (c_id INT, "
                                 "c_name VARCHAR(30))")
                  .ok());
  Article article;
  article.name = "nopk_article";
  article.def.base_table = "customer";
  article.def.columns = {"c_id", "c_name"};
  auto sub = repl_.Subscribe(&backend_, article, &cache_, "customer_nopk");
  EXPECT_EQ(sub.status().code(), StatusCode::kInvalidArgument)
      << sub.status().ToString();
  // A published table without a primary key is rejected too.
  ASSERT_TRUE(backend_.ExecuteScript("CREATE TABLE t (a INT, b INT)").ok());
  ASSERT_TRUE(
      cache_.ExecuteScript("CREATE TABLE t (a INT PRIMARY KEY, b INT)").ok());
  Article keyless;
  keyless.name = "t_article";
  keyless.def.base_table = "t";
  keyless.def.columns = {"a", "b"};
  auto keyless_sub = repl_.Subscribe(&backend_, keyless, &cache_, "t");
  EXPECT_EQ(keyless_sub.status().code(), StatusCode::kInvalidArgument)
      << keyless_sub.status().ToString();
  EXPECT_EQ(repl_.DescribeSubscriptions().size(), 1u);
}

TEST_F(ReplicationTest, TwoSubscribersBothReceive) {
  Server cache2(ServerOptions{"cache2", "dbo", {}}, &clock_, &links_);
  ASSERT_TRUE(cache2
                  .ExecuteScript(
                      "CREATE TABLE customer_east (c_id INT PRIMARY KEY, "
                      "c_name VARCHAR(30))")
                  .ok());
  Article article;
  article.name = "a2";
  article.def.base_table = "customer";
  article.def.columns = {"c_id", "c_name"};
  article.def.predicates = {
      {"c_region", CompareOp::kEq, Value::String("east")}};
  ASSERT_TRUE(repl_.Subscribe(&backend_, article, &cache2, "customer_east").ok());
  ASSERT_TRUE(backend_
                  .ExecuteScript(
                      "INSERT INTO customer VALUES (34, 'dup', 'east', 0.0)")
                  .ok());
  ASSERT_TRUE(repl_.RunLogReader(&backend_, nullptr).ok());
  ASSERT_TRUE(repl_.RunDistributionAgent(&cache_, nullptr).ok());
  ASSERT_TRUE(repl_.RunDistributionAgent(&cache2, nullptr).ok());
  EXPECT_EQ(CountCacheRows(), 1);
  auto r = cache2.Execute("SELECT COUNT(*) FROM customer_east");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt(), 1);
}

// ---------------------------------------------------------------------------
// Delivery units, history bounding, and metrics reset.
// ---------------------------------------------------------------------------

TEST_F(ReplicationTest, OneDeliveryUnitPerStreamTxn) {
  for (int i = 100; i < 110; ++i) InsertEastRow(i);
  ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
  EXPECT_EQ(CountCacheRows(), 10);
  // Every source txn is its own delivery unit on the cache's stream.
  EXPECT_EQ(repl_.metrics().batches_distributed, 10);
  EXPECT_EQ(repl_.metrics().AvgBatchSize(), 1.0);
  EXPECT_EQ(repl_.metrics().txns_applied, 10);
  std::vector<SubscriptionInfo> subs = repl_.DescribeSubscriptions();
  ASSERT_EQ(subs.size(), 1u);
  EXPECT_EQ(subs[0].applied_txns, subs[0].enqueued_txns);
  EXPECT_EQ(subs[0].queued_txns, 0);
  EXPECT_EQ(subs[0].inflight_applied, 0);
}

TEST(ReplicationBackoffTest, JitteredBackoffIsDeterministicUnderSeed) {
  // Two pipelines with the same backoff seed and the same failure sequence
  // must retry at exactly the same simulated time; jitter only ever SHRINKS
  // the deterministic exponential backoff (never extends past the cap).
  auto steps_until_drained = [](uint64_t seed) {
    SimClock clock;
    LinkedServerRegistry links;
    Server backend(ServerOptions{"backend", "dbo", {}}, &clock, &links);
    Server cache(ServerOptions{"cache", "dbo", {}}, &clock, &links);
    ReplicationSystem repl(&clock);
    EXPECT_TRUE(backend
                    .ExecuteScript(
                        "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
                    .ok());
    EXPECT_TRUE(
        cache.ExecuteScript("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
            .ok());
    Article article;
    article.name = "a";
    article.def.base_table = "t";
    article.def.columns = {"id", "v"};
    EXPECT_TRUE(repl.Subscribe(&backend, article, &cache, "t").ok());
    repl.set_retry_backoff(10.0, 100.0, 0.5);
    repl.set_backoff_seed(seed);
    // Force one delivery failure via a key collision, then repair it.
    EXPECT_TRUE(cache.ExecuteScript("INSERT INTO t VALUES (1, 0)").ok());
    EXPECT_TRUE(backend.ExecuteScript("INSERT INTO t VALUES (1, 7)").ok());
    EXPECT_TRUE(repl.RunLogReader(&backend, nullptr).ok());
    EXPECT_FALSE(repl.RunDistributionAgent(&cache, nullptr).ok());
    EXPECT_TRUE(cache.ExecuteScript("DELETE FROM t WHERE id = 1").ok());
    int steps = 0;
    while (repl.PendingChanges() > 0 && steps < 100) {
      clock.Advance(0.5);
      ++steps;
      EXPECT_TRUE(repl.RunDistributionAgent(&cache, nullptr).ok());
    }
    return steps;
  };
  int first = steps_until_drained(1234);
  int second = steps_until_drained(1234);
  EXPECT_EQ(first, second);
  // Jitter 0.5 on a 10 s base: the retry fires within (5, 10] seconds.
  EXPECT_GT(first, 10);
  EXPECT_LE(first, 20);
}

TEST_F(ReplicationTest, HistoryLimitBoundsVectorsAndKeepsInvariantCheckable) {
  repl_.set_history_limit(5);
  ConsistencyChecker checker(&repl_);
  for (int i = 300; i < 320; ++i) {
    InsertEastRow(i);
    ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
    // The prefix invariant stays checkable on the retained suffixes at
    // every point of the trim schedule.
    ConsistencyReport invariants = checker.CheckInvariants();
    ASSERT_TRUE(invariants.ok()) << invariants.ToString();
  }
  std::vector<SubscriptionInfo> subs = repl_.DescribeSubscriptions();
  ASSERT_EQ(subs.size(), 1u);
  EXPECT_EQ(subs[0].applied_txns.size(), 5u);
  EXPECT_EQ(subs[0].enqueued_txns.size(), 5u);
  EXPECT_EQ(subs[0].history_trimmed, 15);
  EXPECT_EQ(CountCacheRows(), 20);
  ConsistencyReport report = checker.CheckInvariants();
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST_F(ReplicationTest, DefaultHistoryLimitBoundsAStream) {
  const int64_t limit = ReplicationSystem::kDefaultHistoryLimit;
  ASSERT_EQ(repl_.history_limit(), limit);
  ConsistencyChecker checker(&repl_);
  // Drive the stream through more than twice the limit, in a few scans.
  const int64_t txns = 2 * limit + 100;
  for (int64_t i = 0; i < txns; ++i) {
    InsertEastRow(static_cast<int>(1000 + i));
    if ((i + 1) % 1000 == 0 || i + 1 == txns) {
      ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
      ConsistencyReport invariants = checker.CheckInvariants();
      ASSERT_TRUE(invariants.ok()) << invariants.ToString();
    }
  }
  std::vector<SubscriptionInfo> subs = repl_.DescribeSubscriptions();
  ASSERT_EQ(subs.size(), 1u);
  EXPECT_EQ(static_cast<int64_t>(subs[0].applied_txns.size()), limit);
  EXPECT_EQ(static_cast<int64_t>(subs[0].enqueued_txns.size()), limit);
  EXPECT_EQ(subs[0].history_trimmed, txns - limit);
  EXPECT_EQ(CountCacheRows(), txns);
}

TEST_F(ReplicationTest, ResetMetricsClearsEveryCounter) {
  InsertEastRow(400);
  clock_.Advance(0.25);
  ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
  EXPECT_GT(repl_.metrics().records_scanned, 0);
  EXPECT_GT(repl_.metrics().txns_applied, 0);
  EXPECT_GT(repl_.metrics().batches_distributed, 0);
  EXPECT_GT(repl_.metrics().lag_histogram.Count(), 0);
  repl_.ResetMetrics();
  EXPECT_EQ(repl_.metrics().records_scanned, 0);
  EXPECT_EQ(repl_.metrics().changes_enqueued, 0);
  EXPECT_EQ(repl_.metrics().changes_applied, 0);
  EXPECT_EQ(repl_.metrics().txns_applied, 0);
  EXPECT_EQ(repl_.metrics().batches_distributed, 0);
  EXPECT_EQ(repl_.metrics().AvgBatchSize(), 0.0);
  EXPECT_EQ(repl_.metrics().AvgLatency(), 0.0);
  EXPECT_EQ(repl_.metrics().lag_histogram.Count(), 0);
  EXPECT_EQ(repl_.metrics().lag_histogram.Max(), 0.0);
}

// The replication sanity gate: six published tables, six views on one cache,
// and a seeded insert/update/delete mix that includes multi-table and
// rolled-back transactions. After the drain every source txn that touched a
// view was applied exactly once, as one stream txn, and the cache equals the
// views recomputed on the backend.
TEST(ReplicationStreamTest, SixViewMixAppliesEachSourceTxnOnce) {
  constexpr int kTables = 6;
  constexpr int kSteps = 400;
  // View i keeps the rows with grp < kCut[i]; grp is drawn from [0, 2], so a
  // cut of 3 publishes the whole table.
  constexpr std::array<int64_t, kTables> kCut = {3, 2, 1, 3, 2, 1};
  SimClock clock;
  LinkedServerRegistry links;
  Server backend(ServerOptions{"backend", "dbo", {}}, &clock, &links);
  Server cache(ServerOptions{"cache", "dbo", {}}, &clock, &links);
  ReplicationSystem repl(&clock);
  for (int t = 0; t < kTables; ++t) {
    std::string n = std::to_string(t);
    ASSERT_TRUE(backend
                    .ExecuteScript("CREATE TABLE t" + n +
                                   " (id INT PRIMARY KEY, grp INT, v INT)")
                    .ok());
    ASSERT_TRUE(
        cache.ExecuteScript("CREATE TABLE v" + n + " (id INT PRIMARY KEY, v INT)")
            .ok());
    Article article;
    article.name = "a" + n;
    article.def.base_table = "t" + n;
    article.def.columns = {"id", "v"};
    article.def.predicates = {{"grp", CompareOp::kLt, Value::Int(kCut[t])}};
    ASSERT_TRUE(repl.Subscribe(&backend, article, &cache, "v" + n).ok());
  }

  using Rows = std::map<int64_t, std::pair<int64_t, int64_t>>;  // id->grp,v
  std::array<Rows, kTables> model;
  Random rng(0x5EED6);
  int64_t next_id = 1;
  int64_t expected_txns = 0;
  int64_t multi_table_commits = 0;
  for (int step = 0; step < kSteps; ++step) {
    const int statements = rng.Bernoulli(0.3)
                               ? static_cast<int>(rng.Uniform(2, 4))
                               : 1;
    const bool commit = statements == 1 || rng.Bernoulli(0.85);
    std::array<Rows, kTables> working = model;
    std::string sql;
    bool touched = false;
    bool tables_seen[kTables] = {};
    int tables = 0;
    for (int s = 0; s < statements; ++s) {
      const int t = static_cast<int>(rng.Uniform(0, kTables - 1));
      if (!tables_seen[t]) ++tables;
      tables_seen[t] = true;
      const std::string table = "t" + std::to_string(t);
      Rows& rows = working[t];
      const int64_t kind = rows.empty() ? 0 : rng.Uniform(0, 2);
      if (kind == 0) {
        int64_t id = next_id++;
        int64_t grp = rng.Uniform(0, 2);
        int64_t v = rng.Uniform(0, 99);
        sql += "INSERT INTO " + table + " VALUES (" + std::to_string(id) +
               ", " + std::to_string(grp) + ", " + std::to_string(v) + "); ";
        touched |= grp < kCut[t];
        rows[id] = {grp, v};
        continue;
      }
      auto it = rows.begin();
      std::advance(it, rng.Uniform(0, static_cast<int64_t>(rows.size()) - 1));
      const int64_t id = it->first;
      touched |= it->second.first < kCut[t];
      if (kind == 1) {
        int64_t grp = rng.Uniform(0, 2);
        int64_t v = it->second.second + 1 + rng.Uniform(0, 9);
        sql += "UPDATE " + table + " SET grp = " + std::to_string(grp) +
               ", v = " + std::to_string(v) +
               " WHERE id = " + std::to_string(id) + "; ";
        touched |= grp < kCut[t];
        it->second = {grp, v};
      } else {
        sql += "DELETE FROM " + table + " WHERE id = " + std::to_string(id) +
               "; ";
        rows.erase(it);
      }
    }
    if (statements > 1) {
      sql = "BEGIN TRANSACTION; " + sql + (commit ? "COMMIT;" : "ROLLBACK;");
    }
    ASSERT_TRUE(backend.ExecuteScript(sql).ok()) << sql;
    if (commit) {
      model = std::move(working);
      if (touched) ++expected_txns;
      if (touched && tables > 1) ++multi_table_commits;
    }
    if (step % 7 == 6) {
      clock.Advance(0.1);
      ASSERT_TRUE(repl.RunOnce(nullptr, nullptr).ok());
    }
  }
  ASSERT_TRUE(DrainPipeline(&repl, &clock).ok());
  EXPECT_GT(multi_table_commits, 0);
  EXPECT_EQ(repl.metrics().txns_applied, expected_txns);
  EXPECT_EQ(repl.metrics().batches_distributed, expected_txns);
  ConsistencyReport report = ConsistencyChecker(&repl).Check();
  EXPECT_TRUE(report.ok()) << report.ToString();
}

}  // namespace
}  // namespace mtcache
