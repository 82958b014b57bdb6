#ifndef MTCACHE_REPL_REPLICATION_H_
#define MTCACHE_REPL_REPLICATION_H_

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "catalog/view_def.h"
#include "common/atomics.h"
#include "common/histogram.h"
#include "common/random.h"
#include "common/sim_clock.h"
#include "engine/server.h"
#include "engine/view_util.h"
#include "repl/fault.h"

namespace mtcache {

/// A replication article: a select-project expression over a published table
/// (§2.2: "an article may contain only a subset of the columns and rows of
/// the underlying table or materialized view").
struct Article {
  std::string name;
  SelectProjectDef def;
};

/// A publication groups articles on one publisher.
struct Publication {
  std::string name;
  std::vector<Article> articles;
};

/// One change of a stream transaction, tagged with the article it belongs
/// to (the subscription id, which names the target table to apply it to).
struct StreamChange {
  int64_t article = 0;
  ReplChange change;
};

/// A committed source transaction's changes for one stream: every article
/// the (publisher, subscriber) pair carries. Changes propagate "one complete
/// (committed) transaction at a time in commit order", and the subscriber
/// applies all of them in one local transaction, so a cache only ever passes
/// through states the publisher had — across all of its views.
struct PendingTxn {
  TxnId source_txn = 0;
  double commit_time = 0;
  std::vector<StreamChange> changes;
  /// Delivery attempts so far (drives the txns_retried metric).
  int64_t attempts = 0;
};

/// Relaxed atomics: the pipeline bumps these from the replication driver
/// while concurrent sessions read them through the sys.dm_repl_metrics
/// provider.
struct ReplicationMetrics {
  RelaxedInt64 records_scanned = 0;     // log reader work
  RelaxedInt64 changes_enqueued = 0;    // distributor work
  RelaxedInt64 changes_applied = 0;     // subscriber work
  RelaxedInt64 txns_applied = 0;        // stream txns committed locally
  RelaxedInt64 txns_retried = 0;        // deliveries re-attempted after fail
  RelaxedInt64 crashes_injected = 0;    // pipeline crashes taken (FaultPlan)
  RelaxedInt64 deliveries_dropped = 0;  // deliveries lost in transit (retried)
  RelaxedDouble latency_sum = 0;        // commit-to-commit, seconds
  RelaxedDouble latency_max = 0;
  RelaxedInt64 latency_count = 0;
  /// Delivery units formed by the log reader: one per stream transaction.
  RelaxedInt64 batches_distributed = 0;
  /// Full commit→apply lag distribution (simulated seconds): the source of
  /// sys.dm_repl_lag_histogram and the p50/p95/p99 in sys.dm_repl_metrics.
  LogHistogram lag_histogram;

  double AvgLatency() const {
    int64_t n = latency_count;
    return n > 0 ? latency_sum / n : 0.0;
  }
  /// Source txns per delivery unit, as sys.dm_repl_metrics reports it: a
  /// delivery unit is one stream transaction, so 1.0 once anything has been
  /// distributed and 0 before.
  double AvgBatchSize() const { return batches_distributed > 0 ? 1.0 : 0.0; }

  /// Field-wise atomic reset. Unlike reassigning the whole struct, this
  /// never copy-constructs over fields a concurrent DMV reader is loading:
  /// each counter is individually stored to zero, so readers see a plain
  /// point-in-time (possibly mid-reset) snapshot, never a torn one.
  void Reset() {
    records_scanned.store(0);
    changes_enqueued.store(0);
    changes_applied.store(0);
    txns_applied.store(0);
    txns_retried.store(0);
    crashes_injected.store(0);
    deliveries_dropped.store(0);
    latency_sum.store(0.0);
    latency_max.store(0.0);
    latency_count.store(0);
    batches_distributed.store(0);
    lag_histogram.Reset();
  }
};

/// Read-only snapshot of one subscription (article) and of the stream that
/// carries it, for the consistency checker: the article definition to
/// recompute against the publisher, the target to diff, and the stream's
/// enqueue/apply histories for the commit-order prefix invariant. Every
/// article on one stream reports the same stream fields; the checker states
/// the stream invariants once per stream_id.
struct SubscriptionInfo {
  int64_t id = 0;
  int64_t stream_id = 0;
  Server* publisher = nullptr;
  Server* subscriber = nullptr;
  SelectProjectDef def;
  std::string target_table;
  int64_t queued_txns = 0;  // stream txns distributed but not yet acked
  std::vector<TxnId> enqueued_txns;  // commit order, as distributed
  std::vector<TxnId> applied_txns;   // acked, in commit order
  /// Entries trimmed off the FRONT of both histories above once more than
  /// history_limit() acked txns are retained; both lose the same settled
  /// prefix, so the element-wise prefix invariant survives the trim.
  int64_t history_trimmed = 0;
  /// 1 when the stream's front txn committed locally but is not acked yet
  /// (the crash-safe apply watermark), else 0.
  int64_t inflight_applied = 0;
};

/// The replication pipeline: publishers' log readers, the distribution
/// database, and push distribution agents. All components are polled
/// explicitly (by tests, examples, or the multi-server simulation), never by
/// background threads, so every run is deterministic.
///
/// Delivery unit: every (publisher, subscriber) pair has one stream — one
/// queue, one apply watermark, one backoff, one pair of histories — that
/// carries all of the subscriber's articles from that publisher, as SQL
/// Server's distribution agent serves one subscription database. A source
/// transaction that writes several published tables reaches each subscriber
/// as one PendingTxn and is applied there in one local transaction, in
/// commit order, so a cache never shows one view ahead of another.
///
/// Failure model: a FaultPlan (set_fault_plan) can crash any stage
/// mid-operation, drop or delay deliveries, and stall WAL reads. Every stage
/// recovers on its next poll:
///   - The log reader works on shadow state (copies of its open-transaction
///     map plus a staging area for distributed txns) and commits the scan —
///     read position, open txns, queues, log truncation — only when the whole
///     scan succeeds. A crash discards the shadow state, so the restarted
///     reader resumes from the durable LSN and re-distributes exactly once.
///   - The distribution database (the stream queues) is durable; a dropped or
///     delayed delivery stays queued and is retried.
///   - The subscriber applies each stream txn inside one local transaction
///     and sets the stream's apply watermark ("front txn committed locally,
///     not yet acked") in the same commit. A crash mid-apply rolls the whole
///     txn back; a crash after the commit leaves the watermark set, and the
///     redelivery acks the txn without applying it again (exactly-once
///     apply).
///   - A failed stream backs off exponentially (with optional deterministic
///     jitter) on the simulated clock before its next attempt. A stream txn
///     whose target table has vanished fails the same way and so blocks the
///     whole stream until the table is back or the article is unsubscribed:
///     the price of transactional apply, as in SQL Server.
class ReplicationSystem {
 public:
  /// Default bound on each stream's enqueue/apply histories.
  static constexpr int64_t kDefaultHistoryLimit = 4096;

  explicit ReplicationSystem(SimClock* clock) : clock_(clock) {}

  /// Registers a publisher. Log reading starts at the *current* end of its
  /// log (which from now on retains records for the reader): pre-existing
  /// data must be carried over by a snapshot (the cached view manager does
  /// this before subscribing).
  void AddPublisher(Server* publisher);

  /// Creates a publication implicitly (one article) and a push subscription
  /// delivering the article's changes into `target_table` on `subscriber`,
  /// on the stream of the (publisher, subscriber) pair. Returns the
  /// subscription id, which names the article. InvalidArgument when an
  /// article column is not in the published table, when that table has no
  /// primary key, or when the target's index 0 is not its primary key:
  /// changes apply by key.
  StatusOr<int64_t> Subscribe(Server* publisher, const Article& article,
                              Server* subscriber,
                              const std::string& target_table);

  /// Drops the article and strips its changes from the stream's queued
  /// txns, so a re-subscribed (refreshed) copy never sees them; the other
  /// articles' changes still apply, in order.
  Status Unsubscribe(int64_t subscription_id);

  /// Log reader + distributor step for one publisher: scans new WAL records,
  /// groups them per committed transaction, filters/projects them per
  /// article, and enqueues one PendingTxn per stream in the distribution
  /// database. Work is charged to `publisher_stats` — this is the §6.2.2
  /// backend overhead. When `enabled=false` (the log reader is "turned
  /// off"), nothing happens. Returns kUnavailable when an injected fault
  /// crashed the reader; the scan had no effect and the next call resumes
  /// from the same position.
  Status RunLogReader(Server* publisher, ExecStats* publisher_stats);

  /// Push distribution agent for one subscriber: delivers every queued txn
  /// of its streams in commit order, each inside one subscriber-local
  /// transaction, then acks it. Apply work is charged to `subscriber_stats`
  /// (§6.2.2 mid-tier overhead); commit-to-commit latency is recorded in the
  /// metrics (§6.2.3). Returns kUnavailable when an injected fault crashed
  /// the agent; undelivered txns stay queued and are retried after a
  /// backoff.
  Status RunDistributionAgent(Server* subscriber, ExecStats* subscriber_stats);

  /// Convenience: one full pipeline round for every publisher + stream.
  /// Every stream gets its delivery attempt even when another fails; the
  /// first failure is returned.
  Status RunOnce(ExecStats* publisher_stats, ExecStats* subscriber_stats);

  /// Total changes sitting in the distribution database.
  int64_t PendingChanges() const;

  /// True when nothing is in flight anywhere: no queued deliveries, no open
  /// transactions being accumulated, and every publisher log fully scanned.
  /// This is the quiesce point at which the consistency checker's row-level
  /// diff is meaningful.
  bool Quiesced() const;

  const ReplicationMetrics& metrics() const { return metrics_; }
  /// Field-wise atomic reset — safe against concurrent sys.dm_repl_metrics
  /// readers (see ReplicationMetrics::Reset).
  void ResetMetrics() { metrics_.Reset(); }

  /// Folds externally measured commit→apply lag samples into the pipeline
  /// metrics. The DES fleet simulation replays profiled replication work on
  /// virtual machines and records each transaction's simulated lag here, so
  /// sys.dm_repl_lag_histogram (served off metrics().lag_histogram) reports
  /// the simulated fleet's distribution through the same DMV path as a real
  /// run's.
  void MergeLagHistogram(const LogHistogram& lag) {
    metrics_.lag_histogram.Merge(lag);
  }

  /// Snapshots of all live subscriptions (see SubscriptionInfo).
  std::vector<SubscriptionInfo> DescribeSubscriptions() const;

  /// The §6.2.2 experiment switch: with the log reader off, no replication
  /// work happens at all (and the distribution queue stops growing).
  void set_log_reader_enabled(bool enabled) { log_reader_enabled_ = enabled; }
  bool log_reader_enabled() const { return log_reader_enabled_; }

  /// Installs a fault schedule (null = no faults). Not owned.
  void set_fault_plan(FaultPlan* plan) { fault_plan_ = plan; }
  FaultPlan* fault_plan() const { return fault_plan_; }

  /// Bounds each stream's enqueue/apply histories: once more than `limit`
  /// acked txns are retained, the settled common prefix is trimmed from
  /// BOTH (the trimmed count stays observable via
  /// SubscriptionInfo::history_trimmed). Defaults to kDefaultHistoryLimit;
  /// 0 = unbounded.
  void set_history_limit(int64_t limit) {
    history_limit_ = limit < 0 ? 0 : limit;
  }
  int64_t history_limit() const { return history_limit_; }

  /// Exponential backoff applied to a stream after a failed delivery:
  /// base * 2^(consecutive failures - 1), capped at max, on the sim clock.
  /// `jitter` in [0, 1] shrinks each backoff by a uniformly random fraction
  /// of itself (so a fleet of failed streams does not retry in lockstep);
  /// the jitter stream is drawn from a seeded RNG (set_backoff_seed), so a
  /// replay with the same seed and failure sequence is byte-identical.
  void set_retry_backoff(double base_seconds, double max_seconds,
                         double jitter = 0.0) {
    backoff_base_ = base_seconds;
    backoff_max_ = max_seconds;
    backoff_jitter_ = jitter < 0 ? 0.0 : (jitter > 1 ? 1.0 : jitter);
  }
  double backoff_max() const { return backoff_max_; }
  void set_backoff_seed(uint64_t seed) { backoff_rng_ = Random(seed); }

 private:
  struct Stream;

  /// One article: its changes land in `target_table` on the stream's
  /// subscriber.
  struct Subscription {
    int64_t id = 0;
    Article article;
    std::string target_table;
    /// Changes logged before this LSN predate the subscription's snapshot
    /// and must not be delivered (they are already in the initial copy).
    Lsn start_lsn = 0;
    Stream* stream = nullptr;
  };

  /// The distribution stream of one (publisher, subscriber) pair. Only the
  /// agent thread touches stream state, so no lock guards it.
  struct Stream {
    int64_t id = 0;
    Server* publisher = nullptr;
    Server* subscriber = nullptr;
    std::vector<Subscription*> articles;  // in subscription order
    std::deque<PendingTxn> queue;         // the distribution database
    /// The crash-safe apply watermark: the front txn committed locally but
    /// is not acked yet. It is set atomically with the local commit (in a
    /// real subscriber both live in the same database), so a redelivery
    /// acks that txn without applying it again; the ack clears it.
    bool front_applied = false;
    /// Histories in commit order, for the prefix invariant. `applied` is
    /// appended at ACK time, so it is an exact element-wise prefix of
    /// `enqueued` at every observation point.
    std::deque<TxnId> enqueued_history;
    std::deque<TxnId> applied_history;
    int64_t history_trimmed = 0;
    // Retry/backoff state after failed deliveries.
    int consecutive_failures = 0;
    double retry_after = 0;
  };

  struct PublisherState {
    Server* server = nullptr;
    /// Durable read position: only advances when a whole scan has been
    /// distributed, so a crashed scan is re-run from here.
    Lsn next_lsn = 1;
    // Open transactions being accumulated from the log.
    std::map<TxnId, std::vector<LogRecord>> open_txns;
    /// Time up to which the publisher's log has been fully processed. A
    /// stream whose queue is drained is current as of this time (drives
    /// TableDef::freshness_time for the §7 freshness extension).
    double last_scan_time = 0;
  };

  /// Delivers the stream's queued txns in commit order until the queue is
  /// empty or a delivery fails, then (when drained) advances the freshness
  /// of every target on the stream.
  Status DeliverStream(Stream* stream, ExecStats* stats);

  /// Applies one stream txn inside one subscriber-local transaction and
  /// sets the apply watermark atomically with the commit. Does not ack.
  Status ApplyTxn(Stream* stream, const PendingTxn& txn, ExecStats* stats);

  /// Acks the front txn: appends it to the applied history, clears the
  /// watermark and the backoff, pops the queue, trims the histories.
  void AckFront(Stream* stream);

  FaultAction Decide(FaultSite site) {
    return fault_plan_ != nullptr ? fault_plan_->Decide(site)
                                  : FaultAction::kNone;
  }
  /// Records an injected crash and returns the kUnavailable status the
  /// crashed component surfaces to its caller.
  Status Crash(const std::string& what);
  void RecordFailure(Stream* stream);

  SimClock* clock_;
  bool log_reader_enabled_ = true;
  FaultPlan* fault_plan_ = nullptr;
  double backoff_base_ = 0.05;
  double backoff_max_ = 1.0;
  double backoff_jitter_ = 0.0;
  Random backoff_rng_{0x5EEDBACCULL};
  int64_t history_limit_ = kDefaultHistoryLimit;
  std::map<Server*, PublisherState> publishers_;
  std::map<int64_t, std::unique_ptr<Subscription>> subscriptions_;
  /// Streams keyed by creation order, so every pass visits them (and their
  /// fault sites) in the same order on every run.
  std::map<int64_t, std::unique_ptr<Stream>> streams_;
  std::map<std::pair<Server*, Server*>, Stream*> stream_of_;
  int64_t next_subscription_id_ = 1;
  int64_t next_stream_id_ = 1;
  ReplicationMetrics metrics_;
};

}  // namespace mtcache

#endif  // MTCACHE_REPL_REPLICATION_H_
