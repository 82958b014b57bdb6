#include "repl/replication.h"

#include <algorithm>
#include <optional>
#include <shared_mutex>
#include <utility>

#include "common/trace.h"
#include "common/wait_stats.h"
#include "opt/cost_model.h"

namespace mtcache {

void ReplicationSystem::AddPublisher(Server* publisher) {
  if (publishers_.count(publisher) > 0) return;
  PublisherState state;
  state.server = publisher;
  state.next_lsn = publisher->db().log().RegisterReader();
  publishers_[publisher] = std::move(state);
}

StatusOr<int64_t> ReplicationSystem::Subscribe(Server* publisher,
                                               const Article& article,
                                               Server* subscriber,
                                               const std::string& target_table) {
  AddPublisher(publisher);
  const TableDef* base =
      publisher->db().catalog().GetTable(article.def.base_table);
  if (base == nullptr) {
    return Status::NotFound("published table not found: " +
                            article.def.base_table);
  }
  MT_RETURN_IF_ERROR(BoundSelectProject::Bind(article.def, *base).status());
  // Transactional replication requires a primary key on every published
  // table: the subscriber applies updates and deletes by key (index 0).
  if (base->primary_key.empty()) {
    return Status::InvalidArgument("published table " + base->name +
                                   " has no primary key");
  }
  StoredTable* target = subscriber->db().GetStoredTable(target_table);
  if (target == nullptr) {
    return Status::NotFound("subscription target table not found: " +
                            target_table);
  }
  if (!HasPrimaryKeyIndex(target->def())) {
    return Status::InvalidArgument("subscription target table " +
                                   target_table + " has no primary-key index");
  }
  Stream*& stream = stream_of_[{publisher, subscriber}];
  if (stream == nullptr) {
    auto created = std::make_unique<Stream>();
    created->id = next_stream_id_++;
    created->publisher = publisher;
    created->subscriber = subscriber;
    stream = created.get();
    streams_[stream->id] = std::move(created);
  }
  auto sub = std::make_unique<Subscription>();
  sub->id = next_subscription_id_++;
  sub->article = article;
  sub->target_table = target_table;
  sub->start_lsn = publisher->db().log().next_lsn();
  sub->stream = stream;
  stream->articles.push_back(sub.get());
  int64_t id = sub->id;
  subscriptions_[id] = std::move(sub);
  return id;
}

Status ReplicationSystem::Unsubscribe(int64_t subscription_id) {
  auto it = subscriptions_.find(subscription_id);
  if (it == subscriptions_.end()) {
    return Status::NotFound("unknown subscription");
  }
  Stream* stream = it->second->stream;
  // The article's queued changes go with it: a refresh re-snapshots the
  // target, and changes distributed before that must never apply on top of
  // the fresh copy. The txns stay queued for the stream's other articles.
  for (PendingTxn& txn : stream->queue) {
    std::erase_if(txn.changes, [&](const StreamChange& change) {
      return change.article == subscription_id;
    });
  }
  std::erase(stream->articles, it->second.get());
  subscriptions_.erase(it);
  if (stream->articles.empty()) {
    stream_of_.erase({stream->publisher, stream->subscriber});
    streams_.erase(stream->id);
  }
  return Status::Ok();
}

Status ReplicationSystem::Crash(const std::string& what) {
  ++metrics_.crashes_injected;
  return Status::Unavailable("injected crash: " + what);
}

void ReplicationSystem::RecordFailure(Stream* stream) {
  ++stream->consecutive_failures;
  int shift = stream->consecutive_failures - 1;
  if (shift > 16) shift = 16;
  double backoff = backoff_base_ * static_cast<double>(int64_t{1} << shift);
  if (backoff > backoff_max_) backoff = backoff_max_;
  if (backoff_jitter_ > 0) {
    // Shrink by a random fraction of the jitter window so a fleet of failed
    // streams spreads its retries instead of thundering in lockstep.
    // Drawn from the system's seeded RNG: same seed + same failure sequence
    // => byte-identical backoff schedule (DES replays stay stable).
    backoff *= 1.0 - backoff_jitter_ * backoff_rng_.NextDouble();
  }
  double now = clock_ != nullptr ? clock_->Now() : 0.0;
  stream->retry_after = now + backoff;
}

Status ReplicationSystem::RunLogReader(Server* publisher,
                                       ExecStats* publisher_stats) {
  if (!log_reader_enabled_) return Status::Ok();
  // Pipeline stage 1+2 span: WAL pickup and per-commit distribution. The
  // distributor runs inline here (the kCommit case), so its repl.distribute
  // spans nest under this one through the thread-local span stack.
  SpanScope span("repl.log_reader", TraceRecorder::Global().enabled()
                                        ? publisher->name()
                                        : std::string());
  auto it = publishers_.find(publisher);
  if (it == publishers_.end()) {
    return Status::NotFound("server is not a registered publisher");
  }
  PublisherState& state = it->second;
  std::vector<LogRecord> records;
  Lsn scanned_to = publisher->db().log().ReadFrom(state.next_lsn, &records);

  // The scan runs against shadow state: a copy of the open-transaction map
  // and a staging area for distributed txns. Only a fully successful pass
  // commits them (plus the read position, metrics, and log truncation), so
  // an injected crash anywhere below leaves the durable state exactly as it
  // was and the restarted reader re-runs the scan from the same LSN —
  // transactions are distributed exactly once.
  std::map<TxnId, std::vector<LogRecord>> open_txns = state.open_txns;
  std::vector<std::pair<Stream*, PendingTxn>> staged;
  int64_t records_scanned = 0;
  int64_t changes_enqueued = 0;
  double publisher_cost = 0;
  // The publisher's streams and their articles, listed at the scan's first
  // commit. Each article binds at its first change. Nothing is kept across
  // scans: a published table may be dropped and re-created between them.
  struct Target {
    Subscription* sub;
    const TableDef* base;  // null: table missing or binding failed
    std::optional<BoundSelectProject> bound;
  };
  struct StreamTargets {
    Stream* stream;
    std::vector<Target> articles;
  };
  std::optional<std::vector<StreamTargets>> targets;

  for (LogRecord& rec : records) {
    if (Decide(FaultSite::kLogReadRecord) == FaultAction::kCrash) {
      return Crash("log reader died at lsn " + std::to_string(rec.lsn) +
                   " on " + publisher->name());
    }
    ++records_scanned;
    publisher_cost += CostModel::kLogReadRecordCost;
    switch (rec.type) {
      case LogRecordType::kBegin:
        open_txns[rec.txn];  // start accumulating
        break;
      case LogRecordType::kInsert:
      case LogRecordType::kDelete:
      case LogRecordType::kUpdate:
        open_txns[rec.txn].push_back(std::move(rec));
        break;
      case LogRecordType::kAbort:
        open_txns.erase(rec.txn);
        break;
      case LogRecordType::kCommit: {
        auto txn_it = open_txns.find(rec.txn);
        if (txn_it == open_txns.end()) break;
        std::vector<LogRecord> changes = std::move(txn_it->second);
        open_txns.erase(txn_it);
        if (Decide(FaultSite::kDistributeTxn) == FaultAction::kCrash) {
          return Crash("distributor died on txn " + std::to_string(rec.txn));
        }
        SpanScope distribute_span(
            "repl.distribute", TraceRecorder::Global().enabled()
                                   ? "txn " + std::to_string(rec.txn)
                                   : std::string());
        // Filter and project per article (the distributor's job), into
        // one PendingTxn per stream.
        if (!targets.has_value()) {
          targets.emplace();
          for (auto& [id, stream] : streams_) {
            if (stream->publisher != publisher) continue;
            StreamTargets& group = targets->emplace_back();
            group.stream = stream.get();
            for (Subscription* sub : stream->articles) {
              group.articles.push_back(
                  {sub,
                   publisher->db().catalog().GetTable(
                       sub->article.def.base_table),
                   std::nullopt});
            }
          }
        }
        for (auto& [stream, articles] : *targets) {
          PendingTxn pending;
          pending.source_txn = rec.txn;
          pending.commit_time = rec.commit_time;
          for (auto& [sub, base, bound] : articles) {
            if (base == nullptr) continue;
            for (const LogRecord& change : changes) {
              if (change.table != sub->article.def.base_table) continue;
              // Changes predating the subscription's snapshot are already
              // in the initial copy.
              if (change.lsn < sub->start_lsn) continue;
              if (!bound.has_value()) {
                auto bound_or =
                    BoundSelectProject::Bind(sub->article.def, *base);
                if (!bound_or.ok()) {
                  base = nullptr;
                  break;
                }
                bound = bound_or.ConsumeValue();
              }
              std::optional<ReplChange> out =
                  bound->Delta(change.type, change.before, change.after);
              if (!out.has_value()) continue;  // entirely outside the article
              pending.changes.push_back({sub->id, std::move(*out)});
              ++changes_enqueued;
              publisher_cost += CostModel::kDistributeRecordCost;
            }
          }
          if (!pending.changes.empty()) {
            staged.emplace_back(stream, std::move(pending));
          }
        }
        break;
      }
    }
  }

  // Commit the scan: queues first (the distribution database), then the
  // reader's durable position and the accounting.
  for (auto& [stream, pending] : staged) {
    stream->enqueued_history.push_back(pending.source_txn);
    stream->queue.push_back(std::move(pending));
  }
  metrics_.batches_distributed += static_cast<int64_t>(staged.size());
  state.open_txns = std::move(open_txns);
  state.next_lsn = scanned_to;
  metrics_.records_scanned += records_scanned;
  metrics_.changes_enqueued += changes_enqueued;
  if (publisher_stats != nullptr) {
    publisher_stats->local_cost += publisher_cost;
  }

  // Processed records are no longer needed: "once changes have been
  // propagated to all subscribers, they are deleted" — here the distribution
  // database owns them, so the publisher log can truncate.
  if (state.open_txns.empty()) {
    publisher->db().log().TruncateBefore(state.next_lsn);
    if (state.next_lsn == publisher->db().log().next_lsn()) {
      state.last_scan_time = clock_ != nullptr ? clock_->Now() : 0.0;
    }
  }
  return Status::Ok();
}

Status ReplicationSystem::ApplyTxn(Stream* stream, const PendingTxn& txn,
                                   ExecStats* stats) {
  // Pipeline stage 3 span: subscriber apply of one source transaction.
  SpanScope span("repl.apply",
                 TraceRecorder::Global().enabled()
                     ? stream->subscriber->name() + " txn " +
                           std::to_string(txn.source_txn)
                     : std::string());
  // Per-delivery-unit overhead: one per stream txn.
  if (stats != nullptr) {
    stats->local_cost += CostModel::kReplDeliveryOverheadCost;
  }
  Database& db = stream->subscriber->db();
  auto local_txn = db.txn_manager().Begin();
  // Changes arrive grouped by article, so the target is resolved once per
  // run of one article's changes.
  int64_t article = -1;
  StoredTable* table = nullptr;
  for (const StreamChange& change : txn.changes) {
    if (change.article != article) {
      article = change.article;
      const std::string& target =
          subscriptions_.at(article)->target_table;
      table = db.GetStoredTable(target);
      if (table == nullptr) {
        db.txn_manager().Abort(local_txn.get());
        return Status::NotFound("subscription target table vanished: " +
                                target);
      }
    }
    if (Decide(FaultSite::kApplyChange) == FaultAction::kCrash) {
      // The subscriber dies mid-apply: its local transaction rolls back, so
      // no part of the source txn is visible in any view, and the delivery
      // is retried.
      db.txn_manager().Abort(local_txn.get());
      return Crash("subscriber died applying txn " +
                   std::to_string(txn.source_txn) + " on " +
                   stream->subscriber->name());
    }
    if (stats != nullptr) {
      stats->local_cost +=
          CostModel::kApplyRecordCost +
          table->def().indexes.size() * CostModel::kIndexMaintRowCost;
    }
    Status status = ApplyViewChange(table, change.change, local_txn.get());
    if (!status.ok()) {
      db.txn_manager().Abort(local_txn.get());
      return status;
    }
  }
  double now = clock_ != nullptr ? clock_->Now() : 0.0;
  db.txn_manager().Commit(local_txn.get(), now);
  // The apply watermark is set together with the commit (in a real
  // subscriber both live in the same database), so a redelivery after a
  // crash before the ack does not apply the txn again — exactly-once apply.
  stream->front_applied = true;
  metrics_.changes_applied += static_cast<int64_t>(txn.changes.size());
  ++metrics_.txns_applied;
  double latency = now - txn.commit_time;
  if (latency >= 0) {
    metrics_.latency_sum += latency;
    metrics_.latency_max.UpdateMax(latency);
    ++metrics_.latency_count;
    metrics_.lag_histogram.Record(latency);
  }
  if (Decide(FaultSite::kApplyCommit) == FaultAction::kCrash) {
    // Crash after the local commit but before the ack: the txn stays
    // queued and will be redelivered, hitting the watermark above.
    return Crash("subscriber died after committing txn " +
                 std::to_string(txn.source_txn) + ", before ack");
  }
  return Status::Ok();
}

void ReplicationSystem::AckFront(Stream* stream) {
  // The ack appends to the applied history in commit order, so
  // applied_history stays an element-wise prefix of enqueued_history at
  // every observation point.
  stream->applied_history.push_back(stream->queue.front().source_txn);
  stream->queue.pop_front();
  stream->front_applied = false;
  stream->consecutive_failures = 0;
  stream->retry_after = 0;
  // Only the settled prefix is trimmed — acked txns are by construction an
  // element-wise prefix of the enqueue history, so dropping the same count
  // from the front of both keeps the prefix invariant checkable on the
  // retained suffixes.
  while (history_limit_ > 0 &&
         static_cast<int64_t>(stream->applied_history.size()) >
             history_limit_) {
    stream->applied_history.pop_front();
    stream->enqueued_history.pop_front();
    ++stream->history_trimmed;
  }
}

Status ReplicationSystem::DeliverStream(Stream* stream, ExecStats* stats) {
  double now = clock_ != nullptr ? clock_->Now() : 0.0;
  if (stream->retry_after > now) return Status::Ok();  // backing off
  while (!stream->queue.empty()) {
    PendingTxn& txn = stream->queue.front();
    if (stream->front_applied) {
      // The txn committed locally before the agent crashed in the ack
      // window: ack it without applying it again, counted as a re-attempt.
      ++metrics_.txns_retried;
    } else {
      FaultAction delivery = Decide(FaultSite::kDeliverTxn);
      if (delivery == FaultAction::kDrop) {
        // Lost in transit. The distribution database still holds it, so it
        // is redelivered after a backoff.
        ++metrics_.deliveries_dropped;
        RecordFailure(stream);
        break;
      }
      if (delivery == FaultAction::kDelay) break;  // stalls; next poll
      if (delivery == FaultAction::kCrash) {
        RecordFailure(stream);
        return Crash("distribution agent died delivering to " +
                     stream->subscriber->name());
      }
      if (txn.attempts++ > 0) ++metrics_.txns_retried;
      Status applied = ApplyTxn(stream, txn, stats);
      if (!applied.ok()) {
        RecordFailure(stream);
        return applied;
      }
    }
    AckFront(stream);
  }
  if (!stream->queue.empty()) return Status::Ok();
  // Drained: every target on the stream is current as of the publisher's
  // last fully-processed log position (freshness bookkeeping, §7).
  auto pub = publishers_.find(stream->publisher);
  if (pub == publishers_.end()) return Status::Ok();
  Catalog& catalog = stream->subscriber->db().catalog();
  for (const Subscription* sub : stream->articles) {
    TableDef* target = catalog.GetTable(sub->target_table);
    if (target != nullptr) {
      target->freshness_time.UpdateMax(pub->second.last_scan_time);
    }
  }
  return Status::Ok();
}

Status ReplicationSystem::RunDistributionAgent(Server* subscriber,
                                               ExecStats* subscriber_stats) {
  for (auto& [id, stream] : streams_) {
    if (stream->subscriber != subscriber) continue;
    MT_RETURN_IF_ERROR(DeliverStream(stream.get(), subscriber_stats));
  }
  return Status::Ok();
}

Status ReplicationSystem::RunOnce(ExecStats* publisher_stats,
                                  ExecStats* subscriber_stats) {
  for (auto& [server, state] : publishers_) {
    MT_RETURN_IF_ERROR(RunLogReader(server, publisher_stats));
  }
  // A stream that cannot deliver (its subscriber is down or rejects a
  // change) must not hold back the others: deliver every stream, then report
  // the first failure.
  Status first_error = Status::Ok();
  for (auto& [id, stream] : streams_) {
    Status s = DeliverStream(stream.get(), subscriber_stats);
    if (!s.ok() && first_error.ok()) first_error = std::move(s);
  }
  return first_error;
}

int64_t ReplicationSystem::PendingChanges() const {
  int64_t total = 0;
  for (const auto& [id, stream] : streams_) {
    for (const PendingTxn& txn : stream->queue) {
      total += static_cast<int64_t>(txn.changes.size());
    }
  }
  return total;
}

bool ReplicationSystem::Quiesced() const {
  for (const auto& [id, stream] : streams_) {
    if (!stream->queue.empty()) return false;
  }
  for (const auto& [server, state] : publishers_) {
    if (!state.open_txns.empty()) return false;
    if (state.next_lsn != server->db().log().next_lsn()) return false;
  }
  return true;
}

std::vector<SubscriptionInfo> ReplicationSystem::DescribeSubscriptions() const {
  std::vector<SubscriptionInfo> out;
  for (const auto& [id, sub] : subscriptions_) {
    const Stream& stream = *sub->stream;
    SubscriptionInfo info;
    info.id = sub->id;
    info.stream_id = stream.id;
    info.publisher = stream.publisher;
    info.subscriber = stream.subscriber;
    info.def = sub->article.def;
    info.target_table = sub->target_table;
    info.queued_txns = static_cast<int64_t>(stream.queue.size());
    info.enqueued_txns.assign(stream.enqueued_history.begin(),
                              stream.enqueued_history.end());
    info.applied_txns.assign(stream.applied_history.begin(),
                             stream.applied_history.end());
    info.history_trimmed = stream.history_trimmed;
    info.inflight_applied = stream.front_applied ? 1 : 0;
    out.push_back(std::move(info));
  }
  return out;
}

}  // namespace mtcache
