#ifndef MTCACHE_STORAGE_WAL_H_
#define MTCACHE_STORAGE_WAL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/wait_stats.h"
#include "types/value.h"

namespace mtcache {

using Lsn = int64_t;
using TxnId = int64_t;

enum class LogRecordType { kBegin, kCommit, kAbort, kInsert, kDelete, kUpdate };

/// One write-ahead-log record. Data records carry full before/after row
/// images, which is exactly what SQL Server's transactional replication log
/// reader extracts (§2.2: "changes to a published table or view are
/// collected by log sniffing").
struct LogRecord {
  Lsn lsn = 0;
  TxnId txn = 0;
  LogRecordType type = LogRecordType::kBegin;
  std::string table;   // lower-cased; empty for Begin/Commit/Abort
  Row before;          // Delete/Update
  Row after;           // Insert/Update
  double commit_time = 0;  // Commit records: simulated commit timestamp
};

/// The database log. Append-only; readers (the replication log reader) poll
/// from a saved position. Records are retained only once a reader has
/// registered: a server nobody reads (a cache) advances its LSNs but keeps
/// no records. Records already propagated to all subscribers can be
/// truncated. Internally synchronized: concurrent sessions append while the
/// replication log reader scans from another thread.
class LogManager {
 public:
  LogManager() = default;
  LogManager(const LogManager&) = delete;
  LogManager& operator=(const LogManager&) = delete;

  Lsn Append(LogRecord record) {
    // Wait-accounted: sessions appending race the replication log reader's
    // scans here (sys.dm_os_wait_stats WAL_MUTEX). The cheap const getters
    // below keep plain guards so polling doesn't dominate the counts.
    MutexWait guard(mu_, WaitSite::kWalMutex);
    record.lsn = next_lsn_++;
    Lsn lsn = record.lsn;
    if (has_reader_) {
      records_.push_back(std::move(record));
    } else {
      first_lsn_ = next_lsn_;
    }
    return lsn;
  }

  /// Registers a log reader: from now on appended records are retained until
  /// truncated. Returns the position the reader starts at — the current end
  /// of the log, since nothing before it was kept.
  Lsn RegisterReader() {
    std::lock_guard<std::mutex> guard(mu_);
    has_reader_ = true;
    return next_lsn_;
  }

  Lsn next_lsn() const {
    std::lock_guard<std::mutex> guard(mu_);
    return next_lsn_;
  }
  Lsn first_lsn() const {
    std::lock_guard<std::mutex> guard(mu_);
    return first_lsn_;
  }
  int64_t size() const {
    std::lock_guard<std::mutex> guard(mu_);
    return static_cast<int64_t>(records_.size());
  }

  /// Copies records with lsn in [from, next_lsn()) into `out`; returns the
  /// new read position. A read-fault hook (below) can stop the scan early,
  /// in which case the returned position is the first *unread* lsn — the
  /// caller resumes from there on its next poll.
  Lsn ReadFrom(Lsn from, std::vector<LogRecord>* out) const;

  /// Fault-injection seam for the log-reader path: called before each record
  /// is handed out; returning true aborts the scan at that record (a torn /
  /// failed log page read). Replication recovery resumes from the returned
  /// position, so a stalled read only delays propagation, never loses it.
  using ReadFaultHook = std::function<bool(Lsn lsn)>;
  void set_read_fault_hook(ReadFaultHook hook) { read_fault_hook_ = std::move(hook); }

  /// Drops records with lsn < up_to (done after distribution, §2.2: "once
  /// changes have been propagated to all subscribers, they are deleted").
  void TruncateBefore(Lsn up_to);

 private:
  mutable std::mutex mu_;  // guards every member but the hook
  std::deque<LogRecord> records_;
  bool has_reader_ = false;
  Lsn next_lsn_ = 1;
  Lsn first_lsn_ = 1;
  ReadFaultHook read_fault_hook_;
};

}  // namespace mtcache

#endif  // MTCACHE_STORAGE_WAL_H_
