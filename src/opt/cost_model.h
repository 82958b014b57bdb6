#ifndef MTCACHE_OPT_COST_MODEL_H_
#define MTCACHE_OPT_COST_MODEL_H_

#include <algorithm>
#include <cmath>

namespace mtcache {

/// Cost-model constants, in abstract "work units". The executor charges the
/// same constants for actual rows processed, so estimated and measured costs
/// are commensurable and the multi-server simulation can turn measured work
/// into CPU service time.
struct CostModel {
  // Per-row operator charges.
  static constexpr double kSeqRowCost = 1.0;
  static constexpr double kIndexSeekCost = 12.0;  // tree descend
  // Per row fetched through an index: dearer than a sequential-scan row
  // (random heap access), so full-relation reads prefer the scan.
  static constexpr double kIndexRowCost = 2.0;
  static constexpr double kFilterRowCost = 0.2;    // per input row
  static constexpr double kProjectRowCost = 0.2;   // per output row
  static constexpr double kHashBuildRowCost = 1.5;
  static constexpr double kHashProbeRowCost = 0.8;
  static constexpr double kNLInnerRowCost = 0.3;   // per inner row per outer
  static constexpr double kAggRowCost = 1.0;       // per input row
  static constexpr double kSortRowCost = 0.4;      // multiplied by log2(n)
  static constexpr double kDistinctRowCost = 0.8;

  // DataTransfer (§5): "proportional to the estimated volume of data shipped
  // plus a constant startup cost."
  static constexpr double kTransferStartup = 300.0;
  static constexpr double kTransferByteCost = 0.02;

  // DML charges (engine side). Writes are far more expensive than reads in
  // an OLTP engine (logging, locking, page writes); these constants reflect
  // that so update-heavy workloads load the backend realistically.
  static constexpr double kInsertRowCost = 150.0;
  static constexpr double kUpdateRowCost = 160.0;
  static constexpr double kDeleteRowCost = 150.0;
  static constexpr double kIndexMaintRowCost = 12.0;  // per index touched

  // Per-statement overhead (parse/bind/plan-cache/protocol).
  static constexpr double kStatementOverhead = 12.0;

  // Replication pipeline charges. The log reader scans and parses every log
  // record; the distributor *inserts* each qualifying change into the
  // distribution database (a real write, §2.2), and the agent's apply is a
  // row write on the subscriber.
  static constexpr double kLogReadRecordCost = 6.0;
  static constexpr double kDistributeRecordCost = 45.0;
  static constexpr double kApplyRecordCost = 90.0;
  /// Fixed per-delivery-unit cost at the subscriber (connection turnaround,
  /// local commit, the ack round-trip). Charged once per stream transaction:
  /// a source txn that touches several of a cache's views pays it once.
  static constexpr double kReplDeliveryOverheadCost = 30.0;

  /// n*log2(n) for a full sort; a Sort bounded to `limit` rows keeps a heap
  /// of at most `limit`, so each input row costs log2(limit) instead.
  static double SortCost(double rows, double limit = -1) {
    double n = std::max(rows, 2.0);
    double depth = limit < 0 ? n : std::max(std::min(limit, n), 2.0);
    return kSortRowCost * n * std::log2(depth);
  }
  static double TransferCost(double rows, double bytes_per_row) {
    return kTransferStartup + rows * bytes_per_row * kTransferByteCost;
  }
};

/// Instance cost model the *optimizer* consumes. Every coefficient defaults
/// to the corresponding CostModel constant (the documented fallback), and a
/// calibration run (bench/exp4_calibrate, src/opt/calibration) overwrites
/// them with least-squares fits from measured per-operator timings,
/// normalized so seq_row == 1.0 keeps the magnitudes commensurable with the
/// executor's charged work units. The executor and replication pipeline keep
/// charging the CostModel constants: they define simulated work, while this
/// struct only ranks plan alternatives.
struct CalibratedCostModel {
  double seq_row = CostModel::kSeqRowCost;
  double index_seek = CostModel::kIndexSeekCost;
  double index_row = CostModel::kIndexRowCost;
  double filter_row = CostModel::kFilterRowCost;
  double project_row = CostModel::kProjectRowCost;
  double hash_build_row = CostModel::kHashBuildRowCost;
  double hash_probe_row = CostModel::kHashProbeRowCost;
  double nl_inner_row = CostModel::kNLInnerRowCost;
  double agg_row = CostModel::kAggRowCost;
  double sort_row = CostModel::kSortRowCost;
  double distinct_row = CostModel::kDistinctRowCost;
  double transfer_startup = CostModel::kTransferStartup;
  double transfer_byte = CostModel::kTransferByteCost;
  /// True once the coefficients came from a calibration fit rather than the
  /// compile-time defaults.
  bool calibrated = false;

  double SortCost(double rows, double limit = -1) const {
    return CostModel::SortCost(rows, limit) / CostModel::kSortRowCost *
           sort_row;
  }
  double TransferCost(double rows, double bytes_per_row) const {
    return transfer_startup + rows * bytes_per_row * transfer_byte;
  }
};

}  // namespace mtcache

#endif  // MTCACHE_OPT_COST_MODEL_H_
