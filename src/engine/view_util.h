#ifndef MTCACHE_ENGINE_VIEW_UTIL_H_
#define MTCACHE_ENGINE_VIEW_UTIL_H_

#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "sql/ast.h"
#include "storage/table.h"

namespace mtcache {

// The one view-change path. A regular materialized view and a cached view are
// the same select-project over one table (§2.2, §4); only the maintainer
// differs (the base transaction or the replication agent). Both bind the
// definition, map each base-row change to at most one view-row change, and
// apply it by primary key. Nothing here charges cost or visits a fault site.

/// One view-row change: a base-row change filtered by a select-project
/// definition and projected to its columns.
struct ReplChange {
  LogRecordType op = LogRecordType::kInsert;  // insert/delete/update
  Row before;  // projected to view columns (delete/update)
  Row after;   // projected to view columns (insert/update)
};

/// A SelectProjectDef bound against its base table: the base-row ordinal of
/// every projected column and of every predicate column. Holds a pointer to
/// the definition, so the definition must outlive the binding; bind again
/// whenever the base table may have been re-created.
class BoundSelectProject {
 public:
  /// InvalidArgument when a projected or predicate column is not in `base`.
  static StatusOr<BoundSelectProject> Bind(const SelectProjectDef& def,
                                           const TableDef& base);

  /// True if the full base row satisfies every predicate.
  bool Matches(const Row& base_row) const;
  /// The full base row projected to the view's columns.
  Row Project(const Row& base_row) const;

  /// Maps a base-row change (`op` is kInsert, kDelete or kUpdate) onto the
  /// view: a row entering the predicate is an insert, one leaving it a
  /// delete, one staying inside an update, and one outside on both sides
  /// maps to nothing. `before` is ignored for inserts, `after` for deletes.
  std::optional<ReplChange> Delta(LogRecordType op, const Row& before,
                                  const Row& after) const;

 private:
  const SelectProjectDef* def_ = nullptr;
  std::vector<int> column_ordinals_;
  std::vector<int> predicate_ordinals_;
};

/// True if `def` has a primary key and index 0 is on exactly that key.
bool HasPrimaryKeyIndex(const TableDef& def);

/// Applies one view-row change to `view` inside `txn`. Update and delete find
/// the row by primary key through index 0 and pass the version read under
/// the shared latch to Delete/Update, so a row changed since the lookup fails
/// with NotFound instead of being overwritten. An update of a missing row
/// inserts it; a delete of a missing row does nothing. InvalidArgument when
/// `view` fails HasPrimaryKeyIndex.
Status ApplyViewChange(StoredTable* view, const ReplChange& change,
                       Transaction* txn);

/// Validates that a view-defining SELECT is a select-project over a single
/// base table with a conjunction of `column op literal` predicates (the only
/// view shape MTCache caches, §4) and lowers it to a SelectProjectDef.
/// `SELECT *` projects every base column.
StatusOr<SelectProjectDef> BuildSelectProjectDef(const SelectStmt& select,
                                                 const TableDef& base);

/// Builds the backing TableDef for a (cached) materialized view: projected
/// base columns, the base primary key mapped through, and a unique index on
/// that key as index 0. The base table must have a primary key and the view
/// must project all of it, because ApplyViewChange finds rows by that key.
StatusOr<TableDef> MakeViewTableDef(const std::string& view_name,
                                    const TableDef& base,
                                    const SelectProjectDef& def,
                                    RelationKind kind);

/// Derives shadowed statistics for a view from the base table's statistics
/// and the view predicate's selectivity (the cache server's optimizer costs
/// cached views without ever seeing the backend data, §3).
TableStats DeriveViewStats(const TableDef& base, const SelectProjectDef& def);

}  // namespace mtcache

#endif  // MTCACHE_ENGINE_VIEW_UTIL_H_
