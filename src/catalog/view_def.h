#ifndef MTCACHE_CATALOG_VIEW_DEF_H_
#define MTCACHE_CATALOG_VIEW_DEF_H_

#include <string>
#include <vector>

#include "types/value.h"

namespace mtcache {

/// Comparison operators appearing in simple predicates.
enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CompareOpSymbol(CompareOp op);
/// Flips the operand order: a < b  <->  b > a.
CompareOp FlipCompareOp(CompareOp op);

/// One conjunct of a select-project definition: `column op constant`.
/// Materialized-view and replication-article predicates are restricted to
/// conjunctions of these (the paper's cached views are "selections and
/// projections of tables or materialized views", §1/§4), which is what makes
/// view matching and log-change filtering tractable.
struct SimplePredicate {
  std::string column;  // base-table column name, lower-cased
  CompareOp op = CompareOp::kEq;
  Value constant;

  /// Evaluates against a value of the named column.
  bool Matches(const Value& v) const;

  std::string ToString() const;
};

/// A select-project expression over a single base table (or matview): the
/// shape shared by cached materialized views (§4) and replication articles
/// (§2.2: "an article is defined by a select-project expression over a table
/// or a materialized view").
struct SelectProjectDef {
  std::string base_table;            // lower-cased
  std::vector<std::string> columns;  // projected base columns, in view order
  std::vector<SimplePredicate> predicates;  // conjunction; empty = all rows

  /// Renders as SQL text (SELECT c1, c2 FROM t WHERE ...), used when the
  /// subscription snapshot runs through the normal query path.
  std::string ToSelectSql() const;
};

}  // namespace mtcache

#endif  // MTCACHE_CATALOG_VIEW_DEF_H_
