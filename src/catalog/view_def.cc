#include "catalog/view_def.h"

#include "common/string_util.h"

namespace mtcache {

const char* CompareOpSymbol(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

CompareOp FlipCompareOp(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return CompareOp::kEq;
    case CompareOp::kNe:
      return CompareOp::kNe;
    case CompareOp::kLt:
      return CompareOp::kGt;
    case CompareOp::kLe:
      return CompareOp::kGe;
    case CompareOp::kGt:
      return CompareOp::kLt;
    case CompareOp::kGe:
      return CompareOp::kLe;
  }
  return op;
}

bool SimplePredicate::Matches(const Value& v) const {
  if (v.is_null()) return false;  // SQL: NULL op x is not true
  int c = v.Compare(constant);
  switch (op) {
    case CompareOp::kEq:
      return c == 0;
    case CompareOp::kNe:
      return c != 0;
    case CompareOp::kLt:
      return c < 0;
    case CompareOp::kLe:
      return c <= 0;
    case CompareOp::kGt:
      return c > 0;
    case CompareOp::kGe:
      return c >= 0;
  }
  return false;
}

std::string SimplePredicate::ToString() const {
  return column + " " + CompareOpSymbol(op) + " " + constant.ToSqlLiteral();
}

std::string SelectProjectDef::ToSelectSql() const {
  std::string sql = "SELECT " + Join(columns, ", ") + " FROM " + base_table;
  if (!predicates.empty()) {
    sql += " WHERE ";
    for (size_t i = 0; i < predicates.size(); ++i) {
      if (i > 0) sql += " AND ";
      sql += predicates[i].ToString();
    }
  }
  return sql;
}

}  // namespace mtcache
