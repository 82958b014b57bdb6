#ifndef MTCACHE_TYPES_VALUE_H_
#define MTCACHE_TYPES_VALUE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace mtcache {

/// SQL data types supported by the engine. Dates/timestamps are stored as
/// kInt64 (seconds since epoch); TPC-W needs no finer granularity.
enum class TypeId : uint8_t {
  kNull = 0,   // only used for untyped NULL literals
  kBool,
  kInt64,
  kDouble,
  kString,
};

/// Name of a type for error messages and SHOW-style output.
const char* TypeName(TypeId type);

/// A single SQL value: a tagged union over the supported types plus NULL.
/// Values are small, copyable, and totally ordered within a type (NULL sorts
/// first, as in an index key). Cross numeric-type comparison (int vs double)
/// is supported; other cross-type comparison is a caller bug guarded by the
/// binder's type checking.
///
/// Sixteen bytes: numbers live inline and a string lives out of line in an
/// immutable, reference-counted buffer, so copying a value never allocates.
/// Stored rows and index keys are mostly numbers, so this keeps a table's
/// memory close to its data.
class Value {
 public:
  /// Constructs SQL NULL (of unknown type).
  Value() : type_(TypeId::kNull), is_null_(true), i_(0) {}
  Value(const Value& other)
      : type_(other.type_), is_null_(other.is_null_), i_(other.i_) {
    if (type_ == TypeId::kString && s_ != nullptr) {
      s_->refs.fetch_add(1, std::memory_order_relaxed);
    }
  }
  Value(Value&& other) noexcept
      : type_(other.type_), is_null_(other.is_null_), i_(other.i_) {
    if (type_ == TypeId::kString) other.s_ = nullptr;
  }
  Value& operator=(const Value& other) {
    if (this != &other) *this = Value(other);
    return *this;
  }
  Value& operator=(Value&& other) noexcept {
    if (this != &other) {
      Release();
      type_ = other.type_;
      is_null_ = other.is_null_;
      i_ = other.i_;
      if (type_ == TypeId::kString) other.s_ = nullptr;
    }
    return *this;
  }
  ~Value() { Release(); }

  static Value Null() { return Value(); }
  static Value TypedNull(TypeId type) {
    Value v;
    v.type_ = type;
    if (type == TypeId::kString) v.s_ = nullptr;
    return v;
  }
  static Value Bool(bool b) {
    Value v;
    v.type_ = TypeId::kBool;
    v.is_null_ = false;
    v.i_ = b ? 1 : 0;
    return v;
  }
  static Value Int(int64_t i) {
    Value v;
    v.type_ = TypeId::kInt64;
    v.is_null_ = false;
    v.i_ = i;
    return v;
  }
  static Value Double(double d) {
    Value v;
    v.type_ = TypeId::kDouble;
    v.is_null_ = false;
    v.d_ = d;
    return v;
  }
  static Value String(std::string s) {
    Value v;
    v.type_ = TypeId::kString;
    v.is_null_ = false;
    v.s_ = new SharedString{{1}, std::move(s)};
    return v;
  }

  TypeId type() const { return type_; }
  bool is_null() const { return is_null_; }

  /// The integer of a bool or bigint value; 0 for every other type.
  bool AsBool() const { return AsInt() != 0; }
  int64_t AsInt() const {
    return type_ == TypeId::kDouble || type_ == TypeId::kString ? 0 : i_;
  }
  double AsDouble() const {
    return type_ == TypeId::kDouble ? d_ : static_cast<double>(AsInt());
  }
  /// The string of a varchar value; empty for every other type.
  const std::string& AsString() const {
    return type_ == TypeId::kString && s_ != nullptr ? s_->str : EmptyString();
  }

  /// Three-way comparison: -1, 0, +1. NULL compares equal to NULL and less
  /// than any non-NULL (index-key ordering; SQL ternary logic is handled in
  /// expression evaluation, not here).
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// Approximate in-memory/wire size in bytes, used by the DataTransfer cost
  /// model (§5: transfer cost is proportional to data volume).
  double SizeBytes() const;

  /// Numeric interpretation for statistics (histogram buckets). Strings hash
  /// to a stable small double; NULL returns 0.
  double AsStatDouble() const;

  /// Human/SQL rendering; strings come back quoted so the output can be
  /// re-parsed (used by the remote-SQL unparser).
  std::string ToSqlLiteral() const;
  /// Unquoted rendering for result tables.
  std::string ToString() const;

  /// Stable hash for hash joins / aggregation / DISTINCT.
  size_t Hash() const;

 private:
  struct SharedString {
    std::atomic<int32_t> refs;
    const std::string str;
  };

  static const std::string& EmptyString();
  void Release() {
    if (type_ == TypeId::kString && s_ != nullptr &&
        s_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete s_;
    }
  }

  TypeId type_;
  bool is_null_ = true;
  union {
    int64_t i_;         // kBool, kInt64, and 0 for NULL
    double d_;          // kDouble
    SharedString* s_;   // kString: shared, null for a NULL string
  };
};

/// A tuple of values. Rows flow between operators by value; the row widths in
/// this system are small.
using Row = std::vector<Value>;

/// Hash of a full key (composite). Used by hash-based operators.
size_t HashRow(const Row& row);

/// Approximate byte size of a row for transfer costing.
double RowSizeBytes(const Row& row);

}  // namespace mtcache

#endif  // MTCACHE_TYPES_VALUE_H_
