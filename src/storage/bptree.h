#ifndef MTCACHE_STORAGE_BPTREE_H_
#define MTCACHE_STORAGE_BPTREE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "types/value.h"

namespace mtcache {

/// Row identifier: slot number in a table's heap.
using RowId = int64_t;

/// A read-only view of a key: a Row, or an entry stored in a tree node.
class KeyRef {
 public:
  // Implicit: every Row can be read as a key.
  KeyRef(const Row& row) : data_(row.data()), size_(row.size()) {}
  KeyRef(const Value* data, size_t size) : data_(data), size_(size) {}
  size_t size() const { return size_; }
  const Value& operator[](size_t i) const { return data_[i]; }
  const Value* begin() const { return data_; }
  const Value* end() const { return data_ + size_; }
  Row ToRow() const { return Row(begin(), end()); }

 private:
  const Value* data_;
  size_t size_;
};

/// In-memory B+-tree over composite Value keys, mapping key -> RowId.
/// Duplicate user keys are supported by treating (key, rowid) as the full
/// unique key. Leaves are chained both ways for range scans, so index seeks
/// produce ordered output in either direction. Deletion removes entries from
/// leaves without rebalancing (a leaf may become empty; iteration skips it);
/// for this system's insert-heavy workloads the resulting slack is
/// irrelevant and keeps the structure simple. Every key of a tree has the
/// width of its first key, and a node stores its keys back to back in one
/// array, so an entry costs its values plus the rowid.
class BPlusTree {
 public:
  static constexpr int kFanout = 64;

  BPlusTree();
  ~BPlusTree();
  BPlusTree(const BPlusTree&) = delete;
  BPlusTree& operator=(const BPlusTree&) = delete;
  BPlusTree(BPlusTree&&) noexcept;
  BPlusTree& operator=(BPlusTree&&) noexcept;

  void Insert(const Row& key, RowId rid);
  /// Removes the (key, rid) entry; returns false if absent.
  bool Erase(const Row& key, RowId rid);

  int64_t size() const { return size_; }

  struct Node;

  /// Bidirectional iterator over (key, rowid) entries in key order. Stepping
  /// past either end makes it invalid.
  class Iterator {
   public:
    bool Valid() const { return node_ != nullptr; }
    /// Valid until the tree is next modified.
    KeyRef key() const;
    RowId rowid() const;
    void Next();
    void Prev();

   private:
    friend class BPlusTree;
    Node* node_ = nullptr;
    int pos_ = 0;
  };

  Iterator Begin() const;
  /// Last entry in key order.
  Iterator Last() const;
  /// First entry with user key >= `key` (prefix comparison over the leading
  /// key.size() columns).
  Iterator SeekGe(const Row& key) const;
  /// First entry with user key > `key` (prefix comparison).
  Iterator SeekGt(const Row& key) const;
  /// Last entry with user key <= `key` (prefix comparison).
  Iterator SeekLe(const Row& key) const;
  /// Last entry with user key < `key` (prefix comparison).
  Iterator SeekLt(const Row& key) const;

  /// Lexicographic comparison of the first min(|a|,|b|) columns; ties broken
  /// short-is-smaller only when requested by full == true.
  static int ComparePrefix(KeyRef a, KeyRef b);

 private:
  // First entry whose key compares above `key` over key.size() columns:
  // >= when `strict` is false, > when it is true.
  Iterator SeekPrefix(const Row& key, bool strict) const;

  std::unique_ptr<Node> root_;
  int64_t size_ = 0;
  size_t width_ = 0;  // values per key; set by the first Insert
};

}  // namespace mtcache

#endif  // MTCACHE_STORAGE_BPTREE_H_
