#include "storage/bptree.h"

#include <cstdio>
#include <cstdlib>
#include <iterator>

namespace mtcache {

struct BPlusTree::Node {
  explicit Node(size_t w) : width(w) {}

  bool leaf = true;
  size_t width;  // values per key
  // Internal: keys are separators; children.size() == count() + 1 and
  // separator i is the smallest (key,rid) entry under children[i+1].
  // Leaf: key i / rids[i] are the entries.
  // Keys are stored back to back: key i is keys[i*width .. (i+1)*width).
  std::vector<Value> keys;
  std::vector<RowId> rids;  // one per key (leaf entries or separators)
  std::vector<std::unique_ptr<Node>> children;
  Node* next = nullptr;  // leaf chain
  Node* prev = nullptr;

  int count() const { return static_cast<int>(rids.size()); }
  KeyRef key(int i) const { return KeyRef(keys.data() + i * width, width); }
  void InsertKey(int i, KeyRef key, RowId rid) {
    keys.insert(keys.begin() + i * width, key.begin(), key.end());
    rids.insert(rids.begin() + i, rid);
  }
  void EraseKey(int i) {
    keys.erase(keys.begin() + i * width, keys.begin() + (i + 1) * width);
    rids.erase(rids.begin() + i);
  }
  // Keeps the first n keys and moves keys [from, count) to `right`.
  void MoveTail(int n, int from, Node* right) {
    right->keys.assign(std::make_move_iterator(keys.begin() + from * width),
                       std::make_move_iterator(keys.end()));
    right->rids.assign(rids.begin() + from, rids.end());
    keys.resize(n * width);
    rids.resize(n);
  }
};

namespace {

// Full-entry comparison: lexicographic over columns then rowid.
int CompareEntry(KeyRef a, RowId arid, KeyRef b, RowId brid) {
  size_t n = a.size() < b.size() ? a.size() : b.size();
  for (size_t i = 0; i < n; ++i) {
    int c = a[i].Compare(b[i]);
    if (c != 0) return c;
  }
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  if (arid != brid) return arid < brid ? -1 : 1;
  return 0;
}

}  // namespace

int BPlusTree::ComparePrefix(KeyRef a, KeyRef b) {
  size_t n = a.size() < b.size() ? a.size() : b.size();
  for (size_t i = 0; i < n; ++i) {
    int c = a[i].Compare(b[i]);
    if (c != 0) return c;
  }
  return 0;
}

BPlusTree::BPlusTree() : root_(std::make_unique<Node>(0)) {}
BPlusTree::~BPlusTree() = default;
BPlusTree::BPlusTree(BPlusTree&&) noexcept = default;
BPlusTree& BPlusTree::operator=(BPlusTree&&) noexcept = default;

namespace {

// Finds the child index to descend into for an entry (key, rid).
int ChildIndex(const BPlusTree::Node& node, KeyRef key, RowId rid) {
  int lo = 0;
  int hi = node.count();
  // First separator strictly greater than the entry -> descend left of it.
  while (lo < hi) {
    int mid = (lo + hi) / 2;
    if (CompareEntry(node.key(mid), node.rids[mid], key, rid) <= 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

struct SplitResult {
  bool split = false;
  Row sep_key;
  RowId sep_rid = 0;
  std::unique_ptr<BPlusTree::Node> right;
};

SplitResult InsertRec(BPlusTree::Node* node, KeyRef key, RowId rid) {
  if (node->leaf) {
    // Position for insertion (keep sorted by (key, rid)).
    int lo = 0;
    int hi = node->count();
    while (lo < hi) {
      int mid = (lo + hi) / 2;
      if (CompareEntry(node->key(mid), node->rids[mid], key, rid) < 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    node->InsertKey(lo, key, rid);
  } else {
    int ci = ChildIndex(*node, key, rid);
    SplitResult child_split = InsertRec(node->children[ci].get(), key, rid);
    if (child_split.split) {
      node->InsertKey(ci, child_split.sep_key, child_split.sep_rid);
      node->children.insert(node->children.begin() + ci + 1,
                            std::move(child_split.right));
    }
  }

  SplitResult result;
  if (node->count() <= BPlusTree::kFanout) return result;

  // Split the node in half.
  int mid = node->count() / 2;
  auto right = std::make_unique<BPlusTree::Node>(node->width);
  right->leaf = node->leaf;
  if (node->leaf) {
    node->MoveTail(mid, mid, right.get());
    // Keys mostly arrive in order (ids, timestamps), so the left half of a
    // split rarely grows again: give back the capacity it no longer uses.
    node->keys.shrink_to_fit();
    node->rids.shrink_to_fit();
    right->next = node->next;
    right->prev = node;
    if (node->next != nullptr) node->next->prev = right.get();
    node->next = right.get();
    result.sep_key = right->key(0).ToRow();
    result.sep_rid = right->rids.front();
  } else {
    // Separator at `mid` moves up.
    result.sep_key = node->key(mid).ToRow();
    result.sep_rid = node->rids[mid];
    node->MoveTail(mid, mid + 1, right.get());
    for (size_t i = mid + 1; i < node->children.size(); ++i) {
      right->children.push_back(std::move(node->children[i]));
    }
    node->children.resize(mid + 1);
  }
  result.split = true;
  result.right = std::move(right);
  return result;
}

}  // namespace

void BPlusTree::Insert(const Row& key, RowId rid) {
  if (size_ == 0 && root_->leaf && root_->count() == 0) {
    width_ = key.size();
    root_->width = width_;
  }
  if (key.size() != width_) {
    // Keys are stored back to back at one width: a key of another width
    // would misalign every key after it in its node.
    std::fprintf(stderr, "BPlusTree: %zu-value key in a tree of width %zu\n",
                 key.size(), width_);
    std::abort();
  }
  SplitResult split = InsertRec(root_.get(), key, rid);
  if (split.split) {
    auto new_root = std::make_unique<Node>(width_);
    new_root->leaf = false;
    new_root->InsertKey(0, split.sep_key, split.sep_rid);
    new_root->children.push_back(std::move(root_));
    new_root->children.push_back(std::move(split.right));
    root_ = std::move(new_root);
  }
  ++size_;
}

bool BPlusTree::Erase(const Row& key, RowId rid) {
  Node* node = root_.get();
  while (!node->leaf) {
    node = node->children[ChildIndex(*node, key, rid)].get();
  }
  for (int i = 0; i < node->count(); ++i) {
    if (CompareEntry(node->key(i), node->rids[i], key, rid) == 0) {
      node->EraseKey(i);
      --size_;
      return true;
    }
  }
  return false;
}

KeyRef BPlusTree::Iterator::key() const { return node_->key(pos_); }
RowId BPlusTree::Iterator::rowid() const { return node_->rids[pos_]; }

void BPlusTree::Iterator::Next() {
  ++pos_;
  while (node_ != nullptr && pos_ >= node_->count()) {
    node_ = node_->next;
    pos_ = 0;
  }
}

void BPlusTree::Iterator::Prev() {
  --pos_;
  while (node_ != nullptr && pos_ < 0) {
    node_ = node_->prev;
    pos_ = node_ != nullptr ? node_->count() - 1 : 0;
  }
}

BPlusTree::Iterator BPlusTree::Begin() const {
  const Node* node = root_.get();
  while (!node->leaf) node = node->children.front().get();
  Iterator it;
  it.node_ = const_cast<Node*>(node);
  it.pos_ = -1;
  it.Next();
  return it;
}

BPlusTree::Iterator BPlusTree::Last() const {
  const Node* node = root_.get();
  while (!node->leaf) node = node->children.back().get();
  Iterator it;
  it.node_ = const_cast<Node*>(node);
  it.pos_ = node->count();
  it.Prev();
  return it;
}

namespace {

// The entry before `it`, where an invalid `it` stands for the end.
BPlusTree::Iterator StepBack(BPlusTree::Iterator it,
                             const BPlusTree& tree) {
  if (!it.Valid()) return tree.Last();
  it.Prev();
  return it;
}

}  // namespace

BPlusTree::Iterator BPlusTree::SeekLe(const Row& key) const {
  return StepBack(SeekGt(key), *this);
}

BPlusTree::Iterator BPlusTree::SeekLt(const Row& key) const {
  return StepBack(SeekGe(key), *this);
}

BPlusTree::Iterator BPlusTree::SeekPrefix(const Row& key, bool strict) const {
  auto above = [&](KeyRef entry) {
    int c = ComparePrefix(entry, key);
    return strict ? c > 0 : c >= 0;
  };
  const Node* node = root_.get();
  while (!node->leaf) {
    int lo = 0;
    int hi = node->count();
    while (lo < hi) {
      int mid = (lo + hi) / 2;
      if (above(node->key(mid))) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    node = node->children[lo].get();
  }
  Iterator it;
  for (; node != nullptr; node = node->next) {
    for (int i = 0; i < node->count(); ++i) {
      if (above(node->key(i))) {
        it.node_ = const_cast<Node*>(node);
        it.pos_ = i;
        return it;
      }
    }
  }
  return it;
}

BPlusTree::Iterator BPlusTree::SeekGe(const Row& key) const {
  return SeekPrefix(key, /*strict=*/false);
}

BPlusTree::Iterator BPlusTree::SeekGt(const Row& key) const {
  return SeekPrefix(key, /*strict=*/true);
}

}  // namespace mtcache
