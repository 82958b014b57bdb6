#include "opt/optimizer.h"

#include <chrono>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <utility>

#include "opt/cardinality.h"
#include "opt/cost_model.h"
#include "opt/unparse.h"
#include "opt/view_matching.h"

namespace mtcache {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double EstimateRowBytes(const Schema& schema) {
  double bytes = 4;
  for (const ColumnInfo& col : schema.columns()) {
    bytes += col.type == TypeId::kString ? 24 : 8;
  }
  return bytes;
}

LogicalPtr WrapFilter(LogicalPtr node, std::vector<BExprPtr> conjuncts) {
  if (conjuncts.empty()) return node;
  auto filter = std::make_unique<LogicalFilter>();
  filter->predicate = AndTogether(std::move(conjuncts));
  filter->schema = node->schema;
  filter->children.push_back(std::move(node));
  return filter;
}

// Substitutes project expressions into a predicate that references project
// *outputs*, producing a predicate over the project's *input*.
BExprPtr SubstituteThroughProject(const BoundExpr& pred,
                                  const std::vector<BExprPtr>& exprs,
                                  bool* ok) {
  switch (pred.kind) {
    case BoundExprKind::kColumnRef: {
      int ord = static_cast<const BoundColumnRef&>(pred).ordinal;
      if (ord < 0 || ord >= static_cast<int>(exprs.size())) {
        *ok = false;
        return CloneBound(pred);
      }
      return CloneBound(*exprs[ord]);
    }
    case BoundExprKind::kLiteral:
    case BoundExprKind::kParam:
      return CloneBound(pred);
    case BoundExprKind::kUnary: {
      const auto& e = static_cast<const BoundUnary&>(pred);
      return std::make_unique<BoundUnary>(
          e.op, SubstituteThroughProject(*e.operand, exprs, ok), e.type);
    }
    case BoundExprKind::kBinary: {
      const auto& e = static_cast<const BoundBinary&>(pred);
      return std::make_unique<BoundBinary>(
          e.op, SubstituteThroughProject(*e.left, exprs, ok),
          SubstituteThroughProject(*e.right, exprs, ok), e.type);
    }
    case BoundExprKind::kLike: {
      const auto& e = static_cast<const BoundLike&>(pred);
      return std::make_unique<BoundLike>(
          SubstituteThroughProject(*e.input, exprs, ok),
          SubstituteThroughProject(*e.pattern, exprs, ok), e.negated);
    }
    case BoundExprKind::kIsNull: {
      const auto& e = static_cast<const BoundIsNull&>(pred);
      return std::make_unique<BoundIsNull>(
          SubstituteThroughProject(*e.input, exprs, ok), e.negated);
    }
    case BoundExprKind::kFunction: {
      const auto& e = static_cast<const BoundFunction&>(pred);
      std::vector<BExprPtr> args;
      for (const auto& a : e.args) {
        args.push_back(SubstituteThroughProject(*a, exprs, ok));
      }
      return std::make_unique<BoundFunction>(e.fn, std::move(args), e.type);
    }
    case BoundExprKind::kCase: {
      const auto& e = static_cast<const BoundCase&>(pred);
      std::vector<std::pair<BExprPtr, BExprPtr>> branches;
      for (const auto& [when, then] : e.branches) {
        branches.emplace_back(SubstituteThroughProject(*when, exprs, ok),
                              SubstituteThroughProject(*then, exprs, ok));
      }
      return std::make_unique<BoundCase>(
          std::move(branches),
          e.else_expr ? SubstituteThroughProject(*e.else_expr, exprs, ok)
                      : nullptr,
          e.type);
    }
  }
  *ok = false;
  return CloneBound(pred);
}

// ---------------------------------------------------------------------------
// Normalization: split filters into conjuncts and push them to the leaves.
// ---------------------------------------------------------------------------

LogicalPtr Normalize(LogicalPtr node, std::vector<BExprPtr> inherited) {
  switch (node->kind) {
    case LogicalKind::kFilter: {
      auto* filter = static_cast<LogicalFilter*>(node.get());
      std::vector<const BoundExpr*> parts;
      CollectConjuncts(*filter->predicate, &parts);
      for (const BoundExpr* p : parts) inherited.push_back(CloneBound(*p));
      LogicalPtr child = std::move(node->children[0]);
      return Normalize(std::move(child), std::move(inherited));
    }
    case LogicalKind::kJoin: {
      auto* join = static_cast<LogicalJoin*>(node.get());
      int left_width = node->children[0]->schema.num_columns();
      std::vector<BExprPtr> left_down;
      std::vector<BExprPtr> right_down;
      std::vector<BExprPtr> stay;
      bool inner = join->join_kind == JoinKind::kInner;
      // For inner joins the ON condition joins the pool; for outer joins it
      // must stay attached to the join.
      std::vector<BExprPtr> pool = std::move(inherited);
      if (inner && join->condition != nullptr) {
        std::vector<const BoundExpr*> parts;
        CollectConjuncts(*join->condition, &parts);
        for (const BoundExpr* p : parts) pool.push_back(CloneBound(*p));
        join->condition = nullptr;
      }
      std::vector<BExprPtr> above;
      for (auto& c : pool) {
        std::vector<int> refs;
        CollectColumnRefs(*c, &refs);
        bool all_left = true;
        bool all_right = true;
        for (int r : refs) {
          if (r >= left_width) all_left = false;
          if (r < left_width) all_right = false;
        }
        if (refs.empty()) {
          // Row-free conjunct: keep at the join (cheap either way).
          stay.push_back(std::move(c));
        } else if (all_left) {
          left_down.push_back(std::move(c));
        } else if (all_right && inner) {
          ShiftColumnRefs(c.get(), -left_width);
          right_down.push_back(std::move(c));
        } else if (inner) {
          stay.push_back(std::move(c));
        } else {
          // Left outer: predicates touching the right side stay above.
          above.push_back(std::move(c));
        }
      }
      node->children[0] =
          Normalize(std::move(node->children[0]), std::move(left_down));
      node->children[1] =
          Normalize(std::move(node->children[1]), std::move(right_down));
      if (inner) {
        join->condition = AndTogether(std::move(stay));
      } else {
        // Re-attach row-free conjuncts above for outer joins.
        for (auto& c : stay) above.push_back(std::move(c));
      }
      return WrapFilter(std::move(node), std::move(above));
    }
    case LogicalKind::kProject: {
      auto* project = static_cast<LogicalProject*>(node.get());
      std::vector<BExprPtr> down;
      std::vector<BExprPtr> above;
      for (auto& c : inherited) {
        bool ok = true;
        BExprPtr pushed = SubstituteThroughProject(*c, project->exprs, &ok);
        if (ok) {
          down.push_back(std::move(pushed));
        } else {
          above.push_back(std::move(c));
        }
      }
      node->children[0] =
          Normalize(std::move(node->children[0]), std::move(down));
      return WrapFilter(std::move(node), std::move(above));
    }
    case LogicalKind::kSort:
    case LogicalKind::kDistinct: {
      node->children[0] =
          Normalize(std::move(node->children[0]), std::move(inherited));
      return node;
    }
    case LogicalKind::kGet:
      return WrapFilter(std::move(node), std::move(inherited));
    default: {
      // Limit, Aggregate, ChoosePlan, UnionAll: conjuncts cannot (or should
      // not) move past this operator.
      for (auto& child : node->children) {
        child = Normalize(std::move(child), {});
      }
      return WrapFilter(std::move(node), std::move(inherited));
    }
  }
}

// ---------------------------------------------------------------------------
// Used-column analysis (drives view matching's column coverage).
// ---------------------------------------------------------------------------

using UsedMap = std::map<const LogicalOp*, std::set<int>>;

void AddRefs(const BoundExpr& expr, std::set<int>* out) {
  std::vector<int> refs;
  CollectColumnRefs(expr, &refs);
  out->insert(refs.begin(), refs.end());
}

void ComputeUsed(const LogicalOp& node, const std::set<int>& used_out,
                 UsedMap* map) {
  switch (node.kind) {
    case LogicalKind::kGet:
      (*map)[&node].insert(used_out.begin(), used_out.end());
      return;
    case LogicalKind::kFilter: {
      std::set<int> used = used_out;
      AddRefs(*static_cast<const LogicalFilter&>(node).predicate, &used);
      ComputeUsed(*node.children[0], used, map);
      return;
    }
    case LogicalKind::kProject: {
      std::set<int> used;
      for (const auto& e : static_cast<const LogicalProject&>(node).exprs) {
        AddRefs(*e, &used);
      }
      ComputeUsed(*node.children[0], used, map);
      return;
    }
    case LogicalKind::kJoin: {
      const auto& join = static_cast<const LogicalJoin&>(node);
      int left_width = node.children[0]->schema.num_columns();
      std::set<int> combined = used_out;
      if (join.condition != nullptr) AddRefs(*join.condition, &combined);
      std::set<int> left;
      std::set<int> right;
      for (int o : combined) {
        if (o < left_width) {
          left.insert(o);
        } else {
          right.insert(o - left_width);
        }
      }
      ComputeUsed(*node.children[0], left, map);
      ComputeUsed(*node.children[1], right, map);
      return;
    }
    case LogicalKind::kAggregate: {
      const auto& agg = static_cast<const LogicalAggregate&>(node);
      std::set<int> used;
      for (const auto& g : agg.group_by) AddRefs(*g, &used);
      for (const auto& a : agg.aggs) {
        if (a.arg != nullptr) AddRefs(*a.arg, &used);
      }
      ComputeUsed(*node.children[0], used, map);
      return;
    }
    case LogicalKind::kSort: {
      std::set<int> used = used_out;
      for (const auto& k : static_cast<const LogicalSort&>(node).keys) {
        AddRefs(*k.expr, &used);
      }
      ComputeUsed(*node.children[0], used, map);
      return;
    }
    default:
      for (const auto& child : node.children) {
        ComputeUsed(*child, used_out, map);
      }
      return;
  }
}

std::set<int> AllColumns(const Schema& schema) {
  std::set<int> out;
  for (int i = 0; i < schema.num_columns(); ++i) out.insert(i);
  return out;
}

// ---------------------------------------------------------------------------
// Planner: top-down physical planning with the DataLocation property.
// ---------------------------------------------------------------------------

std::vector<SimpleConjunct> SimpleConjuncts(
    const std::vector<const BoundExpr*>& conjuncts) {
  std::vector<SimpleConjunct> simple;
  for (const BoundExpr* c : conjuncts) {
    SimpleConjunct sc;
    if (ExtractSimpleConjunct(*c, &sc)) simple.push_back(sc);
  }
  return simple;
}

// The row-free side of a simple conjunct.
const BoundExpr& ConjunctBound(const SimpleConjunct& sc) {
  const auto& bin = static_cast<const BoundBinary&>(*sc.source);
  return bin.left->kind == BoundExprKind::kColumnRef ? *bin.right : *bin.left;
}

struct PlanChoice {
  PhysicalPtr plan;
  double cost = kInf;
};

struct PlanResult {
  PhysicalPtr local_plan;  // best plan producing the result on this server
  double local_cost = kInf;
  bool remote_ok = false;  // subtree may execute wholly on `remote_server`
  std::string remote_server;
  double remote_exec_cost = kInf;  // execution cost there (factor applied)
  double rows = 1;
  double row_bytes = 32;
  const LogicalOp* logical = nullptr;  // for unparsing when shipped
};

class Planner {
 public:
  Planner(const Catalog* catalog, const OptimizerOptions& options,
          bool pretend_local, int* alternatives)
      : catalog_(catalog), options_(options), pretend_local_(pretend_local),
        alternatives_(alternatives) {}

  StatusOr<PlanResult> Plan(const LogicalOp& node);

  /// Enforces DataLocation = Local: picks the cheaper of the local plan and
  /// shipping the whole subtree (RemoteQuery + transfer cost).
  StatusOr<PlanChoice> DeliverLocal(PlanResult result) {
    double remote_total = RemoteTotal(result);
    if (result.local_cost <= remote_total) {
      if (result.local_plan == nullptr) {
        return Status::Internal("no viable plan for subexpression");
      }
      return PlanChoice{std::move(result.local_plan), result.local_cost};
    }
    auto remote = std::make_unique<PhysRemoteQuery>();
    remote->server = result.remote_server;
    MT_ASSIGN_OR_RETURN(remote->sql, LogicalToSql(*result.logical));
    remote->schema = result.logical->schema;
    remote->est_rows = result.rows;
    remote->est_cost = remote_total;
    return PlanChoice{std::move(remote), remote_total};
  }

  StatusOr<double> DeliveredCost(const LogicalOp& node) {
    MT_ASSIGN_OR_RETURN(PlanResult result, Plan(node));
    MT_ASSIGN_OR_RETURN(PlanChoice choice, DeliverLocal(std::move(result)));
    return choice.cost;
  }

 private:
  // Whether this Get can be scanned on this server.
  bool LocallyPlannable(const LogicalGet& get) const {
    if (get.table.empty()) return true;  // dual
    if (get.def == nullptr) return false;
    if (pretend_local_) return true;
    return get.server.empty() && !get.def->shadow;
  }

  // If the whole subtree can execute on one remote server, returns its name.
  std::optional<std::string> ShipServer(const LogicalOp& node) const {
    if (pretend_local_) return std::nullopt;
    if (!IsUnparsable(node)) return std::nullopt;
    std::optional<std::string> server;
    bool ok = true;
    CollectShipServer(node, &server, &ok);
    if (!ok || !server.has_value()) return std::nullopt;
    return server;
  }

  void CollectShipServer(const LogicalOp& node,
                         std::optional<std::string>* server, bool* ok) const {
    if (!*ok) return;
    if (node.kind == LogicalKind::kGet) {
      const auto& get = static_cast<const LogicalGet&>(node);
      std::string target;
      if (!get.server.empty()) {
        target = get.server;
      } else if (get.def != nullptr && get.def->shadow &&
                 !get.def->home_server.empty()) {
        // A cache server may shadow tables from several backends (§3);
        // each shadow table knows its home.
        target = get.def->home_server;
      } else if (get.def != nullptr && get.def->shadow &&
                 !options_.backend_server.empty()) {
        target = options_.backend_server;
      } else {
        *ok = false;  // local-only data source
        return;
      }
      if (server->has_value() && **server != target) {
        *ok = false;
        return;
      }
      *server = target;
    }
    for (const auto& child : node.children) CollectShipServer(*child, server, ok);
  }

  StatusOr<double> PretendCost(const LogicalOp& node) {
    Planner remote_planner(catalog_, options_, /*pretend_local=*/true,
                           alternatives_);
    MT_ASSIGN_OR_RETURN(PlanResult result, remote_planner.Plan(node));
    if (result.local_plan == nullptr) {
      return Status::Internal("remote cost estimation failed");
    }
    return result.local_cost;
  }

  StatusOr<PlanChoice> PlanSite(const LogicalGet& get,
                                const BoundExpr* predicate);
  StatusOr<PlanChoice> ScanAlternatives(const LogicalGet& get,
                                        const BoundExpr* predicate);

  // An index seek built from a site's simple conjuncts: equality on a key
  // prefix, then an optional range on the next key column.
  struct SeekShape {
    std::unique_ptr<PhysIndexSeek> seek;  // null: the index has no bound
    double fetched = 0;                   // estimated index entries read
  };
  SeekShape BuildSeek(const LogicalGet& get, int idx,
                      const std::vector<const BoundExpr*>& conjuncts,
                      const std::vector<SimpleConjunct>& simple,
                      const RelStats& stats, double out_rows,
                      bool allow_unbounded) const;

  // A direct table access: Get, Filter(Get), or either under the pure
  // column-remap / null-pad Project that view substitution wraps around it.
  struct AccessSite {
    const LogicalGet* get = nullptr;  // null: not a direct access
    const BoundExpr* predicate = nullptr;
    const LogicalProject* project = nullptr;
    std::vector<int> out_to_inner;  // project output -> table ordinal (-1)
    // Table ordinal behind output column `ord`, or -1.
    int TableColumn(int ord) const {
      if (project == nullptr) return ord;
      if (ord < 0 || ord >= static_cast<int>(out_to_inner.size())) return -1;
      return out_to_inner[ord];
    }
  };
  AccessSite DecomposeSite(const LogicalOp& node) const;

  // An index seek over `node` (a direct access) that delivers rows in `keys`
  // order, so the Sort can go; with `row_goal` >= 0 (the Limit above) the
  // seek stops after that many output rows, and it is costed that way. Null
  // plan when no index supplies the order.
  PlanChoice OrderedAccess(const LogicalOp& node,
                           const std::vector<SortKey>& keys, int64_t row_goal);

  StatusOr<PlanResult> PlanJoin(const LogicalOp& node);
  StatusOr<PlanResult> PlanInnerBlock(const LogicalOp& node);
  // Costs `node` (a join) over already planned children: the remote option
  // plus the IndexNLJoin / hash / swapped-hash / nested-loop alternatives.
  StatusOr<PlanResult> JoinChildren(const LogicalOp& node, PlanResult left,
                                    PlanResult right);
  // Result skeleton for `node`: estimates plus the remote option.
  PlanResult Begin(const LogicalOp& node);

  // Shipping the whole subtree: remote execution plus the transfer.
  double RemoteTotal(const PlanResult& result) const {
    if (!result.remote_ok) return kInf;
    return result.remote_exec_cost +
           options_.cost_model.TransferCost(result.rows, result.row_bytes);
  }
  // What DeliverLocal would pay for `result`.
  double DeliveredCostOf(const PlanResult& result) const {
    return std::min(result.local_cost, RemoteTotal(result));
  }

  const Catalog* catalog_;
  const OptimizerOptions& options_;
  bool pretend_local_;
  int* alternatives_;
  // Row count of a Limit waiting for a Sort below it, passed down through
  // 1:1 Projects and consumed by the next Plan call (see kLimit).
  int64_t sort_bound_ = -1;
};

PlanResult CloneResult(const PlanResult& r) {
  PlanResult copy;
  copy.local_plan = r.local_plan != nullptr ? ClonePhysical(*r.local_plan)
                                            : nullptr;
  copy.local_cost = r.local_cost;
  copy.remote_ok = r.remote_ok;
  copy.remote_server = r.remote_server;
  copy.remote_exec_cost = r.remote_exec_cost;
  copy.rows = r.rows;
  copy.row_bytes = r.row_bytes;
  copy.logical = r.logical;
  return copy;
}

StatusOr<PlanChoice> Planner::ScanAlternatives(const LogicalGet& get,
                                               const BoundExpr* predicate) {
  RelStats stats = EstimateLogical(get);
  double rows = stats.rows;
  double total_sel =
      predicate != nullptr ? EstimateSelectivity(*predicate, stats) : 1.0;
  double out_rows = std::max(rows * total_sel, 0.5);

  std::vector<const BoundExpr*> conjuncts;
  if (predicate != nullptr) CollectConjuncts(*predicate, &conjuncts);

  // --- Alternative 1: sequential scan with the filter folded in. ---
  PlanChoice best;
  {
    auto scan = std::make_unique<PhysSeqScan>();
    scan->def = get.def;
    scan->schema = get.schema;
    scan->est_rows = rows;
    double cost = rows * options_.cost_model.seq_row;
    if (predicate != nullptr) {
      // Same cost formula as the unfused Filter(SeqScan) pair, but
      // non-qualifying rows are rejected inside the scan (batchwise on the
      // batch path) and never materialized or emitted.
      cost += rows * options_.cost_model.filter_row;
      scan->pushed_predicate = CloneBound(*predicate);
      scan->est_rows = out_rows;
    }
    scan->est_cost = cost;
    best.plan = std::move(scan);
    best.cost = cost;
    ++*alternatives_;
  }

  // --- Alternative 2..n: index seeks. ---
  if (get.def != nullptr) {
    std::vector<SimpleConjunct> simple = SimpleConjuncts(conjuncts);
    for (size_t idx = 0; idx < get.def->indexes.size(); ++idx) {
      SeekShape shape =
          BuildSeek(get, static_cast<int>(idx), conjuncts, simple, stats,
                    out_rows, /*allow_unbounded=*/false);
      if (shape.seek == nullptr) continue;
      double cost = options_.cost_model.index_seek +
                    shape.fetched * options_.cost_model.index_row;
      if (shape.seek->pushed_predicate != nullptr) {
        cost += shape.fetched * options_.cost_model.filter_row;
      }
      shape.seek->est_cost = cost;
      ++*alternatives_;
      if (cost < best.cost) {
        best.plan = std::move(shape.seek);
        best.cost = cost;
      }
    }
  }
  return best;
}

Planner::SeekShape Planner::BuildSeek(
    const LogicalGet& get, int idx,
    const std::vector<const BoundExpr*>& conjuncts,
    const std::vector<SimpleConjunct>& simple, const RelStats& stats,
    double out_rows, bool allow_unbounded) const {
  const IndexDef& index = get.def->indexes[idx];
  std::vector<const SimpleConjunct*> used;
  std::vector<BExprPtr> eq_prefix;
  BExprPtr lo;
  BExprPtr hi;
  bool lo_incl = true;
  bool hi_incl = true;
  for (size_t k = 0; k < index.key_columns.size(); ++k) {
    int col = index.key_columns[k];
    const SimpleConjunct* eq = nullptr;
    for (const SimpleConjunct& sc : simple) {
      if (sc.column == col && sc.op == CompareOp::kEq) {
        eq = &sc;
        break;
      }
    }
    if (eq != nullptr) {
      const BoundExpr& rhs = ConjunctBound(*eq);
      if (!IsRowFree(rhs)) break;
      eq_prefix.push_back(CloneBound(rhs));
      used.push_back(eq);
      continue;
    }
    // Range on this column ends the prefix.
    for (const SimpleConjunct& sc : simple) {
      if (sc.column != col) continue;
      const BoundExpr& rhs = ConjunctBound(sc);
      if (!IsRowFree(rhs)) continue;
      if ((sc.op == CompareOp::kGt || sc.op == CompareOp::kGe) && !lo) {
        lo = CloneBound(rhs);
        lo_incl = sc.op == CompareOp::kGe;
        used.push_back(&sc);
      } else if ((sc.op == CompareOp::kLt || sc.op == CompareOp::kLe) &&
                 !hi) {
        hi = CloneBound(rhs);
        hi_incl = sc.op == CompareOp::kLe;
        used.push_back(&sc);
      }
    }
    break;
  }
  SeekShape shape;
  if (eq_prefix.empty() && !lo && !hi && !allow_unbounded) return shape;

  double rows = stats.rows;
  double seek_sel = 1.0;
  for (const SimpleConjunct* sc : used) {
    seek_sel *= EstimateSelectivity(*sc->source, stats);
  }
  shape.fetched = std::max(rows * seek_sel, 0.5);

  auto seek = std::make_unique<PhysIndexSeek>();
  seek->def = get.def;
  seek->index_ordinal = idx;
  seek->eq_prefix = std::move(eq_prefix);
  seek->lo = std::move(lo);
  seek->hi = std::move(hi);
  seek->lo_inclusive = lo_incl;
  seek->hi_inclusive = hi_incl;
  seek->schema = get.schema;
  seek->est_rows = shape.fetched;

  // Residual conjuncts (not used by the seek) fold into the seek too.
  std::vector<BExprPtr> residual;
  for (const BoundExpr* c : conjuncts) {
    bool was_used = false;
    for (const SimpleConjunct* sc : used) {
      if (sc->source == c) {
        was_used = true;
        break;
      }
    }
    if (!was_used) residual.push_back(CloneBound(*c));
  }
  if (!residual.empty()) {
    seek->pushed_predicate = AndTogether(std::move(residual));
    seek->est_rows = out_rows;
  }
  shape.seek = std::move(seek);
  return shape;
}

StatusOr<PlanChoice> Planner::PlanSite(const LogicalGet& get,
                                       const BoundExpr* predicate) {
  return ScanAlternatives(get, predicate);
}

PlanResult Planner::Begin(const LogicalOp& node) {
  PlanResult result;
  result.logical = &node;
  RelStats stats = EstimateLogical(node);
  result.rows = stats.rows;
  result.row_bytes = EstimateRowBytes(node.schema);
  if (node.kind == LogicalKind::kGet) {
    const auto& get = static_cast<const LogicalGet&>(node);
    if (get.def != nullptr && !get.def->stats.empty()) {
      result.row_bytes = get.def->stats.avg_row_bytes;
    }
  }

  // Remote option: the whole subtree executes on one remote server. Cost is
  // what that server's optimizer would estimate — we shadow its catalog and
  // statistics, so we estimate by planning "pretend local" (§5: local
  // optimization instead of remote optimization), scaled by the load factor.
  std::optional<std::string> ship = ShipServer(node);
  if (ship.has_value()) {
    auto cost = PretendCost(node);
    if (cost.ok()) {
      result.remote_ok = true;
      result.remote_server = *ship;
      result.remote_exec_cost = *cost * options_.remote_cost_factor;
    }
  }
  return result;
}

StatusOr<PlanResult> Planner::Plan(const LogicalOp& node) {
  const int64_t bound = std::exchange(sort_bound_, -1);
  if (node.kind == LogicalKind::kJoin) return PlanJoin(node);
  PlanResult result = Begin(node);

  // Local option.
  switch (node.kind) {
    case LogicalKind::kGet: {
      const auto& get = static_cast<const LogicalGet&>(node);
      if (get.table.empty()) {
        auto dual = std::make_unique<PhysDualScan>();
        dual->schema = node.schema;
        dual->est_rows = 1;
        dual->est_cost = 1;
        result.local_plan = std::move(dual);
        result.local_cost = 1;
        return result;
      }
      if (!LocallyPlannable(get)) return result;  // remote only
      MT_ASSIGN_OR_RETURN(PlanChoice choice, PlanSite(get, nullptr));
      result.local_plan = std::move(choice.plan);
      result.local_cost = choice.cost;
      return result;
    }
    case LogicalKind::kFilter: {
      const auto& filter = static_cast<const LogicalFilter&>(node);
      // Access-path selection when filtering directly over a scannable Get.
      if (node.children[0]->kind == LogicalKind::kGet) {
        const auto& get = static_cast<const LogicalGet&>(*node.children[0]);
        if (!get.table.empty() && LocallyPlannable(get)) {
          MT_ASSIGN_OR_RETURN(PlanChoice choice,
                              PlanSite(get, filter.predicate.get()));
          result.local_plan = std::move(choice.plan);
          result.local_cost = choice.cost;
          return result;
        }
      }
      MT_ASSIGN_OR_RETURN(PlanResult child, Plan(*node.children[0]));
      double child_rows = child.rows;
      MT_ASSIGN_OR_RETURN(PlanChoice delivered, DeliverLocal(std::move(child)));
      double cost = delivered.cost + child_rows * options_.cost_model.filter_row;
      auto phys = std::make_unique<PhysFilter>();
      phys->predicate = CloneBound(*filter.predicate);
      phys->schema = node.schema;
      phys->est_rows = result.rows;
      phys->est_cost = cost;
      phys->children.push_back(std::move(delivered.plan));
      result.local_plan = std::move(phys);
      result.local_cost = cost;
      return result;
    }
    case LogicalKind::kProject: {
      const auto& project = static_cast<const LogicalProject&>(node);
      sort_bound_ = bound;  // a Project keeps the row count
      MT_ASSIGN_OR_RETURN(PlanResult child, Plan(*node.children[0]));
      MT_ASSIGN_OR_RETURN(PlanChoice delivered, DeliverLocal(std::move(child)));
      // Under a Limit only the first `bound` rows are ever projected.
      double projected =
          bound >= 0 ? std::min(result.rows, static_cast<double>(bound))
                     : result.rows;
      double cost = delivered.cost + projected * options_.cost_model.project_row;
      // Fold the projection into a local scan directly below: qualifying
      // rows are rewritten at the scan and intermediate full-width rows are
      // never produced. Expressions stay valid because a (possibly
      // predicate-folded) scan still exposes the table schema.
      PhysicalOp* dp = delivered.plan.get();
      std::vector<BExprPtr>* slot = nullptr;
      if (dp->kind == PhysicalKind::kSeqScan) {
        slot = &static_cast<PhysSeqScan*>(dp)->pushed_projection;
      } else if (dp->kind == PhysicalKind::kIndexSeek) {
        slot = &static_cast<PhysIndexSeek*>(dp)->pushed_projection;
      }
      // A projection the scan already applies (view substitution's column
      // remap) composes with this one, so only the columns this Project
      // keeps are ever copied.
      std::vector<BExprPtr> folded;
      bool composed = slot != nullptr;
      for (const auto& e : project.exprs) {
        if (!composed) break;
        folded.push_back(slot->empty()
                             ? CloneBound(*e)
                             : SubstituteThroughProject(*e, *slot, &composed));
      }
      if (composed) {
        *slot = std::move(folded);
        dp->schema = node.schema;
        dp->est_rows = result.rows;
        dp->est_cost = cost;
        result.local_plan = std::move(delivered.plan);
        result.local_cost = cost;
        return result;
      }
      auto phys = std::make_unique<PhysProject>();
      for (const auto& e : project.exprs) phys->exprs.push_back(CloneBound(*e));
      phys->schema = node.schema;
      phys->est_rows = result.rows;
      phys->est_cost = cost;
      phys->children.push_back(std::move(delivered.plan));
      result.local_plan = std::move(phys);
      result.local_cost = cost;
      return result;
    }
    case LogicalKind::kJoin:
      break;  // PlanJoin
    case LogicalKind::kAggregate: {
      const auto& agg = static_cast<const LogicalAggregate&>(node);
      MT_ASSIGN_OR_RETURN(PlanResult child, Plan(*node.children[0]));
      double child_rows = child.rows;
      MT_ASSIGN_OR_RETURN(PlanChoice delivered, DeliverLocal(std::move(child)));
      double cost = delivered.cost + child_rows * options_.cost_model.agg_row;
      auto phys = std::make_unique<PhysHashAggregate>();
      for (const auto& g : agg.group_by) {
        phys->group_by.push_back(CloneBound(*g));
      }
      for (const auto& a : agg.aggs) {
        AggItem item;
        item.func = a.func;
        item.arg = a.arg ? CloneBound(*a.arg) : nullptr;
        phys->aggs.push_back(std::move(item));
      }
      phys->schema = node.schema;
      phys->est_rows = result.rows;
      phys->est_cost = cost;
      phys->children.push_back(std::move(delivered.plan));
      result.local_plan = std::move(phys);
      result.local_cost = cost;
      return result;
    }
    case LogicalKind::kSort: {
      // With a Limit above (bound >= 0) the Sort keeps only the first
      // `bound` rows; an index that delivers the order replaces it.
      const auto& sort = static_cast<const LogicalSort&>(node);
      MT_ASSIGN_OR_RETURN(PlanResult child, Plan(*node.children[0]));
      double child_rows = child.rows;
      MT_ASSIGN_OR_RETURN(PlanChoice delivered, DeliverLocal(std::move(child)));
      double cost =
          delivered.cost + options_.cost_model.SortCost(child_rows, bound);
      PlanChoice ordered =
          OrderedAccess(*node.children[0], sort.keys, bound);
      if (ordered.plan != nullptr && ordered.cost < cost) {
        result.local_plan = std::move(ordered.plan);
        result.local_cost = ordered.cost;
        return result;
      }
      auto phys = std::make_unique<PhysSort>();
      for (const auto& k : sort.keys) {
        SortKey key;
        key.expr = CloneBound(*k.expr);
        key.desc = k.desc;
        phys->keys.push_back(std::move(key));
      }
      phys->limit = bound;
      phys->schema = node.schema;
      phys->est_rows =
          bound >= 0 ? std::min(result.rows, static_cast<double>(bound))
                     : result.rows;
      phys->est_cost = cost;
      phys->children.push_back(std::move(delivered.plan));
      result.local_plan = std::move(phys);
      result.local_cost = cost;
      return result;
    }
    case LogicalKind::kLimit: {
      const auto& limit = static_cast<const LogicalLimit&>(node);
      sort_bound_ = limit.limit;
      MT_ASSIGN_OR_RETURN(PlanResult child, Plan(*node.children[0]));
      MT_ASSIGN_OR_RETURN(PlanChoice delivered, DeliverLocal(std::move(child)));
      // A Sort reached through Projects took the limit as its bound: the
      // Limit is folded into it.
      const PhysicalOp* below = delivered.plan.get();
      while (below->kind == PhysicalKind::kProject) {
        below = below->children[0].get();
      }
      if (below->kind == PhysicalKind::kSort &&
          static_cast<const PhysSort*>(below)->limit == limit.limit) {
        result.local_plan = std::move(delivered.plan);
        result.local_cost = delivered.cost;
        return result;
      }
      auto phys = std::make_unique<PhysLimit>();
      phys->limit = limit.limit;
      phys->schema = node.schema;
      phys->est_rows = result.rows;
      phys->est_cost = delivered.cost;
      phys->children.push_back(std::move(delivered.plan));
      result.local_plan = std::move(phys);
      result.local_cost = delivered.cost;
      return result;
    }
    case LogicalKind::kDistinct: {
      MT_ASSIGN_OR_RETURN(PlanResult child, Plan(*node.children[0]));
      double child_rows = child.rows;
      MT_ASSIGN_OR_RETURN(PlanChoice delivered, DeliverLocal(std::move(child)));
      double cost = delivered.cost + child_rows * options_.cost_model.distinct_row;
      auto phys = std::make_unique<PhysDistinct>();
      phys->schema = node.schema;
      phys->est_rows = result.rows;
      phys->est_cost = cost;
      phys->children.push_back(std::move(delivered.plan));
      result.local_plan = std::move(phys);
      result.local_cost = cost;
      return result;
    }
    case LogicalKind::kChoosePlan: {
      const auto& choose = static_cast<const LogicalChoosePlan&>(node);
      MT_ASSIGN_OR_RETURN(PlanResult left, Plan(*node.children[0]));
      MT_ASSIGN_OR_RETURN(PlanResult right, Plan(*node.children[1]));
      double rows_l = left.rows;
      double rows_r = right.rows;
      MT_ASSIGN_OR_RETURN(PlanChoice lplan, DeliverLocal(std::move(left)));
      MT_ASSIGN_OR_RETURN(PlanChoice rplan, DeliverLocal(std::move(right)));
      double p = choose.guard_prob;
      // §5.1: "the cost of the combined plan is computed as Fl*Cl + (1-Fl)*Cr".
      double cost = p * lplan.cost + (1 - p) * rplan.cost;

      auto phys = std::make_unique<PhysUnionAll>();
      phys->schema = node.schema;
      phys->est_rows = p * rows_l + (1 - p) * rows_r;
      phys->est_cost = cost;
      {
        auto guard_filter = std::make_unique<PhysFilter>();
        guard_filter->predicate = CloneBound(*choose.guard);
        guard_filter->startup = true;
        guard_filter->schema = node.schema;
        guard_filter->est_rows = rows_l;
        guard_filter->est_cost = lplan.cost;
        guard_filter->children.push_back(std::move(lplan.plan));
        phys->children.push_back(std::move(guard_filter));
      }
      {
        auto guard_filter = std::make_unique<PhysFilter>();
        guard_filter->predicate = std::make_unique<BoundUnary>(
            UnaryOp::kNot, CloneBound(*choose.guard), TypeId::kBool);
        guard_filter->startup = true;
        guard_filter->schema = node.schema;
        guard_filter->est_rows = rows_r;
        guard_filter->est_cost = rplan.cost;
        guard_filter->children.push_back(std::move(rplan.plan));
        phys->children.push_back(std::move(guard_filter));
      }
      result.local_plan = std::move(phys);
      result.local_cost = cost;
      return result;
    }
    case LogicalKind::kUnionAll: {
      const auto& u = static_cast<const LogicalUnionAll&>(node);
      auto phys = std::make_unique<PhysUnionAll>();
      phys->schema = node.schema;
      double cost = 0;
      double rows = 0;
      for (size_t i = 0; i < node.children.size(); ++i) {
        MT_ASSIGN_OR_RETURN(PlanResult child, Plan(*node.children[i]));
        double child_rows = child.rows;
        MT_ASSIGN_OR_RETURN(PlanChoice delivered,
                            DeliverLocal(std::move(child)));
        double prob = i < u.startup_probs.size() ? u.startup_probs[i] : 1.0;
        cost += prob * delivered.cost;
        rows += prob * child_rows;
        if (i < u.startup_preds.size() && u.startup_preds[i] != nullptr) {
          auto guard_filter = std::make_unique<PhysFilter>();
          guard_filter->predicate = CloneBound(*u.startup_preds[i]);
          guard_filter->startup = true;
          guard_filter->schema = node.schema;
          guard_filter->est_rows = child_rows;
          guard_filter->est_cost = delivered.cost;
          guard_filter->children.push_back(std::move(delivered.plan));
          phys->children.push_back(std::move(guard_filter));
        } else {
          phys->children.push_back(std::move(delivered.plan));
        }
      }
      phys->est_rows = rows;
      phys->est_cost = cost;
      result.local_plan = std::move(phys);
      result.local_cost = cost;
      result.rows = rows;
      return result;
    }
  }
  return Status::Internal("unhandled logical operator");
}

Planner::AccessSite Planner::DecomposeSite(const LogicalOp& node) const {
  AccessSite site;
  const LogicalOp* n = &node;
  // See through a pure remap/null-pad Project (view substitution).
  if (n->kind == LogicalKind::kProject) {
    const auto* project = static_cast<const LogicalProject*>(n);
    std::vector<int> mapping;
    for (const auto& e : project->exprs) {
      if (e->kind == BoundExprKind::kColumnRef) {
        mapping.push_back(static_cast<const BoundColumnRef&>(*e).ordinal);
      } else if (e->kind == BoundExprKind::kLiteral) {
        mapping.push_back(-1);
      } else {
        return site;
      }
    }
    site.project = project;
    site.out_to_inner = std::move(mapping);
    n = n->children[0].get();
  }
  if (n->kind == LogicalKind::kFilter &&
      n->children[0]->kind == LogicalKind::kGet) {
    site.predicate = static_cast<const LogicalFilter*>(n)->predicate.get();
    n = n->children[0].get();
  }
  if (n->kind == LogicalKind::kGet) {
    const auto& get = static_cast<const LogicalGet&>(*n);
    if (!get.table.empty() && LocallyPlannable(get) && get.def != nullptr) {
      site.get = &get;
    }
  }
  return site;
}

PlanChoice Planner::OrderedAccess(const LogicalOp& node,
                                  const std::vector<SortKey>& keys,
                                  int64_t row_goal) {
  PlanChoice best;
  AccessSite site = DecomposeSite(node);
  if (site.get == nullptr || keys.empty()) return best;
  const LogicalGet& get = *site.get;
  // Every key a column of the table, all in one direction.
  std::vector<int> key_cols;
  for (const SortKey& k : keys) {
    if (k.expr->kind != BoundExprKind::kColumnRef || k.desc != keys[0].desc) {
      return best;
    }
    int col = site.TableColumn(static_cast<const BoundColumnRef&>(*k.expr).ordinal);
    if (col < 0) return best;
    key_cols.push_back(col);
  }
  RelStats stats = EstimateLogical(get);
  double rows = stats.rows;
  double total_sel = site.predicate != nullptr
                         ? EstimateSelectivity(*site.predicate, stats)
                         : 1.0;
  double out_rows = std::max(rows * total_sel, 0.5);
  std::vector<const BoundExpr*> conjuncts;
  if (site.predicate != nullptr) CollectConjuncts(*site.predicate, &conjuncts);
  std::vector<SimpleConjunct> simple = SimpleConjuncts(conjuncts);

  for (size_t idx = 0; idx < get.def->indexes.size(); ++idx) {
    const IndexDef& index = get.def->indexes[idx];
    SeekShape shape = BuildSeek(get, static_cast<int>(idx), conjuncts, simple,
                                stats, out_rows, /*allow_unbounded=*/true);
    // The seek delivers key order from the first column past its equality
    // prefix; the sort keys must be a prefix of that order.
    size_t first = shape.seek->eq_prefix.size();
    if (first + key_cols.size() > index.key_columns.size()) continue;
    if (!std::equal(key_cols.begin(), key_cols.end(),
                    index.key_columns.begin() + first)) {
      continue;
    }
    // Under a row goal only the entries that yield the first `row_goal`
    // output rows are read.
    double residual_sel = std::min(out_rows / shape.fetched, 1.0);
    double touched = shape.fetched;
    if (row_goal >= 0) {
      touched = std::min(
          touched, std::max(static_cast<double>(row_goal), 1.0) / residual_sel);
    }
    double cost = options_.cost_model.index_seek +
                  touched * options_.cost_model.index_row;
    if (shape.seek->pushed_predicate != nullptr) {
      cost += touched * options_.cost_model.filter_row;
    }
    if (site.project != nullptr) {
      cost += touched * residual_sel * options_.cost_model.project_row;
      for (const auto& e : site.project->exprs) {
        shape.seek->pushed_projection.push_back(CloneBound(*e));
      }
      shape.seek->schema = node.schema;
    }
    shape.seek->backward = keys[0].desc;
    shape.seek->limit = row_goal;
    shape.seek->est_cost = cost;
    ++*alternatives_;
    if (cost < best.cost) {
      best.plan = std::move(shape.seek);
      best.cost = cost;
    }
  }
  return best;
}

StatusOr<PlanResult> Planner::PlanJoin(const LogicalOp& node) {
  const auto& join = static_cast<const LogicalJoin&>(node);
  if (join.join_kind == JoinKind::kInner) return PlanInnerBlock(node);
  MT_ASSIGN_OR_RETURN(PlanResult left, Plan(*node.children[0]));
  MT_ASSIGN_OR_RETURN(PlanResult right, Plan(*node.children[1]));
  return JoinChildren(node, std::move(left), std::move(right));
}

namespace {

// Joins above this many relations keep FROM order: the dynamic program
// visits up to 2^n subsets.
constexpr int kMaxReorderRelations = 6;

// A maximal block of inner joins flattened into its relations (in FROM
// order) and its join conjuncts, over the block's FROM-order output.
struct JoinBlock {
  std::vector<const LogicalOp*> leaves;
  std::vector<int> offset;  // first output column of each leaf
  std::vector<BExprPtr> conjuncts;
  std::vector<uint32_t> conjunct_leaves;  // leaves each conjunct references

  void Flatten(const LogicalOp& node, int at) {
    if (node.kind == LogicalKind::kJoin &&
        static_cast<const LogicalJoin&>(node).join_kind == JoinKind::kInner) {
      Flatten(*node.children[0], at);
      Flatten(*node.children[1],
              at + node.children[0]->schema.num_columns());
      const BExprPtr& cond = static_cast<const LogicalJoin&>(node).condition;
      if (cond == nullptr) return;
      std::vector<const BoundExpr*> parts;
      CollectConjuncts(*cond, &parts);
      for (const BoundExpr* p : parts) {
        BExprPtr c = CloneBound(*p);
        ShiftColumnRefs(c.get(), at);
        conjuncts.push_back(std::move(c));
      }
      return;
    }
    leaves.push_back(&node);
    offset.push_back(at);
  }

  int LeafOf(int column) const {
    int leaf = 0;
    while (leaf + 1 < static_cast<int>(offset.size()) &&
           offset[leaf + 1] <= column) {
      ++leaf;
    }
    return leaf;
  }

  void IndexConjuncts() {
    for (const BExprPtr& c : conjuncts) {
      std::vector<int> refs;
      CollectColumnRefs(*c, &refs);
      uint32_t mask = 0;
      for (int r : refs) mask |= 1u << LeafOf(r);
      conjunct_leaves.push_back(mask);
    }
  }

  // True iff some conjunct joins leaf `j` to the relations in `set` and
  // references nothing else.
  bool Connects(uint32_t set, int j) const {
    const uint32_t with = set | (1u << j);
    for (uint32_t m : conjunct_leaves) {
      if ((m & (1u << j)) != 0 && (m & set) != 0 && (m & ~with) == 0) {
        return true;
      }
    }
    return false;
  }
};

// One left-deep join order over a subset of a block's relations: the
// logical tree (columns in join order) and its planned result.
struct OrderedJoin {
  std::vector<int> order;
  LogicalPtr tree;
  PlanResult result;
  double delivered = kInf;
};

// Block output column -> column of a tree that joins `order`.
std::vector<int> OrderColumns(const JoinBlock& block,
                              const std::vector<int>& order) {
  int width = 0;
  for (const LogicalOp* leaf : block.leaves) {
    width += leaf->schema.num_columns();
  }
  std::vector<int> to_tree(width, -1);
  int at = 0;
  for (int leaf : order) {
    int n = block.leaves[leaf]->schema.num_columns();
    for (int c = 0; c < n; ++c) to_tree[block.offset[leaf] + c] = at + c;
    at += n;
  }
  return to_tree;
}

}  // namespace

// Inner-join ordering: a left-deep dynamic program over the connected
// subsets of the block's relations, memoized per subset. Each extension
// S -> S + {j} is costed by JoinChildren with j on the inner side, so it sees
// every IndexNLJoin / hash / swapped-hash alternative and the DataLocation
// (remote) option of the joined subset. The FROM-order plan is kept unless a
// reordered one, plus the Project that restores FROM column order, is
// strictly cheaper.
StatusOr<PlanResult> Planner::PlanInnerBlock(const LogicalOp& node) {
  JoinBlock block;
  block.Flatten(node, 0);
  const int n = static_cast<int>(block.leaves.size());
  std::vector<PlanResult> leaves;
  for (const LogicalOp* leaf : block.leaves) {
    MT_ASSIGN_OR_RETURN(PlanResult r, Plan(*leaf));
    leaves.push_back(std::move(r));
  }

  // The block as bound: left-deep in FROM order.
  int next_leaf = 0;
  std::function<StatusOr<PlanResult>(const LogicalOp&)> from_order =
      [&](const LogicalOp& op) -> StatusOr<PlanResult> {
    if (op.kind != LogicalKind::kJoin ||
        static_cast<const LogicalJoin&>(op).join_kind != JoinKind::kInner) {
      return CloneResult(leaves[next_leaf++]);
    }
    MT_ASSIGN_OR_RETURN(PlanResult left, from_order(*op.children[0]));
    MT_ASSIGN_OR_RETURN(PlanResult right, from_order(*op.children[1]));
    return JoinChildren(op, std::move(left), std::move(right));
  };
  MT_ASSIGN_OR_RETURN(PlanResult result, from_order(node));
  if (!options_.reorder_joins || n > kMaxReorderRelations ||
      result.local_plan == nullptr) {
    return result;
  }

  block.IndexConjuncts();
  const uint32_t all = (1u << n) - 1;
  std::vector<std::optional<OrderedJoin>> memo(all + 1);
  for (int i = 0; i < n; ++i) {
    OrderedJoin& single = memo[1u << i].emplace();
    single.order = {i};
    single.tree = CloneLogical(*block.leaves[i]);
    single.result = CloneResult(leaves[i]);
    single.result.logical = single.tree.get();
    single.delivered = DeliveredCostOf(single.result);
  }
  // Removing a relation lowers the mask, so every subset's memo entries are
  // final before the subset is extended.
  for (uint32_t set = 1; set <= all; ++set) {
    if ((set & (set - 1)) == 0) continue;  // single relation
    for (int j = 0; j < n; ++j) {
      const uint32_t rest = set & ~(1u << j);
      if ((set & (1u << j)) == 0 || !memo[rest].has_value() ||
          !block.Connects(rest, j)) {
        continue;
      }
      const OrderedJoin& left = *memo[rest];
      OrderedJoin cand;
      cand.order = left.order;
      cand.order.push_back(j);
      // Conjuncts that become evaluable here; on the first join that
      // includes those over a single relation.
      std::vector<int> to_tree = OrderColumns(block, cand.order);
      std::vector<BExprPtr> conds;
      for (size_t k = 0; k < block.conjuncts.size(); ++k) {
        uint32_t m = block.conjunct_leaves[k];
        bool first_join = left.order.size() == 1;
        if ((m & ~set) != 0 || ((m & ~rest) == 0 && !first_join)) continue;
        BExprPtr c = CloneBound(*block.conjuncts[k]);
        RemapColumnRefs(c.get(), to_tree);
        conds.push_back(std::move(c));
      }
      auto join = std::make_unique<LogicalJoin>();
      join->condition = AndTogether(std::move(conds));
      join->children.push_back(CloneLogical(*left.tree));
      join->children.push_back(CloneLogical(*block.leaves[j]));
      join->schema = Schema::Concat(join->children[0]->schema,
                                    join->children[1]->schema);
      PlanResult lres = CloneResult(left.result);
      lres.logical = join->children[0].get();
      PlanResult rres = CloneResult(leaves[j]);
      rres.logical = join->children[1].get();
      MT_ASSIGN_OR_RETURN(cand.result,
                          JoinChildren(*join, std::move(lres), std::move(rres)));
      cand.tree = std::move(join);
      cand.delivered = DeliveredCostOf(cand.result);
      if (!memo[set].has_value() || cand.delivered < memo[set]->delivered) {
        memo[set] = std::move(cand);
      }
    }
  }
  if (!memo[all].has_value() || memo[all]->result.local_plan == nullptr) {
    return result;
  }
  OrderedJoin& best = *memo[all];
  bool from_order_kept = true;
  for (int i = 0; i < n; ++i) from_order_kept &= best.order[i] == i;
  double restore_cost = result.rows * options_.cost_model.project_row;
  if (from_order_kept ||
      best.result.local_cost + restore_cost >= result.local_cost) {
    return result;
  }
  // Restore FROM column order for the parent.
  std::vector<int> to_tree = OrderColumns(block, best.order);
  auto project = std::make_unique<PhysProject>();
  for (int c = 0; c < node.schema.num_columns(); ++c) {
    const ColumnInfo& col = node.schema.column(c);
    project->exprs.push_back(
        std::make_unique<BoundColumnRef>(to_tree[c], col.type, col.name));
  }
  project->schema = node.schema;
  project->est_rows = result.rows;
  project->est_cost = best.result.local_cost + restore_cost;
  project->children.push_back(std::move(best.result.local_plan));
  result.local_plan = std::move(project);
  result.local_cost = best.result.local_cost + restore_cost;
  return result;
}

StatusOr<PlanResult> Planner::JoinChildren(const LogicalOp& node,
                                           PlanResult left,
                                           PlanResult right) {
  const auto& join = static_cast<const LogicalJoin&>(node);
  PlanResult result = Begin(node);
  double left_rows = left.rows;
  double right_rows = right.rows;
  MT_ASSIGN_OR_RETURN(PlanChoice lplan, DeliverLocal(std::move(left)));
  MT_ASSIGN_OR_RETURN(PlanChoice rplan, DeliverLocal(std::move(right)));

  int left_width = node.children[0]->schema.num_columns();
  // Extract equi-join keys crossing the boundary.
  std::vector<int> probe_keys;
  std::vector<int> build_keys;
  std::vector<BExprPtr> residual;
  if (join.condition != nullptr) {
    std::vector<const BoundExpr*> conjuncts;
    CollectConjuncts(*join.condition, &conjuncts);
    for (const BoundExpr* c : conjuncts) {
      bool is_key = false;
      if (c->kind == BoundExprKind::kBinary) {
        const auto& bin = static_cast<const BoundBinary&>(*c);
        if (bin.op == BinaryOp::kEq &&
            bin.left->kind == BoundExprKind::kColumnRef &&
            bin.right->kind == BoundExprKind::kColumnRef) {
          int a = static_cast<const BoundColumnRef&>(*bin.left).ordinal;
          int b = static_cast<const BoundColumnRef&>(*bin.right).ordinal;
          if (a < left_width && b >= left_width) {
            probe_keys.push_back(a);
            build_keys.push_back(b - left_width);
            is_key = true;
          } else if (b < left_width && a >= left_width) {
            probe_keys.push_back(b);
            build_keys.push_back(a - left_width);
            is_key = true;
          }
        }
      }
      if (!is_key) residual.push_back(CloneBound(*c));
    }
  }

  // Alternative: index nested-loop join, when the inner (right) side is
  // a scannable (possibly filtered) table with an index led by the join
  // column. This is how point joins (item->author etc.) should run.
  AccessSite inner = DecomposeSite(*node.children[1]);
  PhysicalPtr inlj_plan;
  double inlj_cost = kInf;
  if (inner.get != nullptr && !probe_keys.empty()) {
    for (size_t idx = 0; idx < inner.get->def->indexes.size(); ++idx) {
      const IndexDef& index = inner.get->def->indexes[idx];
      for (size_t k = 0; k < probe_keys.size(); ++k) {
        // Map the join key through the projection, if any.
        int inner_key = inner.TableColumn(build_keys[k]);
        if (inner_key < 0 || index.key_columns.empty() ||
            index.key_columns[0] != inner_key) {
          continue;
        }
        RelStats inner_stats = EstimateLogical(*inner.get);
        double ndv = 1;
        if (inner_key >= 0 &&
            inner_key < static_cast<int>(inner_stats.cols.size())) {
          ndv = std::max(inner_stats.cols[inner_key].ndv, 1.0);
        }
        double per_probe = inner_stats.rows / ndv;
        double pred_sel =
            inner.predicate != nullptr
                ? EstimateSelectivity(*inner.predicate, inner_stats)
                : 1.0;
        double cost =
            lplan.cost +
            left_rows * (options_.cost_model.index_seek +
                         per_probe * (options_.cost_model.index_row +
                                      options_.cost_model.filter_row));
        ++*alternatives_;
        if (cost >= inlj_cost) continue;
        auto phys = std::make_unique<PhysIndexNLJoin>();
        phys->join_kind = join.join_kind;
        phys->inner_def = inner.get->def;
        phys->index_ordinal = static_cast<int>(idx);
        phys->outer_key = probe_keys[k];
        phys->inner_predicate = inner.predicate != nullptr
                                    ? CloneBound(*inner.predicate)
                                    : nullptr;
        if (inner.project != nullptr) {
          for (const auto& e : inner.project->exprs) {
            phys->inner_projection.push_back(CloneBound(*e));
          }
        }
        // Residual: every other join conjunct (including other key
        // equalities) evaluated over the concatenated row.
        std::vector<BExprPtr> inlj_residual;
        for (const auto& r : residual) {
          inlj_residual.push_back(CloneBound(*r));
        }
        for (size_t j = 0; j < probe_keys.size(); ++j) {
          if (j == k) continue;
          inlj_residual.push_back(std::make_unique<BoundBinary>(
              BinaryOp::kEq,
              std::make_unique<BoundColumnRef>(probe_keys[j],
                                               TypeId::kNull, "lk"),
              std::make_unique<BoundColumnRef>(build_keys[j] + left_width,
                                               TypeId::kNull, "rk"),
              TypeId::kBool));
        }
        phys->residual = AndTogether(std::move(inlj_residual));
        phys->schema = node.schema;
        phys->est_rows = result.rows * pred_sel;
        phys->est_cost = cost;
        // The plan owns only the outer child; lplan was moved for the
        // first alternative, so clone via re-plan is avoided by deciding
        // before moving (see ordering below).
        inlj_plan = std::move(phys);
        inlj_cost = cost;
        break;
      }
    }
  }

  ++*alternatives_;
  if (!probe_keys.empty()) {
    double hash_cost = lplan.cost + rplan.cost +
                       right_rows * options_.cost_model.hash_build_row +
                       left_rows * options_.cost_model.hash_probe_row +
                       result.rows * options_.cost_model.filter_row;
    // Commuted alternative (inner joins only): build on the LEFT input
    // and probe with the right, restoring column order with a Project.
    double swapped_cost = kInf;
    if (join.join_kind == JoinKind::kInner) {
      ++*alternatives_;
      swapped_cost = lplan.cost + rplan.cost +
                     left_rows * options_.cost_model.hash_build_row +
                     right_rows * options_.cost_model.hash_probe_row +
                     result.rows *
                         (options_.cost_model.filter_row +
                          options_.cost_model.project_row);
    }
    if (inlj_plan != nullptr && inlj_cost < hash_cost &&
        inlj_cost < swapped_cost) {
      inlj_plan->children.push_back(std::move(lplan.plan));
      result.local_plan = std::move(inlj_plan);
      result.local_cost = inlj_cost;
      return result;
    }
    if (swapped_cost < hash_cost) {
      int right_width = node.children[1]->schema.num_columns();
      auto phys = std::make_unique<PhysHashJoin>();
      phys->join_kind = JoinKind::kInner;
      // Probe = right input, build = left input; keys swap roles and the
      // residual's ordinals are remapped to (right, left) order.
      phys->probe_keys = build_keys;
      phys->build_keys = probe_keys;
      std::vector<BExprPtr> swapped_residual;
      for (auto& r : residual) {
        // old ordinal o: o < left_width -> o + right_width (left now
        // second); else o - left_width (right now first).
        std::vector<int> mapping(left_width + right_width);
        for (int o = 0; o < left_width; ++o) mapping[o] = o + right_width;
        for (int o = 0; o < right_width; ++o) {
          mapping[left_width + o] = o;
        }
        BExprPtr copy = CloneBound(*r);
        RemapColumnRefs(copy.get(), mapping);
        swapped_residual.push_back(std::move(copy));
      }
      phys->residual = AndTogether(std::move(swapped_residual));
      phys->schema =
          Schema::Concat(node.children[1]->schema, node.children[0]->schema);
      phys->est_rows = result.rows;
      phys->est_cost = swapped_cost;
      phys->children.push_back(std::move(rplan.plan));  // probe
      phys->children.push_back(std::move(lplan.plan));  // build
      // Restore (left, right) column order for the parent.
      auto project = std::make_unique<PhysProject>();
      for (int o = 0; o < left_width; ++o) {
        const ColumnInfo& col = node.children[0]->schema.column(o);
        project->exprs.push_back(std::make_unique<BoundColumnRef>(
            right_width + o, col.type, col.name));
      }
      for (int o = 0; o < right_width; ++o) {
        const ColumnInfo& col = node.children[1]->schema.column(o);
        project->exprs.push_back(
            std::make_unique<BoundColumnRef>(o, col.type, col.name));
      }
      project->schema = node.schema;
      project->est_rows = result.rows;
      project->est_cost = swapped_cost;
      project->children.push_back(std::move(phys));
      result.local_plan = std::move(project);
      result.local_cost = swapped_cost;
      return result;
    }
    auto phys = std::make_unique<PhysHashJoin>();
    phys->join_kind = join.join_kind;
    phys->probe_keys = std::move(probe_keys);
    phys->build_keys = std::move(build_keys);
    phys->residual = AndTogether(std::move(residual));
    phys->schema = node.schema;
    phys->est_rows = result.rows;
    phys->est_cost = hash_cost;
    phys->children.push_back(std::move(lplan.plan));
    phys->children.push_back(std::move(rplan.plan));
    result.local_plan = std::move(phys);
    result.local_cost = hash_cost;
  } else {
    double cost = lplan.cost + rplan.cost +
                  left_rows * right_rows * options_.cost_model.nl_inner_row;
    auto phys = std::make_unique<PhysNLJoin>();
    phys->join_kind = join.join_kind;
    phys->condition =
        join.condition != nullptr ? CloneBound(*join.condition) : nullptr;
    phys->schema = node.schema;
    phys->est_rows = result.rows;
    phys->est_cost = cost;
    phys->children.push_back(std::move(lplan.plan));
    phys->children.push_back(std::move(rplan.plan));
    result.local_plan = std::move(phys);
    result.local_cost = cost;
  }
  return result;
}

// ---------------------------------------------------------------------------
// View-matching rewrite driver.
// ---------------------------------------------------------------------------

// Collects rewrite sites: slots holding Filter(Get) or bare Get.
void CollectSites(LogicalPtr* slot, std::vector<LogicalPtr*>* sites) {
  LogicalOp* node = slot->get();
  if (node->kind == LogicalKind::kGet) {
    sites->push_back(slot);
    return;
  }
  if (node->kind == LogicalKind::kFilter &&
      node->children[0]->kind == LogicalKind::kGet) {
    sites->push_back(slot);
    return;
  }
  for (auto& child : node->children) {
    CollectSites(&child, sites);
  }
}

struct SiteInfo {
  LogicalGet* get = nullptr;
  const BoundExpr* predicate = nullptr;  // may be null
  std::vector<const BoundExpr*> conjuncts;
};

SiteInfo InspectSite(LogicalPtr* slot) {
  SiteInfo info;
  LogicalOp* node = slot->get();
  if (node->kind == LogicalKind::kGet) {
    info.get = static_cast<LogicalGet*>(node);
  } else {
    auto* filter = static_cast<LogicalFilter*>(node);
    info.get = static_cast<LogicalGet*>(node->children[0].get());
    info.predicate = filter->predicate.get();
    CollectConjuncts(*filter->predicate, &info.conjuncts);
  }
  return info;
}

// Parallel-scan post-pass: wraps full scans of stored tables whose catalog
// cardinality clears `parallel_scan_min_rows` in a Gather(dop=max_dop).
// Runs after plan choice so it never perturbs costing or routing decisions —
// Gather preserves the child's output order, row count, and charged cost
// exactly, it only changes which threads do the work.
void MaybeGather(PhysicalPtr* slot, const OptimizerOptions& opts) {
  PhysicalOp* op = slot->get();
  for (auto& child : op->children) MaybeGather(&child, opts);
  if (op->kind != PhysicalKind::kSeqScan) return;
  const auto& scan = static_cast<const PhysSeqScan&>(*op);
  if (scan.def == nullptr || scan.def->virtual_table) return;
  if (static_cast<double>(scan.def->stats.row_count) <
      opts.parallel_scan_min_rows) {
    return;
  }
  auto gather = std::make_unique<PhysGather>();
  gather->dop = opts.max_dop;
  gather->schema = op->schema;
  gather->est_rows = op->est_rows;
  gather->est_cost = op->est_cost;
  gather->children.push_back(std::move(*slot));
  *slot = std::move(gather);
}

}  // namespace

StatusOr<OptimizeResult> Optimizer::Optimize(const LogicalOp& query) const {
  auto start = std::chrono::steady_clock::now();
  OptimizeResult out;
  int alternatives = 0;

  LogicalPtr work = CloneLogical(query);
  work = Normalize(std::move(work), {});

  if (options_.enable_view_matching) {
    // Pass 1: unconditional substitutions, chosen cost-based (or forced when
    // mimicking DBCache-style routing).
    Planner cmp(catalog_, options_, /*pretend_local=*/false, &alternatives);
    std::vector<LogicalPtr*> sites;
    CollectSites(&work, &sites);
    UsedMap used;
    ComputeUsed(*work, AllColumns(work->schema), &used);
    for (LogicalPtr* slot : sites) {
      SiteInfo info = InspectSite(slot);
      auto it = used.find(info.get);
      std::set<int> used_cols =
          it != used.end() ? it->second : AllColumns(info.get->schema);
      std::vector<ViewMatch> matches =
          MatchViews(*info.get, info.conjuncts, used_cols, *catalog_,
                     options_.allow_mixed_results, options_.max_staleness,
                     options_.current_time, options_.decision_stats);
      const ViewMatch* chosen = nullptr;
      double best_cost = kInf;
      // Retained past the substitution so the chosen view's estimated
      // saving (original minus substitute delivered cost) can be recorded.
      double original_cost_units = -1;
      if (options_.cost_based_routing) {
        auto original_cost = cmp.DeliveredCost(**slot);
        if (original_cost.ok()) {
          best_cost = *original_cost;
          original_cost_units = *original_cost;
        }
      }
      for (const ViewMatch& m : matches) {
        if (m.guard != nullptr) continue;  // conditional: pass 2
        ++alternatives;
        if (!options_.cost_based_routing) {
          chosen = &m;
          break;
        }
        auto cost = cmp.DeliveredCost(*m.substitute);
        if (cost.ok() && *cost < best_cost) {
          best_cost = *cost;
          chosen = &m;
        }
      }
      // Decide whether this site counts toward the view-match stats before
      // substituting: the substitution frees the subtree info.get points to.
      const bool count_site =
          options_.decision_stats != nullptr && info.get->def != nullptr &&
          !info.get->def->virtual_table &&
          !catalog_->ViewsOver(info.get->table).empty();
      if (chosen != nullptr) {
        if (chosen->view != nullptr) {
          out.matched_views.push_back(chosen->view->name);
        }
        if (original_cost_units >= 0 && best_cost < original_cost_units) {
          out.est_saved_units += original_cost_units - best_cost;
        }
        *slot = CloneLogical(*chosen->substitute);
      }
      if (count_site) {
        bool has_conditional = false;
        for (const ViewMatch& m : matches) {
          if (m.guard != nullptr) has_conditional = true;
        }
        if (chosen != nullptr) {
          ++options_.decision_stats->view_match_hits;
        } else if (!has_conditional || !options_.enable_dynamic_plans) {
          // Conditional-only sites are decided in pass 2 (counted there).
          ++options_.decision_stats->view_match_misses;
        }
      }
    }

    // Pass 2: first conditional (parameterized) match becomes a dynamic plan.
    if (options_.enable_dynamic_plans) {
      sites.clear();
      CollectSites(&work, &sites);
      used.clear();
      ComputeUsed(*work, AllColumns(work->schema), &used);
      for (LogicalPtr* slot : sites) {
        SiteInfo info = InspectSite(slot);
        auto it = used.find(info.get);
        std::set<int> used_cols =
            it != used.end() ? it->second : AllColumns(info.get->schema);
        // No decision_stats here: pass 1 already counted this site's
        // currency checks, and conditional usage is counted below.
        std::vector<ViewMatch> matches =
            MatchViews(*info.get, info.conjuncts, used_cols, *catalog_,
                       options_.allow_mixed_results, options_.max_staleness,
                       options_.current_time);
        // Substitutions below free the subtree info.get points into; keep
        // copies of the identifiers needed to re-locate the site afterwards.
        const std::string site_table = info.get->table;
        const std::string site_alias = info.get->alias;
        ViewMatch* conditional = nullptr;
        for (ViewMatch& m : matches) {
          if (m.guard != nullptr) {
            conditional = &m;
            break;
          }
        }
        if (conditional == nullptr) continue;
        ++alternatives;
        if (options_.decision_stats != nullptr) {
          ++options_.decision_stats->view_match_conditional;
        }
        if (conditional->view != nullptr) {
          out.matched_views.push_back(conditional->view->name);
        }
        // Whole-tree delivered cost before the ChoosePlan substitution; the
        // difference against the final variant is the dynamic plan's
        // estimated per-execution saving.
        double pass2_base_cost = -1;
        if (options_.cost_based_routing) {
          auto base = cmp.DeliveredCost(*work);
          if (base.ok()) pass2_base_cost = *base;
        }

        // Candidate A: ChoosePlan. With pull-up, the ChoosePlan floats to
        // the root so each branch is optimized independently and the remote
        // branch can ship the largest possible query (§5.1.2).
        LogicalPtr cp_variant;
        if (options_.pull_up_chooseplan) {
          auto cp = std::make_unique<LogicalChoosePlan>();
          cp->guard = CloneBound(*conditional->guard);
          cp->guard_prob = conditional->guard_prob;
          cp->schema = work->schema;
          LogicalPtr original = CloneLogical(*work);
          *slot = CloneLogical(*conditional->substitute);
          cp->children.push_back(std::move(work));
          cp->children.push_back(std::move(original));
          cp_variant = std::move(cp);
        } else {
          auto cp = std::make_unique<LogicalChoosePlan>();
          cp->guard = CloneBound(*conditional->guard);
          cp->guard_prob = conditional->guard_prob;
          cp->schema = (*slot)->schema;
          LogicalPtr original_site = CloneLogical(**slot);
          cp->children.push_back(CloneLogical(*conditional->substitute));
          cp->children.push_back(std::move(original_site));
          *slot = std::move(cp);
          cp_variant = std::move(work);
        }

        // Candidate B: mixed-result plan (regular matviews only).
        if (conditional->mixed != nullptr && options_.cost_based_routing) {
          // Rebuild the original tree with the site replaced by the mixed
          // UnionAll, and compare costs.
          LogicalPtr mixed_variant;
          {
            // cp_variant holds the tree; locate the equivalent structure is
            // complex, so instead rebuild from the pull-up fallback branch.
            const LogicalOp* original_tree =
                options_.pull_up_chooseplan ? cp_variant->children[1].get()
                                            : nullptr;
            if (original_tree != nullptr) {
              mixed_variant = CloneLogical(*original_tree);
              std::vector<LogicalPtr*> msites;
              CollectSites(&mixed_variant, &msites);
              for (LogicalPtr* mslot : msites) {
                SiteInfo minfo = InspectSite(mslot);
                if (minfo.get->table == site_table &&
                    minfo.get->alias == site_alias) {
                  *mslot = CloneLogical(*conditional->mixed);
                  break;
                }
              }
            }
          }
          if (mixed_variant != nullptr) {
            auto cp_cost = cmp.DeliveredCost(*cp_variant);
            auto mixed_cost = cmp.DeliveredCost(*mixed_variant);
            if (cp_cost.ok() && mixed_cost.ok() && *mixed_cost < *cp_cost) {
              cp_variant = std::move(mixed_variant);
            }
          }
        }

        if (pass2_base_cost >= 0) {
          auto final_cost = cmp.DeliveredCost(*cp_variant);
          if (final_cost.ok() && *final_cost < pass2_base_cost) {
            out.est_saved_units += pass2_base_cost - *final_cost;
          }
        }

        work = std::move(cp_variant);
        break;  // one dynamic site per query
      }
    }
  }

  Planner planner(catalog_, options_, /*pretend_local=*/false, &alternatives);
  MT_ASSIGN_OR_RETURN(PlanResult root, planner.Plan(*work));
  double root_rows = root.rows;
  MT_ASSIGN_OR_RETURN(PlanChoice choice, planner.DeliverLocal(std::move(root)));

  out.plan = std::move(choice.plan);
  if (options_.max_dop > 1) MaybeGather(&out.plan, options_);
  out.est_cost = choice.cost;
  out.est_rows = root_rows;
  out.plan_size = PhysicalPlanSize(*out.plan);
  out.alternatives_considered = alternatives;

  // Scan for RemoteQuery / startup predicates.
  std::vector<const PhysicalOp*> stack = {out.plan.get()};
  while (!stack.empty()) {
    const PhysicalOp* op = stack.back();
    stack.pop_back();
    if (op->kind == PhysicalKind::kRemoteQuery) out.uses_remote = true;
    if (op->kind == PhysicalKind::kFilter &&
        static_cast<const PhysFilter*>(op)->startup) {
      out.dynamic_plan = true;
    }
    for (const auto& child : op->children) stack.push_back(child.get());
  }
  if (options_.decision_stats != nullptr) {
    if (out.uses_remote) ++options_.decision_stats->remote_plans;
    if (out.dynamic_plan) ++options_.decision_stats->dynamic_plans;
  }

  out.optimize_micros = std::chrono::duration_cast<std::chrono::microseconds>(
                            std::chrono::steady_clock::now() - start)
                            .count();
  return out;
}

}  // namespace mtcache
