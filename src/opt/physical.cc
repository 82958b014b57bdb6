#include "opt/physical.h"

namespace mtcache {

namespace {

// " [pred: ...] [proj: ...]" annotations for scans with folded-in filter /
// projection; appended after the base label so plan-shape matching on
// "SeqScan(name)" / "IndexSeek(name.idx)" keeps working.
std::string PushdownSuffix(const BExprPtr& pred,
                           const std::vector<BExprPtr>& proj) {
  std::string out;
  if (pred != nullptr) out += " [pred: " + BoundToSql(*pred) + "]";
  if (!proj.empty()) {
    out += " [proj: ";
    for (size_t i = 0; i < proj.size(); ++i) {
      if (i > 0) out += ", ";
      out += BoundToSql(*proj[i]);
    }
    out += "]";
  }
  return out;
}

}  // namespace

std::string PhysicalOpLabel(const PhysicalOp& op) {
  switch (op.kind) {
    case PhysicalKind::kDualScan:
      return "DualScan";
    case PhysicalKind::kSeqScan: {
      const auto& o = static_cast<const PhysSeqScan&>(op);
      return "SeqScan(" + o.def->name + ")" +
             PushdownSuffix(o.pushed_predicate, o.pushed_projection);
    }
    case PhysicalKind::kIndexSeek: {
      const auto& o = static_cast<const PhysIndexSeek&>(op);
      return "IndexSeek(" + o.def->name + "." +
             o.def->indexes[o.index_ordinal].name + ")" +
             (o.backward ? " [backward]" : "") + PushdownSuffix(o.pushed_predicate, o.pushed_projection);
    }
    case PhysicalKind::kFilter: {
      const auto& o = static_cast<const PhysFilter&>(op);
      return std::string(o.startup ? "StartupFilter(" : "Filter(") +
             BoundToSql(*o.predicate) + ")";
    }
    case PhysicalKind::kProject:
      return "Project";
    case PhysicalKind::kNLJoin: {
      const auto& o = static_cast<const PhysNLJoin&>(op);
      return o.join_kind == JoinKind::kInner ? "NLJoin" : "NLJoin[left outer]";
    }
    case PhysicalKind::kIndexNLJoin: {
      const auto& o = static_cast<const PhysIndexNLJoin&>(op);
      std::string label = "IndexNLJoin(" + o.inner_def->name + "." +
                          o.inner_def->indexes[o.index_ordinal].name + ")";
      if (o.join_kind == JoinKind::kLeftOuter) label += "[left outer]";
      return label;
    }
    case PhysicalKind::kHashJoin: {
      const auto& o = static_cast<const PhysHashJoin&>(op);
      return o.join_kind == JoinKind::kInner ? "HashJoin"
                                             : "HashJoin[left outer]";
    }
    case PhysicalKind::kHashAggregate:
      return "HashAggregate";
    case PhysicalKind::kSort: {
      const auto& o = static_cast<const PhysSort&>(op);
      return o.limit < 0 ? "Sort" : "Sort(top " + std::to_string(o.limit) + ")";
    }
    case PhysicalKind::kLimit:
      return "Limit(" +
             std::to_string(static_cast<const PhysLimit&>(op).limit) + ")";
    case PhysicalKind::kDistinct:
      return "Distinct";
    case PhysicalKind::kUnionAll:
      return "UnionAll";
    case PhysicalKind::kRemoteQuery: {
      const auto& o = static_cast<const PhysRemoteQuery&>(op);
      return "RemoteQuery[" + o.server + "](" + o.sql + ")";
    }
    case PhysicalKind::kGather:
      return "Gather(dop=" +
             std::to_string(static_cast<const PhysGather&>(op).dop) + ")";
  }
  return "?";
}

namespace {

BExprPtr CloneOrNull(const BExprPtr& e) {
  return e != nullptr ? CloneBound(*e) : nullptr;
}

std::vector<BExprPtr> CloneAll(const std::vector<BExprPtr>& exprs) {
  std::vector<BExprPtr> out;
  out.reserve(exprs.size());
  for (const BExprPtr& e : exprs) out.push_back(CloneBound(*e));
  return out;
}

std::vector<SortKey> CloneKeys(const std::vector<SortKey>& keys) {
  std::vector<SortKey> out;
  for (const SortKey& k : keys) out.push_back(SortKey{CloneBound(*k.expr), k.desc});
  return out;
}

PhysicalPtr CloneNode(const PhysicalOp& op) {
  switch (op.kind) {
    case PhysicalKind::kDualScan:
      return std::make_unique<PhysDualScan>();
    case PhysicalKind::kSeqScan: {
      const auto& o = static_cast<const PhysSeqScan&>(op);
      auto c = std::make_unique<PhysSeqScan>();
      c->def = o.def;
      c->pushed_predicate = CloneOrNull(o.pushed_predicate);
      c->pushed_projection = CloneAll(o.pushed_projection);
      return c;
    }
    case PhysicalKind::kIndexSeek: {
      const auto& o = static_cast<const PhysIndexSeek&>(op);
      auto c = std::make_unique<PhysIndexSeek>();
      c->def = o.def;
      c->index_ordinal = o.index_ordinal;
      c->backward = o.backward;
      c->limit = o.limit;
      c->eq_prefix = CloneAll(o.eq_prefix);
      c->lo = CloneOrNull(o.lo);
      c->lo_inclusive = o.lo_inclusive;
      c->hi = CloneOrNull(o.hi);
      c->hi_inclusive = o.hi_inclusive;
      c->pushed_predicate = CloneOrNull(o.pushed_predicate);
      c->pushed_projection = CloneAll(o.pushed_projection);
      return c;
    }
    case PhysicalKind::kFilter: {
      const auto& o = static_cast<const PhysFilter&>(op);
      auto c = std::make_unique<PhysFilter>();
      c->predicate = CloneOrNull(o.predicate);
      c->startup = o.startup;
      return c;
    }
    case PhysicalKind::kProject: {
      auto c = std::make_unique<PhysProject>();
      c->exprs = CloneAll(static_cast<const PhysProject&>(op).exprs);
      return c;
    }
    case PhysicalKind::kNLJoin: {
      const auto& o = static_cast<const PhysNLJoin&>(op);
      auto c = std::make_unique<PhysNLJoin>();
      c->join_kind = o.join_kind;
      c->condition = CloneOrNull(o.condition);
      return c;
    }
    case PhysicalKind::kIndexNLJoin: {
      const auto& o = static_cast<const PhysIndexNLJoin&>(op);
      auto c = std::make_unique<PhysIndexNLJoin>();
      c->join_kind = o.join_kind;
      c->inner_def = o.inner_def;
      c->index_ordinal = o.index_ordinal;
      c->outer_key = o.outer_key;
      c->inner_predicate = CloneOrNull(o.inner_predicate);
      c->inner_projection = CloneAll(o.inner_projection);
      c->residual = CloneOrNull(o.residual);
      return c;
    }
    case PhysicalKind::kHashJoin: {
      const auto& o = static_cast<const PhysHashJoin&>(op);
      auto c = std::make_unique<PhysHashJoin>();
      c->join_kind = o.join_kind;
      c->probe_keys = o.probe_keys;
      c->build_keys = o.build_keys;
      c->residual = CloneOrNull(o.residual);
      return c;
    }
    case PhysicalKind::kHashAggregate: {
      const auto& o = static_cast<const PhysHashAggregate&>(op);
      auto c = std::make_unique<PhysHashAggregate>();
      c->group_by = CloneAll(o.group_by);
      for (const AggItem& a : o.aggs) {
        c->aggs.push_back(AggItem{a.func, CloneOrNull(a.arg)});
      }
      return c;
    }
    case PhysicalKind::kSort: {
      const auto& o = static_cast<const PhysSort&>(op);
      auto c = std::make_unique<PhysSort>();
      c->keys = CloneKeys(o.keys);
      c->limit = o.limit;
      return c;
    }
    case PhysicalKind::kLimit: {
      auto c = std::make_unique<PhysLimit>();
      c->limit = static_cast<const PhysLimit&>(op).limit;
      return c;
    }
    case PhysicalKind::kDistinct:
      return std::make_unique<PhysDistinct>();
    case PhysicalKind::kUnionAll:
      return std::make_unique<PhysUnionAll>();
    case PhysicalKind::kRemoteQuery: {
      const auto& o = static_cast<const PhysRemoteQuery&>(op);
      auto c = std::make_unique<PhysRemoteQuery>();
      c->server = o.server;
      c->sql = o.sql;
      return c;
    }
    case PhysicalKind::kGather: {
      auto c = std::make_unique<PhysGather>();
      c->dop = static_cast<const PhysGather&>(op).dop;
      return c;
    }
  }
  return nullptr;
}

}  // namespace

PhysicalPtr ClonePhysical(const PhysicalOp& op) {
  PhysicalPtr copy = CloneNode(op);
  copy->schema = op.schema;
  copy->est_rows = op.est_rows;
  copy->est_cost = op.est_cost;
  for (const auto& child : op.children) {
    copy->children.push_back(ClonePhysical(*child));
  }
  return copy;
}

std::string PhysicalToString(const PhysicalOp& op, int indent) {
  std::string out(indent * 2, ' ');
  out += PhysicalOpLabel(op);
  out += "  rows=" + std::to_string(static_cast<int64_t>(op.est_rows));
  out += " cost=" + std::to_string(op.est_cost);
  out += "\n";
  for (const auto& child : op.children) {
    out += PhysicalToString(*child, indent + 1);
  }
  return out;
}

int PhysicalPlanSize(const PhysicalOp& op) {
  int n = 1;
  for (const auto& child : op.children) n += PhysicalPlanSize(*child);
  return n;
}

}  // namespace mtcache
