#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "engine/view_util.h"

namespace mtcache {
namespace {

TableDef MakeTable(const std::string& name) {
  TableDef def;
  def.name = name;
  def.schema = Schema({{"id", TypeId::kInt64, name, false},
                       {"val", TypeId::kString, name, true}});
  def.primary_key = {0};
  def.indexes.push_back(IndexDef{name + "_pk", {0}, true});
  return def;
}

TEST(CatalogTest, CreateAndGetTable) {
  Catalog cat;
  ASSERT_TRUE(cat.CreateTable(MakeTable("t1")).ok());
  ASSERT_NE(cat.GetTable("t1"), nullptr);
  EXPECT_EQ(cat.GetTable("t1")->name, "t1");
  EXPECT_EQ(cat.GetTable("nope"), nullptr);
}

TEST(CatalogTest, DuplicateTableRejected) {
  Catalog cat;
  ASSERT_TRUE(cat.CreateTable(MakeTable("t1")).ok());
  Status s = cat.CreateTable(MakeTable("t1"));
  EXPECT_EQ(s.code(), StatusCode::kAlreadyExists);
}

TEST(CatalogTest, DropTable) {
  Catalog cat;
  ASSERT_TRUE(cat.CreateTable(MakeTable("t1")).ok());
  ASSERT_TRUE(cat.DropTable("t1").ok());
  EXPECT_EQ(cat.GetTable("t1"), nullptr);
  EXPECT_EQ(cat.DropTable("t1").code(), StatusCode::kNotFound);
}

TEST(CatalogTest, ColumnOrdinal) {
  TableDef def = MakeTable("t");
  EXPECT_EQ(def.ColumnOrdinal("id"), 0);
  EXPECT_EQ(def.ColumnOrdinal("val"), 1);
  EXPECT_EQ(def.ColumnOrdinal("zzz"), -1);
}

TEST(CatalogTest, ViewsOverFindsCachedViews) {
  Catalog cat;
  ASSERT_TRUE(cat.CreateTable(MakeTable("base")).ok());
  TableDef view = MakeTable("v1");
  view.kind = RelationKind::kCachedView;
  view.view_def = SelectProjectDef{"base", {"id", "val"}, {}};
  ASSERT_TRUE(cat.CreateTable(std::move(view)).ok());
  auto views = cat.ViewsOver("base");
  ASSERT_EQ(views.size(), 1u);
  EXPECT_EQ(views[0]->name, "v1");
  EXPECT_TRUE(cat.ViewsOver("other").empty());
}

TEST(CatalogTest, ProcedureLifecycle) {
  Catalog cat;
  ProcedureDef proc;
  proc.name = "getitem";
  proc.params = {{"@id", TypeId::kInt64}};
  proc.body_source = "SELECT id FROM t WHERE id = @id";
  ASSERT_TRUE(cat.CreateProcedure(proc).ok());
  ASSERT_NE(cat.GetProcedure("getitem"), nullptr);
  EXPECT_EQ(cat.CreateProcedure(proc).code(), StatusCode::kAlreadyExists);
  ASSERT_TRUE(cat.DropProcedure("getitem").ok());
  EXPECT_EQ(cat.GetProcedure("getitem"), nullptr);
}

TEST(CatalogTest, PermissionsDefaultPublic) {
  TableDef def = MakeTable("t");
  EXPECT_TRUE(Catalog::HasPrivilege(def, "anyone", Privilege::kSelect));
}

TEST(CatalogTest, PermissionsEnforced) {
  TableDef def = MakeTable("t");
  def.grants["alice"] = {Privilege::kSelect};
  EXPECT_TRUE(Catalog::HasPrivilege(def, "alice", Privilege::kSelect));
  EXPECT_FALSE(Catalog::HasPrivilege(def, "alice", Privilege::kInsert));
  EXPECT_FALSE(Catalog::HasPrivilege(def, "bob", Privilege::kSelect));
}

TEST(SimplePredicateTest, Matches) {
  SimplePredicate p{"c", CompareOp::kLe, Value::Int(1000)};
  EXPECT_TRUE(p.Matches(Value::Int(1000)));
  EXPECT_TRUE(p.Matches(Value::Int(5)));
  EXPECT_FALSE(p.Matches(Value::Int(1001)));
  EXPECT_FALSE(p.Matches(Value::Null()));
}

TEST(SimplePredicateTest, AllOps) {
  Value ten = Value::Int(10);
  EXPECT_TRUE((SimplePredicate{"c", CompareOp::kEq, ten}).Matches(ten));
  EXPECT_TRUE((SimplePredicate{"c", CompareOp::kNe, ten}).Matches(Value::Int(9)));
  EXPECT_TRUE((SimplePredicate{"c", CompareOp::kLt, ten}).Matches(Value::Int(9)));
  EXPECT_FALSE((SimplePredicate{"c", CompareOp::kLt, ten}).Matches(ten));
  EXPECT_TRUE((SimplePredicate{"c", CompareOp::kGt, ten}).Matches(Value::Int(11)));
  EXPECT_TRUE((SimplePredicate{"c", CompareOp::kGe, ten}).Matches(ten));
}

TEST(SelectProjectDefTest, ToSelectSql) {
  SelectProjectDef def;
  def.base_table = "customer";
  def.columns = {"cid", "cname"};
  def.predicates = {{"cid", CompareOp::kLe, Value::Int(1000)}};
  EXPECT_EQ(def.ToSelectSql(),
            "SELECT cid, cname FROM customer WHERE cid <= 1000");
}

TEST(SelectProjectDefTest, RowMatches) {
  // Base columns in (b, a) order: binding resolves the predicate ordinals by
  // name, not by position in the definition.
  TableDef base;
  base.name = "t";
  base.schema = Schema({{"b", TypeId::kString, "t", true},
                        {"a", TypeId::kInt64, "t", false}});
  SelectProjectDef def;
  def.base_table = "t";
  def.columns = {"a"};
  def.predicates = {{"a", CompareOp::kGt, Value::Int(5)},
                    {"b", CompareOp::kEq, Value::String("x")}};
  auto bound = BoundSelectProject::Bind(def, base);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  Row row = {Value::String("x"), Value::Int(6)};
  EXPECT_TRUE(bound->Matches(row));
  Row bad = {Value::String("y"), Value::Int(6)};
  EXPECT_FALSE(bound->Matches(bad));
  EXPECT_EQ(bound->Project(row), (Row{Value::Int(6)}));
}

TEST(CompareOpTest, FlipSymmetry) {
  EXPECT_EQ(FlipCompareOp(CompareOp::kLt), CompareOp::kGt);
  EXPECT_EQ(FlipCompareOp(CompareOp::kLe), CompareOp::kGe);
  EXPECT_EQ(FlipCompareOp(CompareOp::kEq), CompareOp::kEq);
  EXPECT_EQ(FlipCompareOp(FlipCompareOp(CompareOp::kGe)), CompareOp::kGe);
}

}  // namespace
}  // namespace mtcache
