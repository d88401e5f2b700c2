#include "tpch/queries.h"

#include <chrono>
#include <cmath>

#include "storage/dsb.h"
#include "tpch/tpch_gen.h"

namespace rapid::tpch {

namespace {

using core::AggFunc;
using core::AggSpec;
using core::ColumnSet;
using core::Expr;
using core::ExprPtr;
using core::JoinType;
using core::LogicalNode;
using core::LogicalPtr;
using core::Predicate;
using primitives::CmpOp;

// ---- Constant-encoding helpers ---------------------------------------------

Result<const storage::Table*> FindTable(const core::Catalog& catalog,
                                        const std::string& table) {
  auto it = catalog.find(table);
  if (it == catalog.end()) {
    return Status::NotFound("table '" + table + "' not loaded");
  }
  return &it->second;
}

Result<const storage::Dictionary*> FindDict(const core::Catalog& catalog,
                                            const std::string& table,
                                            const std::string& column) {
  RAPID_ASSIGN_OR_RETURN(const storage::Table* t, FindTable(catalog, table));
  RAPID_ASSIGN_OR_RETURN(size_t idx, t->schema().IndexOf(column));
  const storage::Dictionary* dict = t->dictionary(idx);
  if (dict == nullptr) {
    return Status::InvalidArgument(column + " is not a dictionary column");
  }
  return dict;
}

// Dictionary code of a string constant.
Result<int64_t> DictCode(const core::Catalog& catalog,
                         const std::string& table, const std::string& column,
                         const std::string& value) {
  RAPID_ASSIGN_OR_RETURN(const storage::Dictionary* dict,
                         FindDict(catalog, table, column));
  RAPID_ASSIGN_OR_RETURN(uint32_t code, dict->Lookup(value));
  return static_cast<int64_t>(code);
}

// Bitmap over dictionary codes for an IN list.
Result<BitVector> DictSet(const core::Catalog& catalog,
                          const std::string& table, const std::string& column,
                          const std::vector<std::string>& values) {
  RAPID_ASSIGN_OR_RETURN(const storage::Dictionary* dict,
                         FindDict(catalog, table, column));
  BitVector out(dict->size());
  for (const std::string& v : values) {
    RAPID_ASSIGN_OR_RETURN(uint32_t code, dict->Lookup(v));
    out.Set(code);
  }
  return out;
}

Result<BitVector> DictPrefix(const core::Catalog& catalog,
                             const std::string& table,
                             const std::string& column,
                             const std::string& prefix) {
  RAPID_ASSIGN_OR_RETURN(const storage::Dictionary* dict,
                         FindDict(catalog, table, column));
  return dict->PrefixLookup(prefix);
}

// DSB mantissa of a decimal constant at the column's storage scale.
Result<int64_t> Dsb(const core::Catalog& catalog, const std::string& table,
                    const std::string& column, double value) {
  RAPID_ASSIGN_OR_RETURN(const storage::Table* t, FindTable(catalog, table));
  RAPID_ASSIGN_OR_RETURN(size_t idx, t->schema().IndexOf(column));
  const int scale = t->stats(idx).dsb_scale;
  return static_cast<int64_t>(std::llround(
      value * static_cast<double>(storage::Pow10(scale))));
}

// revenue expression: extprice * (1 - discount).
ExprPtr Revenue() {
  return Expr::Mul(Expr::Col("l_extendedprice"),
                   Expr::Sub(Expr::Dec(1.0, 2), Expr::Col("l_discount")));
}

// Appends a derived decimal column computed as 10^scale * a / b.
void AppendRatioColumn(ColumnSet* set, const std::string& name, size_t col_a,
                       size_t col_b, int out_scale) {
  core::ColumnMeta meta;
  meta.name = name;
  meta.type = storage::DataType::kDecimal;
  meta.dsb_scale = out_scale;
  // Rebuild with one more column.
  std::vector<core::ColumnMeta> metas = set->metas();
  metas.push_back(meta);
  ColumnSet out(metas);
  for (size_t r = 0; r < set->num_rows(); ++r) {
    std::vector<int64_t> row(set->num_columns() + 1);
    for (size_t c = 0; c < set->num_columns(); ++c) row[c] = set->Value(r, c);
    const double a = set->Decimal(r, col_a);
    const double b = set->Decimal(r, col_b);
    row[set->num_columns()] = static_cast<int64_t>(std::llround(
        (b == 0 ? 0 : a / b) *
        static_cast<double>(storage::Pow10(out_scale))));
    RAPID_CHECK_OK(out.AppendRow(row));
  }
  *set = std::move(out);
}

// ---- Query builders ----------------------------------------------------

TpchQuery BuildQ1() {
  TpchQuery q;
  q.name = "Q1";
  q.fragments.push_back([](const core::Catalog& catalog,
                           const std::vector<ColumnSet>&)
                            -> Result<LogicalPtr> {
    const int32_t cutoff = DaysFromCivil(1998, 9, 2);
    auto scan = LogicalNode::Scan(
        "lineitem",
        {"l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
         "l_discount", "l_tax"},
        {Predicate::CmpConst("l_shipdate", CmpOp::kLe, cutoff)});
    auto charge = Expr::Mul(Revenue(),
                            Expr::Add(Expr::Dec(1.0, 2), Expr::Col("l_tax")));
    std::vector<AggSpec> aggs;
    aggs.push_back({"sum_qty", AggFunc::kSum, Expr::Col("l_quantity"), {}});
    aggs.push_back(
        {"sum_base_price", AggFunc::kSum, Expr::Col("l_extendedprice"), {}});
    aggs.push_back({"sum_disc_price", AggFunc::kSum, Revenue(), {}});
    aggs.push_back({"sum_charge", AggFunc::kSum, charge, {}});
    aggs.push_back({"sum_disc", AggFunc::kSum, Expr::Col("l_discount"), {}});
    aggs.push_back({"count_order", AggFunc::kCount, nullptr, {}});
    auto grouped = LogicalNode::GroupBy(
        scan,
        {{"l_returnflag", Expr::Col("l_returnflag")},
         {"l_linestatus", Expr::Col("l_linestatus")}},
        std::move(aggs));
    (void)catalog;
    return LogicalNode::Sort(grouped, {{"l_returnflag", true},
                                       {"l_linestatus", true}});
  });
  q.post = [](const std::vector<ColumnSet>& results) {
    // Host post-processing: AVG finalization (sum / count).
    ColumnSet out = results.back();
    auto col = [&](const char* name) { return out.IndexOf(name).value(); };
    const size_t count = col("count_order");
    AppendRatioColumn(&out, "avg_qty", col("sum_qty"), count, 2);
    AppendRatioColumn(&out, "avg_price", col("sum_base_price"), count, 2);
    AppendRatioColumn(&out, "avg_disc", col("sum_disc"), count, 2);
    return out;
  };
  return q;
}

TpchQuery BuildQ3() {
  TpchQuery q;
  q.name = "Q3";
  q.fragments.push_back([](const core::Catalog& catalog,
                           const std::vector<ColumnSet>&)
                            -> Result<LogicalPtr> {
    RAPID_ASSIGN_OR_RETURN(
        int64_t building,
        DictCode(catalog, "customer", "c_mktsegment", "BUILDING"));
    const int32_t date = DaysFromCivil(1995, 3, 15);
    auto c = LogicalNode::Scan(
        "customer", {"c_custkey"},
        {Predicate::CmpConst("c_mktsegment", CmpOp::kEq, building)});
    auto o = LogicalNode::Scan(
        "orders", {"o_orderkey", "o_custkey", "o_orderdate", "o_shippriority"},
        {Predicate::CmpConst("o_orderdate", CmpOp::kLt, date)});
    auto j1 = LogicalNode::Join(
        c, o, {"c_custkey"}, {"o_custkey"},
        {"o_orderkey", "o_orderdate", "o_shippriority"});
    auto l = LogicalNode::Scan(
        "lineitem", {"l_orderkey", "l_extendedprice", "l_discount"},
        {Predicate::CmpConst("l_shipdate", CmpOp::kGt, date)});
    auto j2 = LogicalNode::Join(
        j1, l, {"o_orderkey"}, {"l_orderkey"},
        {"l_orderkey", "o_orderdate", "o_shippriority", "l_extendedprice",
         "l_discount"});
    auto g = LogicalNode::GroupBy(
        j2,
        {{"l_orderkey", Expr::Col("l_orderkey")},
         {"o_orderdate", Expr::Col("o_orderdate")},
         {"o_shippriority", Expr::Col("o_shippriority")}},
        {{"revenue", AggFunc::kSum, Revenue(), {}}});
    return LogicalNode::TopK(g, {{"revenue", false}, {"o_orderdate", true}},
                             10);
  });
  return q;
}

TpchQuery BuildQ4() {
  TpchQuery q;
  q.name = "Q4";
  q.fragments.push_back([](const core::Catalog&,
                           const std::vector<ColumnSet>&)
                            -> Result<LogicalPtr> {
    auto l = LogicalNode::Scan(
        "lineitem", {"l_orderkey"},
        {Predicate::CmpCol("l_commitdate", CmpOp::kLt, "l_receiptdate")});
    auto o = LogicalNode::Scan(
        "orders", {"o_orderkey", "o_orderpriority"},
        {Predicate::Between("o_orderdate", DaysFromCivil(1993, 7, 1),
                            DaysFromCivil(1993, 9, 30))});
    // EXISTS: orders with at least one late lineitem (semi join; the
    // probe/preserved side is orders).
    auto semi = LogicalNode::Join(l, o, {"l_orderkey"}, {"o_orderkey"},
                                  {"o_orderpriority"}, JoinType::kSemi);
    auto g = LogicalNode::GroupBy(
        semi, {{"o_orderpriority", Expr::Col("o_orderpriority")}},
        {{"order_count", AggFunc::kCount, nullptr, {}}});
    return LogicalNode::Sort(g, {{"o_orderpriority", true}});
  });
  return q;
}

TpchQuery BuildQ5() {
  TpchQuery q;
  q.name = "Q5";
  q.fragments.push_back([](const core::Catalog& catalog,
                           const std::vector<ColumnSet>&)
                            -> Result<LogicalPtr> {
    RAPID_ASSIGN_OR_RETURN(int64_t asia,
                           DictCode(catalog, "region", "r_name", "ASIA"));
    auto r = LogicalNode::Scan(
        "region", {"r_regionkey"},
        {Predicate::CmpConst("r_name", CmpOp::kEq, asia)});
    auto n = LogicalNode::Scan("nation",
                               {"n_nationkey", "n_name", "n_regionkey"});
    auto j1 = LogicalNode::Join(r, n, {"r_regionkey"}, {"n_regionkey"},
                                {"n_nationkey", "n_name"});
    auto s = LogicalNode::Scan("supplier", {"s_suppkey", "s_nationkey"});
    auto j2 = LogicalNode::Join(j1, s, {"n_nationkey"}, {"s_nationkey"},
                                {"s_suppkey", "n_name", "n_nationkey"});
    auto c = LogicalNode::Scan("customer", {"c_custkey", "c_nationkey"});
    auto o = LogicalNode::Scan(
        "orders", {"o_orderkey", "o_custkey"},
        {Predicate::Between("o_orderdate", DaysFromCivil(1994, 1, 1),
                            DaysFromCivil(1994, 12, 31))});
    auto j3 = LogicalNode::Join(c, o, {"c_custkey"}, {"o_custkey"},
                                {"o_orderkey", "c_nationkey"});
    auto l = LogicalNode::Scan(
        "lineitem", {"l_orderkey", "l_suppkey", "l_extendedprice",
                     "l_discount"});
    auto j4 = LogicalNode::Join(
        j3, l, {"o_orderkey"}, {"l_orderkey"},
        {"l_suppkey", "l_extendedprice", "l_discount", "c_nationkey"});
    auto j5 = LogicalNode::Join(
        j2, j4, {"s_suppkey"}, {"l_suppkey"},
        {"n_name", "n_nationkey", "c_nationkey", "l_extendedprice",
         "l_discount"});
    auto f = LogicalNode::Filter(
        j5, {Predicate::CmpCol("c_nationkey", CmpOp::kEq, "n_nationkey")},
        {"n_name", "l_extendedprice", "l_discount"});
    auto g = LogicalNode::GroupBy(f, {{"n_name", Expr::Col("n_name")}},
                                  {{"revenue", AggFunc::kSum, Revenue(), {}}});
    return LogicalNode::Sort(g, {{"revenue", false}});
  });
  return q;
}

TpchQuery BuildQ6() {
  TpchQuery q;
  q.name = "Q6";
  q.fragments.push_back([](const core::Catalog& catalog,
                           const std::vector<ColumnSet>&)
                            -> Result<LogicalPtr> {
    RAPID_ASSIGN_OR_RETURN(int64_t lo,
                           Dsb(catalog, "lineitem", "l_discount", 0.05));
    RAPID_ASSIGN_OR_RETURN(int64_t hi,
                           Dsb(catalog, "lineitem", "l_discount", 0.07));
    RAPID_ASSIGN_OR_RETURN(int64_t qty,
                           Dsb(catalog, "lineitem", "l_quantity", 24.0));
    auto scan = LogicalNode::Scan(
        "lineitem", {"l_extendedprice", "l_discount"},
        {Predicate::Between("l_shipdate", DaysFromCivil(1994, 1, 1),
                            DaysFromCivil(1994, 12, 31)),
         Predicate::Between("l_discount", lo, hi),
         Predicate::CmpConst("l_quantity", CmpOp::kLt, qty)});
    auto revenue = Expr::Mul(Expr::Col("l_extendedprice"),
                             Expr::Col("l_discount"));
    return LogicalNode::GroupBy(scan, {},
                                {{"revenue", AggFunc::kSum, revenue, {}}});
  });
  return q;
}

TpchQuery BuildQ10() {
  TpchQuery q;
  q.name = "Q10";
  q.fragments.push_back([](const core::Catalog& catalog,
                           const std::vector<ColumnSet>&)
                            -> Result<LogicalPtr> {
    RAPID_ASSIGN_OR_RETURN(int64_t rflag,
                           DictCode(catalog, "lineitem", "l_returnflag", "R"));
    auto o = LogicalNode::Scan(
        "orders", {"o_orderkey", "o_custkey"},
        {Predicate::Between("o_orderdate", DaysFromCivil(1993, 10, 1),
                            DaysFromCivil(1993, 12, 31))});
    auto c = LogicalNode::Scan(
        "customer", {"c_custkey", "c_name", "c_acctbal", "c_nationkey"});
    auto j1 = LogicalNode::Join(
        o, c, {"o_custkey"}, {"c_custkey"},
        {"o_orderkey", "c_custkey", "c_name", "c_acctbal", "c_nationkey"});
    auto l = LogicalNode::Scan(
        "lineitem", {"l_orderkey", "l_extendedprice", "l_discount"},
        {Predicate::CmpConst("l_returnflag", CmpOp::kEq, rflag)});
    auto j2 = LogicalNode::Join(
        j1, l, {"o_orderkey"}, {"l_orderkey"},
        {"c_custkey", "c_name", "c_acctbal", "c_nationkey", "l_extendedprice",
         "l_discount"});
    auto n = LogicalNode::Scan("nation", {"n_nationkey", "n_name"});
    auto j3 = LogicalNode::Join(
        n, j2, {"n_nationkey"}, {"c_nationkey"},
        {"c_custkey", "c_name", "c_acctbal", "n_name", "l_extendedprice",
         "l_discount"});
    auto g = LogicalNode::GroupBy(
        j3,
        {{"c_custkey", Expr::Col("c_custkey")},
         {"c_name", Expr::Col("c_name")},
         {"c_acctbal", Expr::Col("c_acctbal")},
         {"n_name", Expr::Col("n_name")}},
        {{"revenue", AggFunc::kSum, Revenue(), {}}});
    return LogicalNode::TopK(g, {{"revenue", false}, {"c_custkey", true}},
                             20);
  });
  return q;
}

LogicalPtr Q11JoinTree(int64_t germany) {
  auto n = LogicalNode::Scan(
      "nation", {"n_nationkey"},
      {Predicate::CmpConst("n_name", CmpOp::kEq, germany)});
  auto s = LogicalNode::Scan("supplier", {"s_suppkey", "s_nationkey"});
  auto j1 = LogicalNode::Join(n, s, {"n_nationkey"}, {"s_nationkey"},
                              {"s_suppkey"});
  auto ps = LogicalNode::Scan(
      "partsupp", {"ps_partkey", "ps_suppkey", "ps_availqty",
                   "ps_supplycost"});
  return LogicalNode::Join(j1, ps, {"s_suppkey"}, {"ps_suppkey"},
                           {"ps_partkey", "ps_supplycost", "ps_availqty"});
}

TpchQuery BuildQ11() {
  TpchQuery q;
  q.name = "Q11";
  auto value_expr = [] {
    return Expr::Mul(Expr::Col("ps_supplycost"), Expr::Col("ps_availqty"));
  };
  // Fragment 0: the scalar subquery (total value across Germany).
  q.fragments.push_back([value_expr](const core::Catalog& catalog,
                                     const std::vector<ColumnSet>&)
                            -> Result<LogicalPtr> {
    RAPID_ASSIGN_OR_RETURN(int64_t germany,
                           DictCode(catalog, "nation", "n_name", "GERMANY"));
    return LogicalNode::GroupBy(Q11JoinTree(germany), {},
                                {{"total", AggFunc::kSum, value_expr(), {}}});
  });
  // Fragment 1: per-part value with HAVING value > total * 0.0001
  // (threshold glue performed by the host, Section 3.2).
  q.fragments.push_back([value_expr](const core::Catalog& catalog,
                                     const std::vector<ColumnSet>& prev)
                            -> Result<LogicalPtr> {
    RAPID_ASSIGN_OR_RETURN(int64_t germany,
                           DictCode(catalog, "nation", "n_name", "GERMANY"));
    int64_t threshold = 0;
    if (!prev.empty() && prev[0].num_rows() > 0) {
      threshold = prev[0].Value(0, 0) / 10000;  // * 0.0001, same scale
    }
    auto g = LogicalNode::GroupBy(
        Q11JoinTree(germany), {{"ps_partkey", Expr::Col("ps_partkey")}},
        {{"value", AggFunc::kSum, value_expr(), {}}});
    auto f = LogicalNode::Filter(
        g, {Predicate::CmpConst("value", CmpOp::kGt, threshold)});
    return LogicalNode::Sort(f, {{"value", false}, {"ps_partkey", true}});
  });
  return q;
}

TpchQuery BuildQ12() {
  TpchQuery q;
  q.name = "Q12";
  q.fragments.push_back([](const core::Catalog& catalog,
                           const std::vector<ColumnSet>&)
                            -> Result<LogicalPtr> {
    RAPID_ASSIGN_OR_RETURN(
        BitVector modes,
        DictSet(catalog, "lineitem", "l_shipmode", {"MAIL", "SHIP"}));
    RAPID_ASSIGN_OR_RETURN(
        BitVector high,
        DictSet(catalog, "orders", "o_orderpriority",
                {"1-URGENT", "2-HIGH"}));
    BitVector low = high;
    low.Not();
    auto l = LogicalNode::Scan(
        "lineitem", {"l_orderkey", "l_shipmode"},
        {Predicate::InSet("l_shipmode", modes),
         Predicate::CmpCol("l_commitdate", CmpOp::kLt, "l_receiptdate"),
         Predicate::CmpCol("l_shipdate", CmpOp::kLt, "l_commitdate"),
         Predicate::Between("l_receiptdate", DaysFromCivil(1994, 1, 1),
                            DaysFromCivil(1994, 12, 31))});
    auto o = LogicalNode::Scan("orders", {"o_orderkey", "o_orderpriority"});
    auto j = LogicalNode::Join(l, o, {"l_orderkey"}, {"o_orderkey"},
                               {"l_shipmode", "o_orderpriority"});
    std::vector<AggSpec> aggs;
    aggs.push_back({"high_line_count", AggFunc::kCount, nullptr,
                    std::make_shared<Predicate>(
                        Predicate::InSet("o_orderpriority", high))});
    aggs.push_back({"low_line_count", AggFunc::kCount, nullptr,
                    std::make_shared<Predicate>(
                        Predicate::InSet("o_orderpriority", low))});
    auto g = LogicalNode::GroupBy(
        j, {{"l_shipmode", Expr::Col("l_shipmode")}}, std::move(aggs));
    return LogicalNode::Sort(g, {{"l_shipmode", true}});
  });
  return q;
}

TpchQuery BuildQ14() {
  TpchQuery q;
  q.name = "Q14";
  q.fragments.push_back([](const core::Catalog& catalog,
                           const std::vector<ColumnSet>&)
                            -> Result<LogicalPtr> {
    RAPID_ASSIGN_OR_RETURN(BitVector promo,
                           DictPrefix(catalog, "part", "p_type", "PROMO"));
    auto l = LogicalNode::Scan(
        "lineitem", {"l_partkey", "l_extendedprice", "l_discount"},
        {Predicate::Between("l_shipdate", DaysFromCivil(1995, 9, 1),
                            DaysFromCivil(1995, 9, 30))});
    auto p = LogicalNode::Scan("part", {"p_partkey", "p_type"});
    auto j = LogicalNode::Join(
        l, p, {"l_partkey"}, {"p_partkey"},
        {"p_type", "l_extendedprice", "l_discount"});
    std::vector<AggSpec> aggs;
    aggs.push_back({"promo", AggFunc::kSum, Revenue(),
                    std::make_shared<Predicate>(
                        Predicate::InSet("p_type", promo))});
    aggs.push_back({"total", AggFunc::kSum, Revenue(), {}});
    return LogicalNode::GroupBy(j, {}, std::move(aggs));
  });
  q.post = [](const std::vector<ColumnSet>& results) {
    ColumnSet out = results.back();
    if (out.num_rows() == 0) return out;
    AppendRatioColumn(&out, "promo_revenue_frac", 0, 1, 6);
    return out;
  };
  return q;
}

TpchQuery BuildQ18() {
  TpchQuery q;
  q.name = "Q18";
  q.fragments.push_back([](const core::Catalog& catalog,
                           const std::vector<ColumnSet>&)
                            -> Result<LogicalPtr> {
    RAPID_ASSIGN_OR_RETURN(int64_t limit,
                           Dsb(catalog, "lineitem", "l_quantity", 300.0));
    auto l1 = LogicalNode::Scan("lineitem", {"l_orderkey", "l_quantity"});
    auto g1 = LogicalNode::GroupBy(
        l1, {{"l_orderkey", Expr::Col("l_orderkey")}},
        {{"big_qty", AggFunc::kSum, Expr::Col("l_quantity"), {}}});
    auto f1 = LogicalNode::Filter(
        g1, {Predicate::CmpConst("big_qty", CmpOp::kGt, limit)},
        {"l_orderkey"});
    auto o = LogicalNode::Scan(
        "orders", {"o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"});
    auto sj = LogicalNode::Join(
        f1, o, {"l_orderkey"}, {"o_orderkey"},
        {"o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"},
        JoinType::kSemi);
    auto c = LogicalNode::Scan("customer", {"c_custkey", "c_name"});
    auto j2 = LogicalNode::Join(
        c, sj, {"c_custkey"}, {"o_custkey"},
        {"c_name", "c_custkey", "o_orderkey", "o_orderdate", "o_totalprice"});
    auto l2 = LogicalNode::Scan("lineitem", {"l_orderkey", "l_quantity"});
    auto j3 = LogicalNode::Join(
        j2, l2, {"o_orderkey"}, {"l_orderkey"},
        {"c_name", "c_custkey", "o_orderkey", "o_orderdate", "o_totalprice",
         "l_quantity"});
    auto g = LogicalNode::GroupBy(
        j3,
        {{"c_name", Expr::Col("c_name")},
         {"c_custkey", Expr::Col("c_custkey")},
         {"o_orderkey", Expr::Col("o_orderkey")},
         {"o_orderdate", Expr::Col("o_orderdate")},
         {"o_totalprice", Expr::Col("o_totalprice")}},
        {{"sum_qty", AggFunc::kSum, Expr::Col("l_quantity"), {}}});
    return LogicalNode::TopK(
        g, {{"o_totalprice", false}, {"o_orderdate", true}}, 100);
  });
  return q;
}

Result<LogicalPtr> Q19Branch(const core::Catalog& catalog,
                             const std::string& brand,
                             const std::vector<std::string>& containers,
                             double qty_lo, double qty_hi, int64_t size_hi) {
  RAPID_ASSIGN_OR_RETURN(int64_t brand_code,
                         DictCode(catalog, "part", "p_brand", brand));
  RAPID_ASSIGN_OR_RETURN(BitVector container_set,
                         DictSet(catalog, "part", "p_container", containers));
  RAPID_ASSIGN_OR_RETURN(BitVector air,
                         DictSet(catalog, "lineitem", "l_shipmode",
                                 {"AIR", "REG AIR"}));
  RAPID_ASSIGN_OR_RETURN(
      int64_t instruct,
      DictCode(catalog, "lineitem", "l_shipinstruct", "DELIVER IN PERSON"));
  RAPID_ASSIGN_OR_RETURN(int64_t lo,
                         Dsb(catalog, "lineitem", "l_quantity", qty_lo));
  RAPID_ASSIGN_OR_RETURN(int64_t hi,
                         Dsb(catalog, "lineitem", "l_quantity", qty_hi));

  auto p = LogicalNode::Scan(
      "part", {"p_partkey"},
      {Predicate::CmpConst("p_brand", CmpOp::kEq, brand_code),
       Predicate::InSet("p_container", container_set),
       Predicate::Between("p_size", 1, size_hi)});
  auto l = LogicalNode::Scan(
      "lineitem",
      {"l_partkey", "l_orderkey", "l_linenumber", "l_extendedprice",
       "l_discount"},
      {Predicate::Between("l_quantity", lo, hi),
       Predicate::InSet("l_shipmode", air),
       Predicate::CmpConst("l_shipinstruct", CmpOp::kEq, instruct)});
  auto j = LogicalNode::Join(
      p, l, {"p_partkey"}, {"l_partkey"},
      {"l_orderkey", "l_linenumber", "l_extendedprice", "l_discount"});
  // Unique line ids keep UNION's distinct semantics from merging
  // distinct lineitems that happen to share a revenue value.
  return LogicalNode::Project(
      j, {{"line_order", Expr::Col("l_orderkey")},
          {"line_number", Expr::Col("l_linenumber")},
          {"revenue", Revenue()}});
}

TpchQuery BuildQ19() {
  TpchQuery q;
  q.name = "Q19";
  q.fragments.push_back([](const core::Catalog& catalog,
                           const std::vector<ColumnSet>&)
                            -> Result<LogicalPtr> {
    RAPID_ASSIGN_OR_RETURN(
        LogicalPtr b1,
        Q19Branch(catalog, "Brand#12",
                  {"SM CASE", "SM BOX", "SM PACK", "SM PKG"}, 1, 11, 5));
    RAPID_ASSIGN_OR_RETURN(
        LogicalPtr b2,
        Q19Branch(catalog, "Brand#23",
                  {"MED BAG", "MED BOX", "MED PKG", "MED PACK"}, 10, 20, 10));
    RAPID_ASSIGN_OR_RETURN(
        LogicalPtr b3,
        Q19Branch(catalog, "Brand#34",
                  {"LG CASE", "LG BOX", "LG PACK", "LG PKG"}, 20, 30, 15));
    auto u = LogicalNode::SetOp(
        core::SetOpKind::kUnion,
        LogicalNode::SetOp(core::SetOpKind::kUnion, b1, b2), b3);
    return LogicalNode::GroupBy(
        u, {}, {{"revenue", AggFunc::kSum, Expr::Col("revenue"), {}}});
  });
  return q;
}

}  // namespace

std::vector<TpchQuery> BuildQuerySet() {
  std::vector<TpchQuery> out;
  out.push_back(BuildQ1());
  out.push_back(BuildQ3());
  out.push_back(BuildQ4());
  out.push_back(BuildQ5());
  out.push_back(BuildQ6());
  out.push_back(BuildQ10());
  out.push_back(BuildQ11());
  out.push_back(BuildQ12());
  out.push_back(BuildQ14());
  out.push_back(BuildQ18());
  out.push_back(BuildQ19());
  return out;
}

Result<TpchQuery> BuildQuery(const std::string& name) {
  for (TpchQuery& q : BuildQuerySet()) {
    if (q.name == name) return std::move(q);
  }
  return Status::NotFound("no TPC-H query named '" + name + "'");
}

Result<QueryRun> RunOnRapid(core::RapidEngine& engine, const TpchQuery& query,
                            const core::ExecOptions& options) {
  QueryRun run;
  std::vector<core::ColumnSet> results;
  const auto start = std::chrono::steady_clock::now();
  for (const auto& fragment : query.fragments) {
    RAPID_ASSIGN_OR_RETURN(core::LogicalPtr plan,
                           fragment(engine.catalog(), results));
    RAPID_ASSIGN_OR_RETURN(core::QueryResult result,
                           engine.Execute(plan, options));
    run.modeled_dpu_seconds += result.stats.modeled_seconds;
    run.workload.scanned_rows += result.stats.workload.scanned_rows;
    run.workload.scanned_bytes += result.stats.workload.scanned_bytes;
    run.workload.partitioned_rows += result.stats.workload.partitioned_rows;
    run.workload.join_build_rows += result.stats.workload.join_build_rows;
    run.workload.join_probe_rows += result.stats.workload.join_probe_rows;
    run.workload.agg_rows += result.stats.workload.agg_rows;
    run.workload.sorted_rows += result.stats.workload.sorted_rows;
    results.push_back(std::move(result.rows));
  }
  run.wall_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
  run.result = query.post ? query.post(results) : std::move(results.back());
  return run;
}

Result<QueryRun> RunOnHost(hostdb::HostDatabase& host,
                           const TpchQuery& query) {
  QueryRun run;
  std::vector<core::ColumnSet> results;
  const auto start = std::chrono::steady_clock::now();
  for (const auto& fragment : query.fragments) {
    RAPID_ASSIGN_OR_RETURN(core::LogicalPtr plan,
                           fragment(host.catalog(), results));
    RAPID_ASSIGN_OR_RETURN(core::ColumnSet result, host.ExecuteLocal(plan));
    results.push_back(std::move(result));
  }
  run.wall_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
  run.result = query.post ? query.post(results) : std::move(results.back());
  return run;
}

Status LoadTpch(double scale_factor, hostdb::HostDatabase* host,
                core::RapidEngine* engine, uint64_t seed,
                size_t rows_per_chunk) {
  TpchGenerator gen(scale_factor, seed);
  for (TableData& table : gen.AllTables()) {
    storage::LoadOptions opts;
    opts.rows_per_chunk = rows_per_chunk;
    RAPID_RETURN_NOT_OK(
        host->CreateTable(table.name, table.specs, table.data, opts));
    if (engine != nullptr) {
      RAPID_RETURN_NOT_OK(host->LoadToRapid(table.name, engine));
    }
  }
  return Status::OK();
}

}  // namespace rapid::tpch
