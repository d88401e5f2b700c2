// Expressions and predicates of the RAPID engine.
//
// Queries reaching RAPID are already normalized by the host compiler
// (Section 3.1); RAPID evaluates flat arithmetic expressions over
// columns (DSB-scale aware, integer only) and conjunctive predicates.
// Evaluation is vectorized: each node produces a full tile of values
// per invocation via the type-specialized primitives.

#ifndef RAPID_CORE_EXPR_H_
#define RAPID_CORE_EXPR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/bitvector.h"
#include "common/status.h"
#include "core/qef/column_set.h"
#include "core/qef/exec_ctx.h"
#include "core/qef/tile.h"
#include "primitives/arith.h"
#include "primitives/bloom.h"
#include "primitives/filter.h"

namespace rapid::core {

struct Expr;
using ExprPtr = std::shared_ptr<const Expr>;

struct Expr {
  enum class Kind { kColumn, kConst, kBinary };

  Kind kind = Kind::kConst;

  // kColumn: name in the operator's input schema.
  std::string column;

  // kConst: widened value; for decimal constants, `value` is the
  // mantissa at `scale` (e.g. 0.5 == {5, 1}). In a bound tree (Bind)
  // every node carries its DSB scale: a column its meta's, a binary
  // node its result's.
  int64_t value = 0;
  int scale = 0;

  // Bound trees only: a kColumn node's tile slot (-1 while unbound).
  int slot = -1;

  // kBinary.
  primitives::ArithOp op = primitives::ArithOp::kAdd;
  ExprPtr left;
  ExprPtr right;

  static ExprPtr Col(std::string name);
  static ExprPtr Int(int64_t v);
  static ExprPtr Dec(double v, int scale);
  static ExprPtr Add(ExprPtr l, ExprPtr r);
  static ExprPtr Sub(ExprPtr l, ExprPtr r);
  static ExprPtr Mul(ExprPtr l, ExprPtr r);

  // Column names referenced by this expression (appended to `out`).
  void CollectColumns(std::vector<std::string>* out) const;
};

// Structural equality: same kind, column, constant, scale and operator
// all the way down. Null equals only null.
bool SameExpr(const ExprPtr& a, const ExprPtr& b);

// The slot of column `name` in a stage input's schema `input` (its
// column metas in tile-slot order): the last column of that name, as
// a later column shadows an earlier one. NotFound when there is none.
Result<size_t> SlotOf(const std::vector<ColumnMeta>& input,
                      const std::string& name);

// A bound copy of `expr` over the stage input `input`: column nodes
// carry their slot and their meta's DSB scale, constants their own
// scale, a product the sum of its operands' scales and a sum or
// difference the larger of them. Plan trees are shared and stay
// unbound; an unknown column is NotFound here, before any tile runs.
Result<ExprPtr> Bind(const Expr& expr, const std::vector<ColumnMeta>& input);

// A computed column's meta: decimal iff `scale` is not 0.
ColumnMeta ScaledMeta(std::string name, int scale);

// The meta of output column `name` computing `bound` (bound to
// `input`): a bare input column keeps its type, scale, width and
// dictionary; anything else is ScaledMeta(name, bound.scale). Output
// schemas come from here, never from the tiles that happened to carry
// rows, so an empty result reports the same metas as a full one.
ColumnMeta ExprMeta(std::string name, const Expr& bound,
                    const std::vector<ColumnMeta>& input);

// Evaluates bound `expr` over a tile: writes tile.rows widened values
// into `out`, which must hold that many (typically a tile-pool
// buffer). The result's DSB scale is expr.scale. Intermediates of
// nested arithmetic come from the core's tile pool rather than
// per-tile heap vectors, so steady-state evaluation allocates nothing.
// Charges arithmetic primitive cycles.
Status EvalExpr(ExecCtx& ctx, const Tile& tile, const Expr& expr,
                int64_t* out);

// One conjunct of a WHERE clause. Values are pre-encoded by the
// compiler to the column's storage representation (dict codes, day
// numbers, DSB mantissas at the column scale).
struct Predicate {
  enum class Kind { kCmpConst, kBetween, kInSet, kCmpCol, kBloom };

  Kind kind = Kind::kCmpConst;
  std::string column;
  primitives::CmpOp op = primitives::CmpOp::kEq;
  int64_t value = 0;   // kCmpConst; lo for kBetween
  int64_t value2 = 0;  // hi for kBetween (inclusive)
  BitVector in_set;    // kInSet: bitmap over dictionary codes
  std::string column2;  // kCmpCol right-hand column
  // Bound predicates only (Bind): the tile slots of `column` and
  // `column2` (-1 while unbound).
  int slot = -1;
  int slot2 = -1;

  // kBloom: pushed-down join filter (sideways information passing).
  // Not owned; the filter outlives the predicate — it lives with the
  // join's build output for the duration of the fragment.
  const primitives::BlockedBloomFilter* bloom = nullptr;

  // Planner's selectivity estimate; drives most-selective-first
  // ordering (Section 5.4).
  double selectivity = 0.5;

  static Predicate CmpConst(std::string column, primitives::CmpOp op,
                            int64_t value, double selectivity = 0.5);
  static Predicate Between(std::string column, int64_t lo, int64_t hi,
                           double selectivity = 0.5);
  static Predicate InSet(std::string column, BitVector codes,
                         double selectivity = 0.5);
  static Predicate CmpCol(std::string left, primitives::CmpOp op,
                          std::string right, double selectivity = 0.5);
  static Predicate Bloom(std::string column,
                         const primitives::BlockedBloomFilter* filter,
                         double selectivity = 0.5);
};

// A bound copy of `pred` over the stage input `input` (see SlotOf).
Result<Predicate> Bind(const Predicate& pred,
                       const std::vector<ColumnMeta>& input);

// Whether two predicates test the same rows the same way: every field
// but the slots, the selectivity estimate included (it orders
// predicates, so two otherwise equal lists with different estimates
// may run differently).
bool SamePredicate(const Predicate& a, const Predicate& b);

// Evaluates one bound predicate over all rows of a tile into `out`
// (bit-vector flavour). Charges filter primitive cycles.
void EvalPredicate(ExecCtx& ctx, const Tile& tile, const Predicate& pred,
                   BitVector* out);

// The qualifying rows of one tile partway through a predicate chain.
// Dense, they are the set bits of `bits`. Sparse, they are the first
// `count` entries of `rids`, ascending (the selection vector), and
// `bits` is stale. `count` is the qualifying count either way.
struct Selection {
  BitVector bits;
  // Per-predicate result scratch, hoisted so tiles reuse its capacity.
  BitVector scratch;
  // Tile-rows capacity, owned by the caller (a tile-pool lease).
  uint32_t* rids = nullptr;
  size_t count = 0;
  bool sparse = false;

  // Turns the dense selection into the RID list.
  void ToRids() {
    count = bits.ToRids(rids);
    sparse = true;
  }
};

// Whether a chain with `qualifying` of a tile's `rows` rows left should
// run `pred` over the RID list: at or below the crossover of its kind
// (primitives::k*RidCrossover, measured by bench_primitives).
bool RefinesOnRids(const Predicate& pred, size_t qualifying, size_t rows);

// Refines `sel` with one more bound predicate (the Listing 1 loop: only
// qualifying rows count). A dense selection runs the bit-vector kernel
// over the tile and intersects; a sparse one runs the RID kernel over
// the listed rows and compacts the list; an RLE column decides once per
// run either way. Every path charges the full-tile cost and then
// re-charges it down to the qualifying rows (the run-level path keeps
// its per-run charge), so modeled cycles do not depend on the path.
void RefinePredicate(ExecCtx& ctx, const Tile& tile, const Predicate& pred,
                     Selection* sel);

}  // namespace rapid::core

#endif  // RAPID_CORE_EXPR_H_
