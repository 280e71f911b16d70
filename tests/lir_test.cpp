// LIR structure tests: builders, printing, verification, traversal, affine
// analysis.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include <cmath>

#include "lir/analysis.hpp"
#include "lir/lir.hpp"
#include "lir/walk.hpp"

namespace mat2c::lir {
namespace {

Function makeSaxpy() {
  // y[i] = a * x[i] + y[i]
  Function fn;
  fn.name = "saxpy";
  fn.params.push_back({"a", Scalar::F64, false, 1, 1});
  fn.params.push_back({"x", Scalar::F64, true, 1, 8});
  fn.outs.push_back({"y", Scalar::F64, true, 1, 8});
  std::vector<StmtPtr> body;
  ExprPtr val = fma(varRef("a", VType::f64()),
                    load("x", varRef("i", VType::i64()), VType::f64()),
                    load("y", varRef("i", VType::i64()), VType::f64()), VType::f64());
  body.push_back(store("y", varRef("i", VType::i64()), std::move(val)));
  fn.body.push_back(forLoop("i", constI(0), constI(8), 1, std::move(body)));
  return fn;
}

TEST(Lir, VerifyAcceptsWellFormed) {
  Function fn = makeSaxpy();
  EXPECT_TRUE(verify(fn).empty());
}

TEST(Lir, PrintContainsStructure) {
  Function fn = makeSaxpy();
  std::string text = print(fn);
  EXPECT_NE(text.find("func saxpy"), std::string::npos);
  EXPECT_NE(text.find("for i = 0 .. 8"), std::string::npos);
  EXPECT_NE(text.find("fma(a, x[i], y[i])"), std::string::npos);
}

TEST(Lir, VerifyCatchesUndeclaredVariable) {
  Function fn = makeSaxpy();
  fn.body.push_back(assign("ghost", constF(1.0)));
  auto problems = verify(fn);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].find("ghost"), std::string::npos);
}

TEST(Lir, VerifyCatchesUnknownArray) {
  Function fn = makeSaxpy();
  fn.body.push_back(store("nosuch", constI(0), constF(1.0)));
  EXPECT_FALSE(verify(fn).empty());
}

TEST(Lir, VerifyCatchesTypeMismatch) {
  Function fn = makeSaxpy();
  fn.body.push_back(declScalar("t", VType::f64(), constI(3)));  // i64 init for f64
  EXPECT_FALSE(verify(fn).empty());
}

TEST(Lir, VerifyCatchesNonI64Index) {
  Function fn = makeSaxpy();
  fn.body.push_back(store("y", constF(0.0), constF(1.0)));
  EXPECT_FALSE(verify(fn).empty());
}

TEST(Lir, CollectStatsCountsTheStatementTree) {
  Function fn = makeSaxpy();
  FunctionStats stats = collectStats(fn);
  EXPECT_EQ(stats.statements, 2);  // for + store
  EXPECT_EQ(stats.loops, 1);
  EXPECT_EQ(stats.stores, 1);
  EXPECT_EQ(stats.decls, 0);
  EXPECT_EQ(stats.boundsChecks, 0);

  // Nested and conditional statements are counted recursively.
  std::vector<StmtPtr> thenBody;
  thenBody.push_back(declScalar("t", VType::f64(), constF(0.0)));
  fn.body.push_back(ifStmt(binary(BinOp::Lt, constF(0.0), constF(1.0), VType::b1()),
                           std::move(thenBody)));
  fn.body.push_back(boundsCheck("y", constI(0)));
  FunctionStats grown = collectStats(fn);
  EXPECT_EQ(grown.statements, 5);
  EXPECT_EQ(grown.decls, 1);
  EXPECT_EQ(grown.boundsChecks, 1);
  EXPECT_FALSE(stats == grown);
}

TEST(Lir, VerifyCatchesBreakOutsideLoop) {
  Function fn;
  fn.name = "f";
  fn.body.push_back(breakStmt());
  EXPECT_FALSE(verify(fn).empty());
}

TEST(Lir, VerifyScopesLoopVariables) {
  Function fn;
  fn.name = "f";
  std::vector<StmtPtr> body;
  body.push_back(declScalar("t", VType::i64(), varRef("i", VType::i64())));
  fn.body.push_back(forLoop("i", constI(0), constI(4), 1, std::move(body)));
  // `i` out of scope after the loop:
  fn.body.push_back(declScalar("u", VType::i64(), varRef("i", VType::i64())));
  EXPECT_FALSE(verify(fn).empty());
}

TEST(Lir, CloneIsDeep) {
  Function fn = makeSaxpy();
  StmtPtr loop = fn.body[0]->clone();
  // Mutating the clone must not affect the original.
  loop->body.clear();
  EXPECT_FALSE(fn.body[0]->body.empty());
}

TEST(Lir, ArrayInfoFindsAllStorageKinds) {
  Function fn = makeSaxpy();
  fn.arrays.push_back({"tmp", Scalar::C64, 2, 3});
  Scalar elem{};
  std::int64_t n = 0;
  EXPECT_TRUE(fn.arrayInfo("x", elem, n));
  EXPECT_EQ(n, 8);
  EXPECT_TRUE(fn.arrayInfo("y", elem, n));
  EXPECT_TRUE(fn.arrayInfo("tmp", elem, n));
  EXPECT_EQ(elem, Scalar::C64);
  EXPECT_EQ(n, 6);
  EXPECT_FALSE(fn.arrayInfo("a", elem, n));  // scalar param is not an array
  EXPECT_FALSE(fn.arrayInfo("zz", elem, n));
}

TEST(Lir, TypeToString) {
  EXPECT_EQ(toString(VType::f64()), "f64");
  EXPECT_EQ(toString(VType::c64(4)), "c64x4");
  EXPECT_EQ(toString(VType::i64()), "i64");
}

// -- statement slot layout ---------------------------------------------------

/// One statement whose slots break its kind's layout, and the problems the
/// verifier reports for it. Every row sits in a for body, next to a declared
/// scalar `x` and output array `y`, so nothing else is wrong.
struct SlotRow {
  const char* name;
  StmtPtr (*make)();
  std::vector<std::string> problems;
};

TEST(Lir, VerifyReportsMissingAndStraySlotsPerStatementKind) {
  std::vector<SlotRow> rows;
  rows.push_back({"decl+index", [] {
                    StmtPtr s = declScalar("t", VType::f64());
                    s->index = constI(0);
                    return s;
                  },
                  {"decl with a stray index"}});
  rows.push_back({"assign-value", [] { return assign("x", nullptr); }, {"assign without value"}});
  rows.push_back({"store-index", [] { return store("y", nullptr, constF(1.0)); },
                  {"store without index"}});
  rows.push_back({"store-value", [] { return store("y", constI(0), nullptr); },
                  {"store without value"}});
  rows.push_back({"for-lo-hi", [] { return forLoop("i", nullptr, nullptr, 1, {}); },
                  {"for without lo", "for without hi"}});
  rows.push_back({"for+cond", [] {
                    StmtPtr s = forLoop("i", constI(0), constI(2), 1, {});
                    s->cond = binary(BinOp::Lt, constI(0), constI(1), VType::b1());
                    return s;
                  },
                  {"for with a stray cond"}});
  rows.push_back({"if-cond", [] { return ifStmt(nullptr, {}); }, {"if without cond"}});
  rows.push_back({"while-cond+else", [] {
                    StmtPtr s = whileStmt(nullptr, {});
                    s->elseBody.push_back(comment("e"));
                    return s;
                  },
                  {"while without cond", "while with a stray else body"}});
  rows.push_back({"break+value", [] {
                    StmtPtr s = breakStmt();
                    s->value = constF(1.0);
                    return s;
                  },
                  {"break with a stray value"}});
  rows.push_back({"continue+body", [] {
                    StmtPtr s = continueStmt();
                    s->body.push_back(comment("b"));
                    return s;
                  },
                  {"continue with a stray body"}});
  rows.push_back({"boundscheck-index", [] { return boundsCheck("y", nullptr); },
                  {"bounds check without index"}});
  rows.push_back({"allocmark+hi", [] {
                    StmtPtr s = allocMark("y");
                    s->hi = constI(4);
                    return s;
                  },
                  {"alloc mark with a stray hi"}});
  rows.push_back({"comment+lo", [] {
                    StmtPtr s = comment("c");
                    s->lo = constI(0);
                    return s;
                  },
                  {"comment with a stray lo"}});

  std::vector<StmtKind> covered;
  for (const auto& row : rows) {
    Function fn;
    fn.name = "f";
    fn.outs.push_back({"y", Scalar::F64, true, 1, 4});
    fn.body.push_back(declScalar("x", VType::f64(), constF(0.0)));
    std::vector<StmtPtr> body;
    body.push_back(row.make());
    covered.push_back(body.back()->kind);
    fn.body.push_back(forLoop("k", constI(0), constI(4), 1, std::move(body)));
    EXPECT_EQ(verify(fn), row.problems) << row.name;
  }
  for (StmtKind k : {StmtKind::DeclScalar, StmtKind::Assign, StmtKind::Store, StmtKind::For,
                     StmtKind::If, StmtKind::While, StmtKind::Break, StmtKind::Continue,
                     StmtKind::BoundsCheck, StmtKind::AllocMark, StmtKind::Comment}) {
    EXPECT_NE(std::find(covered.begin(), covered.end(), k), covered.end())
        << "no row for StmtKind " << static_cast<int>(k);
  }
}

// -- traversal (lir/walk.hpp) --------------------------------------------------

/// The slots forEachOperand visits, as offsets into the node.
std::vector<const ExprPtr*> operandSlots(const Expr& e) {
  std::vector<const ExprPtr*> out;
  forEachOperand(e, [&](const ExprPtr& k) { out.push_back(&k); });
  return out;
}

TEST(LirWalk, OperandSlotsAreTheSetOnesInIndexABCOrder) {
  auto x = [] { return varRef("x", VType::f64()); };
  ExprPtr cf = constF(1.0), ci = constI(1), v = x();
  EXPECT_TRUE(operandSlots(*cf).empty());
  EXPECT_TRUE(operandSlots(*ci).empty());
  EXPECT_TRUE(operandSlots(*v).empty());
  ExprPtr ld = load("A", constI(0), VType::f64());
  EXPECT_EQ(operandSlots(*ld), std::vector<const ExprPtr*>{&ld->index});
  ExprPtr un = unary(UnOp::Neg, x(), VType::f64());
  EXPECT_EQ(operandSlots(*un), std::vector<const ExprPtr*>{&un->a});
  ExprPtr bin = binary(BinOp::Add, x(), x(), VType::f64());
  EXPECT_EQ(operandSlots(*bin), (std::vector<const ExprPtr*>{&bin->a, &bin->b}));
  ExprPtr f = fma(x(), x(), x(), VType::f64());
  EXPECT_EQ(operandSlots(*f), (std::vector<const ExprPtr*>{&f->a, &f->b, &f->c}));
  ExprPtr sp = splat(x(), 4);
  EXPECT_EQ(operandSlots(*sp), std::vector<const ExprPtr*>{&sp->a});
  ExprPtr red = reduce(ReduceOp::Add, splat(x(), 4));
  EXPECT_EQ(operandSlots(*red), std::vector<const ExprPtr*>{&red->a});

  // The documented order holds even on a node no constructor builds.
  Expr all{};
  all.kind = ExprKind::Fma;
  all.c = x();
  all.b = x();
  all.a = x();
  all.index = constI(0);
  EXPECT_EQ(operandSlots(all),
            (std::vector<const ExprPtr*>{&all.index, &all.a, &all.b, &all.c}));
}

/// The slots forEachExpr visits.
std::vector<const ExprPtr*> exprSlots(const Stmt& s) {
  std::vector<const ExprPtr*> out;
  forEachExpr(s, [&](const ExprPtr& e) { out.push_back(&e); });
  return out;
}

TEST(LirWalk, StatementSlotsAreTheSetOnesInValueIndexLoHiCondOrder) {
  auto one = [] { return constF(1.0); };
  auto b1 = [] { return binary(BinOp::Lt, constI(0), constI(1), VType::b1()); };
  StmtPtr decl = declScalar("t", VType::f64(), one());
  EXPECT_EQ(exprSlots(*decl), std::vector<const ExprPtr*>{&decl->value});
  EXPECT_TRUE(exprSlots(*declScalar("t", VType::f64())).empty());
  StmtPtr asg = assign("t", one());
  EXPECT_EQ(exprSlots(*asg), std::vector<const ExprPtr*>{&asg->value});
  StmtPtr st = store("y", constI(0), one());
  EXPECT_EQ(exprSlots(*st), (std::vector<const ExprPtr*>{&st->value, &st->index}));
  StmtPtr loop = forLoop("i", constI(0), constI(4), 1, {});
  EXPECT_EQ(exprSlots(*loop), (std::vector<const ExprPtr*>{&loop->lo, &loop->hi}));
  StmtPtr branch = ifStmt(b1(), {});
  EXPECT_EQ(exprSlots(*branch), std::vector<const ExprPtr*>{&branch->cond});
  StmtPtr wh = whileStmt(b1(), {});
  EXPECT_EQ(exprSlots(*wh), std::vector<const ExprPtr*>{&wh->cond});
  StmtPtr bc = boundsCheck("y", constI(0));
  EXPECT_EQ(exprSlots(*bc), std::vector<const ExprPtr*>{&bc->index});
  EXPECT_TRUE(exprSlots(*breakStmt()).empty());
  EXPECT_TRUE(exprSlots(*continueStmt()).empty());
  EXPECT_TRUE(exprSlots(*allocMark("y")).empty());
  EXPECT_TRUE(exprSlots(*comment("c")).empty());

  // Nested blocks: body, then elseBody, empty ones included.
  std::vector<const std::vector<StmtPtr>*> blocks;
  forEachBlock(*branch, [&](const std::vector<StmtPtr>& b) { blocks.push_back(&b); });
  EXPECT_EQ(blocks, (std::vector<const std::vector<StmtPtr>*>{&branch->body, &branch->elseBody}));
}

/// for (i = 0; i < 4) { if (i < 2) { y[i] = x[i]; } else { // e } }
std::vector<StmtPtr> nestedBlock() {
  auto i = [] { return varRef("i", VType::i64()); };
  std::vector<StmtPtr> thenBody, elseBody, loopBody, block;
  thenBody.push_back(store("y", i(), load("x", i(), VType::f64())));
  elseBody.push_back(comment("e"));
  loopBody.push_back(ifStmt(binary(BinOp::Lt, i(), constI(2), VType::b1()),
                            std::move(thenBody), std::move(elseBody)));
  block.push_back(forLoop("i", constI(0), constI(4), 1, std::move(loopBody)));
  return block;
}

std::string kindName(StmtKind k) {
  const char* names[] = {"decl",  "assign",   "store", "for",   "if",     "while",
                         "break", "continue", "check", "alloc", "comment"};
  return names[static_cast<int>(k)];
}

/// Pre-order trace of walkNodes: statements by kind, expressions printed.
/// `stopAt` names the statement kind or expression text whose children are
/// skipped.
std::vector<std::string> trace(const std::vector<StmtPtr>& block, const std::string& stopAt) {
  std::vector<std::string> out;
  walkNodes(
      block,
      [&](const Stmt& s) {
        out.push_back(kindName(s.kind));
        return out.back() != stopAt;
      },
      [&](const Expr& e) {
        out.push_back(print(e));
        return out.back() != stopAt;
      });
  return out;
}

TEST(LirWalk, PreOrderVisitsEveryNodeInAFixedOrder) {
  std::vector<StmtPtr> block = nestedBlock();
  EXPECT_EQ(trace(block, ""),
            (std::vector<std::string>{"for", "0", "4", "if", "(i < 2)", "i", "2", "store", "x[i]",
                                      "i", "i", "comment"}));

  std::vector<std::string> stmts;
  walkStmts(block, [&](const Stmt& s) { stmts.push_back(kindName(s.kind)); });
  EXPECT_EQ(stmts, (std::vector<std::string>{"for", "if", "store", "comment"}));
}

TEST(LirWalk, StoppingTheDescentSkipsTheSubtree) {
  std::vector<StmtPtr> block = nestedBlock();
  // A statement: its expressions and nested blocks are skipped.
  EXPECT_EQ(trace(block, "if"), (std::vector<std::string>{"for", "0", "4", "if"}));
  // An expression: its operands are skipped, its siblings are not.
  EXPECT_EQ(trace(block, "x[i]"),
            (std::vector<std::string>{"for", "0", "4", "if", "(i < 2)", "i", "2", "store", "x[i]",
                                      "i", "comment"}));
  EXPECT_EQ(trace(block, "(i < 2)"),
            (std::vector<std::string>{"for", "0", "4", "if", "(i < 2)", "store", "x[i]", "i", "i",
                                      "comment"}));
}

TEST(LirWalk, WalkSlotsReplacesInPlaceAndDescendsIntoTheNewNode) {
  // x -> y everywhere; 1.0 -> (x * 2.0), whose x the walk reaches only when
  // it descends into the node that replaced the 1.0.
  auto rewrite = [](bool descend) {
    ExprPtr e = binary(BinOp::Add, varRef("x", VType::f64()), constF(1.0), VType::f64());
    walkSlots(e, [&](ExprPtr& slot) {
      if (slot->kind == ExprKind::VarRef) {
        slot = varRef("y", VType::f64());
      } else if (slot->kind == ExprKind::ConstF && slot->fval == 1.0) {
        slot = binary(BinOp::Mul, varRef("x", VType::f64()), constF(2.0), VType::f64());
        return descend;
      }
      return true;
    });
    return print(*e);
  };
  EXPECT_EQ(rewrite(true), "(y + (y * 2.0))");
  EXPECT_EQ(rewrite(false), "(y + (x * 2.0))");
}

// -- affine analysis ---------------------------------------------------------

TEST(LirAffine, ConstantsAndVars) {
  auto a = affineOf(*constI(7));
  EXPECT_TRUE(a.ok);
  EXPECT_EQ(a.constant, 7);
  auto v = affineOf(*varRef("i", VType::i64()));
  EXPECT_TRUE(v.ok);
  EXPECT_EQ(v.coeff("i"), 1);
}

TEST(LirAffine, LinearCombination) {
  // (i * 3 + j) - 2
  ExprPtr e = binary(
      BinOp::Sub,
      binary(BinOp::Add,
             binary(BinOp::Mul, varRef("i", VType::i64()), constI(3), VType::i64()),
             varRef("j", VType::i64()), VType::i64()),
      constI(2), VType::i64());
  auto a = affineOf(*e);
  ASSERT_TRUE(a.ok);
  EXPECT_EQ(a.coeff("i"), 3);
  EXPECT_EQ(a.coeff("j"), 1);
  EXPECT_EQ(a.constant, -2);
  EXPECT_FALSE(a.onlyVar("i"));
  EXPECT_TRUE(affineOf(*varRef("i", VType::i64())).onlyVar("i"));
}

TEST(LirAffine, NonAffineRejected) {
  ExprPtr e = binary(BinOp::Mul, varRef("i", VType::i64()), varRef("j", VType::i64()),
                     VType::i64());
  EXPECT_FALSE(affineOf(*e).ok);
  ExprPtr f = unary(UnOp::ToI64, constF(3.0), VType::i64());
  EXPECT_FALSE(affineOf(*f).ok);
}

TEST(LirAffine, Subtraction) {
  // (i + 5) - (i + 2) == 3
  ExprPtr a = binary(BinOp::Add, varRef("i", VType::i64()), constI(5), VType::i64());
  ExprPtr b = binary(BinOp::Add, varRef("i", VType::i64()), constI(2), VType::i64());
  Affine d = affineSub(affineOf(*a), affineOf(*b));
  ASSERT_TRUE(d.ok);
  EXPECT_EQ(d.constant, 3);
  EXPECT_EQ(d.coeff("i"), 0);
}

TEST(LirAnalysis, SubstituteVarStopsAtANestedRedeclaration) {
  // for k = 0 .. 4 { y = x; if c { z = x; f64 x = x; w = x }; v = x }
  auto x = [] { return varRef("x", VType::f64()); };
  std::vector<StmtPtr> inner;
  inner.push_back(assign("z", x()));
  inner.push_back(declScalar("x", VType::f64(), x()));
  inner.push_back(assign("w", x()));
  std::vector<StmtPtr> body;
  body.push_back(assign("y", x()));
  body.push_back(ifStmt(varRef("c", VType::b1()), std::move(inner)));
  body.push_back(assign("v", x()));
  StmtPtr loop = forLoop("k", constI(0), constI(4), 1, std::move(body));

  substituteVar(*loop, "x", *constF(2.0));
  EXPECT_EQ(print(*loop),
            "for k = 0 .. 4 {\n"
            "  y = 2.0\n"
            "  if c {\n"
            "    z = 2.0\n"
            "    f64 x = 2.0\n"  // the initializer reads the outer x
            "    w = x\n"        // the rest of the block reads the new one
            "  }\n"
            "  v = 2.0\n"        // the redeclaration's block has ended
            "}\n");
}

TEST(LirAnalysis, PrintNumberingMatchesPrintedText) {
  PrintNumbering numbering;
  auto same = [&](const Expr& a, const Expr& b) {
    EXPECT_EQ(print(a) == print(b), numbering.number(a) == numbering.number(b))
        << print(a) << " vs " << print(b);
    return numbering.number(a) == numbering.number(b);
  };
  auto sum = [](ExprPtr a, ExprPtr b, VType t) {
    return binary(BinOp::Add, std::move(a), std::move(b), t);
  };
  ExprPtr x = varRef("x", VType::f64());
  // NaNs print alike, signed zeros do not.
  EXPECT_TRUE(same(*constF(std::nan("1")), *constF(-std::nan("2"))));
  EXPECT_FALSE(same(*constF(0.0), *constF(-0.0)));
  EXPECT_FALSE(same(*constF(1.0), *constI(1)));
  // The scalar type is not printed; a vector Load's lanes are.
  EXPECT_TRUE(same(*sum(x->clone(), constF(1.0), VType::f64()),
                   *sum(varRef("x", VType::c64()), constF(1.0), VType::c64())));
  EXPECT_TRUE(same(*load("A", constI(0), VType::f64()), *load("A", constI(0), VType::c64())));
  EXPECT_FALSE(same(*load("A", constI(0), VType::f64()), *load("A", constI(0), VType::f64(4))));
  EXPECT_FALSE(same(*splat(x->clone(), 2), *splat(x->clone(), 4)));
  // Operators differ by their printed text, operands by position.
  EXPECT_FALSE(same(*sum(x->clone(), constF(1.0), VType::f64()),
                    *sum(constF(1.0), x->clone(), VType::f64())));
  EXPECT_FALSE(same(*unary(UnOp::Abs, x->clone(), VType::f64()),
                    *unary(UnOp::Sqrt, x->clone(), VType::f64())));
  // A version bump separates every later tree that reads the name.
  std::uint32_t before = numbering.number(*load("A", varRef("i", VType::i64()), VType::f64()));
  ++numbering.name("i").scalarVersion;
  EXPECT_NE(before, numbering.number(*load("A", varRef("i", VType::i64()), VType::f64())));
  std::uint32_t loaded = numbering.number(*load("A", constI(3), VType::f64()));
  EXPECT_EQ(numbering.numberLoad("A", *constI(3), 1), loaded);
  EXPECT_NE(numbering.numberLoad("A", *constI(3), 1, &numbering.name("A")), loaded);
  ++numbering.name("A").arrayVersion;
  EXPECT_NE(numbering.number(*load("A", constI(3), VType::f64())), loaded);
}

}  // namespace
}  // namespace mat2c::lir
