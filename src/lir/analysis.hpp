// Reusable LIR analyses for the loop-optimization passes.
//
// The loop optimizer needs three things the core IR does not provide:
// structural expression equality (CSE value numbering keys), variable
// substitution/renaming (loop fusion unifies induction variables, unrolling
// specializes them to constants), and read/write-set summaries of statement
// regions (dependence tests for fusion, invariance tests for LICM). They are
// deliberately syntactic: every LIR right-hand side is pure, so two
// structurally equal expressions evaluated under the same variable bindings
// produce the same value. Every walk here goes through lir/walk.hpp, the
// one statement of which fields hold children and in what order; a pass
// that needs a walk these summaries do not give uses those templates too.
#pragma once

#include <set>
#include <string>

#include "lir/lir.hpp"

namespace mat2c::lir {

/// Structural equality of expression trees (names, constants, ops, types).
bool exprEquals(const Expr& a, const Expr& b);

/// Replaces every VarRef to `name` in the tree with a clone of `replacement`.
void substituteVar(ExprPtr& e, const std::string& name, const Expr& replacement);

/// Substitutes in every expression position of a statement (recursively).
/// Does not touch definition sites (DeclScalar/Assign targets, For induction
/// variables) — use renameVar for whole-sale renaming.
void substituteVar(Stmt& s, const std::string& name, const Expr& replacement);

/// Renames a variable: definition sites (DeclScalar/Assign/For) and every
/// VarRef, recursively. The caller guarantees `to` is not otherwise bound in
/// the region.
void renameVar(Stmt& s, const std::string& from, const std::string& to);

/// Summary of what a statement region touches. `scalarWrites` includes
/// Assign targets, DeclScalar names, and For induction variables;
/// `scalarDecls` lists just the names the region itself declares (including
/// induction variables), i.e. names that are out of scope outside it.
struct AccessInfo {
  std::set<std::string> scalarReads;
  std::set<std::string> scalarWrites;
  std::set<std::string> scalarDecls;
  std::set<std::string> arrayReads;   // Load / BoundsCheck targets
  std::set<std::string> arrayWrites;  // Store / AllocMark targets
  bool hasLoopControl = false;        // Break/Continue anywhere inside
  bool hasWhile = false;

  /// True when reordering `*this` before `other` cannot change either
  /// region's behavior: no write/write or read/write overlap on scalars or
  /// arrays, and neither region carries loop-control statements.
  bool independentOf(const AccessInfo& other) const;
};

/// True when the two sets share a name.
bool intersects(const std::set<std::string>& a, const std::set<std::string>& b);

void collectAccess(const Expr& e, AccessInfo& out);
void collectAccess(const Stmt& s, AccessInfo& out);

/// Every variable name read by the expression.
std::set<std::string> varReads(const Expr& e);
/// Every variable name read anywhere in the block.
std::set<std::string> varReads(const std::vector<StmtPtr>& block);

/// True when the tree contains a Load.
bool containsLoad(const Expr& e);

}  // namespace mat2c::lir
