// Reusable LIR analyses for the loop-optimization passes.
//
// The loop optimizer needs four things the core IR does not provide:
// structural expression equality (LICM's occurrence matching), keys equal
// exactly when the printed text is (CSE's and LICM's PrintNumbering),
// variable substitution/renaming (loop fusion unifies induction variables,
// unrolling specializes them to constants), and read/write-set summaries of
// statement regions (dependence tests for fusion and unrolling). They are
// deliberately syntactic: every LIR right-hand side is pure, so two
// structurally equal expressions evaluated under the same variable bindings
// produce the same value. Every walk here goes through lir/walk.hpp, the
// one statement of which fields hold children and in what order; a pass
// that needs a walk these summaries do not give uses those templates too.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "lir/lir.hpp"

namespace mat2c::lir {

/// Structural equality of expression trees (names, constants, ops, types).
bool exprEquals(const Expr& a, const Expr& b);

/// Replaces every VarRef to `name` in the tree with a clone of `replacement`.
void substituteVar(ExprPtr& e, const std::string& name, const Expr& replacement);

/// Substitutes in every expression position of a statement (recursively).
/// Does not touch definition sites (DeclScalar/Assign targets, For induction
/// variables) — use renameVar for whole-sale renaming. A nested scope that
/// rebinds `name` keeps its own: the body of a nested For over it, and the
/// rest of a nested block after a DeclScalar of it.
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

void collectAccess(const Stmt& s, AccessInfo& out);

/// Every variable name read by the expression.
std::set<std::string> varReads(const Expr& e);

/// Every name `fn` uses that starts with `prefix`: scalars read or written
/// (For induction variables included), parameters, outputs and local
/// arrays — the names a fresh temporary with that prefix must avoid.
std::set<std::string> usedNames(const Function& fn, std::string_view prefix);

/// Numbers expression trees by their printed text without printing: two
/// trees get the same number exactly when lir::print prints them the same.
/// So every NaN constant is one number, -0.0 and 0.0 are two, and a type
/// counts only where the dump shows it (a vector Load's or a Splat's
/// lanes). The one exception: a variable named `nan` or `inf` is not the
/// non-finite literal that prints the same. Each name also has a scalar
/// and an array version, part of the number of every VarRef / Load of it;
/// bumping one (an assignment, a store) gives every later tree that reads
/// the name a number that no earlier tree has. Work per node is constant.
class PrintNumbering {
 public:
  struct Name {
    std::uint32_t id = 0;
    std::uint32_t scalarVersion = 0;
    std::uint32_t arrayVersion = 0;
  };
  /// A node's number and the size of its subtree (itself included).
  struct Node {
    std::uint32_t number = 0;
    std::uint32_t size = 0;
  };

  /// The version record of `n`; the reference stays valid.
  Name& name(const std::string& n);

  /// The number of `e`. With `preorder`, appends a Node for every node of
  /// the tree in walkExpr order. Loads of `nextArray`, when given, number
  /// as if its array version were already bumped once.
  std::uint32_t number(const Expr& e, std::vector<Node>* preorder = nullptr,
                       const Name* nextArray = nullptr);
  /// The number of lir::load(array, index, {_, lanes}), without building it.
  std::uint32_t numberLoad(const std::string& array, const Expr& index, int lanes,
                           const Name* nextArray = nullptr);
  /// How many numbers are given out: every number is below this.
  std::size_t size() const { return numbers_.size(); }

 private:
  struct Key {
    std::uint64_t payload = 0;
    std::uint32_t tag = 0;
    std::uint32_t kids[3] = {kNone, kNone, kNone};
    friend bool operator==(const Key&, const Key&) = default;
  };
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  struct KeyHash {
    std::size_t operator()(const Key& k) const;
  };
  std::uint32_t intern(const Key& key);
  Key loadKey(const std::string& array, std::uint32_t index, int lanes, const Name* nextArray);

  std::unordered_map<std::string, Name> names_;
  std::unordered_map<Key, std::uint32_t, KeyHash> numbers_;
};

}  // namespace mat2c::lir
