// Recursive-descent parser for the MATLAB subset.
#pragma once

#include <string>
#include <vector>

#include "ast/ast.hpp"
#include "lexer/token.hpp"
#include "support/diagnostics.hpp"

namespace mat2c {

class Parser {
 public:
  Parser(std::vector<Token> tokens, DiagnosticEngine& diags);

  /// Parses a whole file (functions and/or script statements). Returns a
  /// Program even when diagnostics were emitted; check diags for errors.
  /// Throws CompileError only on unrecoverable confusion.
  ast::ProgramPtr parseProgram();

 private:
  // -- token stream ---------------------------------------------------------
  const Token& peek(int ahead = 0) const;
  const Token& advance();
  bool check(TokenKind k) const { return peek().kind == k; }
  bool accept(TokenKind k);
  const Token& expect(TokenKind k, const char* context);
  void skipNewlines();
  void skipStatementSeparators();

  // -- grammar --------------------------------------------------------------
  ast::FunctionPtr parseFunction();
  std::vector<ast::StmtPtr> parseBlock();  // until end/else/elseif/case/otherwise/function/eof
  bool startsBlockTerminator() const;
  ast::StmtPtr parseStatement();
  ast::StmtPtr parseIf();
  ast::StmtPtr parseFor();
  ast::StmtPtr parseWhile();
  ast::StmtPtr parseSwitch();
  ast::StmtPtr parseAssignOrExpr();
  ast::StmtPtr finishAssign(std::vector<ast::LValue> targets, SourceLoc loc);
  bool tryParseMultiAssignTargets(std::vector<ast::LValue>& out);
  ast::LValue parseLValue();

  ast::ExprPtr parseExpr();            // full expression incl. ranges
  ast::ExprPtr parseOrOr();
  ast::ExprPtr parseAndAnd();
  ast::ExprPtr parseOr();
  ast::ExprPtr parseAnd();
  ast::ExprPtr parseComparison();
  ast::ExprPtr parseRange();
  ast::ExprPtr parseAdditive();
  ast::ExprPtr parseMultiplicative();
  ast::ExprPtr parseUnary();
  ast::ExprPtr parsePower();
  ast::ExprPtr parsePostfix();
  ast::ExprPtr parsePrimary();
  ast::ExprPtr parseMatrixLit();
  std::vector<ast::ExprPtr> parseIndexArgs();  // inside ( ... ), allows : and end

  std::vector<Token> toks_;
  DiagnosticEngine& diags_;
  std::size_t pos_ = 0;
  int indexDepth_ = 0;   // nesting inside index argument lists (enables : / end)
  int matrixDepth_ = 0;  // nesting inside [ ... ]
  int parenDepth_ = 0;   // nesting inside ( ... ) — newlines are skippable

  // Recursive descent uses the C++ stack; a hostile input (thousands of '('
  // or 'if' in a row) must hit a diagnostic before it hits the guard page.
  static constexpr int kMaxNestDepth = 400;
  int nestDepth_ = 0;    // combined statement + expression nesting
};

/// Convenience: lex + parse. Errors are reported into `diags`.
ast::ProgramPtr parseSource(const std::string& source, DiagnosticEngine& diags);

}  // namespace mat2c
