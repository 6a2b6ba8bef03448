/**
 * @file
 * PMLang pretty-printer: renders an AST back to canonical source text.
 *
 * Guarantees round-trip stability: parse(format(parse(s))) produces the
 * same AST as parse(s), and format is idempotent on its own output (the
 * property tests enforce both on every bundled workload). Used by tooling
 * (`pmc --format`) and as a structural-equality oracle in tests.
 */
#ifndef POLYMATH_PMLANG_FORMAT_H_
#define POLYMATH_PMLANG_FORMAT_H_

#include <string>

#include "pmlang/ast.h"

namespace polymath::lang {

/** Renders a whole program in canonical form. */
std::string formatProgram(const Program &program);

/** Renders one component. */
std::string formatComponent(const ComponentDecl &component);

/** Renders one statement at @p indent spaces. */
std::string formatStmt(const Stmt &stmt, int indent = 4);

/** Renders declared dimensions as source text: `[m][n + 1]`. */
std::string dimsText(const std::vector<ExprPtr> &dims);

} // namespace polymath::lang

#endif // POLYMATH_PMLANG_FORMAT_H_
