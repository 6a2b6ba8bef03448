/**
 * @file
 * Semantic analysis for PMLang programs.
 *
 * Validates, before srDFG construction:
 *  - component/reduction name uniqueness and existence of the entry point;
 *  - type-modifier access rules (input/param read-only, output write-only
 *    until first assigned, state read-write — Section II-A);
 *  - index-variable scoping: every index used in an assignment is bound by
 *    the statement's left-hand side or an enclosing reduction axis;
 *  - reference arity (scalar or fully-indexed) and call arity/compatibility;
 *  - built-in function arity and reduction-name resolution;
 *  - absence of recursive component instantiation.
 *
 * All violations raise UserError with the offending source location.
 *
 * Sema is the frontend's only name resolver. It numbers each component's
 * symbols with slots in declaration order (args, dimension symbols, then
 * the indices and locals of the body) and records the slot on every
 * declaration and use through the AST's `mutable` slot fields (see
 * ast.h), so the srDFG builder never looks a name up. analyze() is the
 * only writer of those fields and writes the same values on every run;
 * it must not run on an AST that another thread is analysing or
 * building from.
 */
#ifndef POLYMATH_PMLANG_SEMA_H_
#define POLYMATH_PMLANG_SEMA_H_

#include <string>

#include "pmlang/ast.h"

namespace polymath::lang {

/**
 * Analyzes @p prog and resolves its names to slots. @p entry is the
 * top-level component ("main" for whole programs; any component name for
 * library-style analysis). Every component is analysed and resolved.
 * @throws UserError on the first semantic violation.
 */
void analyze(const Program &prog, const std::string &entry = "main");

} // namespace polymath::lang

#endif // POLYMATH_PMLANG_SEMA_H_
