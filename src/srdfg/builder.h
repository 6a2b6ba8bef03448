/**
 * @file
 * srDFG generation from a PMLang program (Section IV-A).
 *
 * The builder inlines every component instantiation — each call site gets
 * its own subgraph copy, preserving context-sensitive metadata — resolves
 * symbolic dimensions against actual argument shapes, binds literal param
 * actuals as compile-time constants (usable in index arithmetic), converts
 * each assignment into a chain of Map/Reduce nodes in SSA form, and records
 * type-modifier metadata on every boundary edge.
 *
 * Names are resolved by lang::analyze(), which writes each symbol's slot
 * into the AST: the builder indexes an instantiation's bindings by those
 * slots and reads an assignment's iteration variables from
 * Stmt::contextSlots, so it never compares a name. It only reads the AST,
 * so builds of one analysed program may run concurrently; none may run
 * while the program is being analysed.
 */
#ifndef POLYMATH_SRDFG_BUILDER_H_
#define POLYMATH_SRDFG_BUILDER_H_

#include <map>
#include <memory>
#include <string>

#include "pmlang/ast.h"
#include "srdfg/graph.h"

namespace polymath::ir {

/** Options for srDFG construction. */
struct BuildOptions
{
    /** Top-level component to instantiate. */
    std::string entry = "main";

    /** Compile-time values for scalar params of the entry component that
     *  participate in index arithmetic. Params bound here do not become
     *  runtime graph inputs. */
    std::map<std::string, int64_t> paramConsts;
};

/**
 * Builds the srDFG of @p program's entry component. The program must have
 * passed lang::analyze(), which resolves its names (panics otherwise).
 * @throws UserError when shapes/bounds cannot be resolved to constants.
 */
std::unique_ptr<Graph> buildSrdfg(
    std::shared_ptr<const lang::Program> program,
    const BuildOptions &options = {});

/** Convenience: analyze + build of an already parsed @p program. */
std::unique_ptr<Graph> compileToSrdfg(
    std::shared_ptr<const lang::Program> program,
    const BuildOptions &options = {});

/** Convenience: parse + analyze + build in one call. */
std::unique_ptr<Graph> compileToSrdfg(const std::string &source,
                                      const BuildOptions &options = {});

} // namespace polymath::ir

#endif // POLYMATH_SRDFG_BUILDER_H_
