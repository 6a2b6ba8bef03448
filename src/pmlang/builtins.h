/**
 * @file
 * Registry of PMLang built-in scalar functions and group reductions
 * (Section II-C: non-linear operations and reduction operations).
 */
#ifndef POLYMATH_PMLANG_BUILTINS_H_
#define POLYMATH_PMLANG_BUILTINS_H_

#include <string>

#include "pmlang/ast.h"

namespace polymath::lang {

/** True when @p name is a built-in scalar function usable in expressions. */
bool isBuiltinFunction(const std::string &name);

/** Arity of a built-in function (1 or 2). @pre isBuiltinFunction(name). */
int builtinArity(const std::string &name);

/** True when @p name is a built-in group reduction (sum/prod/max/min). */
bool isBuiltinReduction(const std::string &name);

/** Evaluates a unary built-in on a real scalar. */
double evalBuiltin1(const std::string &name, double x);

/** Evaluates a binary built-in on real scalars. */
double evalBuiltin2(const std::string &name, double a, double b);

/** Identity element of a built-in reduction (0 for sum, 1 for prod,
 *  -inf for max, +inf for min). */
double reductionIdentity(const std::string &name);

/** Applies a built-in reduction combiner. */
double applyBuiltinReduction(const std::string &name, double acc, double x);

/** Applies a binary operator to real scalars (logic ops treat
 *  non-zero as true and return 0/1). */
double applyBinaryOp(BinaryOp op, double l, double r);

} // namespace polymath::lang

#endif // POLYMATH_PMLANG_BUILTINS_H_
