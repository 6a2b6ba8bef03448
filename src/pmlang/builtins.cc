#include "pmlang/builtins.h"

#include <cmath>
#include <limits>
#include <unordered_map>

#include "core/error.h"

namespace polymath::lang {

namespace {

const std::unordered_map<std::string, int> &
functionTable()
{
    static const std::unordered_map<std::string, int> table = {
        {"sin", 1},   {"cos", 1},     {"tan", 1},   {"exp", 1},
        {"ln", 1},    {"log", 1},     {"sqrt", 1},  {"abs", 1},
        {"sigmoid", 1}, {"relu", 1},  {"tanh", 1},  {"erf", 1},
        {"sign", 1},  {"floor", 1},   {"ceil", 1},  {"gauss", 1},
        {"re", 1},    {"im", 1},      {"conj", 1},
        {"pow", 2},   {"min", 2},     {"max", 2},
    };
    return table;
}

} // namespace

bool
isBuiltinFunction(const std::string &name)
{
    return functionTable().count(name) > 0;
}

int
builtinArity(const std::string &name)
{
    auto it = functionTable().find(name);
    if (it == functionTable().end())
        panic("builtinArity(): unknown builtin " + name);
    return it->second;
}

bool
isBuiltinReduction(const std::string &name)
{
    return name == "sum" || name == "prod" || name == "max" || name == "min";
}

double
evalBuiltin1(const std::string &name, double x)
{
    if (name == "sin") return std::sin(x);
    if (name == "cos") return std::cos(x);
    if (name == "tan") return std::tan(x);
    if (name == "exp") return std::exp(x);
    if (name == "ln" || name == "log") return std::log(x);
    if (name == "sqrt") return std::sqrt(x);
    if (name == "abs") return std::abs(x);
    if (name == "sigmoid") return 1.0 / (1.0 + std::exp(-x));
    if (name == "relu") return x > 0.0 ? x : 0.0;
    if (name == "tanh") return std::tanh(x);
    if (name == "erf") return std::erf(x);
    if (name == "sign") return x > 0.0 ? 1.0 : (x < 0.0 ? -1.0 : 0.0);
    if (name == "floor") return std::floor(x);
    if (name == "ceil") return std::ceil(x);
    if (name == "gauss") return std::exp(-x * x);
    if (name == "re") return x;
    if (name == "im") return 0.0;
    if (name == "conj") return x;
    panic("evalBuiltin1(): unknown builtin " + name);
}

double
evalBuiltin2(const std::string &name, double a, double b)
{
    if (name == "pow") return std::pow(a, b);
    if (name == "min") return a < b ? a : b;
    if (name == "max") return a > b ? a : b;
    panic("evalBuiltin2(): unknown builtin " + name);
}

double
reductionIdentity(const std::string &name)
{
    if (name == "sum") return 0.0;
    if (name == "prod") return 1.0;
    if (name == "max") return -std::numeric_limits<double>::infinity();
    if (name == "min") return std::numeric_limits<double>::infinity();
    panic("reductionIdentity(): unknown reduction " + name);
}

double
applyBuiltinReduction(const std::string &name, double acc, double x)
{
    if (name == "sum") return acc + x;
    if (name == "prod") return acc * x;
    if (name == "max") return acc > x ? acc : x;
    if (name == "min") return acc < x ? acc : x;
    panic("applyBuiltinReduction(): unknown reduction " + name);
}

double
applyBinaryOp(BinaryOp op, double l, double r)
{
    switch (op) {
      case BinaryOp::Add: return l + r;
      case BinaryOp::Sub: return l - r;
      case BinaryOp::Mul: return l * r;
      case BinaryOp::Div: return l / r;
      case BinaryOp::Mod: return std::fmod(l, r);
      case BinaryOp::Pow: return std::pow(l, r);
      case BinaryOp::Lt: return l < r;
      case BinaryOp::Le: return l <= r;
      case BinaryOp::Gt: return l > r;
      case BinaryOp::Ge: return l >= r;
      case BinaryOp::Eq: return l == r;
      case BinaryOp::Ne: return l != r;
      case BinaryOp::And: return l != 0.0 && r != 0.0;
      case BinaryOp::Or: return l != 0.0 || r != 0.0;
    }
    panic("unhandled BinaryOp");
}

} // namespace polymath::lang
