#include "pmlang/ast.h"

namespace polymath::lang {

namespace {

/** The binary-operator table, tightest-binding first. Every level binds
 *  looser than the prefix operators and tighter than '?:'. */
constexpr BinaryOpInfo kBinaryOps[] = {
    {Tok::Caret, BinaryOp::Pow, "^", 7, Assoc::Right},
    {Tok::Star, BinaryOp::Mul, "*", 6, Assoc::Left},
    {Tok::Slash, BinaryOp::Div, "/", 6, Assoc::Left},
    {Tok::Percent, BinaryOp::Mod, "%", 6, Assoc::Left},
    {Tok::Plus, BinaryOp::Add, "+", 5, Assoc::Left},
    {Tok::Minus, BinaryOp::Sub, "-", 5, Assoc::Left},
    {Tok::Lt, BinaryOp::Lt, "<", 4, Assoc::None},
    {Tok::Le, BinaryOp::Le, "<=", 4, Assoc::None},
    {Tok::Gt, BinaryOp::Gt, ">", 4, Assoc::None},
    {Tok::Ge, BinaryOp::Ge, ">=", 4, Assoc::None},
    {Tok::EqEq, BinaryOp::Eq, "==", 4, Assoc::None},
    {Tok::NotEq, BinaryOp::Ne, "!=", 4, Assoc::None},
    {Tok::AndAnd, BinaryOp::And, "&&", 3, Assoc::Left},
    {Tok::OrOr, BinaryOp::Or, "||", 2, Assoc::Left},
};

} // namespace

const BinaryOpInfo *
binaryOpFor(Tok kind)
{
    for (const auto &row : kBinaryOps) {
        if (row.token == kind)
            return &row;
    }
    return nullptr;
}

std::string
toString(BinaryOp op)
{
    for (const auto &row : kBinaryOps) {
        if (row.op == op)
            return row.spelling;
    }
    panic("unhandled BinaryOp");
}

std::string
toString(UnaryOp op)
{
    return op == UnaryOp::Neg ? "-" : "!";
}

std::string
toString(Modifier m)
{
    switch (m) {
      case Modifier::Input: return "input";
      case Modifier::Output: return "output";
      case Modifier::State: return "state";
      case Modifier::Param: return "param";
    }
    panic("unhandled Modifier");
}

std::string
toString(Domain d)
{
    switch (d) {
      case Domain::None: return "";
      case Domain::RBT: return "RBT";
      case Domain::GA: return "GA";
      case Domain::DSP: return "DSP";
      case Domain::DA: return "DA";
      case Domain::DL: return "DL";
    }
    panic("unhandled Domain");
}

const ComponentDecl *
Program::findComponent(const std::string &name) const
{
    for (const auto &c : components) {
        if (c.name == name)
            return &c;
    }
    return nullptr;
}

const ReductionDecl *
Program::findReduction(const std::string &name) const
{
    for (const auto &r : reductions) {
        if (r.name == name)
            return &r;
    }
    return nullptr;
}

std::string
exprToString(const Expr &e)
{
    switch (e.kind) {
      case ExprKind::Number:
        if (e.isIntLit)
            return std::to_string(static_cast<long long>(e.value));
        return std::to_string(e.value);
      case ExprKind::Ref: {
        std::string out = e.name;
        for (const auto &ix : e.args) {
            out += '[';
            out += exprToString(*ix);
            out += ']';
        }
        return out;
      }
      case ExprKind::Unary: {
        std::string out = toString(e.unaryOp);
        out += exprToString(*e.lhs);
        return out;
      }
      case ExprKind::Binary: {
        std::string out = "(";
        out += exprToString(*e.lhs);
        out += ' ';
        out += toString(e.binaryOp);
        out += ' ';
        out += exprToString(*e.rhs);
        out += ')';
        return out;
      }
      case ExprKind::Ternary: {
        std::string out = "(";
        out += exprToString(*e.lhs);
        out += " ? ";
        out += exprToString(*e.rhs);
        out += " : ";
        out += exprToString(*e.third);
        out += ')';
        return out;
      }
      case ExprKind::Call: {
        std::string out = e.name + "(";
        for (size_t i = 0; i < e.args.size(); ++i) {
            if (i)
                out += ", ";
            out += exprToString(*e.args[i]);
        }
        return out + ")";
      }
      case ExprKind::Reduce: {
        std::string out = e.name;
        for (const auto &ax : e.axes) {
            out += "[" + ax.index;
            if (ax.cond)
                out += ": " + exprToString(*ax.cond);
            out += "]";
        }
        return out + "(" + exprToString(*e.body) + ")";
      }
    }
    panic("unhandled ExprKind");
}

} // namespace polymath::lang
