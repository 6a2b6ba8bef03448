#include "srdfg/index_expr.h"

#include <algorithm>

#include "core/error.h"

namespace polymath::ir {

std::shared_ptr<const std::vector<IndexExpr>>
IndexExpr::share(std::vector<IndexExpr> kids)
{
    if (kids.empty())
        return nullptr;
    return std::make_shared<const std::vector<IndexExpr>>(std::move(kids));
}

IndexExpr
IndexExpr::constant(int64_t value)
{
    IndexExpr e;
    e.kind_ = Kind::Const;
    e.cval_ = value;
    return e;
}

IndexExpr
IndexExpr::var(int slot)
{
    if (slot < 0)
        panic("IndexExpr::var(): negative slot");
    IndexExpr e;
    e.kind_ = Kind::Var;
    e.slot_ = slot;
    e.vars_ = slot + 1;
    return e;
}

IndexExpr
IndexExpr::unary(Kind kind, IndexExpr operand)
{
    if (kind != Kind::Neg && kind != Kind::Not)
        panic("IndexExpr::unary(): bad kind");
    IndexExpr e;
    e.kind_ = kind;
    e.vars_ = operand.vars_;
    std::vector<IndexExpr> kids;
    kids.reserve(1);
    kids.push_back(std::move(operand));
    e.children_ = share(std::move(kids));
    return e;
}

IndexExpr
IndexExpr::binary(Kind kind, IndexExpr lhs, IndexExpr rhs)
{
    switch (kind) {
      case Kind::Add: case Kind::Sub: case Kind::Mul: case Kind::Div:
      case Kind::Mod: case Kind::Lt: case Kind::Le: case Kind::Gt:
      case Kind::Ge: case Kind::Eq: case Kind::Ne: case Kind::And:
      case Kind::Or:
        break;
      default:
        panic("IndexExpr::binary(): bad kind");
    }
    IndexExpr e;
    e.kind_ = kind;
    e.vars_ = std::max(lhs.vars_, rhs.vars_);
    std::vector<IndexExpr> kids;
    kids.reserve(2);
    kids.push_back(std::move(lhs));
    kids.push_back(std::move(rhs));
    e.children_ = share(std::move(kids));
    return e;
}

IndexExpr
IndexExpr::select(IndexExpr cond, IndexExpr then_e, IndexExpr else_e)
{
    IndexExpr e;
    e.kind_ = Kind::Select;
    e.vars_ = std::max({cond.vars_, then_e.vars_, else_e.vars_});
    std::vector<IndexExpr> kids;
    kids.reserve(3);
    kids.push_back(std::move(cond));
    kids.push_back(std::move(then_e));
    kids.push_back(std::move(else_e));
    e.children_ = share(std::move(kids));
    return e;
}

int64_t
IndexExpr::eval(std::span<const int64_t> env) const
{
    switch (kind_) {
      case Kind::Const:
        return cval_;
      case Kind::Var:
        if (static_cast<size_t>(slot_) >= env.size())
            panic("IndexExpr::eval(): var slot out of range");
        return env[static_cast<size_t>(slot_)];
      case Kind::Add: return child(0).eval(env) + child(1).eval(env);
      case Kind::Sub: return child(0).eval(env) - child(1).eval(env);
      case Kind::Mul: return child(0).eval(env) * child(1).eval(env);
      case Kind::Div: {
        const int64_t d = child(1).eval(env);
        if (d == 0)
            fatal("division by zero in index arithmetic");
        return child(0).eval(env) / d;
      }
      case Kind::Mod: {
        const int64_t d = child(1).eval(env);
        if (d == 0)
            fatal("modulo by zero in index arithmetic");
        return child(0).eval(env) % d;
      }
      case Kind::Neg: return -child(0).eval(env);
      case Kind::Lt: return child(0).eval(env) < child(1).eval(env);
      case Kind::Le: return child(0).eval(env) <= child(1).eval(env);
      case Kind::Gt: return child(0).eval(env) > child(1).eval(env);
      case Kind::Ge: return child(0).eval(env) >= child(1).eval(env);
      case Kind::Eq: return child(0).eval(env) == child(1).eval(env);
      case Kind::Ne: return child(0).eval(env) != child(1).eval(env);
      case Kind::And:
        return child(0).eval(env) != 0 && child(1).eval(env) != 0;
      case Kind::Or:
        return child(0).eval(env) != 0 || child(1).eval(env) != 0;
      case Kind::Not: return child(0).eval(env) == 0;
      case Kind::Select:
        return child(0).eval(env) != 0 ? child(1).eval(env)
                                       : child(2).eval(env);
    }
    panic("unhandled IndexExpr kind");
}

IndexExpr
IndexExpr::remapped(std::span<const int> map) const
{
    if (kind_ == Kind::Var) {
        if (static_cast<size_t>(slot_) >= map.size())
            panic("IndexExpr::remapped(): slot out of range");
        return var(map[static_cast<size_t>(slot_)]);
    }
    if (!children_)
        return *this; // Const: nothing to remap
    IndexExpr e;
    e.kind_ = kind_;
    e.cval_ = cval_;
    e.slot_ = slot_;
    std::vector<IndexExpr> kids;
    kids.reserve(children_->size());
    for (const auto &c : *children_) {
        kids.push_back(c.remapped(map));
        e.vars_ = std::max(e.vars_, kids.back().vars_);
    }
    e.children_ = share(std::move(kids));
    return e;
}

IndexExpr
IndexExpr::substituted(std::span<const IndexExpr> exprs) const
{
    if (kind_ == Kind::Var) {
        if (static_cast<size_t>(slot_) >= exprs.size())
            panic("IndexExpr::substituted(): slot out of range");
        return exprs[static_cast<size_t>(slot_)];
    }
    if (!children_)
        return *this; // Const: nothing to substitute
    IndexExpr e;
    e.kind_ = kind_;
    e.cval_ = cval_;
    e.slot_ = slot_;
    std::vector<IndexExpr> kids;
    kids.reserve(children_->size());
    for (const auto &c : *children_) {
        kids.push_back(c.substituted(exprs));
        e.vars_ = std::max(e.vars_, kids.back().vars_);
    }
    e.children_ = share(std::move(kids));
    return e;
}

bool
IndexExpr::isIdentityVar(int slot) const
{
    return kind_ == Kind::Var && slot_ == slot;
}

std::string
IndexExpr::str(std::span<const std::string> names) const
{
    auto name_of = [&](int slot) {
        if (static_cast<size_t>(slot) < names.size())
            return names[static_cast<size_t>(slot)];
        std::string out = "v";
        out += std::to_string(slot);
        return out;
    };
    // Appends, not operator+ chains: GCC 12 misreads the inlined
    // prepends of "(" + ... as overlapping copies (-Wrestrict).
    auto prefixed = [&](const char *prefix, size_t i) {
        std::string out = prefix;
        out += child(i).str(names);
        return out;
    };
    auto bin = [&](const char *op) {
        std::string out = prefixed("(", 0);
        out += op;
        out += child(1).str(names);
        out += ')';
        return out;
    };
    switch (kind_) {
      case Kind::Const: return std::to_string(cval_);
      case Kind::Var: return name_of(slot_);
      case Kind::Add: return bin(" + ");
      case Kind::Sub: return bin(" - ");
      case Kind::Mul: return bin("*");
      case Kind::Div: return bin("/");
      case Kind::Mod: return bin("%");
      case Kind::Neg: return prefixed("-", 0);
      case Kind::Lt: return bin(" < ");
      case Kind::Le: return bin(" <= ");
      case Kind::Gt: return bin(" > ");
      case Kind::Ge: return bin(" >= ");
      case Kind::Eq: return bin(" == ");
      case Kind::Ne: return bin(" != ");
      case Kind::And: return bin(" && ");
      case Kind::Or: return bin(" || ");
      case Kind::Not: return prefixed("!", 0);
      case Kind::Select: {
        std::string out = prefixed("(", 0);
        out += " ? ";
        out += child(1).str(names);
        out += " : ";
        out += child(2).str(names);
        out += ')';
        return out;
      }
    }
    panic("unhandled IndexExpr kind");
}

bool
IndexExpr::operator==(const IndexExpr &other) const
{
    if (kind_ != other.kind_ || cval_ != other.cval_ ||
        slot_ != other.slot_)
        return false;
    if (children_ == other.children_)
        return true; // shared subtree (or both leaves)
    return children() == other.children();
}

} // namespace polymath::ir
