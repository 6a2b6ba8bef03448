#include "srdfg/op.h"

#include <deque>
#include <mutex>
#include <ostream>
#include <shared_mutex>
#include <unordered_map>

#include "core/error.h"

namespace polymath::ir {

namespace {

/** Spelling per OpCode, indexed by the enumerator value. These are the
 *  exact strings the old `std::string Node::op` representation carried,
 *  so every printed/serialized form is byte-identical. */
const std::string kOpNames[kOpCodeCount] = {
    "const", "identity",
    "add", "sub", "mul", "div", "mod", "pow",
    "lt", "le", "gt", "ge", "eq", "ne", "and", "or", "not",
    "neg", "sin", "cos", "tan", "exp", "ln", "log", "sqrt", "abs",
    "sigmoid", "relu", "tanh", "erf", "sign", "floor", "ceil", "gauss",
    "re", "im", "conj",
    "min", "max", "select",
    "sum", "prod",
};

static_assert(kOpCodeCount <= 64, "OpSet packs builtins into a uint64_t");

/** Map-level input count per OpCode; 0 for non-map builtins (const and
 *  the reduce-only group ops), matching the old name-keyed table. */
constexpr int kOpArity[kOpCodeCount] = {
    0, 1,                      // const, identity
    2, 2, 2, 2, 2, 2,          // add..pow
    2, 2, 2, 2, 2, 2, 2, 2, 1, // lt..or, not
    1, 1, 1, 1, 1, 1, 1, 1, 1, // neg..abs
    1, 1, 1, 1, 1, 1, 1, 1,    // sigmoid..gauss
    1, 1, 1,                   // re, im, conj
    2, 2, 3,                   // min, max, select
    0, 0,                      // sum, prod
};

/** Process-wide symbol interner. Append-only: a deque keeps the string
 *  storage stable, so Op::str() references never dangle. Guarded by a
 *  shared_mutex — compiles run concurrently under the suite driver, and
 *  lookups vastly outnumber insertions. */
class Interner
{
  public:
    static Interner &instance()
    {
        static Interner interner;
        return interner;
    }

    uint32_t intern(std::string_view name)
    {
        {
            std::shared_lock lock(mutex_);
            auto it = ids_.find(name);
            if (it != ids_.end())
                return it->second;
        }
        std::unique_lock lock(mutex_);
        auto it = ids_.find(name);
        if (it != ids_.end())
            return it->second;
        const auto id = static_cast<uint32_t>(names_.size());
        names_.emplace_back(name);
        ids_.emplace(names_.back(), id);
        return id;
    }

    const std::string &name(uint32_t id) const
    {
        std::shared_lock lock(mutex_);
        if (id >= names_.size())
            panic("interned op symbol id out of range");
        return names_[id];
    }

  private:
    mutable std::shared_mutex mutex_;
    std::deque<std::string> names_;
    /** Keys view into names_ (stable storage). */
    std::unordered_map<std::string_view, uint32_t> ids_;
};

/** Builtin spelling -> OpCode lookup, built once. */
const std::unordered_map<std::string_view, OpCode> &
builtinCodes()
{
    static const auto *table = [] {
        auto *t = new std::unordered_map<std::string_view, OpCode>();
        for (int i = 0; i < kOpCodeCount; ++i)
            t->emplace(kOpNames[i], static_cast<OpCode>(i));
        return t;
    }();
    return *table;
}

} // namespace

Op
Op::intern(std::string_view name)
{
    const auto &codes = builtinCodes();
    auto it = codes.find(name);
    if (it != codes.end())
        return Op(it->second);
    Op op;
    op.code_ = OpCode::Symbol;
    op.sym_ = Interner::instance().intern(name);
    return op;
}

const std::string &
Op::str() const
{
    if (code_ == OpCode::Symbol)
        return Interner::instance().name(sym_);
    return kOpNames[static_cast<int>(code_)];
}

int
mapOpArity(Op op)
{
    if (op.isSymbol())
        return 0;
    return kOpArity[static_cast<int>(op.code())];
}

size_t
OpSet::size() const
{
    return static_cast<size_t>(__builtin_popcountll(bits_)) + syms_.size();
}

std::vector<std::string>
OpSet::sortedNames() const
{
    std::set<std::string> names;
    for (int i = 0; i < kOpCodeCount; ++i) {
        if ((bits_ >> i) & 1)
            names.insert(kOpNames[i]);
    }
    for (uint32_t id : syms_)
        names.insert(Interner::instance().name(id));
    return {names.begin(), names.end()};
}

std::ostream &
operator<<(std::ostream &os, Op op)
{
    return os << op.str();
}

} // namespace polymath::ir
