/**
 * @file
 * Interned srDFG operation names.
 *
 * `Op` is a value type replacing the old `std::string Node::op`: every
 * builtin scalar/group operation is an `OpCode` enumerator, and custom
 * reduction names / component names are interned symbols (a small id
 * into a process-wide append-only table). Equality, hashing, and
 * ordering are integer operations; `str()` returns today's exact
 * spelling so printed srDFGs, serialized graphs, and reports are
 * byte-identical to the string representation. Two ops with different
 * source spellings stay distinct even when their semantics coincide
 * (e.g. `ln` and `log` both resolve to ScalarOp::Ln but print as
 * written).
 *
 * The interner is thread-safe (compiles run under the -jN suite driver)
 * and append-only, so `const std::string &` references it hands out stay
 * valid for the life of the process.
 */
#ifndef POLYMATH_SRDFG_OP_H_
#define POLYMATH_SRDFG_OP_H_

#include <cstdint>
#include <iosfwd>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace polymath::ir {

/** Every builtin operation name the stack knows statically: map-level
 *  scalar ops, group reductions, and the two structural ops ("const",
 *  "identity"). `Symbol` marks an interned custom name. */
enum class OpCode : uint8_t {
    // Structural.
    Const, Identity,
    // Binary arithmetic.
    Add, Sub, Mul, Div, Mod, Pow,
    // Comparisons and logic.
    Lt, Le, Gt, Ge, Eq, Ne, And, Or, Not,
    // Unary math. Ln and Log share semantics but keep their spellings.
    Neg, Sin, Cos, Tan, Exp, Ln, Log, Sqrt, Abs, Sigmoid, Relu, Tanh,
    Erf, Sign, Floor, Ceil, Gauss, Re, Im, Conj,
    // Binary min/max/select (min/max double as group reductions).
    Min, Max, Select,
    // Group reductions (sum/prod only reduce; min/max reuse Min/Max).
    Sum, Prod,
    // Custom reduction or component name; the spelling is interned.
    Symbol,
};

constexpr int kOpCodeCount = static_cast<int>(OpCode::Symbol);

/** An interned operation name. Cheap to copy/compare/hash. */
class Op
{
  public:
    /** Default: OpCode::Const (a valid op; Node default-initializes). */
    constexpr Op() = default;

    /** A builtin. @p code must not be OpCode::Symbol (use intern()). */
    constexpr Op(OpCode code) : code_(code) {}

    /** Resolves @p name: builtin spellings map to their OpCode, anything
     *  else is interned as a symbol. Never fails. */
    static Op intern(std::string_view name);

    OpCode code() const { return code_; }
    bool isSymbol() const { return code_ == OpCode::Symbol; }

    /** Interned symbol id; only meaningful when isSymbol(). */
    uint32_t symbolId() const { return sym_; }

    /** The spelling, exactly as written in the source/serialized form. */
    const std::string &str() const;

    /** Dense integer encoding for hashing / CSE key tuples: builtins are
     *  their code, symbols are kOpCodeCount + id. */
    int64_t bits() const
    {
        return isSymbol()
                   ? static_cast<int64_t>(kOpCodeCount) + sym_
                   : static_cast<int64_t>(code_);
    }

    friend bool operator==(Op a, Op b)
    {
        return a.code_ == b.code_ && a.sym_ == b.sym_;
    }
    friend bool operator!=(Op a, Op b) { return !(a == b); }
    friend bool operator==(Op a, OpCode c) { return a.code_ == c; }
    friend bool operator!=(Op a, OpCode c) { return a.code_ != c; }
    friend bool operator<(Op a, Op b) { return a.bits() < b.bits(); }

  private:
    OpCode code_ = OpCode::Const;
    uint32_t sym_ = 0;
};

/** Streams the spelling (diagnostics and test-failure messages). */
std::ostream &operator<<(std::ostream &os, Op op);

/** Number of inputs @p op expects at the Map level (1, 2, or 3);
 *  0 for ops that are not map-level builtins. */
int mapOpArity(Op op);

/** True when @p op is a memory-movement-only op (identity). */
inline bool
isMoveOp(Op op)
{
    return op.code() == OpCode::Identity;
}

/** True for the builtin group reductions (sum/prod/max/min). */
inline bool
isBuiltinReductionOp(Op op)
{
    switch (op.code()) {
      case OpCode::Sum:
      case OpCode::Prod:
      case OpCode::Max:
      case OpCode::Min:
        return true;
      default:
        return false;
    }
}

/**
 * A set of operations: a bitset over OpCode for builtins plus a spillover
 * set of interned symbol ids for custom names. Replaces the
 * `std::set<std::string>` Ot sets of the accelerator specs — membership
 * is one shift/mask for builtins.
 */
class OpSet
{
  public:
    OpSet() = default;
    OpSet(std::initializer_list<Op> ops)
    {
        for (Op op : ops)
            insert(op);
    }

    void insert(Op op)
    {
        if (op.isSymbol())
            syms_.insert(op.symbolId());
        else
            bits_ |= uint64_t{1} << static_cast<int>(op.code());
    }

    /** Convenience for spec construction from name literals. */
    void insert(std::string_view name) { insert(Op::intern(name)); }

    bool contains(Op op) const
    {
        if (op.isSymbol())
            return syms_.count(op.symbolId()) > 0;
        return (bits_ >> static_cast<int>(op.code())) & 1;
    }

    bool empty() const { return bits_ == 0 && syms_.empty(); }
    size_t size() const;

    /** True when every member of @p other is also in this set (subset
     *  test; one mask for the builtins). */
    bool containsAll(const OpSet &other) const
    {
        if ((other.bits_ & ~bits_) != 0)
            return false;
        for (const uint32_t sym : other.syms_) {
            if (syms_.count(sym) == 0)
                return false;
        }
        return true;
    }

    /** Union with @p other, in place. */
    void merge(const OpSet &other)
    {
        bits_ |= other.bits_;
        syms_.insert(other.syms_.begin(), other.syms_.end());
    }

    /** All member spellings in lexicographic order — the same order the
     *  old std::set<std::string> iterated in, so compile-cache keys and
     *  any rendered op lists are stable across the migration. */
    std::vector<std::string> sortedNames() const;

  private:
    uint64_t bits_ = 0;
    std::set<uint32_t> syms_;
};

/** Merged copy of @p a and @p b. */
inline OpSet
opSetUnion(OpSet a, const OpSet &b)
{
    a.merge(b);
    return a;
}

} // namespace polymath::ir

#endif // POLYMATH_SRDFG_OP_H_
