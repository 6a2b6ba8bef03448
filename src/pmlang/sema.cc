#include "pmlang/sema.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/flat_map.h"
#include "obs/trace.h"
#include "pmlang/builtins.h"
#include "pmlang/format.h"

namespace polymath::lang {

namespace {

/** What a slot refers to inside a component body. */
struct Symbol
{
    enum class Kind { Arg, Local, Index, DimSym };

    Kind kind = Kind::Local;
    Modifier mod = Modifier::Input; // Args only
    const std::vector<ExprPtr> *dims = nullptr; // args and locals
    std::string_view name;          // views into the AST
    bool assigned = false; // outputs/locals: written by an earlier stmt
    bool bound = false;    // indices: bound where the checker stands

    int rank() const { return dims ? static_cast<int>(dims->size()) : 0; }
};

/** Where integer arithmetic stands: an assignment's LHS subscripts, whose
 *  index variables bind themselves; other subscripts and axis guards; or
 *  a constant expression (range bounds, dims and param actuals). */
enum class Arith { Lhs, Index, Const };

/** Per-component analysis state. Resolves every name of the component
 *  to a slot (Symbol) and records the slot in the AST. */
class ComponentChecker
{
  public:
    ComponentChecker(const Program &prog, const ComponentDecl &comp)
        : prog_(prog), comp_(comp)
    {
    }

    void check();

  private:
    void declareArgs();
    int declare(std::string_view name, Symbol sym);
    void checkStmt(const Stmt &stmt);
    void checkAssign(const Stmt &stmt);
    void checkCall(const Stmt &stmt);

    /** Validates an expression; index variables must be bound. */
    void checkExpr(const Expr &e);

    /** Validates integer arithmetic in @p mode: only bound index
     *  variables, scalar params, dim symbols, and literals may appear. */
    void checkIndexExpr(const Expr &e, Arith mode);

    /** Declares the dimension symbols an argument's dims name. */
    void declareDimSymbols(const Expr &e);

    /** Appends the index slots of a resolved LHS subscript to @p out. */
    void collectIndices(const Expr &e, std::vector<int> *out) const;

    int resolve(const std::string &name, SourceLoc loc) const;
    bool isReadable(const Symbol &sym) const;
    bool isWritable(const Symbol &sym) const;

    const Program &prog_;
    const ComponentDecl &comp_;
    FlatStringMap<int> scope_;    // name -> slot; keys view into the AST
    std::vector<Symbol> symbols_; // by slot
};

int
ComponentChecker::declare(std::string_view name, Symbol sym)
{
    sym.name = name;
    const int slot = static_cast<int>(symbols_.size());
    symbols_.push_back(sym);
    scope_[name] = slot;
    return slot;
}

void
ComponentChecker::declareArgs()
{
    for (const auto &arg : comp_.args) {
        if (scope_.count(arg.name)) {
            fatal("duplicate argument '" + arg.name + "' in component '" +
                      comp_.name + "'",
                  arg.loc);
        }
        Symbol sym;
        sym.kind = Symbol::Kind::Arg;
        sym.mod = arg.mod;
        sym.dims = &arg.dims;
        declare(arg.name, sym);
    }
    // Symbolic dimensions (e.g. m, n in mvmul) become read-only scalars.
    for (const auto &arg : comp_.args) {
        for (const auto &dim : arg.dims) {
            declareDimSymbols(*dim);
            checkIndexExpr(*dim, Arith::Const);
        }
    }
}

void
ComponentChecker::declareDimSymbols(const Expr &e)
{
    if (e.kind == ExprKind::Ref && e.args.empty() && !scope_.count(e.name)) {
        Symbol sym;
        sym.kind = Symbol::Kind::DimSym;
        declare(e.name, sym);
    }
    for (const Expr *child : {e.lhs.get(), e.rhs.get(), e.third.get()}) {
        if (child)
            declareDimSymbols(*child);
    }
}

void
ComponentChecker::check()
{
    declareArgs();
    for (const auto &stmt : comp_.body)
        checkStmt(*stmt);
    for (size_t i = 0; i < comp_.args.size(); ++i) {
        const ArgDecl &arg = comp_.args[i];
        if (arg.mod == Modifier::Output && !symbols_[i].assigned) {
            fatal("output '" + arg.name + "' of component '" + comp_.name +
                      "' is never assigned",
                  arg.loc);
        }
    }
    comp_.slotCount = static_cast<int>(symbols_.size());
}

void
ComponentChecker::checkStmt(const Stmt &stmt)
{
    switch (stmt.kind) {
      case StmtKind::IndexDecl:
        for (const auto &spec : stmt.indexSpecs) {
            if (scope_.count(spec.name))
                fatal("redeclaration of '" + spec.name + "'", spec.loc);
            checkIndexExpr(*spec.lo, Arith::Const);
            checkIndexExpr(*spec.hi, Arith::Const);
            Symbol sym;
            sym.kind = Symbol::Kind::Index;
            spec.slot = declare(spec.name, sym);
        }
        return;
      case StmtKind::VarDecl:
        for (const auto &decl : stmt.locals) {
            if (scope_.count(decl.name))
                fatal("redeclaration of '" + decl.name + "'", decl.loc);
            for (const auto &dim : decl.dims)
                checkIndexExpr(*dim, Arith::Const);
            Symbol sym;
            sym.kind = Symbol::Kind::Local;
            sym.dims = &decl.dims;
            decl.slot = declare(decl.name, sym);
        }
        return;
      case StmtKind::Assign:
        checkAssign(stmt);
        return;
      case StmtKind::Call:
        checkCall(stmt);
        return;
    }
    panic("unhandled StmtKind");
}

void
ComponentChecker::checkAssign(const Stmt &stmt)
{
    stmt.targetSlot = resolve(stmt.target, stmt.loc);
    const Symbol &target = symbols_[stmt.targetSlot];
    if (!isWritable(target)) {
        fatal("'" + stmt.target + "' is not writable (" +
                  (target.kind == Symbol::Kind::Arg
                       ? toString(target.mod) + " argument"
                       : "index or dimension symbol") +
                  ")",
              stmt.loc);
    }
    if (!stmt.targetIndices.empty() &&
        static_cast<int>(stmt.targetIndices.size()) != target.rank()) {
        fatal("'" + stmt.target + "' has rank " +
                  std::to_string(target.rank()) + " but is subscripted " +
                  std::to_string(stmt.targetIndices.size()) + " time(s)",
              stmt.loc);
    }
    if (stmt.targetIndices.empty() && target.rank() != 0) {
        fatal("whole-tensor assignment to '" + stmt.target +
                  "' requires explicit subscripts",
              stmt.loc);
    }

    // The subscripts' index variables bind the statement.
    stmt.contextSlots.clear();
    std::vector<int> vars;
    for (const auto &ix : stmt.targetIndices) {
        checkIndexExpr(*ix, Arith::Lhs);
        vars.clear();
        collectIndices(*ix, &vars);
        std::sort(vars.begin(), vars.end(), [&](int a, int b) {
            return symbols_[a].name < symbols_[b].name;
        });
        for (const int slot : vars) {
            if (!symbols_[slot].bound) {
                symbols_[slot].bound = true;
                stmt.contextSlots.push_back(slot);
            }
        }
    }
    checkExpr(*stmt.value);
    for (const int slot : stmt.contextSlots)
        symbols_[slot].bound = false;
    symbols_[stmt.targetSlot].assigned = true;
}

void
ComponentChecker::checkCall(const Stmt &stmt)
{
    const ComponentDecl *callee = prog_.findComponent(stmt.callee);
    if (!callee) {
        fatal("unknown component '" + stmt.callee + "'", stmt.loc);
    }
    if (callee->args.size() != stmt.callArgs.size()) {
        fatal("component '" + stmt.callee + "' takes " +
                  std::to_string(callee->args.size()) + " argument(s), " +
                  std::to_string(stmt.callArgs.size()) + " given",
              stmt.loc);
    }
    // Every actual is read before any output is written back: the
    // instance reads its inputs and state first.
    std::vector<int> written;
    for (size_t i = 0; i < callee->args.size(); ++i) {
        const ArgDecl &formal = callee->args[i];
        const Expr &actual = *stmt.callArgs[i];
        if (actual.kind == ExprKind::Ref && actual.args.empty()) {
            actual.slot = resolve(actual.name, actual.loc);
            Symbol &sym = symbols_[actual.slot];
            if (sym.kind == Symbol::Kind::Index) {
                fatal("index variable '" + actual.name +
                          "' cannot be an instantiation argument",
                      actual.loc);
            }
            const bool needs_write = formal.mod == Modifier::Output ||
                                     formal.mod == Modifier::State;
            if (needs_write && !isWritable(sym)) {
                fatal("argument '" + actual.name + "' bound to " +
                          toString(formal.mod) + " '" + formal.name +
                          "' must be writable",
                      actual.loc);
            }
            // A state formal reads the actual before it writes it back.
            if (formal.mod == Modifier::State && !isReadable(sym))
                fatal("'" + actual.name + "' is read before assignment",
                      actual.loc);
            if (!needs_write && !isReadable(sym)) {
                fatal("argument '" + actual.name +
                          "' is not readable here",
                      actual.loc);
            }
            // A scalar name (a dimension symbol, or a scalar argument,
            // which may be bound to a constant) is no tensor either.
            if (sym.rank() == 0 && !formal.dims.empty()) {
                fatal(toString(formal.mod) + " '" + formal.name +
                          "' has rank " +
                          std::to_string(formal.dims.size()) +
                          ": pass a tensor by name, not the scalar '" +
                          actual.name + "'",
                      actual.loc);
            }
            if (sym.rank() != 0 &&
                sym.rank() != static_cast<int>(formal.dims.size())) {
                fatal("argument '" + formal.name + "' of '" + stmt.callee +
                          "' expects rank " +
                          std::to_string(formal.dims.size()) + ", got " +
                          dimsText(*sym.dims),
                      actual.loc);
            }
            if (needs_write)
                written.push_back(actual.slot);
        } else {
            // Non-reference actuals are constant expressions and may only
            // bind to param formals (e.g. the literal horizon in Fig. 4).
            if (formal.mod != Modifier::Param) {
                fatal("expression argument may only bind to a param "
                      "formal",
                      actual.loc);
            }
            // A constant is a scalar; a tensor formal takes a tensor,
            // passed by bare name.
            if (!formal.dims.empty()) {
                fatal("param '" + formal.name + "' has rank " +
                          std::to_string(formal.dims.size()) +
                          ": pass a tensor by name, not an expression",
                      actual.loc);
            }
            checkIndexExpr(actual, Arith::Const);
        }
    }
    for (const int slot : written)
        symbols_[slot].assigned = true;
}

void
ComponentChecker::checkExpr(const Expr &e)
{
    switch (e.kind) {
      case ExprKind::Number:
        return;
      case ExprKind::Ref: {
        e.slot = resolve(e.name, e.loc);
        const Symbol &sym = symbols_[e.slot];
        if (sym.kind == Symbol::Kind::Index) {
            if (!sym.bound) {
                fatal("index variable '" + e.name +
                          "' is not bound in this statement",
                      e.loc);
            }
            if (!e.args.empty())
                fatal("index variable '" + e.name +
                          "' cannot be subscripted",
                      e.loc);
            return;
        }
        if (!isReadable(sym))
            fatal("'" + e.name + "' is not readable here", e.loc);
        if (!e.args.empty() &&
            static_cast<int>(e.args.size()) != sym.rank()) {
            fatal("'" + e.name + "' has rank " + std::to_string(sym.rank()) +
                      " but is subscripted " + std::to_string(e.args.size()) +
                      " time(s)",
                  e.loc);
        }
        if (e.args.empty() && sym.rank() != 0) {
            fatal("tensor '" + e.name +
                      "' must be fully subscripted in an expression",
                  e.loc);
        }
        for (const auto &ix : e.args)
            checkIndexExpr(*ix, Arith::Index);
        return;
      }
      case ExprKind::Unary:
        checkExpr(*e.lhs);
        return;
      case ExprKind::Binary:
        checkExpr(*e.lhs);
        checkExpr(*e.rhs);
        return;
      case ExprKind::Ternary:
        checkExpr(*e.lhs);
        checkExpr(*e.rhs);
        checkExpr(*e.third);
        return;
      case ExprKind::Call: {
        if (!isBuiltinFunction(e.name)) {
            fatal("unknown function '" + e.name +
                      "' (components are instantiated as statements, not "
                      "called in expressions)",
                  e.loc);
        }
        const int arity = builtinArity(e.name);
        if (static_cast<int>(e.args.size()) != arity) {
            fatal("builtin '" + e.name + "' takes " +
                      std::to_string(arity) + " argument(s)",
                  e.loc);
        }
        for (const auto &a : e.args)
            checkExpr(*a);
        return;
      }
      case ExprKind::Reduce: {
        if (!isBuiltinReduction(e.name) && !prog_.findReduction(e.name)) {
            fatal("unknown reduction '" + e.name + "'", e.loc);
        }
        for (const auto &axis : e.axes) {
            axis.slot = resolve(axis.index, axis.loc);
            Symbol &sym = symbols_[axis.slot];
            if (sym.kind != Symbol::Kind::Index) {
                fatal("reduction axis '" + axis.index +
                          "' is not a declared index variable",
                      axis.loc);
            }
            if (sym.bound)
                fatal("axis '" + axis.index + "' already bound", axis.loc);
            sym.bound = true;
        }
        // Axis guards may reference any axis of this reduction.
        for (const auto &axis : e.axes) {
            if (axis.cond)
                checkIndexExpr(*axis.cond, Arith::Index);
        }
        checkExpr(*e.body);
        for (const auto &axis : e.axes)
            symbols_[axis.slot].bound = false;
        return;
      }
    }
    panic("unhandled ExprKind");
}

void
ComponentChecker::checkIndexExpr(const Expr &e, Arith mode)
{
    const bool constant = mode == Arith::Const;
    switch (e.kind) {
      case ExprKind::Number:
        if (!constant && !e.isIntLit && e.value != std::floor(e.value))
            fatal("non-integer literal in index arithmetic", e.loc);
        return;
      case ExprKind::Ref: {
        if (!e.args.empty()) {
            fatal(constant ? "'" + e.name + "' is not a compile-time constant"
                           : "subscripted reference in index arithmetic",
                  e.loc);
        }
        e.slot = resolve(e.name, e.loc);
        const Symbol &sym = symbols_[e.slot];
        if (sym.kind == Symbol::Kind::Index) {
            if (mode != Arith::Lhs && !sym.bound) {
                fatal("index variable '" + e.name +
                          "' is not bound in this context",
                      e.loc);
            }
            return;
        }
        if (sym.kind == Symbol::Kind::DimSym)
            return;
        if (sym.kind == Symbol::Kind::Arg && sym.mod == Modifier::Param &&
            sym.rank() == 0) {
            return;
        }
        fatal("index arithmetic may only use index variables, scalar "
              "params, dimension symbols, and constants ('" +
                  e.name + "' is none of these)",
              e.loc);
      }
      case ExprKind::Unary:
        checkIndexExpr(*e.lhs, mode);
        return;
      case ExprKind::Binary:
        checkIndexExpr(*e.lhs, mode);
        // Constants take arithmetic and '^'; subscripts every operator
        // but '^' (BinaryOp lists the comparisons and logic ops last).
        if (constant ? e.binaryOp >= BinaryOp::Lt
                     : e.binaryOp == BinaryOp::Pow) {
            fatal("operator '" + toString(e.binaryOp) + "' not allowed in " +
                      (constant ? "constant expression" : "index arithmetic"),
                  e.loc);
        }
        checkIndexExpr(*e.rhs, mode);
        return;
      case ExprKind::Ternary:
        checkIndexExpr(*e.lhs, mode);
        checkIndexExpr(*e.rhs, mode);
        checkIndexExpr(*e.third, mode);
        return;
      case ExprKind::Call:
      case ExprKind::Reduce:
        fatal(constant ? "calls are not allowed in constant expressions"
                       : "function calls are not allowed in index arithmetic",
              e.loc);
    }
    panic("unhandled ExprKind");
}

void
ComponentChecker::collectIndices(const Expr &e, std::vector<int> *out) const
{
    // checkIndexExpr() has admitted only literals, unsubscripted names
    // and unary/binary/ternary operators.
    if (e.kind == ExprKind::Ref && symbols_[e.slot].kind == Symbol::Kind::Index)
        out->push_back(e.slot);
    for (const Expr *child : {e.lhs.get(), e.rhs.get(), e.third.get()}) {
        if (child)
            collectIndices(*child, out);
    }
}

int
ComponentChecker::resolve(const std::string &name, SourceLoc loc) const
{
    const auto it = scope_.find(name);
    if (it == scope_.end()) {
        fatal("use of undeclared name '" + name + "' in component '" +
                  comp_.name + "'",
              loc);
    }
    return it->second;
}

bool
ComponentChecker::isReadable(const Symbol &sym) const
{
    if (sym.kind == Symbol::Kind::DimSym)
        return true;
    if (sym.kind == Symbol::Kind::Local)
        return sym.assigned;
    if (sym.kind == Symbol::Kind::Arg) {
        switch (sym.mod) {
          case Modifier::Input:
          case Modifier::State:
          case Modifier::Param:
            return true;
          case Modifier::Output:
            // Outputs become readable once the component has produced them
            // (pred in Fig. 4 is read back on the line after it is written).
            return sym.assigned;
        }
    }
    return false;
}

bool
ComponentChecker::isWritable(const Symbol &sym) const
{
    if (sym.kind == Symbol::Kind::Local)
        return true;
    if (sym.kind == Symbol::Kind::Arg)
        return sym.mod == Modifier::Output || sym.mod == Modifier::State;
    return false;
}

/** Detects recursive component instantiation via DFS over the call graph. */
class RecursionChecker
{
  public:
    explicit RecursionChecker(const Program &prog) : prog_(prog) {}

    void check()
    {
        for (const auto &comp : prog_.components)
            visit(comp);
    }

  private:
    void visit(const ComponentDecl &comp)
    {
        if (done_.count(comp.name))
            return;
        if (!onPath_.insert(comp.name).second) {
            fatal("recursive instantiation of component '" + comp.name +
                      "'",
                  comp.loc);
        }
        for (const auto &stmt : comp.body) {
            if (stmt->kind != StmtKind::Call)
                continue;
            if (const auto *callee = prog_.findComponent(stmt->callee))
                visit(*callee);
        }
        onPath_.erase(comp.name);
        done_.insert(comp.name);
    }

    const Program &prog_;
    std::set<std::string_view> onPath_;
    std::set<std::string_view> done_;
};

/** Validates a custom reduction body: pure scalar expression over (a, b). */
void
checkReduction(const ReductionDecl &red)
{
    struct Walker
    {
        const ReductionDecl &red;

        void walk(const Expr &e) const
        {
            switch (e.kind) {
              case ExprKind::Number:
                return;
              case ExprKind::Ref:
                if (!e.args.empty() ||
                    (e.name != red.paramA && e.name != red.paramB)) {
                    fatal("reduction body may only reference its two "
                          "parameters",
                          e.loc);
                }
                return;
              case ExprKind::Unary:
                walk(*e.lhs);
                return;
              case ExprKind::Binary:
                walk(*e.lhs);
                walk(*e.rhs);
                return;
              case ExprKind::Ternary:
                walk(*e.lhs);
                walk(*e.rhs);
                walk(*e.third);
                return;
              case ExprKind::Call:
                if (!isBuiltinFunction(e.name) ||
                    static_cast<int>(e.args.size()) !=
                        builtinArity(e.name)) {
                    fatal("invalid function in reduction body", e.loc);
                }
                for (const auto &a : e.args)
                    walk(*a);
                return;
              case ExprKind::Reduce:
                fatal("nested reductions are not allowed in reduction "
                      "bodies",
                      e.loc);
            }
            panic("unhandled ExprKind");
        }
    };
    Walker{red}.walk(*red.body);
}

} // namespace

void
analyze(const Program &prog, const std::string &entry)
{
    obs::Span span("pmlang:sema", "frontend");
    span.arg("components", static_cast<int64_t>(prog.components.size()));
    std::set<std::string_view> names;
    for (const auto &comp : prog.components) {
        if (!names.insert(comp.name).second)
            fatal("duplicate component '" + comp.name + "'", comp.loc);
        if (isBuiltinFunction(comp.name) || isBuiltinReduction(comp.name)) {
            fatal("component '" + comp.name + "' shadows a builtin",
                  comp.loc);
        }
    }
    std::set<std::string_view> rednames;
    for (const auto &red : prog.reductions) {
        if (!rednames.insert(red.name).second)
            fatal("duplicate reduction '" + red.name + "'", red.loc);
        checkReduction(red);
    }
    if (!prog.findComponent(entry))
        fatal("entry component '" + entry + "' not found");

    RecursionChecker(prog).check();
    for (const auto &comp : prog.components)
        ComponentChecker(prog, comp).check();
}

} // namespace polymath::lang
