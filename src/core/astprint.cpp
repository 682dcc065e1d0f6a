#include "core/astprint.hpp"

#include "common/logging.hpp"
#include "common/strutil.hpp"

namespace bcl {

namespace {

std::string
printValueLit(const Value &v)
{
    switch (v.kind()) {
      case ValueKind::Bool:
        return v.asBool() ? "true" : "false";
      case ValueKind::Bits:
        return std::to_string(v.asInt()) + ":" +
               std::to_string(v.width());
      case ValueKind::Vec: {
        std::vector<std::string> parts;
        for (const auto &e : v.elems())
            parts.push_back(printValueLit(e));
        // Built with += (not operator+ chains): GCC 12's -Wrestrict
        // false-positives on `"lit" + std::string&&` here (PR105651).
        std::string out = "[";
        out += join(parts, ", ");
        out += "]";
        return out;
      }
      case ValueKind::Struct: {
        std::vector<std::string> parts;
        for (size_t i = 0; i < v.size(); i++)
            parts.push_back(v.fieldName(i) + ": " +
                            printValueLit(v.fieldAt(i)));
        std::string out = "{";
        out += join(parts, ", ");
        out += "}";
        return out;
      }
      case ValueKind::Invalid:
        return "<invalid>";
    }
    return "?";
}

bool
isInfix(PrimOp op)
{
    switch (op) {
      case PrimOp::Add:
      case PrimOp::Sub:
      case PrimOp::Mul:
      case PrimOp::Shl:
      case PrimOp::LShr:
      case PrimOp::AShr:
      case PrimOp::And:
      case PrimOp::Or:
      case PrimOp::Xor:
      case PrimOp::Eq:
      case PrimOp::Ne:
      case PrimOp::Lt:
      case PrimOp::Le:
      case PrimOp::Gt:
      case PrimOp::Ge:
        return true;
      default:
        return false;
    }
}

} // namespace

std::string
printExpr(const ExprPtr &e)
{
    if (!e)
        return "<null>";
    switch (e->kind) {
      case ExprKind::Const:
        return printValueLit(e->constVal);
      case ExprKind::Var:
        return e->name;
      case ExprKind::Prim: {
        if (isInfix(e->op)) {
            return std::string("(") + printExpr(e->args[0]) + " " +
                   primOpName(e->op) + " " + printExpr(e->args[1]) +
                   ")";
        }
        std::vector<std::string> parts;
        for (const auto &a : e->args)
            parts.push_back(printExpr(a));
        std::string extra;
        if (e->op == PrimOp::MulFx || e->op == PrimOp::DivFx ||
            e->op == PrimOp::SqrtFx || e->op == PrimOp::BitRev) {
            extra = std::string("#") + std::to_string(e->imm);
        }
        if (e->op == PrimOp::Field || e->op == PrimOp::SetField ||
            e->op == PrimOp::MakeStruct) {
            extra = "#" + e->strArg;
        }
        return std::string(primOpName(e->op)) + extra + "(" +
               join(parts, ", ") + ")";
      }
      case ExprKind::Cond:
        return std::string("(") + printExpr(e->args[0]) + " ? " +
               printExpr(e->args[1]) + " : " + printExpr(e->args[2]) +
               ")";
      case ExprKind::When:
        return std::string("(") + printExpr(e->args[0]) + " when " +
               printExpr(e->args[1]) + ")";
      case ExprKind::Let:
        return "(" + e->name + " = " + printExpr(e->args[0]) + " in " +
               printExpr(e->args[1]) + ")";
      case ExprKind::CallV: {
        std::vector<std::string> parts;
        for (const auto &a : e->args)
            parts.push_back(printExpr(a));
        if (e->meth == "_read" && parts.empty())
            return e->name;  // register-read sugar
        return e->name + "." + e->meth + "(" + join(parts, ", ") + ")";
      }
    }
    return "<?>";
}

std::string
printAction(const ActPtr &a)
{
    if (!a)
        return "<null>";
    switch (a->kind) {
      case ActKind::NoOp:
        return "noAction";
      case ActKind::Par: {
        std::vector<std::string> parts;
        for (const auto &s : a->subs)
            parts.push_back(printAction(s));
        return std::string("(") + join(parts, " | ") + ")";
      }
      case ActKind::Seq: {
        std::vector<std::string> parts;
        for (const auto &s : a->subs)
            parts.push_back(printAction(s));
        return std::string("(") + join(parts, " ; ") + ")";
      }
      case ActKind::If:
        return "(if " + printExpr(a->exprs[0]) + " then " +
               printAction(a->subs[0]) + ")";
      case ActKind::When:
        return std::string("(") + printAction(a->subs[0]) + " when " +
               printExpr(a->exprs[0]) + ")";
      case ActKind::Let:
        return "(" + a->name + " = " + printExpr(a->exprs[0]) +
               " in " + printAction(a->subs[0]) + ")";
      case ActKind::Loop:
        return "(loop " + printExpr(a->exprs[0]) + " " +
               printAction(a->subs[0]) + ")";
      case ActKind::LocalGuard:
        return "localGuard(" + printAction(a->subs[0]) + ")";
      case ActKind::CallA: {
        std::vector<std::string> parts;
        for (const auto &e : a->exprs)
            parts.push_back(printExpr(e));
        if (a->meth == "_write" && parts.size() == 1)
            return a->name + " := " + parts[0];  // register-write sugar
        return a->name + "." + a->meth + "(" + join(parts, ", ") + ")";
      }
    }
    return "<?>";
}

std::string
printType(const TypePtr &t)
{
    if (!t)
        return "<null>";
    return t->str();
}

namespace {

std::string
printInstArg(const InstArg &a)
{
    switch (a.kind) {
      case InstArg::Kind::Val:
        return printValueLit(a.v);
      case InstArg::Kind::Type:
        return printType(a.t);
      case InstArg::Kind::Str:
        return "@" + a.s;
      case InstArg::Kind::Int:
        return std::to_string(a.i);
    }
    return "?";
}

} // namespace

std::string
printModule(const ModuleDef &m)
{
    std::string out = "module " + m.name + "\n";
    for (const auto &inst : m.insts) {
        std::vector<std::string> parts;
        for (const auto &a : inst.args)
            parts.push_back(printInstArg(a));
        out += "  inst " + inst.name + " = " + inst.moduleName + "(" +
               join(parts, ", ") + ")\n";
    }
    for (const auto &r : m.rules)
        out += "  rule " + r.name + " = " + printAction(r.body) + "\n";
    for (const auto &meth : m.methods) {
        std::vector<std::string> parts;
        for (const auto &p : meth.params)
            parts.push_back(p.name + ": " + printType(p.type));
        std::string dom =
            meth.domain.empty() ? "" : (" (" + meth.domain + ")");
        if (meth.isAction) {
            out += "  amethod" + dom + " " + meth.name + "(" +
                   join(parts, ", ") + ") = " + printAction(meth.body) +
                   "\n";
        } else {
            out += "  vmethod" + dom + " " + meth.name + "(" +
                   join(parts, ", ") + ") : " + printType(meth.retType) +
                   " = " + printExpr(meth.value) + "\n";
        }
    }
    out += "endmodule\n";
    return out;
}

std::string
printProgram(const Program &p)
{
    std::string out;
    for (const auto &m : p.modules) {
        out += printModule(m);
        out += "\n";
    }
    out += "root " + p.root + "\n";
    return out;
}

} // namespace bcl
