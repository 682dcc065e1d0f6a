#include "core/codegen_bsv.hpp"

#include "common/logging.hpp"
#include "common/strutil.hpp"
#include "core/axioms.hpp"
#include "core/inlining.hpp"
#include "core/schedule.hpp"

namespace bcl {

namespace {

std::string
bsvIdent(const std::string &path)
{
    std::string out;
    for (char c : path)
        out += (std::isalnum(static_cast<unsigned char>(c)) ? c : '_');
    return out;
}

std::string
bsvType(const TypePtr &t)
{
    if (!t)
        return "void";
    if (t->isBool())
        return "Bool";
    if (t->isBits())
        return "Bit#(" + std::to_string(t->width()) + ")";
    if (t->isVec()) {
        return "Vector#(" + std::to_string(t->vecSize()) + ", " +
               bsvType(t->elem()) + ")";
    }
    if (t->isStruct())
        return t->name().empty() ? "StructT" : t->name();
    return "void";
}

std::string bsvExpr(const ElabProgram &prog, const ExprPtr &e);

std::string
bsvArgs(const ElabProgram &prog, const std::vector<ExprPtr> &args)
{
    std::vector<std::string> parts;
    for (const auto &a : args)
        parts.push_back(bsvExpr(prog, a));
    return join(parts, ", ");
}

std::string
bsvExpr(const ElabProgram &prog, const ExprPtr &e)
{
    switch (e->kind) {
      case ExprKind::Const: {
        const Value &v = e->constVal;
        if (v.isBool())
            return v.asBool() ? "True" : "False";
        if (v.isBits())
            return std::to_string(v.asInt());
        return "/*aggregate literal*/ ?";
      }
      case ExprKind::Var:
        return bsvIdent(e->name);
      case ExprKind::Prim: {
        switch (e->op) {
          case PrimOp::Index:
            return bsvExpr(prog, e->args[0]) + "[" +
                   bsvExpr(prog, e->args[1]) + "]";
          case PrimOp::Field:
            return bsvExpr(prog, e->args[0]) + "." + e->strArg;
          case PrimOp::MakeVec: {
            std::vector<std::string> parts;
            for (const auto &a : e->args)
                parts.push_back(bsvExpr(prog, a));
            return "vec(" + join(parts, ", ") + ")";
          }
          case PrimOp::MakeStruct: {
            std::vector<std::string> names =
                splitString(e->strArg, ',');
            std::vector<std::string> parts;
            for (size_t i = 0; i < e->args.size(); i++) {
                parts.push_back(names[i] + ": " +
                                bsvExpr(prog, e->args[i]));
            }
            return "StructT { " + join(parts, ", ") + " }";
          }
          case PrimOp::MulFx:
            return "fxMul(" + bsvArgs(prog, e->args) + ")";
          case PrimOp::DivFx:
            return "fxDiv(" + bsvArgs(prog, e->args) + ")";
          case PrimOp::SqrtFx:
            return "fxSqrt(" + bsvArgs(prog, e->args) + ")";
          case PrimOp::BitRev:
            return "reverseBits(" + bsvExpr(prog, e->args[0]) + ")";
          case PrimOp::Update: {
            return "update(" + bsvArgs(prog, e->args) + ")";
          }
          case PrimOp::SetField: {
            return "setField_" + e->strArg + "(" +
                   bsvArgs(prog, e->args) + ")";
          }
          case PrimOp::Not:
          case PrimOp::Neg:
            return std::string(e->op == PrimOp::Not ? "!" : "-") +
                   bsvExpr(prog, e->args[0]);
          default:
            return "(" + bsvExpr(prog, e->args[0]) + " " +
                   primOpName(e->op) + " " +
                   bsvExpr(prog, e->args[1]) + ")";
        }
      }
      case ExprKind::Cond:
        return std::string("(") + bsvExpr(prog, e->args[0]) + " ? " +
               bsvExpr(prog, e->args[1]) + " : " +
               bsvExpr(prog, e->args[2]) + ")";
      case ExprKind::When:
        return "when(" + bsvExpr(prog, e->args[1]) + ", " +
               bsvExpr(prog, e->args[0]) + ")";
      case ExprKind::Let:
        // BSV has let bindings in action context; in expression
        // context we inline (printed form only).
        return "(let " + bsvIdent(e->name) + " = " +
               bsvExpr(prog, e->args[0]) + " in " +
               bsvExpr(prog, e->args[1]) + ")";
      case ExprKind::CallV: {
        const std::string inst =
            e->isPrim ? bsvIdent(prog.prims[e->inst].path)
                      : bsvIdent(e->name);
        if (e->isPrim && e->meth == "_read")
            return inst;  // register read sugar in BSV
        std::string meth = e->meth == "read" ? "sub" : e->meth;
        return inst + "." + meth + "(" + bsvArgs(prog, e->args) + ")";
      }
    }
    return "?";
}

void
bsvAction(const ElabProgram &prog, const ActPtr &a, IndentWriter &w)
{
    switch (a->kind) {
      case ActKind::NoOp:
        w.writeLine("noAction;");
        return;
      case ActKind::Par:
        // BSV action blocks are parallel by construction.
        for (const auto &s : a->subs)
            bsvAction(prog, s, w);
        return;
      case ActKind::If:
        w.openBlock("if (" + bsvExpr(prog, a->exprs[0]) + ") begin");
        bsvAction(prog, a->subs[0], w);
        w.closeBlock("end");
        return;
      case ActKind::When:
        w.writeLine("when (" + bsvExpr(prog, a->exprs[0]) + ");");
        bsvAction(prog, a->subs[0], w);
        return;
      case ActKind::Let:
        w.writeLine("let " + bsvIdent(a->name) + " = " +
                    bsvExpr(prog, a->exprs[0]) + ";");
        bsvAction(prog, a->subs[0], w);
        return;
      case ActKind::CallA: {
        const std::string inst =
            a->isPrim ? bsvIdent(prog.prims[a->inst].path)
                      : bsvIdent(a->name);
        if (a->isPrim && a->meth == "_write") {
            w.writeLine(inst + " <= " + bsvExpr(prog, a->exprs[0]) +
                        ";");
            return;
        }
        std::string meth = a->meth == "write" ? "upd" : a->meth;
        w.writeLine(inst + "." + meth + "(" +
                    bsvArgs(prog, a->exprs) + ");");
        return;
      }
      case ActKind::Seq:
      case ActKind::Loop:
      case ActKind::LocalGuard:
        fatal("BSV generation: construct not implementable in "
              "hardware (validated earlier)");
    }
}

} // namespace

std::string
generateBsv(const ElabProgram &prog, const std::string &module_name)
{
    validateForHardware(prog);
    ElabProgram inlined = inlineAllMethods(prog);

    IndentWriter w;
    w.writeLine("// Generated by the BCL compiler (hardware "
                "partition). Feed to bsc.");
    w.writeLine("import FIFO::*;");
    w.writeLine("import Vector::*;");
    w.writeLine("import BRAM::*;");
    w.blank();
    w.openBlock("module mk" + module_name + " (Empty);");

    w.writeLine("// State");
    for (const auto &p : inlined.prims) {
        std::string name = bsvIdent(p.path);
        if (p.kind == "Reg") {
            w.writeLine("Reg#(" + bsvType(p.type) + ") " + name +
                        " <- mkReg(unpack(0));");
        } else if (p.kind == "Fifo") {
            w.writeLine("FIFO#(" + bsvType(p.type) + ") " + name +
                        " <- mkSizedFIFO(" +
                        std::to_string(p.capacity) + ");");
        } else if (p.kind == "SyncTx" || p.kind == "SyncRx") {
            w.writeLine("// synchronizer half on channel " +
                        std::to_string(p.channelId));
            w.writeLine("FIFO#(" + bsvType(p.type) + ") " + name +
                        " <- mkLIBDNFifo(" +
                        std::to_string(p.capacity) + ", " +
                        std::to_string(p.channelId) + ");");
        } else if (p.kind == "Bram") {
            w.writeLine("RegFile#(Bit#(32), " + bsvType(p.type) +
                        ") " + name + " <- mkRegFileFull();");
        } else {
            w.writeLine("// device " + p.kind + " " + name);
        }
    }
    w.blank();

    for (size_t i = 0; i < inlined.rules.size(); i++) {
        ElabRule lifted = liftRule(inlined, static_cast<int>(i));
        // Canonical form: body when guard.
        ExprPtr guard = boolE(true);
        ActPtr body = lifted.body;
        if (body->kind == ActKind::When) {
            guard = body->exprs[0];
            body = body->subs[0];
        }
        std::string g = isTrueConst(guard)
                            ? "True"
                            : bsvExpr(inlined, guard);
        w.openBlock("rule " + bsvIdent(lifted.name) + " (" + g + ");");
        bsvAction(inlined, body, w);
        w.closeBlock("endrule");
        w.blank();
    }

    w.closeBlock("endmodule");
    return w.str();
}

} // namespace bcl
