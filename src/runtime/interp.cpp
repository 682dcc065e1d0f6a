#include "runtime/interp.hpp"

#include <memory>

#include "common/logging.hpp"
#include "fixpt/fixpt.hpp"
#include "runtime/compile.hpp"
#include "runtime/primitives.hpp"

namespace bcl {

namespace {

/**
 * Activation record for one rule/method execution: a flat vector of
 * values indexed by the slot numbers the compiler assigned. Let pushes
 * always land on the slot recorded at compile time because every
 * evaluation path to a node runs through the same static chain of
 * binders.
 */
class Env
{
  public:
    size_t mark() const { return slots.size(); }

    void
    push(Value v)
    {
        slots.push_back(std::move(v));
    }

    void
    popTo(size_t m)
    {
        slots.resize(m);
    }

    const Value &
    at(size_t slot) const
    {
        return slots[slot];
    }

  private:
    std::vector<Value> slots;
};

} // namespace

/**
 * One rule/method execution; holds the cost hooks. Every eval
 * function returns false on guard failure, and its caller returns
 * false right after that child, so nothing past the failing node is
 * evaluated or charged (see interp.hpp).
 */
class InterpExec
{
  public:
    InterpExec(Interp &in, CompiledProgram &cp)
        : I(in), prog(in.prog), P(cp)
    {
    }

    void
    charge(std::uint64_t units)
    {
        I.stats_.work += units;
        localWork += units;
    }

    /** Evaluate expression @p idx into @p out; false on guard failure. */
    [[nodiscard]] bool
    evalExpr(std::int32_t idx, Env &env, TxnFrame &frame, Value &out)
    {
        charge(I.costs_.perNode);
        const CExpr &e = P.exprs[static_cast<size_t>(idx)];
        switch (e.kind) {
          case ExprKind::Const:
            out = e.constVal;
            return true;
          case ExprKind::Var:
            out = env.at(static_cast<size_t>(e.slot));
            return true;
          case ExprKind::Prim:
            return evalPrimOp(e, env, frame, out);
          case ExprKind::Cond: {
            Value p;
            if (!evalExpr(kid(e, 0), env, frame, p))
                return false;
            return evalExpr(kid(e, p.asBool() ? 1 : 2), env, frame, out);
          }
          case ExprKind::When: {
            // Guard evaluated first: an unready guard poisons the
            // whole expression (axioms A.6-A.8 lift it outward).
            Value g;
            if (!evalExpr(kid(e, 1), env, frame, g) || !g.asBool())
                return false;
            return evalExpr(kid(e, 0), env, frame, out);
          }
          case ExprKind::Let: {
            Value bound;
            if (!evalExpr(kid(e, 0), env, frame, bound))
                return false;
            size_t m = env.mark();
            env.push(std::move(bound));
            bool ok = evalExpr(kid(e, 1), env, frame, out);
            env.popTo(m);
            return ok;
          }
          case ExprKind::CallV:
            return evalCallV(e, env, frame, out);
        }
        panic("unreachable expression kind");
    }

    /** Execute action @p idx into @p frame; false on guard failure. */
    [[nodiscard]] bool
    evalAction(std::int32_t idx, Env &env, TxnFrame &frame)
    {
        charge(I.costs_.perNode);
        const CAct &a = P.acts[static_cast<size_t>(idx)];
        switch (a.kind) {
          case ActKind::NoOp:
            return true;
          case ActKind::Par:
            return evalPar(a, env, frame);
          case ActKind::Seq:
            for (std::uint32_t i = 0; i < a.nsubs; i++) {
                if (!evalAction(sub(a, i), env, frame))
                    return false;
            }
            return true;
          case ActKind::If: {
            Value p;
            if (!evalExpr(ex(a, 0), env, frame, p))
                return false;
            return !p.asBool() || evalAction(sub(a, 0), env, frame);
          }
          case ActKind::When: {
            Value g;
            if (!evalExpr(ex(a, 0), env, frame, g) || !g.asBool())
                return false;
            return evalAction(sub(a, 0), env, frame);
          }
          case ActKind::Let: {
            Value bound;
            if (!evalExpr(ex(a, 0), env, frame, bound))
                return false;
            size_t m = env.mark();
            env.push(std::move(bound));
            bool ok = evalAction(sub(a, 0), env, frame);
            env.popTo(m);
            return ok;
          }
          case ActKind::Loop: {
            // Dynamic loops are bounded only by their condition; a
            // runaway loop is a user bug, reported once the budget
            // (CostModel::loopIterBudget body executions) is spent
            // rather than hanging.
            for (std::uint64_t iters = 0;; ++iters) {
                Value c;
                if (!evalExpr(ex(a, 0), env, frame, c))
                    return false;
                if (!c.asBool())
                    return true;
                if (iters >= I.costs_.loopIterBudget)
                    fatal("loop exceeded iteration budget (runaway "
                          "loop in rule?)");
                if (!evalAction(sub(a, 0), env, frame))
                    return false;
            }
          }
          case ActKind::LocalGuard: {
            TxnFrame child(frame);
            I.stats_.shadowCopies++;
            if (!evalAction(sub(a, 0), env, child)) {
                // Body becomes noAction; its writes are discarded.
                charge(I.costs_.perRollback);
                return true;
            }
            child.commit();
            return true;
          }
          case ActKind::CallA:
            return evalCallA(a, env, frame);
        }
        panic("unreachable action kind");
    }

    /**
     * Root entry for Interp::callActionMethod: equivalent to calling
     * through a transient CallA node whose arguments are constants.
     * Charges what the seed interpreter charged for that transient
     * tree: one node for the call plus one per constant argument.
     */
    [[nodiscard]] bool
    callActionRoot(int meth_id, const std::vector<Value> &args,
                   TxnFrame &frame)
    {
        const ElabMethod &m = prog.methods[static_cast<size_t>(
            meth_id)];
        charge(I.costs_.perNode *
               (1 + static_cast<std::uint64_t>(args.size())));
        if (args.size() != m.params.size()) {
            panic("method " + m.name + " called with " +
                  std::to_string(args.size()) + " args, expects " +
                  std::to_string(m.params.size()));
        }
        std::int32_t root = P.methodRoot(prog, meth_id);
        Env callee;
        for (const Value &v : args)
            callee.push(v);
        return evalAction(root, callee, frame);
    }

    std::uint64_t localWork = 0;

  private:
    Interp &I;
    const ElabProgram &prog;
    CompiledProgram &P;

    std::int32_t
    kid(const CExpr &e, std::uint32_t i) const
    {
        return P.kidPool[e.kids + i];
    }

    std::int32_t
    ex(const CAct &a, std::uint32_t i) const
    {
        return P.kidPool[a.exprs + i];
    }

    std::int32_t
    sub(const CAct &a, std::uint32_t i) const
    {
        return P.kidPool[a.subs + i];
    }

    /** Parallel composition; stops at the first failing branch. */
    [[nodiscard]] bool
    evalPar(const CAct &a, Env &env, TxnFrame &frame)
    {
        // Every branch observes the same pre-state; writes are
        // isolated into sibling frames and merged afterwards.
        std::vector<std::unique_ptr<TxnFrame>> frames;
        frames.reserve(a.nsubs);
        for (std::uint32_t i = 0; i < a.nsubs; i++)
            frames.push_back(std::make_unique<TxnFrame>(frame));
        I.stats_.shadowCopies += a.nsubs;
        for (std::uint32_t i = 0; i < a.nsubs; i++) {
            if (!evalAction(sub(a, i), env, *frames[i]))
                return false;
        }
        std::vector<TxnFrame *> ptrs;
        ptrs.reserve(frames.size());
        for (auto &f : frames)
            ptrs.push_back(f.get());
        TxnFrame::mergeSiblings(ptrs, prog.prims);
        return true;
    }

    /** Evaluate the @p n argument expressions at kidPool offset
     *  @p first, in order, into @p vals. */
    [[nodiscard]] bool
    evalArgs(std::uint32_t first, std::uint32_t n, Env &env,
             TxnFrame &frame, std::vector<Value> &vals)
    {
        vals.reserve(n);
        for (std::uint32_t i = 0; i < n; i++) {
            Value v;
            if (!evalExpr(P.kidPool[first + i], env, frame, v))
                return false;
            vals.push_back(std::move(v));
        }
        return true;
    }

    [[nodiscard]] bool
    evalCallV(const CExpr &e, Env &env, TxnFrame &frame, Value &out)
    {
        std::vector<Value> args;
        if (!evalArgs(e.kids, e.nkids, env, frame, args))
            return false;
        if (e.isPrim) {
            const ElabPrim &prim = prog.prims[static_cast<size_t>(
                e.inst)];
            charge(I.costs_.perPrimCall);
            PrimRead r = readPrim(prim, frame.get(e.inst), e.pmeth,
                                  args);
            if (!r.ok)
                return false;
            // Frame-sized values cost word moves to copy out.
            chargeValueMove(r.val);
            out = std::move(r.val);
            return true;
        }
        const ElabMethod &m = prog.methods[static_cast<size_t>(
            e.methIdx)];
        std::int32_t root = P.methods[static_cast<size_t>(e.methIdx)]
                                .root;
        Env callee;
        bindParams(m, args, callee);
        return evalExpr(root, callee, frame, out);
    }

    [[nodiscard]] bool
    evalCallA(const CAct &a, Env &env, TxnFrame &frame)
    {
        std::vector<Value> args;
        if (!evalArgs(a.exprs, a.nexprs, env, frame, args))
            return false;
        if (a.isPrim) {
            const ElabPrim &prim = prog.prims[static_cast<size_t>(
                a.inst)];
            charge(I.costs_.perPrimCall);
            // The change-log shadow of this primitive; modeled as one
            // snapshot (the generated code's commit granularity) even
            // though the copy-on-write store shares the payload.
            PrimState &shadow = frame.getForWrite(a.inst);
            I.stats_.shadowCopies++;
            if (!writePrim(prim, shadow, a.pmeth, args))
                return false;
            if (!args.empty())
                chargeValueMove(args[0]);
            // Crossing the partition boundary costs driver work on
            // the software side (marshaling descriptors, cache
            // maintenance); hardware partitions ignore work counts.
            if (a.chargeSync)
                charge(I.costs_.perSyncMessage);
            return true;
        }
        const ElabMethod &m = prog.methods[static_cast<size_t>(
            a.methIdx)];
        std::int32_t root = P.methods[static_cast<size_t>(a.methIdx)]
                                .root;
        Env callee;
        bindParams(m, args, callee);
        return evalAction(root, callee, frame);
    }

    void
    bindParams(const ElabMethod &m, std::vector<Value> &args, Env &env)
    {
        if (args.size() != m.params.size()) {
            panic("method " + m.name + " called with " +
                  std::to_string(args.size()) + " args, expects " +
                  std::to_string(m.params.size()));
        }
        for (auto &arg : args)
            env.push(std::move(arg));
    }

    void
    chargeValueMove(const Value &v)
    {
        int words = (v.flatWidth() + 31) / 32;
        if (words > 1)
            charge(I.costs_.perWordMove *
                   static_cast<std::uint64_t>(words));
    }

    /** Operands are evaluated left to right; the first guard failure
     *  abandons the op before its own cost is charged. */
    [[nodiscard]] bool
    evalPrimOp(const CExpr &e, Env &env, TxnFrame &frame, Value &out)
    {
        auto ev = [&](std::uint32_t i, Value &v) {
            return evalExpr(kid(e, i), env, frame, v);
        };

        switch (e.op) {
          case PrimOp::Add:
          case PrimOp::Sub:
          case PrimOp::Mul:
          case PrimOp::MulFx:
          case PrimOp::DivFx:
          case PrimOp::Shl:
          case PrimOp::LShr:
          case PrimOp::AShr:
          case PrimOp::And:
          case PrimOp::Or:
          case PrimOp::Xor: {
            Value a, b;
            if (!ev(0, a) || !ev(1, b))
                return false;
            out = evalBinary(e, a, b);
            return true;
          }
          case PrimOp::SqrtFx: {
            Value a;
            if (!ev(0, a))
                return false;
            charge(I.costs_.perMul * 5);  // iterative root unit
            std::int64_t x = a.asInt();
            if (x < 0)
                x = 0;
            std::uint64_t wide = static_cast<std::uint64_t>(x)
                                 << e.imm;
            out = Value::makeInt(a.width(),
                                 static_cast<std::int64_t>(
                                     isqrt64(wide)));
            return true;
          }
          case PrimOp::Neg: {
            Value a;
            if (!ev(0, a))
                return false;
            charge(I.costs_.perArith);
            out = Value::makeInt(a.width(), -a.asInt());
            return true;
          }
          case PrimOp::Not: {
            Value a;
            if (!ev(0, a))
                return false;
            charge(I.costs_.perArith);
            out = a.isBool() ? Value::makeBool(!a.asBool())
                             : Value::makeBits(a.width(), ~a.asUInt());
            return true;
          }
          case PrimOp::Eq:
          case PrimOp::Ne: {
            Value a, b;
            if (!ev(0, a) || !ev(1, b))
                return false;
            charge(I.costs_.perArith);
            bool eq = a == b;
            out = Value::makeBool(e.op == PrimOp::Eq ? eq : !eq);
            return true;
          }
          case PrimOp::Lt:
          case PrimOp::Le:
          case PrimOp::Gt:
          case PrimOp::Ge: {
            Value a, b;
            if (!ev(0, a) || !ev(1, b))
                return false;
            charge(I.costs_.perArith);
            std::int64_t x = a.asInt(), y = b.asInt();
            bool r = false;
            switch (e.op) {
              case PrimOp::Lt: r = x < y; break;
              case PrimOp::Le: r = x <= y; break;
              case PrimOp::Gt: r = x > y; break;
              case PrimOp::Ge: r = x >= y; break;
              default: break;
            }
            out = Value::makeBool(r);
            return true;
          }
          case PrimOp::Index: {
            Value vec, idx;
            if (!ev(0, vec) || !ev(1, idx))
                return false;
            charge(I.costs_.perArith);
            out = vec.at(idx.asUInt());
            return true;
          }
          case PrimOp::Update: {
            Value vec, idx, val;
            if (!ev(0, vec) || !ev(1, idx) || !ev(2, val))
                return false;
            charge(I.costs_.perArith * 2);
            out = std::move(vec).withElem(idx.asUInt(), std::move(val));
            return true;
          }
          case PrimOp::Field: {
            Value s;
            if (!ev(0, s))
                return false;
            charge(I.costs_.perArith);
            const Value *f = s.tryFieldById(e.fieldId);
            if (!f) {
                panic("struct has no field '" + *e.name +
                      "': " + s.str());
            }
            out = *f;
            return true;
          }
          case PrimOp::SetField: {
            Value s, val;
            if (!ev(0, s) || !ev(1, val))
                return false;
            charge(I.costs_.perArith);
            size_t i = s.shape()->indexOf(e.fieldId);
            if (i == StructShape::npos) {
                panic("withField: no field '" + *e.name + "' in " +
                      s.str());
            }
            out = std::move(s).withFieldAt(i, std::move(val));
            return true;
          }
          case PrimOp::MakeVec: {
            std::vector<Value> elems;
            if (!evalArgs(e.kids, e.nkids, env, frame, elems))
                return false;
            charge(I.costs_.perWordMove * e.nkids);
            out = Value::makeVec(std::move(elems));
            return true;
          }
          case PrimOp::MakeStruct: {
            std::vector<Value> vals;
            if (!evalArgs(e.kids, e.nkids, env, frame, vals))
                return false;
            charge(I.costs_.perArith * e.nkids);
            out = Value::makeStructShaped(e.shape, std::move(vals));
            return true;
          }
          case PrimOp::BitRev: {
            Value a;
            if (!ev(0, a))
                return false;
            charge(I.costs_.perArith * 2);
            std::uint64_t in = a.asUInt(), rev = 0;
            for (int i = 0; i < e.imm; i++) {
                rev <<= 1;
                rev |= (in >> i) & 1;
            }
            out = Value::makeBits(a.width(), rev);
            return true;
          }
        }
        panic("unreachable prim op");
    }

    Value
    evalBinary(const CExpr &e, const Value &a, const Value &b)
    {
        if (a.isBool() || b.isBool()) {
            // Logical forms on Bool operands.
            charge(I.costs_.perArith);
            bool x = a.asBool(), y = b.asBool();
            switch (e.op) {
              case PrimOp::And: return Value::makeBool(x && y);
              case PrimOp::Or: return Value::makeBool(x || y);
              case PrimOp::Xor: return Value::makeBool(x != y);
              default:
                panic("operator " + std::string(primOpName(e.op)) +
                      " on Bool operands");
            }
        }
        int w = a.width();
        std::int64_t x = a.asInt(), y = b.asInt();
        switch (e.op) {
          case PrimOp::Add:
            charge(I.costs_.perArith);
            return Value::makeInt(w, x + y);
          case PrimOp::Sub:
            charge(I.costs_.perArith);
            return Value::makeInt(w, x - y);
          case PrimOp::Mul:
            charge(I.costs_.perMul);
            return Value::makeInt(w, x * y);
          case PrimOp::MulFx: {
            charge(I.costs_.perMul + I.costs_.perArith);
            __int128 prod = static_cast<__int128>(x) *
                            static_cast<__int128>(y);
            return Value::makeInt(
                w, static_cast<std::int64_t>(prod >> e.imm));
          }
          case PrimOp::DivFx: {
            charge(I.costs_.perMul * 3);  // divider unit
            if (y == 0)
                return Value::makeInt(w, 0);
            __int128 num = static_cast<__int128>(x) << e.imm;
            return Value::makeInt(
                w, static_cast<std::int64_t>(num / y));
          }
          case PrimOp::Shl:
            charge(I.costs_.perArith);
            return Value::makeBits(
                w, b.asUInt() >= 64 ? 0 : a.asUInt() << b.asUInt());
          case PrimOp::LShr:
            charge(I.costs_.perArith);
            return Value::makeBits(
                w, b.asUInt() >= 64 ? 0 : a.asUInt() >> b.asUInt());
          case PrimOp::AShr:
            charge(I.costs_.perArith);
            return Value::makeInt(
                w, x >> (b.asUInt() >= 63 ? 63 : b.asUInt()));
          case PrimOp::And:
            charge(I.costs_.perArith);
            return Value::makeBits(w, a.asUInt() & b.asUInt());
          case PrimOp::Or:
            charge(I.costs_.perArith);
            return Value::makeBits(w, a.asUInt() | b.asUInt());
          case PrimOp::Xor:
            charge(I.costs_.perArith);
            return Value::makeBits(w, a.asUInt() ^ b.asUInt());
          default:
            panic("unreachable binary op");
        }
    }
};

Interp::Interp(const ElabProgram &program, Store &store)
    : prog(program), store_(store),
      compiled_(std::make_unique<CompiledProgram>())
{
}

Interp::~Interp() = default;

bool
Interp::fireRule(int rule_id)
{
    if (rule_id < 0 || static_cast<size_t>(rule_id) >= prog.rules.size())
        panic("fireRule: bad rule id " + std::to_string(rule_id));
    std::int32_t root = compiled_->ruleRoot(prog, rule_id);
    stats_.rulesAttempted++;

    TxnFrame frame(store_);
    InterpExec exec(*this, *compiled_);
    Env env;
    if (!exec.evalAction(root, env, frame)) {
        stats_.guardFails++;
        stats_.wastedWork += exec.localWork;
        stats_.work += costs_.perRollback;
        return false;
    }
    stats_.work += costs_.perCommitEntry * frame.writeCount();
    frame.commit();
    stats_.rulesFired++;
    stats_.commits++;
    return true;
}

bool
Interp::callActionMethod(int meth_id, const std::vector<Value> &args)
{
    const ElabMethod &m = prog.methods[meth_id];
    if (!m.isAction)
        panic("callActionMethod on value method " + m.name);

    TxnFrame frame(store_);
    InterpExec exec(*this, *compiled_);
    if (!exec.callActionRoot(meth_id, args, frame)) {
        stats_.guardFails++;
        stats_.wastedWork += exec.localWork;
        return false;
    }
    stats_.work += costs_.perCommitEntry * frame.writeCount();
    frame.commit();
    stats_.commits++;
    return true;
}

Value
Interp::callValueMethod(int meth_id, const std::vector<Value> &args)
{
    const ElabMethod &m = prog.methods[meth_id];
    if (m.isAction)
        panic("callValueMethod on action method " + m.name);
    if (args.size() != m.params.size())
        panic("method " + m.name + " arg count mismatch");
    std::int32_t root = compiled_->methodRoot(prog, meth_id);

    TxnFrame frame(store_);
    InterpExec exec(*this, *compiled_);
    Env env;
    for (const Value &v : args)
        env.push(v);
    Value out;
    if (!exec.evalExpr(root, env, frame, out))
        throw GuardFail{};  // the one throw: the public API boundary
    return out;
}

} // namespace bcl
