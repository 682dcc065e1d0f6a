#include "core/elaborate.hpp"

namespace bcl {

namespace {

/** FNV-1a64 over a structural walk of the program. */
class IdentityHash
{
  public:
    std::uint64_t h = 14695981039346656037ull;

    void
    num(std::uint64_t v)
    {
        for (int i = 0; i < 8; i++) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ull;
        }
    }

    void
    str(const std::string &s)
    {
        num(s.size());
        for (char c : s) {
            h ^= static_cast<std::uint8_t>(c);
            h *= 1099511628211ull;
        }
    }

    void
    type(const TypePtr &t)
    {
        if (!t) {
            num(~0ull);
            return;
        }
        num(static_cast<std::uint64_t>(t->kind()));
        if (t->isBits()) {
            num(static_cast<std::uint64_t>(t->width()));
        } else if (t->isVec()) {
            num(static_cast<std::uint64_t>(t->vecSize()));
            type(t->elem());
        } else if (t->isStruct()) {
            str(t->name());
            num(t->fields().size());
            for (const auto &[name, ft] : t->fields()) {
                str(name);
                type(ft);
            }
        }
    }

    void
    value(const Value &v)
    {
        num(static_cast<std::uint64_t>(v.kind()));
        switch (v.kind()) {
          case ValueKind::Invalid:
            break;
          case ValueKind::Bool:
            num(v.asBool());
            break;
          case ValueKind::Bits:
            num(static_cast<std::uint64_t>(v.width()));
            num(v.asUInt());
            break;
          case ValueKind::Vec:
            num(v.size());
            for (const Value &e : v.elems())
                value(e);
            break;
          case ValueKind::Struct:
            num(v.size());
            for (size_t i = 0; i < v.size(); i++) {
                str(v.fieldName(i));
                value(v.fieldAt(i));
            }
            break;
        }
    }

    /** Everything codegen reads from a node, resolution included. */
    void
    expr(const ExprPtr &e)
    {
        if (!e) {
            num(~0ull);
            return;
        }
        num(static_cast<std::uint64_t>(e->kind));
        value(e->constVal);
        str(e->name);
        str(e->meth);
        str(e->strArg);
        num(static_cast<std::uint64_t>(e->op));
        num(static_cast<std::uint64_t>(e->imm));
        resolution(e->inst, e->isPrim, e->methIdx);
        num(e->args.size());
        for (const auto &a : e->args)
            expr(a);
    }

    void
    act(const ActPtr &a)
    {
        if (!a) {
            num(~0ull);
            return;
        }
        num(static_cast<std::uint64_t>(a->kind));
        str(a->name);
        str(a->meth);
        resolution(a->inst, a->isPrim, a->methIdx);
        num(a->exprs.size());
        for (const auto &e : a->exprs)
            expr(e);
        num(a->subs.size());
        for (const auto &s : a->subs)
            act(s);
    }

  private:
    void
    resolution(int inst, bool is_prim, int meth_idx)
    {
        num(static_cast<std::uint64_t>(inst));
        num(is_prim);
        num(static_cast<std::uint64_t>(meth_idx));
    }
};

} // namespace

std::uint64_t
programIdentity(const ElabProgram &prog)
{
    IdentityHash h;
    h.num(prog.prims.size());
    for (const auto &prim : prog.prims) {
        h.num(static_cast<std::uint64_t>(prim.id));
        h.str(prim.kind);
        h.str(prim.path);
        h.type(prim.type);
        h.value(prim.init);
        h.num(static_cast<std::uint64_t>(prim.capacity));
        h.num(static_cast<std::uint64_t>(prim.size));
    }
    h.num(prog.rules.size());
    for (const auto &rule : prog.rules) {
        h.num(static_cast<std::uint64_t>(rule.id));
        h.str(rule.name);
        h.act(rule.body);
    }
    h.num(prog.methods.size());
    for (const auto &meth : prog.methods) {
        h.num(static_cast<std::uint64_t>(meth.id));
        h.str(meth.name);
        h.num(meth.isAction);
        h.num(meth.params.size());
        for (const auto &param : meth.params) {
            h.str(param.name);
            h.type(param.type);
        }
        h.type(meth.retType);
        h.act(meth.body);
        h.expr(meth.value);
    }
    // The root interface fixes the bcl_gen_call_action method ids.
    if (!prog.mods.empty()) {
        const std::vector<int> &root = prog.mods[prog.rootMod].methodIds;
        h.num(root.size());
        for (int m : root)
            h.num(static_cast<std::uint64_t>(m));
    }
    return h.h;
}

} // namespace bcl
