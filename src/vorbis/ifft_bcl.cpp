#include "vorbis/ifft_bcl.hpp"

#include "common/logging.hpp"

namespace bcl {
namespace vorbis {

TypePtr
complexType()
{
    static TypePtr t = Type::record(
        "Complex", {{"re", Type::bits(32)}, {"im", Type::bits(32)}});
    return t;
}

TypePtr
frame64Type()
{
    static TypePtr t = Type::vec(kIfftSize, complexType());
    return t;
}

TypePtr
sub16Type()
{
    static TypePtr t = Type::vec(16, complexType());
    return t;
}

TypePtr
frame32Type()
{
    static TypePtr t = Type::vec(kFrameIn, Type::bits(32));
    return t;
}

TypePtr
mid64Type()
{
    static TypePtr t = Type::vec(kIfftSize, Type::bits(32));
    return t;
}

TypePtr
pcmType()
{
    static TypePtr t = Type::vec(kPcmOut, Type::bits(32));
    return t;
}

Value
fixValue(Fix32 v)
{
    return Value::makeInt(32, v.raw);
}

Value
cfixValue(CFix v)
{
    return Value::makeStruct(
        {{"re", fixValue(v.re)}, {"im", fixValue(v.im)}});
}

namespace {

constexpr int fb = Fix32::fracBits;

/** @name Complex expression helpers (operands must be cheap: Var or
 *  Const references, since they are duplicated structurally). */
/// @{

ExprPtr
cre(const ExprPtr &e)
{
    return primE(PrimOp::Field, {e}, 0, "re");
}

ExprPtr
cim(const ExprPtr &e)
{
    return primE(PrimOp::Field, {e}, 0, "im");
}

ExprPtr
cmk(ExprPtr re, ExprPtr im)
{
    return primE(PrimOp::MakeStruct, {std::move(re), std::move(im)}, 0,
                 "re,im");
}

ExprPtr
fxMul(ExprPtr a, ExprPtr b)
{
    return primE(PrimOp::MulFx, {std::move(a), std::move(b)}, fb);
}

ExprPtr
add2(ExprPtr a, ExprPtr b)
{
    return primE(PrimOp::Add, {std::move(a), std::move(b)});
}

ExprPtr
sub2(ExprPtr a, ExprPtr b)
{
    return primE(PrimOp::Sub, {std::move(a), std::move(b)});
}

ExprPtr
cAdd(const ExprPtr &a, const ExprPtr &b)
{
    return cmk(add2(cre(a), cre(b)), add2(cim(a), cim(b)));
}

ExprPtr
cSub(const ExprPtr &a, const ExprPtr &b)
{
    return cmk(sub2(cre(a), cre(b)), sub2(cim(a), cim(b)));
}

/** a * w for a constant complex w: full 4-multiply form, matching
 *  CFix::operator* in the native baseline. */
ExprPtr
cMulConst(const ExprPtr &a, CFix w)
{
    ExprPtr wr = intE(32, w.re.raw), wi = intE(32, w.im.raw);
    return cmk(sub2(fxMul(cre(a), wr), fxMul(cim(a), wi)),
               add2(fxMul(cre(a), wi), fxMul(cim(a), wr)));
}

ExprPtr
idx(const ExprPtr &vec, int i)
{
    return primE(PrimOp::Index, {vec, intE(32, i)});
}

/** Fold a list of (name, bound) pairs into nested lets around body. */
ExprPtr
letChainE(std::vector<std::pair<std::string, ExprPtr>> binds,
          ExprPtr body)
{
    for (auto it = binds.rbegin(); it != binds.rend(); ++it)
        body = letE(it->first, std::move(it->second), std::move(body));
    return body;
}

/**
 * Emit one radix-4 DIF stage as a pure expression: frame in (an
 * expression yielding Vector#(64, Complex), referenced via the
 * let-bound name @p in_name), frame out. Butterfly temporaries are
 * let-bound so each is computed once, like the generated C++ would.
 */
ExprPtr
stageExpr(int s, const std::string &in_name)
{
    const Tables &t = tables();
    std::vector<std::pair<std::string, ExprPtr>> binds;
    std::vector<ExprPtr> out(kIfftSize);
    ExprPtr in = varE(in_name);
    std::string pfx = std::string("s") + std::to_string(s) + "_";

    for (int bf = 0; bf < kButterflies; bf++) {
        const Tables::Lane &lane = t.lanes[s * kButterflies + bf];
        std::string p = pfx + "b" + std::to_string(bf) + "_";
        // x0..x3 from the stage input.
        for (int k = 0; k < 4; k++) {
            binds.emplace_back(p + "x" + std::to_string(k),
                               idx(in, lane.in[k]));
        }
        auto v = [&](const std::string &n) { return varE(p + n); };
        binds.emplace_back(p + "a", cAdd(v("x0"), v("x2")));
        binds.emplace_back(p + "b", cAdd(v("x1"), v("x3")));
        binds.emplace_back(p + "c", cSub(v("x0"), v("x2")));
        binds.emplace_back(p + "d", cSub(v("x1"), v("x3")));
        binds.emplace_back(p + "t0", cAdd(v("a"), v("b")));
        binds.emplace_back(p + "t2", cSub(v("a"), v("b")));
        // t1 = c + i*d, t3 = c - i*d (no multipliers).
        binds.emplace_back(
            p + "t1", cmk(sub2(cre(v("c")), cim(v("d"))),
                          add2(cim(v("c")), cre(v("d")))));
        binds.emplace_back(
            p + "t3", cmk(add2(cre(v("c")), cim(v("d"))),
                          sub2(cim(v("c")), cre(v("d")))));

        const CFix *tw = &t.twiddle[(s * kButterflies + bf) * 3];
        out[lane.in[0]] = v("t0");
        out[lane.in[1]] = cMulConst(v("t1"), tw[0]);
        out[lane.in[2]] = cMulConst(v("t2"), tw[1]);
        out[lane.in[3]] = cMulConst(v("t3"), tw[2]);
    }

    for (const auto &e : out) {
        if (!e)
            panic("ifft stage: uncovered output lane");
    }
    return letChainE(std::move(binds), primE(PrimOp::MakeVec, out));
}

/**
 * Sub-block collector FSM shared by both variants: assemble four
 * 16-element sub-blocks from @p in_q into a full frame enqueued to
 * @p frame_q, using registers @p buf_reg / @p cnt_reg.
 */
ActPtr
collectRule(const std::string &in_q, const std::string &frame_q,
            const std::string &buf_reg, const std::string &cnt_reg)
{
    // merged = buf updated with the sub-block at offset cnt*16.
    std::vector<std::pair<std::string, ExprPtr>> binds;
    binds.emplace_back("sub", callV(in_q, "first"));
    binds.emplace_back("cnt", regRead(cnt_reg));
    ExprPtr merged = regRead(buf_reg);
    for (int i = 0; i < 16; i++) {
        ExprPtr pos = add2(primE(PrimOp::Shl, {varE("cnt"), intE(32, 4)}),
                           intE(32, i));
        merged = primE(PrimOp::Update,
                       {std::move(merged), std::move(pos),
                        idx(varE("sub"), i)});
    }
    binds.emplace_back("merged", std::move(merged));

    ExprPtr is_last = primE(PrimOp::Eq, {varE("cnt"), intE(32, 3)});
    ExprPtr not_last = primE(PrimOp::Ne, {varE("cnt"), intE(32, 3)});
    ActPtr on_last = ifA(is_last,
                         parA({callA(frame_q, "enq", {varE("merged")}),
                               regWrite(cnt_reg, intE(32, 0))}));
    ActPtr on_more =
        ifA(not_last,
            parA({regWrite(buf_reg, varE("merged")),
                  regWrite(cnt_reg,
                           add2(varE("cnt"), intE(32, 1)))}));
    ActPtr body = parA({callA(in_q, "deq"), on_last, on_more});
    // Wrap lets around the whole action.
    for (auto it = binds.rbegin(); it != binds.rend(); ++it)
        body = letA(it->first, it->second, body);
    return body;
}

/** Splitter FSM: emit a frame from @p frame_q as four sub-blocks into
 *  @p out_q, using counter register @p cnt_reg. */
ActPtr
splitRule(const std::string &frame_q, const std::string &out_q,
          const std::string &cnt_reg)
{
    std::vector<ExprPtr> elems;
    for (int i = 0; i < 16; i++) {
        ExprPtr pos = add2(primE(PrimOp::Shl, {varE("cnt"), intE(32, 4)}),
                           intE(32, i));
        elems.push_back(
            primE(PrimOp::Index, {varE("f"), std::move(pos)}));
    }
    ExprPtr sub = primE(PrimOp::MakeVec, elems);
    ExprPtr is_last = primE(PrimOp::Eq, {varE("cnt"), intE(32, 3)});
    ExprPtr not_last = primE(PrimOp::Ne, {varE("cnt"), intE(32, 3)});
    ActPtr body = parA(
        {callA(out_q, "enq", {std::move(sub)}),
         ifA(is_last, parA({callA(frame_q, "deq"),
                            regWrite(cnt_reg, intE(32, 0))})),
         ifA(not_last,
             regWrite(cnt_reg, add2(varE("cnt"), intE(32, 1))))});
    body = letA("cnt", regRead(cnt_reg), body);
    body = letA("f", callV(frame_q, "first"), body);
    return body;
}

/** Shared interface methods + streaming FSMs around a compute core. */
void
addStreamingShell(ModuleBuilder &b)
{
    b.addFifo("inQ16", sub16Type(), 2);
    b.addFifo("outQ16", sub16Type(), 2);
    b.addReg("inBuf", frame64Type());
    b.addReg("inCnt", Type::bits(32));
    b.addReg("outCnt", Type::bits(32));

    b.addRule("collect", collectRule("inQ16", "stage0", "inBuf",
                                     "inCnt"));
    b.addRule("split", splitRule("stageOut", "outQ16", "outCnt"));

    b.addActionMethod("input", {{"xsub", sub16Type()}},
                      callA("inQ16", "enq", {varE("xsub")}));
    b.addValueMethod("output", {}, sub16Type(), callV("outQ16", "first"));
    b.addActionMethod("deq", {}, callA("outQ16", "deq"));
}

} // namespace

ModuleDef
makeIFFTPipeModule(const std::string &name)
{
    ModuleBuilder b(name);
    // stage0 feeds the pipeline; buf1/buf2 sit between stages;
    // stageOut is drained by the splitter.
    b.addFifo("stage0", frame64Type(), 2);
    b.addFifo("buf1", frame64Type(), 2);
    b.addFifo("buf2", frame64Type(), 2);
    b.addFifo("stageOut", frame64Type(), 2);

    const char *qs[4] = {"stage0", "buf1", "buf2", "stageOut"};
    for (int s = 0; s < kStages; s++) {
        ActPtr body = letA(
            "x", callV(qs[s], "first"),
            parA({callA(qs[s + 1], "enq", {stageExpr(s, "x")}),
                  callA(qs[s], "deq")}));
        b.addRule("stage" + std::to_string(s), body);
    }
    addStreamingShell(b);
    return b.build();
}

ModuleDef
makeIFFTCombModule(const std::string &name)
{
    ModuleBuilder b(name);
    b.addFifo("stage0", frame64Type(), 2);
    b.addFifo("stageOut", frame64Type(), 2);

    // One rule computes all three stages back to back: "perhaps the
    // most natural description ... will produce an extremely long
    // combinational path" (section 4.5).
    ExprPtr all =
        letE("v1", stageExpr(0, "x"),
             letE("v2", stageExpr(1, "v1"), stageExpr(2, "v2")));
    ActPtr body =
        letA("x", callV("stage0", "first"),
             parA({callA("stageOut", "enq", {std::move(all)}),
                   callA("stage0", "deq")}));
    b.addRule("doIFFT", body);
    addStreamingShell(b);
    return b.build();
}

} // namespace vorbis
} // namespace bcl
