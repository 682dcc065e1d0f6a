#include "vorbis/backend_bcl.hpp"

#include "common/logging.hpp"

namespace bcl {
namespace vorbis {

namespace {

constexpr int fb = Fix32::fracBits;

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
idx(const ExprPtr &vec, int i)
{
    return primE(PrimOp::Index, {vec, intE(32, i)});
}

ExprPtr
fieldRe(const ExprPtr &e)
{
    return primE(PrimOp::Field, {e}, 0, "re");
}

ExprPtr
fieldIm(const ExprPtr &e)
{
    return primE(PrimOp::Field, {e}, 0, "im");
}

std::vector<Value>
complexTableValues(const std::vector<CFix> &table)
{
    std::vector<Value> vals;
    vals.reserve(table.size());
    for (const auto &c : table)
        vals.push_back(cfixValue(c));
    return vals;
}

std::vector<Value>
fixTableValues(const std::vector<Fix32> &table)
{
    std::vector<Value> vals;
    vals.reserve(table.size());
    for (const auto &f : table)
        vals.push_back(fixValue(f));
    return vals;
}

/** Generic splitter rule: frame FIFO -> four 16-element sub-blocks. */
ActPtr
frameSplitRule(const std::string &frame_q, const std::string &out_q,
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

/** Generic collector rule: four sub-blocks -> frame FIFO. */
ActPtr
frameCollectRule(const std::string &in_q, const std::string &frame_q,
                 const std::string &buf_reg, const std::string &cnt_reg)
{
    ExprPtr merged = regRead(buf_reg);
    for (int i = 0; i < 16; i++) {
        ExprPtr pos = add2(primE(PrimOp::Shl, {varE("cnt"), intE(32, 4)}),
                           intE(32, i));
        merged = primE(PrimOp::Update,
                       {std::move(merged), std::move(pos),
                        idx(varE("sub"), i)});
    }
    ExprPtr is_last = primE(PrimOp::Eq, {varE("cnt"), intE(32, 3)});
    ExprPtr not_last = primE(PrimOp::Ne, {varE("cnt"), intE(32, 3)});
    ActPtr body = parA(
        {callA(in_q, "deq"),
         ifA(is_last, parA({callA(frame_q, "enq", {varE("merged")}),
                            regWrite(cnt_reg, intE(32, 0))})),
         ifA(not_last,
             parA({regWrite(buf_reg, varE("merged")),
                   regWrite(cnt_reg,
                            add2(varE("cnt"), intE(32, 1)))}))});
    body = letA("merged", std::move(merged), body);
    body = letA("cnt", regRead(cnt_reg), body);
    body = letA("sub", callV(in_q, "first"), body);
    return body;
}

/** The windowing component as its own module (Figure 12's "Window"). */
ModuleDef
makeWindowModule()
{
    const Tables &t = tables();
    ModuleBuilder b("Window");
    b.addFifo("inQ", mid64Type(), 2);
    b.addFifo("outQ", pcmType(), 2);
    b.addReg("prevTail", pcmType());
    b.addBram("wCur", Type::bits(32), kPcmOut,
              fixTableValues(t.winCur));
    b.addBram("wPrev", Type::bits(32), kPcmOut,
              fixTableValues(t.winPrev));

    std::vector<std::pair<std::string, ExprPtr>> binds;
    std::vector<ExprPtr> out, tail;
    for (int i = 0; i < kPcmOut; i++) {
        std::string wc = "wc" + std::to_string(i);
        std::string wp = "wp" + std::to_string(i);
        binds.emplace_back(wc, callV("wCur", "read", {intE(32, i)}));
        binds.emplace_back(wp, callV("wPrev", "read", {intE(32, i)}));
        out.push_back(add2(fxMul(idx(varE("pv"), i), varE(wp)),
                           fxMul(idx(varE("x"), i), varE(wc))));
        tail.push_back(idx(varE("x"), i + kPcmOut));
    }
    ActPtr body = parA({callA("outQ", "enq",
                              {primE(PrimOp::MakeVec, out)}),
                        regWrite("prevTail",
                                 primE(PrimOp::MakeVec, tail)),
                        callA("inQ", "deq")});
    for (auto it = binds.rbegin(); it != binds.rend(); ++it)
        body = letA(it->first, it->second, body);
    body = letA("pv", regRead("prevTail"), body);
    body = letA("x", callV("inQ", "first"), body);
    b.addRule("window", body);

    b.addActionMethod("input", {{"xw", mid64Type()}},
                      callA("inQ", "enq", {varE("xw")}));
    b.addValueMethod("output", {}, pcmType(), callV("outQ", "first"));
    b.addActionMethod("deq", {}, callA("outQ", "deq"));
    return b.build();
}

} // namespace

Program
makeVorbisProgram(const VorbisConfig &cfg)
{
    const Tables &t = tables();
    ModuleBuilder b("VorbisTop");

    // Components.
    b.addSub("ifft", "IFFT");
    b.addSub("win", "Window");

    // Synchronizers at every component boundary; each collapses to a
    // plain FIFO when both sides share a domain (domain polymorphism).
    b.addSync("s0", frame32Type(), cfg.syncDepth, "SW", cfg.imdctDom);
    b.addSync("s1", sub16Type(), cfg.syncDepth, cfg.imdctDom,
              cfg.ifftDom);
    b.addSync("s2", sub16Type(), cfg.syncDepth, cfg.ifftDom,
              cfg.imdctDom);
    b.addSync("s3", mid64Type(), cfg.syncDepth, cfg.imdctDom,
              cfg.winDom);
    b.addSync("s4", pcmType(), cfg.syncDepth, cfg.winDom, "SW");

    // Param tables (Figure 12: they move with the IMDCT FSMs).
    b.addBram("pre1T", complexType(), kFrameIn,
              complexTableValues(t.pre1));
    b.addBram("pre2T", complexType(), kFrameIn,
              complexTableValues(t.pre2));
    b.addBram("postT", complexType(), kIfftSize,
              complexTableValues(t.post));

    // IMDCT-side staging state.
    b.addFifo("preOut", frame64Type(), 2);
    b.addReg("preCnt", Type::bits(32));
    b.addFifo("postQ", frame64Type(), 2);
    b.addReg("postBuf", frame64Type());
    b.addReg("postCnt", Type::bits(32));

    // PCM sink - always software (Figure 12).
    b.addAudioDev("audio", "SW");

    // Front-end entry point.
    b.addActionMethod("input", {{"frame", frame32Type()}},
                      callA("s0", "enq", {varE("frame")}), "SW");

    // --- IMDCT FSMs ---------------------------------------------------
    {
        // Pre-twiddle: 32 real -> 64 complex.
        std::vector<std::pair<std::string, ExprPtr>> binds;
        std::vector<ExprPtr> out(kIfftSize);
        for (int i = 0; i < kFrameIn; i++) {
            std::string p1 = "p1_" + std::to_string(i);
            std::string p2 = "p2_" + std::to_string(i);
            binds.emplace_back(p1,
                               callV("pre1T", "read", {intE(32, i)}));
            binds.emplace_back(p2,
                               callV("pre2T", "read", {intE(32, i)}));
            ExprPtr xi = idx(varE("x"), i);
            out[i] = primE(PrimOp::MakeStruct,
                           {fxMul(fieldRe(varE(p1)), xi),
                            fxMul(fieldIm(varE(p1)), xi)},
                           0, "re,im");
            out[i + kFrameIn] =
                primE(PrimOp::MakeStruct,
                      {fxMul(fieldRe(varE(p2)), xi),
                       fxMul(fieldIm(varE(p2)), xi)},
                      0, "re,im");
        }
        ActPtr body = parA({callA("preOut", "enq",
                                  {primE(PrimOp::MakeVec, out)}),
                            callA("s0", "deq")});
        for (auto it = binds.rbegin(); it != binds.rend(); ++it)
            body = letA(it->first, it->second, body);
        body = letA("x", callV("s0", "first"), body);
        b.addRule("preTwiddle", body);
    }

    // Chunk the pre-twiddled frame into the IFFT ("IMDCT FSMs invoke
    // IFFT repeatedly", section 7.1) and reassemble its output.
    b.addRule("preSplit", frameSplitRule("preOut", "s1", "preCnt"));
    b.addRule("postGather",
              frameCollectRule("s2", "postQ", "postBuf", "postCnt"));

    {
        // Post-twiddle + digit-reversal reorder; real part only.
        std::vector<std::pair<std::string, ExprPtr>> binds;
        std::vector<ExprPtr> out;
        for (int n = 0; n < kIfftSize; n++) {
            int src = t.invPerm[n];
            std::string pn = "po" + std::to_string(n);
            std::string yn = std::string("y").append(std::to_string(n));
            binds.emplace_back(pn,
                               callV("postT", "read", {intE(32, n)}));
            binds.emplace_back(yn, idx(varE("yv"), src));
            out.push_back(
                sub2(fxMul(fieldRe(varE(pn)), fieldRe(varE(yn))),
                     fxMul(fieldIm(varE(pn)), fieldIm(varE(yn)))));
        }
        ActPtr body = parA({callA("s3", "enq",
                                  {primE(PrimOp::MakeVec, out)}),
                            callA("postQ", "deq")});
        for (auto it = binds.rbegin(); it != binds.rend(); ++it)
            body = letA(it->first, it->second, body);
        body = letA("yv", callV("postQ", "first"), body);
        b.addRule("postTwiddle", body);
    }

    // --- transactor rules around the IFFT core (the feedIFFT /
    // drainIFFT rules of section 4.2's partitioned example) ----------
    b.addRule("feedIFFT", parA({callA("ifft", "input",
                                      {callV("s1", "first")}),
                                callA("s1", "deq")}));
    b.addRule("drainIFFT", parA({callA("s2", "enq",
                                       {callV("ifft", "output")}),
                                 callA("ifft", "deq")}));

    // --- window transactors ------------------------------------------
    b.addRule("winFeed", parA({callA("win", "input",
                                     {callV("s3", "first")}),
                               callA("s3", "deq")}));
    b.addRule("winDrain", parA({callA("s4", "enq",
                                      {callV("win", "output")}),
                                callA("win", "deq")}));

    // --- PCM emission (always SW) -------------------------------------
    b.addRule("emit", parA({callA("audio", "output",
                                  {callV("s4", "first")}),
                            callA("s4", "deq")}));

    ProgramBuilder pb;
    pb.add(cfg.pipelinedIfft ? makeIFFTPipeModule()
                             : makeIFFTCombModule());
    pb.add(makeWindowModule());
    pb.add(b.build());
    pb.setRoot("VorbisTop");
    return pb.build();
}

} // namespace vorbis
} // namespace bcl
