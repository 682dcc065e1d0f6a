/**
 * @file
 * Compile-cache semantics (src/serve/compile_cache.hpp): once-only
 * compilation under concurrent requests and key separation between
 * different programs, gen modes and flags. Also pins the key itself:
 * programIdentity() over a corpus of every Vorbis and ray
 * partitioning is equal exactly when the generated source is.
 *
 * Every test that compiles auto-skips when no host C++ compiler is
 * available.
 */
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hpp"
#include "core/builder.hpp"
#include "core/codegen_cpp.hpp"
#include "core/domains.hpp"
#include "core/elaborate.hpp"
#include "core/parser.hpp"
#include "core/partition.hpp"
#include "core/typecheck.hpp"
#include "ray/bvh.hpp"
#include "ray/partitions.hpp"
#include "ray/scenegen.hpp"
#include "ray/trace_bcl.hpp"
#include "serve/compile_cache.hpp"
#include "vorbis/partitions.hpp"

namespace bcl {
namespace {

using namespace bcl::serve;

#define REQUIRE_HOST_COMPILER()                                       \
    do {                                                              \
        if (!CompiledPartition::hostCompilerAvailable())              \
            GTEST_SKIP() << "no host C++ compiler on this machine — " \
                            "compile-cache tests skipped";            \
    } while (0)

/** The shipped counter.bcl's SW partition (the full program never
 *  quiesces — producer and consumer feed each other forever; the SW
 *  half stops when its SyncTx fills). */
ElabProgram
counterProgram()
{
    std::ifstream in(std::string(BCL_SRC_DIR) +
                     "/../examples/counter.bcl");
    EXPECT_TRUE(in.good());
    std::string src((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    Program p = parseProgram(src);
    ElabProgram elab = elaborate(p);
    typecheck(elab);
    DomainAssignment doms = inferDomains(elab);
    return partitionProgram(elab, doms).part("SW").prog;
}

/** A second, structurally different program (distinct generated
 *  source by construction): fills a bounded FIFO with an arithmetic
 *  sequence, then quiesces. */
ElabProgram
sequenceProgram()
{
    ModuleBuilder b("Top");
    b.addReg("count", Type::bits(32));
    b.addFifo("out", Type::bits(32), 3);
    b.addRule("produce",
              parA({callA("out", "enq", {regRead("count")}),
                    regWrite("count",
                             primE(PrimOp::Add, {regRead("count"),
                                                 intE(32, 2)}))}));
    Program p = ProgramBuilder().add(b.build()).setRoot("Top").build();
    ElabProgram elab = elaborate(p);
    typecheck(elab);
    return elab;
}

/** A ray partitioning over a @p seed scene of 32 spheres, 8x8. */
PartitionResult
rayParts(const ray::RayConfig &rcfg, std::uint64_t seed)
{
    std::vector<ray::Sphere> scene = ray::makeScene(32, seed);
    Program prog = ray::makeRayProgram(rcfg, scene, ray::buildBvh(scene),
                                       ray::makeCamera());
    ElabProgram elab = elaborate(prog);
    return partitionProgram(elab, inferDomains(elab));
}

/** Run an instance of @p artifact to quiescence and drain the named
 *  primitive's queue. */
std::vector<std::int64_t>
driveAndDrain(std::shared_ptr<const CompiledArtifact> artifact,
              const ElabProgram &prog, const char *prim_path)
{
    CompiledPartition cp(std::move(artifact));
    cp.runToQuiescence();
    std::vector<std::int64_t> got;
    Value v;
    while (cp.popPrim(prog.primByPath(prim_path), v))
        got.push_back(v.asInt());
    return got;
}

/**
 * Once-semantics under a concurrent pile-on: many threads request
 * the same program through one cold cache; exactly one compile may
 * happen, everyone else blocks on the shared future and is counted
 * a hit, and all callers get the SAME artifact object.
 */
TEST(CompileCache, SameSourceManyThreadsCompilesOnce)
{
    REQUIRE_HOST_COMPILER();
    ElabProgram prog = counterProgram();
    CompileCache cache;

    const int kThreads = 4;
    std::vector<std::shared_ptr<const CompiledArtifact>> got(
        kThreads);
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; i++)
        threads.emplace_back(
            [&, i] { got[static_cast<size_t>(i)] = cache.get(prog); });
    for (auto &t : threads)
        t.join();

    for (int i = 1; i < kThreads; i++)
        EXPECT_EQ(got[static_cast<size_t>(i)], got[0])
            << "thread " << i << " got a different artifact";
    CompileCacheStats stats = cache.stats();
    EXPECT_EQ(stats.compiles, 1u);
    EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(kThreads - 1));

    // And the shared artifact actually runs.
    std::vector<std::int64_t> msgs;
    CompiledPartition cp(got[0]);
    cp.runToQuiescence();
    Value v;
    while (cp.popPrim(prog.primByPath("toHw"), v))
        msgs.push_back(v.field("left").asInt());
    EXPECT_FALSE(msgs.empty());
}

/**
 * Key separation: different programs never alias, and the same
 * program under a different gen mode or extra flags (a different
 * binary) gets its own artifact too — the key covers everything that
 * changes the .so. Two ray scenes share every prim type and width but
 * differ in their ROM contents, so their HWT parts must not alias
 * either.
 */
TEST(CompileCache, DifferentSourcesAndModesNeverAlias)
{
    REQUIRE_HOST_COMPILER();
    ElabProgram counter = counterProgram();
    ElabProgram sequence = sequenceProgram();

    GenccOptions lifted;
    lifted.mode = CppGenMode::Lifted;
    GenccOptions naive;
    naive.mode = CppGenMode::Naive;
    GenccOptions flagged = lifted;
    flagged.extraFlags = "-DBCL_CACHE_KEY_PROBE";

    CompileCache cache;
    auto a = cache.get(counter, lifted);
    auto b = cache.get(sequence, lifted);
    EXPECT_NE(a, b);
    EXPECT_NE(cache.get(counter, naive), a);
    EXPECT_NE(cache.get(counter, flagged), a);
    EXPECT_EQ(cache.get(counter, lifted), a);
    EXPECT_EQ(cache.stats().compiles, 4u);
    EXPECT_EQ(cache.stats().hits, 1u);

    // Each artifact runs ITS program: the sequence fills its
    // 3-deep FIFO with 0, 2, 4 and quiesces.
    std::vector<std::int64_t> seq =
        driveAndDrain(b, sequence, "out");
    EXPECT_EQ(seq, (std::vector<std::int64_t>{0, 2, 4}));

    const PartitionResult scene1 = rayParts(ray::splitRayConfig(8, 8), 1);
    const PartitionResult scene2 = rayParts(ray::splitRayConfig(8, 8), 2);
    auto t1 = cache.get(scene1.part("HWT").prog, lifted);
    auto t2 = cache.get(scene2.part("HWT").prog, lifted);
    EXPECT_NE(t1, t2);
    EXPECT_EQ(cache.stats().compiles, 6u);
}

/**
 * The cache key is sound and exact over every shipped partitioning:
 * for each gen mode, two parts have equal programIdentity() exactly
 * when their generated source is equal. The corpus is every lettered
 * Vorbis partitioning plus the split, and every lettered ray
 * partitioning plus the split over two scene seeds (same prim types
 * and widths, different ROM contents).
 */
TEST(ProgramIdentity, EqualExactlyWhenGeneratedSourceIsEqual)
{
    std::vector<PartitionResult> corpus;
    for (vorbis::VorbisPartition p : vorbis::allVorbisPartitions())
        corpus.push_back(
            vorbis::makeVorbisServeSetup(vorbis::partitionConfig(p)).parts);
    corpus.push_back(
        vorbis::makeVorbisServeSetup(vorbis::splitVorbisConfig()).parts);
    for (std::uint64_t seed : {1u, 2u}) {
        for (ray::RayPartition p : ray::allRayPartitions())
            corpus.push_back(rayParts(ray::rayPartitionConfig(p, 8, 8), seed));
        corpus.push_back(rayParts(ray::splitRayConfig(8, 8), seed));
    }

    struct Part
    {
        std::string name;
        const ElabProgram *prog;
        std::uint64_t identity;
    };
    std::vector<Part> parts;
    for (std::size_t i = 0; i < corpus.size(); i++) {
        for (const PartitionPart &part : corpus[i].parts)
            parts.push_back({std::to_string(i) + "/" + part.domain,
                             &part.prog, programIdentity(part.prog)});
    }
    ASSERT_EQ(corpus.size(), 17u);

    int equal_pairs = 0;
    for (CppGenMode mode :
         {CppGenMode::Naive, CppGenMode::Inlined, CppGenMode::Lifted}) {
        std::vector<std::string> source;
        for (const Part &p : parts)
            source.push_back(generateCpp(*p.prog, "BclGenPartition", mode));
        for (std::size_t i = 0; i < parts.size(); i++) {
            for (std::size_t j = i + 1; j < parts.size(); j++) {
                const bool same_source = source[i] == source[j];
                equal_pairs += same_source;
                EXPECT_EQ(parts[i].identity == parts[j].identity,
                          same_source)
                    << parts[i].name << " vs " << parts[j].name << " mode "
                    << static_cast<int>(mode);
            }
        }
    }
    EXPECT_GT(equal_pairs, 0) << "the corpus must exercise equal parts too";
}

} // namespace
} // namespace bcl
