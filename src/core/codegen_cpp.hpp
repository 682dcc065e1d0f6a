/**
 * @file
 * C++ code generation for software partitions (section 6 of the
 * paper). Emits one class per partition: primitive state as members,
 * rules as member functions, plus the static schedule driver. The
 * output is also available as separately compilable units
 * (generateCppUnits) for a parallel host build. Three
 * strategies reproduce the cost spectrum of section 6.3:
 *
 *   Naive    - every rule body runs under try/catch against shadow
 *              objects with commit/rollback (Figure 9),
 *   Inlined  - user methods inlined, guards checked with explicit
 *              branches to rollback code, no try/catch (Figure 10),
 *   Lifted   - when-lifting first; rules whose guards lift completely
 *              test the guard once and then execute in place with no
 *              shadows at all.
 *
 * The generated source compiles against runtime/gen_support.hpp;
 * tests syntax-check it with the host compiler.
 *
 * Contract: @p prog must be a single-domain program — typically one
 * part of a PartitionResult, where cross-domain Syncs have already
 * been replaced by SyncTx/SyncRx halves. Rules containing dynamic
 * loops or sequential composition are fine here (unlike the BSV
 * path); they simply keep their shadow frames.
 */
#ifndef BCL_CORE_CODEGEN_CPP_HPP
#define BCL_CORE_CODEGEN_CPP_HPP

#include <string>
#include <vector>

#include "core/elaborate.hpp"

namespace bcl {

/** Generation strategy (see file comment). */
enum class CppGenMode : std::uint8_t { Naive, Inlined, Lifted };

/**
 * Generate a self-contained C++ translation unit for @p prog (a
 * software partition). @p class_name names the emitted class.
 *
 * Besides the partition class itself, the unit carries a fixed
 * `extern "C"` ABI (`bcl_gen_*`) that lets a host harness drive the
 * compiled partition through marshaled 32-bit words without sharing
 * any C++ types with it: create/destroy, run_to_quiescence, push/pop,
 * occupancy and reserved slots on FIFO-kind primitives (the
 * synchronizer halves of a partition), device-output drain, and
 * transactional root-interface action-method calls. runtime/gencc.hpp
 * is the in-tree consumer.
 *
 * Partitions that pass the synchronous-hardware validation
 * additionally get a clock-edge scheduler (`hw_cycle`): one function
 * per clock edge with WILL_FIRE selection baked from the static
 * ConflictMatrix as constant bitmasks (program-order priority),
 * exposed as `bcl_gen_hw_valid` / `bcl_gen_hw_cycle` /
 * `bcl_gen_hw_stats`. Partitions that are not synthesizable keep the
 * same symbol surface as stubs (hw_valid = 0, hw_cycle = -1), so one
 * artifact serves both software and hardware consumers of the same
 * program. hwsim/compiled_hw.hpp is the in-tree consumer.
 */
std::string generateCpp(const ElabProgram &prog,
                        const std::string &class_name,
                        CppGenMode mode = CppGenMode::Lifted);

/**
 * The same partition as generateCpp(), cut along function boundaries
 * so a host build can compile it as several translation units. The
 * prelude (includes, genops, structs and the class declaration) heads
 * every unit; each unit holds out-of-line definitions that depend on
 * nothing but the prelude. In order, the units are: the constructor
 * with its ROM/table initializers, each rule too large to inline, each
 * root-interface action method, the Scheduler unit (the small rules,
 * run_to_quiescence and hw_cycle), and the extern "C" ABI. Small
 * rules are declared `inline` and defined in the Scheduler unit, the
 * only unit that calls them, so the scheduler still inlines them. The
 * class has hidden visibility, so calls between units bind inside the
 * shared object.
 */
struct CppUnits
{
    std::string prelude;
    std::vector<std::string> units;

    /** The one-translation-unit form: the prelude, then every unit in
     *  order. generateCpp() returns exactly this. */
    std::string str() const;
};

CppUnits generateCppUnits(const ElabProgram &prog,
                          const std::string &class_name,
                          CppGenMode mode = CppGenMode::Lifted);

/** ABI revision emitted as bcl_gen_abi_version() (bumped whenever the
 *  generated symbol contract changes incompatibly).
 *  v2: bcl_gen_hw_valid / bcl_gen_hw_cycle / bcl_gen_hw_stats.
 *  v3: bcl_gen_prim_size / bcl_gen_prim_reserve (incremental mirror
 *      sync: FIFO occupancy and reserved slots). */
constexpr int kCppGenAbiVersion = 3;

/**
 * The payload type a device primitive (AudioDev / Bitmap) receives:
 * deduced from the first `output` / `store` call targeting @p prim_id
 * in any rule or method body, since device prims carry no element
 * type of their own. Returns Bit#(32) when the device is never
 * written (the historical default). Both the code generator and the
 * gencc harness derive the device word layout from this one answer —
 * the same single-source-of-truth trick the paper plays with Type.
 */
TypePtr devicePayloadType(const ElabProgram &prog, int prim_id);

} // namespace bcl

#endif // BCL_CORE_CODEGEN_CPP_HPP
