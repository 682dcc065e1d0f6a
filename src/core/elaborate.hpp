/**
 * @file
 * Static elaboration (section 5 of the paper): instantiate the module
 * hierarchy starting at the root, producing a flat program in which
 *
 *   - every primitive instance has a global id and a path name,
 *   - every user-module instance has a global id,
 *   - every rule and method body is a resolved AST: CallV/CallA nodes
 *     carry the global instance id and, for user methods, the index
 *     into the global method table.
 *
 * The elaborated program is the input to the interpreter, analyses,
 * partitioner, schedulers and code generators.
 *
 * Contract: ids are dense indices — prims[i].id == i, rules[i].id ==
 * i, methods[i].id == i — so analyses index vectors by id. Rule and
 * method bodies are still untyped and their domains unknown until
 * typecheck() and inferDomains() run.
 */
#ifndef BCL_CORE_ELABORATE_HPP
#define BCL_CORE_ELABORATE_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/ast.hpp"

namespace bcl {

/** An elaborated primitive instance. */
struct ElabPrim
{
    int id = -1;
    std::string kind;          ///< "Reg", "Fifo", ...
    std::string path;          ///< hierarchical name, e.g. "ifft.buff0"
    TypePtr type;              ///< element/content type (null for devices)
    Value init;                ///< Reg initial value / Bram init vector
    int capacity = 0;          ///< Fifo/Sync capacity
    int size = 0;              ///< Bram size / Bitmap w*h
    std::string domA, domB;    ///< Sync domains; domA = device domain
    int channelId = -1;        ///< SyncTx/SyncRx: logical channel id
};

/** Reference to an instance from inside a module: prim or user module. */
struct InstRef
{
    bool isPrim = false;
    int id = -1;  ///< prim id or module id
};

/** An elaborated user-module instance. */
struct ElabModule
{
    int id = -1;
    std::string defName;   ///< name of the ModuleDef
    std::string path;      ///< hierarchical instance path ("" for root)
    std::map<std::string, InstRef> children;
    std::vector<int> methodIds;  ///< indices into ElabProgram::methods
};

/** An elaborated method (body resolved against its module). */
struct ElabMethod
{
    int id = -1;
    int modId = -1;
    std::string name;
    std::vector<Param> params;
    bool isAction = true;
    ActPtr body;     ///< action methods
    ExprPtr value;   ///< value methods
    TypePtr retType;
    std::string domain;  ///< explicit annotation, refined by inference
};

/** An elaborated rule. */
struct ElabRule
{
    int id = -1;
    int modId = -1;
    std::string name;   ///< qualified, e.g. "ifft.stage1"
    ActPtr body;
    std::string domain; ///< filled by domain inference
};

/** The flat elaborated program. */
struct ElabProgram
{
    std::vector<ElabPrim> prims;
    std::vector<ElabModule> mods;    ///< mods[rootMod] is the root
    std::vector<ElabMethod> methods;
    std::vector<ElabRule> rules;
    int rootMod = 0;

    /** Index of prim with hierarchical @p path (panics when absent). */
    int primByPath(const std::string &path) const;

    /** Index of a root-interface method (panics when absent). */
    int rootMethod(const std::string &name) const;

    /** Index of rule with qualified @p name (-1 when absent). */
    int ruleByName(const std::string &name) const;
};

/**
 * Elaborate @p prog from its root module. Throws FatalError on
 * malformed programs (unknown module/instance names, arity errors on
 * primitive constructors, instantiation cycles).
 */
ElabProgram elaborate(const Program &prog);

/**
 * The program's identity: a structural hash (FNV-1a64) of everything
 * the C++ code generator reads — every prim (id, kind, path, full
 * type, initial value, capacity, size), every rule and method (id,
 * name, signature, resolved body) and the root interface's method
 * list. Code generation is a pure function of these, so equal
 * identities mean equal generated source: the CompileCache keys
 * artifacts on it, and the remote handshake compares it to prove both
 * processes elaborated the same partition. Domain names and channel
 * ids are left out: neither the code generator nor the simulators
 * read them, so parts that differ only there are the same program.
 */
std::uint64_t programIdentity(const ElabProgram &prog);

} // namespace bcl

#endif // BCL_CORE_ELABORATE_HPP
