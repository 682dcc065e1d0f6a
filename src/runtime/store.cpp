#include "runtime/store.hpp"

#include <algorithm>
#include <utility>

#include "common/logging.hpp"
#include "runtime/primitives.hpp"

namespace bcl {

Store::Store(const ElabProgram &prog)
{
    states.reserve(prog.prims.size());
    for (const auto &prim : prog.prims)
        states.push_back(initPrimState(prim));
    versions.assign(states.size(), 0);
}

PrimState &
Store::at(int id)
{
    if (id < 0 || static_cast<size_t>(id) >= states.size())
        panic("store index out of range: " + std::to_string(id));
    versions[static_cast<size_t>(id)]++;
    return states[static_cast<size_t>(id)];
}

const PrimState &
Store::at(int id) const
{
    if (id < 0 || static_cast<size_t>(id) >= states.size())
        panic("store index out of range: " + std::to_string(id));
    return states[static_cast<size_t>(id)];
}

TxnFrame::TxnFrame(Store &base_store, std::vector<int> *read_log)
    : base(&base_store), reads(read_log)
{
}

TxnFrame::TxnFrame(TxnFrame &parent_frame) : parent(&parent_frame) {}

const PrimState &
TxnFrame::get(int id) const
{
    for (const TxnFrame *f = this; f; f = f->parent) {
        auto it = f->delta.find(id);
        if (it != f->delta.end())
            return it->second;
        if (f->base) {
            if (f->reads &&
                std::find(f->reads->begin(), f->reads->end(), id) ==
                    f->reads->end())
                f->reads->push_back(id);
            return std::as_const(*f->base).at(id);
        }
    }
    panic("TxnFrame chain has no base store");
}

PrimState &
TxnFrame::getForWrite(int id)
{
    auto it = delta.find(id);
    if (it == delta.end())
        it = delta.emplace(id, get(id)).first;
    return it->second;
}

void
TxnFrame::put(int id, PrimState state)
{
    delta[id] = std::move(state);
}

bool
TxnFrame::touched(int id) const
{
    return delta.count(id) != 0;
}

std::vector<int>
TxnFrame::touchedIds() const
{
    std::vector<int> ids;
    ids.reserve(delta.size());
    for (const auto &[id, st] : delta)
        ids.push_back(id);
    return ids;
}

void
TxnFrame::commit()
{
    if (parent) {
        for (auto &[id, st] : delta)
            parent->delta[id] = std::move(st);
    } else {
        for (auto &[id, st] : delta)
            base->at(id) = std::move(st);
    }
    delta.clear();
}

void
TxnFrame::mergeSiblings(std::vector<TxnFrame *> &branches,
                        const std::vector<ElabPrim> &prims)
{
    // Pairwise disjointness check before any branch commits, so a
    // double write leaves the parent untouched.
    for (size_t i = 0; i < branches.size(); i++) {
        for (size_t j = i + 1; j < branches.size(); j++) {
            for (const auto &[id, st] : branches[i]->delta) {
                if (branches[j]->touched(id)) {
                    const std::string &path =
                        prims[static_cast<size_t>(id)].path;
                    throw DoubleWriteError(
                        "parallel branches both updated '" + path +
                        "'");
                }
            }
        }
    }
    for (TxnFrame *b : branches)
        b->commit();
}

} // namespace bcl
