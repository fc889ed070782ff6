/**
 * @file
 * In-order core cost model implementation.
 */

#include "core_model.h"

#include <algorithm>

#include "sim/checkpoint.h"

namespace hwgc::cpu
{

CoreModel::CoreModel(std::string name, const CoreParams &params,
                     mem::PhysMem &mem,
                     const mem::PageTable &page_table,
                     mem::MemDevice &memory)
    : params_(params), mem_(mem), pageTable_(page_table),
      l2_(name + ".l2", params.l2, nullptr, &memory),
      l1d_(name + ".l1d", params.l1d, &l2_, nullptr),
      dtlb_(name + ".dtlb", params.dtlbEntries)
{
}

Addr
CoreModel::translate(Addr va)
{
    if (const auto pa = dtlb_.lookup(va)) {
        return *pa;
    }
    // Rocket's PTW fetches PTEs through the L1 data cache, where the
    // hot page-table pages live during a GC.
    const mem::PageTable::WalkResult walk = pageTable_.walk(va);
    for (unsigned level = 0; level < walk.levels; ++level) {
        cycles_ += l1d_.access(walk.pteAddr[level], wordBytes, false,
                               cycles_);
    }
    fatal_if(!walk.valid, "CPU access to unmapped VA %#llx",
             (unsigned long long)va);
    dtlb_.insert(va, walk.pa, walk.pageBits);
    return walk.pa;
}

Word
CoreModel::load(Addr va)
{
    ++instrs_;
    ++loads_;
    const Addr pa = translate(va);
    cycles_ += l1d_.access(pa, wordBytes, false, cycles_);
    return mem_.readWord(pa);
}

void
CoreModel::store(Addr va, Word value)
{
    ++instrs_;
    ++stores_;
    const Addr pa = translate(va);
    const Tick latency = l1d_.access(pa, wordBytes, true, cycles_);
    cycles_ += params_.nonBlockingStores
        ? std::min<Tick>(latency, params_.l1d.hitLatency) : latency;
    mem_.writeWord(pa, value);
}

Word
CoreModel::amoFetchOr(Addr va, Word operand)
{
    ++instrs_;
    ++loads_;
    const Addr pa = translate(va);
    // AMOs occupy the cache port for a read-modify-write.
    cycles_ += l1d_.access(pa, wordBytes, true, cycles_);
    ++cycles_;
    return mem_.fetchOrWord(pa, operand);
}

void
CoreModel::branch(unsigned site, bool taken)
{
    ++instrs_;
    ++cycles_;
    std::uint8_t &counter = predictor_[site]; // 2-bit saturating.
    const bool predicted = counter >= 2;
    if (predicted != taken) {
        ++mispredicts_;
        cycles_ += params_.branchMispredictPenalty;
    }
    if (taken && counter < 3) {
        ++counter;
    } else if (!taken && counter > 0) {
        --counter;
    }
}

void
CoreModel::flushMicroarchState()
{
    l1d_.flush();
    l2_.flush();
    dtlb_.flush();
    predictor_.clear();
}

template <class Ar>
void
CoreModel::fields(Ar &ar)
{
    ar(l2_, l1d_, dtlb_, cycles_);
    ar.list(predictor_);
    ar(instrs_, mispredicts_, loads_, stores_);
}

template void CoreModel::fields(checkpoint::Serializer &);
template void CoreModel::fields(checkpoint::Deserializer &);

void
CoreModel::resetStats()
{
    instrs_.reset();
    mispredicts_.reset();
    loads_.reset();
    stores_.reset();
    l1d_.resetStats();
    l2_.resetStats();
    dtlb_.resetStats();
}

} // namespace hwgc::cpu
