/**
 * @file
 * Farm snapshot serialization.
 */

#include "farm.h"

#include "sim/checkpoint.h"
#include "sim/logging.h"

namespace hwgc::fuzz
{

namespace
{

constexpr std::uint64_t farmVersion = 1;

} // namespace

void
saveFarmSnapshot(const std::string &path, const FarmMeta &meta,
                 const workload::GraphParams &params,
                 const runtime::Heap &heap,
                 const workload::GraphBuilder &builder,
                 const mem::PhysMem &mem)
{
    checkpoint::Serializer ser;
    ser.chunk("farm", farmVersion, meta, mem.size());
    ser.chunk("graphparams", params);
    ser.chunk("heap", heap);
    ser.chunk("builder", builder);
    ser.chunk("physmem", mem);
    ser.writeFile(path);
}

FarmUniverse
loadFarmSnapshot(const std::string &path)
{
    checkpoint::Deserializer des = checkpoint::Deserializer::fromFile(path);
    FarmUniverse u;

    std::uint64_t version = 0;
    std::uint64_t mem_bytes = 0;
    des.chunk("farm", version, u.meta, mem_bytes);
    fatal_if(version != farmVersion,
             "farm snapshot '%s': unsupported version %llu", path.c_str(),
             static_cast<unsigned long long>(version));
    des.chunk("graphparams", u.params);

    // Construct the universe before touching the image: the Heap
    // constructor maps the metadata regions and formats memory, all of
    // which the physmem chunk (restored last) overwrites with the
    // snapshotted bytes — including the page-table entries the
    // restored pagesAllocated count refers to.
    u.mem = std::make_unique<mem::PhysMem>(mem_bytes);
    u.heap = std::make_unique<runtime::Heap>(*u.mem);
    u.builder =
        std::make_unique<workload::GraphBuilder>(*u.heap, u.params);

    des.chunk("heap", *u.heap);
    des.chunk("builder", *u.builder);
    des.chunk("physmem", *u.mem);
    return u;
}

} // namespace hwgc::fuzz
