/**
 * @file
 * Deterministic heap-graph synthesis.
 *
 * The paper evaluates on DaCapo benchmarks whose GC behaviour is a
 * function of heap *shape*: live-set size, out-degree distribution,
 * sharing (DAG edges), cycles, array fraction, object sizes, and a
 * small set of very hot objects (Fig 21a: "about 10% of mark
 * operations access the same 56 objects"). GraphBuilder constructs
 * heaps with controlled values for each of these, and mutates them
 * between GC pauses to model allocation churn.
 */

#ifndef HWGC_WORKLOAD_GRAPH_GEN_H
#define HWGC_WORKLOAD_GRAPH_GEN_H

#include <vector>

#include "runtime/heap.h"
#include "sim/random.h"

namespace hwgc::workload
{

/** Shape parameters of a synthetic heap graph. */
struct GraphParams
{
    std::uint64_t liveObjects = 10000;   //!< Reachable objects.
    std::uint64_t garbageObjects = 6000; //!< Unreachable objects.
    unsigned numRoots = 64;              //!< Root count (stacks etc.).

    double avgRefs = 3.0;      //!< Mean out-degree of plain objects.
    std::uint32_t maxRefs = 12;
    std::uint32_t minRefs = 0; //!< Out-degree floor (1 = no leaves).
    double avgPayloadWords = 4.0; //!< Mean non-reference payload.
    std::uint32_t maxPayloadWords = 24;

    double arrayFraction = 0.1;  //!< Fraction that are ref arrays.
    double avgArrayLen = 24.0;
    std::uint32_t maxArrayLen = 256;
    double largeFraction = 0.01; //!< Fraction allocated in the LOS.

    double shareProb = 0.25; //!< P(edge targets an existing object).
    double cycleProb = 0.05; //!< P(shared edge creates a back edge).

    /**
     * Real heaps exhibit allocation-order locality: most references
     * point at objects allocated nearby in time, which live on nearby
     * pages (the generational hypothesis). With this probability a
     * shared edge targets one of the most recently allocated
     * `localityWindow` objects instead of a uniformly random one.
     * Both collectors benefit identically (TLB/cache locality).
     */
    double localityBias = 0.85;
    std::size_t localityWindow = 256;

    std::uint64_t hotObjects = 0;  //!< Size of the hot set (Fig 21).
    double hotRefFraction = 0.0;   //!< P(shared edge targets hot set).

    /**
     * Adversarial sparse layout: allocate this many dead padding
     * objects (payload-only, maxPayloadWords each) after every real
     * allocation. Live objects end up spread thinly across many more
     * pages than their count suggests, thrashing the unit TLBs and
     * the mark-bit locality the accelerator otherwise enjoys. The
     * pads are unreachable, so the first sweep turns them into
     * free-list holes and the sparseness persists.
     */
    std::uint64_t sparsePadObjects = 0;

    std::uint64_t seed = 1;

    /** Checkpoint field list (farm snapshots). */
    template <class Ar>
    void
    fields(Ar &ar)
    {
        ar(liveObjects, garbageObjects, numRoots, avgRefs, maxRefs,
           minRefs, avgPayloadWords, maxPayloadWords, arrayFraction,
           avgArrayLen, maxArrayLen, largeFraction, shareProb, cycleProb,
           localityBias, localityWindow, hotObjects, hotRefFraction,
           sparsePadObjects, seed);
    }
};

/** Builds and churns a heap graph matching a GraphParams shape. */
class GraphBuilder
{
  public:
    GraphBuilder(runtime::Heap &heap, const GraphParams &params);

    /**
     * Allocates the full graph (live + garbage), wires references,
     * registers roots and publishes them to hwgc-space.
     */
    void build();

    /**
     * Models mutator activity between two GC pauses: drops a fraction
     * of edges (creating garbage), rewires others, and allocates new
     * objects attached to survivors.
     *
     * @param churn Fraction of the live set turned over (0..1).
     */
    void mutate(double churn);

    /** Objects created so far (live + garbage, pre-sweep). */
    std::uint64_t objectsBuilt() const { return built_; }

    /**
     * @name Builder-state serialization (farm snapshots)
     *
     * Captures the RNG stream and the live/hot candidate lists so a
     * restored builder continues mutate() bit-identically to the one
     * that was snapshotted. Loading must run on a builder
     * constructed with the same GraphParams (seed-checked) over a
     * heap whose state was restored from the same snapshot.
     * @{
     */
    template <class Ar> void fields(Ar &ar);
    /** @} */

  private:
    /** Allocates one object with shape drawn from the parameters. */
    runtime::ObjRef allocateOne(bool allow_array);

    /** Picks a reference target among existing objects (hot-biased). */
    runtime::ObjRef pickExisting();

    /** Fills every reference slot of @p obj. */
    void wireRefs(runtime::ObjRef obj,
                  std::vector<runtime::ObjRef> &frontier);

    runtime::Heap &heap_;
    GraphParams params_;
    Rng rng_;
    std::vector<runtime::ObjRef> liveSet_;  //!< Candidates for sharing.
    std::vector<runtime::ObjRef> hotSet_;
    std::uint64_t built_ = 0;
};

} // namespace hwgc::workload

#endif // HWGC_WORKLOAD_GRAPH_GEN_H
