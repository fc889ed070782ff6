/**
 * @file
 * The cycle-accounting taxonomy (DESIGN.md §10).
 *
 * Every Clocked component classifies each elapsed cycle into exactly
 * one of these classes, so the accounting identity
 *
 *     busy + Σ stalls + idle == total cycles
 *
 * holds per component by construction. Classification is a *pure
 * function of end-of-cycle architectural state* — never of kernel
 * internals like the active mask (whose semantics differ between the
 * dense and event kernels) — so both kernels attribute every
 * cycle identically and enabling the profiler cannot perturb the
 * simulation.
 */

#ifndef HWGC_SIM_CYCLE_CLASS_H
#define HWGC_SIM_CYCLE_CLASS_H

#include <cstddef>

namespace hwgc
{

/** Where one component-cycle went (see file header). */
enum class CycleClass : unsigned
{
    Busy = 0,            //!< Did (or could do) observable work.
    StallDownstreamFull, //!< Output queue/buffer/consumer full.
    StallUpstreamEmpty,  //!< Ready, but the producer feeding this
                         //!< component holds/creates all its work.
    StallDram,           //!< Waiting on memory latency or bandwidth.
    StallBus,            //!< Interconnect port back-pressure.
    StallPtw,            //!< Waiting on an address translation.
    StallMarkbit,        //!< Mark-bit status-word round trips (the
                         //!< traffic the mark-bit cache filters).
    StallBarrier,        //!< Pipeline-coupling serialization (the
                         //!< coupled-tracer ablation).
    Idle,                //!< No work anywhere for this component.
};

/** Number of classes (array sizing). */
inline constexpr std::size_t numCycleClasses =
    std::size_t(CycleClass::Idle) + 1;

/** Stable lower-case name ("busy", "stallDram", ...). */
inline const char *
cycleClassName(CycleClass c)
{
    switch (c) {
      case CycleClass::Busy: return "busy";
      case CycleClass::StallDownstreamFull: return "stallDownstreamFull";
      case CycleClass::StallUpstreamEmpty: return "stallUpstreamEmpty";
      case CycleClass::StallDram: return "stallDram";
      case CycleClass::StallBus: return "stallBus";
      case CycleClass::StallPtw: return "stallPtw";
      case CycleClass::StallMarkbit: return "stallMarkbit";
      case CycleClass::StallBarrier: return "stallBarrier";
      case CycleClass::Idle: return "idle";
    }
    return "?";
}

/** True for the seven stall classes (not busy, not idle). */
inline bool
isStallClass(CycleClass c)
{
    return c != CycleClass::Busy && c != CycleClass::Idle;
}

} // namespace hwgc

#endif // HWGC_SIM_CYCLE_CLASS_H
