/**
 * @file
 * Textual accelerator-configuration specs ("mq=32,mshrs=2,mem=ideal")
 * shared by the fuzz differ's config grid, the fuzz_driver CLI, and
 * the what-if farm's worker protocol (DESIGN.md §11). A spec names
 * only the knobs it changes; everything else keeps the paper's
 * baseline design point from HwgcConfig's defaults.
 */

#ifndef HWGC_FUZZ_CONFIG_SPEC_H
#define HWGC_FUZZ_CONFIG_SPEC_H

#include <string>
#include <vector>

#include "core/hwgc_config.h"

namespace hwgc::fuzz
{

/**
 * Applies a comma-separated "key=value,..." spec onto @p config.
 * Keys: mq, spillq, throttle, comp, slots, waiters, mbc, tq, pend,
 * utlb, sweep, stlb, shared, mshrs, ptwmshrs, mem (ddr3|ideal), bw
 * (bus throttle bytes/cycle, 0 = off), kernel (dense|event), devices
 * (fleet-shape device array size, >= 1). An empty
 * spec is valid and changes nothing.
 * @return false (with a message in @p err) on any unknown key or
 *         malformed value; @p config may be partially updated then.
 */
bool applyConfigSpec(core::HwgcConfig &config, const std::string &spec,
                     std::string *err);

/** A named grid point. */
struct ConfigPoint
{
    std::string name;
    std::string spec;
};

/**
 * The CI-speed grid: the baseline design point plus a small-queue
 * point that forces mark-queue spills, both on the ideal memory
 * model so 200 seeds stay inside a smoke-test budget.
 */
std::vector<ConfigPoint> quickGrid();

/**
 * The thorough grid: quick plus DDR3 timing, bandwidth caps, MSHR
 * starvation, a shared-cache point and compressed references.
 */
std::vector<ConfigPoint> fullGrid();

} // namespace hwgc::fuzz

#endif // HWGC_FUZZ_CONFIG_SPEC_H
