/**
 * @file
 * The differential fuzz runner (DESIGN.md §11).
 *
 * One schedule is replayed through a matrix of universes — every
 * kernel in {dense, event} under every configuration
 * of a grid — plus a software-collector witness, all driven through
 * the identical deterministic op sequence. After every collection the
 * runner asserts the paper's core claims:
 *
 *   (a) cross-kernel equality: cycles, device counters and the mark
 *       set are bit-identical across kernels within a configuration,
 *       and the functional outcome (mark digest, objects freed) is
 *       identical across configurations;
 *   (b) HW == SW: the hardware mark set equals the software
 *       collector's reachability closure, object for object
 *       (gc::verifyMarks against the heap oracle, plus counter
 *       equality against the SwCollector witness universe).
 *
 * Any divergence stops the run and — when artifact writing is on —
 * dumps the schedule, a PR-4-style crash checkpoint of the diverged
 * universe, and a one-line replay command.
 */

#ifndef HWGC_FUZZ_DIFFER_H
#define HWGC_FUZZ_DIFFER_H

#include <string>
#include <vector>

#include "fuzz/config_spec.h"
#include "fuzz/schedule.h"
#include "sim/clocked.h"

namespace hwgc::fuzz
{

/** One kernel leg of the differential matrix. */
struct KernelCase
{
    KernelMode mode = KernelMode::Event;
    std::string name;
};

/** The standard matrix: dense, event. */
std::vector<KernelCase> kernelMatrix();

/** Resolves "dense" / "event" (see parseKernelMode); false if unknown. */
bool kernelCaseFromName(const std::string &name, KernelCase &out);

/** Knobs of one differential run. */
struct FuzzOptions
{
    /** Config grid; empty means quickGrid(). */
    std::vector<ConfigPoint> grid;

    /** Kernel legs; empty means the full kernelMatrix(). */
    std::vector<KernelCase> kernels;

    /** Where divergence artifacts land. */
    std::string artifactDir = ".";

    /** Write .sched/.crash/repro artifacts on divergence. */
    bool writeArtifacts = false;

    /**
     * Fault injection for testing the harness itself: clears one
     * marked object's mark bit after the hardware mark phase of the
     * first collection in the last (config, kernel) universe. The
     * differ must report the divergence; used by tests/test_fuzz.cc
     * and --inject-mark-bug to prove a real mark-bit bug would be
     * caught, dumped and replayable.
     */
    bool injectMarkBug = false;

    /** argv[0] spelling used when composing the repro line. */
    std::string driverName = "fuzz_driver";
};

/** Outcome of one differential run. */
struct FuzzResult
{
    bool ok = true;
    std::string error;      //!< First divergence (empty when ok).
    std::string configName; //!< Grid point that diverged.
    std::string kernelName; //!< Kernel leg that diverged.
    int failedOp = -1;      //!< Index into Schedule::ops, -1 if none.
    std::uint64_t collectsRun = 0; //!< Collections across all legs.

    /** @name Divergence artifacts (writeArtifacts only) @{ */
    std::string schedulePath;
    std::string crashPath;
    std::string reproLine;
    /** @} */
};

/** Replays @p schedule through the full differential matrix. */
FuzzResult runSchedule(const Schedule &schedule,
                       const FuzzOptions &options = {});

} // namespace hwgc::fuzz

#endif // HWGC_FUZZ_DIFFER_H
