/**
 * @file
 * Differential fuzzing + what-if farm driver (DESIGN.md §11).
 *
 * Fuzz modes:
 *
 *   $ fuzz_driver --seeds=0:200 [--grid=quick|full] [--artifact-dir=D]
 *       Generate a schedule per seed and replay each through the
 *       kernel × config differential matrix. Any divergence writes
 *       the schedule, a crash checkpoint and a one-line repro, then
 *       gets shrunk to a minimal reproducer. Exit 1 on divergence.
 *
 *   $ fuzz_driver --schedule=F [--config=SPEC] [--kernel=K]
 *       Replay one saved schedule (the repro path). --config/--kernel
 *       narrow the matrix to the diverging universe.
 *
 *   --inject-mark-bug   Deliberately corrupt one mark bit in the last
 *                       universe — proves the harness catches, dumps
 *                       and reproduces a real mark-set bug.
 *
 * Farm modes (driven by scripts/whatif_farm.py):
 *
 *   $ fuzz_driver --farm-snapshot=S --seed=N [--pauses=P] [--live=L]
 *       Build a heap, churn it through P warm pauses, snapshot it.
 *
 *   $ fuzz_driver --farm-run=S --config=SPEC --label=NAME \
 *                 --result-json=R.json
 *       Fork the snapshot into one configuration: restore, run one
 *       measured pause, write the result record.
 *
 *   $ fuzz_driver --farm-cold --seed=N --config=SPEC ...
 *       The control: rebuild + re-warm from scratch instead of
 *       restoring, so the farm's speedup is measurable.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/hwgc_device.h"
#include "fuzz/differ.h"
#include "fuzz/farm.h"
#include "fuzz/shrink.h"
#include "gc/verifier.h"
#include "sim/telemetry.h"

namespace
{

using namespace hwgc;

double
hostSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Matches --key=value arguments. */
bool
argValue(const char *arg, const char *key, std::string &out)
{
    const std::size_t len = std::strlen(key);
    if (std::strncmp(arg, key, len) == 0) {
        out = arg + len;
        return true;
    }
    return false;
}

std::uint64_t
parseU64(const std::string &text, const char *what)
{
    char *end = nullptr;
    const std::uint64_t v = std::strtoull(text.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || text.empty()) {
        std::fprintf(stderr, "fuzz_driver: bad %s '%s'\n", what,
                     text.c_str());
        std::exit(2);
    }
    return v;
}

/** Everything one measured pause produces for the farm report. */
struct PauseRecord
{
    core::HwPhaseResult mark;
    core::HwPhaseResult sweep;
    std::uint64_t markedCount = 0;
    std::uint64_t markDigest = 0;
    std::uint64_t freedObjects = 0;
    std::uint64_t liveAfter = 0;
};

/** One stop-the-world pause through the standard driver sequence. */
PauseRecord
runPause(runtime::Heap &heap, core::HwgcDevice &device)
{
    heap.clearAllMarks();
    heap.publishRoots();
    device.resetPhaseState();
    device.resetStats();
    device.configure(heap);

    PauseRecord rec;
    rec.mark = device.runMark();
    rec.markedCount = heap.countMarked();
    rec.markDigest = gc::markSetDigest(heap);
    const auto marks_ok = gc::verifyMarks(heap);
    if (!marks_ok.ok) {
        std::fprintf(stderr, "fuzz_driver: mark verification failed: %s\n",
                     marks_ok.error.c_str());
        std::exit(1);
    }
    rec.sweep = device.runSweep();
    rec.freedObjects = heap.onAfterSweep();
    rec.liveAfter = heap.liveObjects();
    return rec;
}

/** Builds + warms a fresh universe the way --farm-snapshot does. */
fuzz::FarmUniverse
buildWarmUniverse(std::uint64_t seed, std::uint64_t pauses,
                  std::uint64_t live, std::uint64_t garbage,
                  unsigned churn_permille)
{
    fuzz::FarmUniverse u;
    u.params.seed = seed;
    if (live != 0) {
        u.params.liveObjects = live;
    }
    if (garbage != 0) {
        u.params.garbageObjects = garbage;
    }
    u.mem = std::make_unique<mem::PhysMem>();
    u.heap = std::make_unique<runtime::Heap>(*u.mem);
    u.builder = std::make_unique<workload::GraphBuilder>(*u.heap, u.params);
    u.builder->build();

    // Warm pauses always run the baseline configuration: the snapshot
    // must be identical no matter which grid point later forks it.
    core::HwgcDevice device(*u.mem, u.heap->pageTable(),
                            core::HwgcConfig{});
    for (std::uint64_t p = 0; p < pauses; ++p) {
        runPause(*u.heap, device);
        u.builder->mutate(double(churn_permille) / 1000.0);
    }

    u.meta.seed = seed;
    u.meta.warmPauses = pauses;
    u.meta.liveObjects = u.heap->liveObjects();
    u.meta.bytesAllocated = u.heap->bytesAllocated();
    return u;
}

void
writeResultJson(const std::string &path, const std::string &label,
                const std::string &mode, const std::string &spec,
                const fuzz::FarmMeta &meta, const PauseRecord &rec,
                double setup_ms, double pause_ms)
{
    std::FILE *f = path == "-" ? stdout : std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "fuzz_driver: cannot write '%s'\n",
                     path.c_str());
        std::exit(2);
    }
    const auto u64 = [](std::uint64_t v) {
        return std::to_string(v);
    };
    std::fprintf(f,
                 "{\n"
                 "  \"label\": \"%s\",\n"
                 "  \"mode\": \"%s\",\n"
                 "  \"config\": \"%s\",\n"
                 "  \"seed\": %s,\n"
                 "  \"warmPauses\": %s,\n"
                 "  \"snapshotLiveObjects\": %s,\n"
                 "  \"markCycles\": %s,\n"
                 "  \"sweepCycles\": %s,\n"
                 "  \"gcCycles\": %s,\n"
                 "  \"objectsMarked\": %s,\n"
                 "  \"refsTraced\": %s,\n"
                 "  \"cellsFreed\": %s,\n"
                 "  \"markedCount\": %s,\n"
                 "  \"markDigest\": \"0x%016llx\",\n"
                 "  \"freedObjects\": %s,\n"
                 "  \"liveAfter\": %s,\n"
                 "  \"setupHostMs\": %.3f,\n"
                 "  \"pauseHostMs\": %.3f,\n"
                 "  \"totalHostMs\": %.3f\n"
                 "}\n",
                 telemetry::jsonEscape(label).c_str(), mode.c_str(),
                 telemetry::jsonEscape(spec).c_str(), u64(meta.seed).c_str(),
                 u64(meta.warmPauses).c_str(),
                 u64(meta.liveObjects).c_str(),
                 u64(rec.mark.cycles).c_str(), u64(rec.sweep.cycles).c_str(),
                 u64(rec.mark.cycles + rec.sweep.cycles).c_str(),
                 u64(rec.mark.objectsMarked).c_str(),
                 u64(rec.mark.refsTraced).c_str(),
                 u64(rec.sweep.cellsFreed).c_str(),
                 u64(rec.markedCount).c_str(),
                 (unsigned long long)rec.markDigest,
                 u64(rec.freedObjects).c_str(), u64(rec.liveAfter).c_str(),
                 setup_ms, pause_ms, setup_ms + pause_ms);
    if (f != stdout) {
        std::fclose(f);
    }
}

void
usage()
{
    std::fprintf(
        stderr,
        "usage: fuzz_driver --seeds=A:B [--grid=quick|full]\n"
        "                   [--artifact-dir=D] [--no-shrink]\n"
        "       fuzz_driver --schedule=F [--config=SPEC] [--kernel=K]\n"
        "       fuzz_driver --farm-snapshot=S --seed=N [--pauses=P]\n"
        "                   [--live=L] [--garbage=G] [--churn=PERMILLE]\n"
        "       fuzz_driver --farm-run=S --config=SPEC --label=NAME\n"
        "                   [--kernel=K] [--result-json=R]\n"
        "       fuzz_driver --farm-cold --seed=N --config=SPEC ...\n"
        "       (--inject-mark-bug corrupts one mark bit, for testing\n"
        "        that the harness catches real bugs)\n");
}

} // namespace

int
main(int argc, char **argv)
{
    telemetry::Session session(argc, argv);

    std::string seeds_range, schedule_path, config_spec, kernel_name;
    std::string grid_name = "quick", artifact_dir = ".";
    std::string farm_snapshot, farm_run, label = "run", result_json;
    std::uint64_t seed = 1, pauses = 3, live = 0, garbage = 0;
    unsigned churn_permille = 300;
    bool farm_cold = false, inject = false, do_shrink = true;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        std::string value;
        if (argValue(arg, "--seeds=", seeds_range) ||
            argValue(arg, "--schedule=", schedule_path) ||
            argValue(arg, "--config=", config_spec) ||
            argValue(arg, "--kernel=", kernel_name) ||
            argValue(arg, "--grid=", grid_name) ||
            argValue(arg, "--artifact-dir=", artifact_dir) ||
            argValue(arg, "--farm-snapshot=", farm_snapshot) ||
            argValue(arg, "--farm-run=", farm_run) ||
            argValue(arg, "--label=", label) ||
            argValue(arg, "--result-json=", result_json)) {
            continue;
        }
        if (argValue(arg, "--seed=", value)) {
            seed = parseU64(value, "--seed");
        } else if (argValue(arg, "--pauses=", value)) {
            pauses = parseU64(value, "--pauses");
        } else if (argValue(arg, "--live=", value)) {
            live = parseU64(value, "--live");
        } else if (argValue(arg, "--garbage=", value)) {
            garbage = parseU64(value, "--garbage");
        } else if (argValue(arg, "--churn=", value)) {
            churn_permille = unsigned(parseU64(value, "--churn"));
        } else if (std::strcmp(arg, "--farm-cold") == 0) {
            farm_cold = true;
        } else if (std::strcmp(arg, "--inject-mark-bug") == 0) {
            inject = true;
        } else if (std::strcmp(arg, "--no-shrink") == 0) {
            do_shrink = false;
        } else {
            std::fprintf(stderr, "fuzz_driver: unknown argument '%s'\n",
                         arg);
            usage();
            return 2;
        }
    }

    session.meta().binary = "fuzz_driver";
    session.meta().seed = seed;
    session.meta().config = config_spec;

    // ---- Farm: snapshot a warm heap ------------------------------------
    if (!farm_snapshot.empty()) {
        const double t0 = hostSeconds();
        fuzz::FarmUniverse u = buildWarmUniverse(seed, pauses, live,
                                                 garbage, churn_permille);
        fuzz::saveFarmSnapshot(farm_snapshot, u.meta, u.params, *u.heap,
                               *u.builder, *u.mem);
        std::printf("farm snapshot: seed %llu, %llu warm pauses, %llu "
                    "live objects, %.0f ms -> %s\n",
                    (unsigned long long)seed, (unsigned long long)pauses,
                    (unsigned long long)u.meta.liveObjects,
                    (hostSeconds() - t0) * 1e3, farm_snapshot.c_str());
        return 0;
    }

    // ---- Farm: one measured pause (forked or cold) ---------------------
    if (!farm_run.empty() || farm_cold) {
        core::HwgcConfig config;
        std::string spec_err;
        if (!fuzz::applyConfigSpec(config, config_spec, &spec_err)) {
            std::fprintf(stderr, "fuzz_driver: %s\n", spec_err.c_str());
            return 2;
        }
        if (!kernel_name.empty()) {
            const auto mode = parseKernelMode(kernel_name);
            if (!mode) {
                std::fprintf(stderr, "fuzz_driver: unknown kernel '%s'\n",
                             kernel_name.c_str());
                return 2;
            }
            config.kernel = *mode;
        }

        const double t0 = hostSeconds();
        fuzz::FarmUniverse u =
            farm_cold ? buildWarmUniverse(seed, pauses, live, garbage,
                                          churn_permille)
                      : fuzz::loadFarmSnapshot(farm_run);
        const double t1 = hostSeconds();

        core::HwgcDevice device(*u.mem, u.heap->pageTable(), config);
        const PauseRecord rec = runPause(*u.heap, device);
        const double t2 = hostSeconds();

        session.meta().seed = u.meta.seed;
        session.meta().simCycles = rec.mark.cycles + rec.sweep.cycles;
        std::printf("%s [%s]: mark %llu + sweep %llu cycles, "
                    "%llu marked, %llu freed (setup %.0f ms, "
                    "pause %.0f ms)\n",
                    farm_cold ? "farm-cold" : "farm-run", label.c_str(),
                    (unsigned long long)rec.mark.cycles,
                    (unsigned long long)rec.sweep.cycles,
                    (unsigned long long)rec.markedCount,
                    (unsigned long long)rec.freedObjects,
                    (t1 - t0) * 1e3, (t2 - t1) * 1e3);
        if (!result_json.empty()) {
            writeResultJson(result_json, label,
                            farm_cold ? "cold" : "farm", config_spec,
                            u.meta, rec, (t1 - t0) * 1e3,
                            (t2 - t1) * 1e3);
        }
        return 0;
    }

    // ---- Fuzz: build the matrix options --------------------------------
    fuzz::FuzzOptions options;
    options.artifactDir = artifact_dir;
    options.writeArtifacts = true;
    options.injectMarkBug = inject;
    options.driverName = argv[0];
    if (grid_name == "full") {
        options.grid = fuzz::fullGrid();
    } else if (grid_name != "quick") {
        std::fprintf(stderr, "fuzz_driver: unknown grid '%s'\n",
                     grid_name.c_str());
        return 2;
    }
    if (!config_spec.empty() && config_spec != "default") {
        options.grid = {{"cli", config_spec}};
    }
    if (!kernel_name.empty()) {
        fuzz::KernelCase kc;
        if (!fuzz::kernelCaseFromName(kernel_name, kc)) {
            std::fprintf(stderr, "fuzz_driver: unknown kernel '%s'\n",
                         kernel_name.c_str());
            return 2;
        }
        options.kernels = {kc};
    }

    const auto report = [&](const fuzz::Schedule &schedule,
                            const fuzz::FuzzResult &result,
                            bool shrink_this) {
        std::printf("DIVERGENCE: %s\n", result.error.c_str());
        if (!result.schedulePath.empty()) {
            std::printf("  schedule:   %s\n", result.schedulePath.c_str());
        }
        if (!result.crashPath.empty()) {
            std::printf("  checkpoint: %s\n", result.crashPath.c_str());
        }
        if (!result.reproLine.empty()) {
            std::printf("  repro:      %s\n", result.reproLine.c_str());
        }
        if (!do_shrink || !shrink_this) {
            return;
        }
        fuzz::ShrinkStats stats;
        const fuzz::Schedule minimized =
            fuzz::shrink(schedule, options, result, &stats);
        const std::string min_path = artifact_dir + "/fuzz-seed" +
            std::to_string(schedule.seed) + ".min.sched";
        fuzz::saveFile(min_path, minimized);
        std::printf("  shrunk:     %zu -> %zu ops, %llu -> %llu live "
                    "(%u probes): %s\n",
                    stats.originalOps, stats.finalOps,
                    (unsigned long long)stats.originalLive,
                    (unsigned long long)stats.finalLive, stats.probes,
                    min_path.c_str());
    };

    // ---- Fuzz: replay one schedule file --------------------------------
    if (!schedule_path.empty()) {
        fuzz::Schedule schedule;
        std::string error;
        if (!fuzz::loadFile(schedule_path, schedule, &error)) {
            std::fprintf(stderr, "fuzz_driver: %s\n", error.c_str());
            return 2;
        }
        const fuzz::FuzzResult result = fuzz::runSchedule(schedule, options);
        if (!result.ok) {
            report(schedule, result, true);
            return 1;
        }
        std::printf("ok: %s (%llu collects across the matrix)\n",
                    schedule_path.c_str(),
                    (unsigned long long)result.collectsRun);
        return 0;
    }

    // ---- Fuzz: seed-range sweep ----------------------------------------
    if (seeds_range.empty()) {
        usage();
        return 2;
    }
    const std::size_t colon = seeds_range.find(':');
    if (colon == std::string::npos) {
        std::fprintf(stderr, "fuzz_driver: --seeds wants A:B, got '%s'\n",
                     seeds_range.c_str());
        return 2;
    }
    const std::uint64_t first =
        parseU64(seeds_range.substr(0, colon), "--seeds");
    const std::uint64_t last =
        parseU64(seeds_range.substr(colon + 1), "--seeds");
    if (last <= first) {
        std::fprintf(stderr, "fuzz_driver: empty seed range %llu:%llu\n",
                     (unsigned long long)first, (unsigned long long)last);
        return 2;
    }

    const double t0 = hostSeconds();
    std::uint64_t failures = 0, collects = 0;
    bool shrunk_one = false;
    for (std::uint64_t s = first; s < last; ++s) {
        const fuzz::Schedule schedule = fuzz::generate(s);
        const fuzz::FuzzResult result = fuzz::runSchedule(schedule, options);
        collects += result.collectsRun;
        if (!result.ok) {
            ++failures;
            // Only the first divergence is shrunk: shrinking replays
            // the full matrix ~30 times, and one minimal repro is
            // enough to start debugging.
            report(schedule, result, !shrunk_one);
            shrunk_one = true;
        }
        if ((s - first + 1) % 50 == 0) {
            std::printf("... %llu/%llu seeds, %llu collects, "
                        "%llu divergences (%.0f s)\n",
                        (unsigned long long)(s - first + 1),
                        (unsigned long long)(last - first),
                        (unsigned long long)collects,
                        (unsigned long long)failures, hostSeconds() - t0);
        }
    }
    std::printf("fuzz: %llu seeds, %llu collects, %llu divergences "
                "(%.0f s)\n",
                (unsigned long long)(last - first),
                (unsigned long long)collects, (unsigned long long)failures,
                hostSeconds() - t0);
    return failures == 0 ? 0 : 1;
}
