/**
 * @file
 * Config-spec parsing and the standard fuzz grids.
 */

#include "config_spec.h"

#include <cstdlib>
#include <sstream>

namespace hwgc::fuzz
{

namespace
{

bool
parseUnsigned(const std::string &value, unsigned &out)
{
    if (value.empty()) {
        return false;
    }
    char *end = nullptr;
    const unsigned long v = std::strtoul(value.c_str(), &end, 10);
    if (end == nullptr || *end != '\0') {
        return false;
    }
    out = unsigned(v);
    return true;
}

bool
parseDouble(const std::string &value, double &out)
{
    if (value.empty()) {
        return false;
    }
    char *end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    if (end == nullptr || *end != '\0') {
        return false;
    }
    out = v;
    return true;
}

} // namespace

bool
applyConfigSpec(core::HwgcConfig &config, const std::string &spec,
                std::string *err)
{
    const auto fail = [err](const std::string &what) {
        if (err != nullptr) {
            *err = what;
        }
        return false;
    };

    std::istringstream is(spec);
    std::string item;
    while (std::getline(is, item, ',')) {
        if (item.empty()) {
            continue;
        }
        const std::size_t eq = item.find('=');
        if (eq == std::string::npos) {
            return fail("config spec item '" + item + "' has no '='");
        }
        const std::string key = item.substr(0, eq);
        const std::string value = item.substr(eq + 1);

        unsigned u = 0;
        double d = 0.0;
        if (key == "mq" && parseUnsigned(value, u)) {
            config.markQueueEntries = u;
        } else if (key == "spillq" && parseUnsigned(value, u)) {
            config.spillQueueEntries = u;
        } else if (key == "throttle" && parseUnsigned(value, u)) {
            config.spillThrottle = u;
        } else if (key == "comp" && parseUnsigned(value, u)) {
            config.compressRefs = u != 0;
        } else if (key == "slots" && parseUnsigned(value, u)) {
            config.markerSlots = u;
        } else if (key == "waiters" && parseUnsigned(value, u)) {
            config.markerWalkWaiters = u;
        } else if (key == "mbc" && parseUnsigned(value, u)) {
            config.markBitCacheEntries = u;
        } else if (key == "tq" && parseUnsigned(value, u)) {
            config.tracerQueueEntries = u;
        } else if (key == "pend" && parseUnsigned(value, u)) {
            config.tracerPendingRefs = u;
        } else if (key == "utlb" && parseUnsigned(value, u)) {
            config.unitTlbEntries = u;
        } else if (key == "sweep" && parseUnsigned(value, u)) {
            config.numSweepers = u;
        } else if (key == "stlb" && parseUnsigned(value, u)) {
            config.sweeperTlbEntries = u;
        } else if (key == "shared" && parseUnsigned(value, u)) {
            config.sharedCache = u != 0;
        } else if (key == "mshrs" && parseUnsigned(value, u)) {
            config.sharedCacheParams.mshrs = u;
        } else if (key == "ptwmshrs" && parseUnsigned(value, u)) {
            config.ptwCacheParams.mshrs = u;
        } else if (key == "bw" && parseDouble(value, d)) {
            config.bus.throttleBytesPerCycle = d;
        } else if (key == "devices" && parseUnsigned(value, u) &&
                   u != 0) {
            config.devices = u;
        } else if (key == "mem") {
            if (value == "ddr3") {
                config.memModel = core::MemModel::Ddr3;
            } else if (value == "ideal") {
                config.memModel = core::MemModel::Ideal;
            } else {
                return fail("unknown mem model '" + value + "'");
            }
        } else if (key == "kernel") {
            const auto mode = parseKernelMode(value);
            if (!mode) {
                return fail("unknown kernel '" + value + "'");
            }
            config.kernel = *mode;
        } else {
            return fail("bad config spec item '" + item + "'");
        }
    }
    return true;
}

std::vector<ConfigPoint>
quickGrid()
{
    return {
        {"baseline-ideal", "mem=ideal"},
        {"tinyqueue-ideal",
         "mem=ideal,mq=32,spillq=16,throttle=12,utlb=8"},
    };
}

std::vector<ConfigPoint>
fullGrid()
{
    std::vector<ConfigPoint> grid = quickGrid();
    grid.push_back({"baseline-ddr3", ""});
    grid.push_back({"lowbw-ddr3", "bw=2.0"});
    grid.push_back({"starved-mshrs",
                    "shared=1,mshrs=1,ptwmshrs=1,mem=ideal"});
    grid.push_back({"shared-cache", "shared=1"});
    grid.push_back({"compressed",
                    "comp=1,mbc=1024,mem=ideal"});
    // Fleet shape: two devices behind one shared bus + memory, the
    // schedule's collections alternating across the array. Exercises
    // the multi-client arbitration and device retargeting paths the
    // single-device points cannot reach.
    grid.push_back({"fleet2-ideal", "devices=2,mem=ideal"});
    return grid;
}

} // namespace hwgc::fuzz
