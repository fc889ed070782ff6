/**
 * @file
 * Telemetry layer implementation: registry, JSON export, Chrome
 * trace emission, kernel observation, CLI/env option parsing.
 */

#include "telemetry.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "sim/logging.h"

namespace hwgc::telemetry
{

/** JSON string escaping (quotes, backslashes, control characters). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

namespace
{

/**
 * Strict u64 option parse: a value strtoull would silently truncate
 * (trailing junk, a negative sign, overflow) keeps @p fallback with a
 * warning instead of becoming a surprise cycle count.
 */
std::uint64_t
parseU64Option(const char *text, const char *source,
               std::uint64_t fallback)
{
    if (text == nullptr || *text == '\0') {
        warn("%s: empty value ignored", source);
        return fallback;
    }
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE ||
        text[0] == '-') {
        warn("%s: unparseable value '%s' ignored", source, text);
        return fallback;
    }
    return v;
}

/** Strict non-negative double parse (same contract as the u64 one). */
double
parseDoubleOption(const char *text, const char *source, double fallback)
{
    if (text == nullptr || *text == '\0') {
        warn("%s: empty value ignored", source);
        return fallback;
    }
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || errno == ERANGE || v < 0.0) {
        warn("%s: unparseable value '%s' ignored", source, text);
        return fallback;
    }
    return v;
}

/** Boolean env convention: set and not "0" means on. */
bool
envFlag(const char *text)
{
    return text != nullptr && std::strcmp(text, "0") != 0;
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    out += jsonEscape(s);
    out += '"';
    return out;
}

/** Formats a double without locale surprises. */
std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

/**
 * Renders one group's JSON object body ({"scalars": ...}). Shared by
 * the live exporter and value retirement, so retired groups read
 * identically to live ones.
 */
std::string
renderGroupJson(const stats::Group &group)
{
    group.prepareRead();
    std::ostringstream os;
    os << "{";

    os << "\"scalars\": {";
    bool first = true;
    for (const auto *s : group.scalars()) {
        os << (first ? "" : ", ") << quoted(s->name()) << ": "
           << s->value();
        first = false;
    }
    os << "}";

    os << ", \"vectors\": {";
    first = true;
    for (const auto *v : group.vectors()) {
        os << (first ? "" : ", ") << quoted(v->name())
           << ": {\"labels\": {";
        for (std::size_t i = 0; i < v->size(); ++i) {
            os << (i != 0 ? ", " : "") << quoted(v->label(i)) << ": "
               << v->value(i);
        }
        os << "}, \"total\": " << v->total() << "}";
        first = false;
    }
    os << "}";

    os << ", \"histograms\": {";
    first = true;
    for (const auto *h : group.histograms()) {
        os << (first ? "" : ", ") << quoted(h->name())
           << ": {\"count\": " << h->count() << ", \"sum\": " << h->sum()
           << ", \"min\": " << h->minValue()
           << ", \"max\": " << h->maxValue()
           << ", \"mean\": " << jsonNumber(h->mean())
           << ", \"buckets\": [";
        for (std::size_t i = 0; i < h->buckets().size(); ++i) {
            os << (i != 0 ? ", " : "") << h->buckets()[i];
        }
        os << "]}";
        first = false;
    }
    os << "}";

    os << ", \"timeseries\": {";
    first = true;
    for (const auto *t : group.timeSeries()) {
        os << (first ? "" : ", ") << quoted(t->name())
           << ": {\"bucketWidth\": " << t->bucketWidth()
           << ", \"buckets\": [";
        for (std::size_t i = 0; i < t->buckets().size(); ++i) {
            os << (i != 0 ? ", " : "") << t->buckets()[i];
        }
        os << "]}";
        first = false;
    }
    os << "}";

    os << "}";
    return os.str();
}

double
hostSecondsNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

// ---------------------------------------------------------------------
// Options (CLI + environment).
// ---------------------------------------------------------------------

Options &
options()
{
    static Options opts;
    return opts;
}

void
applyEnv()
{
    Options &opts = options();
    if (const char *v = std::getenv("HWGC_STATS_JSON")) {
        opts.statsJson = v;
    }
    if (const char *v = std::getenv("HWGC_TRACE_OUT")) {
        opts.traceOut = v;
    }
    if (const char *v = std::getenv("HWGC_STATS_INTERVAL")) {
        opts.statsInterval = parseU64Option(v, "HWGC_STATS_INTERVAL",
                                            opts.statsInterval);
    }
    if (const char *v = std::getenv("HWGC_KERNEL")) {
        opts.kernel = v;
    }
    if (const char *v = std::getenv("HWGC_CHECKPOINT_IN")) {
        opts.checkpointIn = v;
    }
    if (const char *v = std::getenv("HWGC_CHECKPOINT_OUT")) {
        opts.checkpointOut = v;
    }
    if (const char *v = std::getenv("HWGC_CHECKPOINT_AT")) {
        opts.checkpointAt = parseU64Option(v, "HWGC_CHECKPOINT_AT",
                                           opts.checkpointAt);
    }
    if (const char *v = std::getenv("HWGC_PROFILE")) {
        opts.profile = envFlag(v);
    }
    if (const char *v = std::getenv("HWGC_WATCHDOG_SECS")) {
        opts.watchdogSecs = parseDoubleOption(v, "HWGC_WATCHDOG_SECS",
                                              opts.watchdogSecs);
    }
    if (const char *v = std::getenv("HWGC_BENCH_OUT")) {
        opts.benchOut = v;
    }
    // HWGC_DEBUG is applied by a static initializer in logging.cc.
}

void
parseArgs(int &argc, char **argv)
{
    auto valueOf = [](const char *arg,
                      const char *key) -> const char * {
        const std::size_t n = std::strlen(key);
        return std::strncmp(arg, key, n) == 0 ? arg + n : nullptr;
    };

    Options &opts = options();
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        if (const char *v = valueOf(argv[i], "--stats-json=")) {
            opts.statsJson = v;
        } else if (const char *v = valueOf(argv[i], "--trace-out=")) {
            opts.traceOut = v;
        } else if (const char *v =
                       valueOf(argv[i], "--stats-interval=")) {
            opts.statsInterval = parseU64Option(v, "--stats-interval",
                                                opts.statsInterval);
        } else if (const char *v = valueOf(argv[i], "--debug-flags=")) {
            Debug::parseFlagList(v);
        } else if (const char *v = valueOf(argv[i], "--kernel=")) {
            opts.kernel = v;
        } else if (const char *v = valueOf(argv[i], "--checkpoint-in=")) {
            opts.checkpointIn = v;
        } else if (const char *v =
                       valueOf(argv[i], "--checkpoint-out=")) {
            opts.checkpointOut = v;
        } else if (const char *v =
                       valueOf(argv[i], "--checkpoint-at=")) {
            opts.checkpointAt = parseU64Option(v, "--checkpoint-at",
                                               opts.checkpointAt);
        } else if (std::strcmp(argv[i], "--profile") == 0) {
            opts.profile = true;
        } else if (const char *v =
                       valueOf(argv[i], "--watchdog-secs=")) {
            opts.watchdogSecs = parseDoubleOption(v, "--watchdog-secs",
                                                  opts.watchdogSecs);
        } else if (const char *v = valueOf(argv[i], "--bench-out=")) {
            opts.benchOut = v;
        } else {
            argv[out++] = argv[i];
        }
    }
    argc = out;
}

// ---------------------------------------------------------------------
// StatsRegistry.
// ---------------------------------------------------------------------

StatsRegistry &
StatsRegistry::global()
{
    static StatsRegistry registry;
    return registry;
}

std::string
StatsRegistry::add(const std::string &path, const stats::Group *group)
{
    panic_if(group == nullptr, "StatsRegistry::add(nullptr)");
    std::string actual = path;
    unsigned suffix = 1;
    // Only *live* groups force a "#N" suffix. A retired entry at the
    // same path is superseded instead: under device churn the path
    // names a slot whose occupants come and go, and keeping every
    // dead occupant's values would grow the export without bound
    // while pushing the live one onto an ever-changing "#N" path.
    while (groups_.count(actual) != 0) {
        actual = path + "#" + std::to_string(suffix++);
    }
    retired_.erase(actual);
    dropSnapshotBaselines(actual);
    groups_.emplace(actual, group);
    return actual;
}

void
StatsRegistry::remove(const std::string &path)
{
    const auto it = groups_.find(path);
    if (it == groups_.end()) {
        return;
    }
    // Retire the final values so later exports still cover this
    // component even though its stats objects are about to die.
    retired_[path] = RetiredGroup{renderGroupJson(*it->second)};
    groups_.erase(it);
    // Drop the interval-delta baselines with the group: its values are
    // frozen now, and if another component re-registers this path its
    // first delta must be measured from zero, not from the dead
    // component's totals (cur - old reads as a huge negative delta).
    dropSnapshotBaselines(path);
}

void
StatsRegistry::dropSnapshotBaselines(const std::string &path)
{
    const std::string prefix = path + ".";
    auto it = snapshotPrev_.lower_bound(prefix);
    while (it != snapshotPrev_.end() &&
           it->first.compare(0, prefix.size(), prefix) == 0) {
        it = snapshotPrev_.erase(it);
    }
}

std::string
StatsRegistry::uniquePrefix(const std::string &base)
{
    return base + std::to_string(prefixCounters_[base]++);
}

std::string
StatsRegistry::indexedPrefix(const std::string &base, unsigned n)
{
    unsigned &counter = prefixCounters_[base];
    counter = std::max(counter, n + 1);
    return base + std::to_string(n);
}

void
StatsRegistry::dump(std::ostream &os) const
{
    for (const auto &[path, group] : groups_) {
        os << "========== " << path << " ==========\n";
        group->dump(os);
    }
}

void
StatsRegistry::snapshot(Tick now)
{
    SnapshotRow row;
    row.tick = now;
    for (const auto &[path, group] : groups_) {
        for (const auto *s : group->scalars()) {
            const std::string key = path + "." + s->name();
            const std::uint64_t cur = s->value();
            auto [it, inserted] = snapshotPrev_.try_emplace(key, 0);
            const std::int64_t delta =
                static_cast<std::int64_t>(cur - it->second);
            it->second = cur;
            if (delta != 0) {
                row.deltas.emplace_back(key, delta);
            }
        }
    }
    snapshots_.push_back(std::move(row));
}

void
StatsRegistry::clearSnapshots()
{
    snapshots_.clear();
    snapshotPrev_.clear();
}

void
StatsRegistry::exportJson(std::ostream &os,
                          const RunMetadata &meta) const
{
    os << "{\n  \"meta\": {";
    os << "\"binary\": " << quoted(meta.binary);
    os << ", \"kernel\": " << quoted(meta.kernel);
    os << ", \"config\": " << quoted(meta.config);
    os << ", \"seed\": " << meta.seed;
    os << ", \"sim_cycles\": " << meta.simCycles;
    os << ", \"host_seconds\": " << jsonNumber(meta.hostSeconds);
    for (const auto &[key, value] : meta.extra) {
        os << ", " << quoted(key) << ": " << quoted(value);
    }
    os << "},\n  \"groups\": {";

    // Live and retired groups, merged in path order (std::map keeps
    // both sorted; paths are unique across the two).
    bool first = true;
    auto live = groups_.begin();
    auto dead = retired_.begin();
    while (live != groups_.end() || dead != retired_.end()) {
        const bool takeLive =
            dead == retired_.end() ||
            (live != groups_.end() && live->first < dead->first);
        os << (first ? "" : ",") << "\n    ";
        if (takeLive) {
            os << quoted(live->first) << ": "
               << renderGroupJson(*live->second);
            ++live;
        } else {
            os << quoted(dead->first) << ": " << dead->second.json;
            ++dead;
        }
        first = false;
    }
    os << "\n  },\n  \"intervals\": [";
    for (std::size_t i = 0; i < snapshots_.size(); ++i) {
        const auto &row = snapshots_[i];
        os << (i != 0 ? "," : "") << "\n    {\"cycle\": " << row.tick
           << ", \"deltas\": {";
        for (std::size_t j = 0; j < row.deltas.size(); ++j) {
            os << (j != 0 ? ", " : "") << quoted(row.deltas[j].first)
               << ": " << row.deltas[j].second;
        }
        os << "}}";
    }
    os << "\n  ]\n}\n";
}

void
StatsRegistry::exportJsonFile(const std::string &path,
                              const RunMetadata &meta) const
{
    std::ostringstream buffer;
    exportJson(buffer, meta);
    const std::string text = buffer.str();
    if (path == "-") {
        std::fwrite(text.data(), 1, text.size(), stdout);
        return;
    }
    std::FILE *f = std::fopen(path.c_str(), "w");
    fatal_if(f == nullptr,
             "telemetry: cannot write stats JSON to '%s': %s",
             path.c_str(), std::strerror(errno));
    const std::size_t written =
        std::fwrite(text.data(), 1, text.size(), f);
    const bool bad = written != text.size() || std::fflush(f) != 0 ||
                     std::ferror(f) != 0;
    const int close_err = std::fclose(f);
    fatal_if(bad || close_err != 0,
             "telemetry: error writing stats JSON to '%s': %s",
             path.c_str(), std::strerror(errno));
}

void
StatsRegistry::clearRetired()
{
    retired_.clear();
    clearSnapshots();
}

// ---------------------------------------------------------------------
// TraceWriter.
// ---------------------------------------------------------------------

TraceWriter &
TraceWriter::global()
{
    static TraceWriter writer;
    return writer;
}

void
TraceWriter::open(const std::string &path)
{
    close();
    out_ = std::fopen(path.c_str(), "w");
    fatal_if(out_ == nullptr,
             "telemetry: cannot open trace file '%s': %s",
             path.c_str(), std::strerror(errno));
    path_ = path;
    events_ = 0;
    tracks_.clear();
    std::fputs("[\n", out_);
}

void
TraceWriter::close()
{
    if (out_ == nullptr) {
        return;
    }
    // A full disk surfaces here, not as a silently truncated trace:
    // emits are unchecked for speed, so the stream error flag plus a
    // final flush carry the verdict for the whole file.
    std::fputs("\n]\n", out_);
    const bool bad = std::fflush(out_) != 0 || std::ferror(out_) != 0;
    const int close_err = std::fclose(out_);
    out_ = nullptr;
    fatal_if(bad || close_err != 0,
             "telemetry: error writing trace file '%s': %s",
             path_.c_str(), std::strerror(errno));
}

void
TraceWriter::emitPrefix()
{
    if (events_ != 0) {
        std::fputs(",\n", out_);
    }
    ++events_;
}

unsigned
TraceWriter::trackId(const std::string &track)
{
    const auto it = tracks_.find(track);
    if (it != tracks_.end()) {
        return it->second;
    }
    const unsigned tid = unsigned(tracks_.size()) + 1;
    tracks_.emplace(track, tid);
    emitPrefix();
    std::fprintf(out_,
                 "{\"ph\": \"M\", \"pid\": 0, \"tid\": %u, "
                 "\"name\": \"thread_name\", "
                 "\"args\": {\"name\": \"%s\"}}",
                 tid, jsonEscape(track).c_str());
    return tid;
}

void
TraceWriter::completeSpan(const std::string &track,
                          const std::string &name, Tick begin, Tick end)
{
    if (!enabled() || end <= begin) {
        return;
    }
    const unsigned tid = trackId(track);
    emitPrefix();
    // 1 cycle = 1 ns at the 1 GHz core clock; ts is in microseconds.
    std::fprintf(out_,
                 "{\"ph\": \"X\", \"pid\": 0, \"tid\": %u, "
                 "\"name\": \"%s\", \"ts\": %.3f, \"dur\": %.3f}",
                 tid, jsonEscape(name).c_str(), double(begin) / 1000.0,
                 double(end - begin) / 1000.0);
}

void
TraceWriter::counter(const std::string &name, Tick when, double value)
{
    if (!enabled()) {
        return;
    }
    emitPrefix();
    std::fprintf(out_,
                 "{\"ph\": \"C\", \"pid\": 0, \"name\": \"%s\", "
                 "\"ts\": %.3f, \"args\": {\"value\": %s}}",
                 jsonEscape(name).c_str(), double(when) / 1000.0,
                 jsonNumber(value).c_str());
}

void
TraceWriter::instant(const std::string &track, const std::string &name,
                     Tick when)
{
    if (!enabled()) {
        return;
    }
    const unsigned tid = trackId(track);
    emitPrefix();
    std::fprintf(out_,
                 "{\"ph\": \"i\", \"pid\": 0, \"tid\": %u, "
                 "\"name\": \"%s\", \"ts\": %.3f, \"s\": \"t\"}",
                 tid, jsonEscape(name).c_str(), double(when) / 1000.0);
}

// ---------------------------------------------------------------------
// SystemTracer.
// ---------------------------------------------------------------------

SystemTracer::SystemTracer(std::vector<std::string> component_names,
                           std::string track_prefix)
    : names_(std::move(component_names)), prefix_(std::move(track_prefix)),
      spans_(names_.size())
{
    snapshotInterval_ = options().statsInterval;
    // Counter tracks default to 1k-cycle sampling when no interval was
    // requested; snapshots stay off unless explicitly enabled.
    counterInterval_ =
        snapshotInterval_ != 0 ? snapshotInterval_ : 1000;
    nextSample_ = counterInterval_;
    nextSnapshot_ = snapshotInterval_;
}

void
SystemTracer::addCounter(std::string name,
                         std::function<double()> sample)
{
    counters_.push_back({std::move(name), std::move(sample), false,
                         0.0, 0});
}

void
SystemTracer::addRateCounter(std::string name,
                             std::function<double()> cumulative)
{
    counters_.push_back({std::move(name), std::move(cumulative), true,
                         0.0, 0});
}

void
SystemTracer::sampleCounters(Tick now)
{
    TraceWriter &tw = TraceWriter::global();
    if (!tw.enabled()) {
        return;
    }
    for (auto &c : counters_) {
        const double cur = c.sample();
        double value = cur;
        if (c.rate) {
            const Tick dt = now - c.prevTick;
            value = dt > 0 ? std::max(0.0, (cur - c.prev) / double(dt))
                           : 0.0;
            c.prev = cur;
            c.prevTick = now;
        }
        tw.counter(prefix_ + c.name, now, value);
    }
}

void
SystemTracer::maybeSample(Tick now)
{
    if (!counters_.empty() && now >= nextSample_) {
        sampleCounters(now);
        nextSample_ = now - (now % counterInterval_) + counterInterval_;
    }
    if (snapshotInterval_ != 0 && now >= nextSnapshot_) {
        StatsRegistry::global().snapshot(now);
        nextSnapshot_ =
            now - (now % snapshotInterval_) + snapshotInterval_;
    }
}

void
SystemTracer::cycleExecuted(Tick now, std::uint64_t active_mask)
{
    TraceWriter &tw = TraceWriter::global();
    if (tw.enabled()) {
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            if ((active_mask & (std::uint64_t(1) << i)) == 0) {
                continue;
            }
            Span &span = spans_[i];
            if (span.open && now - span.lastActive <= mergeGap) {
                span.lastActive = now;
                continue;
            }
            if (span.open) {
                tw.completeSpan(prefix_ + names_[i], "active",
                                span.start, span.lastActive + 1);
            }
            span.open = true;
            span.start = now;
            span.lastActive = now;
        }
    }
    maybeSample(now);
}

void
SystemTracer::fastForwarded(Tick from, Tick to)
{
    // No component ticks during a gap, so counters and scalar stats
    // are frozen: one sample/snapshot at the gap entry is exact, and
    // the due marks just advance past the gap.
    if (!counters_.empty() && nextSample_ < to) {
        sampleCounters(from);
        nextSample_ = to - (to % counterInterval_) + counterInterval_;
    }
    if (snapshotInterval_ != 0 && nextSnapshot_ < to) {
        StatsRegistry::global().snapshot(from);
        nextSnapshot_ =
            to - (to % snapshotInterval_) + snapshotInterval_;
    }
}

void
SystemTracer::flush(Tick now)
{
    TraceWriter &tw = TraceWriter::global();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        Span &span = spans_[i];
        if (span.open) {
            tw.completeSpan(prefix_ + names_[i], "active", span.start,
                            std::min(now, span.lastActive + 1));
            span.open = false;
        }
    }
    sampleCounters(now);
}

// ---------------------------------------------------------------------
// Session.
// ---------------------------------------------------------------------

Session::Session(int &argc, char **argv)
{
    meta_.binary = argc > 0 ? argv[0] : "";
    applyEnv();
    parseArgs(argc, argv);
    start();
}

Session::Session(std::string binary_name)
{
    meta_.binary = std::move(binary_name);
    applyEnv();
    start();
}

void
Session::start()
{
    startSeconds_ = hostSecondsNow();
    if (!options().traceOut.empty()) {
        TraceWriter::global().open(options().traceOut);
    }
    const std::string &stats_path = options().statsJson;
    if (!stats_path.empty() && stats_path != "-") {
        // An unwritable --stats-json= path must fail before the run,
        // not lose the results after hours of simulation.
        std::FILE *probe = std::fopen(stats_path.c_str(), "w");
        fatal_if(probe == nullptr,
                 "telemetry: cannot write stats JSON to '%s': %s",
                 stats_path.c_str(), std::strerror(errno));
        std::fclose(probe);
    }
}

Session::~Session()
{
    finish();
}

void
Session::finish()
{
    if (finished_) {
        return;
    }
    finished_ = true;
    meta_.hostSeconds = hostSecondsNow() - startSeconds_;
    if (!options().statsJson.empty()) {
        StatsRegistry::global().exportJsonFile(options().statsJson,
                                               meta_);
    }
    TraceWriter::global().close();
}

} // namespace hwgc::telemetry
