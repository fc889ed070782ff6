/**
 * @file
 * Statistics-framework unit tests: Histogram bucket-edge behaviour,
 * TimeSeries bucket growth, Vector bounds checking, and a JSON
 * round-trip of the telemetry exporter through a minimal parser.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/stats.h"
#include "sim/telemetry.h"

namespace hwgc
{
namespace
{

// ---------------------------------------------------------------------
// Histogram: power-of-two buckets, edges, saturation.
// ---------------------------------------------------------------------

TEST(Histogram, BucketEdgesArePowersOfTwo)
{
    stats::Histogram h("lat");
    // Bucket b holds v where 2^b <= v+1 < 2^(b+1):
    //   bucket 0: {0}, bucket 1: {1, 2}, bucket 2: {3..6}, ...
    h.sample(0);
    h.sample(1);
    h.sample(2);
    h.sample(3);
    h.sample(6);
    h.sample(7);
    EXPECT_EQ(h.buckets()[0], 1u);
    EXPECT_EQ(h.buckets()[1], 2u);
    EXPECT_EQ(h.buckets()[2], 2u);
    EXPECT_EQ(h.buckets()[3], 1u);
    EXPECT_EQ(h.count(), 6u);
    EXPECT_EQ(h.sum(), 0u + 1 + 2 + 3 + 6 + 7);
    EXPECT_EQ(h.minValue(), 0u);
    EXPECT_EQ(h.maxValue(), 7u);
    EXPECT_DOUBLE_EQ(h.mean(), 19.0 / 6.0);
}

TEST(Histogram, LargeSamplesSaturateTheLastBucket)
{
    stats::Histogram h("lat", 4); // Buckets cover {0}, {1,2}, {3..6}...
    h.sample(6);                  // Last in-range value for bucket 2.
    h.sample(7);                  // First value of the catch-all.
    h.sample(1'000'000);          // Way past the top edge.
    EXPECT_EQ(h.buckets().size(), 4u);
    EXPECT_EQ(h.buckets()[2], 1u);
    EXPECT_EQ(h.buckets()[3], 2u);
    EXPECT_EQ(h.maxValue(), 1'000'000u);
    h.sample(UINT64_MAX); // v + 1 wraps to 0: must not land in bucket 0.
    EXPECT_EQ(h.buckets()[0], 0u);
    EXPECT_EQ(h.buckets()[3], 3u);
    EXPECT_EQ(h.maxValue(), UINT64_MAX);
}

TEST(Histogram, ResetClearsEverything)
{
    stats::Histogram h("lat", 8);
    h.sample(5);
    h.sample(100);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0u);
    EXPECT_EQ(h.maxValue(), 0u);
    for (const auto b : h.buckets()) {
        EXPECT_EQ(b, 0u);
    }
    h.sample(3); // min_ must re-seed after the reset.
    EXPECT_EQ(h.minValue(), 3u);
}

// ---------------------------------------------------------------------
// TimeSeries: bucket growth and accumulation.
// ---------------------------------------------------------------------

TEST(TimeSeries, GrowsToCoverTheLatestSampleOnly)
{
    stats::TimeSeries ts("bw", 100);
    EXPECT_TRUE(ts.buckets().empty());
    ts.record(0, 7);
    EXPECT_EQ(ts.buckets().size(), 1u);
    ts.record(499, 1); // Tick 499 lands in bucket 4 -> 5 buckets.
    ASSERT_EQ(ts.buckets().size(), 5u);
    EXPECT_EQ(ts.buckets()[0], 7u);
    EXPECT_EQ(ts.buckets()[1], 0u);
    EXPECT_EQ(ts.buckets()[4], 1u);

    ts.record(99, 3); // Back-fill: same bucket as tick 0.
    EXPECT_EQ(ts.buckets()[0], 10u);
    EXPECT_EQ(ts.buckets().size(), 5u); // No further growth.
    EXPECT_EQ(ts.bucketWidth(), 100u);

    ts.reset();
    EXPECT_TRUE(ts.buckets().empty());
}

// ---------------------------------------------------------------------
// Vector: labelled sub-counters with hard bounds.
// ---------------------------------------------------------------------

TEST(Vector, AccumulatesPerLabelAndTotals)
{
    stats::Vector v("reqs", {"marker", "tracer", "sweeper"});
    v.add(0);
    v.add(1, 10);
    v.add(1);
    EXPECT_EQ(v.value(0), 1u);
    EXPECT_EQ(v.value(1), 11u);
    EXPECT_EQ(v.value(2), 0u);
    EXPECT_EQ(v.total(), 12u);
    EXPECT_EQ(v.label(1), "tracer");
}

TEST(VectorDeathTest, OutOfRangeIndexPanics)
{
    stats::Vector v("reqs", {"a", "b"});
    EXPECT_DEATH(v.add(2), "out of range");
}

// ---------------------------------------------------------------------
// JSON round-trip: a minimal recursive-descent parser, just enough to
// re-read what StatsRegistry::exportJson writes.
// ---------------------------------------------------------------------

struct Json
{
    enum class Kind { Null, Bool, Number, String, Array, Object };
    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<Json> items;
    std::map<std::string, Json> fields;

    const Json &
    at(const std::string &key) const
    {
        const auto it = fields.find(key);
        if (it == fields.end()) {
            throw std::runtime_error("missing key: " + key);
        }
        return it->second;
    }

    bool has(const std::string &key) const
    {
        return fields.count(key) != 0;
    }
};

class JsonParser
{
  public:
    explicit JsonParser(std::string text) : s_(std::move(text)) {}

    Json
    parse()
    {
        const Json v = value();
        skipWs();
        if (pos_ != s_.size()) {
            fail("trailing characters");
        }
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &why) const
    {
        throw std::runtime_error("JSON error at offset " +
                                 std::to_string(pos_) + ": " + why);
    }

    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_]))) {
            ++pos_;
        }
    }

    char
    peek()
    {
        skipWs();
        if (pos_ >= s_.size()) {
            fail("unexpected end of input");
        }
        return s_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c) {
            fail(std::string("expected '") + c + "'");
        }
        ++pos_;
    }

    bool
    consumeIf(char c)
    {
        if (peek() == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    std::string
    string()
    {
        expect('"');
        std::string out;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            char c = s_[pos_++];
            if (c == '\\') {
                if (pos_ >= s_.size()) {
                    fail("bad escape");
                }
                const char e = s_[pos_++];
                switch (e) {
                  case 'n': c = '\n'; break;
                  case 't': c = '\t'; break;
                  case 'r': c = '\r'; break;
                  case 'u':
                    // The exporter only emits \u00XX control codes.
                    if (pos_ + 4 > s_.size()) {
                        fail("bad \\u escape");
                    }
                    c = char(std::strtol(s_.substr(pos_, 4).c_str(),
                                         nullptr, 16));
                    pos_ += 4;
                    break;
                  default: c = e; break; // \" \\ \/
                }
            }
            out += c;
        }
        expect('"');
        return out;
    }

    Json
    value()
    {
        Json v;
        const char c = peek();
        if (c == '{') {
            ++pos_;
            v.kind = Json::Kind::Object;
            if (!consumeIf('}')) {
                do {
                    std::string key = string();
                    expect(':');
                    v.fields.emplace(std::move(key), value());
                } while (consumeIf(','));
                expect('}');
            }
        } else if (c == '[') {
            ++pos_;
            v.kind = Json::Kind::Array;
            if (!consumeIf(']')) {
                do {
                    v.items.push_back(value());
                } while (consumeIf(','));
                expect(']');
            }
        } else if (c == '"') {
            v.kind = Json::Kind::String;
            v.str = string();
        } else if (s_.compare(pos_, 4, "true") == 0) {
            v.kind = Json::Kind::Bool;
            v.boolean = true;
            pos_ += 4;
        } else if (s_.compare(pos_, 5, "false") == 0) {
            v.kind = Json::Kind::Bool;
            pos_ += 5;
        } else if (s_.compare(pos_, 4, "null") == 0) {
            pos_ += 4;
        } else {
            char *end = nullptr;
            v.kind = Json::Kind::Number;
            v.number = std::strtod(s_.c_str() + pos_, &end);
            if (end == s_.c_str() + pos_) {
                fail("bad number");
            }
            pos_ = std::size_t(end - s_.c_str());
        }
        return v;
    }

    std::string s_;
    std::size_t pos_ = 0;
};

/** A group carrying one of each stat kind, with known values. */
class ExportRig
{
  public:
    ExportRig()
        : scalar_("requests"), vector_("perClient", {"cpu", "gc"}),
          histogram_("latency", 8), series_("bandwidth", 100),
          group_("rig")
    {
        scalar_ += 42;
        vector_.add(0, 5);
        vector_.add(1, 7);
        histogram_.sample(3);
        histogram_.sample(4);
        series_.record(0, 11);
        series_.record(250, 22);
        group_.add(&scalar_);
        group_.add(&vector_);
        group_.add(&histogram_);
        group_.add(&series_);
    }

    stats::Scalar scalar_;
    stats::Vector vector_;
    stats::Histogram histogram_;
    stats::TimeSeries series_;
    stats::Group group_;
};

void
expectRigValues(const Json &g)
{
    EXPECT_DOUBLE_EQ(g.at("scalars").at("requests").number, 42.0);

    const Json &vec = g.at("vectors").at("perClient");
    EXPECT_DOUBLE_EQ(vec.at("labels").at("cpu").number, 5.0);
    EXPECT_DOUBLE_EQ(vec.at("labels").at("gc").number, 7.0);
    EXPECT_DOUBLE_EQ(vec.at("total").number, 12.0);

    const Json &hist = g.at("histograms").at("latency");
    EXPECT_DOUBLE_EQ(hist.at("count").number, 2.0);
    EXPECT_DOUBLE_EQ(hist.at("sum").number, 7.0);
    EXPECT_DOUBLE_EQ(hist.at("min").number, 3.0);
    EXPECT_DOUBLE_EQ(hist.at("max").number, 4.0);
    EXPECT_DOUBLE_EQ(hist.at("mean").number, 3.5);
    ASSERT_EQ(hist.at("buckets").items.size(), 8u);
    EXPECT_DOUBLE_EQ(hist.at("buckets").items[2].number, 2.0);

    const Json &ts = g.at("timeseries").at("bandwidth");
    EXPECT_DOUBLE_EQ(ts.at("bucketWidth").number, 100.0);
    ASSERT_EQ(ts.at("buckets").items.size(), 3u);
    EXPECT_DOUBLE_EQ(ts.at("buckets").items[0].number, 11.0);
    EXPECT_DOUBLE_EQ(ts.at("buckets").items[2].number, 22.0);
}

TEST(StatsJson, ExportRoundTripsThroughAParser)
{
    auto &registry = telemetry::StatsRegistry::global();
    ExportRig rig;
    const std::string path =
        registry.add("test.jsonRoundTrip", &rig.group_);

    telemetry::RunMetadata meta;
    meta.binary = "test_stats";
    meta.kernel = "event";
    meta.config = "round \"trip\"\n"; // Exercise string escaping.
    meta.simCycles = 1234;
    meta.extra.emplace_back("note", "hello");

    std::ostringstream os;
    registry.exportJson(os, meta);
    const Json root = JsonParser(os.str()).parse();

    EXPECT_EQ(root.at("meta").at("binary").str, "test_stats");
    EXPECT_EQ(root.at("meta").at("kernel").str, "event");
    EXPECT_EQ(root.at("meta").at("config").str, "round \"trip\"\n");
    EXPECT_DOUBLE_EQ(root.at("meta").at("sim_cycles").number, 1234.0);
    EXPECT_EQ(root.at("meta").at("note").str, "hello");
    EXPECT_EQ(root.at("intervals").kind, Json::Kind::Array);

    ASSERT_TRUE(root.at("groups").has(path));
    expectRigValues(root.at("groups").at(path));

    registry.remove(path);
    registry.clearRetired();
}

TEST(StatsJson, RetiredGroupsSurviveRemovalWithFinalValues)
{
    auto &registry = telemetry::StatsRegistry::global();
    std::string path;
    {
        ExportRig rig;
        path = registry.add("test.retired", &rig.group_);
        registry.remove(path); // Rig dies after this scope...
    }
    telemetry::RunMetadata meta;
    std::ostringstream os;
    registry.exportJson(os, meta); // ...but its values must persist.
    const Json root = JsonParser(os.str()).parse();
    ASSERT_TRUE(root.at("groups").has(path));
    expectRigValues(root.at("groups").at(path));
    registry.clearRetired();
}

TEST(StatsJson, IntervalSnapshotsRecordNonZeroDeltasOnly)
{
    auto &registry = telemetry::StatsRegistry::global();
    registry.clearSnapshots();

    stats::Scalar busy("busy");
    stats::Scalar idle("idle");
    stats::Group group("snap");
    group.add(&busy);
    group.add(&idle);
    const std::string path = registry.add("test.snap", &group);

    busy += 10;
    registry.snapshot(1000);
    busy += 5;
    registry.snapshot(2000);
    registry.snapshot(3000); // Nothing moved: empty delta row.
    EXPECT_EQ(registry.numSnapshots(), 3u);

    telemetry::RunMetadata meta;
    std::ostringstream os;
    registry.exportJson(os, meta);
    const Json root = JsonParser(os.str()).parse();
    const auto &rows = root.at("intervals").items;
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_DOUBLE_EQ(rows[0].at("cycle").number, 1000.0);
    EXPECT_DOUBLE_EQ(rows[0].at("deltas").at(path + ".busy").number,
                     10.0);
    EXPECT_FALSE(rows[0].at("deltas").has(path + ".idle"));
    EXPECT_DOUBLE_EQ(rows[1].at("deltas").at(path + ".busy").number,
                     5.0);
    EXPECT_TRUE(rows[2].at("deltas").fields.empty());

    registry.remove(path);
    registry.clearRetired();
}

// ---------------------------------------------------------------------
// Device churn: fleet mode registers and retires "system.hwgcN" style
// groups over and over as devices context-switch between tenants.
// ---------------------------------------------------------------------

TEST(StatsJson, DeviceChurnDoesNotLeakRetiredTwins)
{
    auto &registry = telemetry::StatsRegistry::global();

    stats::Scalar first_ctr("requests");
    stats::Group first("gen1");
    first.add(&first_ctr);
    first_ctr += 111;
    const std::string path = registry.add("test.churn.dev", &first);
    EXPECT_EQ(path, "test.churn.dev");
    registry.remove(path);

    // The slot's next occupant supersedes the retired values: the
    // export must carry exactly one group at this path (the live
    // one), not an ever-growing stack of "#N" twins.
    stats::Scalar second_ctr("requests");
    stats::Group second("gen2");
    second.add(&second_ctr);
    second_ctr += 7;
    const std::string path2 = registry.add("test.churn.dev", &second);
    EXPECT_EQ(path2, path);

    telemetry::RunMetadata meta;
    std::ostringstream os;
    registry.exportJson(os, meta);
    const Json root = JsonParser(os.str()).parse();
    ASSERT_TRUE(root.at("groups").has(path));
    EXPECT_FALSE(root.at("groups").has(path + "#1"));
    EXPECT_DOUBLE_EQ(
        root.at("groups").at(path).at("scalars").at("requests").number,
        7.0);

    registry.remove(path2);
    registry.clearRetired();
}

TEST(StatsJson, ReRegistrationStartsIntervalDeltasFresh)
{
    auto &registry = telemetry::StatsRegistry::global();
    registry.clearSnapshots();

    stats::Scalar first_ctr("requests");
    stats::Group first("gen1");
    first.add(&first_ctr);
    const std::string path = registry.add("test.churn.delta", &first);
    first_ctr += 100;
    registry.snapshot(1000);
    registry.remove(path);

    // The new occupant's counter starts far below the dead one's
    // running total; its first delta must be its own +3, not the
    // -97 the stale baseline used to produce.
    stats::Scalar second_ctr("requests");
    stats::Group second("gen2");
    second.add(&second_ctr);
    ASSERT_EQ(registry.add("test.churn.delta", &second), path);
    second_ctr += 3;
    registry.snapshot(2000);

    telemetry::RunMetadata meta;
    std::ostringstream os;
    registry.exportJson(os, meta);
    const Json root = JsonParser(os.str()).parse();
    const auto &rows = root.at("intervals").items;
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_DOUBLE_EQ(
        rows[0].at("deltas").at(path + ".requests").number, 100.0);
    EXPECT_DOUBLE_EQ(
        rows[1].at("deltas").at(path + ".requests").number, 3.0);

    registry.remove(path);
    registry.clearRetired();
    registry.clearSnapshots();
}

TEST(StatsRegistry, IndexedPrefixPinsTheSlotAndBumpsTheCounter)
{
    auto &registry = telemetry::StatsRegistry::global();
    // Restore pins a device to the index the image was saved under...
    EXPECT_EQ(registry.indexedPrefix("test.churn.idx", 5),
              "test.churn.idx5");
    // ...and later fresh devices must not be handed the same slot.
    EXPECT_EQ(registry.uniquePrefix("test.churn.idx"),
              "test.churn.idx6");
    // Re-pinning a low index is stable and does not rewind the
    // counter.
    EXPECT_EQ(registry.indexedPrefix("test.churn.idx", 2),
              "test.churn.idx2");
    EXPECT_EQ(registry.uniquePrefix("test.churn.idx"),
              "test.churn.idx7");
}

} // namespace
} // namespace hwgc
