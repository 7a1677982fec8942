/// The one JSON writer: comma placement across nesting, number / bool /
/// string formats, the byte format every surface shares (sink JSONL lines,
/// StatusReport, FleetStatus), and escaping that survives a parse.

#include "obs/json.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "fleet/status.hpp"
#include "jsonl_util.hpp"
#include "obs/quality/status.hpp"
#include "obs/sink.hpp"

namespace kertbn::obs {
namespace {

/// Every byte below 0x20 (NUL included), then a quote and a backslash.
std::string awkward_string() {
  std::string s;
  for (int c = 0; c < 0x20; ++c) s += static_cast<char>(c);
  s += "\"\\";
  return s;
}

TEST(JsonWriter, InsertsCommasAcrossNesting) {
  std::string out;
  JsonWriter w(out);
  w.begin_object()
      .field("a", std::uint64_t{1})
      .key("b")
      .begin_array()
      .value(true)
      .begin_object()
      .end_object()
      .begin_array()
      .end_array()
      .value("s")
      .end_array()
      .key("c")
      .begin_object()
      .field("d", false)
      .end_object()
      .field("e", 0.5)
      .end_object();
  EXPECT_EQ(out, R"({"a":1,"b":[true,{},[],"s"],"c":{"d":false},"e":0.5})");
}

TEST(JsonWriter, NumberAndBoolFormats) {
  std::string out;
  JsonWriter w(out);
  w.begin_array()
      .value(std::uint64_t{18446744073709551615ull})
      .value(0.1 + 0.2)
      .value(-2.5)
      .value(1e300)
      .value(true)
      .value(false)
      .end_array();
  EXPECT_EQ(out,
            "[18446744073709551615,0.30000000000000004,-2.5,"
            "1.0000000000000001e+300,true,false]");
}

TEST(JsonWriter, EscapesControlCharactersQuoteAndBackslash) {
  std::string out;
  JsonWriter(out).value(awkward_string() + "/\x7f\xc3\xa9");
  EXPECT_EQ(out,
            "\"\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007"
            "\\u0008\\t\\n\\u000b\\u000c\\r\\u000e\\u000f\\u0010\\u0011"
            "\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017\\u0018\\u0019"
            "\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f\\\"\\\\"
            "/\x7f\xc3\xa9\"");
  // Keys escape the same way.
  out.clear();
  JsonWriter(out).begin_object().field("k\"", "v").end_object();
  EXPECT_EQ(out, R"({"k\"":"v"})");
}

TEST(JsonWriter, StatusReportRoundTripsEveryControlCharacter) {
  quality::StatusReport r;
  r.model_health = awkward_string();
  r.last_failure_reason = "reason: " + awkward_string();
  r.recent_transitions.push_back({1.0, awkward_string(), "to", "why"});
  quality::StreamStatus s;
  s.name = awkward_string();
  r.streams.push_back(s);
  const std::string text = r.to_json();
  EXPECT_EQ(text.find('\n'), std::string::npos);
  const std::optional<quality::StatusReport> back =
      quality::status_report_from_json(text);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, r);
}

TEST(JsonWriter, FleetStatusEscapesQuotedGovernorLevel) {
  fleet::FleetStatus status;
  status.tenants = 2;
  status.shard_status.push_back({0, 2, "shed\"ding\\", 1, 0, 0, 0, 0});
  const std::string text = status.to_json();
  EXPECT_NE(text.find(R"("governor_level":"shed\"ding\\")"),
            std::string::npos)
      << text;
  const testutil::Json parsed = testutil::parse_json(text);
  EXPECT_EQ(parsed.at("tenants").as_u64(), 2u);
  EXPECT_EQ(parsed.at("shards_detail").array.at(0).at("governor_level").string,
            "shed\"ding\\");
}

TEST(JsonWriter, FleetStatusBytes) {
  fleet::FleetStatus status;
  status.ticks = 9;
  status.tenants = 1024;
  status.staleness_p99_ticks = 1.0 / 3.0;
  EXPECT_EQ(status.to_json(),
            "{\"ticks\":9,\"tenants\":1024,\"shards\":0,\"healthy\":0,"
            "\"probation\":0,\"quarantined\":0,\"health_none\":0,"
            "\"health_fresh\":0,\"health_stale\":0,\"health_fallback\":0,"
            "\"health_degraded\":0,\"quarantine_events\":0,"
            "\"readmissions\":0,\"crash_recoveries\":0,\"rebuilds\":0,"
            "\"scheduler_granted\":0,\"scheduler_deferred\":0,"
            "\"governor_deferred\":0,\"aborted_rebuilds\":0,"
            "\"staleness_p50_ticks\":0,"
            "\"staleness_p99_ticks\":0.33333333333333331,"
            "\"staleness_max_ticks\":0,\"shards_detail\":[]}");
  status.shard_status.push_back({0, 256, "normal", 1, 2, 3, 4, 5});
  status.shard_status.push_back({1, 256, "emergency", 6, 7, 8, 9, 10});
  const std::string text = status.to_json();
  EXPECT_NE(text.find(
                "\"shards_detail\":[{\"shard\":0,\"tenants\":256,"
                "\"governor_level\":\"normal\",\"rebuilds\":1,"
                "\"governor_deferred\":2,\"aborted_rebuilds\":3,"
                "\"shed_intervals\":4,\"restarts\":5},{\"shard\":1,"),
            std::string::npos)
      << text;
  EXPECT_EQ(text.substr(text.size() - 3), "}]}");
}

TEST(JsonWriter, FileSinkLineBytes) {
  const std::string path = ::testing::TempDir() + "kertbn_json_writer_" +
                           std::to_string(::getpid()) + ".jsonl";
  {
    FileSink sink(path);
    SpanEvent span;
    span.name = "kert.reconstruct";
    span.trace_id = 3;
    span.span_id = 4;
    span.thread_id = 1;
    span.start_ns = 81234;
    span.duration_ns = 1523011;
    sink.on_span(span);
    span.tags.push_back({"version", std::uint64_t{2}});
    span.tags.push_back({"ratio", 0.25});
    span.tags.push_back({"incremental", true});
    span.tags.push_back({"why", std::string("a\"b")});
    sink.on_span(span);
    LogEvent event;
    event.name = "drift";
    event.t_ns = 5;
    event.tags.push_back({"stream", std::string("response")});
    sink.on_event(event);
    MetricsSnapshot snap;
    sink.on_metrics(snap, 77);
    snap.counters["a.b"] = 3;
    snap.gauges["g"] = -2.5;
    HistogramStats h;
    h.count = 4;
    h.sum = 100;
    h.max = 60;
    h.buckets[0] = 1;
    h.buckets[3] = 3;
    snap.histograms["x.y"] = h;
    sink.on_metrics(snap, 78);
  }
  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  std::filesystem::remove(path);
  EXPECT_EQ(text,
            "{\"type\":\"span\",\"name\":\"kert.reconstruct\",\"trace\":3,"
            "\"span\":4,\"parent\":0,\"thread\":1,\"t_ns\":81234,"
            "\"dur_ns\":1523011}\n"
            "{\"type\":\"span\",\"name\":\"kert.reconstruct\",\"trace\":3,"
            "\"span\":4,\"parent\":0,\"thread\":1,\"t_ns\":81234,"
            "\"dur_ns\":1523011,\"tags\":{\"version\":2,\"ratio\":0.25,"
            "\"incremental\":true,\"why\":\"a\\\"b\"}}\n"
            "{\"type\":\"event\",\"name\":\"drift\",\"t_ns\":5,"
            "\"tags\":{\"stream\":\"response\"}}\n"
            "{\"type\":\"metrics\",\"t_ns\":77,\"counters\":{},"
            "\"gauges\":{},\"histograms\":{}}\n"
            "{\"type\":\"metrics\",\"t_ns\":78,\"counters\":{\"a.b\":3},"
            "\"gauges\":{\"g\":-2.5},\"histograms\":{\"x.y\":{\"count\":4,"
            "\"sum\":100,\"max\":60,\"buckets\":[1,0,0,3]}}}\n");
}

}  // namespace
}  // namespace kertbn::obs
