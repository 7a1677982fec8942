#include "obs/quality/status.hpp"

#include <cctype>
#include <cstdlib>
#include <string_view>

#include "obs/json.hpp"

namespace kertbn::quality {

namespace {

// ------------------------------------------------------------- parsing --
// Minimal recursive-descent parser over exactly the subset to_json()
// emits. Failure is signaled by setting ok_ = false; every accessor
// degrades to a default so parsing never aborts. Nesting deeper than
// kMaxDepth fails too, so hostile input cannot exhaust the stack.

struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;

  const Value* find(std::string_view key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  std::string str(std::string_view key) const {
    const Value* v = find(key);
    return v != nullptr && v->kind == Kind::kString ? v->string : "";
  }
  double num(std::string_view key) const {
    const Value* v = find(key);
    return v != nullptr && v->kind == Kind::kNumber ? v->number : 0.0;
  }
  std::uint64_t u64(std::string_view key) const {
    return static_cast<std::uint64_t>(num(key));
  }
  bool boolean_at(std::string_view key) const {
    const Value* v = find(key);
    return v != nullptr && v->kind == Kind::kBool && v->boolean;
  }
};

class Parser {
 public:
  /// to_json() nests three deep (report -> streams -> stream).
  static constexpr std::size_t kMaxDepth = 16;

  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Value> parse() {
    Value v = parse_value();
    skip_ws();
    if (!ok_ || pos_ != text_.size()) return std::nullopt;
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) {
      ok_ = false;
      return '\0';
    }
    return text_[pos_];
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!consume(c)) ok_ = false;
  }

  bool consume_word(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  Value parse_value() {
    skip_ws();
    if (!ok_) return {};
    const char c = peek();
    if (c == '{' || c == '[') {
      if (depth_ == kMaxDepth) {
        ok_ = false;
        return {};
      }
      ++depth_;
      Value v = c == '{' ? parse_object() : parse_array();
      --depth_;
      return v;
    }
    if (c == '"') {
      Value v;
      v.kind = Value::Kind::kString;
      v.string = parse_string();
      return v;
    }
    if (consume_word("true")) {
      Value v;
      v.kind = Value::Kind::kBool;
      v.boolean = true;
      return v;
    }
    if (consume_word("false")) {
      Value v;
      v.kind = Value::Kind::kBool;
      return v;
    }
    if (consume_word("null")) return {};
    return parse_number();
  }

  Value parse_object() {
    Value v;
    v.kind = Value::Kind::kObject;
    expect('{');
    skip_ws();
    if (consume('}')) return v;
    while (ok_) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (consume(',')) continue;
      expect('}');
      break;
    }
    return v;
  }

  Value parse_array() {
    Value v;
    v.kind = Value::Kind::kArray;
    expect('[');
    skip_ws();
    if (consume(']')) return v;
    while (ok_) {
      v.array.push_back(parse_value());
      skip_ws();
      if (consume(',')) continue;
      expect(']');
      break;
    }
    return v;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (ok_) {
      if (pos_ >= text_.size()) {
        ok_ = false;
        break;
      }
      const char c = text_[pos_++];
      if (c == '"') break;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) {
        ok_ = false;
        break;
      }
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            ok_ = false;
            break;
          }
          // to_json only emits \u00XX control escapes.
          const unsigned code = static_cast<unsigned>(
              std::strtoul(std::string(text_.substr(pos_, 4)).c_str(),
                           nullptr, 16));
          pos_ += 4;
          out += static_cast<char>(code);
          break;
        }
        default: ok_ = false;
      }
    }
    return out;
  }

  Value parse_number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) {
      ok_ = false;
      return {};
    }
    Value v;
    v.kind = Value::Kind::kNumber;
    v.number = std::strtod(std::string(text_.substr(start, pos_ - start)).c_str(),
                           nullptr);
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
  bool ok_ = true;
};

}  // namespace

std::string StatusReport::to_json() const {
  std::string out;
  obs::JsonWriter w(out);
  w.begin_object()
      .field("type", "status_report")
      .field("generated_at", generated_at)
      .field("model_version", model_version)
      .field("model_health", model_health)
      .field("health_transitions", health_transitions)
      .key("recent_transitions")
      .begin_array();
  for (const TransitionStatus& t : recent_transitions) {
    w.begin_object()
        .field("at", t.at)
        .field("from", t.from)
        .field("to", t.to)
        .field("reason", t.reason)
        .end_object();
  }
  w.end_array()
      .field("failed_reconstructions", failed_reconstructions)
      .field("stale_skips", stale_skips)
      .field("last_failure_reason", last_failure_reason)
      .field("drift_notices", drift_notices)
      .field("last_drift_reason", last_drift_reason)
      .field("overall_drift", overall_drift)
      .field("scorer_ready", scorer_ready)
      .field("scored_snapshot_version", scored_snapshot_version)
      .field("rows_scored", rows_scored)
      .field("rows_unscored", rows_unscored)
      .key("streams")
      .begin_array();
  for (const StreamStatus& s : streams) {
    w.begin_object()
        .field("name", s.name)
        .field("count", s.count)
        .field("mean_abs_err", s.mean_abs_err)
        .field("mean_z", s.mean_z)
        .field("rms_z", s.rms_z)
        .field("mean_log_score", s.mean_log_score)
        .field("coverage", s.coverage)
        .field("drift", s.drift)
        .field("cusum", s.cusum)
        .field("page_hinkley", s.page_hinkley)
        .field("predicted_mean", s.predicted_mean)
        .field("predicted_stddev", s.predicted_stddev)
        .field("band_lo", s.band_lo)
        .field("band_hi", s.band_hi)
        .end_object();
  }
  w.end_array();

  if (recovery.has_value()) {
    w.key("recovery")
        .begin_object()
        .field("checkpoint_loaded", recovery->checkpoint_loaded)
        .field("server_restored", recovery->server_restored)
        .field("model_restored", recovery->model_restored)
        .field("checkpoint_seq", recovery->checkpoint_seq)
        .field("replayed_records", recovery->replayed_records)
        .field("skipped_crc", recovery->skipped_crc)
        .field("torn_tails", recovery->torn_tails)
        .field("replayed_ingests", recovery->replayed_ingests)
        .field("replayed_misses", recovery->replayed_misses)
        .field("malformed_payloads", recovery->malformed_payloads)
        .end_object();
  }

  if (overload.has_value()) {
    w.key("overload")
        .begin_object()
        .field("level", overload->level)
        .field("transitions", overload->transitions)
        .field("shed_intervals", overload->shed_intervals)
        .field("rejected_ingest", overload->rejected_ingest)
        .field("shed_queries", overload->shed_queries)
        .field("deadline_exceeded", overload->deadline_exceeded)
        .field("deferred_reconstructions", overload->deferred_reconstructions)
        .field("aborted_reconstructions", overload->aborted_reconstructions)
        .end_object();
  }

  w.field("query_count", query_count)
      .field("query_latency_p50_ns", query_latency_p50_ns)
      .field("query_latency_p95_ns", query_latency_p95_ns)
      .field("query_latency_p99_ns", query_latency_p99_ns)
      .field("simd_tier", simd_tier)
      .field("plan_cache_hits", plan_cache_hits)
      .field("plan_cache_misses", plan_cache_misses)
      .end_object();
  return out;
}

std::optional<StatusReport> status_report_from_json(const std::string& text) {
  const std::optional<Value> parsed = Parser(text).parse();
  if (!parsed.has_value() || parsed->kind != Value::Kind::kObject ||
      parsed->str("type") != "status_report") {
    return std::nullopt;
  }
  const Value& v = *parsed;

  StatusReport r;
  r.generated_at = v.num("generated_at");
  r.model_version = v.u64("model_version");
  r.model_health = v.str("model_health");
  r.health_transitions = v.u64("health_transitions");
  if (const Value* ts = v.find("recent_transitions");
      ts != nullptr && ts->kind == Value::Kind::kArray) {
    for (const Value& t : ts->array) {
      if (t.kind != Value::Kind::kObject) return std::nullopt;
      r.recent_transitions.push_back(TransitionStatus{
          t.num("at"), t.str("from"), t.str("to"), t.str("reason")});
    }
  }
  r.failed_reconstructions = v.u64("failed_reconstructions");
  r.stale_skips = v.u64("stale_skips");
  r.last_failure_reason = v.str("last_failure_reason");
  r.drift_notices = v.u64("drift_notices");
  r.last_drift_reason = v.str("last_drift_reason");

  r.overall_drift = v.str("overall_drift");
  r.scorer_ready = v.boolean_at("scorer_ready");
  r.scored_snapshot_version = v.u64("scored_snapshot_version");
  r.rows_scored = v.u64("rows_scored");
  r.rows_unscored = v.u64("rows_unscored");
  if (const Value* ss = v.find("streams");
      ss != nullptr && ss->kind == Value::Kind::kArray) {
    for (const Value& s : ss->array) {
      if (s.kind != Value::Kind::kObject) return std::nullopt;
      StreamStatus out;
      out.name = s.str("name");
      out.count = s.u64("count");
      out.mean_abs_err = s.num("mean_abs_err");
      out.mean_z = s.num("mean_z");
      out.rms_z = s.num("rms_z");
      out.mean_log_score = s.num("mean_log_score");
      out.coverage = s.num("coverage");
      out.drift = s.str("drift");
      out.cusum = s.num("cusum");
      out.page_hinkley = s.num("page_hinkley");
      out.predicted_mean = s.num("predicted_mean");
      out.predicted_stddev = s.num("predicted_stddev");
      out.band_lo = s.num("band_lo");
      out.band_hi = s.num("band_hi");
      r.streams.push_back(std::move(out));
    }
  }

  if (const Value* rec = v.find("recovery");
      rec != nullptr && rec->kind == Value::Kind::kObject) {
    RecoveryStatus out;
    out.checkpoint_loaded = rec->boolean_at("checkpoint_loaded");
    out.server_restored = rec->boolean_at("server_restored");
    out.model_restored = rec->boolean_at("model_restored");
    out.checkpoint_seq = rec->u64("checkpoint_seq");
    out.replayed_records = rec->u64("replayed_records");
    out.skipped_crc = rec->u64("skipped_crc");
    out.torn_tails = rec->u64("torn_tails");
    out.replayed_ingests = rec->u64("replayed_ingests");
    out.replayed_misses = rec->u64("replayed_misses");
    out.malformed_payloads = rec->u64("malformed_payloads");
    r.recovery = out;
  }

  if (const Value* ov = v.find("overload");
      ov != nullptr && ov->kind == Value::Kind::kObject) {
    OverloadStatus out;
    out.level = ov->str("level");
    out.transitions = ov->u64("transitions");
    out.shed_intervals = ov->u64("shed_intervals");
    out.rejected_ingest = ov->u64("rejected_ingest");
    out.shed_queries = ov->u64("shed_queries");
    out.deadline_exceeded = ov->u64("deadline_exceeded");
    out.deferred_reconstructions = ov->u64("deferred_reconstructions");
    out.aborted_reconstructions = ov->u64("aborted_reconstructions");
    r.overload = out;
  }

  r.query_count = v.u64("query_count");
  r.query_latency_p50_ns = v.u64("query_latency_p50_ns");
  r.query_latency_p95_ns = v.u64("query_latency_p95_ns");
  r.query_latency_p99_ns = v.u64("query_latency_p99_ns");
  r.simd_tier = v.str("simd_tier");
  r.plan_cache_hits = v.u64("plan_cache_hits");
  r.plan_cache_misses = v.u64("plan_cache_misses");
  return r;
}

}  // namespace kertbn::quality
