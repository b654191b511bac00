#include "exp/report.hpp"

#include <array>
#include <charconv>
#include <cstdio>
#include <stdexcept>
#include <type_traits>

namespace spider::exp {

namespace {

/// Shortest-round-trip double formatting: deterministic, and parsing the
/// result recovers the exact bit pattern (std::to_chars guarantee).
std::string format_double(double d) {
  char buf[40];
  const auto res = std::to_chars(buf, buf + sizeof buf, d);
  return std::string(buf, res.ptr);
}

void escape_string(const std::string& s, std::string& out) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json run() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error("Json::parse: " + std::string(what) +
                             " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }

  bool consume_keyword(std::string_view kw) {
    if (text_.substr(pos_, kw.size()) != kw) return false;
    pos_ += kw.size();
    return true;
  }

  Json parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json(parse_string());
      case 't':
        if (!consume_keyword("true")) fail("bad keyword");
        return Json(true);
      case 'f':
        if (!consume_keyword("false")) fail("bad keyword");
        return Json(false);
      case 'n':
        if (!consume_keyword("null")) fail("bad keyword");
        return Json();
      default: return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    Json obj = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.set(key, parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return obj;
    }
  }

  Json parse_array() {
    expect('[');
    Json arr = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    for (;;) {
      arr.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return arr;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("bad \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // UTF-8 encode (BMP only; surrogate pairs are out of scope for
          // the reports we emit).
          if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          }
          break;
        }
        default: fail("bad escape");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    bool is_double = false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        if (c == '.' || c == 'e' || c == 'E') is_double = true;
        ++pos_;
      } else {
        break;
      }
    }
    const std::string_view tok = text_.substr(start, pos_ - start);
    if (tok.empty() || tok == "-") fail("bad number");
    if (!is_double) {
      std::int64_t i = 0;
      const auto res = std::from_chars(tok.data(), tok.data() + tok.size(), i);
      if (res.ec == std::errc() && res.ptr == tok.data() + tok.size()) {
        return Json(i);
      }
      // fall through (overflowing integer) to double
    }
    double d = 0;
    const auto res = std::from_chars(tok.data(), tok.data() + tok.size(), d);
    if (res.ec != std::errc() || res.ptr != tok.data() + tok.size()) {
      fail("bad number");
    }
    return Json(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

void Json::set(const std::string& key, Json v) {
  auto& obj = std::get<Object>(value_);
  for (auto& [k, old] : obj) {
    if (k == key) {
      old = std::move(v);
      return;
    }
  }
  obj.emplace_back(key, std::move(v));
}

const Json* Json::find(const std::string& key) const {
  const auto& obj = std::get<Object>(value_);
  for (const auto& [k, v] : obj) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Json& Json::at(const std::string& key) const {
  const Json* v = find(key);
  if (v == nullptr) throw std::out_of_range("Json: missing key " + key);
  return *v;
}

void Json::push_back(Json v) {
  std::get<Array>(value_).push_back(std::move(v));
}

const Json& Json::at(std::size_t i) const {
  return std::get<Array>(value_).at(i);
}

std::size_t Json::size() const {
  if (const auto* a = std::get_if<Array>(&value_)) return a->size();
  if (const auto* o = std::get_if<Object>(&value_)) return o->size();
  throw std::logic_error("Json::size on a scalar");
}

std::int64_t Json::as_int() const { return std::get<std::int64_t>(value_); }

std::uint64_t Json::as_uint() const {
  const std::int64_t i = std::get<std::int64_t>(value_);
  if (i < 0) throw std::runtime_error("Json: negative value for uint field");
  return static_cast<std::uint64_t>(i);
}

double Json::as_double() const {
  if (const auto* i = std::get_if<std::int64_t>(&value_)) {
    return static_cast<double>(*i);
  }
  return std::get<double>(value_);
}

void Json::dump_to(std::string& out, int indent, int depth) const {
  const auto newline = [&](int d) {
    if (indent < 0) return;
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  if (std::holds_alternative<std::nullptr_t>(value_)) {
    out += "null";
  } else if (const auto* b = std::get_if<bool>(&value_)) {
    out += *b ? "true" : "false";
  } else if (const auto* i = std::get_if<std::int64_t>(&value_)) {
    out += std::to_string(*i);
  } else if (const auto* d = std::get_if<double>(&value_)) {
    out += format_double(*d);
  } else if (const auto* s = std::get_if<std::string>(&value_)) {
    escape_string(*s, out);
  } else if (const auto* arr = std::get_if<Array>(&value_)) {
    out.push_back('[');
    for (std::size_t k = 0; k < arr->size(); ++k) {
      if (k > 0) out.push_back(',');
      newline(depth + 1);
      (*arr)[k].dump_to(out, indent, depth + 1);
    }
    if (!arr->empty()) newline(depth);
    out.push_back(']');
  } else {
    const auto& obj = std::get<Object>(value_);
    out.push_back('{');
    for (std::size_t k = 0; k < obj.size(); ++k) {
      if (k > 0) out.push_back(',');
      newline(depth + 1);
      escape_string(obj[k].first, out);
      out.push_back(':');
      if (indent >= 0) out.push_back(' ');
      obj[k].second.dump_to(out, indent, depth + 1);
    }
    if (!obj.empty()) newline(depth);
    out.push_back('}');
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

Json Json::parse(std::string_view text) { return Parser(text).run(); }

namespace report {

namespace {

Json histogram_to_json(const Histogram& h) {
  Json j = Json::object();
  j.set("min", h.min_value());
  j.set("max", h.max_value());
  j.set("buckets_per_decade", h.buckets_per_decade());
  j.set("count", h.count());
  j.set("sum", h.sum());
  j.set("min_seen", h.min_seen());
  j.set("max_seen", h.max_seen());
  // Sparse [bucket_index, count] pairs: latency histograms are mostly
  // empty buckets.
  Json counts = Json::array();
  const auto& c = h.counts();
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (c[i] == 0) continue;
    Json pair = Json::array();
    pair.push_back(static_cast<std::uint64_t>(i));
    pair.push_back(c[i]);
    counts.push_back(std::move(pair));
  }
  j.set("counts", std::move(counts));
  return j;
}

Histogram histogram_from_json(const Json& j) {
  Histogram h(j.at("min").as_double(), j.at("max").as_double(),
              static_cast<int>(j.at("buckets_per_decade").as_int()));
  std::vector<std::uint64_t> counts(h.counts().size(), 0);
  const Json& sparse = j.at("counts");
  for (std::size_t k = 0; k < sparse.size(); ++k) {
    const Json& pair = sparse.at(k);
    const auto idx = static_cast<std::size_t>(pair.at(0).as_uint());
    if (idx >= counts.size()) {
      throw std::runtime_error("metrics_from_json: histogram bucket out of range");
    }
    counts[idx] = pair.at(1).as_uint();
  }
  h.restore(std::move(counts), j.at("count").as_uint(),
            j.at("sum").as_double(), j.at("min_seen").as_double(),
            j.at("max_seen").as_double());
  return h;
}

Json double_series_to_json(const std::vector<double>& s) {
  Json arr = Json::array();
  for (const double v : s) arr.push_back(v);
  return arr;
}

std::vector<double> double_series_from_json(const Json& arr) {
  std::vector<double> out;
  out.reserve(arr.size());
  for (std::size_t i = 0; i < arr.size(); ++i) {
    out.push_back(arr.at(i).as_double());
  }
  return out;
}

/// One scalar counter of sim::Metrics. kCounters lists every counter in
/// report column order and drives the JSON keys and CSV columns alike:
/// adding a counter to Metrics takes one row here.
struct Counter {
  std::string_view name;
  std::variant<std::uint64_t sim::Metrics::*, core::Amount sim::Metrics::*,
               double sim::Metrics::*>
      member;
};

constexpr auto kCounters = std::to_array<Counter>({
    {"attempted", &sim::Metrics::attempted},
    {"succeeded", &sim::Metrics::succeeded},
    {"partial", &sim::Metrics::partial},
    {"failed", &sim::Metrics::failed},
    {"attempted_volume", &sim::Metrics::attempted_volume},
    {"delivered_volume", &sim::Metrics::delivered_volume},
    {"completed_volume", &sim::Metrics::completed_volume},
    {"total_attempt_rounds", &sim::Metrics::total_attempt_rounds},
    {"units_sent", &sim::Metrics::units_sent},
    {"sum_completion_latency", &sim::Metrics::sum_completion_latency},
    {"rebalance_events", &sim::Metrics::rebalance_events},
    {"rebalanced_volume", &sim::Metrics::rebalanced_volume},
    {"fees_paid", &sim::Metrics::fees_paid},
    {"fault_events_applied", &sim::Metrics::fault_events_applied},
    {"fault_node_downs", &sim::Metrics::fault_node_downs},
    {"fault_channel_closures", &sim::Metrics::fault_channel_closures},
    {"fault_withhold_spells", &sim::Metrics::fault_withhold_spells},
    {"fault_stale_spells", &sim::Metrics::fault_stale_spells},
    {"fault_units_failed", &sim::Metrics::fault_units_failed},
    {"fault_reroutes", &sim::Metrics::fault_reroutes},
    {"fault_withheld_acks", &sim::Metrics::fault_withheld_acks},
    {"fault_stale_decisions", &sim::Metrics::fault_stale_decisions},
    {"fault_backoff_retries", &sim::Metrics::fault_backoff_retries},
    {"fault_jam_spells", &sim::Metrics::fault_jam_spells},
    {"fault_jam_locked_volume", &sim::Metrics::fault_jam_locked_volume},
    {"fault_grief_spells", &sim::Metrics::fault_grief_spells},
    {"fault_griefed_acks", &sim::Metrics::fault_griefed_acks},
    {"cc_marked_acks", &sim::Metrics::cc_marked_acks},
    {"cc_window_decreases", &sim::Metrics::cc_window_decreases},
    {"cc_timeout_retries", &sim::Metrics::cc_timeout_retries},
});

/// Derived values, written after the counters for report consumers and
/// recomputed (never read back) on parse.
struct Derived {
  std::string_view name;
  double (sim::Metrics::*get)() const;
};

constexpr auto kDerived = std::to_array<Derived>({
    {"success_ratio", &sim::Metrics::success_ratio},
    {"success_volume", &sim::Metrics::success_volume},
    {"mean_completion_latency", &sim::Metrics::mean_completion_latency},
    {"latency_p50", &sim::Metrics::latency_p50},
    {"latency_p95", &sim::Metrics::latency_p95},
    {"latency_p99", &sim::Metrics::latency_p99},
});

void read_counter(const Json& v, std::uint64_t& out) { out = v.as_uint(); }
void read_counter(const Json& v, std::int64_t& out) { out = v.as_int(); }
void read_counter(const Json& v, double& out) { out = v.as_double(); }

/// Appends one cell plus its separator; callers drop the last comma.
template <typename T>
void append_csv_cell(std::string& row, T v) {
  if constexpr (std::is_same_v<T, double>) {
    row += format_double(v);
  } else {
    row += std::to_string(v);
  }
  row.push_back(',');
}

/// Parses a whole CSV cell; a cell that is empty, out of range or has
/// any unparsed character is rejected.
template <typename T>
void read_csv_cell(std::string_view cell, std::string_view name, T& out) {
  const char* end = cell.data() + cell.size();
  const auto res = std::from_chars(cell.data(), end, out);
  if (res.ec != std::errc() || res.ptr != end) {
    throw std::runtime_error("metrics_from_csv_row: bad " + std::string(name) +
                             " cell '" + std::string(cell) + "'");
  }
}

}  // namespace

Json metrics_to_json(const sim::Metrics& m) {
  Json j = Json::object();
  for (const Counter& c : kCounters) {
    std::visit([&](auto member) { j.set(std::string(c.name), m.*member); },
               c.member);
  }
  for (const Derived& d : kDerived) j.set(std::string(d.name), (m.*d.get)());
  j.set("latency_hist", histogram_to_json(m.latency_hist));
  j.set("series_bucket", m.series_bucket);
  j.set("delivered_series", double_series_to_json(m.delivered_series));
  Json chans = Json::array();
  for (const auto& s : m.channel_imbalance_series) {
    chans.push_back(double_series_to_json(s));
  }
  j.set("channel_imbalance_series", std::move(chans));
  j.set("queue_depth_series", double_series_to_json(m.queue_depth_series));
  return j;
}

sim::Metrics metrics_from_json(const Json& j) {
  sim::Metrics m;
  for (const Counter& c : kCounters) {
    const Json& v = j.at(std::string(c.name));
    std::visit([&](auto member) { read_counter(v, m.*member); }, c.member);
  }
  m.latency_hist = histogram_from_json(j.at("latency_hist"));
  m.series_bucket = j.at("series_bucket").as_double();
  m.delivered_series = double_series_from_json(j.at("delivered_series"));
  const Json& chans = j.at("channel_imbalance_series");
  m.channel_imbalance_series.reserve(chans.size());
  for (std::size_t i = 0; i < chans.size(); ++i) {
    m.channel_imbalance_series.push_back(
        double_series_from_json(chans.at(i)));
  }
  m.queue_depth_series = double_series_from_json(j.at("queue_depth_series"));
  return m;
}

std::string metrics_csv_header() {
  std::string header;
  for (const Counter& c : kCounters) (header += c.name) += ',';
  for (const Derived& d : kDerived) (header += d.name) += ',';
  header.pop_back();
  return header;
}

std::string metrics_csv_row(const sim::Metrics& m) {
  std::string row;
  for (const Counter& c : kCounters) {
    std::visit([&](auto member) { append_csv_cell(row, m.*member); },
               c.member);
  }
  for (const Derived& d : kDerived) append_csv_cell(row, (m.*d.get)());
  row.pop_back();
  return row;
}

sim::Metrics metrics_from_csv_row(const std::string& row) {
  std::vector<std::string_view> cols;
  const std::string_view text = row;
  std::size_t begin = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == ',') {
      cols.push_back(text.substr(begin, i - begin));
      begin = i + 1;
    }
  }
  const std::size_t columns = kCounters.size() + kDerived.size();
  if (cols.size() != columns) {
    throw std::runtime_error("metrics_from_csv_row: expected " +
                             std::to_string(columns) + " columns, got " +
                             std::to_string(cols.size()));
  }
  sim::Metrics m;
  for (std::size_t i = 0; i < kCounters.size(); ++i) {
    const Counter& c = kCounters[i];
    std::visit([&](auto member) { read_csv_cell(cols[i], c.name, m.*member); },
               c.member);
  }
  // The trailing derived columns are recomputed from the counters.
  return m;
}

}  // namespace report

}  // namespace spider::exp
