#include "obs/export.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <sstream>
#include <utility>

namespace hierdb::obs {

namespace {

// JSON string escaping for the few label strings we emit (labels are
// ASCII identifiers, but escape defensively).
std::string JsonStr(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  std::ostringstream os;
  os << v;
  return os.str();
}

double ToUs(uint64_t ns) { return static_cast<double>(ns) / 1000.0; }

const TraceOp* OpOf(const QueryTrace& t, int32_t id) {
  if (id < 0 || static_cast<size_t>(id) >= t.ops.size()) return nullptr;
  return &t.ops[static_cast<size_t>(id)];
}

std::string EventName(const QueryTrace& t, const TraceEvent& e) {
  const TraceOp* op = OpOf(t, e.op);
  if (e.kind == EventKind::kSpan) {
    return op != nullptr ? op->label : std::string("op");
  }
  std::string name = EventKindName(e.kind);
  if (op != nullptr) name += ":" + op->label;
  return name;
}

}  // namespace

std::string ChromeTraceJson(const QueryTrace& trace) {
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"otherData\":{"
     << "\"backend\":" << JsonStr(trace.backend)
     << ",\"strategy\":" << JsonStr(trace.strategy)
     << ",\"response_ms\":" << Num(trace.response_ms)
     << ",\"virtual_time\":" << (trace.virtual_time ? "true" : "false")
     << "},\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",";
    first = false;
  };
  // Process (node) name metadata.
  for (uint32_t n = 0; n < trace.nodes; ++n) {
    sep();
    os << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << n
       << ",\"tid\":0,\"args\":{\"name\":\"node " << n << "\"}}";
  }
  // Guest lanes get their own threads after the node's workers, named
  // once per (node, lane).
  const int32_t guest_tid0 = static_cast<int32_t>(trace.workers_per_node);
  std::set<std::pair<int32_t, int32_t>> guest_lanes;
  for (const TraceEvent& e : trace.events) {
    if (e.guest < 0 || !guest_lanes.emplace(e.node, e.guest).second) continue;
    sep();
    os << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" << e.node
       << ",\"tid\":" << guest_tid0 + e.guest
       << ",\"args\":{\"name\":\"guest " << e.guest << "\"}}";
  }
  for (const TraceEvent& e : trace.events) {
    sep();
    const int32_t tid = e.worker >= 0  ? e.worker
                        : e.guest >= 0 ? guest_tid0 + e.guest
                        : e.op >= 0    ? e.op
                                       : 0;
    os << "{\"name\":" << JsonStr(EventName(trace, e)) << ",\"pid\":"
       << e.node << ",\"tid\":" << tid << ",\"ts\":" << Num(ToUs(e.start_ns));
    if (e.kind == EventKind::kSpan) {
      os << ",\"ph\":\"X\",\"dur\":" << Num(ToUs(e.end_ns - e.start_ns));
    } else {
      os << ",\"ph\":\"i\",\"s\":\"t\"";
    }
    os << ",\"args\":{\"activations\":" << e.activations
       << ",\"rows_in\":" << e.rows_in << ",\"rows_out\":" << e.rows_out;
    if (e.kind == EventKind::kSpan) {
      os << ",\"busy_ms\":" << Num(static_cast<double>(e.detail) / 1e6);
    } else {
      os << ",\"detail\":" << e.detail;
    }
    if (e.op >= 0) os << ",\"op\":" << e.op;
    if (e.query > 0) os << ",\"query\":" << e.query;
    os << "}}";
  }
  os << "]}";
  return os.str();
}

std::string PlanDot(const QueryTrace& trace) {
  // Fold span events into per-op totals for the annotations.
  std::vector<OpSpanAgg> per_op(trace.ops.size());
  for (const TraceEvent& e : trace.events) {
    if (e.kind != EventKind::kSpan || e.op < 0 ||
        static_cast<size_t>(e.op) >= per_op.size()) {
      continue;
    }
    OpSpanAgg& a = per_op[static_cast<size_t>(e.op)];
    if (a.activations == 0) {
      a.first_ns = e.start_ns;
    } else {
      a.first_ns = std::min(a.first_ns, e.start_ns);
    }
    a.last_ns = std::max(a.last_ns, e.end_ns);
    a.busy_ns += e.detail;
    a.activations += e.activations;
    a.rows_in += e.rows_in;
    a.rows_out += e.rows_out;
  }

  std::ostringstream os;
  os << "digraph plan {\n"
     << "  rankdir=BT;\n"
     << "  node [shape=box, fontname=\"monospace\", fontsize=10];\n"
     << "  label=\"" << trace.backend << "/" << trace.strategy
     << "  response=" << Num(trace.response_ms) << "ms\";\n";
  for (const TraceOp& op : trace.ops) {
    os << "  op" << op.id << " [label=\"" << op.label;
    if (op.est_rows > 0 || op.actual_rows > 0) {
      os << "\\nest=" << Num(op.est_rows) << " act=" << op.actual_rows;
    }
    const OpSpanAgg& a = per_op[op.id];
    if (!a.empty()) {
      os << "\\nbusy=" << Num(static_cast<double>(a.busy_ns) / 1e6)
         << "ms span=[" << Num(static_cast<double>(a.first_ns) / 1e6) << ","
         << Num(static_cast<double>(a.last_ns) / 1e6) << "]ms acts="
         << a.activations;
    }
    os << "\"";
    if (op.kind == "build" || op.kind == "buildscan") {
      os << ", style=filled, fillcolor=lightyellow";
    } else if (op.kind == "probe") {
      os << ", style=filled, fillcolor=lightblue";
    }
    os << "];\n";
  }
  for (const TraceOp& op : trace.ops) {
    for (uint32_t in : op.inputs) {
      os << "  op" << in << " -> op" << op.id << ";\n";
    }
  }
  // One summary node per chain with the est-vs-actual delta.
  for (const ChainCard& c : trace.chains) {
    os << "  chain" << c.chain << " [shape=note, label=\"chain " << c.chain
       << "\\nest=" << Num(c.est_rows) << " rows";
    if (c.has_actual) {
      os << "\\nactual=" << c.actual_rows;
    }
    os << "\"];\n";
  }
  os << "}\n";
  return os.str();
}

std::string PlanJson(const QueryTrace& trace) {
  std::ostringstream os;
  os << "{\"backend\":" << JsonStr(trace.backend) << ",\"strategy\":"
     << JsonStr(trace.strategy) << ",\"response_ms\":"
     << Num(trace.response_ms) << ",\"ops\":[";
  for (size_t i = 0; i < trace.ops.size(); ++i) {
    const TraceOp& op = trace.ops[i];
    if (i > 0) os << ",";
    os << "{\"id\":" << op.id << ",\"label\":" << JsonStr(op.label)
       << ",\"kind\":" << JsonStr(op.kind) << ",\"chain\":" << op.chain
       << ",\"inputs\":[";
    for (size_t k = 0; k < op.inputs.size(); ++k) {
      if (k > 0) os << ",";
      os << op.inputs[k];
    }
    os << "],\"est_rows\":" << Num(op.est_rows) << ",\"actual_rows\":"
       << op.actual_rows << "}";
  }
  os << "],\"chains\":[";
  for (size_t i = 0; i < trace.chains.size(); ++i) {
    const ChainCard& c = trace.chains[i];
    if (i > 0) os << ",";
    os << "{\"chain\":" << c.chain << ",\"est_rows\":" << Num(c.est_rows)
       << ",\"actual_rows\":" << c.actual_rows << ",\"has_actual\":"
       << (c.has_actual ? "true" : "false") << "}";
  }
  os << "],\"events\":" << trace.events.size() << "}";
  return os.str();
}

// ---------------------------------------------------------------------
// Minimal JSON validator (no parse tree; grammar walk only).

namespace {

class JsonWalker {
 public:
  explicit JsonWalker(std::string_view s) : s_(s) {}

  Status Validate() {
    SkipWs();
    HIERDB_RETURN_NOT_OK(Value());
    SkipWs();
    if (pos_ != s_.size()) return Fail("trailing content");
    return Status::OK();
  }

  /// True when the walked value was an object containing a top-level
  /// "traceEvents" key whose value is an array.
  bool saw_trace_events() const { return saw_trace_events_; }

 private:
  Status Fail(const std::string& what) {
    return Status::InvalidArgument("invalid JSON at offset " +
                                   std::to_string(pos_) + ": " + what);
  }
  void SkipWs() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(
                                   s_[pos_]))) {
      ++pos_;
    }
  }
  bool Eat(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status Value() {
    if (pos_ >= s_.size()) return Fail("unexpected end");
    switch (s_[pos_]) {
      case '{': return Object(/*top=*/depth_ == 0);
      case '[': return Array();
      case '"': return String(nullptr);
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }

  Status Object(bool top) {
    ++depth_;
    ++pos_;  // '{'
    SkipWs();
    if (Eat('}')) { --depth_; return Status::OK(); }
    for (;;) {
      SkipWs();
      std::string key;
      HIERDB_RETURN_NOT_OK(String(&key));
      SkipWs();
      if (!Eat(':')) return Fail("expected ':'");
      SkipWs();
      const bool mark = top && key == "traceEvents";
      if (mark && pos_ < s_.size() && s_[pos_] == '[') {
        saw_trace_events_ = true;
      }
      HIERDB_RETURN_NOT_OK(Value());
      SkipWs();
      if (Eat(',')) continue;
      if (Eat('}')) { --depth_; return Status::OK(); }
      return Fail("expected ',' or '}'");
    }
  }

  Status Array() {
    ++depth_;
    ++pos_;  // '['
    SkipWs();
    if (Eat(']')) { --depth_; return Status::OK(); }
    for (;;) {
      SkipWs();
      HIERDB_RETURN_NOT_OK(Value());
      SkipWs();
      if (Eat(',')) continue;
      if (Eat(']')) { --depth_; return Status::OK(); }
      return Fail("expected ',' or ']'");
    }
  }

  Status String(std::string* out) {
    if (!Eat('"')) return Fail("expected string");
    while (pos_ < s_.size()) {
      char c = s_[pos_];
      if (c == '"') {
        ++pos_;
        return Status::OK();
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return Fail("bad escape");
        char e = s_[pos_];
        if (e == 'u') {
          for (int k = 0; k < 4; ++k) {
            ++pos_;
            if (pos_ >= s_.size() ||
                !std::isxdigit(static_cast<unsigned char>(s_[pos_]))) {
              return Fail("bad \\u escape");
            }
          }
        } else if (std::string_view("\"\\/bfnrt").find(e) ==
                   std::string_view::npos) {
          return Fail("bad escape");
        }
        ++pos_;
        continue;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("control char in string");
      }
      if (out != nullptr) out->push_back(c);
      ++pos_;
    }
    return Fail("unterminated string");
  }

  Status Number() {
    size_t start = pos_;
    if (Eat('-')) {}
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Fail("expected value");
    char* end = nullptr;
    std::string tok(s_.substr(start, pos_ - start));
    std::strtod(tok.c_str(), &end);
    if (end == nullptr || *end != '\0') return Fail("bad number");
    return Status::OK();
  }

  Status Literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return Fail("bad literal");
    pos_ += lit.size();
    return Status::OK();
  }

  std::string_view s_;
  size_t pos_ = 0;
  int depth_ = 0;
  bool saw_trace_events_ = false;
};

}  // namespace

Status ValidateChromeTraceJson(std::string_view json) {
  JsonWalker w(json);
  HIERDB_RETURN_NOT_OK(w.Validate());
  if (!w.saw_trace_events()) {
    return Status::InvalidArgument(
        "well-formed JSON but no top-level \"traceEvents\" array");
  }
  return Status::OK();
}

}  // namespace hierdb::obs
