// Observability: trace exporters.
//
//   ChromeTraceJson   the Chrome trace_event format (JSON object form:
//                     {"traceEvents":[...]}) — loads directly in
//                     chrome://tracing and Perfetto. Span events become
//                     "X" (complete) events with pid = node and
//                     tid = worker; guest lane k (foreign help, see
//                     TraceEvent) is tid workers_per_node + k, named
//                     "guest k"; instants become "i" events; node and
//                     guest-lane name metadata rows make the timeline
//                     readable.
//
//   PlanDot           a Graphviz digraph of the compiled operator graph,
//                     each node annotated with estimated vs actual
//                     cardinality and the operator's measured busy time /
//                     span — render with `dot -Tsvg plan.dot`.
//
//   PlanJson          the same plan+schedule view as plain JSON, for
//                     programmatic consumers.
//
//   ValidateChromeTraceJson
//                     a dependency-free well-formedness check (full JSON
//                     grammar walk + the trace_event envelope) used by
//                     tests and the scripts/check.sh trace-smoke step.

#ifndef HIERDB_OBS_EXPORT_H_
#define HIERDB_OBS_EXPORT_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "obs/trace.h"

namespace hierdb::obs {

std::string ChromeTraceJson(const QueryTrace& trace);

std::string PlanDot(const QueryTrace& trace);

std::string PlanJson(const QueryTrace& trace);

/// Verifies `json` parses as a single JSON value and, when it is an
/// object, that it carries a "traceEvents" array. Returns InvalidArgument
/// with an offset-bearing message on the first violation.
Status ValidateChromeTraceJson(std::string_view json);

}  // namespace hierdb::obs

#endif  // HIERDB_OBS_EXPORT_H_
