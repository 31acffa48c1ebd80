// Wire format of the admission-control service (`tokenring.serve/1`).
//
// The daemon speaks line-delimited JSON: one request object per line in,
// one response object per line out, in request order per connection. The
// schema string follows the obs/ manifest convention
// (`tokenring.run_manifest/1`): bump the suffix on an incompatible change.
//
// Request:
//   {"type": "check" | "faultcheck" | "advise" | "ping" | "stats",
//    "id": <any scalar, echoed verbatim>,        // optional
//    "client": "ops-console",                    // optional rate-limit key
//    ...type-specific fields}
//
// Response envelope:
//   {"schema": "tokenring.serve/1", "id": <echo>, "type": "check",
//    "status": 200, "cached": false, "result": {...}}
// or, on failure,
//   {"schema": "tokenring.serve/1", "id": <echo>, "status": 400,
//    "error": "...", "offset": 17}               // offset: parse errors
//   {"schema": "tokenring.serve/1", "id": <echo>, "status": 429,
//    "error": "...", "retry_after_ms": 12.5}
//
// Parsing is strict: unknown fields are rejected with a 400 naming the
// field, so a typo'd "bandwith_mbps" fails loudly instead of silently
// running with the default. Values outside the query layer's range rules
// (query/query.hpp) get a 400 naming the field and the bound.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "tokenring/obs/json.hpp"
#include "tokenring/query/query.hpp"

namespace tokenring::serve {

inline constexpr const char* kServeSchema = "tokenring.serve/1";

enum class RequestType { kPing, kStats, kCheck, kFaultcheck, kAdvise };

const char* to_string(RequestType type);

/// Largest accepted "deadline_ms" (about 31.7 years): its nanosecond count
/// stays well inside std::uint64_t, the type the engine times it in.
inline constexpr double kMaxDeadlineMs = 1e12;

struct Request {
  RequestType type = RequestType::kPing;
  /// Raw JSON token of the request's "id" member ("null" when absent);
  /// echoed verbatim so numeric ids round-trip without a double trip.
  std::string id_token = "null";
  /// Rate-limit key; empty means "use the connection's fallback id".
  std::string client;
  /// Compute types only: total time the client is willing to wait for
  /// this answer [milliseconds]; 0 = no deadline. A request whose
  /// deadline expires before its compute starts is answered with a 504
  /// instead of burning a Monte Carlo sweep nobody is waiting for.
  /// Deliberately NOT part of the cache key: the same query with a
  /// different patience is still the same query. At most kMaxDeadlineMs.
  double deadline_ms = 0.0;
  query::CheckQuery check;    // meaningful for kCheck / kFaultcheck
  query::AdviseQuery advise;  // meaningful for kAdvise
};

/// Interpret a parsed JSON document as a request. On failure returns
/// false and sets `error` to a message naming the offending field; `out`
/// still carries the id token (if one was readable) so the error response
/// can echo it.
bool parse_request(const obs::JsonValue& doc, Request& out,
                   std::string& error);

/// Canonical cache key for a compute request: two requests that differ
/// only in spelling (field order, "100" vs 1e2, explicit defaults) map to
/// the same key. Empty for ping/stats, which are never cached.
std::string cache_key(const Request& request);

/// Wrap a rendered result object into the success envelope. `result_json`
/// must be a complete JSON value (the builders below produce one).
std::string success_response(std::string_view id_token, RequestType type,
                             bool cached, std::string_view result_json);

/// Failure envelope; status is the HTTP-style code (400, 413, 429, 500).
std::string error_response(std::string_view id_token, int status,
                           std::string_view error);

/// 400 for a line that is not valid JSON, pointing at the byte offset
/// where parsing stopped.
std::string parse_error_response(std::size_t offset, std::string_view error);

/// 429 with the token bucket's back-off hint.
std::string rate_limited_response(std::string_view id_token,
                                  std::uint64_t retry_after_ns);

/// 504: the request's own deadline_ms expired before (or while) its
/// compute ran; elapsed_ms reports how long it actually waited.
std::string timeout_response(std::string_view id_token, double elapsed_ms);

/// 503: admission queue beyond the high-water mark, request shed before
/// any compute. retry_after_ms estimates when the backlog will clear.
std::string shed_response(std::string_view id_token,
                          std::uint64_t retry_after_ns);

}  // namespace tokenring::serve
