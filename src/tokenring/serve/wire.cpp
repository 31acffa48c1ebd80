#include "tokenring/serve/wire.hpp"

#include <limits>
#include <sstream>
#include <utility>

#include "tokenring/common/checks.hpp"

namespace tokenring::serve {

namespace {

/// Render a scalar JsonValue back to its JSON token (for the id echo).
bool render_scalar(const obs::JsonValue& v, std::string& out) {
  switch (v.kind()) {
    case obs::JsonValue::Kind::kNull:
      out = "null";
      return true;
    case obs::JsonValue::Kind::kBool:
      out = v.as_bool() ? "true" : "false";
      return true;
    case obs::JsonValue::Kind::kNumber:
      out = v.number_token();
      return true;
    case obs::JsonValue::Kind::kString: {
      std::string quoted = obs::escape_json(v.as_string());
      quoted.insert(quoted.begin(), '"');
      quoted.push_back('"');
      out = std::move(quoted);
      return true;
    }
    default:
      return false;
  }
}

bool fail(std::string& error, std::string message) {
  error = std::move(message);
  return false;
}

const char* non_negative(double v) {
  return v >= 0.0 ? nullptr : "must be >= 0";
}

/// Number inside `violation`'s range (a query range rule from
/// query/query.hpp, or non_negative); `name` feeds the 400 message.
bool read_number(const obs::JsonValue& v, const char* name, double& out,
                 std::string& error,
                 const char* (*violation)(double) = non_negative) {
  if (!v.is_number()) return fail(error, std::string("\"") + name + "\" must be a number");
  out = v.as_double();
  if (const char* bound = violation(out)) {
    return fail(error, std::string("\"") + name + "\" " + bound);
  }
  return true;
}

/// Integer in [min, max]; `name` feeds the 400 message.
bool read_int(const obs::JsonValue& v, const char* name, std::int64_t min,
              std::int64_t max, std::int64_t& out, std::string& error) {
  if (!v.is_number()) return fail(error, std::string("\"") + name + "\" must be a number");
  try {
    out = v.as_int64();
  } catch (const PreconditionError&) {
    return fail(error, std::string("\"") + name + "\" must be an integer");
  }
  if (out < min) {
    return fail(error, std::string("\"") + name + "\" must be >= " +
                           std::to_string(min));
  }
  if (out > max) {
    return fail(error, std::string("\"") + name + "\" must be <= " +
                           std::to_string(max));
  }
  return true;
}

/// Upper bound of the wire integers that land in an `int`.
constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();

bool parse_streams(const obs::JsonValue& v, msg::MessageSet& out,
                   std::string& error) {
  if (!v.is_array()) {
    return fail(error, "\"streams\" must be a non-empty array");
  }
  for (std::size_t i = 0; i < v.items().size(); ++i) {
    const obs::JsonValue& item = v.items()[i];
    const std::string where = "streams[" + std::to_string(i) + "]";
    if (!item.is_object()) return fail(error, where + " must be an object");
    msg::SyncStream s;
    double period_ms = 0.0;
    double deadline_ms = 0.0;
    bool have_period = false;
    bool have_payload = false;
    for (const auto& [key, value] : item.members()) {
      if (key == "station") {
        std::int64_t station = 0;
        if (!read_int(value, "station", 0, kIntMax, station, error)) {
          return fail(error, where + ": " + error);
        }
        s.station = static_cast<int>(station);
      } else if (key == "period_ms") {
        if (!read_number(value, "period_ms", period_ms, error)) {
          return fail(error, where + ": " + error);
        }
        have_period = true;
      } else if (key == "payload_bits") {
        if (!read_number(value, "payload_bits", s.payload_bits, error)) {
          return fail(error, where + ": " + error);
        }
        have_payload = true;
      } else if (key == "deadline_ms") {
        if (!read_number(value, "deadline_ms", deadline_ms, error)) {
          return fail(error, where + ": " + error);
        }
      } else {
        return fail(error, where + ": unknown field \"" + key + "\"");
      }
    }
    if (!have_period || !have_payload) {
      return fail(error,
                  where + " needs \"period_ms\" and \"payload_bits\"");
    }
    s.period = milliseconds(period_ms);
    s.relative_deadline = milliseconds(deadline_ms);
    try {
      s.validate();
    } catch (const PreconditionError& e) {
      return fail(error, where + ": " + e.reason());
    }
    out.add(s);
  }
  if (query::scenario_violation(out) != nullptr) {
    return fail(error, "\"streams\" must be a non-empty array");
  }
  return true;
}

bool parse_bandwidths(const obs::JsonValue& v, std::vector<double>& out,
                      std::string& error) {
  if (!v.is_array()) {
    return fail(error, "\"bandwidths_mbps\" must be a non-empty array");
  }
  out.clear();
  for (const obs::JsonValue& item : v.items()) {
    if (!item.is_number() ||
        query::bandwidth_violation(item.as_double()) != nullptr) {
      return fail(error,
                  "\"bandwidths_mbps\" entries must be positive numbers");
    }
    out.push_back(item.as_double());
  }
  if (query::bandwidths_violation(out) != nullptr) {
    return fail(error, "\"bandwidths_mbps\" must be a non-empty array");
  }
  return true;
}

}  // namespace

const char* to_string(RequestType type) {
  switch (type) {
    case RequestType::kPing:
      return "ping";
    case RequestType::kStats:
      return "stats";
    case RequestType::kCheck:
      return "check";
    case RequestType::kFaultcheck:
      return "faultcheck";
    case RequestType::kAdvise:
      return "advise";
  }
  return "?";
}

bool parse_request(const obs::JsonValue& doc, Request& out,
                   std::string& error) {
  if (!doc.is_object()) {
    return fail(error, "request must be a JSON object");
  }
  // Pull the id first so even a failed parse can echo it.
  if (const obs::JsonValue* id = doc.find("id")) {
    if (!render_scalar(*id, out.id_token)) {
      return fail(error, "\"id\" must be a scalar");
    }
  }
  const obs::JsonValue* type = doc.find("type");
  if (!type) return fail(error, "missing \"type\"");
  if (!type->is_string()) return fail(error, "\"type\" must be a string");
  const std::string& name = type->as_string();
  if (name == "ping") {
    out.type = RequestType::kPing;
  } else if (name == "stats") {
    out.type = RequestType::kStats;
  } else if (name == "check") {
    out.type = RequestType::kCheck;
  } else if (name == "faultcheck") {
    out.type = RequestType::kFaultcheck;
  } else if (name == "advise") {
    out.type = RequestType::kAdvise;
  } else {
    return fail(error, "unknown type \"" + name +
                           "\" (ping|stats|check|faultcheck|advise)");
  }

  const bool is_check = out.type == RequestType::kCheck ||
                        out.type == RequestType::kFaultcheck;
  const bool is_advise = out.type == RequestType::kAdvise;
  const bool is_compute = is_check || is_advise;
  bool have_streams = false;
  for (const auto& [key, value] : doc.members()) {
    if (key == "id" || key == "type") continue;
    if (key == "client") {
      if (!value.is_string()) return fail(error, "\"client\" must be a string");
      out.client = value.as_string();
    } else if (is_compute && key == "deadline_ms") {
      if (!read_number(value, "deadline_ms", out.deadline_ms, error)) {
        return false;
      }
      if (out.deadline_ms > kMaxDeadlineMs) {
        return fail(error, "\"deadline_ms\" must be <= " +
                               obs::json_number(kMaxDeadlineMs));
      }
    } else if (is_check && key == "protocol") {
      const auto protocol = value.is_string()
                                ? planner::protocol_from_name(value.as_string())
                                : std::nullopt;
      if (!protocol) {
        return fail(error, std::string("\"protocol\" must be ") +
                               planner::kProtocolNames);
      }
      out.check.protocol = *protocol;
    } else if (is_check && key == "bandwidth_mbps") {
      if (!read_number(value, "bandwidth_mbps", out.check.bandwidth_mbps,
                       error, query::bandwidth_violation)) {
        return false;
      }
    } else if (is_check && key == "streams") {
      if (!parse_streams(value, out.check.set, error)) return false;
      have_streams = true;
    } else if (out.type == RequestType::kFaultcheck && key == "noise_ms") {
      if (!read_number(value, "noise_ms", out.check.noise_ms,
                       error, query::noise_violation)) {
        return false;
      }
    } else if (is_advise && key == "stations") {
      std::int64_t stations = 0;
      if (!read_int(value, "stations", 1, kIntMax, stations, error)) {
        return false;
      }
      out.advise.stations = static_cast<int>(stations);
    } else if (is_advise && key == "mean_period_ms") {
      if (!read_number(value, "mean_period_ms", out.advise.mean_period_ms,
                       error, query::mean_period_violation)) {
        return false;
      }
    } else if (is_advise && key == "period_ratio") {
      if (!read_number(value, "period_ratio", out.advise.period_ratio,
                       error, query::period_ratio_violation)) {
        return false;
      }
    } else if (is_advise && key == "bandwidths_mbps") {
      if (!parse_bandwidths(value, out.advise.bandwidths_mbps, error)) {
        return false;
      }
    } else if (is_advise && key == "sets") {
      std::int64_t sets = 0;
      if (!read_int(value, "sets", 1, kIntMax, sets, error)) return false;
      out.advise.sets = static_cast<int>(sets);
    } else if (is_advise && key == "seed") {
      if (!value.is_number()) return fail(error, "\"seed\" must be a number");
      try {
        out.advise.seed = value.as_uint64();
      } catch (const PreconditionError&) {
        return fail(error, "\"seed\" must be an unsigned integer");
      }
    } else {
      return fail(error, "unknown field \"" + key + "\" for type \"" +
                             to_string(out.type) + "\"");
    }
  }
  if (is_check && !have_streams) {
    return fail(error, "\"streams\" is required for type \"" +
                           std::string(to_string(out.type)) + "\"");
  }
  return true;
}

std::string cache_key(const Request& request) {
  switch (request.type) {
    case RequestType::kPing:
    case RequestType::kStats:
      return {};
    case RequestType::kCheck:
    case RequestType::kFaultcheck: {
      // json_number canonicalizes spelled-out numbers ("1e2" == "100").
      std::string key = to_string(request.type);
      key += "|p=";
      key += planner::protocol_name(request.check.protocol);
      key += "|bw=" + obs::json_number(request.check.bandwidth_mbps);
      if (request.type == RequestType::kFaultcheck) {
        key += "|noise=" + obs::json_number(request.check.noise_ms);
      }
      for (const auto& s : request.check.set.streams()) {
        key += '|';
        key += std::to_string(s.station);
        key += ':';
        key += obs::json_number(s.period);
        key += ':';
        key += obs::json_number(s.payload_bits);
        key += ':';
        key += obs::json_number(s.relative_deadline);
      }
      return key;
    }
    case RequestType::kAdvise: {
      std::string key = "advise";
      key += "|n=" + std::to_string(request.advise.stations);
      key += "|mp=" + obs::json_number(request.advise.mean_period_ms);
      key += "|pr=" + obs::json_number(request.advise.period_ratio);
      key += "|sets=" + std::to_string(request.advise.sets);
      key += "|seed=" + std::to_string(request.advise.seed);
      key += "|bw=";
      for (double bw : request.advise.bandwidths_mbps) {
        key += obs::json_number(bw) + ",";
      }
      return key;
    }
  }
  return {};
}

std::string success_response(std::string_view id_token, RequestType type,
                             bool cached, std::string_view result_json) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.set_strict(true);
  w.begin_object();
  w.key("schema").value_string(kServeSchema);
  w.key("id").value_raw(id_token);
  w.key("type").value_string(to_string(type));
  w.key("status").value_int(200);
  w.key("cached").value_bool(cached);
  w.key("result").value_raw(result_json);
  w.end_object();
  return os.str();
}

std::string error_response(std::string_view id_token, int status,
                           std::string_view error) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.set_strict(true);
  w.begin_object();
  w.key("schema").value_string(kServeSchema);
  w.key("id").value_raw(id_token.empty() ? "null" : id_token);
  w.key("status").value_int(status);
  w.key("error").value_string(error);
  w.end_object();
  return os.str();
}

std::string parse_error_response(std::size_t offset, std::string_view error) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.set_strict(true);
  w.begin_object();
  w.key("schema").value_string(kServeSchema);
  w.key("id").value_null();
  w.key("status").value_int(400);
  w.key("error").value_string(error);
  w.key("offset").value_uint(offset);
  w.end_object();
  return os.str();
}

std::string rate_limited_response(std::string_view id_token,
                                  std::uint64_t retry_after_ns) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.set_strict(true);
  w.begin_object();
  w.key("schema").value_string(kServeSchema);
  w.key("id").value_raw(id_token.empty() ? "null" : id_token);
  w.key("status").value_int(429);
  w.key("error").value_string("rate limit exceeded");
  w.key("retry_after_ms")
      .value_number(static_cast<double>(retry_after_ns) / 1e6);
  w.end_object();
  return os.str();
}

std::string timeout_response(std::string_view id_token, double elapsed_ms) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.set_strict(true);
  w.begin_object();
  w.key("schema").value_string(kServeSchema);
  w.key("id").value_raw(id_token.empty() ? "null" : id_token);
  w.key("status").value_int(504);
  w.key("error").value_string("deadline exceeded");
  w.key("elapsed_ms").value_number(elapsed_ms);
  w.end_object();
  return os.str();
}

std::string shed_response(std::string_view id_token,
                          std::uint64_t retry_after_ns) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.set_strict(true);
  w.begin_object();
  w.key("schema").value_string(kServeSchema);
  w.key("id").value_raw(id_token.empty() ? "null" : id_token);
  w.key("status").value_int(503);
  w.key("error").value_string("server overloaded, request shed");
  w.key("retry_after_ms")
      .value_number(static_cast<double>(retry_after_ns) / 1e6);
  w.end_object();
  return os.str();
}

}  // namespace tokenring::serve
