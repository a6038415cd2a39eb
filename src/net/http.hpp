// HTTP request/response model for the simulated REST transport between the
// PMWare Mobile Service and the Cloud Instance (paper §2.3.3). In-process,
// but with the same shapes (methods, paths, headers, JSON bodies, status
// codes) as the paper's Django deployment, so the control flow — auth
// tokens, retries, offloading — is exercised for real.
#pragma once

#include <cstdlib>
#include <map>
#include <string>

#include "telemetry/trace.hpp"
#include "util/json.hpp"

namespace pmware::net {

enum class Method { Get, Post, Put, Delete };
const char* to_string(Method m);

/// Caller's simulation clock, the in-process stand-in for wall-clock.
inline constexpr const char* kSimTimeHeader = "X-Sim-Time";
/// Trace-context propagation (contract documented in DESIGN.md): the trace
/// the request belongs to and the client span the handler span must parent
/// under. Decimal-rendered; absent means "not traced".
inline constexpr const char* kTraceIdHeader = "X-PMWare-Trace-Id";
inline constexpr const char* kParentSpanHeader = "X-PMWare-Parent-Span";
/// 0-based retry counter stamped by RestClient. Sim-time is frozen while PMS
/// housekeeping runs, so without this a retried request would be
/// byte-identical to the original and a deterministic server-side fault roll
/// (net/fault.hpp) would fail it forever; the attempt number makes each
/// retry a fresh roll.
inline constexpr const char* kAttemptHeader = "X-PMWare-Attempt";
/// The device's registration session (boot epoch) stamped on mutating
/// requests: the cloud refuses writes whose session is at or below the
/// device's wipe tombstone with 410 Gone, so replayed traffic from a
/// wiped-then-re-registered device can never resurrect pre-wipe data.
/// Absent means session 0 — blocked after any wipe.
inline constexpr const char* kSessionHeader = "X-PMWare-Session";

struct HttpRequest {
  Method method = Method::Get;
  std::string path;                          ///< e.g. "/api/places/discover"
  std::map<std::string, std::string> headers;
  std::map<std::string, std::string> query;
  Json body;

  HttpRequest& with_header(std::string key, std::string value) {
    headers[std::move(key)] = std::move(value);
    return *this;
  }

  /// Simulation time as reported by the caller (0 if absent).
  SimTime sim_time() const {
    const auto it = headers.find(kSimTimeHeader);
    return it == headers.end() ? 0 : std::atoll(it->second.c_str());
  }

  /// Stamps the trace-context headers from `ctx`; no-op when invalid.
  void set_trace_context(const telemetry::TraceContext& ctx) {
    if (!ctx.valid()) return;
    headers[kTraceIdHeader] = std::to_string(ctx.trace_id);
    headers[kParentSpanHeader] = std::to_string(ctx.span_id);
  }

  /// Parses the trace-context headers; invalid (default) context when the
  /// request carries none.
  telemetry::TraceContext trace_context() const {
    telemetry::TraceContext ctx;
    const auto trace = headers.find(kTraceIdHeader);
    const auto parent = headers.find(kParentSpanHeader);
    if (trace == headers.end() || parent == headers.end()) return ctx;
    ctx.trace_id = static_cast<std::uint64_t>(
        std::strtoull(trace->second.c_str(), nullptr, 10));
    ctx.span_id = static_cast<std::size_t>(
        std::strtoull(parent->second.c_str(), nullptr, 10));
    return ctx;
  }
};

struct HttpResponse {
  int status = 200;
  Json body;
  /// Extra simulated seconds this response cost beyond the client's base
  /// round-trip — stamped by the router when a fault plan adds latency, and
  /// folded into the client's sim-latency accounting.
  SimDuration sim_latency_s = 0;

  bool ok() const { return status >= 200 && status < 300; }

  static HttpResponse json(Json body, int status = 200) {
    HttpResponse response;
    response.status = status;
    response.body = std::move(body);
    return response;
  }
  static HttpResponse error(int status, const std::string& message) {
    Json b = Json::object();
    b.set("error", message);
    return json(std::move(b), status);
  }
};

inline constexpr int kStatusOk = 200;
inline constexpr int kStatusCreated = 201;
inline constexpr int kStatusBadRequest = 400;
inline constexpr int kStatusUnauthorized = 401;
inline constexpr int kStatusNotFound = 404;
/// Permanent refusal: the write's registration session is at or below the
/// device's wipe tombstone. Clients must drop the work item, not retry.
inline constexpr int kStatusGone = 410;
inline constexpr int kStatusServiceUnavailable = 503;

}  // namespace pmware::net
