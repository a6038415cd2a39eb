#include "net/router.hpp"

#include <chrono>
#include <optional>

#include "telemetry/trace.hpp"

namespace pmware::net {

const char* to_string(Method m) {
  switch (m) {
    case Method::Get: return "GET";
    case Method::Post: return "POST";
    case Method::Put: return "PUT";
    case Method::Delete: return "DELETE";
  }
  return "?";
}

std::vector<std::string> Router::split(const std::string& path) {
  // Interior empty segments are preserved ("/a//b" -> [a, "", b]) so they
  // can be rejected at match time instead of silently collapsing into a
  // shorter — and wrongly matchable — path. The leading empty segment of an
  // absolute path and a single trailing one ("/metrics/") are dropped.
  std::vector<std::string> out;
  std::string cur;
  for (char c : path) {
    if (c == '/') {
      out.push_back(std::move(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  out.push_back(std::move(cur));
  if (!out.empty() && out.front().empty()) out.erase(out.begin());
  if (!out.empty() && out.back().empty()) out.pop_back();
  return out;
}

void Router::add_route(Method method, const std::string& pattern,
                       Handler handler) {
  auto segments = split(pattern);
  std::size_t params = 0;
  for (const std::string& seg : segments)
    if (!seg.empty() && seg[0] == ':') ++params;
  routes_.push_back(
      {method, pattern, std::move(segments), params, std::move(handler)});
}

bool Router::match(const Route& route, const std::vector<std::string>& segments,
                   PathParams& params) {
  if (route.segments.size() != segments.size()) return false;
  params.clear();
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const std::string& pat = route.segments[i];
    if (!pat.empty() && pat[0] == ':') {
      if (segments[i].empty()) return false;  // ":id" never binds ""
      params[pat.substr(1)] = segments[i];
    } else if (pat != segments[i]) {
      return false;
    }
  }
  return true;
}

HttpResponse Router::handle(const HttpRequest& request) const {
  const auto wall_begin = std::chrono::steady_clock::now();
  auto observe = [&](const std::string& pattern, int status) {
    if (!observer_) return;
    const double wall_us =
        std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
            std::chrono::steady_clock::now() - wall_begin)
            .count();
    observer_(request.method, pattern, status, wall_us);
  };

  // The fault injector models a failure in front of the service (load
  // balancer, network partition), so it runs before any handler (the cloud
  // authenticates inside its handlers): an injected failure guarantees no
  // server-side state changed, which is what makes client retries and
  // outbox replay safe.
  SimDuration added_latency_s = 0;
  if (fault_injector_) {
    FaultOutcome outcome = fault_injector_(request);
    added_latency_s = outcome.added_latency_s;
    if (outcome.reject) {
      outcome.reject->sim_latency_s = added_latency_s;
      observe("<fault>", outcome.reject->status);
      return *std::move(outcome.reject);
    }
  }

  const auto segments = split(request.path);
  // Most-specific match wins: among routes that accept the path, the one
  // with the fewest ":param" captures (i.e. the most literal segments) is
  // chosen, with registration order breaking ties — so "/api/users/all"
  // beats "/api/users/:id" however the cloud registered them.
  const Route* best = nullptr;
  PathParams best_params;
  PathParams params;
  for (const Route& route : routes_) {
    if (route.method != request.method) continue;
    if (!match(route, segments, params)) continue;
    if (best == nullptr || route.params < best->params) {
      best = &route;
      best_params = std::move(params);
      if (best->params == 0) break;  // fully literal: nothing beats it
    }
  }
  if (best != nullptr) {
    // Trace-context propagation: a request that arrived with trace
    // headers gets a handler span parented under the *client's* span (the
    // remote context wins over this thread's stack), so the device↔cloud
    // request is one causal tree. Untraced requests (tests poking the
    // router directly) record no span. The span covers the handler only;
    // routing overhead stays in the observer's wall_us.
    const telemetry::TraceContext ctx = request.trace_context();
    const SimTime sim_now = request.sim_time();
    std::optional<telemetry::Span> span;
    if (ctx.valid())
      span.emplace(telemetry::tracer(), "cloud." + best->pattern, sim_now, ctx);
    HttpResponse response;
    try {
      response = best->handler(request, best_params);
    } catch (const JsonError& error) {
      // A body missing a required field (or holding one of the wrong type)
      // is the client's fault: answer 400 instead of unwinding the caller.
      response = HttpResponse::error(kStatusBadRequest, error.what());
    }
    response.sim_latency_s += added_latency_s;
    if (span) span->finish(sim_now);
    observe(best->pattern, response.status);
    return response;
  }
  observe("<unmatched>", kStatusNotFound);
  HttpResponse not_found =
      HttpResponse::error(kStatusNotFound, "no route for " + request.path);
  not_found.sim_latency_s = added_latency_s;
  return not_found;
}

}  // namespace pmware::net
