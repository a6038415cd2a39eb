// Path router: dispatches requests to handlers, with ":param" captures —
// the server half of the simulated REST stack.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "net/fault.hpp"
#include "net/http.hpp"

namespace pmware::net {

/// Path parameters captured from ":name" segments.
using PathParams = std::map<std::string, std::string>;

using Handler = std::function<HttpResponse(const HttpRequest&, const PathParams&)>;

/// Called once per dispatched request with the matched route pattern (the
/// registration string, so ":id" not the concrete id — bounded metric
/// cardinality), the response status, and the wall-clock handler cost.
/// Pattern is "<unmatched>" for 404s and "<fault>" for an injected failure.
using Observer = std::function<void(Method method, const std::string& pattern,
                                    int status, double wall_us)>;

/// Decides per request whether to inject a failure or added latency before
/// any handler runs (an injected failure means the handler never
/// executed). Must be deterministic and thread-safe; see net/fault.hpp.
using FaultInjector = std::function<FaultOutcome(const HttpRequest&)>;

class Router {
 public:
  /// Registers a handler for `method` on `pattern`, where pattern segments
  /// starting with ':' capture the corresponding request segment,
  /// e.g. "/api/users/:id/places".
  void add_route(Method method, const std::string& pattern, Handler handler);

  /// Installs the per-request observer (telemetry); replaces any previous.
  void set_observer(Observer observer) { observer_ = std::move(observer); }

  /// Installs the fault injector (scripted outages / error rates / latency,
  /// see net/fault.hpp); replaces any previous. Like add_route, setup-time
  /// only — must not race handle().
  void set_fault_injector(FaultInjector injector) {
    fault_injector_ = std::move(injector);
  }

  /// Dispatches a request; 404 when no route matches, 400 when the handler
  /// throws JsonError (a body missing a required field, a malformed path
  /// parameter).
  ///
  /// Matching rules:
  ///  * a single trailing slash is tolerated ("/metrics/" == "/metrics");
  ///  * an empty segment never binds a ":param" capture
  ///    ("/api/users//places" is a 404, not id="");
  ///  * among overlapping patterns the most specific wins — fewest ":param"
  ///    captures first, registration order as the tie-break — so a literal
  ///    "/api/users/all" beats "/api/users/:id" regardless of registration
  ///    order.
  ///
  /// handle() itself takes no lock and is safe to call concurrently: the
  /// route table is immutable after single-threaded setup (add_route must
  /// not race handle()), and synchronization
  /// of shared backend state is the handlers' job — the cloud instance
  /// routes each request to its per-user shard lock (DESIGN.md
  /// "Concurrency model").
  HttpResponse handle(const HttpRequest& request) const;

  std::size_t route_count() const { return routes_.size(); }

 private:
  struct Route {
    Method method;
    std::string pattern;                ///< as registered, for the observer
    std::vector<std::string> segments;  ///< pattern split on '/'
    std::size_t params;                 ///< ':' captures, for specificity
    Handler handler;
  };

  static std::vector<std::string> split(const std::string& path);
  static bool match(const Route& route, const std::vector<std::string>& segments,
                    PathParams& params);

  std::vector<Route> routes_;
  Observer observer_;
  FaultInjector fault_injector_;
};

}  // namespace pmware::net
