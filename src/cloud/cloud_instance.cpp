#include "cloud/cloud_instance.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <system_error>

#include "algorithms/gca.hpp"
#include "core/codec.hpp"
#include "telemetry/alerts.hpp"
#include "telemetry/export.hpp"
#include "telemetry/log.hpp"
#include "telemetry/timeseries.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "util/strfmt.hpp"

namespace pmware::cloud {

using net::HttpRequest;
using net::HttpResponse;
using net::PathParams;

namespace {

/// `text` as a T: the whole string must be a decimal number within T's
/// range. Throws JsonError naming `what`, which the router answers with
/// 400; handlers parse their inputs before touching storage.
template <typename T>
T strict_int(const std::string& text, const char* what) {
  const char* end = text.data() + text.size();
  T value{};
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || stop != end)
    throw JsonError(std::string("bad ") + what + ": " + text);
  return value;
}

/// Path parameter `key` as a T, parsed by strict_int, so the cell fields
/// get cell_from_json's ranges (same types).
template <typename T>
T path_int(const PathParams& params, const char* key) {
  return strict_int<T>(params.at(key), key);
}

/// Query parameter `key` as a T parsed by strict_int; nullopt if absent.
template <typename T>
std::optional<T> query_int(const HttpRequest& request, const char* key) {
  const auto it = request.query.find(key);
  if (it == request.query.end()) return std::nullopt;
  return strict_int<T>(it->second, key);
}

/// The registration session the request claims to act under (0 if the
/// header is absent), parsed by strict_int.
std::uint64_t request_session(const HttpRequest& request) {
  const auto it = request.headers.find(net::kSessionHeader);
  if (it == request.headers.end()) return 0;
  return strict_int<std::uint64_t>(it->second, net::kSessionHeader);
}

}  // namespace

CloudInstance::CloudInstance(CloudConfig config, GeoLocationService geoloc,
                             Rng rng)
    : config_(config),
      geoloc_(std::move(geoloc)),
      tokens_(rng, config.token_ttl),
      storage_(config.shards),
      analytics_(&storage_) {
  register_routes();
  // Per-route request counters and handler-cost histograms. Patterns (not
  // concrete paths) label the series, so cardinality stays bounded by the
  // route table.
  router_.set_observer([this](net::Method method, const std::string& pattern,
                              int status, double wall_us) {
    auto& reg = telemetry::registry();
    reg.counter("cloud_requests_total",
                {{"method", net::to_string(method)},
                 {"route", pattern},
                 {"status", strfmt("%d", status)}},
                "REST requests handled by the cloud instance")
        .inc();
    reg.histogram("cloud_handler_wall_us", {{"route", pattern}}, 0, 5000, 20,
                  "wall-clock handler cost per request, microseconds")
        .observe(wall_us);
    if (wall_us > config_.slo_wall_us) {
      reg.counter("cloud_slo_violations_total", {{"route", pattern}},
                  "requests whose wall-clock handler cost exceeded the SLO")
          .inc();
      // Debug, not warn: a loaded study violates the SLO often enough that
      // per-event stderr lines would drown everything; the counter (and
      // /tracez) is the actionable surface.
      telemetry::slog_debug(
          "cloud", 0, "SLO violation: %s took %.0f us (threshold %.0f us)",
          pattern.c_str(), wall_us, config_.slo_wall_us);
    }
  });
  // Scripted server-side chaos (outages, error rates, latency): evaluated
  // by the router before any handler runs, so injected failures never
  // mutate state. The plan's decisions are deterministic per request
  // (net/fault.hpp), keeping faulted studies reproducible across thread
  // and shard counts.
  if (!config_.fault_plan.empty()) {
    telemetry::slog_info("cloud", 0, "fault plan active: %s",
                         config_.fault_plan.describe().c_str());
    router_.set_fault_injector([this](const HttpRequest& request) {
      const net::FaultOutcome outcome = config_.fault_plan.evaluate(request);
      auto& reg = telemetry::registry();
      if (outcome.reject)
        reg.counter("cloud_faults_injected_total", {{"kind", "error"}},
                    "fault-plan interventions (errors injected, latency added)")
            .inc();
      if (outcome.added_latency_s > 0)
        reg.counter("cloud_faults_injected_total", {{"kind", "latency"}},
                    "fault-plan interventions (errors injected, latency added)")
            .inc();
      return outcome;
    });
  }
}

std::optional<world::DeviceId> CloudInstance::authed_user(
    const HttpRequest& request) const {
  const auto it = request.headers.find("Authorization");
  if (it == request.headers.end()) return std::nullopt;
  const std::string& value = it->second;
  constexpr const char* kPrefix = "Bearer ";
  if (value.rfind(kPrefix, 0) != 0) return std::nullopt;
  return tokens_.validate(value.substr(7), request.sim_time());
}

std::optional<HttpResponse> CloudInstance::require_user(
    const HttpRequest& request, const PathParams& params,
    world::DeviceId& user_out) const {
  const auto user = authed_user(request);
  if (!user)
    return HttpResponse::error(net::kStatusUnauthorized, "invalid token");
  if (params.count("id") != 0 &&
      path_int<world::DeviceId>(params, "id") != *user)
    return HttpResponse::error(net::kStatusUnauthorized,
                               "token does not match user");
  user_out = *user;
  return std::nullopt;
}

std::optional<HttpResponse> CloudInstance::require_writable(
    const HttpRequest& request, world::DeviceId user) const {
  if (storage_.write_allowed(user, request_session(request)))
    return std::nullopt;
  telemetry::registry()
      .counter("cloud_tombstone_rejections_total", {},
               "writes refused because their session was at or below the "
               "device's wipe tombstone")
      .inc();
  return HttpResponse::error(net::kStatusGone,
                             "user wiped; re-register before writing");
}

void CloudInstance::register_routes() {
  using net::Method;

  // --- Observability: the telemetry registry, for scraping (§ telemetry) ---
  // Authenticated like every data endpoint (metrics leak usage patterns),
  // but not user-scoped: any registered device may scrape. Default rendering
  // is Prometheus exposition text carried in the JSON envelope's "text"
  // field; ?format=json returns the structured export instead.
  router_.add_route(Method::Get, "/metrics",
                    [this](const HttpRequest& req, const PathParams&) {
    if (!authed_user(req))
      return HttpResponse::error(net::kStatusUnauthorized, "invalid token");
    telemetry::ensure_build_info(telemetry::registry());
    const auto format = req.query.find("format");
    if (format != req.query.end() && format->second == "json")
      return HttpResponse::json(telemetry::to_json(telemetry::registry()));
    Json body = Json::object();
    body.set("content_type", "text/plain; version=0.0.4");
    body.set("text", telemetry::to_prometheus(telemetry::registry()));
    return HttpResponse::json(std::move(body));
  });

  // --- Observability: sim-time series + alert state (§ telemetry) ---
  // Same auth posture as /metrics. /timeseries serves the recorder ring
  // (per-sim-interval counter deltas and gauge values); /alertz serves the
  // live rule table of the SLO alert engine.
  router_.add_route(Method::Get, "/timeseries",
                    [this](const HttpRequest& req, const PathParams&) {
    if (!authed_user(req))
      return HttpResponse::error(net::kStatusUnauthorized, "invalid token");
    return HttpResponse::json(telemetry::timeseries().to_json());
  });

  router_.add_route(Method::Get, "/alertz",
                    [this](const HttpRequest& req, const PathParams&) {
    if (!authed_user(req))
      return HttpResponse::error(net::kStatusUnauthorized, "invalid token");
    return HttpResponse::json(telemetry::alerts().to_json());
  });

  // --- Diagnostics: liveness + storage/error overview (§ tracing) ---
  // Authenticated like /metrics: uptime and per-route error counts profile
  // the deployment, so they are not anonymous surface.
  router_.add_route(Method::Get, "/healthz",
                    [this](const HttpRequest& req, const PathParams&) {
    if (!authed_user(req))
      return HttpResponse::error(net::kStatusUnauthorized, "invalid token");
    Json body = Json::object();
    body.set("status", "ok");
    body.set("uptime_wall_s",
             std::chrono::duration_cast<std::chrono::duration<double>>(
                 std::chrono::steady_clock::now() - started_)
                 .count());
    body.set("sim_time", req.sim_time());
    body.set("routes", static_cast<std::uint64_t>(router_.route_count()));

    const CloudStorage::Stats stats = storage_.stats();
    Json storage = Json::object();
    storage.set("shards", static_cast<std::uint64_t>(storage_.shard_count()));
    storage.set("users", static_cast<std::uint64_t>(stats.users));
    storage.set("places", static_cast<std::uint64_t>(stats.places));
    storage.set("profiles", static_cast<std::uint64_t>(stats.profiles));
    storage.set("routes", static_cast<std::uint64_t>(stats.routes));
    storage.set("encounters", static_cast<std::uint64_t>(stats.encounters));
    body.set("storage", std::move(storage));

    // Per-route error totals: every cloud_requests_total series whose
    // status label is 4xx/5xx, folded by route. Read under the registry
    // lock; with_families is non-reentrant so only aggregation happens
    // inside.
    Json errors = Json::object();
    telemetry::registry().with_families(
        [&errors](const std::map<std::string, telemetry::MetricFamily>&
                      families) {
          const auto it = families.find("cloud_requests_total");
          if (it == families.end()) return;
          std::map<std::string, std::uint64_t> by_route;
          for (const auto& [labels, series] : it->second.counters) {
            const auto status = labels.find("status");
            const auto route = labels.find("route");
            if (status == labels.end() || route == labels.end()) continue;
            if (std::atoi(status->second.c_str()) < 400) continue;
            by_route[route->second] += series->value();
          }
          for (const auto& [route, count] : by_route)
            errors.set(route, count);
        });
    body.set("errors_by_route", std::move(errors));

    Json tracing = Json::object();
    tracing.set("spans",
                static_cast<std::uint64_t>(telemetry::tracer().snapshot().size()));
    tracing.set("dropped",
                static_cast<std::uint64_t>(telemetry::tracer().dropped()));
    body.set("tracing", std::move(tracing));

    Json logs = Json::object();
    logs.set("total", static_cast<std::uint64_t>(telemetry::logger().total()));
    logs.set("retained",
             static_cast<std::uint64_t>(telemetry::logger().recent().size()));
    body.set("logs", std::move(logs));
    return HttpResponse::json(std::move(body));
  });

  // --- Diagnostics: slowest traces + SLO counters (§ tracing) ---
  router_.add_route(Method::Get, "/tracez",
                    [this](const HttpRequest& req, const PathParams&) {
    if (!authed_user(req))
      return HttpResponse::error(net::kStatusUnauthorized, "invalid token");
    std::size_t n = 5;
    if (const auto parsed = query_int<std::size_t>(req, "n");
        parsed && *parsed > 0)
      n = *parsed;
    Json body = Json::object();
    body.set("slo_threshold_us", config_.slo_wall_us);
    Json violations = Json::object();
    telemetry::registry().with_families(
        [&violations](const std::map<std::string, telemetry::MetricFamily>&
                          families) {
          const auto it = families.find("cloud_slo_violations_total");
          if (it == families.end()) return;
          for (const auto& [labels, series] : it->second.counters) {
            const auto route = labels.find("route");
            if (route == labels.end()) continue;
            violations.set(route->second, series->value());
          }
        });
    body.set("slo_violations_by_route", std::move(violations));
    body.set("slowest_traces", telemetry::slowest_traces_json(
                                   telemetry::tracer().snapshot(), n));
    return HttpResponse::json(std::move(body));
  });

  // --- Registration API ---
  router_.add_route(Method::Post, "/api/register",
                    [this](const HttpRequest& req, const PathParams&) {
    const std::string imei = req.body.get_string("imei", "");
    const std::string email = req.body.get_string("email", "");
    if (imei.empty() || email.empty())
      return HttpResponse::error(net::kStatusBadRequest,
                                 "imei and email required");
    const TokenGrant grant =
        tokens_.register_device(imei, email, req.sim_time());
    Json body = Json::object();
    body.set("user", static_cast<std::uint64_t>(grant.user));
    body.set("token", grant.token);
    body.set("expires_at", grant.expires_at);
    // Boot epoch: bumps on every registration of this device. The client
    // stamps it on mutating requests (X-PMWare-Session) and qualifies its
    // replay sequence numbers with it — see DESIGN.md "Failure model &
    // recovery".
    body.set("session", grant.session);
    return HttpResponse::json(std::move(body), net::kStatusCreated);
  });

  router_.add_route(Method::Post, "/api/token/refresh",
                    [this](const HttpRequest& req, const PathParams&) {
    const auto it = req.headers.find("Authorization");
    if (it == req.headers.end() || it->second.rfind("Bearer ", 0) != 0)
      return HttpResponse::error(net::kStatusUnauthorized, "no token");
    const auto grant = tokens_.refresh(it->second.substr(7), req.sim_time());
    if (!grant)
      return HttpResponse::error(net::kStatusUnauthorized, "token expired");
    Json body = Json::object();
    body.set("user", static_cast<std::uint64_t>(grant->user));
    body.set("token", grant->token);
    body.set("expires_at", grant->expires_at);
    return HttpResponse::json(std::move(body));
  });

  // --- Places API: GCA offloading (§2.3.1) ---
  router_.add_route(Method::Post, "/api/places/discover",
                    [this](const HttpRequest& req, const PathParams& params) {
    world::DeviceId user = 0;
    if (auto err = require_user(req, params, user)) return *err;
    if (auto err = require_writable(req, user)) return *err;
    std::vector<algorithms::CellObservation> observations =
        core::observations_from_json(req.body.at("observations"));
    Json body;
    {
      const auto locked = storage_.locked_user(user);
      // Suffix-upload protocol: the device's GSM log is append-only and the
      // cloud retains the stream it has already been fed, so a request may
      // carry only the new observations plus a claim about the prefix
      // (length + rolling movement digest). A claim that matches neither
      // the retained stream nor a replay of the last applied suffix means
      // the two sides disagree about history — 409 tells the device to
      // fall back to a full upload this pass.
      if (req.body.contains("prefix_len")) {
        const auto prefix_len =
            static_cast<std::size_t>(req.body.at("prefix_len").as_int());
        const std::uint64_t prefix_digest =
            core::digest_from_hex(req.body.at("prefix_digest").as_string());
        if (prefix_len == locked->gca_log.size() &&
            prefix_digest == locked->gca_log_digest) {
          locked->gca_log.insert(locked->gca_log.end(), observations.begin(),
                                 observations.end());
          locked->gca_log_digest =
              core::movement_digest(observations, locked->gca_log_digest);
        } else {
          // Replay (client retry after a lost response): the claimed prefix
          // plus this suffix IS the retained stream — nothing to apply.
          const bool replay =
              prefix_len + observations.size() == locked->gca_log.size() &&
              core::movement_digest(observations, prefix_digest) ==
                  locked->gca_log_digest;
          if (!replay)
            return HttpResponse::error(409, "gca log out of sync; resync");
        }
      } else {
        // Full upload: authoritative replacement of the retained stream.
        // GcaState::run detects a rewritten prefix itself and rebuilds.
        locked->gca_log = std::move(observations);
        locked->gca_log_digest = core::movement_digest(locked->gca_log);
      }
      body = core::to_json(locked->gca.run(locked->gca_log));
    }
    return HttpResponse::json(std::move(body));
  });

  // --- Places API: sync and retrieval ---
  router_.add_route(Method::Get, "/api/users/:id/places",
                    [this](const HttpRequest& req, const PathParams& params) {
    world::DeviceId user = 0;
    if (auto err = require_user(req, params, user)) return *err;
    Json arr = Json::array();
    {
      const auto locked = storage_.locked_user(user);
      for (const auto& [uid, record] : locked->places)
        arr.push_back(core::to_json(record));
    }
    Json body = Json::object();
    body.set("places", std::move(arr));
    return HttpResponse::json(std::move(body));
  });

  router_.add_route(Method::Put, "/api/users/:id/places/:uid",
                    [this](const HttpRequest& req, const PathParams& params) {
    world::DeviceId user = 0;
    if (auto err = require_user(req, params, user)) return *err;
    if (auto err = require_writable(req, user)) return *err;
    core::PlaceRecord record = core::place_record_from_json(req.body);
    record.uid = path_int<core::PlaceUid>(params, "uid");
    // Resolve an approximate position server-side when the client has none.
    if (!record.location)
      record.location = geoloc_.locate_signature(record.signature);
    storage_.locked_user(user)->places[record.uid] = record;
    Json body = Json::object();
    body.set("uid", static_cast<std::uint64_t>(record.uid));
    // Echo the resolved position so the mobile service can cache it locally
    // (geofencing and the map UI need coordinates on-device).
    if (record.location) body.set("location", core::to_json(*record.location));
    return HttpResponse::json(std::move(body), net::kStatusCreated);
  });

  router_.add_route(Method::Post, "/api/users/:id/places/:uid/label",
                    [this](const HttpRequest& req, const PathParams& params) {
    world::DeviceId user = 0;
    if (auto err = require_user(req, params, user)) return *err;
    if (auto err = require_writable(req, user)) return *err;
    const auto uid = path_int<core::PlaceUid>(params, "uid");
    {
      const auto locked = storage_.locked_user(user);
      auto& places = locked->places;
      const auto it = places.find(uid);
      if (it == places.end())
        return HttpResponse::error(net::kStatusNotFound, "unknown place");
      it->second.label = req.body.get_string("label", "");
    }
    return HttpResponse::json(Json::object());
  });

  // --- Mobility profiles API (§2.3.3) ---
  router_.add_route(Method::Put, "/api/users/:id/profiles/:day",
                    [this](const HttpRequest& req, const PathParams& params) {
    world::DeviceId user = 0;
    if (auto err = require_user(req, params, user)) return *err;
    if (auto err = require_writable(req, user)) return *err;
    core::MobilityProfile profile = core::profile_from_json(req.body);
    const std::int64_t day = path_int<std::int64_t>(params, "day");
    profile.day = day;
    profile.user = user;
    storage_.locked_user(user)->profiles[day] = std::move(profile);
    return HttpResponse::json(Json::object(), net::kStatusCreated);
  });

  router_.add_route(Method::Get, "/api/users/:id/profiles/:day",
                    [this](const HttpRequest& req, const PathParams& params) {
    world::DeviceId user = 0;
    if (auto err = require_user(req, params, user)) return *err;
    const std::int64_t day = path_int<std::int64_t>(params, "day");
    const auto locked = storage_.locked_user(user);
    const auto& profiles = locked->profiles;
    const auto it = profiles.find(day);
    if (it == profiles.end())
      return HttpResponse::error(net::kStatusNotFound, "no profile for day");
    return HttpResponse::json(core::to_json(it->second));
  });

  // --- Routes API ---
  router_.add_route(Method::Post, "/api/users/:id/routes",
                    [this](const HttpRequest& req, const PathParams& params) {
    world::DeviceId user = 0;
    if (auto err = require_user(req, params, user)) return *err;
    if (auto err = require_writable(req, user)) return *err;
    algorithms::RouteObservation obs = core::route_from_json(req.body);
    // Replay guard: the device stamps each upload with its route-log index.
    // A "seq" below the high-water mark was already applied — an outbox
    // replay whose original response was lost must not double-count the
    // journey in the canonical route's use_count. Requests without "seq"
    // (legacy callers, tests) always apply.
    const bool has_seq = req.body.contains("seq");
    const auto seq =
        static_cast<std::uint64_t>(req.body.get_int("seq", 0));
    std::size_t uid = 0;
    {
      const auto locked = storage_.locked_user(user);
      if (has_seq && seq < locked->route_seq_high_water) {
        // Already applied — nothing changed.
        Json body = Json::object();
        body.set("duplicate", true);
        return HttpResponse::json(std::move(body));
      }
      uid = locked->routes.add(std::move(obs));
      if (has_seq)
        locked->route_seq_high_water = seq + 1;
    }
    Json body = Json::object();
    body.set("route_uid", static_cast<std::uint64_t>(uid));
    return HttpResponse::json(std::move(body), net::kStatusCreated);
  });

  router_.add_route(Method::Get, "/api/users/:id/routes",
                    [this](const HttpRequest& req, const PathParams& params) {
    world::DeviceId user = 0;
    if (auto err = require_user(req, params, user)) return *err;
    const auto locked = storage_.locked_user(user);
    const auto& store = locked->routes;
    Json arr = Json::array();
    auto emit = [&arr](std::size_t uid, const algorithms::CanonicalRoute& r) {
      Json e = Json::object();
      e.set("route_uid", static_cast<std::uint64_t>(uid));
      e.set("from", static_cast<std::uint64_t>(r.representative.from_place));
      e.set("to", static_cast<std::uint64_t>(r.representative.to_place));
      e.set("use_count", static_cast<std::uint64_t>(r.use_count));
      arr.push_back(std::move(e));
    };
    const auto from = query_int<std::size_t>(req, "from");
    const auto to = query_int<std::size_t>(req, "to");
    if (from && to) {
      for (std::size_t uid : store.between(*from, *to))
        emit(uid, store.routes()[uid]);
    } else {
      for (std::size_t uid = 0; uid < store.routes().size(); ++uid)
        emit(uid, store.routes()[uid]);
    }
    Json body = Json::object();
    body.set("routes", std::move(arr));
    return HttpResponse::json(std::move(body));
  });

  // --- Social contacts API ---
  router_.add_route(Method::Post, "/api/users/:id/contacts",
                    [this](const HttpRequest& req, const PathParams& params) {
    world::DeviceId user = 0;
    if (auto err = require_user(req, params, user)) return *err;
    if (auto err = require_writable(req, user)) return *err;
    // Decode the whole batch before touching the store, so a malformed
    // entry rejects the request without applying a prefix of it.
    std::vector<core::EncounterEntry> batch;
    for (const auto& e : req.body.at("encounters").as_array())
      batch.push_back(core::encounter_from_json(e));
    const auto locked = storage_.locked_user(user);
    // Replay guard mirroring the routes "seq": the batch declares the
    // device-side log index of its first entry, and entries below the
    // high-water mark were already applied by an earlier attempt.
    std::size_t skip = 0;
    if (req.body.contains("first_index")) {
      const auto first =
          static_cast<std::uint64_t>(req.body.get_int("first_index", 0));
      if (first < locked->encounter_high_water)
        skip = static_cast<std::size_t>(
            std::min<std::uint64_t>(locked->encounter_high_water - first,
                                    batch.size()));
      locked->encounter_high_water =
          std::max(locked->encounter_high_water, first + batch.size());
    }
    locked->encounters.insert(locked->encounters.end(),
                              batch.begin() + static_cast<std::ptrdiff_t>(skip),
                              batch.end());
    return HttpResponse::json(Json::object(), net::kStatusCreated);
  });

  router_.add_route(Method::Get, "/api/users/:id/contacts",
                    [this](const HttpRequest& req, const PathParams& params) {
    world::DeviceId user = 0;
    if (auto err = require_user(req, params, user)) return *err;
    const auto place_filter = query_int<core::PlaceUid>(req, "place");
    Json arr = Json::array();
    const auto locked = storage_.locked_user(user);
    for (const auto& e : locked->encounters) {
      if (place_filter && e.place != *place_filter) continue;
      arr.push_back(core::to_json(e));
    }
    Json body = Json::object();
    body.set("encounters", std::move(arr));
    return HttpResponse::json(std::move(body));
  });

  // --- Privacy: data deletion (paper §6 "greater privacy and security
  // guarantees") ---
  router_.add_route(Method::Delete, "/api/users/:id",
                    [this](const HttpRequest& req, const PathParams& params) {
    world::DeviceId user = 0;
    if (auto err = require_user(req, params, user)) return *err;
    // The GCA state lives in the user's store, so one erase drops
    // everything — data and clustering state alike. A session-stamped wipe
    // also leaves a tombstone at that session, permanently fencing out any
    // still-queued writes from the wiped incarnation (sessionless wipes —
    // tests, legacy callers — erase without fencing).
    storage_.erase_user(user, request_session(req));
    return HttpResponse::json(Json::object());
  });

  router_.add_route(Method::Delete, "/api/users/:id/places/:uid",
                    [this](const HttpRequest& req, const PathParams& params) {
    world::DeviceId user = 0;
    if (auto err = require_user(req, params, user)) return *err;
    // Gated too: after a wipe + re-registration, place uids can be reused,
    // so a replayed delete from the wiped incarnation could hit new data.
    if (auto err = require_writable(req, user)) return *err;
    const auto uid = path_int<core::PlaceUid>(params, "uid");
    if (!storage_.erase_place(user, uid))
      return HttpResponse::error(net::kStatusNotFound, "unknown place");
    return HttpResponse::json(Json::object());
  });

  // --- Activity tracking (paper §6 future work) ---
  router_.add_route(Method::Get, "/api/users/:id/analytics/activity/:day",
                    [this](const HttpRequest& req, const PathParams& params) {
    world::DeviceId user = 0;
    if (auto err = require_user(req, params, user)) return *err;
    const std::int64_t day = path_int<std::int64_t>(params, "day");
    const auto locked = storage_.locked_user(user);
    const auto& profiles = locked->profiles;
    const auto it = profiles.find(day);
    if (it == profiles.end() || it->second.activity.empty())
      return HttpResponse::error(net::kStatusNotFound, "no activity for day");
    return HttpResponse::json(core::to_json(it->second.activity));
  });

  // --- Geo-location API (§2.3.3 "miscellaneous services") ---
  router_.add_route(Method::Get, "/api/geo/cell/:mcc/:mnc/:lac/:cid",
                    [this](const HttpRequest& req, const PathParams& params) {
    world::DeviceId user = 0;
    if (auto err = require_user(req, params, user)) return *err;
    world::CellId cell;
    cell.mcc = path_int<std::uint16_t>(params, "mcc");
    cell.mnc = path_int<std::uint16_t>(params, "mnc");
    cell.lac = path_int<std::uint16_t>(params, "lac");
    cell.cid = path_int<std::uint32_t>(params, "cid");
    const auto radio_it = req.query.find("radio");
    cell.radio = (radio_it != req.query.end() && radio_it->second == "3g")
                     ? world::Radio::Umts3G
                     : world::Radio::Gsm2G;
    const auto pos = geoloc_.locate_cell(cell);
    if (!pos) return HttpResponse::error(net::kStatusNotFound, "unknown cell");
    return HttpResponse::json(core::to_json(*pos));
  });

  // --- Analytics & prediction engine (§2.3.2) ---
  router_.add_route(Method::Get, "/api/users/:id/analytics/arrival/:uid",
                    [this](const HttpRequest& req, const PathParams& params) {
    world::DeviceId user = 0;
    if (auto err = require_user(req, params, user)) return *err;
    const auto uid = path_int<core::PlaceUid>(params, "uid");
    const auto tod = analytics_.typical_arrival_tod(user, uid);
    if (!tod) return HttpResponse::error(net::kStatusNotFound, "no history");
    Json body = Json::object();
    body.set("typical_arrival_tod", *tod);
    return HttpResponse::json(std::move(body));
  });

  router_.add_route(Method::Get, "/api/users/:id/analytics/next_visit/:uid",
                    [this](const HttpRequest& req, const PathParams& params) {
    world::DeviceId user = 0;
    if (auto err = require_user(req, params, user)) return *err;
    const auto uid = path_int<core::PlaceUid>(params, "uid");
    const auto t = analytics_.predict_next_visit(user, uid, req.sim_time());
    if (!t) return HttpResponse::error(net::kStatusNotFound, "no prediction");
    Json body = Json::object();
    body.set("predicted_at", *t);
    return HttpResponse::json(std::move(body));
  });

  router_.add_route(Method::Get, "/api/users/:id/analytics/departure/:uid",
                    [this](const HttpRequest& req, const PathParams& params) {
    world::DeviceId user = 0;
    if (auto err = require_user(req, params, user)) return *err;
    const auto uid = path_int<core::PlaceUid>(params, "uid");
    const auto tod = analytics_.typical_departure_tod(user, uid);
    if (!tod) return HttpResponse::error(net::kStatusNotFound, "no history");
    Json body = Json::object();
    body.set("typical_departure_tod", *tod);
    return HttpResponse::json(std::move(body));
  });

  router_.add_route(Method::Get, "/api/users/:id/analytics/next_place/:uid",
                    [this](const HttpRequest& req, const PathParams& params) {
    world::DeviceId user = 0;
    if (auto err = require_user(req, params, user)) return *err;
    const auto uid = path_int<core::PlaceUid>(params, "uid");
    const auto next = analytics_.predict_next_place(user, uid);
    if (!next) return HttpResponse::error(net::kStatusNotFound, "no history");
    Json body = Json::object();
    body.set("place", static_cast<std::uint64_t>(next->place));
    body.set("probability", next->probability);
    return HttpResponse::json(std::move(body));
  });

  router_.add_route(Method::Get, "/api/users/:id/analytics/frequency",
                    [this](const HttpRequest& req, const PathParams& params) {
    world::DeviceId user = 0;
    if (auto err = require_user(req, params, user)) return *err;
    const auto it = req.query.find("label");
    std::vector<core::PlaceUid> matching;
    {
      // Collect the matching uids and RELEASE the shard lock before
      // asking the analytics engine: it re-enters the storage (visits_at)
      // and the shard mutex is non-recursive.
      const auto locked = storage_.locked_user(user);
      for (const auto& [uid, record] : locked->places) {
        if (it == req.query.end() || record.label == it->second)
          matching.push_back(uid);
      }
    }
    Json body = Json::object();
    body.set("visits_per_week",
             analytics_.visit_frequency_per_week(user, matching));
    return HttpResponse::json(std::move(body));
  });
}

}  // namespace pmware::cloud
