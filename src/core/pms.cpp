#include "core/pms.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "cache/digest.hpp"
#include "cache/outcome.hpp"
#include "core/codec.hpp"
#include "core/persistence.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "telemetry/log.hpp"
#include "util/strfmt.hpp"

namespace pmware::core {

namespace {

constexpr const char* kPlaceEvents = "pms_place_events_total";
constexpr const char* kRouteEvents = "pms_route_events_total";
constexpr const char* kEncounters = "pms_encounters_total";
constexpr const char* kProfileSyncs = "pms_profile_syncs_total";
constexpr const char* kTokenRefreshes = "pms_token_refreshes_total";
constexpr const char* kGcaOffloads = "pms_gca_offloads_total";
constexpr const char* kGcaLocal = "pms_gca_local_total";
constexpr const char* kGcaResyncs = "pms_gca_resyncs_total";
constexpr const char* kSyncFailures = "pms_sync_failures_total";
constexpr const char* kOutboxEnqueued = "pms_outbox_enqueued_total";
constexpr const char* kOutboxDelivered = "pms_outbox_delivered_total";
constexpr const char* kOutboxRecovered = "pms_outbox_recovered_total";
constexpr const char* kOutboxEvicted = "pms_outbox_evicted_total";
constexpr const char* kOutboxDropped = "pms_outbox_dropped_total";
constexpr const char* kOutboxDepth = "pms_outbox_depth";
constexpr const char* kRestarts = "pms_restarts_total";
constexpr const char* kCheckpointBytes = "pms_checkpoint_bytes";
constexpr const char* kRestoreWall = "pms_restore_wall_us";
constexpr const char* kColdProfileDays = "pms_cold_profile_days_recovered_total";

/// Sync-failure kinds beyond the outbox's SyncKinds (direct sends).
constexpr const char* kKindLabel = "label";
constexpr const char* kKindWipe = "wipe";
/// All kind labels pms_sync_failures_total is emitted under, for
/// PmsStats::sync_failures aggregation.
constexpr const char* kFailureKinds[] = {"profile", "place", "place_delete",
                                         "route",   "encounter", "label",
                                         "wipe"};

// Digest primitives for dirty detection come from the cache subsystem; the
// movement digest comes from core/codec, shared with the cloud.
using cache::fnv1a;
using cache::fold;
constexpr std::uint64_t kDigestBasis = cache::kDigestBasis;

/// Metric-series name of the device GCA result cache.
constexpr const char* kGcaCacheName = "pms_gca";

// --- Checkpoint wire format (Pms::save/restore) ---
// A manifest line {"format","version","lines","digest"} followed by `lines`
// JSONL lines of sectioned body: each section is a {"section","lines"} header
// followed by that many payload lines, one codec-encoded value each. The
// digest is fnv1a over the body bytes, so restore() detects a torn or
// bit-flipped checkpoint before committing anything.
constexpr const char* kCheckpointFormat = "pms-checkpoint";
constexpr std::int64_t kCheckpointVersion = 1;

/// The engine's encounter event in the model's (wire and checkpoint) shape.
EncounterEntry entry_of(const EncounterEvent& event) {
  return {event.contact, event.place, event.window.begin, event.window.end};
}

}  // namespace

PmwareMobileService::PmwareMobileService(
    std::unique_ptr<sensing::Device> device, PmsConfig config,
    std::unique_ptr<net::RestClient> client, Rng rng)
    : config_(std::move(config)),
      device_(std::move(device)),
      meter_(config_.power),
      scheduler_(&meter_),
      apps_(&preferences_),
      engine_(device_.get(), &scheduler_, &place_store_, &apps_,
              config_.inference, rng.fork(1)),
      local_gca_(config_.inference.gca),
      client_(std::move(client)),
      instance_(telemetry::registry().next_instance_label("pms")),
      outbox_(config_.outbox) {
  place_events_counter_.emplace(kPlaceEvents,
                                telemetry::LabelSet{{"instance", instance_}},
                                "place events delivered to connected apps");
  route_events_counter_.emplace(kRouteEvents,
                                telemetry::LabelSet{{"instance", instance_}},
                                "route events delivered to connected apps");
  encounters_counter_.emplace(kEncounters,
                              telemetry::LabelSet{{"instance", instance_}},
                              "encounter events delivered to connected apps");
  outbox_enqueued_counter_.emplace(
      kOutboxEnqueued, telemetry::LabelSet{{"instance", instance_}},
      "sync work items queued in the outbox");
  outbox_evicted_counter_.emplace(
      kOutboxEvicted, telemetry::LabelSet{{"instance", instance_}},
      "outbox entries dropped to capacity (oldest first)");
  outbox_delivered_counter_.emplace(
      kOutboxDelivered, telemetry::LabelSet{{"instance", instance_}},
      "outbox work items delivered to the cloud");
  outbox_recovered_counter_.emplace(
      kOutboxRecovered, telemetry::LabelSet{{"instance", instance_}},
      "outbox items delivered after one or more failed attempts");
  engine_.set_place_event_sink([this](const PlaceEvent& event) {
    std::size_t delivered =
        apps_.deliver_place_event(event, place_store_, bus_);
    delivered += apps_.deliver_geofence(event, place_store_, bus_);
    place_events_counter_->get().inc(delivered);
  });
  engine_.set_route_event_sink([this](const RouteEvent& event) {
    route_events_counter_->get().inc(apps_.deliver_route_event(event, bus_));
  });
  engine_.set_encounter_sink([this](const EncounterEvent& event) {
    encounters_counter_->get().inc(apps_.deliver_encounter(event, bus_));
  });
  engine_.set_gca_runner(
      [this](std::span<const algorithms::CellObservation> observations) {
        return offloaded_gca(observations, scheduler_.now());
      });
  engine_.attach();
}

telemetry::Counter& PmwareMobileService::counter(const char* name,
                                                 const char* help) const {
  return telemetry::registry().counter(name, {{"instance", instance_}}, help);
}

PmsStats PmwareMobileService::stats() const {
  const auto& reg = telemetry::registry();
  const telemetry::LabelSet labels = {{"instance", instance_}};
  PmsStats stats;
  stats.place_events_delivered = reg.counter_value(kPlaceEvents, labels);
  stats.route_events_delivered = reg.counter_value(kRouteEvents, labels);
  stats.encounters_delivered = reg.counter_value(kEncounters, labels);
  stats.profile_syncs = reg.counter_value(kProfileSyncs, labels);
  stats.token_refreshes = reg.counter_value(kTokenRefreshes, labels);
  stats.gca_offloads = reg.counter_value(kGcaOffloads, labels);
  stats.gca_local_runs = reg.counter_value(kGcaLocal, labels);
  for (const char* kind : kFailureKinds)
    stats.sync_failures += reg.counter_value(
        kSyncFailures, {{"instance", instance_}, {"kind", kind}});
  stats.outbox_enqueued = reg.counter_value(kOutboxEnqueued, labels);
  stats.outbox_delivered = reg.counter_value(kOutboxDelivered, labels);
  stats.outbox_recovered = reg.counter_value(kOutboxRecovered, labels);
  stats.outbox_evicted = reg.counter_value(kOutboxEvicted, labels);
  stats.outbox_dropped = reg.counter_value(kOutboxDropped, labels);
  stats.outbox_pending = outbox_.size();
  return stats;
}

net::HttpRequest PmwareMobileService::make_request(net::Method method,
                                                   std::string path,
                                                   SimTime now) const {
  net::HttpRequest request;
  request.method = method;
  request.path = std::move(path);
  request.headers["X-Sim-Time"] = std::to_string(now);
  // Stamp the registration session so the cloud can fence writes from
  // incarnations that predate a privacy wipe (tombstones, DESIGN.md
  // "Failure model & recovery").
  if (boot_epoch_ > 0)
    request.headers[net::kSessionHeader] = std::to_string(boot_epoch_);
  return request;
}

bool PmwareMobileService::register_with_cloud(SimTime now) {
  if (client_ == nullptr) return false;
  // Remember that the caller wants this device registered: if this attempt
  // fails (outage at study start), housekeeping keeps retrying — the
  // /api/register endpoint is idempotent on (imei, email).
  registration_wanted_ = true;
  net::HttpRequest request = make_request(net::Method::Post, "/api/register", now);
  request.body = Json::object();
  request.body.set("imei", config_.imei);
  request.body.set("email", config_.email);
  const net::HttpResponse response = client_->send(std::move(request));
  if (!response.ok()) {
    telemetry::slog_warn("pms", now, "registration failed: %d",
                         response.status);
    return false;
  }
  user_id_ = static_cast<world::DeviceId>(response.body.at("user").as_int());
  client_->set_auth_token(response.body.at("token").as_string());
  token_expires_ = response.body.at("expires_at").as_int();
  // The cloud counts registrations per device; that session number is this
  // incarnation's boot epoch (qualifies outbox replay sequence numbers,
  // keys wipe tombstones).
  boot_epoch_ =
      static_cast<std::uint64_t>(response.body.get_int("session", 0));
  telemetry::slog_info("pms", now, "registered as user %u", *user_id_);
  return true;
}

void PmwareMobileService::maybe_refresh_token(SimTime now) {
  if (client_ == nullptr || !user_id_) return;
  // Refresh once less than six hours of validity remain.
  if (token_expires_ - now >= hours(6)) return;
  net::HttpRequest request =
      make_request(net::Method::Post, "/api/token/refresh", now);
  const net::HttpResponse response = client_->send(std::move(request));
  if (response.ok()) {
    client_->set_auth_token(response.body.at("token").as_string());
    token_expires_ = response.body.at("expires_at").as_int();
    counter(kTokenRefreshes, "successful bearer-token refreshes").inc();
  } else {
    // Expired beyond refresh: re-register (idempotent on imei/email).
    register_with_cloud(now);
  }
}

algorithms::GcaResult PmwareMobileService::offloaded_gca(
    std::span<const algorithms::CellObservation> observations, SimTime now) {
  // Rolling movement digest: the GSM log is append-only, so extend the
  // digest over just the new observations instead of re-folding the whole
  // log every pass. A shrunk log (a different stream) resets the fold —
  // the same guard GcaState applies — and so does an acknowledged prefix
  // longer than the fold, which only a corrupt checkpoint can restore.
  if (observations.size() < digest_fed_ || digest_fed_ < upload_acked_) {
    digest_fed_ = 0;
    digest_ = cache::kDigestBasis;
    upload_acked_ = 0;
    upload_digest_ = cache::kDigestBasis;
  }
  digest_ = movement_digest(observations.subspan(digest_fed_), digest_);
  digest_fed_ = observations.size();
  const std::uint64_t graph_digest = digest_;

  // Content-addressed elision: an unchanged movement graph means an
  // identical clustering result (local, offloaded, or replayed — all equal
  // by design), so serve it from the cache without touching the wire.
  if (config_.cache) {
    if (gca_cache_ && gca_cache_->digest == graph_digest) {
      cache::record_outcome(kGcaCacheName, cache::CacheOutcome::LocalHit);
      return gca_cache_->result;
    }
    cache::record_outcome(kGcaCacheName,
                          gca_cache_ ? cache::CacheOutcome::Recompute
                                     : cache::CacheOutcome::Miss);
  }
  const auto remember = [&](const algorithms::GcaResult& result) {
    if (config_.cache) gca_cache_ = CachedGca{graph_digest, result};
  };
  if (config_.offload_gca && client_ != nullptr && user_id_) {
    telemetry::Span span(telemetry::tracer(), "pms.gca_offload", now);
    // Suffix upload: ship only what the cloud has not acknowledged, plus a
    // claim about the acknowledged prefix (length + rolling digest). The
    // cloud retains the stream, verifies the claim, and answers 409 when
    // the two sides disagree about history (e.g. a response was lost after
    // the cloud applied a suffix) — then this pass re-sends everything.
    auto build_request = [&](std::size_t from, bool with_prefix) {
      net::HttpRequest request =
          make_request(net::Method::Post, "/api/places/discover", now);
      request.body = Json::object();
      request.body.set("observations",
                       observations_to_json(observations.subspan(from)));
      if (with_prefix) {
        request.body.set("prefix_len", static_cast<std::int64_t>(from));
        request.body.set("prefix_digest", digest_to_hex(upload_digest_));
      }
      return request;
    };
    net::HttpResponse response =
        client_->send(build_request(upload_acked_, true));
    if (response.status == 409) {
      counter(kGcaResyncs,
              "GCA offloads that fell back to a full upload after the cloud "
              "rejected the suffix prefix claim")
          .inc();
      response = client_->send(build_request(0, false));
    }
    if (response.ok()) {
      upload_acked_ = observations.size();
      upload_digest_ = graph_digest;
      counter(kGcaOffloads, "GCA clustering passes offloaded to the cloud")
          .inc();
      algorithms::GcaResult result = gca_result_from_json(response.body);
      remember(result);
      return result;
    }
    telemetry::slog_warn("pms", now, "GCA offload failed (%d); running locally",
                         response.status);
  }
  counter(kGcaLocal, "GCA clustering passes run on-device").inc();
  telemetry::Span span(telemetry::tracer(), "pms.gca_local", now);
  algorithms::GcaResult result = local_gca_.run(observations);
  remember(result);
  return result;
}

void PmwareMobileService::run(TimeWindow window) {
  telemetry::ScopedTimer run_span(telemetry::tracer(), "pms.run",
                                  [this] { return scheduler_.now(); });
  // Split at day boundaries so housekeeping runs between days.
  SimTime cursor = window.begin;
  while (cursor < window.end) {
    const SimTime day_end =
        std::min(window.end, start_of_day(day_of(cursor) + 1));
    scheduler_.run(TimeWindow{cursor, day_end});
    cursor = day_end;
    if (cursor < window.end || time_of_day(cursor) == 0)
      housekeeping(cursor);
  }
}

void PmwareMobileService::housekeeping(SimTime now) {
  // Sim time stands still during housekeeping — the span exists for its wall
  // cost and to parent the GCA offload/local spans opened underneath.
  telemetry::Span span(telemetry::tracer(), "pms.housekeeping", now);
  // A wanted-but-failed registration (outage at study start) retries here;
  // everything downstream needs the user id and token it produces.
  if (client_ != nullptr && registration_wanted_ && !user_id_)
    register_with_cloud(now);
  // Refresh credentials next: the recluster below may offload to the cloud.
  maybe_refresh_token(now);
  engine_.recluster(now);
  if (client_ != nullptr && user_id_) {
    const std::int64_t up_to = day_of(now) - (time_of_day(now) == 0 ? 1 : 0);
    enqueue_sync_work(up_to, now);
    drain_outbox(now);
  }
}

void PmwareMobileService::enqueue_sync_work(std::int64_t up_to, SimTime now) {
  // Dirty profile days. Each recluster can refine earlier days' visit logs,
  // so completed days are re-checked — but only days whose content digest
  // actually changed are re-PUT, not every day from 0 (the digests come
  // from one pass over the logs, so a steady-state tick costs O(logs),
  // not O(days * logs)).
  day_digest_cache_ = day_digests(up_to);
  for (std::int64_t day = 0; day <= up_to; ++day) {
    const auto& [digest, any] = day_digest_cache_[static_cast<std::size_t>(day)];
    if (!any) continue;  // empty profile: nothing to PUT (matches old skip)
    const auto it = synced_day_digest_.find(day);
    if (it != synced_day_digest_.end() && it->second == digest) continue;
    enqueue(SyncKind::ProfileDay, static_cast<std::uint64_t>(day), 0, now);
  }

  // Dirty place records (signatures may have shifted after recluster, the
  // user may have tagged a label). Dirtiness is the digest of the exact
  // body deliver() would PUT.
  for (const auto& [uid, record] : place_store_.records()) {
    PlaceRecord stripped = record;
    stripped.location.reset();
    const std::uint64_t digest = fnv1a(to_json(stripped).dump());
    const auto it = synced_place_digest_.find(uid);
    if (it != synced_place_digest_.end() && it->second == digest) continue;
    enqueue(SyncKind::PlaceUpsert, static_cast<std::uint64_t>(uid), 0, now);
  }

  // Journeys completed since the last tick; the log index doubles as the
  // replay sequence number the cloud dedups on.
  const auto& route_log = engine_.route_log();
  for (; routes_enqueued_ < route_log.size(); ++routes_enqueued_)
    enqueue(SyncKind::Route, static_cast<std::uint64_t>(routes_enqueued_), 0,
            now);

  // New social encounters, as one batch entry per drain backlog.
  const auto& encounter_log = engine_.encounter_log();
  if (encounters_enqueued_ < encounter_log.size()) {
    enqueue(SyncKind::EncounterBatch,
            static_cast<std::uint64_t>(encounters_enqueued_),
            static_cast<std::uint64_t>(encounter_log.size()), now);
    encounters_enqueued_ = encounter_log.size();
  }
}

void PmwareMobileService::enqueue(SyncKind kind, std::uint64_t key,
                                  std::uint64_t key2, SimTime now) {
  const SyncOutbox::EnqueueResult result =
      outbox_.enqueue(kind, key, key2, now, boot_epoch_);
  if (result.appended) outbox_enqueued_counter_->get().inc();
  if (result.evicted) {
    outbox_evicted_counter_->get().inc();
    // A dropped day/place re-detects as dirty next tick (its synced digest
    // was never updated); dropped routes/encounters are honest data loss.
    telemetry::slog_warn(
        "pms", now, "outbox full (%zu): evicted %s key=%llu queued at %lld",
        outbox_.config().capacity, kind_name(result.evicted->kind),
        static_cast<unsigned long long>(result.evicted->key),
        static_cast<long long>(result.evicted->enqueued_at));
  }
}

void PmwareMobileService::drain_outbox(SimTime now) {
  outbox_.drain([&](const OutboxEntry& entry) {
    switch (deliver(entry, now)) {
      case DeliverOutcome::Failed:
        record_sync_failure(entry.kind, 0, now);
        return false;
      case DeliverOutcome::Gone:
        // The cloud tombstoned this user (privacy wipe): replaying is
        // pointless and forbidden. Drop the entry and keep draining —
        // deliberate loss, accounted as dropped rather than delivered.
        counter(kOutboxDropped,
                "outbox entries discarded (crash/wipe teardown, tombstoned "
                "user)")
            .inc();
        telemetry::slog_warn(
            "pms", now, "%s sync rejected (user wiped); dropping entry",
            kind_name(entry.kind));
        return true;
      case DeliverOutcome::Delivered:
        break;
    }
    outbox_delivered_counter_->get().inc();
    if (entry.attempts > 0) outbox_recovered_counter_->get().inc();
    return true;
  });
  telemetry::registry()
      .gauge(kOutboxDepth, {{"instance", instance_}},
             "sync work items currently queued")
      .set(static_cast<double>(outbox_.size()));
}

PmwareMobileService::DeliverOutcome PmwareMobileService::deliver(
    const OutboxEntry& entry, SimTime now) {
  // Shared verdict for plain success/failure responses; 410 Gone is the
  // cloud's permanent "this user was wiped" refusal.
  const auto verdict = [](const net::HttpResponse& response) {
    if (response.ok()) return DeliverOutcome::Delivered;
    if (response.status == net::kStatusGone) return DeliverOutcome::Gone;
    return DeliverOutcome::Failed;
  };
  // Deliveries authenticate their *enqueue-time* session, not the current
  // boot's: an entry checkpointed before a privacy wipe replays with its old
  // session and is rejected by the cloud's wipe tombstone (410 -> dropped),
  // so restored state can never resurrect wiped data.
  const auto entry_request = [&](net::Method method, const std::string& path) {
    net::HttpRequest request = make_request(method, path, now);
    if (entry.epoch > 0)
      request.headers[net::kSessionHeader] = std::to_string(entry.epoch);
    return request;
  };
  switch (entry.kind) {
    case SyncKind::ProfileDay: {
      const auto day = static_cast<std::int64_t>(entry.key);
      const MobilityProfile profile = profile_for(day);
      if (profile.empty())
        return DeliverOutcome::Delivered;  // refined away since enqueue
      net::HttpRequest request = entry_request(
          net::Method::Put, strfmt("/api/users/%u/profiles/%lld", *user_id_,
                                   static_cast<long long>(day)));
      request.body = to_json(profile);
      const DeliverOutcome outcome = verdict(client_->send(std::move(request)));
      if (outcome == DeliverOutcome::Gone &&
          static_cast<std::size_t>(day) < day_digest_cache_.size()) {
        // Honor the wipe: content the cloud refused under its pre-wipe
        // session must not be re-uploaded under the fresh one, so pin the
        // day's digest as synced. Only a genuinely new refinement of the
        // day (digest change) syncs again.
        synced_day_digest_[day] =
            day_digest_cache_[static_cast<std::size_t>(day)].first;
      }
      if (outcome != DeliverOutcome::Delivered) return outcome;
      counter(kProfileSyncs, "mobility-profile days synced to the cloud").inc();
      if (static_cast<std::size_t>(day) < day_digest_cache_.size())
        synced_day_digest_[day] =
            day_digest_cache_[static_cast<std::size_t>(day)].first;
      return DeliverOutcome::Delivered;
    }
    case SyncKind::PlaceUpsert: {
      const auto uid = static_cast<PlaceUid>(entry.key);
      const PlaceRecord* record = place_store_.get(uid);
      if (record == nullptr)
        return DeliverOutcome::Delivered;  // forgotten since enqueue
      // The body never carries the locally cached location: the cloud
      // resolves coordinates from the signature in the body on every PUT,
      // so cloud state is a pure function of the record content — a
      // replayed upsert after an outage converges to the same bytes as the
      // never-failed run (DESIGN.md "Failure model & recovery").
      PlaceRecord stripped = *record;
      stripped.location.reset();
      net::HttpRequest request = entry_request(
          net::Method::Put, strfmt("/api/users/%u/places/%llu", *user_id_,
                                   static_cast<unsigned long long>(uid)));
      request.body = to_json(stripped);
      const std::uint64_t digest = fnv1a(request.body.dump());
      const net::HttpResponse response = client_->send(std::move(request));
      if (const DeliverOutcome outcome = verdict(response);
          outcome != DeliverOutcome::Delivered) {
        // Same wipe-honoring pin as ProfileDay: a tombstoned upsert stays
        // "synced" so the fresh session never resurrects it.
        if (outcome == DeliverOutcome::Gone) synced_place_digest_[uid] = digest;
        return outcome;
      }
      // Cache the echoed resolution (geofencing and the map UI need
      // positions on-device) — from every echo, so the local view follows
      // the cloud's current resolution instead of pinning the first one.
      if (response.body.contains("location")) {
        if (PlaceRecord* mut = place_store_.get_mutable(uid))
          mut->location = latlng_from_json(response.body.at("location"));
      }
      synced_place_digest_[uid] = digest;
      return DeliverOutcome::Delivered;
    }
    case SyncKind::PlaceDelete: {
      const auto uid = static_cast<PlaceUid>(entry.key);
      const net::HttpResponse response = client_->send(entry_request(
          net::Method::Delete,
          strfmt("/api/users/%u/places/%llu", *user_id_,
                 static_cast<unsigned long long>(uid))));
      // 404 means an earlier attempt (or never-synced place) already left
      // the cloud without it: done.
      if (response.status == net::kStatusNotFound)
        return DeliverOutcome::Delivered;
      return verdict(response);
    }
    case SyncKind::Route: {
      const auto index = static_cast<std::size_t>(entry.key);
      const auto& route_log = engine_.route_log();
      if (index >= route_log.size()) return DeliverOutcome::Delivered;
      const RouteEvent& event = route_log[index];
      const auto& canonical = engine_.routes().routes();
      if (event.route_uid >= canonical.size())
        return DeliverOutcome::Delivered;  // not canonical
      // The canonical route's path, between this journey's places and times.
      algorithms::RouteObservation journey =
          canonical[event.route_uid].representative;
      journey.from_place = static_cast<std::size_t>(event.from);
      journey.to_place = static_cast<std::size_t>(event.to);
      journey.window = event.window;
      net::HttpRequest request = entry_request(
          net::Method::Post, strfmt("/api/users/%u/routes", *user_id_));
      request.body = to_json(journey);
      // Replay guard: the cloud skips sequence numbers it already applied.
      // Qualified by the boot epoch the entry was enqueued under: a
      // checkpointed entry replayed after a crash keeps its original
      // sequence number (the cloud's high-water mark dedups a pre-crash
      // delivery), while the new incarnation's fresh log indices sit in a
      // strictly higher epoch and can never be wrongly deduplicated.
      request.body.set("seq", (entry.epoch << 32) | entry.key);
      return verdict(client_->send(std::move(request)));
    }
    case SyncKind::EncounterBatch: {
      const auto& encounter_log = engine_.encounter_log();
      const std::size_t first = static_cast<std::size_t>(entry.key);
      const std::size_t last =
          std::min(static_cast<std::size_t>(entry.key2), encounter_log.size());
      if (first >= last) return DeliverOutcome::Delivered;
      net::HttpRequest request = entry_request(
          net::Method::Post, strfmt("/api/users/%u/contacts", *user_id_));
      Json encounters = Json::array();
      for (std::size_t i = first; i < last; ++i)
        encounters.push_back(to_json(entry_of(encounter_log[i])));
      request.body = Json::object();
      // Replay guard: the cloud trims entries below its high-water mark.
      // Epoch-qualified like route sequence numbers; same-epoch ranges are
      // contiguous, so the cloud's trim arithmetic stays exact.
      request.body.set("first_index", (entry.epoch << 32) | entry.key);
      request.body.set("encounters", std::move(encounters));
      return verdict(client_->send(std::move(request)));
    }
  }
  return DeliverOutcome::Delivered;
}

void PmwareMobileService::record_sync_failure(SyncKind kind, int status,
                                              SimTime now) {
  telemetry::registry()
      .counter(kSyncFailures,
               {{"instance", instance_}, {"kind", kind_name(kind)}},
               "sync sends that failed (parked in the outbox for replay)")
      .inc();
  telemetry::slog_warn("pms", now, "%s sync failed (status %d); outbox holds %zu",
                       kind_name(kind), status, outbox_.size());
}

std::vector<std::pair<std::uint64_t, bool>> PmwareMobileService::day_digests(
    std::int64_t up_to) const {
  std::vector<std::pair<std::uint64_t, bool>> digests(
      up_to < 0 ? 0 : static_cast<std::size_t>(up_to) + 1,
      {kDigestBasis, false});
  if (digests.empty()) return digests;
  // One pass over each log, folding every entry into the digests of the
  // days it contributes to — the same inclusion rules as profile_for():
  // visits clamp to the day and must meet the dwell minimum; routes and
  // encounters contribute their unclamped windows to every day they
  // overlap. Day windows are half-open, so an event's last touched day is
  // day_of(end - 1) — except zero-length windows, which overlaps() counts
  // on their single day.
  const auto touched_days = [&](const TimeWindow& w,
                                const auto& per_day) {
    const std::int64_t first = std::max<std::int64_t>(0, day_of(w.begin));
    const std::int64_t last =
        std::min(up_to, day_of(std::max(w.end - 1, w.begin)));
    for (std::int64_t day = first; day <= last; ++day)
      per_day(day, TimeWindow{start_of_day(day), start_of_day(day + 1)});
  };
  for (const auto& visit : engine_.visit_log()) {
    touched_days(visit.window, [&](std::int64_t day, const TimeWindow& dw) {
      if (visit.window.overlap_length(dw) < config_.inference.min_visit_dwell)
        return;
      auto& [h, any] = digests[static_cast<std::size_t>(day)];
      fold(h, 1);  // domain tag: visit
      fold(h, static_cast<std::uint64_t>(visit.uid));
      fold(h, static_cast<std::uint64_t>(std::max(visit.window.begin, dw.begin)));
      fold(h, static_cast<std::uint64_t>(std::min(visit.window.end, dw.end)));
      any = true;
    });
  }
  for (const auto& route : engine_.route_log()) {
    touched_days(route.window, [&](std::int64_t day, const TimeWindow& dw) {
      if (!route.window.overlaps(dw)) return;
      auto& [h, any] = digests[static_cast<std::size_t>(day)];
      fold(h, 2);  // domain tag: route
      fold(h, static_cast<std::uint64_t>(route.route_uid));
      fold(h, static_cast<std::uint64_t>(route.window.begin));
      fold(h, static_cast<std::uint64_t>(route.window.end));
      any = true;
    });
  }
  for (const auto& enc : engine_.encounter_log()) {
    touched_days(enc.window, [&](std::int64_t day, const TimeWindow& dw) {
      if (!enc.window.overlaps(dw)) return;
      auto& [h, any] = digests[static_cast<std::size_t>(day)];
      fold(h, 3);  // domain tag: encounter
      fold(h, static_cast<std::uint64_t>(enc.contact));
      fold(h, static_cast<std::uint64_t>(enc.place));
      fold(h, static_cast<std::uint64_t>(enc.window.begin));
      fold(h, static_cast<std::uint64_t>(enc.window.end));
      any = true;
    });
  }
  for (std::int64_t day = 0; day <= up_to; ++day) {
    const ActivitySummary activity = engine_.activity_for(day);
    if (activity.empty()) continue;
    auto& [h, any] = digests[static_cast<std::size_t>(day)];
    fold(h, 4);  // domain tag: activity
    fold(h, static_cast<std::uint64_t>(activity.still));
    fold(h, static_cast<std::uint64_t>(activity.walking));
    fold(h, static_cast<std::uint64_t>(activity.vehicle));
    any = true;
  }
  return digests;
}

MobilityProfile PmwareMobileService::profile_for(std::int64_t day) const {
  MobilityProfile profile;
  profile.user = user_id_.value_or(0);
  profile.day = day;
  const TimeWindow day_window{start_of_day(day), start_of_day(day + 1)};

  for (const auto& visit : engine_.visit_log()) {
    const SimDuration overlap = visit.window.overlap_length(day_window);
    if (overlap < config_.inference.min_visit_dwell) continue;
    profile.places.push_back(
        {visit.uid, std::max(visit.window.begin, day_window.begin),
         std::min(visit.window.end, day_window.end)});
  }
  for (const auto& route : engine_.route_log()) {
    if (!route.window.overlaps(day_window)) continue;
    profile.routes.push_back({route.route_uid, route.window.begin,
                              route.window.end});
  }
  for (const auto& enc : engine_.encounter_log()) {
    if (!enc.window.overlaps(day_window)) continue;
    profile.encounters.push_back({enc.contact, enc.place, enc.window.begin,
                                  enc.window.end});
  }
  profile.activity = engine_.activity_for(day);
  return profile;
}

bool PmwareMobileService::tag_place(PlaceUid uid, const std::string& label,
                                    SimTime now) {
  if (!place_store_.set_label(uid, label)) return false;
  if (client_ != nullptr && user_id_) {
    net::HttpRequest request = make_request(
        net::Method::Post,
        strfmt("/api/users/%u/places/%llu/label", *user_id_,
               static_cast<unsigned long long>(uid)),
        now);
    request.body = Json::object();
    request.body.set("label", label);
    const net::HttpResponse response = client_->send(std::move(request));
    if (!response.ok()) {
      // No outbox entry needed: the label rides the place record, whose
      // digest just changed — the next housekeeping tick re-upserts it.
      telemetry::registry()
          .counter(kSyncFailures,
                   {{"instance", instance_}, {"kind", kKindLabel}},
                   "sync sends that failed (parked in the outbox for replay)")
          .inc();
      telemetry::slog_warn("pms", now, "label sync for place %llu failed (%d)",
                           static_cast<unsigned long long>(uid),
                           response.status);
    }
  }
  return true;
}

bool PmwareMobileService::forget_place(PlaceUid uid, SimTime now) {
  if (place_store_.get(uid) == nullptr) return false;
  place_store_.erase(uid);
  engine_.forget_place(uid);
  // A queued upsert must not resurrect the place on replay, and the stale
  // digest must not suppress a future re-discovery's upsert.
  outbox_.remove(SyncKind::PlaceUpsert, static_cast<std::uint64_t>(uid));
  synced_place_digest_.erase(uid);
  if (client_ != nullptr && user_id_) {
    const net::HttpResponse response = client_->send(make_request(
        net::Method::Delete,
        strfmt("/api/users/%u/places/%llu", *user_id_,
               static_cast<unsigned long long>(uid)),
        now));
    // 410 Gone (wiped user) is permanent: queueing a retry would just be
    // dropped again at drain time.
    if (!response.ok() && response.status != net::kStatusNotFound &&
        response.status != net::kStatusGone) {
      record_sync_failure(SyncKind::PlaceDelete, response.status, now);
      enqueue(SyncKind::PlaceDelete, static_cast<std::uint64_t>(uid), 0, now);
    }
  }
  return true;
}

bool PmwareMobileService::wipe_cloud_data(SimTime now) {
  if (client_ == nullptr || !user_id_) return false;
  const net::HttpResponse response = client_->send(
      make_request(net::Method::Delete, strfmt("/api/users/%u", *user_id_), now));
  if (!response.ok()) {
    telemetry::registry()
        .counter(kSyncFailures, {{"instance", instance_}, {"kind", kKindWipe}},
                 "sync sends that failed (parked in the outbox for replay)")
        .inc();
    telemetry::slog_warn("pms", now, "cloud wipe failed (%d)", response.status);
  }
  return response.ok();
}

void PmwareMobileService::save(std::ostream& out) const {
  std::ostringstream body;
  // One section: a {"section","lines"} header, then what `write` emits.
  const auto section = [&body](const char* name, const auto& write) {
    std::ostringstream s;
    write(s);
    const std::string payload = s.str();
    Json header = Json::object();
    header.set("section", name);
    header.set("lines", static_cast<std::int64_t>(
                            std::count(payload.begin(), payload.end(), '\n')));
    body << header.dump() << '\n' << payload;
  };
  const auto digest_line = [](const char* key, const auto& entry) {
    Json j = Json::object();
    j.set(key, entry.first);
    j.set("digest", digest_to_hex(entry.second));
    return j;
  };

  section("scalars", [&](std::ostream& s) {
    Json j = Json::object();
    j.set("registration_wanted", registration_wanted_);
    j.set("next_uid", place_store_.next_uid());
    j.set("routes_enqueued", static_cast<std::uint64_t>(routes_enqueued_));
    j.set("encounters_enqueued",
          static_cast<std::uint64_t>(encounters_enqueued_));
    // Suffix-upload state: the cloud retained this device's GSM stream, so
    // the restored incarnation can keep shipping suffixes. If the cloud saw
    // more than the checkpoint remembers (a pre-crash offload), the prefix
    // claim fails, the next pass answers 409, and a full upload re-syncs —
    // self-healing, never silently wrong.
    j.set("digest_fed", static_cast<std::uint64_t>(digest_fed_));
    j.set("digest", digest_to_hex(digest_));
    j.set("upload_acked", static_cast<std::uint64_t>(upload_acked_));
    j.set("upload_digest", digest_to_hex(upload_digest_));
    s << j.dump() << '\n';
  });
  section("preferences", [&](std::ostream& s) {
    Json j = Json::object();
    j.set("sharing_enabled", preferences_.sharing_enabled());
    Json caps = Json::array();
    for (const auto& [app, cap] : preferences_.caps()) {
      Json c = Json::object();
      c.set("app", app);
      c.set("cap", static_cast<std::int64_t>(cap));
      caps.push_back(std::move(c));
    }
    j.set("caps", std::move(caps));
    s << j.dump() << '\n';
  });
  section("gsm_log",
          [&](std::ostream& s) { write_gsm_log(s, engine_.gsm_log()); });
  section("visit_log",
          [&](std::ostream& s) { write_visit_log(s, engine_.visit_log()); });
  section("places",
          [&](std::ostream& s) { write_place_records(s, place_store_); });
  section("route_log", [&](std::ostream& s) {
    write_jsonl(s, engine_.route_log(),
                [](const RouteEvent& event) { return to_json(event); });
  });
  section("route_store", [&](std::ostream& s) {
    write_jsonl(s, engine_.routes().routes(),
                [](const algorithms::CanonicalRoute& route) {
                  Json j = to_json(route.representative);
                  j.set("use_count",
                        static_cast<std::uint64_t>(route.use_count));
                  return j;
                });
  });
  section("encounters", [&](std::ostream& s) {
    write_jsonl(s, engine_.encounter_log(), [](const EncounterEvent& event) {
      return to_json(entry_of(event));
    });
  });
  section("activity", [&](std::ostream& s) {
    write_jsonl(s, engine_.activity_log(), [](const auto& entry) {
      Json j = to_json(entry.second);
      j.set("day", entry.first);
      return j;
    });
  });
  section("outbox", [&](std::ostream& s) { outbox_.save(s); });
  section("synced_days", [&](std::ostream& s) {
    write_jsonl(s, synced_day_digest_,
                [&](const auto& entry) { return digest_line("day", entry); });
  });
  section("synced_places", [&](std::ostream& s) {
    write_jsonl(s, synced_place_digest_,
                [&](const auto& entry) { return digest_line("uid", entry); });
  });

  const std::string payload = body.str();
  Json manifest = Json::object();
  manifest.set("format", kCheckpointFormat);
  manifest.set("version", kCheckpointVersion);
  manifest.set("lines", static_cast<std::int64_t>(
                            std::count(payload.begin(), payload.end(), '\n')));
  manifest.set("digest", digest_to_hex(fnv1a(payload)));
  const std::string head = manifest.dump();
  out << head << '\n' << payload;
  telemetry::registry()
      .histogram(kCheckpointBytes, {}, 0, 1 << 20, 64,
                 "serialized PMS checkpoint size in bytes")
      .observe(static_cast<double>(head.size() + 1 + payload.size()));
}

bool PmwareMobileService::restore(std::istream& in) {
  const auto wall_start = std::chrono::steady_clock::now();
  std::string line;
  if (!std::getline(in, line)) return false;
  std::size_t expected_lines = 0;
  std::uint64_t expected_digest = 0;
  try {
    const Json manifest = Json::parse(line);
    if (manifest.get_string("format", "") != kCheckpointFormat) return false;
    if (manifest.get_int("version", 0) != kCheckpointVersion) return false;
    const std::int64_t lines = manifest.get_int("lines", -1);
    if (lines < 0) return false;
    expected_lines = static_cast<std::size_t>(lines);
    expected_digest = digest_from_hex(manifest.get_string("digest", ""));
  } catch (const JsonError&) {
    return false;
  }
  // A short read (torn checkpoint) or a digest mismatch (bit rot, a torn
  // final line) both fail before anything is touched.
  std::string payload;
  std::size_t read = 0;
  for (; read < expected_lines && std::getline(in, line); ++read) {
    payload += line;
    payload += '\n';
  }
  if (read < expected_lines) return false;
  // save() always terminates the body with a newline; getline() would
  // happily heal a checkpoint whose final '\n' was torn off (the rebuilt
  // payload is byte-identical), so the missing delimiter itself — eofbit
  // raised mid-line — is the truncation signal.
  if (expected_lines > 0 && in.eof()) return false;
  if (fnv1a(payload) != expected_digest) return false;

  // Parse every section into temporaries; nothing below commits until all
  // of them decoded.
  InferenceEngine::LogSnapshot snapshot;
  std::vector<PlaceRecord> places;
  PlaceUid next_uid = 1;
  bool wanted = false;
  std::size_t routes_enqueued = 0;
  std::size_t encounters_enqueued = 0;
  std::size_t digest_fed = 0;
  std::uint64_t digest = kDigestBasis;
  std::size_t upload_acked = 0;
  std::uint64_t upload_digest = kDigestBasis;
  bool sharing = true;
  std::vector<std::pair<std::string, Granularity>> caps;
  SyncOutbox staged_outbox(config_.outbox);
  SyncOutbox::LoadResult outbox_result;
  std::map<std::int64_t, std::uint64_t> synced_days;
  std::map<PlaceUid, std::uint64_t> synced_places;
  try {
    std::istringstream body(payload);
    std::size_t remaining = expected_lines;
    while (remaining > 0 && std::getline(body, line)) {
      --remaining;
      const Json header = Json::parse(line);
      const std::string name = header.get_string("section", "");
      const std::int64_t declared = header.get_int("lines", -1);
      if (declared < 0 || static_cast<std::size_t>(declared) > remaining)
        return false;
      remaining -= static_cast<std::size_t>(declared);
      std::string chunk;
      for (std::int64_t k = 0; k < declared && std::getline(body, line); ++k) {
        chunk += line;
        chunk += '\n';
      }
      std::istringstream section(chunk);
      if (name == "scalars") {
        read_jsonl(section, [&](const Json& j) {
          wanted = j.get_bool("registration_wanted", false);
          next_uid = static_cast<PlaceUid>(j.get_int("next_uid", 1));
          routes_enqueued =
              static_cast<std::size_t>(j.get_int("routes_enqueued", 0));
          encounters_enqueued =
              static_cast<std::size_t>(j.get_int("encounters_enqueued", 0));
          digest_fed = static_cast<std::size_t>(j.get_int("digest_fed", 0));
          digest = digest_from_hex(
              j.get_string("digest", digest_to_hex(kDigestBasis)));
          upload_acked =
              static_cast<std::size_t>(j.get_int("upload_acked", 0));
          upload_digest = digest_from_hex(
              j.get_string("upload_digest", digest_to_hex(kDigestBasis)));
        });
      } else if (name == "preferences") {
        read_jsonl(section, [&](const Json& j) {
          sharing = j.get_bool("sharing_enabled", true);
          if (j.contains("caps")) {
            for (const auto& c : j.at("caps").as_array())
              caps.emplace_back(
                  c.at("app").as_string(),
                  static_cast<Granularity>(c.at("cap").as_int()));
          }
        });
      } else if (name == "gsm_log") {
        snapshot.gsm_log = read_gsm_log(section);
      } else if (name == "visit_log") {
        snapshot.visit_log = read_visit_log(section);
      } else if (name == "places") {
        places = read_place_records(section);
      } else if (name == "route_log") {
        read_jsonl(section, [&](const Json& j) {
          snapshot.route_log.push_back(route_event_from_json(j));
        });
      } else if (name == "route_store") {
        read_jsonl(section, [&](const Json& j) {
          snapshot.routes.push_back(
              {route_from_json(j),
               static_cast<std::size_t>(j.get_int("use_count", 1))});
        });
      } else if (name == "encounters") {
        read_jsonl(section, [&](const Json& j) {
          const EncounterEntry e = encounter_from_json(j);
          snapshot.encounter_log.push_back(
              {e.contact, e.place, TimeWindow{e.start, e.end}});
        });
      } else if (name == "activity") {
        read_jsonl(section, [&](const Json& j) {
          snapshot.activity_by_day[j.get_int("day", 0)] = activity_from_json(j);
        });
      } else if (name == "outbox") {
        outbox_result = staged_outbox.load(section);
      } else if (name == "synced_days") {
        read_jsonl(section, [&](const Json& j) {
          synced_days[j.get_int("day", 0)] =
              digest_from_hex(j.get_string("digest", "0"));
        });
      } else if (name == "synced_places") {
        read_jsonl(section, [&](const Json& j) {
          synced_places[static_cast<PlaceUid>(j.get_int("uid", 0))] =
              digest_from_hex(j.get_string("digest", "0"));
        });
      }
      // Unknown sections skip silently (forward compatibility).
    }
  } catch (const JsonError&) {
    return false;
  } catch (const PersistenceError&) {
    return false;
  }

  // Commit. Credentials are deliberately NOT restored: the caller must
  // re-register, which also assigns this incarnation a fresh boot epoch —
  // restored outbox entries keep the epoch they were enqueued under.
  engine_.restore_logs(std::move(snapshot));
  place_store_.restore(std::move(places), next_uid);
  preferences_.set_sharing_enabled(sharing);
  for (const auto& [app, cap] : caps) preferences_.set_app_cap(app, cap);
  outbox_ = std::move(staged_outbox);
  // Restored entries re-enter this incarnation's books so the study-level
  // balance (enqueued = delivered + evicted + dropped + pending) holds.
  if (outbox_result.loaded > 0)
    outbox_enqueued_counter_->get().inc(outbox_result.loaded);
  if (outbox_result.evicted > 0)
    outbox_evicted_counter_->get().inc(outbox_result.evicted);
  registration_wanted_ = wanted;
  user_id_.reset();
  token_expires_ = 0;
  boot_epoch_ = 0;
  routes_enqueued_ = routes_enqueued;
  encounters_enqueued_ = encounters_enqueued;
  digest_fed_ = digest_fed;
  digest_ = digest;
  upload_acked_ = upload_acked;
  upload_digest_ = upload_digest;
  synced_day_digest_ = std::move(synced_days);
  synced_place_digest_ = std::move(synced_places);
  day_digest_cache_.clear();

  telemetry::registry()
      .counter(kRestarts, {{"instance", instance_}, {"mode", "warm"}},
               "PMS reboots by recovery mode (warm = from checkpoint, cold = "
               "rebuilt from cloud)")
      .inc();
  const double wall_us =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - wall_start)
          .count();
  telemetry::registry()
      .histogram(kRestoreWall, {}, 0, 100000, 64,
                 "checkpoint restore wall time in microseconds")
      .observe(wall_us);
  return true;
}

bool PmwareMobileService::cold_restart(SimTime now) {
  if (client_ == nullptr) return false;
  if (!register_with_cloud(now)) return false;
  const net::HttpResponse response = client_->send(make_request(
      net::Method::Get, strfmt("/api/users/%u/places", *user_id_), now));
  if (response.ok()) {
    std::vector<PlaceRecord> records;
    try {
      for (const auto& p : response.body.at("places").as_array())
        records.push_back(place_record_from_json(p));
    } catch (const JsonError&) {
      records.clear();
    }
    // These records ARE the cloud's current content: seed the sync marks so
    // re-upserting them verbatim is skipped, and restore with uid
    // continuity so re-discovered signatures converge on their old uids.
    for (const auto& record : records) {
      PlaceRecord stripped = record;
      stripped.location.reset();
      synced_place_digest_[record.uid] = fnv1a(to_json(stripped).dump());
    }
    place_store_.restore(std::move(records), 1);
  } else {
    // The cloud's uid range is unknown (outage mid-recovery): park this
    // incarnation's discoveries in a per-epoch uid namespace so they can
    // never overwrite the cloud's retained records.
    place_store_.restore(
        {}, std::max<PlaceUid>(1, static_cast<PlaceUid>(boot_epoch_) << 20));
  }
  // Profile days stay cloud-side: local logs are empty and empty days are
  // never re-uploaded, so the cloud's retained profiles survive untouched.
  // Count how many it kept for us.
  std::size_t recovered = 0;
  for (std::int64_t day = 0; day < day_of(now); ++day) {
    if (client_
            ->send(make_request(
                net::Method::Get,
                strfmt("/api/users/%u/profiles/%lld", *user_id_,
                       static_cast<long long>(day)),
                now))
            .ok())
      ++recovered;
  }
  if (recovered > 0)
    counter(kColdProfileDays,
            "profile days found retained on the cloud during cold restarts")
        .inc(recovered);
  telemetry::registry()
      .counter(kRestarts, {{"instance", instance_}, {"mode", "cold"}},
               "PMS reboots by recovery mode (warm = from checkpoint, cold = "
               "rebuilt from cloud)")
      .inc();
  return true;
}

std::size_t PmwareMobileService::discard_pending() {
  const std::size_t dropped = outbox_.size();
  if (dropped > 0)
    counter(kOutboxDropped,
            "outbox entries discarded (crash/wipe teardown, tombstoned user)")
        .inc(dropped);
  return dropped;
}

void PmwareMobileService::shutdown(SimTime now) {
  engine_.flush(now);
  housekeeping(now);
  if (client_ != nullptr && user_id_) {
    // The final day may be partial (housekeeping above only covered
    // completed days); queue it plus anything still parked, and drain.
    enqueue_sync_work(day_of(now), now);
    drain_outbox(now);
  }
}

}  // namespace pmware::core
