#include "core/inference_engine.hpp"

#include <algorithm>
#include <set>

#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "telemetry/log.hpp"

namespace pmware::core {

using energy::Interface;
using mobility::Activity;

namespace {

bool at_least(std::optional<Granularity> g, Granularity level) {
  return g && static_cast<int>(*g) >= static_cast<int>(level);
}

}  // namespace

InferenceEngine::InferenceEngine(sensing::Device* device,
                                 sensing::SamplingScheduler* scheduler,
                                 PlaceStore* store,
                                 const ConnectedAppsModule* apps,
                                 InferenceConfig config, Rng rng,
                                 util::Arena* arena)
    : device_(device),
      scheduler_(scheduler),
      store_(store),
      apps_(apps),
      config_(config),
      rng_(rng),
      gsm_log_(util::ArenaAllocator<algorithms::CellObservation>(arena)),
      gca_state_(config.gca),
      events_enter_("core_place_events_total", {{"kind", "enter"}},
                    "place events emitted by the inference engine"),
      events_exit_("core_place_events_total", {{"kind", "exit"}},
                   "place events emitted by the inference engine"),
      events_new_place_("core_place_events_total", {{"kind", "new_place"}},
                        "place events emitted by the inference engine"),
      wifi_detector_(config.sensloc),
      visit_log_(util::ArenaAllocator<LoggedVisit>(arena)) {}

std::size_t InferenceEngine::consume_run(
    std::span<const SimTime> run, void (InferenceEngine::*handler)(SimTime)) {
  std::size_t consumed = 0;
  for (const SimTime t : run) {
    const std::uint64_t before = scheduler_->change_epoch();
    (this->*handler)(t);
    ++consumed;
    if (scheduler_->change_epoch() != before) break;
  }
  return consumed;
}

void InferenceEngine::attach() {
  // Run-oriented dispatch: the scheduler hands each interface a whole run
  // of fire times; the adapters process samples in order and truncate the
  // run on any schedule change, which keeps adaptive sensing byte-identical
  // to per-sample dispatch.
  scheduler_->set_batch_callback(
      Interface::Gsm, [this](std::span<const SimTime> run) {
        return device_->read_gsm_run(
            run, [this](const sensing::GsmReading& reading) {
              const std::uint64_t before = scheduler_->change_epoch();
              on_gsm_reading(reading);
              return scheduler_->change_epoch() == before;
            });
      });
  scheduler_->set_batch_callback(
      Interface::Wifi, [this](std::span<const SimTime> run) {
        return consume_run(run, &InferenceEngine::on_wifi);
      });
  scheduler_->set_batch_callback(
      Interface::Gps, [this](std::span<const SimTime> run) {
        return consume_run(run, &InferenceEngine::on_gps);
      });
  scheduler_->set_batch_callback(
      Interface::Accelerometer, [this](std::span<const SimTime> run) {
        return consume_run(run, &InferenceEngine::on_accel);
      });
  scheduler_->set_batch_callback(
      Interface::Bluetooth, [this](std::span<const SimTime> run) {
        return consume_run(run, &InferenceEngine::on_bluetooth);
      });
  // GSM runs continuously from the start (paper §2.2.2); everything else is
  // armed on demand by refresh_policy().
  scheduler_->set_period(Interface::Gsm, config_.gsm_period);
  refresh_policy(scheduler_->now());
}

void InferenceEngine::refresh_policy(SimTime t) {
  const auto g = apps_->required_granularity(t);
  const RouteAccuracy ra = apps_->required_route_accuracy(t);
  const bool social = apps_->social_required(t, emitted_uid_);
  const bool moving = activity_ != Activity::Still;

  // Explicit `from = t`: during batch dispatch the scheduler's clock only
  // advances at run granularity, so period changes anchor to the sample
  // that caused them.
  auto set_if_changed = [this, t](Interface i, std::optional<SimDuration> p) {
    if (scheduler_->period(i) != p) scheduler_->set_period(i, p, t);
  };

  // Accelerometer: the trigger source; needed for building/room place
  // requests and any route tracking.
  const bool need_accel = at_least(g, Granularity::Building) ||
                          ra != RouteAccuracy::Off;
  set_if_changed(Interface::Accelerometer,
                 need_accel ? std::optional(config_.accel_period) : std::nullopt);

  // WiFi: continuous for room level, periodic while moving for building
  // level (departure detection); otherwise only triggered bursts and
  // opportunistic scans (requested as one-shots elsewhere).
  std::optional<SimDuration> wifi;
  if (config_.wifi_enabled) {
    if (at_least(g, Granularity::Room)) wifi = config_.wifi_room_period;
    else if (at_least(g, Granularity::Building) && moving)
      wifi = config_.wifi_moving_period;
  }
  set_if_changed(Interface::Wifi, wifi);

  // GPS: only while moving, and only for high-accuracy routes or room-level
  // requests (never while still — the paper's headline energy rule).
  std::optional<SimDuration> gps;
  if (moving && (ra == RouteAccuracy::High || at_least(g, Granularity::Room)))
    gps = config_.gps_route_period;
  set_if_changed(Interface::Gps, gps);

  set_if_changed(Interface::Bluetooth,
                 social ? std::optional(config_.bluetooth_period) : std::nullopt);
}

void InferenceEngine::on_gsm_reading(const sensing::GsmReading& reading) {
  const SimTime t = reading.t;
  if (reading.serving.mcc == 0) return;  // dead zone, nothing heard yet
  gsm_log_.push_back({t, reading.serving});

  if (cell_tracker_) {
    for (const auto& ev : cell_tracker_->observe({t, reading.serving})) {
      const auto it = cluster_to_uid_.find(ev.place_index);
      if (it == cluster_to_uid_.end()) continue;
      if (ev.kind == algorithms::CellVisitTracker::Event::Kind::Arrival)
        gsm_uid_ = it->second;
      else if (gsm_uid_ && *gsm_uid_ == it->second)
        gsm_uid_.reset();
    }
  }

  if (pending_route_) {
    auto& cells = pending_route_->cells;
    if (cells.cells.empty() || !(cells.cells.back() == reading.serving)) {
      cells.times.push_back(t);
      cells.cells.push_back(reading.serving);
    }
  }

  // Opportunistic WiFi (paper §2.2.2): if the radio is on for data anyway,
  // piggyback a scan — bounded to one per opportunistic period.
  const auto g = apps_->required_granularity(t);
  if (config_.wifi_enabled && at_least(g, Granularity::Building) &&
      (last_opportunistic_ < 0 ||
       t - last_opportunistic_ >= config_.wifi_opportunistic_period) &&
      rng_.bernoulli(config_.wifi_on_fraction)) {
    last_opportunistic_ = t;
    scheduler_->request_once(Interface::Wifi, t);
  }

  refresh_policy(t);
  resolve_place(t);
}

void InferenceEngine::handle_wifi_events(
    const std::vector<algorithms::WifiPlaceDetector::Event>& events) {
  for (const auto& ev : events) {
    if (ev.kind == algorithms::WifiPlaceDetector::Event::Kind::Arrival) {
      PlaceUid uid;
      const auto it = wifi_to_uid_.find(ev.place_index);
      if (it != wifi_to_uid_.end()) {
        uid = it->second;
      } else {
        const auto [new_uid, created] = store_->intern(
            algorithms::PlaceSignature(wifi_detector_.places()[ev.place_index]),
            Granularity::Building);
        uid = new_uid;
        wifi_to_uid_[ev.place_index] = uid;
        if (created)
          emit({PlaceEvent::Kind::NewPlace, uid, area_of(uid), ev.t, 0});
      }
      wifi_uid_ = uid;
      if (gsm_uid_) wifi_area_[uid] = *gsm_uid_;
    } else {
      const auto it = wifi_to_uid_.find(ev.place_index);
      if (it != wifi_to_uid_.end() && wifi_uid_ && *wifi_uid_ == it->second)
        wifi_uid_.reset();
    }
  }
}

void InferenceEngine::on_wifi(SimTime t) {
  if (t == last_wifi_scan_) return;  // collapse duplicate triggers
  last_wifi_scan_ = t;
  device_->scan_wifi_into(t, wifi_scratch_);
  handle_wifi_events(wifi_detector_.on_scan(wifi_scratch_));
  resolve_place(t);
}

void InferenceEngine::on_gps(SimTime t) {
  const sensing::GpsFix fix = device_->read_gps(t);
  if (!fix.valid) return;
  if (pending_route_ && pending_route_->high_accuracy) {
    pending_route_->gps.times.push_back(t);
    pending_route_->gps.points.push_back(fix.position);
  }
}

void InferenceEngine::on_accel(SimTime t) {
  const sensing::AccelReading reading = device_->read_accel(t);

  // Activity tracking: attribute the span since the previous sample to the
  // committed state (gaps beyond a few periods mean the accelerometer was
  // off — untracked time).
  if (last_accel_t_ >= 0 && t > last_accel_t_ &&
      t - last_accel_t_ <= 5 * config_.accel_period) {
    SimTime cursor = last_accel_t_;
    while (cursor < t) {
      const SimTime day_end = start_of_day(day_of(cursor) + 1);
      const SimTime slice_end = std::min(t, day_end);
      ActivitySummary& summary = activity_by_day_[day_of(cursor)];
      const SimDuration span = slice_end - cursor;
      switch (activity_) {
        case Activity::Still: summary.still += span; break;
        case Activity::Walking: summary.walking += span; break;
        case Activity::Vehicle: summary.vehicle += span; break;
      }
      cursor = slice_end;
    }
  }
  last_accel_t_ = t;

  if (reading.activity == candidate_activity_) {
    ++candidate_streak_;
  } else {
    candidate_activity_ = reading.activity;
    candidate_streak_ = 1;
  }
  if (candidate_streak_ < config_.activity_debounce ||
      candidate_activity_ == activity_)
    return;

  const Activity previous = activity_;
  activity_ = candidate_activity_;
  const auto g = apps_->required_granularity(t);

  if (previous == Activity::Still && activity_ != Activity::Still) {
    // Departure imminent: one scan right now catches the last matching
    // fingerprint so the departure timestamp is accurate.
    if (config_.wifi_enabled && at_least(g, Granularity::Building))
      scheduler_->request_once(Interface::Wifi, t);
  } else if (previous != Activity::Still && activity_ == Activity::Still) {
    // Settled at a place: burst of scans to establish the fingerprint
    // (triggered sensing — this is what replaces continuous WiFi).
    if (config_.wifi_enabled && at_least(g, Granularity::Building)) {
      for (int k = 0; k < config_.wifi_burst_count; ++k)
        scheduler_->request_once(Interface::Wifi,
                                 t + k * config_.wifi_burst_gap);
    }
  }
  refresh_policy(t);
}

void InferenceEngine::on_bluetooth(SimTime t) {
  if (!peers_) return;
  const auto positions = peers_(t);
  const sensing::BluetoothScan scan = device_->scan_bluetooth(t, positions);

  const PlaceUid here = emitted_uid_.value_or(kNoPlaceUid);
  std::set<world::DeviceId> seen(scan.nearby.begin(), scan.nearby.end());

  for (world::DeviceId contact : seen) {
    auto [it, inserted] = open_encounters_.try_emplace(
        contact, OpenEncounter{t, t, 0});
    if (!inserted) {
      it->second.last_seen = t;
      it->second.misses = 0;
    }
  }
  std::vector<world::DeviceId> closed;
  for (auto& [contact, enc] : open_encounters_) {
    if (seen.count(contact)) continue;
    if (++enc.misses >= config_.encounter_miss_limit) closed.push_back(contact);
  }
  for (world::DeviceId contact : closed) {
    const OpenEncounter enc = open_encounters_.at(contact);
    open_encounters_.erase(contact);
    if (enc.last_seen <= enc.start) continue;
    const EncounterEvent event{contact, here,
                               TimeWindow{enc.start, enc.last_seen}};
    encounter_log_.push_back(event);
    if (encounter_sink_) encounter_sink_(event);
  }
}

ActivitySummary InferenceEngine::activity_for(std::int64_t day) const {
  const auto it = activity_by_day_.find(day);
  return it == activity_by_day_.end() ? ActivitySummary{} : it->second;
}

PlaceUid InferenceEngine::area_of(PlaceUid uid) const {
  const auto it = wifi_area_.find(uid);
  return it == wifi_area_.end() ? uid : it->second;
}

void InferenceEngine::emit(const PlaceEvent& event) {
  // Pre-resolved handles: emit() runs inside the sensing hot loop, so no
  // per-event LabelSet build or registry lookup.
  switch (event.kind) {
    case PlaceEvent::Kind::Enter: events_enter_.get().inc(); break;
    case PlaceEvent::Kind::Exit: events_exit_.get().inc(); break;
    case PlaceEvent::Kind::NewPlace: events_new_place_.get().inc(); break;
  }
  if (place_sink_) place_sink_(event);
}

void InferenceEngine::finalize_route(PlaceUid to, SimTime t) {
  if (!pending_route_) return;
  PendingRoute pending = std::move(*pending_route_);
  pending_route_.reset();
  if (t - pending.start < minutes(2)) return;  // place-to-place flicker
  if (pending.from == to) return;  // identity flicker, not a journey
  if (pending.cells.cells.size() < 2 && pending.gps.points.size() < 2) return;

  algorithms::RouteObservation obs;
  obs.from_place = static_cast<std::size_t>(pending.from);
  obs.to_place = static_cast<std::size_t>(to);
  obs.window = TimeWindow{pending.start, t};
  obs.cells = std::move(pending.cells);
  obs.gps = std::move(pending.gps);
  const std::size_t route_uid = route_store_.add(std::move(obs));

  const RouteEvent event{route_uid, pending.from, to, TimeWindow{pending.start, t},
                         pending.high_accuracy};
  route_log_.push_back(event);
  if (route_sink_) route_sink_(event);
}

void InferenceEngine::resolve_place(SimTime t) {
  // WiFi identity wins where available — it is the finer signal; GSM
  // clusters carry the rest (hybrid discovery, paper §4).
  const std::optional<PlaceUid> resolved = wifi_uid_ ? wifi_uid_ : gsm_uid_;
  if (resolved == emitted_uid_) return;

  if (emitted_uid_) {
    const SimDuration dwell = t - emitted_since_;
    emit({PlaceEvent::Kind::Exit, *emitted_uid_, area_of(*emitted_uid_), t,
          dwell});
    store_->record_visit(*emitted_uid_, dwell);
    pending_route_ = PendingRoute{
        *emitted_uid_, t, {}, {},
        apps_->required_route_accuracy(t) == RouteAccuracy::High};
  }
  if (resolved) {
    finalize_route(*resolved, t);
    emit({PlaceEvent::Kind::Enter, *resolved, area_of(*resolved), t, 0});
    emitted_since_ = t;
  }
  emitted_uid_ = resolved;
}

std::size_t InferenceEngine::recluster(SimTime now) {
  telemetry::Span span(telemetry::tracer(), "inference.recluster", now);
  telemetry::registry()
      .counter("core_recluster_total", {},
               "recluster passes (local or offloaded)")
      .inc();
  const algorithms::GcaResult result =
      gca_runner_ ? gca_runner_(gsm_log_) : gca_state_.run(gsm_log_);

  std::size_t new_places = 0;
  cluster_to_uid_.clear();
  for (std::size_t i = 0; i < result.places.size(); ++i) {
    const auto [uid, created] = store_->intern(
        algorithms::PlaceSignature(result.places[i].signature),
        Granularity::Building);
    cluster_to_uid_[i] = uid;
    if (created) {
      ++new_places;
      emit({PlaceEvent::Kind::NewPlace, uid, uid, now, 0});
    }
  }

  // Rebuild the authoritative visit log: GSM visits, with WiFi stays carving
  // out the intervals they identify more precisely.
  std::vector<LoggedVisit> gsm_visits;
  for (const auto& v : result.visits) {
    const auto it = cluster_to_uid_.find(v.place_index);
    if (it != cluster_to_uid_.end())
      gsm_visits.push_back({it->second, v.window});
  }
  std::vector<LoggedVisit> wifi_visits;
  for (const auto& v : wifi_detector_.visits()) {
    const auto it = wifi_to_uid_.find(v.place_index);
    if (it != wifi_to_uid_.end() &&
        v.window.length() >= config_.min_visit_dwell)
      wifi_visits.push_back({it->second, v.window});
  }
  std::sort(wifi_visits.begin(), wifi_visits.end(),
            [](const LoggedVisit& a, const LoggedVisit& b) {
              return a.window.begin < b.window.begin;
            });

  visit_log_.clear();
  for (const auto& gv : gsm_visits) {
    SimTime cursor = gv.window.begin;
    for (const auto& wv : wifi_visits) {
      if (wv.window.end <= cursor || wv.window.begin >= gv.window.end) continue;
      if (wv.window.begin - cursor >= config_.gsm_fragment_min_dwell)
        visit_log_.push_back({gv.uid, TimeWindow{cursor, wv.window.begin}});
      cursor = std::max(cursor, wv.window.end);
    }
    if (gv.window.end - cursor >= (cursor == gv.window.begin
                                       ? config_.min_visit_dwell
                                       : config_.gsm_fragment_min_dwell))
      visit_log_.push_back({gv.uid, TimeWindow{cursor, gv.window.end}});
  }
  visit_log_.insert(visit_log_.end(), wifi_visits.begin(), wifi_visits.end());
  std::sort(visit_log_.begin(), visit_log_.end(),
            [](const LoggedVisit& a, const LoggedVisit& b) {
              return a.window.begin < b.window.begin;
            });

  // Re-arm the online tracker with the fresh signatures.
  cell_tracker_.emplace(result.cell_to_place, config_.gca);
  gsm_uid_.reset();

  telemetry::registry()
      .counter("core_new_places_total", {},
               "places first discovered during recluster passes")
      .inc(new_places);
  telemetry::slog_debug("inference", now,
                        "recluster: %zu clusters, %zu new places, %zu visits",
                        result.places.size(), new_places, visit_log_.size());
  return new_places;
}

void InferenceEngine::restore_logs(LogSnapshot snapshot) {
  gsm_log_.assign(snapshot.gsm_log.begin(), snapshot.gsm_log.end());
  visit_log_.assign(snapshot.visit_log.begin(), snapshot.visit_log.end());
  route_log_ = std::move(snapshot.route_log);
  route_store_.restore(std::move(snapshot.routes));
  encounter_log_ = std::move(snapshot.encounter_log);
  activity_by_day_ = std::move(snapshot.activity_by_day);

  // Transient state: the crash killed it and nothing here is authoritative.
  // The cell tracker, cluster/WiFi identity maps, and GCA state are rebuilt
  // at the next recluster from the restored GSM log; fingerprints re-intern
  // by signature into the restored place store, so uids stay stable.
  gca_state_ = algorithms::GcaState(config_.gca);
  cell_tracker_.reset();
  cluster_to_uid_.clear();
  gsm_uid_.reset();
  wifi_detector_ = algorithms::WifiPlaceDetector(config_.sensloc);
  wifi_to_uid_.clear();
  wifi_uid_.reset();
  last_wifi_scan_ = -1;
  last_opportunistic_ = -1;
  activity_ = mobility::Activity::Still;
  candidate_activity_ = mobility::Activity::Still;
  candidate_streak_ = 0;
  last_accel_t_ = -1;
  emitted_uid_.reset();
  emitted_since_ = 0;
  pending_route_.reset();
  open_encounters_.clear();
  wifi_area_.clear();
}

void InferenceEngine::forget_place(PlaceUid uid) {
  std::erase_if(visit_log_,
                [uid](const LoggedVisit& v) { return v.uid == uid; });
  std::erase_if(cluster_to_uid_,
                [uid](const auto& kv) { return kv.second == uid; });
  std::erase_if(wifi_to_uid_, [uid](const auto& kv) { return kv.second == uid; });
  wifi_area_.erase(uid);
  if (gsm_uid_ == uid) gsm_uid_.reset();
  if (wifi_uid_ == uid) wifi_uid_.reset();
  if (emitted_uid_ == uid) emitted_uid_.reset();
}

void InferenceEngine::flush(SimTime t) {
  handle_wifi_events(wifi_detector_.finish(t));
  if (cell_tracker_) {
    for (const auto& ev : cell_tracker_->finish(t)) {
      if (ev.kind == algorithms::CellVisitTracker::Event::Kind::Departure &&
          gsm_uid_) {
        gsm_uid_.reset();
      }
    }
  }
  resolve_place(t);
}

}  // namespace pmware::core
