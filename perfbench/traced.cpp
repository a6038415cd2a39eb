// Traced run: one study composed from the public calls of each src/ module,
// with every layer boundary timed from here. Nothing inside src/ is
// instrumented for it.
//
// The composition mirrors study::DeploymentStudy step for step — world from
// fork(1), participant stream from fork(2), cloud from fork(3), one fork per
// participant, then per participant the boot forks, the diary fork and the
// device-lifecycle machine — so its final cloud content digest must equal
// the digest of DeploymentStudy::run() for the same config. main.cpp checks
// that. The study's evaluation (truth matching, the paper table) is left
// out: it is not on the path of any layer below and does not touch the cloud.
//
// Layers that run inside PmwareMobileService::run are timed by replaying each
// window's inputs through their public functions: the GSM reads and WiFi
// scans on a Device forked like the study's, run_gca over the GSM log, and the
// GCA-offload body encode and parse.
#include <algorithm>
#include <array>
#include <atomic>
#include <exception>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include "algorithms/gca.hpp"
#include "bench.hpp"
#include "cloud/cloud_instance.hpp"
#include "core/codec.hpp"
#include "core/pms.hpp"
#include "mobility/participant.hpp"
#include "mobility/schedule.hpp"
#include "net/router.hpp"
#include "sensing/device.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "util/strfmt.hpp"
#include "world/world.hpp"

namespace perfbench {

using namespace pmware;

namespace {

/// Request classes of the forwarding router, by path and method.
enum RouteClass : std::size_t { kAuth, kDiscover, kWrite, kRead, kClassCount };
constexpr const char* kClassNames[kClassCount] = {"auth", "discover", "write",
                                                  "read"};

RouteClass classify(const net::HttpRequest& request) {
  if (request.path.rfind("/api/register", 0) == 0 ||
      request.path.rfind("/api/token", 0) == 0)
    return kAuth;
  if (request.path.rfind("/api/places/discover", 0) == 0) return kDiscover;
  return request.method == net::Method::Get ? kRead : kWrite;
}

/// Per-worker accumulator; merged after the workers join.
struct Layers {
  std::vector<double> participant_ms;
  std::int64_t trace_build_ns = 0;
  std::uint64_t oracle_calls = 0;
  std::int64_t oracle_ns = 0;
  std::uint64_t gsm_reads = 0;
  std::int64_t gsm_read_ns = 0;
  std::uint64_t cells_heard = 0;
  std::uint64_t cells_relevant = 0;
  std::uint64_t heard_reads = 0;
  std::uint64_t env_queries = 0;
  std::uint64_t env_hits = 0;
  std::uint64_t wifi_scans = 0;
  std::int64_t wifi_scan_ns = 0;
  std::int64_t pms_run_self_ns = 0;
  std::uint64_t saves = 0;
  std::int64_t save_ns = 0;
  std::uint64_t save_bytes = 0;
  std::uint64_t restores = 0;
  std::int64_t restore_ns = 0;
  std::uint64_t warm_reboots = 0;
  std::uint64_t cold_reboots = 0;
  std::uint64_t probe_restore_failures = 0;
  std::uint64_t gca_obs = 0;
  std::int64_t gca_ns = 0;
  std::uint64_t encode_obs = 0;
  std::int64_t encode_ns = 0;
  std::uint64_t parse_bytes = 0;
  std::int64_t parse_ns = 0;
  std::array<std::uint64_t, kClassCount> requests{};
  std::array<std::vector<double>, kClassCount> handler_us;
  std::int64_t handler_ns = 0;
  std::uint64_t req_bytes = 0;
  std::uint64_t resp_bytes = 0;
  std::uint64_t non2xx = 0;
  /// Benchmark-only work (replays, byte counting) inside the timed span.
  std::int64_t bench_ns = 0;

  void merge(const Layers& o) {
    participant_ms.insert(participant_ms.end(), o.participant_ms.begin(),
                          o.participant_ms.end());
    trace_build_ns += o.trace_build_ns;
    oracle_calls += o.oracle_calls;
    oracle_ns += o.oracle_ns;
    gsm_reads += o.gsm_reads;
    gsm_read_ns += o.gsm_read_ns;
    cells_heard += o.cells_heard;
    cells_relevant += o.cells_relevant;
    heard_reads += o.heard_reads;
    env_queries += o.env_queries;
    env_hits += o.env_hits;
    wifi_scans += o.wifi_scans;
    wifi_scan_ns += o.wifi_scan_ns;
    pms_run_self_ns += o.pms_run_self_ns;
    saves += o.saves;
    save_ns += o.save_ns;
    save_bytes += o.save_bytes;
    restores += o.restores;
    restore_ns += o.restore_ns;
    warm_reboots += o.warm_reboots;
    cold_reboots += o.cold_reboots;
    probe_restore_failures += o.probe_restore_failures;
    gca_obs += o.gca_obs;
    gca_ns += o.gca_ns;
    encode_obs += o.encode_obs;
    encode_ns += o.encode_ns;
    parse_bytes += o.parse_bytes;
    parse_ns += o.parse_ns;
    for (std::size_t c = 0; c < kClassCount; ++c) {
      requests[c] += o.requests[c];
      handler_us[c].insert(handler_us[c].end(), o.handler_us[c].begin(),
                           o.handler_us[c].end());
    }
    handler_ns += o.handler_ns;
    req_bytes += o.req_bytes;
    resp_bytes += o.resp_bytes;
    non2xx += o.non2xx;
    bench_ns += o.bench_ns;
  }
};

/// The calling worker's accumulator. The forwarding router runs on the
/// thread of the client that sent the request, so it finds it here.
thread_local Layers* t_layers = nullptr;

/// A net::Router that forwards every request to the cloud's router and
/// times the nested handler. Catch-all patterns for 1..kMaxSegments path
/// segments cover every cloud route.
class ForwardingRouter {
 public:
  static constexpr int kMaxSegments = 8;

  explicit ForwardingRouter(const net::Router& inner) {
    for (const net::Method method : {net::Method::Get, net::Method::Post,
                                     net::Method::Put, net::Method::Delete}) {
      std::string pattern;
      for (int n = 1; n <= kMaxSegments; ++n) {
        pattern += strfmt("/:s%d", n);
        router_.add_route(method, pattern,
                          [&inner](const net::HttpRequest& request,
                                   const net::PathParams&) {
                            return forward(inner, request);
                          });
      }
    }
  }

  const net::Router& router() const { return router_; }

 private:
  static net::HttpResponse forward(const net::Router& inner,
                                   const net::HttpRequest& request) {
    const std::int64_t t0 = now_ns();
    net::HttpResponse response = inner.handle(request);
    const std::int64_t t1 = now_ns();
    Layers& layers = *t_layers;
    const RouteClass cls = classify(request);
    ++layers.requests[cls];
    layers.handler_us[cls].push_back(static_cast<double>(t1 - t0) / 1e3);
    layers.req_bytes += request.body.dump().size();
    layers.resp_bytes += response.body.dump().size();
    // 304 Not Modified is a successful conditional GET.
    if (!response.ok() && response.status != 304) ++layers.non2xx;
    const std::int64_t t2 = now_ns();
    layers.handler_ns += t1 - t0;
    layers.bench_ns += t2 - t1;
    return response;
  }

  net::Router router_;
};

/// Times the nested cost of one callable into `ns` (and counts the call).
template <typename Fn>
auto timed(std::int64_t& ns, std::uint64_t& calls, Fn&& fn) {
  const std::int64_t t0 = now_ns();
  auto value = fn();
  ns += now_ns() - t0;
  ++calls;
  return value;
}

/// Diary state for one discovered place (mirrors the study's diary).
struct TagState {
  bool tagged = false;
  bool has_departure = true;
};

std::optional<world::PlaceId> dominant_truth(
    const core::VisitLog& log, core::PlaceUid uid,
    const std::vector<mobility::Visit>& truth) {
  std::map<world::PlaceId, SimDuration> overlap;
  for (const auto& lv : log) {
    if (lv.uid != uid) continue;
    for (const auto& tv : truth) {
      const SimDuration o = lv.window.overlap_length(tv.window);
      if (o > 0) overlap[tv.place] += o;
    }
  }
  std::optional<world::PlaceId> best;
  SimDuration best_overlap = 0;
  for (const auto& [place, o] : overlap) {
    if (o > best_overlap) {
      best = place;
      best_overlap = o;
    }
  }
  return best;
}

void diary_session(core::PmwareMobileService& pms, const world::World& world,
                   const std::vector<mobility::Visit>& truth,
                   const study::StudyConfig& config, SimTime now, Rng& rng,
                   std::map<core::PlaceUid, TagState>& diary) {
  const auto& log = pms.inference().visit_log();
  for (const auto& [uid, record] : pms.places().records()) {
    if (diary.count(uid)) continue;
    const bool visited =
        std::any_of(log.begin(), log.end(),
                    [&](const core::LoggedVisit& v) { return v.uid == uid; });
    if (!visited) continue;
    TagState state;
    state.tagged = rng.bernoulli(config.tag_probability);
    if (state.tagged) {
      std::string label = "place";
      if (const auto truth_place = dominant_truth(log, uid, truth))
        label = world::to_string(world.place(*truth_place).category);
      pms.tag_place(uid, label, now);
      state.has_departure = !rng.bernoulli(config.missing_departure_prob);
    }
    diary.emplace(uid, state);
  }
}

/// Oracle wrapper: counts and times every ground-truth query the device
/// makes, and records the query times the replay needs.
struct OracleTap {
  sensing::PositionOracle inner;
  std::vector<SimTime> position_times;  ///< GSM, WiFi (and BT) reads
  std::vector<SimTime> indoors_times;   ///< GPS fixes

  sensing::PositionOracle wrapped() {
    sensing::PositionOracle o;
    o.position = [this](SimTime t) {
      position_times.push_back(t);
      return timed(t_layers->oracle_ns, t_layers->oracle_calls,
                   [&] { return inner.position(t); });
    };
    o.activity = [this](SimTime t) {
      return timed(t_layers->oracle_ns, t_layers->oracle_calls,
                   [&] { return inner.activity(t); });
    };
    o.indoors = [this](SimTime t) {
      indoors_times.push_back(t);
      return timed(t_layers->oracle_ns, t_layers->oracle_calls,
                   [&] { return inner.indoors(t); });
    };
    return o;
  }
};

/// One participant of the traced study.
class TracedParticipant {
 public:
  TracedParticipant(const study::StudyConfig& config,
                    std::shared_ptr<const world::World> world,
                    const mobility::Participant& participant,
                    cloud::CloudInstance& cloud, const net::Router& router,
                    Rng& rng, util::Arena* arena, Layers& layers)
      : config_(config),
        world_(std::move(world)),
        participant_(participant),
        cloud_(cloud),
        router_(router),
        rng_(rng),
        layers_(layers) {
    pms_config_.imei = strfmt("35824005%07u", participant.id + 1);
    pms_config_.email = participant.name + "@study.pmware.org";
    pms_config_.inference = config.inference;
    pms_config_.inference.wifi_enabled = config.use_wifi;
    pms_config_.offload_gca = config.offload_gca;
    pms_config_.outbox = config.outbox;
    pms_config_.cache = config.cache;
    pms_config_.arena = arena;
  }

  void run();

 private:
  void boot(SimTime now, bool recover);
  void teardown(bool crashed);
  void run_window(TimeWindow window);
  void end_of_day_replay();
  void checkpoint_probe();
  /// Saves the live service, timed; returns the checkpoint.
  std::string save_checkpoint();

  const study::StudyConfig& config_;
  std::shared_ptr<const world::World> world_;
  const mobility::Participant& participant_;
  cloud::CloudInstance& cloud_;
  const net::Router& router_;
  Rng& rng_;
  Layers& layers_;
  core::PmsConfig pms_config_;

  std::optional<mobility::Trace> trace_;
  OracleTap tap_;
  std::unique_ptr<core::PmwareMobileService> pms_;
  std::optional<apps::LifeLog> lifelog_;
  std::optional<apps::PlaceAds> placeads_;
  /// Same-fork twin of the incarnation's device, driven by the replay.
  std::unique_ptr<sensing::Device> replay_device_;
  std::size_t restarts_ = 0;
  std::string checkpoint_;
  std::size_t encoded_upto_ = 0;  ///< GSM-log prefix already codec-replayed
};

void TracedParticipant::boot(SimTime now, bool recover) {
  const std::uint64_t base =
      restarts_ == 0 ? 2 : 7000 + 8 * static_cast<std::uint64_t>(restarts_);
  Rng device_rng = rng_.fork(base + 0);
  replay_device_ = std::make_unique<sensing::Device>(
      world_, sensing::oracle_from_trace(*trace_), config_.device, device_rng);
  auto device = std::make_unique<sensing::Device>(world_, tap_.wrapped(),
                                                  config_.device, device_rng);
  auto client = std::make_unique<net::RestClient>(&router_, config_.network,
                                                  rng_.fork(base + 1));
  client->set_retry_policy(config_.retry);
  client->set_breaker_policy(config_.breaker);
  client->set_cache_policy({config_.cache, 64});
  pms_ = std::make_unique<core::PmwareMobileService>(
      std::move(device), pms_config_, std::move(client), rng_.fork(base + 2));
  Rng ads_rng = rng_.fork(base + 3);
  lifelog_.emplace();
  lifelog_->connect(*pms_);
  if (config_.run_placeads) {
    placeads_.emplace(apps::AdInventory::default_catalogue(),
                      std::move(ads_rng));
    placeads_->connect(*pms_);
  }
  ++restarts_;
  encoded_upto_ = 0;
  if (recover && !checkpoint_.empty()) {
    std::istringstream in(checkpoint_);
    const bool restored = timed(layers_.restore_ns, layers_.restores,
                                [&] { return pms_->restore(in); });
    if (restored) {
      ++layers_.warm_reboots;
      pms_->register_with_cloud(now);
      return;
    }
    checkpoint_.clear();
  }
  if (recover) {
    ++layers_.cold_reboots;
    pms_->cold_restart(now);
    return;
  }
  pms_->register_with_cloud(now);
}

void TracedParticipant::teardown(bool crashed) {
  if (!pms_) return;
  if (crashed) pms_->discard_pending();
  placeads_.reset();
  lifelog_.reset();
  pms_.reset();
}

void TracedParticipant::run_window(TimeWindow window) {
  const auto& log = pms_->inference().gsm_log();
  const std::size_t before = log.size();
  tap_.position_times.clear();
  tap_.indoors_times.clear();
  const std::int64_t handler0 = layers_.handler_ns;
  const std::int64_t bench0 = layers_.bench_ns;
  const std::int64_t oracle0 = layers_.oracle_ns;
  const std::int64_t t0 = now_ns();
  pms_->run(window);
  const std::int64_t t1 = now_ns();
  layers_.pms_run_self_ns += (t1 - t0) - (layers_.handler_ns - handler0) -
                             (layers_.bench_ns - bench0) -
                             (layers_.oracle_ns - oracle0);

  // Replay this window's device reads on the same-fork twin. GSM read times
  // are the new GSM-log entries; WiFi scan times are the remaining position
  // queries once GSM reads and GPS fixes are taken out.
  std::vector<SimTime> gsm;
  for (std::size_t i = before; i < log.size(); ++i) gsm.push_back(log[i].t);
  std::vector<SimTime> not_gsm, wifi;
  std::set_difference(tap_.position_times.begin(), tap_.position_times.end(),
                      gsm.begin(), gsm.end(), std::back_inserter(not_gsm));
  std::set_difference(not_gsm.begin(), not_gsm.end(),
                      tap_.indoors_times.begin(), tap_.indoors_times.end(),
                      std::back_inserter(wifi));

  const std::uint64_t queries0 = replay_device_->env_queries();
  const std::uint64_t hits0 = replay_device_->env_hits();
  const auto keep = [](const auto&) { return true; };
  const std::int64_t r0 = now_ns();
  layers_.gsm_reads += replay_device_->read_gsm_run(gsm, keep);
  const std::int64_t r1 = now_ns();
  layers_.wifi_scans += replay_device_->scan_wifi_run(wifi, keep);
  const std::int64_t r2 = now_ns();
  layers_.gsm_read_ns += r1 - r0;
  layers_.wifi_scan_ns += r2 - r1;
  layers_.env_queries += replay_device_->env_queries() - queries0;
  layers_.env_hits += replay_device_->env_hits() - hits0;

  // Radio environment per GSM read: hearable cells at the true position and
  // the share within 30 dB of the strongest (the only ones that can win
  // reselection after fading). Queried once per distinct position.
  std::optional<geo::LatLng> last;
  std::uint64_t heard = 0, relevant = 0;
  for (const SimTime t : gsm) {
    const geo::LatLng pos = trace_->position_at(t);
    if (!last || pos != *last) {
      const auto cells =
          world_->hearable_cells(pos, config_.device.fading_sigma_db * 2);
      double strongest = -1e9;
      for (const auto& c : cells) strongest = std::max(strongest, c.rssi_dbm);
      heard = cells.size();
      relevant = static_cast<std::uint64_t>(std::count_if(
          cells.begin(), cells.end(), [&](const world::HeardCell& c) {
            return c.rssi_dbm >= strongest - 30.0;
          }));
      last = pos;
    }
    layers_.cells_heard += heard;
    layers_.cells_relevant += relevant;
    ++layers_.heard_reads;
  }
  layers_.bench_ns += now_ns() - t1;
}

void TracedParticipant::end_of_day_replay() {
  const std::int64_t t0 = now_ns();
  const auto& log = pms_->inference().gsm_log();
  const std::span<const algorithms::CellObservation> obs(log.data(),
                                                         log.size());
  const std::int64_t g0 = now_ns();
  algorithms::run_gca(obs, config_.inference.gca);
  layers_.gca_ns += now_ns() - g0;
  layers_.gca_obs += obs.size();

  // The GCA-offload body for the observations added since the last replay,
  // built the way the service builds its suffix upload.
  if (encoded_upto_ > obs.size()) encoded_upto_ = 0;
  const std::int64_t e0 = now_ns();
  Json arr = Json::array();
  for (std::size_t i = encoded_upto_; i < obs.size(); ++i) {
    Json o = Json::object();
    o.set("t", obs[i].t);
    o.set("cell", core::to_json(obs[i].cell));
    arr.push_back(std::move(o));
  }
  Json body = Json::object();
  body.set("observations", std::move(arr));
  const std::string text = body.dump();
  const std::int64_t e1 = now_ns();
  Json::parse(text);
  const std::int64_t e2 = now_ns();
  layers_.encode_obs += obs.size() - encoded_upto_;
  layers_.encode_ns += e1 - e0;
  layers_.parse_bytes += text.size();
  layers_.parse_ns += e2 - e1;
  encoded_upto_ = obs.size();
  layers_.bench_ns += now_ns() - t0;
}

std::string TracedParticipant::save_checkpoint() {
  std::ostringstream out;
  const std::int64_t t0 = now_ns();
  pms_->save(out);
  layers_.save_ns += now_ns() - t0;
  ++layers_.saves;
  std::string text = out.str();
  layers_.save_bytes += text.size();
  return text;
}

void TracedParticipant::checkpoint_probe() {
  // Without device faults the study never checkpoints, so the save and
  // restore cost is probed once on the participant's final state, restoring
  // into an offline service.
  const std::int64_t t0 = now_ns();
  const std::string text = save_checkpoint();
  core::PmsConfig offline = pms_config_;
  offline.arena = nullptr;
  core::PmwareMobileService offline_pms(
      std::make_unique<sensing::Device>(world_,
                                        sensing::oracle_from_trace(*trace_),
                                        config_.device, Rng(0)),
      offline, nullptr, Rng(0));
  std::istringstream in(text);
  if (!timed(layers_.restore_ns, layers_.restores,
             [&] { return offline_pms.restore(in); }))
    ++layers_.probe_restore_failures;
  layers_.bench_ns += now_ns() - t0;
}

void TracedParticipant::run() {
  telemetry::Span span(telemetry::tracer(),
                       "study.participant." + participant_.name, 0);
  Rng trace_rng = rng_.fork(1);
  const std::int64_t b0 = now_ns();
  trace_.emplace(mobility::build_trace(*world_, participant_, config_.schedule,
                                       trace_rng));
  layers_.trace_build_ns += now_ns() - b0;
  tap_.inner = sensing::oracle_from_trace(*trace_);
  const std::vector<mobility::Visit> truth_visits =
      trace_->significant_visits(config_.inference.min_visit_dwell);

  const net::FaultPlan& plan = config_.fault_plan;
  const bool churn = plan.has_device_rules();
  const std::int64_t join_day = churn ? plan.join_day(pms_config_.imei) : 0;

  if (join_day == 0) boot(0, /*recover=*/false);

  Rng diary_rng = rng_.fork(6);
  std::map<core::PlaceUid, TagState> diary;
  SimTime down_until = -1;
  for (int day = 0; day < config_.days; ++day) {
    if (day < join_day) continue;
    const SimTime day_begin = start_of_day(day);
    const SimTime day_end = start_of_day(day + 1);
    SimTime cursor = day_begin;
    if (!pms_) {
      if (down_until >= day_end) continue;
      cursor = std::max(day_begin, down_until);
      down_until = -1;
      boot(cursor, /*recover=*/true);
    }
    const net::DeviceFaultDecision decision =
        churn ? plan.evaluate_device(pms_config_.imei, day)
              : net::DeviceFaultDecision{};
    if (decision.crash_at && *decision.crash_at >= cursor &&
        *decision.crash_at < day_end) {
      const SimTime crash_at = *decision.crash_at;
      if (crash_at > cursor) run_window(TimeWindow{cursor, crash_at});
      teardown(/*crashed=*/true);
      const SimTime reboot_at =
          crash_at + std::max<SimDuration>(0, decision.restart_delay);
      if (reboot_at < day_end) {
        boot(reboot_at, /*recover=*/true);
        run_window(TimeWindow{reboot_at, day_end});
      } else {
        down_until = reboot_at;
      }
    } else {
      run_window(TimeWindow{cursor, day_end});
    }
    if (pms_) {
      end_of_day_replay();
      diary_session(*pms_, *world_, truth_visits, config_, day_end, diary_rng,
                    diary);
      if (decision.wipe) {
        pms_->wipe_cloud_data(day_end);
        teardown(/*crashed=*/true);
        checkpoint_.clear();
        diary.clear();
        boot(day_end, /*recover=*/false);
      } else if (churn) {
        checkpoint_ = save_checkpoint();
      }
    }
  }
  if (!pms_) boot(start_of_day(config_.days), /*recover=*/true);
  pms_->shutdown(start_of_day(config_.days));
  diary_session(*pms_, *world_, truth_visits, config_,
                start_of_day(config_.days), diary_rng, diary);
  span.finish(start_of_day(config_.days));
  if (!churn) checkpoint_probe();
  if (const auto uid = pms_->user_id()) cloud_.storage().archive_user(*uid);
  teardown(/*crashed=*/false);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  return v[std::min(rank, v.size() - 1)];
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// The forwarding router is a net::Router too, so it opens a handler span
/// of its own ("cloud./:s1/...") beside the cloud's. Those are benchmark
/// artifacts: the fold and the span count skip them.
bool is_forwarder_span(const telemetry::SpanRecord& record) {
  return record.name.rfind("cloud./:s", 0) == 0;
}

/// Program spans folded by name into self time: a span's wall time minus
/// the wall time of its direct children.
std::map<std::string, double> span_self_ms(
    const std::vector<telemetry::SpanRecord>& records) {
  std::vector<std::int64_t> child_ns(records.size(), 0);
  for (const auto& r : records)
    if (!is_forwarder_span(r) && r.parent < records.size())
      child_ns[r.parent] += r.wall_ns;
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (is_forwarder_span(records[i])) continue;
    std::string name = records[i].name.substr(0, records[i].name.find(' '));
    if (name.rfind("cloud.", 0) == 0) name = "cloud";
    if (name.rfind("study.participant.", 0) == 0) name = "study.participant";
    self[name] += static_cast<double>(records[i].wall_ns - child_ns[i]) / 1e6;
  }
  return self;
}

/// Program spans whose self time the traced run reports.
const char* const kSpanNames[] = {
    "scheduler.run",       "scheduler.sampling.gsm", "scheduler.sampling.wifi",
    "pms.run",             "pms.housekeeping",       "pms.gca_offload",
    "pms.gca_local",       "inference.recluster",    "gca.feed",
    "net.send",            "cloud"};

}  // namespace

TracedResult traced_run(const study::StudyConfig& config) {
  // The DeploymentStudy fork order: world, participants, cloud, then one
  // fork per participant in id order.
  Rng root(config.seed);
  Rng world_rng = root.fork(1);
  const std::int64_t w0 = now_ns();
  const std::shared_ptr<const world::World> world =
      world::generate_world(config.world, world_rng);
  const double generate_ms = static_cast<double>(now_ns() - w0) / 1e6;

  Rng participants_rng = root.fork(2);
  mobility::ParticipantStream stream(*world, participants_rng);
  cloud::GeoLocationService geoloc(world->cell_location_db());
  geoloc.set_ap_db(world->ap_location_db());
  cloud::CloudConfig cloud_config;
  cloud_config.shards = static_cast<std::size_t>(std::max(config.shards, 1));
  cloud_config.fault_plan = config.fault_plan;
  cloud_config.cache = config.cache;
  cloud::CloudInstance cloud(cloud_config, std::move(geoloc), root.fork(3));
  const ForwardingRouter forwarder(cloud.router());

  const int total = std::max(config.participants, 0);
  std::vector<mobility::Participant> participants;
  std::vector<Rng> rngs;
  for (int i = 0; i < total; ++i) {
    participants.push_back(stream.next());
    rngs.push_back(root.fork(1000 + static_cast<std::uint64_t>(i)));
  }

  const int threads = std::clamp(config.threads, 1, std::max(total, 1));
  const bool aggregate = total > study::DeploymentStudy::kDetailThreshold;
  std::vector<Layers> per_thread(static_cast<std::size_t>(threads));
  std::atomic<int> next{0};
  std::exception_ptr failure;
  std::mutex failure_mu;
  const auto worker = [&](int slot) {
    Layers& layers = per_thread[static_cast<std::size_t>(slot)];
    t_layers = &layers;
    std::optional<telemetry::InstanceLabelScope> scope;
    if (aggregate) scope.emplace(strfmt("w%d", slot));
    util::Arena arena(std::size_t{1} << 20);
    while (true) {
      const int k = next.fetch_add(1, std::memory_order_relaxed);
      if (k >= total) break;
      try {
        const std::int64_t p0 = now_ns();
        const std::int64_t bench0 = layers.bench_ns;
        const auto i = static_cast<std::size_t>(k);
        TracedParticipant(config, world, participants[i], cloud,
                          forwarder.router(), rngs[i], &arena, layers)
            .run();
        arena.reset();
        layers.participant_ms.push_back(
            static_cast<double>(now_ns() - p0 - (layers.bench_ns - bench0)) /
            1e6);
      } catch (...) {
        const std::scoped_lock lock(failure_mu);
        if (!failure) failure = std::current_exception();
      }
    }
    t_layers = nullptr;
  };
  const std::int64_t r0 = now_ns();
  if (threads <= 1) {
    worker(0);
  } else {
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) pool.emplace_back(worker, t);
    for (std::thread& t : pool) t.join();
  }
  const std::int64_t wall_ns = now_ns() - r0;
  if (failure) std::rethrow_exception(failure);

  Layers all;
  for (const Layers& l : per_thread) all.merge(l);

  TracedResult result;
  result.storage_digest = cloud.storage().content_digest();
  result.probe_restore_failures = all.probe_restore_failures;
  const double pd = static_cast<double>(total) * config.days;
  // Benchmark-only work is spread over the workers that did it.
  const double study_ns = static_cast<double>(wall_ns) -
                          static_cast<double>(all.bench_ns) / threads;
  result.pd_per_s = study_ns > 0 ? pd / (study_ns / 1e9) : 0;

  const auto& reg = telemetry::registry();
  const auto family = [&](const char* name) {
    return static_cast<double>(reg.family_total(name));
  };
  const double enqueued = family("pms_outbox_enqueued_total");
  const double delivered = family("pms_outbox_delivered_total");
  const double recovered = family("pms_outbox_recovered_total");
  double lock_wait_us = 0;
  if (const auto* h = reg.find_histogram("cloud_shard_lock_wait_us", {}))
    lock_wait_us = h->stats().sum();
  std::uint64_t requests = 0;
  for (const auto n : all.requests) requests += n;

  auto& m = result.metrics;
  // Adds num / den (0 when den is 0).
  const auto add = [&m](std::string name, double num, double den,
                        const char* unit) {
    m.push_back({std::move(name), ratio(num, den), unit});
  };
  const auto d = [](auto v) { return static_cast<double>(v); };
  add("world.generate_ms", generate_ms, 1, "ms");
  add("mobility.trace_build_us", d(all.trace_build_ns) / 1e3, d(total), "us");
  add("study.participant_ms.p50", percentile(all.participant_ms, 0.50), 1,
      "ms");
  add("study.participant_ms.p99", percentile(all.participant_ms, 0.99), 1,
      "ms");
  add("mobility.oracle_calls_per_pd", d(all.oracle_calls), pd, "count");
  add("mobility.oracle_ns", d(all.oracle_ns), d(all.oracle_calls), "ns");
  add("sensing.gsm_reads_per_pd", d(all.gsm_reads), pd, "count");
  add("sensing.gsm_read_ns", d(all.gsm_read_ns), d(all.gsm_reads), "ns");
  add("sensing.cells_heard_per_read", d(all.cells_heard), d(all.heard_reads),
      "count");
  add("sensing.cells_relevant_ratio", d(all.cells_relevant), d(all.cells_heard),
      "ratio");
  add("sensing.env_cache_hit_ratio", d(all.env_hits), d(all.env_queries),
      "ratio");
  add("sensing.wifi_scans_per_pd", d(all.wifi_scans), pd, "count");
  add("sensing.wifi_scan_ns", d(all.wifi_scan_ns), d(all.wifi_scans), "ns");
  add("core.pms_run_self_ms_per_pd", d(all.pms_run_self_ns) / 1e6, pd, "ms");
  add("core.checkpoint_save_us", d(all.save_ns) / 1e3, d(all.saves), "us");
  add("core.checkpoint_bytes", d(all.save_bytes), d(all.saves), "bytes");
  add("core.restore_us", d(all.restore_ns) / 1e3, d(all.restores), "us");
  add("core.cold_restart_ratio", d(all.cold_reboots),
      d(all.cold_reboots + all.warm_reboots), "ratio");
  add("core.outbox_enqueued_per_pd", enqueued, pd, "count");
  // Of the entries not delivered on their first attempt, the share later
  // delivered.
  add("core.outbox_recovered_ratio", recovered,
      enqueued - (delivered - recovered), "ratio");
  add("algorithms.gsm_obs_per_pd", d(all.gca_obs), pd, "count");
  add("algorithms.gca_ns_per_obs", d(all.gca_ns), d(all.gca_obs), "ns");
  for (std::size_t c = 0; c < kClassCount; ++c)
    add(std::string("net.requests_per_pd.") + kClassNames[c],
        d(all.requests[c]), pd, "count");
  add("net.req_bytes_per_pd", d(all.req_bytes), pd, "bytes");
  add("net.resp_bytes_per_pd", d(all.resp_bytes), pd, "bytes");
  add("net.codec_encode_ns_per_obs", d(all.encode_ns), d(all.encode_obs), "ns");
  add("net.codec_parse_ns_per_byte", d(all.parse_ns), d(all.parse_bytes), "ns");
  add("net.retries_per_pd", family("net_retries_total"), pd, "count");
  add("net.non2xx_ratio", d(all.non2xx), d(requests), "ratio");
  for (std::size_t c = 0; c < kClassCount; ++c) {
    const std::string name = std::string("cloud.handler_us.") + kClassNames[c];
    add(name + ".p50", percentile(all.handler_us[c], 0.50), 1, "us");
    add(name + ".p99", percentile(all.handler_us[c], 0.99), 1, "us");
  }
  add("cloud.shard_lock_wait_us_per_pd", lock_wait_us, pd, "us");

  const auto records = telemetry::tracer().snapshot();
  const auto program_spans = std::count_if(
      records.begin(), records.end(),
      [](const telemetry::SpanRecord& r) { return !is_forwarder_span(r); });
  add("telemetry.spans_per_pd", d(program_spans), pd, "count");
  add("telemetry.spans_dropped", d(telemetry::tracer().dropped()), 1, "count");
  const auto self = span_self_ms(records);
  for (const char* name : kSpanNames) {
    const auto it = self.find(name);
    add(std::string("span.") + name + ".self_ms_per_pd",
        it == self.end() ? 0.0 : it->second, pd, "ms");
  }
  return result;
}

}  // namespace perfbench
