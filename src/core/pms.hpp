// PMWare Mobile Service (PMS, paper §2.2): the single on-device service all
// connected applications share. Owns the device, the sampling scheduler and
// energy meter, the inference engine, the place store, user preferences, the
// connected-apps module, and the REST link to the cloud instance.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cache/digest.hpp"
#include "core/connected_apps.hpp"
#include "core/inference_engine.hpp"
#include "core/intents.hpp"
#include "core/outbox.hpp"
#include "core/place_store.hpp"
#include "core/preferences.hpp"
#include "energy/meter.hpp"
#include "net/client.hpp"
#include "sensing/device.hpp"
#include "sensing/scheduler.hpp"
#include "telemetry/metrics.hpp"
#include "util/arena.hpp"

namespace pmware::core {

struct PmsConfig {
  std::string imei = "358240051111110";
  std::string email = "user@example.com";
  InferenceConfig inference;
  /// Offload GCA clustering to the cloud (paper §2.3.1); falls back to the
  /// local implementation when the cloud is unreachable.
  bool offload_gca = true;
  /// Sync profiles/places to the cloud during housekeeping.
  bool cloud_sync = true;
  /// Device GCA result cache: remember the clustering result for the
  /// current movement digest, so a recluster over an unchanged GSM log
  /// neither re-sends the log nor re-runs GCA (results are identical either
  /// way, so this is pure work elision). Every pass counts one
  /// cache_outcomes_total{cache="pms_gca"} outcome.
  bool cache = true;
  /// Store-and-forward queue for failed syncs (DESIGN.md "Failure model &
  /// recovery").
  OutboxConfig outbox;
  energy::PowerProfile power = energy::PowerProfile::htc_explorer();
  /// Arena backing the inference engine's append-only logs (GSM
  /// observations, visits). Null = plain heap. The streaming study runner
  /// hands each worker slot's arena here and reset()s it between
  /// participants, so per-participant readings recycle one warm allocation
  /// footprint instead of churning the heap. The arena must outlive the
  /// service.
  util::Arena* arena = nullptr;
};

/// Per-service counters. Since the telemetry subsystem landed this is a
/// *view*: the source of truth is the process-wide metrics registry ("pms_*"
/// families, labeled by service instance); stats() assembles it on demand.
struct PmsStats {
  std::size_t place_events_delivered = 0;
  std::size_t route_events_delivered = 0;
  std::size_t encounters_delivered = 0;
  std::size_t profile_syncs = 0;
  std::size_t token_refreshes = 0;
  std::size_t gca_offloads = 0;
  std::size_t gca_local_runs = 0;
  std::size_t sync_failures = 0;     ///< failed sync sends, all kinds
  std::size_t outbox_enqueued = 0;   ///< work items queued for delivery
  std::size_t outbox_delivered = 0;  ///< work items drained successfully
  std::size_t outbox_recovered = 0;  ///< delivered after >= 1 failed attempt
  std::size_t outbox_evicted = 0;    ///< dropped to capacity (data at risk)
  std::size_t outbox_dropped = 0;    ///< discarded at crash/wipe teardown
  std::size_t outbox_pending = 0;    ///< still queued (lost if never drained)
};

class PmwareMobileService {
 public:
  /// `client` may be null for a fully offline PMS (no registration, local
  /// GCA, no sync).
  PmwareMobileService(std::unique_ptr<sensing::Device> device, PmsConfig config,
                      std::unique_ptr<net::RestClient> client, Rng rng);

  // --- Authentication & lifecycle (paper §2.2.1) ---

  /// One-time registration against the cloud; true on success.
  bool register_with_cloud(SimTime now);
  bool registered() const { return user_id_.has_value(); }
  std::optional<world::DeviceId> user_id() const { return user_id_; }

  /// Runs the sensing loop over [window.begin, window.end). Day boundaries
  /// inside the window trigger housekeeping (recluster + sync + token
  /// refresh). Call repeatedly for consecutive windows if preferred.
  void run(TimeWindow window);

  /// End-of-study shutdown: flush open visits and run a final recluster +
  /// sync so the logs are complete.
  void shutdown(SimTime now);

  // --- Connected applications (paper §2.2.4) ---
  IntentBus& bus() { return bus_; }
  ConnectedAppsModule& apps() { return apps_; }
  UserPreferences& preferences() { return preferences_; }

  // --- Visualization & labeling (paper §2.2.5) ---
  PlaceStore& places() { return place_store_; }
  const PlaceStore& places() const { return place_store_; }
  /// User tags a place; propagated to the cloud when connected.
  bool tag_place(PlaceUid uid, const std::string& label, SimTime now);

  // --- Privacy (paper §6 future work) ---
  /// Erases one place locally (record + visit history) and on the cloud.
  bool forget_place(PlaceUid uid, SimTime now);
  /// Asks the cloud to delete everything stored for this user. Local state
  /// is untouched (callers usually discard the PMS afterwards).
  bool wipe_cloud_data(SimTime now);

  // --- Crash-consistent lifecycle (DESIGN.md "Failure model & recovery") ---

  /// Serializes the complete checkpointable device state — GSM/visit logs,
  /// place store, day-profile export, route/encounter logs, preferences, the
  /// sync outbox, and the sync high-water marks — as sectioned JSONL led by
  /// a manifest line carrying a line count and content digest, so restore()
  /// can tell a torn checkpoint from a whole one.
  void save(std::ostream& out) const;

  /// Rebuilds device state from a checkpoint written by save(). All-or-
  /// nothing: state is parsed into temporaries and committed only if the
  /// manifest digest matches and every section decodes, so a torn or
  /// corrupted checkpoint returns false and leaves the (fresh) service
  /// untouched — the caller falls back to cold_restart(). The caller must
  /// still register_with_cloud() afterwards: tokens are not checkpointed and
  /// the new incarnation needs a fresh boot epoch.
  bool restore(std::istream& in);

  /// No-checkpoint recovery: re-registers (fresh boot epoch) and pulls the
  /// place registry and profile days back from the cloud. Places restore
  /// with uid continuity (next uid past the highest cloud uid) so
  /// re-discovered signatures converge on their old uids; local logs stay
  /// empty, which is safe because empty profile days are never re-uploaded
  /// over the cloud's retained ones.
  bool cold_restart(SimTime now);

  /// Crash/wipe teardown accounting: counts every still-queued outbox entry
  /// as dropped (pms_outbox_dropped_total) so study-level bookkeeping can
  /// tell deliberate loss from silent loss. Returns the number dropped.
  /// Call on the doomed instance before destroying it.
  std::size_t discard_pending();

  /// Cloud registration session of this incarnation (0 = never registered).
  /// Qualifies replay sequence numbers and is sent as X-PMWare-Session so
  /// wipe tombstones can fence writes from pre-wipe incarnations.
  std::uint64_t boot_epoch() const { return boot_epoch_; }

  // --- Data products ---
  const InferenceEngine& inference() const { return engine_; }
  InferenceEngine& inference() { return engine_; }
  /// Day-specific mobility profile assembled from the logs (paper §2.2.3).
  MobilityProfile profile_for(std::int64_t day) const;

  energy::EnergyMeter& meter() { return meter_; }
  const energy::EnergyMeter& meter() const { return meter_; }
  /// Assembled from the metrics registry ("pms_*" families, this service's
  /// instance label); zeros after telemetry::registry().reset().
  PmsStats stats() const;
  /// Value of this service's "instance" metric label, e.g. "pms2".
  const std::string& instance_label() const { return instance_; }
  net::RestClient* client() { return client_.get(); }
  sensing::SamplingScheduler& scheduler() { return scheduler_; }
  /// Pending store-and-forward sync work (empty once the cloud caught up).
  const SyncOutbox& outbox() const { return outbox_; }

  /// Supplies peer positions for Bluetooth social discovery.
  void set_peer_provider(InferenceEngine::PeerProvider provider) {
    engine_.set_peer_provider(std::move(provider));
  }

 private:
  /// This service's series of the named pms_* counter family.
  telemetry::Counter& counter(const char* name, const char* help) const;

  void housekeeping(SimTime now);
  void maybe_refresh_token(SimTime now);
  net::HttpRequest make_request(net::Method method, std::string path,
                                SimTime now) const;
  algorithms::GcaResult offloaded_gca(
      std::span<const algorithms::CellObservation> observations, SimTime now);

  // --- Fault-tolerant sync pipeline (DESIGN.md "Failure model & recovery").
  /// Detects dirty state (changed profile days / place records, new routes
  /// and encounters) and queues it; refreshes day_digest_cache_.
  void enqueue_sync_work(std::int64_t up_to, SimTime now);
  /// Enqueue with eviction/telemetry bookkeeping.
  void enqueue(SyncKind kind, std::uint64_t key, std::uint64_t key2,
               SimTime now);
  /// FIFO-delivers queued work until the first failure.
  void drain_outbox(SimTime now);
  /// Delivery verdict for one outbox entry. Gone (HTTP 410) means the cloud
  /// permanently refuses writes from this incarnation — the user was wiped —
  /// so the entry is dropped instead of retried forever.
  enum class DeliverOutcome { Delivered, Failed, Gone };
  /// Sends one outbox entry, serializing CURRENT local state.
  DeliverOutcome deliver(const OutboxEntry& entry, SimTime now);
  void record_sync_failure(SyncKind kind, int status, SimTime now);
  /// Per-day content digests for days [0, up_to], one pass over the logs;
  /// .second is false for days whose profile would be empty.
  std::vector<std::pair<std::uint64_t, bool>> day_digests(
      std::int64_t up_to) const;

  PmsConfig config_;
  std::unique_ptr<sensing::Device> device_;
  energy::EnergyMeter meter_;
  sensing::SamplingScheduler scheduler_;
  UserPreferences preferences_;
  ConnectedAppsModule apps_;
  PlaceStore place_store_;
  IntentBus bus_;
  InferenceEngine engine_;
  /// Incremental clustering state for local (offload-disabled or offload-
  /// failed) GCA passes; fed the engine's append-only GSM log each pass.
  algorithms::GcaState local_gca_;
  /// The last GCA result and the movement digest of the log it clustered;
  /// only ever set when config_.cache.
  struct CachedGca {
    std::uint64_t digest = 0;
    algorithms::GcaResult result;
  };
  std::optional<CachedGca> gca_cache_;
  std::unique_ptr<net::RestClient> client_;
  std::string instance_;  ///< registry label isolating this service's series

  // Pre-resolved delivery counters: the event sinks fire inside the sensing
  // hot loop, so no per-event LabelSet build or registry lookup. Engaged in
  // the constructor body once instance_ is known.
  std::optional<telemetry::CachedCounter> place_events_counter_;
  std::optional<telemetry::CachedCounter> route_events_counter_;
  std::optional<telemetry::CachedCounter> encounters_counter_;
  // Same treatment for the per-work-item outbox counters (enqueue and drain
  // loop over entries every housekeeping tick).
  std::optional<telemetry::CachedCounter> outbox_enqueued_counter_;
  std::optional<telemetry::CachedCounter> outbox_evicted_counter_;
  std::optional<telemetry::CachedCounter> outbox_delivered_counter_;
  std::optional<telemetry::CachedCounter> outbox_recovered_counter_;

  std::optional<world::DeviceId> user_id_;
  SimTime token_expires_ = 0;
  /// Registration session from the cloud ("session" in the register
  /// response): monotone per device across incarnations, used to qualify
  /// outbox replay sequence numbers and stamped on every request so the
  /// cloud can reject writes from wiped incarnations.
  std::uint64_t boot_epoch_ = 0;
  /// Set by an explicit register_with_cloud() call; housekeeping retries
  /// registration only when it is wanted but failed — a PMS whose caller
  /// never registered must not register itself.
  bool registration_wanted_ = false;

  // --- Suffix-upload state for GCA offload (DESIGN.md "Content addressing
  // & cache coherence"). The GSM log is append-only, so the service keeps a
  // rolling movement digest (O(new observations) per pass instead of O(log))
  // and remembers how much of the log the cloud has acknowledged; each
  // offload then ships only the unacknowledged suffix plus a prefix claim.
  // A 409 from the cloud (history disagreement after a lost response) falls
  // back to a full upload for that pass.
  std::size_t digest_fed_ = 0;  ///< observations folded into digest_
  std::uint64_t digest_ = cache::kDigestBasis;  ///< rolling movement digest
  std::size_t upload_acked_ = 0;  ///< log length the cloud has applied
  std::uint64_t upload_digest_ = cache::kDigestBasis;  ///< digest of that prefix

  SyncOutbox outbox_;
  std::size_t routes_enqueued_ = 0;      ///< route_log entries queued so far
  std::size_t encounters_enqueued_ = 0;  ///< encounter_log entries queued
  /// Content digest of each day's profile / place record as last
  /// successfully PUT; differences drive re-sync (replaces the old
  /// "re-PUT everything from day 0 every tick" loop).
  std::map<std::int64_t, std::uint64_t> synced_day_digest_;
  std::map<PlaceUid, std::uint64_t> synced_place_digest_;
  /// Refreshed by enqueue_sync_work each tick; deliver() records from it.
  std::vector<std::pair<std::uint64_t, bool>> day_digest_cache_;
};

}  // namespace pmware::core
