// Cloud-side persistent stores: per-user places, day-keyed mobility
// profiles, canonical routes, social contacts, and incremental GCA state
// (paper §2.3) — sharded by user so concurrent requests for different
// users never contend on one lock.
//
// Concurrency model (DESIGN.md "Concurrency model"):
//  * The user space is split into N shards by `shard_of(id)`; each shard
//    owns its user map plus its own mutex. A per-user operation takes
//    exactly one shard lock (locked_user / with_user / erase_user / ...).
//  * Cross-user operations (stats, content_digest, copies) take the
//    all-shards snapshot path: every shard lock in ascending shard order,
//    released together. Lock ordering rule: never take a second shard lock
//    while holding one — per-user ops hold one, snapshot ops take all
//    ascending, so the orders can never invert.
//  * The bare user()/find_user() accessors are unsynchronized conveniences
//    for single-threaded callers (tests, examples, post-join reads); the
//    request path goes through the locking accessors only.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "algorithms/gca.hpp"
#include "algorithms/routes.hpp"
#include "cache/digest.hpp"
#include "core/model.hpp"
#include "util/json.hpp"

namespace pmware::cloud {

struct UserStore {
  std::map<core::PlaceUid, core::PlaceRecord> places;
  std::map<std::int64_t, core::MobilityProfile> profiles;  ///< by day
  algorithms::RouteStore routes;
  std::vector<core::EncounterEntry> encounters;
  /// Incremental clustering state for POST /api/places/discover: the device
  /// uploads its append-only GSM log each pass, so the suffix feed applies
  /// server-side too. Lives with the user's data so one shard lock covers a
  /// discover request and account deletion drops it with everything else.
  algorithms::GcaState gca;
  /// Idempotent-replay high-water marks for the append-only uploads: the
  /// device stamps each route POST with its log index ("seq") and each
  /// encounter batch with its starting index ("first_index"); entries below
  /// the mark were already applied and are skipped on replay. Bookkeeping,
  /// not content — excluded from content_digest() like the GCA state.
  std::uint64_t route_seq_high_water = 0;
  std::uint64_t encounter_high_water = 0;
  /// The observation stream fed to `gca` so far, retained server-side so
  /// the device can upload only the suffix each pass (POST
  /// /api/places/discover with prefix_len/prefix_digest): a mapping-change
  /// recluster must replay the whole stream, so the cloud keeps it instead
  /// of receiving it again every day. `gca_log_digest` is the rolling
  /// core::movement_digest of the stream — what a full upload's digest
  /// would be — and verifies the device's prefix claim. Bookkeeping, not
  /// content: excluded from content_digest() like the rest of the GCA
  /// state, and dropped with the user on archive/erase.
  std::vector<algorithms::CellObservation> gca_log;
  std::uint64_t gca_log_digest = cache::kDigestBasis;
};

class CloudStorage {
 public:
  static constexpr std::size_t kDefaultShards = 16;

  explicit CloudStorage(std::size_t shards = kDefaultShards);

  /// Copies move the user data, not the mutexes; the destination keeps its
  /// own shard count and redistributes (tests assign prebuilt fixtures into
  /// live instances).
  CloudStorage(const CloudStorage& other);
  CloudStorage& operator=(const CloudStorage& other);

  std::size_t shard_count() const { return shards_.size(); }

  /// Owning shard of `id`: mix(id) % shard_count. The mix is a fixed
  /// splitmix64 finalizer so the distribution (and therefore every sharded
  /// run) is identical across platforms and standard libraries.
  std::size_t shard_of(world::DeviceId id) const;

  /// RAII view of one user's store holding the owning shard's lock; the
  /// request path's only write door.
  class UserLock {
   public:
    UserStore& operator*() const { return *store_; }
    UserStore* operator->() const { return store_; }

   private:
    friend class CloudStorage;
    UserLock(std::unique_lock<std::mutex> lock, UserStore* store)
        : lock_(std::move(lock)), store_(store) {}
    std::unique_lock<std::mutex> lock_;
    UserStore* store_;
  };

  /// Locks the owning shard and returns the user's store, creating it on
  /// first use (mirrors the historical user() semantics).
  UserLock locked_user(world::DeviceId id);

  /// Runs `fn(store)` under the owning shard's lock; `store` is null when
  /// the user has no data. `fn` must not touch the storage again (the shard
  /// mutex is non-recursive) and must not block.
  template <typename Fn>
  auto with_user(world::DeviceId id, Fn&& fn) const {
    const std::size_t s = shard_of(id);
    const auto lock = lock_shard(s);
    const auto& users = shards_[s].users;
    const auto it = users.find(id);
    return fn(it == users.end() ? nullptr : &it->second);
  }

  /// Unsynchronized accessors for single-threaded callers (tests, examples,
  /// analytics fixtures). Never used on the concurrent request path.
  UserStore& user(world::DeviceId id) {
    return shards_[shard_of(id)].users[id];
  }
  const UserStore* find_user(world::DeviceId id) const {
    const auto& users = shards_[shard_of(id)].users;
    const auto it = users.find(id);
    return it == users.end() ? nullptr : &it->second;
  }

  std::size_t user_count() const;

  /// Aggregate record counts across users — the storage block of /healthz.
  struct Stats {
    std::size_t users = 0;
    std::size_t places = 0;
    std::size_t profiles = 0;
    std::size_t routes = 0;
    std::size_t encounters = 0;

    bool operator==(const Stats&) const = default;
  };
  /// All-shards snapshot: a coherent aggregate even while writers run.
  Stats stats() const;

  /// Order-independent digest of every user's stored content (places,
  /// profiles, routes, encounters; the GCA state is internal and excluded).
  /// Cloud-assigned user ids are normalized out and per-user digests
  /// combine commutatively, so the digest is invariant under shard count
  /// and registration order — the study's determinism fingerprint.
  std::uint64_t content_digest() const;

  /// Deletes everything stored for `id` (privacy wipe, paper §6 future
  /// work), including its GCA state. Returns true if the user had any data.
  ///
  /// `wipe_session` (when non-zero) leaves a tombstone: the registration
  /// session the wipe was issued under. Writes stamped with a session at or
  /// below the tombstone — in-flight requests and replayed outbox entries
  /// from the wiped incarnation — are refused by write_allowed(), so
  /// pre-wipe data can never be resurrected; a post-wipe re-registration
  /// gets a strictly larger session and writes normally. Tombstones survive
  /// the erase itself (they live beside the user map, not in it) and are
  /// bookkeeping: excluded from content_digest().
  bool erase_user(world::DeviceId id, std::uint64_t wipe_session = 0);

  /// Whether a write stamped with `session` may land for `id`: true unless
  /// a wipe tombstone exists with tombstone >= session. A sessionless write
  /// (session 0) is refused after any wipe of `id`.
  bool write_allowed(world::DeviceId id, std::uint64_t session) const;

  /// The session recorded by the most recent tombstoning wipe of `id`
  /// (0 = never wiped). Tests and diagnostics.
  std::uint64_t tombstone_session(world::DeviceId id) const;

  /// Retires `id` from the live store: the user's content digest and record
  /// counts are folded into the archived accumulators, then the live entry
  /// (including GCA bookkeeping) is erased. Because per-user digests
  /// combine by commutative addition, content_digest() and stats() report
  /// the same values whether or not users were archived mid-run — this is
  /// what lets the study runner hold only its active wave in memory while
  /// keeping the determinism fingerprint byte-identical to a store that
  /// never archived. Returns false, changing nothing, if `id` has no live
  /// entry (unknown or already archived).
  bool archive_user(world::DeviceId id);

  /// Users retired via archive_user (still counted in stats().users).
  std::uint64_t archived_users() const {
    return archived_.users.load(std::memory_order_relaxed);
  }

  /// Deletes one place and every profile entry referencing it. Returns true
  /// if the place existed.
  bool erase_place(world::DeviceId id, core::PlaceUid place);

  /// All visits of `user` at `place` across all stored profiles, in day
  /// order — the analytics engine's raw material. Takes the owning shard's
  /// lock internally.
  std::vector<core::PlaceVisitEntry> visits_at(world::DeviceId user,
                                               core::PlaceUid place) const;

  /// Like visits_at, but with cross-midnight continuations stitched back
  /// together: day profiles split an overnight stay into an evening entry
  /// ending at midnight and a morning entry starting at midnight (paper
  /// §2.1.3 stores day-specific profiles); for arrival/departure analytics
  /// those two entries are one stay.
  std::vector<core::PlaceVisitEntry> stitched_visits_at(
      world::DeviceId user, core::PlaceUid place) const;

 private:
  struct Shard {
    mutable std::mutex mu;
    std::map<world::DeviceId, UserStore> users;
    /// Wipe tombstones: device -> registration session at the wipe (see
    /// erase_user). Kept outside `users` so erasing the store does not
    /// erase the fence.
    std::map<world::DeviceId, std::uint64_t> tombstones;
  };

  /// Accumulators for archived (retired) users, folded into stats() and
  /// content_digest(). Atomics because different shards archive
  /// concurrently; all folds are commutative additions.
  struct Archived {
    std::atomic<std::uint64_t> users{0};
    std::atomic<std::uint64_t> places{0};
    std::atomic<std::uint64_t> profiles{0};
    std::atomic<std::uint64_t> routes{0};
    std::atomic<std::uint64_t> encounters{0};
    std::atomic<std::uint64_t> digest{0};  ///< sum of per-user digests

    void copy_from(const Archived& o) {
      users.store(o.users.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
      places.store(o.places.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
      profiles.store(o.profiles.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
      routes.store(o.routes.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
      encounters.store(o.encounters.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
      digest.store(o.digest.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    }
  };

  /// Locks one shard, recording the per-shard request counter and the
  /// lock-wait histogram (contention visibility for the shard sweep).
  std::unique_lock<std::mutex> lock_shard(std::size_t s) const;

  /// Every shard lock, ascending — the cross-shard snapshot path.
  std::vector<std::unique_lock<std::mutex>> lock_all() const;

  std::vector<Shard> shards_;
  Archived archived_;
};

}  // namespace pmware::cloud
