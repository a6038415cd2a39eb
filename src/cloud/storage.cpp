#include "cloud/storage.hpp"

#include <algorithm>
#include <chrono>
#include <string>

#include "cache/digest.hpp"
#include "core/codec.hpp"
#include "telemetry/metrics.hpp"
#include "util/rng.hpp"

namespace pmware::cloud {

namespace {

using cache::fnv1a;

/// Canonical content blob of one user's store with the cloud-assigned user
/// id normalized out (it depends on registration order, which is
/// scheduling-dependent in parallel studies).
std::uint64_t user_digest(const UserStore& store) {
  std::string blob;
  blob.reserve(4096);
  for (const auto& [uid, record] : store.places) {
    blob += 'P';
    blob += std::to_string(uid);
    blob += core::to_json(record).dump();
  }
  for (const auto& [day, profile] : store.profiles) {
    core::MobilityProfile normalized = profile;
    normalized.user = 0;
    blob += 'M';
    blob += core::to_json(normalized).dump();
  }
  for (const auto& route : store.routes.routes()) {
    const algorithms::RouteObservation& rep = route.representative;
    blob += 'R';
    blob += std::to_string(rep.from_place);
    blob += ',';
    blob += std::to_string(rep.to_place);
    blob += ',';
    blob += std::to_string(rep.window.begin);
    blob += ',';
    blob += std::to_string(rep.window.end);
    for (std::size_t i = 0; i < rep.gps.times.size(); ++i) {
      blob += std::to_string(rep.gps.times[i]);
      blob += core::to_json(rep.gps.points[i]).dump();
    }
    for (std::size_t i = 0; i < rep.cells.times.size(); ++i) {
      blob += std::to_string(rep.cells.times[i]);
      blob += core::to_json(rep.cells.cells[i]).dump();
    }
    blob += '#';
    blob += std::to_string(route.use_count);
  }
  for (const auto& e : store.encounters) {
    blob += 'E';
    blob += std::to_string(e.contact);
    blob += ',';
    blob += std::to_string(e.place);
    blob += ',';
    blob += std::to_string(e.start);
    blob += ',';
    blob += std::to_string(e.end);
  }
  return fnv1a(blob);
}

}  // namespace

CloudStorage::CloudStorage(std::size_t shards)
    : shards_(std::max<std::size_t>(shards, 1)) {}

CloudStorage::CloudStorage(const CloudStorage& other)
    : shards_(other.shard_count()) {
  const auto locks = other.lock_all();
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s].users = other.shards_[s].users;
    shards_[s].tombstones = other.shards_[s].tombstones;
  }
  archived_.copy_from(other.archived_);
}

CloudStorage& CloudStorage::operator=(const CloudStorage& other) {
  if (this == &other) return *this;
  // Copy out under the source's locks, then redistribute into this
  // storage's shard layout (the counts may differ).
  std::map<world::DeviceId, UserStore> users;
  std::map<world::DeviceId, std::uint64_t> tombstones;
  {
    const auto locks = other.lock_all();
    for (const Shard& shard : other.shards_) {
      for (const auto& [id, store] : shard.users) users[id] = store;
      for (const auto& [id, session] : shard.tombstones)
        tombstones[id] = session;
    }
  }
  const auto locks = lock_all();
  for (Shard& shard : shards_) {
    shard.users.clear();
    shard.tombstones.clear();
  }
  for (auto& [id, store] : users)
    shards_[shard_of(id)].users[id] = std::move(store);
  for (const auto& [id, session] : tombstones)
    shards_[shard_of(id)].tombstones[id] = session;
  archived_.copy_from(other.archived_);
  return *this;
}

std::size_t CloudStorage::shard_of(world::DeviceId id) const {
  // A fixed mix, so shard placement is identical across platforms
  // (std::hash would not be).
  return static_cast<std::size_t>(Rng::splitmix64(id) % shards_.size());
}

std::unique_lock<std::mutex> CloudStorage::lock_shard(std::size_t s) const {
  std::unique_lock<std::mutex> lock(shards_[s].mu, std::try_to_lock);
  double wait_us = 0;
  if (!lock.owns_lock()) {
    const auto begin = std::chrono::steady_clock::now();
    lock.lock();
    wait_us =
        std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
            std::chrono::steady_clock::now() - begin)
            .count();
  }
  auto& reg = telemetry::registry();
  reg.counter("cloud_shard_requests_total", {{"shard", std::to_string(s)}},
              "storage operations routed to each cloud shard")
      .inc();
  reg.histogram("cloud_shard_lock_wait_us", {}, 0, 1000, 20,
                "time spent waiting for a shard lock, microseconds "
                "(0 = uncontended)")
      .observe(wait_us);
  return lock;
}

std::vector<std::unique_lock<std::mutex>> CloudStorage::lock_all() const {
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  // Ascending shard order — the documented total order that keeps the
  // snapshot path deadlock-free against single-shard holders.
  for (std::size_t s = 0; s < shards_.size(); ++s)
    locks.push_back(lock_shard(s));
  return locks;
}

CloudStorage::UserLock CloudStorage::locked_user(world::DeviceId id) {
  const std::size_t s = shard_of(id);
  auto lock = lock_shard(s);
  return UserLock(std::move(lock), &shards_[s].users[id]);
}

std::size_t CloudStorage::user_count() const {
  std::size_t n = 0;
  const auto locks = lock_all();
  for (const Shard& shard : shards_) n += shard.users.size();
  return n;
}

CloudStorage::Stats CloudStorage::stats() const {
  // Archived (retired) users still count: the accumulators were folded at
  // archive time, so the aggregate is invariant under mid-run retirement.
  Stats s;
  s.users = archived_.users.load(std::memory_order_relaxed);
  s.places = archived_.places.load(std::memory_order_relaxed);
  s.profiles = archived_.profiles.load(std::memory_order_relaxed);
  s.routes = archived_.routes.load(std::memory_order_relaxed);
  s.encounters = archived_.encounters.load(std::memory_order_relaxed);
  const auto locks = lock_all();
  for (const Shard& shard : shards_) {
    s.users += shard.users.size();
    for (const auto& [id, store] : shard.users) {
      s.places += store.places.size();
      s.profiles += store.profiles.size();
      s.routes += store.routes.routes().size();
      s.encounters += store.encounters.size();
    }
  }
  return s;
}

std::uint64_t CloudStorage::content_digest() const {
  // Per-user digests combine by addition (commutative): the digest is the
  // same whatever shard layout, registration order, or archive schedule put
  // the users where they are.
  std::uint64_t digest = archived_.digest.load(std::memory_order_relaxed);
  const auto locks = lock_all();
  for (const Shard& shard : shards_)
    for (const auto& [id, store] : shard.users) digest += user_digest(store);
  return digest;
}

bool CloudStorage::archive_user(world::DeviceId id) {
  bool archived = false;
  {
    const std::size_t s = shard_of(id);
    const auto lock = lock_shard(s);
    auto& users = shards_[s].users;
    const auto it = users.find(id);
    if (it == users.end()) return false;
    const UserStore& store = it->second;
    archived_.users.fetch_add(1, std::memory_order_relaxed);
    archived_.places.fetch_add(store.places.size(), std::memory_order_relaxed);
    archived_.profiles.fetch_add(store.profiles.size(),
                                 std::memory_order_relaxed);
    archived_.routes.fetch_add(store.routes.routes().size(),
                               std::memory_order_relaxed);
    archived_.encounters.fetch_add(store.encounters.size(),
                                   std::memory_order_relaxed);
    archived_.digest.fetch_add(user_digest(store), std::memory_order_relaxed);
    users.erase(it);
    archived = true;
  }
  telemetry::registry()
      .counter("cloud_users_archived_total", {},
               "users retired into the archived accumulators")
      .inc();
  return archived;
}

bool CloudStorage::erase_user(world::DeviceId id, std::uint64_t wipe_session) {
  bool erased = false;
  bool tombstoned = false;
  {
    const std::size_t s = shard_of(id);
    const auto lock = lock_shard(s);
    erased = shards_[s].users.erase(id) > 0;
    if (wipe_session > 0) {
      std::uint64_t& tombstone = shards_[s].tombstones[id];
      tombstoned = wipe_session > tombstone;
      tombstone = std::max(tombstone, wipe_session);
    }
  }
  if (tombstoned)
    telemetry::registry()
        .counter("cloud_wipe_tombstones_total", {},
                 "privacy wipes that raised a device's session tombstone")
        .inc();
  return erased;
}

bool CloudStorage::write_allowed(world::DeviceId id,
                                 std::uint64_t session) const {
  const std::size_t s = shard_of(id);
  const auto lock = lock_shard(s);
  const auto it = shards_[s].tombstones.find(id);
  return it == shards_[s].tombstones.end() || session > it->second;
}

std::uint64_t CloudStorage::tombstone_session(world::DeviceId id) const {
  const std::size_t s = shard_of(id);
  const auto lock = lock_shard(s);
  const auto it = shards_[s].tombstones.find(id);
  return it == shards_[s].tombstones.end() ? 0 : it->second;
}

bool CloudStorage::erase_place(world::DeviceId id, core::PlaceUid place) {
  const std::size_t s = shard_of(id);
  const auto lock = lock_shard(s);
  auto& users = shards_[s].users;
  const auto it = users.find(id);
  if (it == users.end()) return false;
  const bool existed = it->second.places.erase(place) > 0;
  for (auto& [day, profile] : it->second.profiles) {
    std::erase_if(profile.places, [place](const core::PlaceVisitEntry& e) {
      return e.place == place;
    });
  }
  std::erase_if(it->second.encounters, [place](const core::EncounterEntry& e) {
    return e.place == place;
  });
  return existed;
}

std::vector<core::PlaceVisitEntry> CloudStorage::visits_at(
    world::DeviceId user, core::PlaceUid place) const {
  return with_user(user, [place](const UserStore* store) {
    std::vector<core::PlaceVisitEntry> out;
    if (store == nullptr) return out;
    for (const auto& [day, profile] : store->profiles) {
      for (const auto& visit : profile.places)
        if (visit.place == place) out.push_back(visit);
    }
    return out;
  });
}

std::vector<core::PlaceVisitEntry> CloudStorage::stitched_visits_at(
    world::DeviceId user, core::PlaceUid place) const {
  std::vector<core::PlaceVisitEntry> raw = visits_at(user, place);
  std::sort(raw.begin(), raw.end(),
            [](const core::PlaceVisitEntry& a, const core::PlaceVisitEntry& b) {
              return a.arrival < b.arrival;
            });
  std::vector<core::PlaceVisitEntry> out;
  for (const auto& entry : raw) {
    if (!out.empty() && out.back().departure == entry.arrival &&
        time_of_day(entry.arrival) == 0) {
      out.back().departure = entry.departure;  // midnight continuation
    } else {
      out.push_back(entry);
    }
  }
  return out;
}

}  // namespace pmware::cloud
