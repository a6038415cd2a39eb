#include "core/outbox.hpp"

#include <algorithm>
#include <string>

#include "core/persistence.hpp"
#include "util/json.hpp"

namespace pmware::core {

const char* kind_name(SyncKind kind) {
  switch (kind) {
    case SyncKind::ProfileDay: return "profile";
    case SyncKind::PlaceUpsert: return "place";
    case SyncKind::PlaceDelete: return "place_delete";
    case SyncKind::Route: return "route";
    case SyncKind::EncounterBatch: return "encounter";
  }
  return "?";
}

SyncOutbox::EnqueueResult SyncOutbox::enqueue(SyncKind kind, std::uint64_t key,
                                              std::uint64_t key2, SimTime now,
                                              std::uint64_t epoch) {
  EnqueueResult result;
  for (OutboxEntry& entry : entries_) {
    if (entry.kind != kind) continue;
    if (kind == SyncKind::EncounterBatch) {
      // One batch entry covers everything pending — but only within a boot
      // epoch: [key, key2) ranges index that epoch's encounter log, so
      // widening across epochs would splice two different logs into one
      // replay range.
      if (entry.epoch != epoch) continue;
      entry.key = std::min(entry.key, key);
      entry.key2 = std::max(entry.key2, key2);
      return result;
    }
    if (entry.key == key) return result;  // already queued
  }
  if (config_.capacity > 0 && entries_.size() >= config_.capacity) {
    result.evicted = entries_.front();
    entries_.pop_front();
  }
  entries_.push_back({kind, key, key2, now, 0, epoch});
  result.appended = true;
  return result;
}

bool SyncOutbox::remove(SyncKind kind, std::uint64_t key) {
  const auto it =
      std::find_if(entries_.begin(), entries_.end(), [&](const OutboxEntry& e) {
        return e.kind == kind && e.key == key;
      });
  if (it == entries_.end()) return false;
  entries_.erase(it);
  return true;
}

void SyncOutbox::save(std::ostream& out) const {
  write_jsonl(out, entries_, [](const OutboxEntry& entry) {
    Json j = Json::object();
    j.set("kind", static_cast<std::int64_t>(entry.kind));
    j.set("key", entry.key);
    j.set("key2", entry.key2);
    j.set("enqueued_at", entry.enqueued_at);
    j.set("attempts", static_cast<std::int64_t>(entry.attempts));
    j.set("epoch", entry.epoch);
    return j;
  });
}

SyncOutbox::LoadResult SyncOutbox::load(std::istream& in) {
  LoadResult result;
  entries_.clear();
  read_jsonl(in, [&](const Json& j) {
    const std::int64_t kind = j.at("kind").as_int();
    if (kind < 0 || kind > static_cast<std::int64_t>(SyncKind::EncounterBatch))
      throw JsonError("unknown sync kind " + std::to_string(kind));
    OutboxEntry entry;
    entry.kind = static_cast<SyncKind>(kind);
    entry.key = static_cast<std::uint64_t>(j.at("key").as_int());
    entry.key2 = static_cast<std::uint64_t>(j.at("key2").as_int());
    entry.enqueued_at = j.at("enqueued_at").as_int();
    entry.attempts = static_cast<int>(j.at("attempts").as_int());
    entry.epoch = static_cast<std::uint64_t>(j.at("epoch").as_int());
    if (config_.capacity > 0 && entries_.size() >= config_.capacity) {
      entries_.pop_front();
      ++result.evicted;
    }
    entries_.push_back(entry);
  });
  result.loaded = entries_.size();
  return result;
}

std::size_t SyncOutbox::drain(const Sender& sender) {
  std::size_t delivered = 0;
  while (!entries_.empty()) {
    OutboxEntry& front = entries_.front();
    if (!sender(front)) {
      ++front.attempts;
      break;
    }
    entries_.pop_front();
    ++delivered;
  }
  return delivered;
}

}  // namespace pmware::core
