#include "fs/purge_index.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

#include "obs/metrics.hpp"

namespace adr::fs {

namespace {

obs::Counter& adds_total() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("purge_index.adds");
  return c;
}

obs::Counter& touches_total() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("purge_index.touches");
  return c;
}

obs::Counter& updates_total() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("purge_index.updates");
  return c;
}

obs::Counter& removes_total() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("purge_index.removes");
  return c;
}

obs::Counter& compactions_total() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("purge_index.compactions");
  return c;
}

obs::Gauge& entries_gauge() {
  static obs::Gauge& g =
      obs::MetricsRegistry::global().gauge("purge_index.entries");
  return g;
}

bool same_key(const PurgeIndex::Entry& a, const PurgeIndex::Entry& b) {
  return a.atime == b.atime && a.id == b.id;
}

/// Iterator to the entry with `key`'s (atime, id), or end().
std::vector<PurgeIndex::Entry>::iterator find_key(
    std::vector<PurgeIndex::Entry>& v, const PurgeIndex::Entry& key) {
  const auto it =
      std::lower_bound(v.begin(), v.end(), key, PurgeIndex::EntryOrder{});
  return it != v.end() && same_key(*it, key) ? it : v.end();
}

std::vector<PurgeIndex::Entry>::const_iterator find_key(
    const std::vector<PurgeIndex::Entry>& v, const PurgeIndex::Entry& key) {
  const auto it =
      std::lower_bound(v.begin(), v.end(), key, PurgeIndex::EntryOrder{});
  return it != v.end() && same_key(*it, key) ? it : v.end();
}

void sorted_insert(std::vector<PurgeIndex::Entry>& v,
                   const PurgeIndex::Entry& e) {
  v.insert(std::upper_bound(v.begin(), v.end(), e, PurgeIndex::EntryOrder{}),
           e);
}

}  // namespace

PathId PurgeIndex::intern(std::string_view path) {
  if (!free_ids_.empty()) {
    const PathId id = free_ids_.back();
    free_ids_.pop_back();
    paths_[id].assign(path);  // reuses the recycled slot's capacity
    return id;
  }
  const PathId id = static_cast<PathId>(paths_.size());
  paths_.emplace_back(path);
  return id;
}

std::size_t PurgeIndex::pending_cap(const OwnerList& list) {
  // 1/8 of the base amortizes compaction to O(1 + log B) per mutation while
  // keeping the merged-query overhead (two extra sorted runs) small; the
  // floor of 32 stops tiny owners from compacting on every other insert.
  return std::max<std::size_t>(32, list.base.size() / 8);
}

void PurgeIndex::compact(OwnerList& list) {
  compactions_total().add();
  std::vector<Entry> next;
  next.reserve(list.live());
  // base − graves, then merge the pending inserts; graves only name base
  // entries, so one synchronized sweep applies them exactly.
  auto g = list.graves.cbegin();
  std::vector<Entry> survivors;
  survivors.reserve(list.base.size() - list.graves.size());
  for (const Entry& e : list.base) {
    if (g != list.graves.cend() && same_key(*g, e)) {
      ++g;
      continue;
    }
    survivors.push_back(e);
  }
  assert(g == list.graves.cend());
  std::merge(survivors.begin(), survivors.end(), list.inserts.begin(),
             list.inserts.end(), std::back_inserter(next), EntryOrder{});
  list.base = std::move(next);
  list.inserts.clear();
  list.inserts.shrink_to_fit();
  list.graves.clear();
  list.graves.shrink_to_fit();
}

PurgeIndex::OwnerList& PurgeIndex::owner_list(trace::UserId owner) {
  assert(owner != trace::kInvalidUser);
  if (static_cast<std::size_t>(owner) >= by_owner_.size()) {
    by_owner_.resize(static_cast<std::size_t>(owner) + 1);
  }
  return by_owner_[owner];
}

const PurgeIndex::OwnerList* PurgeIndex::find_owner(
    trace::UserId owner) const {
  if (owner == trace::kInvalidUser ||
      static_cast<std::size_t>(owner) >= by_owner_.size()) {
    return nullptr;
  }
  return &by_owner_[owner];
}

bool PurgeIndex::erase_key(OwnerList& list, const Entry& key) {
  // A pending insert dies in place; a base entry gets a grave.
  const auto it = find_key(list.inserts, key);
  if (it != list.inserts.end()) {
    list.inserts.erase(it);
    return true;
  }
  if (find_key(list.base, key) == list.base.end()) return false;
  sorted_insert(list.graves, key);
  if (list.graves.size() >= pending_cap(list)) compact(list);
  return true;
}

void PurgeIndex::add(const FileMeta& meta) {
  assert(meta.path_id != kInvalidPathId);
  OwnerList& list = owner_list(meta.owner);
  const bool was_empty = list.live() == 0;
  const Entry e{meta.atime, meta.path_id, meta.size_bytes};
  // A recycled id re-added at the atime of a pending grave would collide
  // with the dead base entry; fold the graves in first (rare).
  if (!list.graves.empty() &&
      find_key(list.graves, e) != list.graves.end()) {
    compact(list);
  }
  sorted_insert(list.inserts, e);
  if (list.inserts.size() >= pending_cap(list)) compact(list);
  if (was_empty) ++owner_count_;
  ++entry_count_;
  adds_total().add();
  entries_gauge().add(1);
}

void PurgeIndex::touch(const FileMeta& before, util::TimePoint new_atime) {
  OwnerList& list = owner_list(before.owner);
  const bool erased =
      erase_key(list, Entry{before.atime, before.path_id, 0});
  assert(erased);
  (void)erased;
  const Entry e{new_atime, before.path_id, before.size_bytes};
  if (!list.graves.empty() &&
      find_key(list.graves, e) != list.graves.end()) {
    compact(list);
  }
  sorted_insert(list.inserts, e);
  if (list.inserts.size() >= pending_cap(list)) compact(list);
  touches_total().add();
}

void PurgeIndex::update(const FileMeta& before, const FileMeta& after) {
  assert(before.path_id == after.path_id);
  OwnerList& old_list = owner_list(before.owner);
  const bool erased =
      erase_key(old_list, Entry{before.atime, before.path_id, 0});
  assert(erased);
  (void)erased;
  if (old_list.live() == 0) {
    --owner_count_;
    old_list = OwnerList{};  // release churned buffers with the last entry
  }
  OwnerList& new_list = owner_list(after.owner);
  const bool was_empty = new_list.live() == 0;
  const Entry e{after.atime, after.path_id, after.size_bytes};
  if (!new_list.graves.empty() &&
      find_key(new_list.graves, e) != new_list.graves.end()) {
    compact(new_list);
  }
  sorted_insert(new_list.inserts, e);
  if (new_list.inserts.size() >= pending_cap(new_list)) compact(new_list);
  if (was_empty) ++owner_count_;
  updates_total().add();
}

void PurgeIndex::remove(const FileMeta& meta) {
  OwnerList& list = owner_list(meta.owner);
  const bool erased = erase_key(list, Entry{meta.atime, meta.path_id, 0});
  assert(erased);
  (void)erased;
  if (list.live() == 0) {
    // Drop the buffers so the dense owner table tracks the live population's
    // footprint (mirrors the Vfs usage churn behaviour).
    --owner_count_;
    list = OwnerList{};
  }
  --entry_count_;
  // Release the id last: the caller's path argument may alias paths_[id].
  free_ids_.push_back(meta.path_id);
  removes_total().add();
  entries_gauge().add(-1);
}

void PurgeIndex::clear() {
  entries_gauge().add(-static_cast<std::int64_t>(entry_count_));
  paths_.clear();
  free_ids_.clear();
  by_owner_.clear();
  entry_count_ = 0;
  owner_count_ = 0;
}

bool PurgeIndex::has_entries(trace::UserId owner) const {
  const OwnerList* list = find_owner(owner);
  return list != nullptr && list->live() > 0;
}

std::vector<PurgeIndex::Entry> PurgeIndex::entries(
    trace::UserId owner) const {
  std::vector<Entry> out;
  const OwnerList* list = find_owner(owner);
  if (list == nullptr || list->live() == 0) return out;
  out.reserve(list->live());
  collect_expired(owner, std::numeric_limits<util::TimePoint>::max(), out);
  return out;
}

void PurgeIndex::collect_expired(trace::UserId owner, util::TimePoint cutoff,
                                 std::vector<Entry>& out) const {
  const OwnerList* list = find_owner(owner);
  if (list == nullptr) return;
  // Merged ascending sweep over base ∪ inserts − graves; all three runs are
  // sorted, and graves only name base entries.
  auto b = list->base.cbegin();
  const auto b_end = list->base.cend();
  auto i = list->inserts.cbegin();
  const auto i_end = list->inserts.cend();
  auto g = list->graves.cbegin();
  const auto g_end = list->graves.cend();
  const EntryOrder less;
  while (b != b_end || i != i_end) {
    const bool take_base = i == i_end || (b != b_end && less(*b, *i));
    const Entry& e = take_base ? *b : *i;
    if (e.atime >= cutoff) break;  // both runs are atime-ascending
    if (take_base) {
      ++b;
      if (g != g_end && same_key(*g, e)) {
        ++g;
        continue;  // dead base entry
      }
    } else {
      ++i;
    }
    out.push_back(e);
  }
}

std::vector<PurgeIndex::OwnedEntry> PurgeIndex::collect_expired_all(
    util::TimePoint cutoff) const {
  std::vector<OwnedEntry> out;
  std::vector<Entry> mine;
  for (std::size_t owner = 0; owner < by_owner_.size(); ++owner) {
    if (by_owner_[owner].live() == 0) continue;
    mine.clear();
    collect_expired(static_cast<trace::UserId>(owner), cutoff, mine);
    for (const Entry& e : mine) {
      out.push_back({static_cast<trace::UserId>(owner), e});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const OwnedEntry& a, const OwnedEntry& b) {
              return EntryOrder{}(a.entry, b.entry);
            });
  return out;
}

bool PurgeIndex::contains(const FileMeta& meta) const {
  if (meta.path_id == kInvalidPathId || meta.path_id >= paths_.size()) {
    return false;
  }
  const OwnerList* list = find_owner(meta.owner);
  if (list == nullptr) return false;
  const Entry key{meta.atime, meta.path_id, 0};
  const auto it = find_key(list->inserts, key);
  if (it != list->inserts.end()) return it->size_bytes == meta.size_bytes;
  const auto bit = find_key(list->base, key);
  if (bit == list->base.end()) return false;
  if (find_key(list->graves, key) != list->graves.end()) return false;
  return bit->size_bytes == meta.size_bytes;
}

}  // namespace adr::fs
