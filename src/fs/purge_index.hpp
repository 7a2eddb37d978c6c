#pragma once
// Incrementally-maintained, atime-ordered purge index over the Vfs.
//
// The retention policies' hot path is "which of this user's files have
// atime < now − ε?". Answering that with a namespace walk costs a full
// traversal per trigger (and ActiveDR's retrospective passes re-walk the
// same directories up to five more times). Production policy engines on
// billion-entry file systems (Robinhood and kin) replace the walk with a
// maintained index; this is that index for the emulation.
//
// Layout (the million-user scale tier, DESIGN.md §15): per owner, entries
// live in a *sorted flat vector* — ~sizeof(Entry) bytes per file, contiguous
// for the scan — instead of a per-node std::set (~80 B/entry of node and
// allocator overhead at 10⁸ entries). Mutations are deferred-merge:
//   * inserts go into a small sorted side buffer,
//   * erases of base entries go into a small sorted grave buffer,
// and either buffer reaching its cap (a fraction of the base) triggers a
// one-pass compaction (set_difference of graves, merge of inserts). Every
// query resolves base ∪ inserts − graves on the fly, so results are exact
// at all times; amortized maintenance stays O(log n + B) per
// create/access/remove where B is the bounded buffer size. Owners are dense
// user ids, so the owner table is a flat vector too, not a hash map.
//
// Paths are interned once at create time — scans and victim bookkeeping
// move 4-byte PathIds around, never per-victim std::string copies; freed
// ids (and their string storage) are recycled on later creates. The
// interned string is the only copy of a path in memory: the Vfs's path
// lookup keys are views into it, so the strings live in a deque, whose
// elements never move as it grows.
//
// Concurrency matches the Vfs: const queries (entries / collect_expired /
// contains / path) are safe from many threads while no thread mutates —
// queries never compact, they merge on the fly. Mutation is
// single-threaded. This is exactly the scan-then-apply shape of the
// policies.
//
// Maintenance cost is observable: "purge_index.adds/touches/updates/
// removes/compactions" counters and the "purge_index.entries" gauge report
// into the global metrics registry, so --metrics-out shows index upkeep
// next to the scan time it saves.

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "fs/file_meta.hpp"
#include "trace/types.hpp"
#include "util/time.hpp"

namespace adr::fs {

class PurgeIndex {
 public:
  /// One indexed file. Ordered by (atime, id): atime gives the purge
  /// policy's oldest-first order, the id breaks ties deterministically.
  struct Entry {
    util::TimePoint atime = 0;
    PathId id = kInvalidPathId;
    std::uint64_t size_bytes = 0;
  };
  struct EntryOrder {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.atime != b.atime ? a.atime < b.atime : a.id < b.id;
    }
  };

  /// An entry paired with its owner (cross-user queries).
  struct OwnedEntry {
    trace::UserId owner = trace::kInvalidUser;
    Entry entry;
  };

  // -- maintenance (called by the Vfs; see vfs.cpp) -------------------------

  /// Intern `path`, returning a fresh or recycled id. The id stays valid
  /// (and `path(id)` stable) until released by `remove`.
  PathId intern(std::string_view path);

  /// Index a newly created file (meta.path_id must be interned).
  void add(const FileMeta& meta);

  /// Re-key `before`'s entry after an atime bump to `new_atime`.
  void touch(const FileMeta& before, util::TimePoint new_atime);

  /// Re-key after an overwriting create: owner, atime, and size may all
  /// change; the path id is preserved.
  void update(const FileMeta& before, const FileMeta& after);

  /// Drop a removed file's entry and release its path id for reuse. The
  /// interned string's storage is left in place until the id is recycled,
  /// so string_views into `path(id)` stay valid for the rest of the
  /// enclosing Vfs call.
  void remove(const FileMeta& meta);

  void clear();

  // -- queries --------------------------------------------------------------

  /// Interned path for a live id (also valid for a just-released id until
  /// the next intern).
  const std::string& path(PathId id) const { return paths_[id]; }

  /// Indexed file count (equals the Vfs's file count when consistent).
  std::size_t entry_count() const { return entry_count_; }

  /// Owners currently holding at least one file.
  std::size_t owner_count() const { return owner_count_; }

  /// True when `owner` holds at least one live entry.
  bool has_entries(trace::UserId owner) const;

  /// All files of `owner` in ascending (atime, id) order, materialized from
  /// the deferred-merge layout (empty when the owner holds nothing).
  std::vector<Entry> entries(trace::UserId owner) const;

  /// Append `owner`'s files with atime < cutoff (strict) to `out`, in
  /// ascending (atime, id) order — the Eq. 7 victim condition
  /// `now − atime > ε` with cutoff = now − ε. Allocation-free merged scan
  /// over base/inserts/graves; stops at the cutoff without visiting
  /// retained entries.
  void collect_expired(trace::UserId owner, util::TimePoint cutoff,
                       std::vector<Entry>& out) const;

  /// Expired files across every owner, globally sorted ascending
  /// (atime, id) — oldest first (the FLT fast path).
  std::vector<OwnedEntry> collect_expired_all(util::TimePoint cutoff) const;

  /// True if exactly this entry (owner, atime, id, size) is indexed —
  /// the consistency-check primitive (see Vfs::verify_purge_index).
  bool contains(const FileMeta& meta) const;

 private:
  /// Per-owner deferred-merge entry storage. `base` is the sorted bulk;
  /// `inserts` and `graves` are small sorted side buffers. Graves only ever
  /// name base entries (erasing a pending insert removes it directly), so
  /// the live set is base − graves + inserts and live counts are O(1).
  struct OwnerList {
    std::vector<Entry> base;
    std::vector<Entry> inserts;
    std::vector<Entry> graves;

    std::size_t live() const {
      return base.size() + inserts.size() - graves.size();
    }
  };

  OwnerList& owner_list(trace::UserId owner);
  const OwnerList* find_owner(trace::UserId owner) const;
  /// Fold graves and inserts into base (one-pass rebuild).
  static void compact(OwnerList& list);
  /// Buffer cap before a compaction: grows with the base so big owners
  /// amortize, floors at a constant so small owners stay exact-ish.
  static std::size_t pending_cap(const OwnerList& list);
  /// Erase the live entry with `key`'s (atime, id); true when found.
  bool erase_key(OwnerList& list, const Entry& key);

  std::deque<std::string> paths_;  // id -> path; slots recycled via free_ids_
  std::vector<PathId> free_ids_;
  std::vector<OwnerList> by_owner_;  // dense by owner id
  std::size_t entry_count_ = 0;
  std::size_t owner_count_ = 0;
};

}  // namespace adr::fs
