#pragma once
// Virtual file system: the emulation substrate standing in for Spider II.
//
// A Vfs is a flat file table plus full accounting: total bytes, per-user
// bytes/files, and a nominal capacity (purge targets are expressed as a
// fraction of it). The emulator replays application logs against it; the
// retention policies scan and purge it.
//
// File table (DESIGN.md §15.3): one FileMeta record per PathId, where the id
// is the one PurgeIndex::intern assigns, plus a hash lookup from canonical
// path to id whose keys are views into the interned string — the only copy
// of each path in memory. Paths are canonicalized once at this boundary
// (split_path/join_path rules: repeated '/' collapse, a trailing '/' drops),
// so lookups, victim lists, the removal sink and export_snapshot agree.
// Walks (for_each*, export_snapshot) sort ids into component order — the
// depth-first order of a prefix tree over the same paths. Per-user usage
// lives in a dense vector indexed by the (already dense) 32-bit UserId.

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "fs/purge_index.hpp"
#include "trace/snapshot.hpp"

namespace adr::fs {

/// Per-user usage accounting.
struct UserUsage {
  std::uint64_t bytes = 0;
  std::uint64_t files = 0;
};

/// Map-shaped read-only view over the dense per-user usage table. Iteration
/// yields (UserId, UserUsage) for users currently holding files — the same
/// contract as the unordered_map this replaced — while the storage underneath
/// is a flat vector with O(1) lookup and zero hashing.
class UserUsageView {
 public:
  UserUsageView(const std::vector<UserUsage>& table, std::size_t non_empty)
      : table_(&table), non_empty_(non_empty) {}

  class const_iterator {
   public:
    const_iterator(const std::vector<UserUsage>* table, std::size_t pos)
        : table_(table), pos_(pos) {
      skip_empty();
    }
    std::pair<trace::UserId, UserUsage> operator*() const {
      return {static_cast<trace::UserId>(pos_), (*table_)[pos_]};
    }
    const_iterator& operator++() {
      ++pos_;
      skip_empty();
      return *this;
    }
    bool operator==(const const_iterator& o) const { return pos_ == o.pos_; }
    bool operator!=(const const_iterator& o) const { return pos_ != o.pos_; }

   private:
    void skip_empty() {
      while (pos_ < table_->size() && (*table_)[pos_].files == 0) ++pos_;
    }
    const std::vector<UserUsage>* table_;
    std::size_t pos_;
  };

  const_iterator begin() const { return {table_, 0}; }
  const_iterator end() const { return {table_, table_->size()}; }

  /// Users currently holding at least one file (O(1), maintained by the Vfs).
  std::size_t size() const { return non_empty_; }
  bool empty() const { return non_empty_ == 0; }

  /// 1 when `user` holds files, else 0 (unordered_map::count shape).
  std::size_t count(trace::UserId user) const {
    return user != trace::kInvalidUser &&
                   static_cast<std::size_t>(user) < table_->size() &&
                   (*table_)[user].files != 0
               ? 1
               : 0;
  }

 private:
  const std::vector<UserUsage>* table_;
  std::size_t non_empty_;
};

class Vfs {
 public:
  Vfs() = default;
  // Lookup keys view the interned strings, which a move carries along; a
  // copy would leave them pointing into the source.
  Vfs(Vfs&&) = default;
  Vfs& operator=(Vfs&&) = default;
  Vfs(const Vfs&) = delete;
  Vfs& operator=(const Vfs&) = delete;

  /// Create (or overwrite) a file. Accounting is updated for both the old
  /// and new metadata; overwriting routes the *displaced* version through
  /// the removal sink so the archive tier never silently loses it. Returns
  /// true if the file is new.
  bool create(std::string_view path, const FileMeta& meta);

  /// Record an access at time `t`: bumps atime monotonically. Returns false
  /// (a *file miss*) if the path does not exist. The third argument is
  /// ignored; it stays so existing three-argument callers compile.
  bool access(std::string_view path, util::TimePoint t,
              trace::UserId /*unused*/ = trace::kInvalidUser);

  /// Remove a file; returns false if absent. The removal sink (if any)
  /// observes the file before it disappears. `path` may alias the purge
  /// index's own string for the file.
  bool remove(std::string_view path);

  /// Observer invoked for every file that leaves the tier — removals and
  /// the displaced old version on an overwriting create() — with the
  /// file's canonical path. This is how the emulator routes
  /// purged/displaced files into the archive tier.
  using RemovalSink = std::function<void(const std::string&, const FileMeta&)>;
  void set_removal_sink(RemovalSink sink) { removal_sink_ = std::move(sink); }

  /// Metadata for a file, or nullptr. The pointer stays valid until the
  /// next mutating call (create/access/remove/import/clear).
  const FileMeta* stat(std::string_view path) const;
  bool exists(std::string_view path) const { return stat(path) != nullptr; }

  std::uint64_t total_bytes() const { return total_bytes_; }
  std::size_t file_count() const { return ids_.size(); }

  /// Usage of one user (zeros if unknown).
  UserUsage usage(trace::UserId user) const;
  UserUsageView usage_by_user() const { return {usage_, users_with_files_}; }

  /// Nominal capacity. Defaults to the high-water total after the last
  /// import/create burst unless set explicitly.
  void set_capacity_bytes(std::uint64_t capacity) { capacity_bytes_ = capacity; }
  std::uint64_t capacity_bytes() const {
    return capacity_bytes_ ? capacity_bytes_ : total_bytes_;
  }

  /// Visit every file at or below `prefix` ("" or "/" = everything) in
  /// component order, as (canonical path, meta). A filtered pass over the
  /// whole table: the policies' fast path is purge_index().
  void for_each_under(
      std::string_view prefix,
      const std::function<void(const std::string&, const FileMeta&)>& fn) const;
  void for_each(
      const std::function<void(const std::string&, const FileMeta&)>& fn) const {
    for_each_under("/", fn);
  }

  /// Atime-ordered purge index, maintained incrementally by every
  /// create/access/remove — the policies' fast scan path.
  const PurgeIndex& purge_index() const { return purge_index_; }

  /// Opt-in consistency check, both directions: every live record is
  /// indexed with matching owner/atime/size and its path looks up to its
  /// own id, and the index holds exactly as many entries as there are live
  /// records. Returns true when consistent; otherwise describes the first
  /// mismatch in *error (if non-null). O(files) — meant for tests, audits
  /// (EmulatorConfig::audit_purge_index), and `purge --check-index`.
  bool verify_purge_index(std::string* error = nullptr) const;

  /// Seed from / export to a metadata snapshot (export in component order).
  void import_snapshot(const trace::Snapshot& snapshot);
  trace::Snapshot export_snapshot() const;

  void clear();

 private:
  void account_add(const FileMeta& meta);
  void account_remove(const FileMeta& meta);
  /// Id of the live file at an already-canonical path, or kInvalidPathId.
  PathId id_of(std::string_view path) const;

  std::vector<FileMeta> files_;  // by PathId; path_id == kInvalidPathId: free
  std::unordered_map<std::string_view, PathId> ids_;  // keys view paths
  PurgeIndex purge_index_;
  RemovalSink removal_sink_;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t capacity_bytes_ = 0;
  std::vector<UserUsage> usage_;  // dense by user id
  std::size_t users_with_files_ = 0;
};

}  // namespace adr::fs
