#include "fs/vfs.hpp"

#include <algorithm>
#include <cassert>

#include "fs/path_trie.hpp"
#include "obs/metrics.hpp"

namespace adr::fs {

namespace {

obs::Counter& creates_total() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter("vfs.creates");
  return c;
}

obs::Counter& overwrites_total() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("vfs.overwrites");
  return c;
}

obs::Counter& accesses_total() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("vfs.accesses");
  return c;
}

obs::Counter& misses_total() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter("vfs.misses");
  return c;
}

obs::Counter& removes_total() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter("vfs.removes");
  return c;
}

/// `path` in canonical form: itself when already canonical (the common
/// case, no allocation), else rebuilt into `buf` by the split_path/join_path
/// rules.
std::string_view canonical(std::string_view path, std::string& buf) {
  if (!path.empty() && path.front() == '/' &&
      (path.size() == 1 || path.back() != '/') &&
      path.find("//") == std::string_view::npos) {
    return path;
  }
  buf = join_path(split_path(path));
  return buf;
}

/// Component order: canonical paths compared byte by byte as unsigned
/// chars, with '/' ranked below every other byte — exactly the depth-first
/// order of a prefix tree whose children sort by component ("/a" < "/a/b" <
/// "/a.b" < "/ab").
int component_rank(char c) {
  return c == '/' ? 0 : static_cast<unsigned char>(c) + 1;
}

bool component_less(std::string_view a, std::string_view b) {
  const auto [ia, ib] = std::mismatch(a.begin(), a.end(), b.begin(), b.end());
  if (ia == a.end() || ib == b.end()) return a.size() < b.size();
  return component_rank(*ia) < component_rank(*ib);
}

/// True if canonical `path` lies at or below canonical directory `prefix`.
bool under(std::string_view path, std::string_view prefix) {
  if (prefix == "/") return true;
  return path.substr(0, prefix.size()) == prefix &&
         (path.size() == prefix.size() || path[prefix.size()] == '/');
}

}  // namespace

PathId Vfs::id_of(std::string_view path) const {
  const auto it = ids_.find(path);
  return it == ids_.end() ? kInvalidPathId : it->second;
}

const FileMeta* Vfs::stat(std::string_view path) const {
  std::string buf;
  const PathId id = id_of(canonical(path, buf));
  return id == kInvalidPathId ? nullptr : &files_[id];
}

bool Vfs::create(std::string_view path, const FileMeta& meta) {
  creates_total().add();
  std::string buf;
  path = canonical(path, buf);
  if (const PathId id = id_of(path); id != kInvalidPathId) {
    overwrites_total().add();
    FileMeta& existing = files_[id];
    const FileMeta displaced = existing;
    // The displaced version leaves the scratch tier exactly like a removal
    // does — without routing it through the sink, replayed overwrites would
    // silently drop the old version from the archive tier.
    if (removal_sink_) removal_sink_(purge_index_.path(id), displaced);
    account_remove(displaced);
    existing = meta;
    existing.path_id = id;  // the path keeps its id
    account_add(existing);
    purge_index_.update(displaced, existing);
    return false;
  }
  const PathId id = purge_index_.intern(path);
  if (id >= files_.size()) files_.resize(static_cast<std::size_t>(id) + 1);
  FileMeta& stored = files_[id];
  stored = meta;
  stored.path_id = id;
  ids_.emplace(purge_index_.path(id), id);
  account_add(stored);
  purge_index_.add(stored);
  return true;
}

bool Vfs::access(std::string_view path, util::TimePoint t, trace::UserId) {
  accesses_total().add();
  std::string buf;
  const PathId id = id_of(canonical(path, buf));
  if (id == kInvalidPathId) {
    misses_total().add();
    return false;
  }
  FileMeta& meta = files_[id];
  if (t > meta.atime) {  // atime is monotone; no re-key when unchanged
    purge_index_.touch(meta, t);
    meta.atime = t;
  }
  ++meta.access_count;
  return true;
}

bool Vfs::remove(std::string_view path) {
  std::string buf;
  const auto it = ids_.find(canonical(path, buf));
  if (it == ids_.end()) return false;
  const PathId id = it->second;
  const FileMeta meta = files_[id];
  removes_total().add();
  if (removal_sink_) removal_sink_(purge_index_.path(id), meta);
  account_remove(meta);
  ids_.erase(it);
  files_[id].path_id = kInvalidPathId;
  // Index last: `path` may alias the interned string this releases, and
  // the slot's storage survives until the id is recycled by a later create.
  purge_index_.remove(meta);
  return true;
}

void Vfs::for_each_under(
    std::string_view prefix,
    const std::function<void(const std::string&, const FileMeta&)>& fn) const {
  std::string buf;
  prefix = canonical(prefix, buf);
  std::vector<std::pair<std::string_view, PathId>> order;
  for (PathId id = 0; id < files_.size(); ++id) {
    if (files_[id].path_id == kInvalidPathId) continue;
    const std::string& path = purge_index_.path(id);
    if (under(path, prefix)) order.emplace_back(path, id);
  }
  std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
    return component_less(a.first, b.first);
  });
  for (const auto& [path, id] : order) fn(purge_index_.path(id), files_[id]);
}

bool Vfs::verify_purge_index(std::string* error) const {
  const auto fail = [&](std::string message) {
    if (error) *error = std::move(message);
    return false;
  };
  std::size_t live = 0;
  for (PathId id = 0; id < files_.size(); ++id) {
    const FileMeta& meta = files_[id];
    if (meta.path_id == kInvalidPathId) continue;
    ++live;
    const std::string& path = purge_index_.path(id);
    if (meta.path_id != id) {
      return fail("record " + std::to_string(id) + " carries path id " +
                  std::to_string(meta.path_id) + " (" + path + ")");
    }
    if (!purge_index_.contains(meta)) {
      return fail("index entry missing or stale for " + path + " (owner " +
                  std::to_string(meta.owner) + ", atime " +
                  std::to_string(meta.atime) + ")");
    }
    if (id_of(path) != id) {
      return fail("path id " + std::to_string(id) + " interned as '" + path +
                  "' but that path looks up to id " +
                  std::to_string(id_of(path)));
    }
  }
  if (purge_index_.entry_count() != live || ids_.size() != live) {
    return fail("index holds " + std::to_string(purge_index_.entry_count()) +
                " entries and the lookup " + std::to_string(ids_.size()) +
                " paths, but the table holds " + std::to_string(live) +
                " live files");
  }
  return true;
}

UserUsage Vfs::usage(trace::UserId user) const {
  if (user == trace::kInvalidUser ||
      static_cast<std::size_t>(user) >= usage_.size()) {
    return UserUsage{};
  }
  return usage_[user];
}

void Vfs::import_snapshot(const trace::Snapshot& snapshot) {
  for (const auto& e : snapshot.entries()) {
    FileMeta meta;
    meta.owner = e.owner;
    meta.stripe_count = e.stripe_count;
    meta.size_bytes = e.size_bytes;
    meta.atime = e.atime;
    meta.ctime = e.atime;
    create(e.path, meta);
  }
}

trace::Snapshot Vfs::export_snapshot() const {
  trace::Snapshot snap;
  snap.reserve(file_count());
  for_each([&](const std::string& path, const FileMeta& meta) {
    trace::SnapshotEntry e;
    e.path = path;
    e.owner = meta.owner;
    e.stripe_count = meta.stripe_count;
    e.size_bytes = meta.size_bytes;
    e.atime = meta.atime;
    snap.add(std::move(e));
  });
  return snap;
}

void Vfs::clear() {
  files_.clear();
  ids_.clear();
  purge_index_.clear();
  total_bytes_ = 0;
  capacity_bytes_ = 0;
  usage_.clear();
  users_with_files_ = 0;
}

void Vfs::account_add(const FileMeta& meta) {
  total_bytes_ += meta.size_bytes;
  assert(meta.owner != trace::kInvalidUser);
  if (static_cast<std::size_t>(meta.owner) >= usage_.size()) {
    usage_.resize(static_cast<std::size_t>(meta.owner) + 1);
  }
  auto& u = usage_[meta.owner];
  if (u.files == 0) ++users_with_files_;
  u.bytes += meta.size_bytes;
  u.files += 1;
}

void Vfs::account_remove(const FileMeta& meta) {
  total_bytes_ -= meta.size_bytes;
  if (static_cast<std::size_t>(meta.owner) >= usage_.size()) return;
  auto& u = usage_[meta.owner];
  u.bytes -= meta.size_bytes;
  u.files -= 1;
  // The slot stays (dense table); size()/count() skip empty users, so over a
  // year-long replay churned-out owners cost 16 B each, not a map node.
  if (u.files == 0) {
    u.bytes = 0;
    --users_with_files_;
  }
}

}  // namespace adr::fs
