#pragma once
// Compact prefix tree (radix tree) over path components.
//
// The paper uses one "compact prefix tree" structure in three places: as the
// virtual file system index for replay, as the snapshot index, and as the
// purge-exemption reservation list. Here it serves only the reservation list
// (retention::ExemptionList); the Vfs keeps its files in a flat table keyed
// by PathId (DESIGN.md §15.3). Edges are compressed at path-component
// granularity (an edge may span several components, and is split lazily on
// insert), so deep per-user directory chains cost one node, not one node per
// level.
//
// Concurrency: const traversal (find / for_each / contains_prefix_of) is
// safe from many threads as long as no thread mutates; mutation is
// single-threaded.

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "fs/file_meta.hpp"

namespace adr::fs {

/// Split an absolute path into components; collapses repeated '/'.
/// "/scratch/u1//a.dat" -> {"scratch", "u1", "a.dat"}.
std::vector<std::string> split_path(std::string_view path);

/// Canonical form: '/' + components joined by '/'.
std::string join_path(const std::vector<std::string>& components);

class PathTrie {
 public:
  PathTrie();
  ~PathTrie();
  PathTrie(PathTrie&&) noexcept;
  PathTrie& operator=(PathTrie&&) noexcept;
  PathTrie(const PathTrie&) = delete;
  PathTrie& operator=(const PathTrie&) = delete;

  /// Insert or overwrite the file at `path`. Returns true if newly created.
  bool insert(std::string_view path, const FileMeta& meta);

  /// Metadata for an exact file path, or nullptr.
  const FileMeta* find(std::string_view path) const;

  bool contains(std::string_view path) const { return find(path) != nullptr; }

  /// True if some stored path is a component-wise prefix of `path`
  /// (including an exact match) — the exemption-list query: a reserved
  /// directory covers everything beneath it.
  bool contains_prefix_of(std::string_view path) const;

  /// Visit every file in depth-first lexicographic edge order, as
  /// (canonical path, meta).
  void for_each(
      const std::function<void(const std::string&, const FileMeta&)>& fn) const;

  std::size_t file_count() const { return file_count_; }
  bool empty() const { return file_count_ == 0; }

  void clear();

  /// Opaque node type (public so free traversal helpers can name it).
  struct Node;

 private:
  std::unique_ptr<Node> root_;
  std::size_t file_count_ = 0;
};

}  // namespace adr::fs
