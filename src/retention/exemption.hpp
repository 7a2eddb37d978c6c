#pragma once
// Purge exemption (§3.4): the administrator-provided reservation list.
// Paths are held in the same compact prefix tree the paper describes, so the
// per-file exemption test during a scan is O(path components). Reserving a
// directory path exempts its whole subtree.
//
// The reservation list is a contract on *paths*: if a user renames a
// reserved file, the reservation silently lapses (the paper treats that as
// the user cancelling it) — exactly what path-keyed matching gives us.

#include <string>
#include <string_view>
#include <vector>

#include "fs/path_trie.hpp"

namespace adr::retention {

class ExemptionList {
 public:
  /// Reserve one file (or directory subtree) path.
  void reserve(std::string_view path);

  /// True if `path` is reserved, either exactly or via a reserved ancestor.
  /// An empty list answers false without looking at the path.
  bool is_exempt(std::string_view path) const;

  std::size_t size() const { return trie_.file_count(); }
  bool empty() const { return trie_.empty(); }

  /// All reserved paths, canonicalized, in lexicographic order.
  std::vector<std::string> reserved_paths() const;

  /// Load one path per line ('#' comments, blank lines ignored).
  static ExemptionList load(const std::string& file_path);
  void save(const std::string& file_path) const;

 private:
  fs::PathTrie trie_;
};

}  // namespace adr::retention
