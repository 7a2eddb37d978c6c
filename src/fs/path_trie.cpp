#include "fs/path_trie.hpp"

#include <algorithm>
#include <cassert>
#include <optional>

namespace adr::fs {

std::vector<std::string> split_path(std::string_view path) {
  std::vector<std::string> comps;
  std::size_t i = 0;
  while (i < path.size()) {
    while (i < path.size() && path[i] == '/') ++i;
    std::size_t j = i;
    while (j < path.size() && path[j] != '/') ++j;
    if (j > i) comps.emplace_back(path.substr(i, j - i));
    i = j;
  }
  return comps;
}

std::string join_path(const std::vector<std::string>& components) {
  std::string out;
  for (const auto& c : components) {
    out.push_back('/');
    out += c;
  }
  if (out.empty()) out = "/";
  return out;
}

struct PathTrie::Node {
  std::vector<std::string> edge;                 // components from parent
  std::vector<std::unique_ptr<Node>> children;   // sorted by edge.front()
  std::optional<FileMeta> file;

  /// Index of the child whose first edge component is `c`, or npos.
  std::size_t child_index(std::string_view c) const {
    const auto it = std::lower_bound(
        children.begin(), children.end(), c,
        [](const std::unique_ptr<Node>& n, std::string_view key) {
          return n->edge.front() < key;
        });
    if (it != children.end() && (*it)->edge.front() == c)
      return static_cast<std::size_t>(it - children.begin());
    return static_cast<std::size_t>(-1);
  }

  void adopt(std::unique_ptr<Node> child) {
    const auto it = std::lower_bound(
        children.begin(), children.end(), child->edge.front(),
        [](const std::unique_ptr<Node>& n, const std::string& key) {
          return n->edge.front() < key;
        });
    children.insert(it, std::move(child));
  }
};

PathTrie::PathTrie() : root_(std::make_unique<Node>()) {}
PathTrie::~PathTrie() = default;
PathTrie::PathTrie(PathTrie&&) noexcept = default;
PathTrie& PathTrie::operator=(PathTrie&&) noexcept = default;

bool PathTrie::insert(std::string_view path, const FileMeta& meta) {
  const auto comps = split_path(path);
  Node* node = root_.get();
  std::size_t i = 0;
  for (;;) {
    if (i == comps.size()) {
      const bool is_new = !node->file.has_value();
      node->file = meta;
      if (is_new) ++file_count_;
      return is_new;
    }
    const std::size_t ci = node->child_index(comps[i]);
    if (ci == static_cast<std::size_t>(-1)) {
      auto leaf = std::make_unique<Node>();
      leaf->edge.assign(comps.begin() + static_cast<std::ptrdiff_t>(i),
                        comps.end());
      leaf->file = meta;
      node->adopt(std::move(leaf));
      ++file_count_;
      return true;
    }
    Node* child = node->children[ci].get();
    // Longest common component prefix of child->edge and comps[i..].
    std::size_t k = 0;
    while (k < child->edge.size() && i + k < comps.size() &&
           child->edge[k] == comps[i + k]) {
      ++k;
    }
    assert(k >= 1);
    if (k == child->edge.size()) {
      node = child;
      i += k;
      continue;
    }
    // Split the edge: mid covers the shared prefix, child keeps the tail.
    auto mid = std::make_unique<Node>();
    mid->edge.assign(child->edge.begin(),
                     child->edge.begin() + static_cast<std::ptrdiff_t>(k));
    std::unique_ptr<Node> detached = std::move(node->children[ci]);
    node->children.erase(node->children.begin() +
                         static_cast<std::ptrdiff_t>(ci));
    detached->edge.erase(detached->edge.begin(),
                         detached->edge.begin() + static_cast<std::ptrdiff_t>(k));
    Node* mid_raw = mid.get();
    mid->adopt(std::move(detached));
    node->adopt(std::move(mid));
    node = mid_raw;
    i += k;
  }
}

const FileMeta* PathTrie::find(std::string_view path) const {
  const auto comps = split_path(path);
  const Node* node = root_.get();
  std::size_t i = 0;
  while (i < comps.size()) {
    const std::size_t ci = node->child_index(comps[i]);
    if (ci == static_cast<std::size_t>(-1)) return nullptr;
    const Node* child = node->children[ci].get();
    if (i + child->edge.size() > comps.size()) return nullptr;
    for (std::size_t k = 0; k < child->edge.size(); ++k) {
      if (child->edge[k] != comps[i + k]) return nullptr;
    }
    i += child->edge.size();
    node = child;
  }
  return node->file ? &*node->file : nullptr;
}

bool PathTrie::contains_prefix_of(std::string_view path) const {
  // Walks the path's components in place (no split_path): this runs once
  // per purge candidate when a reservation list is installed.
  std::size_t pos = 0;
  const auto next_component = [path, &pos]() {
    while (pos < path.size() && path[pos] == '/') ++pos;
    const std::size_t begin = pos;
    while (pos < path.size() && path[pos] != '/') ++pos;
    return path.substr(begin, pos - begin);  // empty once the path ends
  };
  const Node* node = root_.get();
  if (node->file) return true;
  for (std::string_view comp = next_component(); !comp.empty();
       comp = next_component()) {
    const std::size_t ci = node->child_index(comp);
    if (ci == static_cast<std::size_t>(-1)) return false;
    const Node* child = node->children[ci].get();
    // child_index matched the edge's first component; an edge may span
    // several, and the path must cover all of them.
    for (std::size_t k = 1; k < child->edge.size(); ++k) {
      if (next_component() != child->edge[k]) return false;
    }
    node = child;
    if (node->file) return true;
  }
  return false;
}

namespace {

void dfs(const PathTrie::Node* node, std::string& path,
         const std::function<void(const std::string&, const FileMeta&)>& fn) {
  if (node->file) fn(path.empty() ? "/" : path, *node->file);
  for (const auto& child : node->children) {
    const std::size_t mark = path.size();
    for (const auto& c : child->edge) {
      path.push_back('/');
      path += c;
    }
    dfs(child.get(), path, fn);
    path.resize(mark);
  }
}

}  // namespace

void PathTrie::for_each(
    const std::function<void(const std::string&, const FileMeta&)>& fn) const {
  std::string path;
  dfs(root_.get(), path, fn);
}

void PathTrie::clear() {
  root_ = std::make_unique<Node>();
  file_count_ = 0;
}

}  // namespace adr::fs
