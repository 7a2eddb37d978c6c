#include "fs/path_trie.hpp"

#include <gtest/gtest.h>

#include <map>

#include "util/rng.hpp"

namespace adr::fs {
namespace {

FileMeta meta(std::uint64_t size = 1, util::TimePoint atime = 0) {
  FileMeta m;
  m.size_bytes = size;
  m.atime = atime;
  return m;
}

TEST(SplitPath, Basics) {
  EXPECT_EQ(split_path("/a/b/c"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split_path("a/b"), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(split_path("//x//y/"), (std::vector<std::string>{"x", "y"}));
  EXPECT_TRUE(split_path("/").empty());
  EXPECT_TRUE(split_path("").empty());
}

TEST(JoinPath, Canonical) {
  EXPECT_EQ(join_path({"a", "b"}), "/a/b");
  EXPECT_EQ(join_path({}), "/");
}

TEST(PathTrie, InsertFind) {
  PathTrie t;
  EXPECT_TRUE(t.insert("/scratch/u1/a.dat", meta(10)));
  EXPECT_TRUE(t.insert("/scratch/u1/b.dat", meta(20)));
  EXPECT_EQ(t.file_count(), 2u);
  ASSERT_NE(t.find("/scratch/u1/a.dat"), nullptr);
  EXPECT_EQ(t.find("/scratch/u1/a.dat")->size_bytes, 10u);
  EXPECT_EQ(t.find("/scratch/u1/c.dat"), nullptr);
}

TEST(PathTrie, InsertOverwriteKeepsCount) {
  PathTrie t;
  EXPECT_TRUE(t.insert("/x/y", meta(1)));
  EXPECT_FALSE(t.insert("/x/y", meta(2)));
  EXPECT_EQ(t.file_count(), 1u);
  EXPECT_EQ(t.find("/x/y")->size_bytes, 2u);
}

TEST(PathTrie, DirectoryIsNotAFile) {
  PathTrie t;
  t.insert("/a/b/c.dat", meta());
  EXPECT_EQ(t.find("/a/b"), nullptr);
  EXPECT_EQ(t.find("/a"), nullptr);
  EXPECT_FALSE(t.contains("/a/b"));
}

TEST(PathTrie, InteriorFileAndDescendant) {
  PathTrie t;
  t.insert("/a/b", meta(1));
  t.insert("/a/b/c", meta(2));
  EXPECT_EQ(t.file_count(), 2u);
  EXPECT_EQ(t.find("/a/b")->size_bytes, 1u);
  EXPECT_EQ(t.find("/a/b/c")->size_bytes, 2u);
}

TEST(PathTrie, ContainsPrefixOf) {
  PathTrie t;
  t.insert("/scratch/u1/keep", meta());
  EXPECT_TRUE(t.contains_prefix_of("/scratch/u1/keep"));
  EXPECT_TRUE(t.contains_prefix_of("/scratch/u1/keep/sub/file.dat"));
  EXPECT_FALSE(t.contains_prefix_of("/scratch/u1/keepx"));
  EXPECT_FALSE(t.contains_prefix_of("/scratch/u1"));
  EXPECT_FALSE(t.contains_prefix_of("/scratch/u2/keep"));
}

TEST(PathTrie, ForEachReportsCanonicalPaths) {
  PathTrie t;
  t.insert("//s///u1//a.dat", meta());
  std::string got;
  t.for_each([&](const std::string& p, const FileMeta&) { got = p; });
  EXPECT_EQ(got, "/s/u1/a.dat");
  EXPECT_NE(t.find("/s/u1/a.dat"), nullptr);  // normalized lookup
}

TEST(PathTrie, ClearResets) {
  PathTrie t;
  t.insert("/a/b", meta());
  t.clear();
  EXPECT_EQ(t.file_count(), 0u);
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.find("/a/b"), nullptr);
}

TEST(PathTrie, MoveSemantics) {
  PathTrie t;
  t.insert("/a/b", meta(5));
  PathTrie moved = std::move(t);
  ASSERT_NE(moved.find("/a/b"), nullptr);
  EXPECT_EQ(moved.find("/a/b")->size_bytes, 5u);
}

// Property test: a trie behaves exactly like a map<path, meta> under a
// random insert/find workload.
TEST(PathTrieProperty, MatchesReferenceMap) {
  util::Rng rng(99);
  PathTrie t;
  std::map<std::string, std::uint64_t> ref;
  const char* comps[] = {"u1", "u2", "proj", "run", "data", "f1", "f2", "f3"};

  for (int step = 0; step < 5000; ++step) {
    // Random path of depth 1..5 over a small component alphabet (forces
    // heavy sharing and edge splitting).
    std::string path;
    const int depth = 1 + static_cast<int>(rng.bounded(5));
    for (int d = 0; d < depth; ++d) {
      path += "/";
      path += comps[rng.bounded(std::size(comps))];
    }
    if (rng.bounded(2) == 0) {
      const std::uint64_t size = rng.bounded(1000);
      const bool was_new = ref.emplace(path, size).second;
      if (!was_new) ref[path] = size;
      EXPECT_EQ(t.insert(path, meta(size)), was_new);
    } else {
      const auto it = ref.find(path);
      const FileMeta* m = t.find(path);
      if (it == ref.end()) {
        EXPECT_EQ(m, nullptr) << path;
      } else {
        ASSERT_NE(m, nullptr) << path;
        EXPECT_EQ(m->size_bytes, it->second);
      }
    }
    EXPECT_EQ(t.file_count(), ref.size());
  }

  // Full enumeration agrees with the reference (paths and order).
  std::vector<std::string> trie_paths;
  t.for_each([&](const std::string& p, const FileMeta&) {
    trie_paths.push_back(p);
  });
  EXPECT_EQ(trie_paths.size(), ref.size());
  for (const auto& p : trie_paths) EXPECT_TRUE(ref.count(p)) << p;
}

}  // namespace
}  // namespace adr::fs
