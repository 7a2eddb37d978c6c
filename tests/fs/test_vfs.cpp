#include "fs/vfs.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "fs/path_trie.hpp"

namespace adr::fs {
namespace {

FileMeta meta(trace::UserId owner, std::uint64_t size,
              util::TimePoint atime = 0) {
  FileMeta m;
  m.owner = owner;
  m.size_bytes = size;
  m.atime = atime;
  m.ctime = atime;
  return m;
}

TEST(Vfs, CreateAccountsTotals) {
  Vfs vfs;
  EXPECT_TRUE(vfs.create("/s/u0/a", meta(0, 100)));
  EXPECT_TRUE(vfs.create("/s/u0/b", meta(0, 50)));
  EXPECT_TRUE(vfs.create("/s/u1/c", meta(1, 25)));
  EXPECT_EQ(vfs.total_bytes(), 175u);
  EXPECT_EQ(vfs.file_count(), 3u);
  EXPECT_EQ(vfs.usage(0).bytes, 150u);
  EXPECT_EQ(vfs.usage(0).files, 2u);
  EXPECT_EQ(vfs.usage(1).bytes, 25u);
  EXPECT_EQ(vfs.usage(9).files, 0u);
}

TEST(Vfs, OverwriteAdjustsAccounting) {
  Vfs vfs;
  vfs.create("/s/u0/a", meta(0, 100));
  EXPECT_FALSE(vfs.create("/s/u0/a", meta(0, 40)));
  EXPECT_EQ(vfs.total_bytes(), 40u);
  EXPECT_EQ(vfs.file_count(), 1u);
  EXPECT_EQ(vfs.usage(0).files, 1u);
}

TEST(Vfs, OverwriteCanChangeOwner) {
  Vfs vfs;
  vfs.create("/s/shared/a", meta(0, 100));
  vfs.create("/s/shared/a", meta(1, 100));
  EXPECT_EQ(vfs.usage(0).files, 0u);
  EXPECT_EQ(vfs.usage(1).files, 1u);
}

TEST(Vfs, AccessBumpsAtimeMonotonically) {
  Vfs vfs;
  vfs.create("/s/u0/a", meta(0, 1, 100));
  EXPECT_TRUE(vfs.access("/s/u0/a", 500));
  EXPECT_EQ(vfs.stat("/s/u0/a")->atime, 500);
  // Late-arriving earlier access must not rewind atime.
  EXPECT_TRUE(vfs.access("/s/u0/a", 300));
  EXPECT_EQ(vfs.stat("/s/u0/a")->atime, 500);
}

TEST(Vfs, AccessMissingIsMiss) {
  Vfs vfs;
  EXPECT_FALSE(vfs.access("/s/u0/gone", 100));
}

TEST(Vfs, RemoveUpdatesAccounting) {
  Vfs vfs;
  vfs.create("/s/u0/a", meta(0, 100));
  vfs.create("/s/u0/b", meta(0, 60));
  EXPECT_TRUE(vfs.remove("/s/u0/a"));
  EXPECT_FALSE(vfs.remove("/s/u0/a"));
  EXPECT_EQ(vfs.total_bytes(), 60u);
  EXPECT_EQ(vfs.usage(0).bytes, 60u);
  EXPECT_EQ(vfs.usage(0).files, 1u);
}

TEST(Vfs, CapacityDefaultsToTotal) {
  Vfs vfs;
  vfs.create("/a/b", meta(0, 500));
  EXPECT_EQ(vfs.capacity_bytes(), 500u);
  vfs.set_capacity_bytes(1000);
  EXPECT_EQ(vfs.capacity_bytes(), 1000u);
}

TEST(Vfs, SnapshotRoundTrip) {
  Vfs vfs;
  vfs.create("/s/u0/p/a.h5", meta(0, 100, 11));
  vfs.create("/s/u1/p/b.h5", meta(1, 200, 22));

  const trace::Snapshot snap = vfs.export_snapshot();
  EXPECT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap.total_bytes(), 300u);

  Vfs restored;
  restored.import_snapshot(snap);
  EXPECT_EQ(restored.total_bytes(), 300u);
  EXPECT_EQ(restored.file_count(), 2u);
  ASSERT_NE(restored.stat("/s/u1/p/b.h5"), nullptr);
  EXPECT_EQ(restored.stat("/s/u1/p/b.h5")->atime, 22);
  EXPECT_EQ(restored.stat("/s/u1/p/b.h5")->owner, 1u);
}

TEST(Vfs, ForEachUnderScopesToUser) {
  Vfs vfs;
  vfs.create("/s/u0/a", meta(0, 1));
  vfs.create("/s/u0/b", meta(0, 1));
  vfs.create("/s/u1/c", meta(1, 1));
  int count = 0;
  vfs.for_each_under("/s/u0", [&](const std::string&, const FileMeta& m) {
    EXPECT_EQ(m.owner, 0u);
    ++count;
  });
  EXPECT_EQ(count, 2);
}

TEST(Vfs, OverwriteRoutesDisplacedVersionThroughRemovalSink) {
  // Regression: an overwriting create() must hand the old version to the
  // removal sink — otherwise the displaced bytes silently vanish instead of
  // reaching the archive tier.
  Vfs vfs;
  std::vector<std::pair<std::string, std::uint64_t>> displaced;
  vfs.set_removal_sink([&](const std::string& path, const FileMeta& m) {
    displaced.emplace_back(path, m.size_bytes);
  });
  vfs.create("/s/u0/a", meta(0, 100));
  EXPECT_TRUE(displaced.empty());  // fresh create displaces nothing
  vfs.create("/s/u0/a", meta(0, 40));
  ASSERT_EQ(displaced.size(), 1u);
  EXPECT_EQ(displaced[0].first, "/s/u0/a");
  EXPECT_EQ(displaced[0].second, 100u);  // old version, not the new one
  vfs.remove("/s/u0/a");
  ASSERT_EQ(displaced.size(), 2u);
  EXPECT_EQ(displaced[1].second, 40u);
}

TEST(Vfs, UsageEntryErasedWhenUserHasNoFilesLeft) {
  // Regression: per-user accounting entries must disappear when the last
  // file goes, so usage_by_user() iteration (final-state aggregation in the
  // emulator) does not see ghost users with zeroed rows.
  Vfs vfs;
  vfs.create("/s/u0/a", meta(0, 10));
  vfs.create("/s/u1/b", meta(1, 20));
  EXPECT_EQ(vfs.usage_by_user().size(), 2u);
  vfs.remove("/s/u0/a");
  EXPECT_EQ(vfs.usage_by_user().count(0), 0u);
  EXPECT_EQ(vfs.usage_by_user().size(), 1u);
  // Owner change on overwrite releases the previous owner's entry too.
  vfs.create("/s/u1/b", meta(2, 20));
  EXPECT_EQ(vfs.usage_by_user().count(1), 0u);
  EXPECT_EQ(vfs.usage(2).files, 1u);
}

TEST(Vfs, ClearResetsEverything) {
  Vfs vfs;
  vfs.create("/s/u0/a", meta(0, 10));
  vfs.set_capacity_bytes(999);
  vfs.clear();
  EXPECT_EQ(vfs.total_bytes(), 0u);
  EXPECT_EQ(vfs.file_count(), 0u);
  EXPECT_EQ(vfs.capacity_bytes(), 0u);
  EXPECT_EQ(vfs.usage(0).files, 0u);
}

TEST(Vfs, UsageViewSkipsEmptySlots) {
  Vfs vfs;
  vfs.create("/s/u0/a", meta(0, 10, 1));
  vfs.create("/s/u5/b", meta(5, 20, 2));
  vfs.create("/s/u5/c", meta(5, 30, 3));

  UserUsageView view = vfs.usage_by_user();
  EXPECT_EQ(view.size(), 2u);
  EXPECT_EQ(view.count(0), 1u);
  EXPECT_EQ(view.count(3), 0u);
  EXPECT_EQ(view.count(5), 1u);
  EXPECT_EQ(view.count(trace::kInvalidUser), 0u);

  std::vector<std::pair<trace::UserId, UserUsage>> seen;
  for (const auto& [user, usage] : view) seen.emplace_back(user, usage);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].first, 0u);
  EXPECT_EQ(seen[0].second.bytes, 10u);
  EXPECT_EQ(seen[1].first, 5u);
  EXPECT_EQ(seen[1].second.files, 2u);

  // Removing the last file empties the slot and shrinks the view.
  vfs.remove("/s/u0/a");
  view = vfs.usage_by_user();
  EXPECT_EQ(view.size(), 1u);
  EXPECT_EQ(view.count(0), 0u);
  EXPECT_TRUE(view.begin() != view.end());
}

TEST(Vfs, PathsAreCanonicalizedAtTheBoundary) {
  // Regression: a non-canonical path used to be interned verbatim while
  // lookups normalized it, so the index, victim lists and snapshot export
  // disagreed about the file's name.
  Vfs vfs;
  std::vector<std::string> sunk;
  vfs.set_removal_sink(
      [&](const std::string& path, const FileMeta&) { sunk.push_back(path); });
  EXPECT_TRUE(vfs.create("/s//u0/a", meta(0, 10, 1)));
  std::string error;
  EXPECT_TRUE(vfs.verify_purge_index(&error)) << error;

  const FileMeta* m = vfs.stat("/s/u0/a");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(vfs.purge_index().path(m->path_id), "/s/u0/a");
  EXPECT_EQ(vfs.stat("s/u0//a/"), m);
  EXPECT_FALSE(vfs.create("/s/u0/a/", meta(0, 20, 2)));  // an overwrite
  EXPECT_EQ(vfs.file_count(), 1u);
  EXPECT_TRUE(vfs.access("//s/u0/a", 5));

  std::vector<std::string> walked;
  vfs.for_each([&](const std::string& p, const FileMeta&) {
    walked.push_back(p);
  });
  EXPECT_EQ(walked, std::vector<std::string>{"/s/u0/a"});
  const trace::Snapshot snap = vfs.export_snapshot();
  ASSERT_EQ(snap.entries().size(), 1u);
  EXPECT_EQ(snap.entries()[0].path, "/s/u0/a");

  EXPECT_TRUE(vfs.remove("/s/u0//a"));
  EXPECT_EQ(sunk, (std::vector<std::string>{"/s/u0/a", "/s/u0/a"}));
  EXPECT_EQ(vfs.file_count(), 0u);
  EXPECT_TRUE(vfs.verify_purge_index(&error)) << error;
}

TEST(Vfs, WalksFollowComponentOrder) {
  // Component order is the depth-first order of a prefix tree: '/' ranks
  // below every byte ("/a/b" before "/a.b") and bytes compare unsigned
  // ("\xC3" after 'b'). Creation order is scrambled on purpose.
  const std::vector<std::string> expected = {"/a", "/a/b", "/a.b", "/ab",
                                             "/a\xC3\xA9"};
  Vfs vfs;
  PathTrie trie;
  for (const std::size_t i : {3u, 0u, 4u, 2u, 1u}) {
    vfs.create(expected[i], meta(0, 1));
    trie.insert(expected[i], meta(0, 1));
  }
  std::vector<std::string> trie_order;
  trie.for_each([&](const std::string& p, const FileMeta&) {
    trie_order.push_back(p);
  });
  EXPECT_EQ(trie_order, expected);

  std::vector<std::string> walked;
  vfs.for_each([&](const std::string& p, const FileMeta&) {
    walked.push_back(p);
  });
  EXPECT_EQ(walked, expected);

  std::vector<std::string> exported;
  const trace::Snapshot snap = vfs.export_snapshot();
  for (const auto& e : snap.entries()) exported.push_back(e.path);
  EXPECT_EQ(exported, expected);

  std::vector<std::string> under_a;
  vfs.for_each_under("/a", [&](const std::string& p, const FileMeta&) {
    under_a.push_back(p);
  });
  EXPECT_EQ(under_a, (std::vector<std::string>{"/a", "/a/b"}));

  int missing = 0;
  vfs.for_each_under("/nope", [&](const std::string&, const FileMeta&) {
    ++missing;
  });
  EXPECT_EQ(missing, 0);
}

TEST(Vfs, MovedVfsStaysUsable) {
  Vfs source;
  for (int i = 0; i < 100; ++i) {
    source.create("/s/u" + std::to_string(i % 7) + "/f" + std::to_string(i),
                  meta(static_cast<trace::UserId>(i % 7), 10,
                       static_cast<util::TimePoint>(i)));
  }
  Vfs moved = std::move(source);
  ASSERT_NE(moved.stat("/s/u3/f10"), nullptr);
  EXPECT_EQ(moved.stat("/s/u3/f10")->owner, 3u);
  EXPECT_TRUE(moved.access("/s/u3/f10", 500));
  EXPECT_TRUE(moved.remove("/s/u0/f0"));
  EXPECT_FALSE(moved.exists("/s/u0/f0"));

  Vfs assigned;
  assigned.create("/old", meta(9, 1));
  assigned = std::move(moved);
  EXPECT_FALSE(assigned.exists("/old"));
  EXPECT_EQ(assigned.file_count(), 99u);
  EXPECT_EQ(assigned.stat("/s/u3/f10")->atime, 500);
  EXPECT_TRUE(assigned.create("/s/u0/f0", meta(0, 10, 1)));  // recycled id
  std::string error;
  EXPECT_TRUE(assigned.verify_purge_index(&error)) << error;
}

}  // namespace
}  // namespace adr::fs
