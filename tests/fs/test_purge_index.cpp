#include "fs/purge_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "fs/vfs.hpp"
#include "util/rng.hpp"

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

// -- PurgeIndex unit tests ---------------------------------------------------

FileMeta indexed(PurgeIndex& index, const std::string& path,
                 trace::UserId owner, std::uint64_t size,
                 util::TimePoint atime) {
  FileMeta m = meta(owner, size, atime);
  m.path_id = index.intern(path);
  index.add(m);
  return m;
}

TEST(PurgeIndex, EntriesOrderedByAtimeThenId) {
  PurgeIndex index;
  indexed(index, "/s/u0/b", 0, 1, 300);
  indexed(index, "/s/u0/a", 0, 1, 100);
  const FileMeta tie1 = indexed(index, "/s/u0/c", 0, 1, 200);
  const FileMeta tie2 = indexed(index, "/s/u0/d", 0, 1, 200);

  const auto set = index.entries(0);
  ASSERT_EQ(set.size(), 4u);
  std::vector<util::TimePoint> atimes;
  for (const auto& e : set) atimes.push_back(e.atime);
  EXPECT_EQ(atimes, (std::vector<util::TimePoint>{100, 200, 200, 300}));
  // Equal atimes break ties by ascending path id (deterministic order).
  EXPECT_EQ(set[1].id, std::min(tie1.path_id, tie2.path_id));
}

TEST(PurgeIndex, CollectExpiredIsStrictPrefix) {
  PurgeIndex index;
  indexed(index, "/s/u0/a", 0, 1, 100);
  indexed(index, "/s/u0/b", 0, 1, 200);
  indexed(index, "/s/u0/c", 0, 1, 300);

  std::vector<PurgeIndex::Entry> out;
  index.collect_expired(0, 200, out);  // strict: atime < 200
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].atime, 100);
  EXPECT_EQ(index.path(out[0].id), "/s/u0/a");

  out.clear();
  index.collect_expired(7, 1000, out);  // unknown owner
  EXPECT_TRUE(out.empty());
}

TEST(PurgeIndex, CollectExpiredAllGloballySorted) {
  PurgeIndex index;
  indexed(index, "/s/u1/x", 1, 1, 250);
  indexed(index, "/s/u0/y", 0, 1, 150);
  indexed(index, "/s/u2/z", 2, 1, 50);

  const auto all = index.collect_expired_all(300);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].owner, 2u);
  EXPECT_EQ(all[1].owner, 0u);
  EXPECT_EQ(all[2].owner, 1u);
  EXPECT_TRUE(std::is_sorted(all.begin(), all.end(),
                             [](const auto& a, const auto& b) {
                               return a.entry.atime < b.entry.atime;
                             }));
}

TEST(PurgeIndex, TouchRekeysEntry) {
  PurgeIndex index;
  const FileMeta a = indexed(index, "/s/u0/a", 0, 1, 100);
  indexed(index, "/s/u0/b", 0, 1, 200);

  index.touch(a, 500);  // /a moves from front to back
  const auto set = index.entries(0);
  ASSERT_EQ(set.size(), 2u);
  EXPECT_EQ(set.front().atime, 200);
  EXPECT_EQ(set.back().atime, 500);
  EXPECT_EQ(set.back().id, a.path_id);
}

TEST(PurgeIndex, UpdateMovesEntryAcrossOwners) {
  PurgeIndex index;
  const FileMeta before = indexed(index, "/s/shared/f", 0, 10, 100);
  FileMeta after = before;
  after.owner = 1;
  after.size_bytes = 20;
  after.atime = 400;
  index.update(before, after);

  EXPECT_FALSE(index.has_entries(0));  // old owner emptied out
  EXPECT_TRUE(index.entries(0).empty());
  const auto set = index.entries(1);
  ASSERT_EQ(set.size(), 1u);
  EXPECT_EQ(set.front().size_bytes, 20u);
  EXPECT_EQ(set.front().atime, 400);
  EXPECT_TRUE(index.contains(after));
  EXPECT_FALSE(index.contains(before));
}

TEST(PurgeIndex, RemoveRecyclesIds) {
  PurgeIndex index;
  const FileMeta a = indexed(index, "/s/u0/a", 0, 1, 100);
  index.remove(a);
  EXPECT_EQ(index.entry_count(), 0u);
  // The released id must be handed back to the next intern.
  const PathId recycled = index.intern("/s/u0/b");
  EXPECT_EQ(recycled, a.path_id);
  EXPECT_EQ(index.path(recycled), "/s/u0/b");
}

TEST(PurgeIndex, ContainsDetectsMismatches) {
  PurgeIndex index;
  const FileMeta a = indexed(index, "/s/u0/a", 0, 10, 100);
  EXPECT_TRUE(index.contains(a));

  FileMeta wrong = a;
  wrong.size_bytes = 11;
  EXPECT_FALSE(index.contains(wrong));
  wrong = a;
  wrong.atime = 101;
  EXPECT_FALSE(index.contains(wrong));
  wrong = a;
  wrong.owner = 1;
  EXPECT_FALSE(index.contains(wrong));
  wrong = a;
  wrong.path_id = kInvalidPathId;
  EXPECT_FALSE(index.contains(wrong));
}

// Drive enough churn through one owner to cross the deferred-merge buffer
// caps many times, checking every query shape against a std::set reference.
TEST(PurgeIndex, RandomizedChurnMatchesSetReference) {
  struct RefOrder {
    bool operator()(const PurgeIndex::Entry& a,
                    const PurgeIndex::Entry& b) const {
      return PurgeIndex::EntryOrder{}(a, b);
    }
  };
  util::Rng rng(20260809);
  PurgeIndex index;
  std::set<PurgeIndex::Entry, RefOrder> ref[3];
  std::vector<FileMeta> live;
  std::set<PathId> freed;
  std::size_t recycled = 0;

  for (int step = 0; step < 6000; ++step) {
    const int op = static_cast<int>(rng.uniform_int(0, 9));
    if (live.empty() || op < 5) {  // add
      const auto owner = static_cast<trace::UserId>(rng.uniform_int(0, 2));
      FileMeta m = meta(owner, static_cast<std::uint64_t>(
                                   rng.uniform_int(1, 1000)),
                        rng.uniform_int(0, 1'000'000));
      const std::string path = "/s/f" + std::to_string(step);
      m.path_id = index.intern(path);
      // A recycled id names the new path, never the one it held before.
      recycled += freed.erase(m.path_id);
      ASSERT_EQ(index.path(m.path_id), path);
      index.add(m);
      ref[owner].insert({m.atime, m.path_id, m.size_bytes});
      live.push_back(m);
    } else if (op < 7) {  // touch
      const std::size_t pick =
          static_cast<std::size_t>(rng.uniform_int(0, 1'000'000)) %
          live.size();
      FileMeta& m = live[pick];
      const util::TimePoint t = rng.uniform_int(0, 1'000'000);
      index.touch(m, t);
      ref[m.owner].erase({m.atime, m.path_id, 0});
      m.atime = t;
      ref[m.owner].insert({m.atime, m.path_id, m.size_bytes});
    } else {  // remove
      const std::size_t pick =
          static_cast<std::size_t>(rng.uniform_int(0, 1'000'000)) %
          live.size();
      const FileMeta m = live[pick];
      index.remove(m);
      ref[m.owner].erase({m.atime, m.path_id, 0});
      freed.insert(m.path_id);
      live[pick] = live.back();
      live.pop_back();
    }

    if (step % 251 != 0) continue;
    std::size_t total = 0;
    for (trace::UserId owner = 0; owner < 3; ++owner) {
      const std::vector<PurgeIndex::Entry> expect(ref[owner].begin(),
                                                  ref[owner].end());
      const auto got = index.entries(owner);
      ASSERT_EQ(got.size(), expect.size()) << "step " << step;
      for (std::size_t k = 0; k < got.size(); ++k) {
        EXPECT_EQ(got[k].atime, expect[k].atime);
        EXPECT_EQ(got[k].id, expect[k].id);
        EXPECT_EQ(got[k].size_bytes, expect[k].size_bytes);
      }
      EXPECT_EQ(index.has_entries(owner), !expect.empty());
      std::vector<PurgeIndex::Entry> expired;
      index.collect_expired(owner, 500'000, expired);
      std::size_t want = 0;
      while (want < expect.size() && expect[want].atime < 500'000) ++want;
      EXPECT_EQ(expired.size(), want) << "step " << step;
      total += expect.size();
    }
    EXPECT_EQ(index.entry_count(), total);
    EXPECT_EQ(index.owner_count(),
              static_cast<std::size_t>(!ref[0].empty()) +
                  static_cast<std::size_t>(!ref[1].empty()) +
                  static_cast<std::size_t>(!ref[2].empty()));
  }
  EXPECT_GT(recycled, 100u);
}

// -- Vfs maintenance integration --------------------------------------------

TEST(VfsPurgeIndex, CreateAccessRemoveKeepIndexConsistent) {
  Vfs vfs;
  vfs.create("/s/u0/a", meta(0, 100, 10));
  vfs.create("/s/u0/b", meta(0, 50, 20));
  vfs.create("/s/u1/c", meta(1, 25, 30));
  EXPECT_EQ(vfs.purge_index().entry_count(), 3u);
  EXPECT_TRUE(vfs.verify_purge_index());

  vfs.access("/s/u0/a", 500);
  EXPECT_TRUE(vfs.verify_purge_index());
  const auto set = vfs.purge_index().entries(0);
  ASSERT_FALSE(set.empty());
  EXPECT_EQ(set.back().atime, 500);

  vfs.remove("/s/u0/b");
  EXPECT_EQ(vfs.purge_index().entry_count(), 2u);
  EXPECT_TRUE(vfs.verify_purge_index());

  vfs.clear();
  EXPECT_EQ(vfs.purge_index().entry_count(), 0u);
  EXPECT_TRUE(vfs.verify_purge_index());
}

TEST(VfsPurgeIndex, OverwritePreservesIdAndReindexes) {
  Vfs vfs;
  // Overwrites must route the displaced version through the removal sink
  // while the index keeps exactly one entry under the same interned id.
  std::vector<std::string> displaced;
  vfs.set_removal_sink([&](const std::string& path, const FileMeta&) {
    displaced.push_back(path);
  });
  vfs.create("/s/shared/f", meta(0, 100, 10));
  const PathId original_id = vfs.stat("/s/shared/f")->path_id;
  vfs.create("/s/shared/f", meta(1, 40, 99));  // owner + size + atime change

  EXPECT_EQ(displaced, std::vector<std::string>{"/s/shared/f"});
  EXPECT_EQ(vfs.stat("/s/shared/f")->path_id, original_id);
  EXPECT_EQ(vfs.purge_index().entry_count(), 1u);
  EXPECT_FALSE(vfs.purge_index().has_entries(0));
  EXPECT_TRUE(vfs.purge_index().has_entries(1));
  EXPECT_TRUE(vfs.verify_purge_index());
}

TEST(VfsPurgeIndex, RemoveViaAliasedIndexPathIsSafe) {
  Vfs vfs;
  vfs.create("/s/u0/a", meta(0, 100, 10));
  // Policies pass vfs.remove() a reference into the index's own interned
  // storage; the id release must not invalidate it mid-call.
  const std::string& interned =
      vfs.purge_index().path(vfs.stat("/s/u0/a")->path_id);
  EXPECT_TRUE(vfs.remove(interned));
  EXPECT_FALSE(vfs.exists("/s/u0/a"));
  EXPECT_TRUE(vfs.verify_purge_index());
}

TEST(VfsPurgeIndex, ImportSnapshotIndexesEverything) {
  Vfs vfs;
  vfs.create("/s/u0/a", meta(0, 100, 10));
  vfs.create("/s/u1/b", meta(1, 50, 20));
  const trace::Snapshot snap = vfs.export_snapshot();

  Vfs fresh;
  fresh.import_snapshot(snap);
  EXPECT_EQ(fresh.purge_index().entry_count(), 2u);
  EXPECT_TRUE(fresh.verify_purge_index());
}

// -- Randomized property: the index always mirrors the file table ------------

TEST(VfsPurgeIndex, RandomizedOpsStayConsistent) {
  util::Rng rng(20260807);
  Vfs vfs;
  vfs.set_removal_sink([](const std::string&, const FileMeta&) {});
  std::vector<std::string> paths;
  for (int i = 0; i < 64; ++i) {
    paths.push_back("/s/u" + std::to_string(i % 8) + "/f" + std::to_string(i));
  }
  std::map<std::string, FileMeta> ref;  // path -> owner/size/atime

  for (int step = 0; step < 4000; ++step) {
    const std::string& path =
        paths[static_cast<std::size_t>(rng.uniform_int(0, 63))];
    const auto op = rng.uniform_int(0, 3);
    const auto t = rng.uniform_int(0, 1'000'000);
    if (op == 0 || op == 1) {
      // create or overwrite (owner may differ from the path's usual one)
      const auto owner = static_cast<trace::UserId>(rng.uniform_int(0, 9));
      const FileMeta m =
          meta(owner, static_cast<std::uint64_t>(rng.uniform_int(1, 1000)), t);
      vfs.create(path, m);
      ref[path] = m;
    } else if (op == 2) {
      const auto it = ref.find(path);
      EXPECT_EQ(vfs.access(path, t), it != ref.end());
      if (it != ref.end()) it->second.atime = std::max(it->second.atime, t);
    } else {
      EXPECT_EQ(vfs.remove(path), ref.erase(path) > 0);
    }
    if (step % 257 == 0) {
      std::string error;
      ASSERT_TRUE(vfs.verify_purge_index(&error)) << "step " << step << ": "
                                                  << error;
    }
    // Removes free ids that later creates recycle under other paths: every
    // path must still look up its own record, and its id its own path.
    for (const std::string& p : paths) {
      const FileMeta* got = vfs.stat(p);
      const auto it = ref.find(p);
      ASSERT_EQ(got != nullptr, it != ref.end()) << "step " << step << " " << p;
      if (got == nullptr) continue;
      EXPECT_EQ(vfs.purge_index().path(got->path_id), p);
      EXPECT_EQ(got->owner, it->second.owner);
      EXPECT_EQ(got->size_bytes, it->second.size_bytes);
      EXPECT_EQ(got->atime, it->second.atime);
    }
  }
  std::string error;
  EXPECT_TRUE(vfs.verify_purge_index(&error)) << error;

  // Cross-check a range query against a brute-force walk.
  constexpr util::TimePoint kCutoff = 500'000;
  for (trace::UserId owner = 0; owner < 10; ++owner) {
    std::vector<std::string> walked;
    vfs.for_each([&](const std::string& path, const FileMeta& m) {
      if (m.owner == owner && m.atime < kCutoff) walked.push_back(path);
    });
    std::vector<PurgeIndex::Entry> collected;
    vfs.purge_index().collect_expired(owner, kCutoff, collected);
    std::vector<std::string> from_index;
    for (const auto& e : collected) {
      from_index.push_back(vfs.purge_index().path(e.id));
    }
    std::sort(walked.begin(), walked.end());
    std::sort(from_index.begin(), from_index.end());
    EXPECT_EQ(from_index, walked) << "owner " << owner;
  }
}

}  // namespace
}  // namespace adr::fs
