// Failure injection: every trace loader must reject malformed input with a
// clear error instead of silently mis-parsing an operator's export.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>

#include "activeness/rank_store.hpp"
#include "trace/app_log.hpp"
#include "trace/job_log.hpp"
#include "trace/publication_log.hpp"
#include "trace/snapshot.hpp"
#include "trace/user_registry.hpp"

namespace adr {
namespace {

class MalformedInput : public ::testing::Test {
 protected:
  std::string path_ = ::testing::TempDir() + "/adr_malformed_" +
                      std::to_string(::getpid()) + ".csv";
  void write(const std::string& content) {
    std::ofstream out(path_);
    out << content;
  }
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(MalformedInput, JobLogWrongColumnCount) {
  write("job_id,user,submit_time,duration_s,cores\n1,2,3\n");
  EXPECT_THROW(trace::JobLog::load_csv(path_), std::runtime_error);
}

TEST_F(MalformedInput, JobLogNonNumeric) {
  write("job_id,user,submit_time,duration_s,cores\n1,2,not-a-time,4,5\n");
  EXPECT_THROW(trace::JobLog::load_csv(path_), std::exception);
}

TEST_F(MalformedInput, JobLogEmptyFile) {
  write("");
  EXPECT_THROW(trace::JobLog::load_csv(path_), std::runtime_error);
}

TEST_F(MalformedInput, PublicationLogWrongColumnCount) {
  write("pub_id,published,citations,authors\n1,2\n");
  EXPECT_THROW(trace::PublicationLog::load_csv(path_), std::runtime_error);
}

TEST_F(MalformedInput, PublicationLogBadAuthorList) {
  write("pub_id,published,citations,authors\n1,2,3,abc;def\n");
  EXPECT_THROW(trace::PublicationLog::load_csv(path_), std::exception);
}

TEST_F(MalformedInput, AppLogWrongColumnCount) {
  write("user,timestamp,op,path,size,stripes\n1,2,access\n");
  EXPECT_THROW(trace::AppLog::load_csv(path_), std::runtime_error);
}

TEST_F(MalformedInput, SnapshotWrongColumnCount) {
  write("path,owner,stripes,size,atime\n/a,1\n");
  EXPECT_THROW(trace::Snapshot::load_csv(path_), std::runtime_error);
}

TEST_F(MalformedInput, SnapshotNonNumericSize) {
  write("path,owner,stripes,size,atime\n/a,1,1,huge,5\n");
  EXPECT_THROW(trace::Snapshot::load_csv(path_), std::exception);
}

TEST_F(MalformedInput, UserRegistryNonDenseIds) {
  write("user,name\n0,alice\n5,bob\n");
  EXPECT_THROW(trace::UserRegistry::load_csv(path_), std::runtime_error);
}

TEST_F(MalformedInput, UserRegistryWrongColumnCount) {
  write("user,name\n0\n");
  EXPECT_THROW(trace::UserRegistry::load_csv(path_), std::runtime_error);
}

TEST_F(MalformedInput, RankStoreWrongColumnCount) {
  write("user,op_has_data,op_zero,op_log_phi,oc_has_data,oc_zero,oc_log_phi,"
        "last_activity\n0,1,0\n");
  EXPECT_THROW(activeness::load_rank_file(path_), std::runtime_error);
}

TEST_F(MalformedInput, EveryLoaderRejectsMissingFile) {
  const std::string missing = "/nonexistent/never/there.csv";
  EXPECT_THROW(trace::JobLog::load_csv(missing), std::runtime_error);
  EXPECT_THROW(trace::PublicationLog::load_csv(missing), std::runtime_error);
  EXPECT_THROW(trace::AppLog::load_csv(missing), std::runtime_error);
  EXPECT_THROW(trace::Snapshot::load_csv(missing), std::runtime_error);
  EXPECT_THROW(trace::UserRegistry::load_csv(missing), std::runtime_error);
  EXPECT_THROW(activeness::load_rank_file(missing), std::runtime_error);
}

TEST_F(MalformedInput, StrictErrorsCarryFileLineAndColumn) {
  write("job_id,user,submit_time,duration_s,cores\n1,2,3,4,5\n9,8,bad,6,5\n");
  try {
    trace::JobLog::load_csv(path_);
    FAIL() << "expected ParseError";
  } catch (const util::ParseError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(path_), std::string::npos) << msg;
    EXPECT_NE(msg.find(":3"), std::string::npos) << msg;  // physical line
    EXPECT_NE(msg.find("submit_time"), std::string::npos) << msg;
  }
}

// ---- permissive mode: quarantine instead of throw --------------------------

class PermissiveInput : public MalformedInput {
 protected:
  util::LoadStats stats_;
  util::ParseOptions opts_{util::ParsePolicy::kPermissive, "", &stats_};
  std::string sidecar_ = path_ + ".quarantine";
  void TearDown() override {
    std::remove(sidecar_.c_str());
    MalformedInput::TearDown();
  }
};

TEST_F(PermissiveInput, MalformedRowsGoToSidecar) {
  write("job_id,user,submit_time,duration_s,cores\n"
        "1,2,100,4,5\n"
        "2,2,bogus,4,5\n"
        "3,2,300,4,5\n");
  const auto jobs = trace::JobLog::load_csv(path_, opts_);
  EXPECT_EQ(jobs.size(), 2u);
  EXPECT_EQ(stats_.rows_ok, 2u);
  EXPECT_EQ(stats_.malformed, 1u);
  EXPECT_EQ(stats_.quarantined(), 1u);
  EXPECT_EQ(stats_.quarantine_path, sidecar_);

  std::ifstream sidecar(sidecar_);
  ASSERT_TRUE(sidecar.good());
  std::string header, row;
  std::getline(sidecar, header);
  std::getline(sidecar, row);
  EXPECT_NE(header.find("reason"), std::string::npos);
  EXPECT_NE(row.find("malformed"), std::string::npos);
  EXPECT_NE(row.find("bogus"), std::string::npos);  // raw row preserved
}

TEST_F(PermissiveInput, OutOfOrderAndDuplicateRowsQuarantined) {
  write("job_id,user,submit_time,duration_s,cores\n"
        "1,2,100,4,5\n"
        "1,2,200,4,5\n"   // duplicate job id
        "3,2,50,4,5\n"    // submit_time regressed
        "4,2,300,4,5\n");
  const auto jobs = trace::JobLog::load_csv(path_, opts_);
  EXPECT_EQ(jobs.size(), 2u);
  EXPECT_EQ(stats_.duplicates, 1u);
  EXPECT_EQ(stats_.out_of_order, 1u);
  EXPECT_EQ(stats_.malformed, 0u);
}

TEST_F(PermissiveInput, CleanFileWritesNoSidecar) {
  write("job_id,user,submit_time,duration_s,cores\n1,2,100,4,5\n");
  const auto jobs = trace::JobLog::load_csv(path_, opts_);
  EXPECT_EQ(jobs.size(), 1u);
  EXPECT_EQ(stats_.quarantined(), 0u);
  std::ifstream sidecar(sidecar_);
  EXPECT_FALSE(sidecar.good());  // lazily created only on first bad row
}

TEST_F(PermissiveInput, SnapshotDuplicatePathQuarantined) {
  write("path,owner,stripes,size,atime\n"
        "/a/f1,1,1,10,5\n"
        "/a/f1,1,1,20,6\n"
        "/a/f2,1,1,30,7\n");
  const auto snap = trace::Snapshot::load_csv(path_, opts_);
  EXPECT_EQ(snap.size(), 2u);
  EXPECT_EQ(stats_.duplicates, 1u);
}

TEST_F(PermissiveInput, UserRegistrySkipsBadRowsKeepsDensity) {
  write("user,name\n0,alice\n1,\n1,bob\n");
  const auto reg = trace::UserRegistry::load_csv(path_, opts_);
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_EQ(reg.name(1), "bob");
  EXPECT_GE(stats_.quarantined(), 1u);
}

}  // namespace
}  // namespace adr
