#include "activeness/rank_store.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "obs/metrics.hpp"
#include "util/csv.hpp"
#include "util/io.hpp"
#include "util/parse.hpp"

namespace adr::activeness {

namespace {

const char* flag(bool value) { return value ? "1" : "0"; }

std::string format_log_phi(long double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*Lg",
                std::numeric_limits<long double>::max_digits10, value);
  return buf;
}

bool parse_flag(const std::string& s, const util::RowContext& ctx,
                const char* column) {
  if (s == "1") return true;
  if (s == "0") return false;
  throw util::ParseError(ctx.describe(column) + ": expected 0 or 1: '" + s +
                         "'");
}

// A full-string strtold. Non-finite values (an overflow among them) are
// refused: a NaN key would break the scan order's strict total order.
long double parse_log_phi(const std::string& s, const util::RowContext& ctx,
                          const char* column) {
  char* tail = nullptr;
  const long double value = std::strtold(s.c_str(), &tail);
  if (s.empty() || tail != s.c_str() + s.size() || !std::isfinite(value)) {
    throw util::ParseError(ctx.describe(column) + ": invalid number: '" + s +
                           "'");
  }
  return value;
}

std::vector<UserActiveness> parse_rank_file(const std::string& content,
                                            const std::string& path) {
  std::istringstream in(content);
  util::CsvReader reader(in);
  if (!reader.read_header())
    throw std::runtime_error("rank file: empty file " + path);
  std::vector<UserActiveness> users;
  std::unordered_set<trace::UserId> seen;
  while (auto row = reader.next()) {
    const util::RowContext ctx{&path, reader.line()};
    if (row->size() != 8) {
      throw util::ParseError("rank file: " + path + ":" +
                             std::to_string(reader.line()) +
                             ": expected 8 columns, got " +
                             std::to_string(row->size()));
    }
    UserActiveness ua;
    ua.user = static_cast<trace::UserId>(util::parse_u32((*row)[0], ctx, "user"));
    if (!seen.insert(ua.user).second) {
      throw util::ParseError(ctx.describe("user") + ": user " +
                             (*row)[0] + " appears twice");
    }
    ua.op.has_data = parse_flag((*row)[1], ctx, "op_has_data");
    ua.op.zero = parse_flag((*row)[2], ctx, "op_zero");
    ua.op.log_phi = parse_log_phi((*row)[3], ctx, "op_log_phi");
    ua.oc.has_data = parse_flag((*row)[4], ctx, "oc_has_data");
    ua.oc.zero = parse_flag((*row)[5], ctx, "oc_zero");
    ua.oc.log_phi = parse_log_phi((*row)[6], ctx, "oc_log_phi");
    ua.last_activity = util::parse_i64((*row)[7], ctx, "last_activity");
    users.push_back(ua);
  }
  return users;
}

}  // namespace

void save_rank_file(const std::vector<UserActiveness>& users,
                    const std::string& path) {
  util::io::AtomicWriter writer(path,
                                {.fsync = util::io::default_fsync()});
  util::CsvWriter w(writer.stream());
  w.write_row({"user", "op_has_data", "op_zero", "op_log_phi", "oc_has_data",
               "oc_zero", "oc_log_phi", "last_activity"});
  for (const auto& ua : users) {
    w.write_row({std::to_string(ua.user), flag(ua.op.has_data),
                 flag(ua.op.zero), format_log_phi(ua.op.log_phi),
                 flag(ua.oc.has_data), flag(ua.oc.zero),
                 format_log_phi(ua.oc.log_phi),
                 std::to_string(ua.last_activity)});
  }
  writer.commit();
}

std::vector<UserActiveness> load_rank_file(const std::string& path) {
  return parse_rank_file(util::io::load_verified(path), path);
}

RankFileLoadResult try_load_rank_file(const std::string& path) {
  RankFileLoadResult result;
  util::io::Artifact artifact;
  try {
    artifact = util::io::read_artifact(path);
  } catch (const std::exception& e) {
    result.error = e.what();  // missing / unreadable: nothing to quarantine
    return result;
  }
  if (artifact.state == util::io::ArtifactState::kCorrupt) {
    result.error = artifact.error;
    result.quarantined_to = util::io::quarantine(path, artifact.error);
    return result;
  }
  try {
    result.users = parse_rank_file(artifact.content, path);
    result.ok = true;
  } catch (const std::exception& e) {
    // CRC-clean but semantically unparseable (legacy damage, hand edits):
    // still refuse to act on it, and move it out of the way.
    result.error = e.what();
    result.quarantined_to = util::io::quarantine(path, e.what());
    static obs::Counter& failures =
        obs::MetricsRegistry::global().counter("rank_store.load_failures");
    failures.add();
  }
  return result;
}

}  // namespace adr::activeness
