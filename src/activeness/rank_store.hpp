#pragma once
// The rank file ("rank store" in the CLI): an evaluation's record table as
// CSV, one row per user and each user once (user, op_has_data, op_zero,
// op_log_phi, oc_has_data, oc_zero, oc_log_phi, last_activity), which
// `activedr classify` audits and `purge --ranks` orders a purge by. Flags
// are `0` or `1`; log Φ is written with max_digits10 digits of long double
// and read back as long double, so a record reloads bit for bit and sorts
// as the evaluation that wrote it (6-decimal files still load).

#include <string>
#include <vector>

#include "activeness/evaluator.hpp"

namespace adr::activeness {

/// Atomic write (tmp + rename + CRC footer) of `users`, in their order.
void save_rank_file(const std::vector<UserActiveness>& users,
                    const std::string& path);

/// Verifies the footer and throws on corruption *after* quarantining the
/// file; throws util::ParseError on a malformed row, a flag other than
/// 0/1, or a user named twice.
std::vector<UserActiveness> load_rank_file(const std::string& path);

/// Outcome of try_load_rank_file.
struct RankFileLoadResult {
  bool ok = false;
  std::vector<UserActiveness> users;  // in file order
  std::string error;                  // why the load failed ("" when ok)
  std::string quarantined_to;         // where the bad file went ("" if none)
};

/// Non-throwing load for callers that can degrade (re-evaluate from traces
/// instead of trusting a damaged file). A corrupt or unparseable file is
/// quarantined to `<path>.corrupt[.N]` and reported in the result, never
/// acted on.
RankFileLoadResult try_load_rank_file(const std::string& path);

}  // namespace adr::activeness
