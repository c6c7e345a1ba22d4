#ifndef AGENTFIRST_EXEC_RESULT_SET_H_
#define AGENTFIRST_EXEC_RESULT_SET_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "types/schema.h"
#include "types/value.h"

namespace agentfirst {

/// A fully materialized query result. Immutable once returned, so it can be
/// shared between the memory store and callers.
struct ResultSet {
  Schema schema;
  std::vector<Row> rows;
  /// True when any scan in the producing plan was sampled.
  bool approximate = false;
  /// Effective scan sampling rate that produced this result (1.0 = exact).
  double sample_rate = 1.0;
  /// True when execution stopped early — deadline expiry or an output
  /// budget — so `rows` hold whatever had been merged by then: a well-formed
  /// but incomplete answer (the paper's partial-result satisficing). The
  /// memory store never keeps truncated results.
  bool truncated = false;
  /// Why execution stopped early: kDeadlineExceeded or kResourceExhausted
  /// (kOk when not truncated).
  StatusCode interrupt = StatusCode::kOk;

  size_t NumRows() const { return rows.size(); }

  /// Pretty-prints up to `max_rows` rows as an aligned text table.
  std::string ToString(size_t max_rows = 20) const;
};

using ResultSetPtr = std::shared_ptr<const ResultSet>;

}  // namespace agentfirst

#endif  // AGENTFIRST_EXEC_RESULT_SET_H_
