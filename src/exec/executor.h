#ifndef AGENTFIRST_EXEC_EXECUTOR_H_
#define AGENTFIRST_EXEC_EXECUTOR_H_

#include <cstddef>
#include <cstdint>

#include "common/cancellation.h"
#include "common/limits.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "exec/result_set.h"
#include "obs/trace.h"
#include "plan/logical_plan.h"

namespace agentfirst {

struct ExecOptions {
  /// Scan-level Bernoulli sampling rate in (0, 1]; 1.0 = exact.
  double sample_rate = 1.0;
  /// Seed for the sampler (deterministic given plan + seed).
  uint64_t sample_seed = 42;
  /// Horvitz-Thompson scaling: when scans are sampled, COUNT and SUM
  /// aggregates are scaled by 1/sample_rate (DISTINCT aggregates and
  /// MIN/MAX/AVG are left unscaled). Disable to observe raw sample values.
  bool scale_approximate_aggregates = true;
  /// Intra-query parallelism cap. 1 = serial row-at-a-time. >1 runs the hot
  /// operators (scan, filter, project, hash-join probe) morsel-driven on
  /// `pool`, merging per-morsel buffers in morsel order so results are
  /// byte-identical to serial execution.
  size_t num_threads = 1;
  /// Pool for morsel execution; nullptr = ThreadPool::Default(). Not owned.
  ThreadPool* pool = nullptr;
  /// Unified resource limits (common/limits.h) for this plan execution.
  /// `limits.deadline` is a *relative* wall-clock budget armed when
  /// ExecutePlan starts (so retries re-arm naturally); expiry stops within
  /// one morsel and returns a well-formed partial result with
  /// `truncated = true` and `interrupt = kDeadlineExceeded` — operators
  /// downstream of the trip drain their already-materialized inputs so
  /// partial rows survive to the root. `limits.max_rows` / `max_bytes` are
  /// per-operator output caps (bytes measured per row like
  /// exec_internal::ApproxRowBytes); exceeding one truncates with
  /// `interrupt = kResourceExhausted`. `limits.cost_budget` is an
  /// optimizer-layer concept and is ignored here.
  ResourceLimits limits;
  /// Cooperative cancellation (default: non-cancellable). Unlike a deadline,
  /// cancellation abandons the answer: ExecutePlan returns kCancelled with
  /// no result.
  CancellationToken cancel;
  /// When set, one `op:<kind>` child span is appended under this span per
  /// executed operator (flat, post-order) carrying its output rows,
  /// truncation, and inclusive wall time. Both engines record the same span
  /// names and notes, so the trace does not depend on which engine ran. Not
  /// owned; must outlive the call. One plan execution per span — the
  /// recording is not synchronized at all across plans. nullptr disables
  /// tracing at the cost of one branch per operator.
  obs::TraceSpan* trace = nullptr;
  /// Run batch-convertible sub-plans through the vectorized engine (typed
  /// columnar kernels + per-query arena; see DESIGN.md "Vectorized execution
  /// & memory"). Results are byte-identical to the row path — this is purely
  /// a performance knob, kept toggleable so the parity tests can diff both
  /// paths. Sampled scans (sample_rate < 1) still run on the row path.
  bool vectorized = true;
};

/// Executes a bound logical plan bottom-up, materializing each operator.
/// Never throws; malformed plans produce Status.
Result<ResultSetPtr> ExecutePlan(const PlanNode& plan,
                                 const ExecOptions& options = {});

}  // namespace agentfirst

#endif  // AGENTFIRST_EXEC_EXECUTOR_H_
