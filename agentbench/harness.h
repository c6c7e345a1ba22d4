#ifndef AGENTBENCH_HARNESS_H_
#define AGENTBENCH_HARNESS_H_

// Shared machinery of the repository benchmark: arguments, samples and
// percentiles, registry counter deltas, the benchmark's own span log, the
// correctness gate, process statistics, and the report printer.
//
// Everything here measures the system from outside: it times calls into
// public functions, reads obs::MetricsRegistry::Default() counters, and folds
// the ProbeResponse::trace the system returns. Nothing reaches into a module.

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "core/probe.h"
#include "exec/result_set.h"
#include "obs/metrics.h"

namespace agentbench {

using Clock = std::chrono::steady_clock;

/// Percentiles need this many samples; fewer is reported as missing.
inline constexpr size_t kMinPercentileSamples = 1000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for WAL, pages, and the span log (created if absent).
  std::string work_dir = ".";
  /// Source identity stamped on the result (commit or tree digest).
  std::string commit = "unknown";
  /// Shrinks data sizes and op counts; for the benchmark's own tests.
  bool tiny = false;
  /// Perturbs one reference row before the correctness gate runs; the gate
  /// must trip (the benchmark's self-test of its own checker).
  bool perturb_reference = false;
};

double SecondsSince(Clock::time_point start);
double MillisSince(Clock::time_point start);

/// A list of measured values with the sufficiency rule applied to
/// percentiles.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double Sum() const;
  double Mean() const;
  double Max() const;
  /// Nearest-rank percentile (p in [0, 100]); nullopt when fewer than
  /// `min_samples` values were recorded.
  std::optional<double> Percentile(double p,
                                   size_t min_samples = kMinPercentileSamples) const;

 private:
  std::vector<double> values_;
};

/// Request completions of a timed phase, summarised over consecutive
/// windows of kMinPercentileSamples requests each: the reported rate and
/// percentiles are medians across windows, which keeps a transient stall
/// on a shared machine from moving the whole run's figures. A trailing
/// partial window is dropped; with no full window every figure is missing.
class Timeline {
 public:
  explicit Timeline(Clock::time_point begin) : begin_(begin) {}
  /// One request that completed at `done` after `latency_ms`, worth `units`
  /// toward the rate (probes in a batch, for instance).
  void Add(Clock::time_point done, double latency_ms, double units = 1.0);
  size_t size() const { return latency_ms_.size(); }

  struct Summary {
    std::optional<double> rate;  // units per second
    std::optional<double> p50_ms;
    std::optional<double> p99_ms;
    size_t windows = 0;
  };
  Summary Summarize(size_t window = kMinPercentileSamples) const;

 private:
  Clock::time_point begin_;
  std::vector<Clock::time_point> done_;
  std::vector<double> latency_ms_;
  std::vector<double> units_;
};

/// Registry readings taken at the start and end of a timed phase.
class CounterWindow {
 public:
  /// Takes the "start" reading.
  void Start();
  /// Takes the "end" reading.
  void Stop();
  /// Counter (or histogram sample-count) delta; gauges read their end value.
  double Delta(const std::string& name) const;
  /// Percentile of a histogram over the window, interpolated linearly inside
  /// its power-of-two bucket; nullopt below the sample minimum (0 when the
  /// histogram saw no samples at all: the layer was idle).
  std::optional<double> HistogramPercentile(const std::string& name,
                                            double p) const;
  /// Mean of a histogram's samples over the window (0 when none).
  double HistogramMean(const std::string& name) const;

 private:
  struct Reading {
    std::map<std::string, uint64_t> counts;
    std::map<std::string, int64_t> gauges;
    std::map<std::string, std::vector<uint64_t>> buckets;
    std::map<std::string, uint64_t> sums;
  };
  static Reading Read();
  Reading start_;
  Reading end_;
};

/// The benchmark's own spans: one per call it makes into the system and per
/// replay, kept in memory and written out as JSON lines when the run ends.
/// Disabled (every call a single branch) in untraced runs.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  bool enabled() const { return enabled_; }

  /// Records a finished span of request `request` (no-op when disabled).
  void Record(const std::string& name, uint64_t request, Clock::time_point start,
              Clock::time_point end);
  /// Writes `<path>` as one JSON object per span.
  void WriteTo(const std::string& path) const;

 private:
  struct Span {
    uint64_t request = 0;
    std::string name;
    double start_us = 0.0;
    double dur_us = 0.0;
  };
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Aggregates of the system's own per-probe trace trees.
struct TraceFold {
  double exec_ms = 0.0;  // sum of `exec` spans
  std::map<std::string, double> op_ms;  // inclusive time per `op:<kind>`
  size_t exec_spans = 0;
  void Add(const agentfirst::obs::TraceSpan& root);
};

/// Operator kinds whose `op:<kind>` time is reported.
const std::vector<std::string>& OperatorKinds();

/// Exact answers collected during the timed phase, checked after it against
/// references computed on the unpooled, non-durable shadow system.
struct Verdict {
  size_t compared = 0;
  size_t mismatched = 0;
  std::string first_mismatch;
};
/// Compares `got` against `want` (ResultsEquivalent) and tallies it.
void CheckAnswer(const std::string& what, const agentfirst::ResultSet& got,
                 const agentfirst::ResultSet& want, Verdict* verdict);
/// Returns a copy of `rs` with one value of its first row changed, for the
/// gate's self-test.
agentfirst::ResultSetPtr PerturbedCopy(const agentfirst::ResultSet& rs);

/// True when an answer is complete, exact, and a candidate for comparison.
bool IsExactAnswer(const agentfirst::QueryAnswer& answer);

/// Process statistics from /proc/self.
double PeakRssMb();
/// Bytes this process has caused to be written to storage so far.
double ProcWriteBytes();

/// Metrics of one run plus its verdict, printed as the final JSON line.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// Sets a percentile metric, or records it as missing for `why`.
  void SetOptional(const std::string& name, std::optional<double> value,
                   const std::string& unit,
                   const std::string& why = "fewer than 1000 samples");
  void Note(const std::string& line) { notes_.push_back(line); }

  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;

  /// Prints the stamp, the notes, one line per metric, the missing list, and
  /// the final JSON object (last line of stdout).
  void Print(const Args& args) const;

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  struct MissingMetric {
    std::string unit;
    std::string why;
  };
  std::map<std::string, MissingMetric> missing_;
  std::vector<std::string> notes_;
};


/// Per-workload entry points. Each fills `report` (end-to-end metrics when
/// args.trace is false, per-module metrics when true) and returns false when
/// the run cannot report (setup failed).
bool RunSpeculate(const Args& args, Report* report);
bool RunExplorePaged(const Args& args, Report* report);
bool RunServe(const Args& args, Report* report);

/// A short hex digest of generated inputs (the first ops of a workload's
/// stream), printed so a test can see that the seed changes the inputs.
std::string InputDigest(const std::vector<std::string>& inputs);

/// Median of a small list (setup repetitions).
double Median(std::vector<double> values);

/// Fills the per-module metrics of the probe-path layers (core, memory, opt,
/// exec) from a counter window and the folded traces; shared by the three
/// workloads so each reports them identically.
struct ProbeTally {
  uint64_t probes = 0;
  uint64_t queries = 0;
  uint64_t executed_answers = 0;
  uint64_t approximate_answers = 0;
  double executed_cost = 0.0;
  double call_ms = 0.0;  // benchmark-side time across the probe calls
};
void SetProbePathMetrics(const CounterWindow& window, const TraceFold& fold,
                         const ProbeTally& tally, Report* report);
/// Sets every per-module metric to 0 first (idle layers read 0).
void ZeroPerModuleMetrics(Report* report);
/// Replays ParseSelect + Binder::BindSelect for each query and reports the
/// mean microseconds as plan.parse_bind_us.
void ReportParseBind(
    const std::vector<std::pair<agentfirst::Catalog*, std::string>>& queries,
    SpanLog* spans, Report* report);

/// False (with the reason) for Debug, unoptimized, or sanitizer builds,
/// whose numbers are refused.
bool ReportableBuild(std::string* why);

}  // namespace agentbench

#endif  // AGENTBENCH_HARNESS_H_
