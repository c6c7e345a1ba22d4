#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <sstream>
#include <thread>

#include "common/hash.h"
#include "io/file_util.h"
#include "obs/trace.h"
#include "plan/binder.h"
#include "sql/parser.h"
#include "workload/minibird.h"

namespace agentbench {

using agentfirst::obs::Histogram;
using agentfirst::obs::MetricsRegistry;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

std::string InputDigest(const std::vector<std::string>& inputs) {
  uint64_t h = 0;
  for (const std::string& s : inputs) h = agentfirst::HashCombine(h, agentfirst::HashString(s));
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// ---------------------------------------------------------------------------
// Samples
// ---------------------------------------------------------------------------

double Samples::Sum() const {
  double s = 0.0;
  for (double v : values_) s += v;
  return s;
}

double Samples::Mean() const {
  return values_.empty() ? 0.0 : Sum() / static_cast<double>(values_.size());
}

double Samples::Max() const {
  return values_.empty() ? 0.0 : *std::max_element(values_.begin(), values_.end());
}

std::optional<double> Samples::Percentile(double p, size_t min_samples) const {
  if (values_.size() < min_samples || values_.empty()) return std::nullopt;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

// ---------------------------------------------------------------------------
// Timeline
// ---------------------------------------------------------------------------

void Timeline::Add(Clock::time_point done, double latency_ms, double units) {
  done_.push_back(done);
  latency_ms_.push_back(latency_ms);
  units_.push_back(units);
}

Timeline::Summary Timeline::Summarize(size_t window) const {
  Summary out;
  std::vector<double> rates, p50s, p99s;
  Clock::time_point start = begin_;
  for (size_t first = 0; first + window <= latency_ms_.size(); first += window) {
    Samples lat;
    double units = 0.0;
    for (size_t i = first; i < first + window; ++i) {
      lat.Add(latency_ms_[i]);
      units += units_[i];
    }
    Clock::time_point end = done_[first + window - 1];
    double secs = std::chrono::duration<double>(end - start).count();
    start = end;
    if (secs > 0) rates.push_back(units / secs);
    p50s.push_back(*lat.Percentile(50, window));
    p99s.push_back(*lat.Percentile(99, window));
  }
  out.windows = p50s.size();
  if (out.windows == 0) return out;
  if (!rates.empty()) out.rate = Median(rates);
  out.p50_ms = Median(p50s);
  out.p99_ms = Median(p99s);
  return out;
}

// ---------------------------------------------------------------------------
// Counter window
// ---------------------------------------------------------------------------

CounterWindow::Reading CounterWindow::Read() {
  Reading r;
  MetricsRegistry& reg = MetricsRegistry::Default();
  for (const MetricsRegistry::Sample& s : reg.Snapshot()) {
    switch (s.kind) {
      case MetricsRegistry::Kind::kCounter:
        r.counts[s.name] = s.count;
        break;
      case MetricsRegistry::Kind::kGauge:
        r.gauges[s.name] = s.gauge;
        break;
      case MetricsRegistry::Kind::kHistogram: {
        r.counts[s.name] = s.count;
        r.sums[s.name] = s.sum;
        Histogram* h = reg.GetHistogram(s.name);
        std::vector<uint64_t>& b = r.buckets[s.name];
        b.resize(Histogram::kNumBuckets);
        for (size_t i = 0; i < Histogram::kNumBuckets; ++i) b[i] = h->bucket(i);
        break;
      }
    }
  }
  return r;
}

void CounterWindow::Start() { start_ = Read(); }
void CounterWindow::Stop() { end_ = Read(); }

double CounterWindow::Delta(const std::string& name) const {
  if (auto g = end_.gauges.find(name); g != end_.gauges.end()) {
    return static_cast<double>(g->second);
  }
  auto e = end_.counts.find(name);
  if (e == end_.counts.end()) return 0.0;
  auto s = start_.counts.find(name);
  uint64_t before = s == start_.counts.end() ? 0 : s->second;
  return static_cast<double>(e->second - before);
}

double CounterWindow::HistogramMean(const std::string& name) const {
  auto e = end_.sums.find(name);
  if (e == end_.sums.end()) return 0.0;
  auto s = start_.sums.find(name);
  double sum = static_cast<double>(e->second - (s == start_.sums.end() ? 0 : s->second));
  double count = Delta(name);
  return count > 0 ? sum / count : 0.0;
}

std::optional<double> CounterWindow::HistogramPercentile(const std::string& name,
                                                         double p) const {
  auto e = end_.buckets.find(name);
  if (e == end_.buckets.end()) return 0.0;
  std::vector<uint64_t> delta = e->second;
  if (auto s = start_.buckets.find(name); s != start_.buckets.end()) {
    for (size_t i = 0; i < delta.size(); ++i) delta[i] -= s->second[i];
  }
  uint64_t total = 0;
  for (uint64_t c : delta) total += c;
  if (total == 0) return 0.0;
  if (total < kMinPercentileSamples) return std::nullopt;
  double target = p / 100.0 * static_cast<double>(total);
  double seen = 0.0;
  for (size_t i = 0; i < delta.size(); ++i) {
    if (delta[i] == 0) continue;
    if (seen + static_cast<double>(delta[i]) >= target) {
      double lo = i == 0 ? 0.0 : static_cast<double>(Histogram::BucketUpperBound(i - 1)) + 1.0;
      double hi = static_cast<double>(Histogram::BucketUpperBound(i));
      double frac = (target - seen) / static_cast<double>(delta[i]);
      return lo + frac * (hi - lo);
    }
    seen += static_cast<double>(delta[i]);
  }
  return static_cast<double>(Histogram::BucketUpperBound(delta.size() - 1));
}

// ---------------------------------------------------------------------------
// Span log
// ---------------------------------------------------------------------------

void SpanLog::Record(const std::string& name, uint64_t request,
                     Clock::time_point start, Clock::time_point end) {
  if (!enabled_) return;
  Span s;
  s.request = request;
  s.name = name;
  s.start_us = std::chrono::duration<double, std::micro>(start - origin_).count();
  s.dur_us = std::chrono::duration<double, std::micro>(end - start).count();
  spans_.push_back(std::move(s));
}

void SpanLog::WriteTo(const std::string& path) const {
  if (!enabled_) return;
  std::string out;
  char buf[256];
  for (const Span& s : spans_) {
    std::snprintf(buf, sizeof(buf),
                  "{\"request\":%llu,\"name\":\"%s\",\"start_us\":%.3f,"
                  "\"dur_us\":%.3f}\n",
                  static_cast<unsigned long long>(s.request), s.name.c_str(),
                  s.start_us, s.dur_us);
    out += buf;
  }
  agentfirst::Status st = agentfirst::io::WriteFileAtomic(path, out);
  if (!st.ok()) std::fprintf(stderr, "afbench: span log: %s\n", st.ToString().c_str());
}

// ---------------------------------------------------------------------------
// Trace folding
// ---------------------------------------------------------------------------

const std::vector<std::string>& OperatorKinds() {
  static const std::vector<std::string> kinds = {
      "Scan", "Filter", "Project", "HashJoin", "NestedLoopJoin",
      "Aggregate", "Sort", "Limit", "Union"};
  return kinds;
}

void TraceFold::Add(const agentfirst::obs::TraceSpan& root) {
  if (root.name == "exec") {
    if (root.duration_ms > 0) exec_ms += root.duration_ms;
    ++exec_spans;
  } else if (root.name.rfind("op:", 0) == 0 && root.duration_ms > 0) {
    op_ms[root.name.substr(3)] += root.duration_ms;
  }
  for (const auto& child : root.children) Add(*child);
}

// ---------------------------------------------------------------------------
// Correctness gate
// ---------------------------------------------------------------------------

bool IsExactAnswer(const agentfirst::QueryAnswer& answer) {
  return answer.status.ok() && answer.result != nullptr && !answer.skipped &&
         !answer.approximate && !answer.truncated && !answer.result->approximate &&
         !answer.result->truncated;
}

void CheckAnswer(const std::string& what, const agentfirst::ResultSet& got,
                 const agentfirst::ResultSet& want, Verdict* verdict) {
  ++verdict->compared;
  if (agentfirst::ResultsEquivalent(got, want)) return;
  if (verdict->mismatched++ == 0) {
    verdict->first_mismatch = what + "\n  got:  " + got.ToString(3) +
                              "\n  want: " + want.ToString(3);
  }
}

agentfirst::ResultSetPtr PerturbedCopy(const agentfirst::ResultSet& rs) {
  auto copy = std::make_shared<agentfirst::ResultSet>(rs);
  if (copy->rows.empty()) {
    copy->rows.push_back(agentfirst::Row(copy->schema.NumColumns(),
                                         agentfirst::Value::Int(1)));
  } else if (!copy->rows[0].empty()) {
    agentfirst::Value& v = copy->rows[0][0];
    v = v.type() == agentfirst::DataType::kInt64
            ? agentfirst::Value::Int(v.int_value() + 1)
            : agentfirst::Value::String("perturbed:" + v.ToString());
  }
  return copy;
}

// ---------------------------------------------------------------------------
// Process statistics
// ---------------------------------------------------------------------------

namespace {

double ProcField(const std::string& path, const std::string& key) {
  auto text = agentfirst::io::ReadFileToString(path);
  if (!text.ok()) return 0.0;
  std::istringstream in(*text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      return std::strtod(line.c_str() + key.size(), nullptr);
    }
  }
  return 0.0;
}

}  // namespace

double PeakRssMb() { return ProcField("/proc/self/status", "VmHWM:") / 1024.0; }

double ProcWriteBytes() { return ProcField("/proc/self/io", "write_bytes:"); }

// ---------------------------------------------------------------------------
// Metric names and the report
// ---------------------------------------------------------------------------

namespace {

/// The per-module metrics every traced run prints.
const std::vector<std::string>& PerModuleMetricNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n = {
        "p99_ms", "failed_frac", "write_p50_ms", "write_p99_ms", "recovery_s",
        "capacity_probes_per_s",
        "core.non_exec_ms", "core.executed_frac", "core.skipped_frac",
        "core.retries", "core.sheds", "core.truncated", "core.degraded",
        "core.admission_queued_frac", "core.admission_shed",
        "core.admission_wait_ms",
        "memory.hit_frac",
        "plan.parse_bind_us",
        "opt.mqo_distinct_frac", "opt.cache_hit_frac", "opt.cache_evictions",
        "opt.approx_frac", "opt.cost_per_probe",
        "exec.ms_per_query"};
    for (const std::string& kind : OperatorKinds()) n.push_back("exec.op_ms." + kind);
    for (const char* m :
         {"exec.vec_plan_frac", "exec.fallback_nodes_per_plan",
          "exec.morsels_per_plan", "exec.arena_bytes_per_plan",
          "exec.plan_us_p50", "exec.plan_us_p99", "exec.pool_tasks",
          "exec.pool_steals",
          "storage.faults_per_probe", "storage.hit_frac",
          "storage.evictions_per_probe", "storage.write_backs",
          "storage.fault_p50_us", "storage.fault_p99_us",
          "wal.fsyncs_per_op", "wal.records_per_probe", "wal.group_size",
          "wal.checkpoints", "wal.bytes_per_user_byte",
          "io.write_bytes_per_user_byte",
          "net.server_p50_ms", "net.server_p99_ms", "net.transport_p50_ms",
          "net.encode_us", "net.decode_us", "net.bytes_per_probe",
          "net.polls_per_probe", "net.wakeups_per_probe",
          "net.backpressure_stalls",
          "gen.late_p99_ms", "gen.late_max_ms",
          "bench.trace_overhead_frac"}) {
      n.push_back(m);
    }
    return n;
  }();
  return names;
}

std::string UnitOf(const std::string& name) {
  auto ends = [&](const char* suffix) {
    std::string s(suffix);
    return name.size() >= s.size() &&
           name.compare(name.size() - s.size(), s.size(), s) == 0;
  };
  if (ends("_frac")) return "fraction";
  if (ends("_ms") || name.rfind("exec.op_ms.", 0) == 0) return "ms";
  if (ends("_us")) return "us";
  if (ends("_per_s")) return "1/s";
  if (ends("_s")) return "s";
  if (ends("_mb")) return "MB";
  return "count";
}

}  // namespace

void ZeroPerModuleMetrics(Report* report) {
  for (const std::string& name : PerModuleMetricNames()) {
    report->Set(name, 0.0, UnitOf(name));
  }
}

void Report::Set(const std::string& name, double value, const std::string& unit) {
  metrics_[name] = Metric{value, unit};
  missing_.erase(name);
}

void Report::SetOptional(const std::string& name, std::optional<double> value,
                         const std::string& unit, const std::string& why) {
  if (value.has_value()) {
    Set(name, *value, unit);
  } else {
    metrics_.erase(name);
    missing_[name] = MissingMetric{unit, why};
  }
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

bool SanitizedBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

}  // namespace

bool ReportableBuild(std::string* why) {
  std::string type = AFBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo") {
    *why = "build type '" + type + "' is not an optimized build";
    return false;
  }
#ifndef __OPTIMIZE__
  *why = "compiled without optimization";
  return false;
#endif
  if (SanitizedBuild()) {
    *why = "sanitizer build";
    return false;
  }
  return true;
}

void Report::Print(const Args& args) const {
  char date[32] = "";
  std::time_t now = std::time(nullptr);
  std::tm utc{};
  if (gmtime_r(&now, &utc) != nullptr) {
    std::strftime(date, sizeof(date), "%Y-%m-%dT%H:%M:%SZ", &utc);
  }
  std::printf("# stamp {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
              "\"trace\": %d, \"nproc\": %u, \"commit\": %s, \"build_type\": %s, "
              "\"compiler\": %s, \"date\": %s}\n",
              JsonString(args.workload).c_str(),
              static_cast<unsigned long long>(args.seed),
              JsonNumber(args.seconds).c_str(), args.trace ? 1 : 0,
              std::thread::hardware_concurrency(), JsonString(args.commit).c_str(),
              JsonString(AFBENCH_BUILD_TYPE).c_str(),
              JsonString(AFBENCH_COMPILER).c_str(),
              JsonString(date).c_str());
  for (const std::string& n : notes_) std::printf("# %s\n", n.c_str());
  for (const auto& [name, m] : metrics_) {
    std::printf("%-34s %14.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& [name, m] : missing_) {
    std::printf("%-34s %14s %s (%s)\n", name.c_str(), "missing", m.unit.c_str(),
                m.why.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    if (!first) json += ", ";
    first = false;
    json += JsonString(name) + ": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": " + JsonString(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Probe-path layer metrics shared by the workloads
// ---------------------------------------------------------------------------

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

void SetProbePathMetrics(const CounterWindow& w, const TraceFold& fold,
                         const ProbeTally& t, Report* r) {
  double probes = static_cast<double>(t.probes);
  double queries = static_cast<double>(t.queries);
  r->Set("core.non_exec_ms", Ratio(t.call_ms - fold.exec_ms, probes), "ms");
  r->Set("core.executed_frac", Ratio(w.Delta("af.probe.queries_executed"), queries),
         "fraction");
  r->Set("core.skipped_frac", Ratio(w.Delta("af.probe.queries_skipped"), queries),
         "fraction");
  r->Set("core.retries", w.Delta("af.probe.retries"), "count");
  r->Set("core.sheds", w.Delta("af.probe.sheds"), "count");
  r->Set("core.truncated", w.Delta("af.probe.truncated"), "count");
  r->Set("core.degraded", w.Delta("af.probe.degraded"), "count");
  r->Set("memory.hit_frac", Ratio(w.Delta("af.probe.queries_from_memory"), queries),
         "fraction");
  r->Set("opt.mqo_distinct_frac",
         Ratio(w.Delta("af.mqo.operators_distinct"), w.Delta("af.mqo.operators_total")),
         "fraction");
  double hits = w.Delta("af.exec.cache.hits");
  r->Set("opt.cache_hit_frac", Ratio(hits, hits + w.Delta("af.exec.cache.misses")),
         "fraction");
  r->Set("opt.cache_evictions", w.Delta("af.exec.cache.evictions"), "count");
  r->Set("opt.approx_frac",
         Ratio(static_cast<double>(t.approximate_answers),
               static_cast<double>(t.executed_answers)),
         "fraction");
  r->Set("opt.cost_per_probe", Ratio(t.executed_cost, probes), "count");
  r->Set("exec.ms_per_query",
         Ratio(fold.exec_ms, static_cast<double>(fold.exec_spans)), "ms");
  for (const std::string& kind : OperatorKinds()) {
    auto it = fold.op_ms.find(kind);
    r->Set("exec.op_ms." + kind, it == fold.op_ms.end() ? 0.0 : it->second, "ms");
  }
  double plans = w.Delta("af.exec.plans");
  r->Set("exec.vec_plan_frac", Ratio(w.Delta("af.exec.vec.plans"), plans), "fraction");
  r->Set("exec.fallback_nodes_per_plan", Ratio(w.Delta("af.exec.vec.fallback_nodes"), plans),
         "count");
  r->Set("exec.morsels_per_plan", Ratio(w.Delta("af.exec.morsels"), plans), "count");
  r->Set("exec.arena_bytes_per_plan", Ratio(w.Delta("af.exec.arena.bytes"), plans),
         "count");
  r->SetOptional("exec.plan_us_p50", w.HistogramPercentile("af.exec.plan_us", 50), "us");
  r->SetOptional("exec.plan_us_p99", w.HistogramPercentile("af.exec.plan_us", 99), "us");
  r->Set("exec.pool_tasks", w.Delta("af.pool.tasks_submitted"), "count");
  r->Set("exec.pool_steals", w.Delta("af.pool.steals"), "count");
}

void ReportParseBind(
    const std::vector<std::pair<agentfirst::Catalog*, std::string>>& queries,
    SpanLog* spans, Report* report) {
  Samples us;
  for (size_t i = 0; i < queries.size(); ++i) {
    Clock::time_point start = Clock::now();
    auto stmt = agentfirst::ParseSelect(queries[i].second);
    if (!stmt.ok()) continue;
    agentfirst::Binder binder(queries[i].first);
    auto plan = binder.BindSelect(**stmt);
    Clock::time_point end = Clock::now();
    if (!plan.ok()) continue;
    spans->Record("replay.parse_bind", i + 1, start, end);
    us.Add(std::chrono::duration<double, std::micro>(end - start).count());
  }
  report->Set("plan.parse_bind_us", us.Mean(), "us");
}

}  // namespace agentbench
