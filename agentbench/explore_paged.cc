// Workload `explore_paged`: one agent stream of unique exploration,
// statistics and validation probes through HandleProbe over a fact table
// twice the size of the buffer pool, with a durable write (multi-row INSERT
// or UPDATE by key) through ExecuteSql after every few probes. Storage
// faults, exec scans and the WAL barrier dominate; memory hits are near
// zero, and the writes bump data versions, so caches and statistics are
// invalidated as they would be under real concurrent writers.

#include <string>
#include <vector>

#include "common/rng.h"
#include "core/system.h"
#include "harness.h"
#include "io/file_util.h"
#include "wal/checkpoint.h"

namespace agentbench {

using agentfirst::AgentFirstSystem;
using agentfirst::Probe;
using agentfirst::ProbePhase;
using agentfirst::ResultSetPtr;
using agentfirst::Rng;
using agentfirst::Row;
using agentfirst::Value;

namespace {

constexpr size_t kFactRows = 4096;
constexpr size_t kTinyFactRows = 3000;
constexpr size_t kUsers = 200;
constexpr size_t kProbesPerWrite = 4;
constexpr size_t kRowsPerInsert = 4;
constexpr int64_t kDays = 365;
constexpr int64_t kMaxAmount = 100000;
/// Low enough that several automatic checkpoints happen in every run.
constexpr uint64_t kCheckpointEveryBytes = 256u << 10;
/// Set-up repetitions per untraced run.
constexpr int kSetups = 15;
/// Ops of the traced run (a fixed count, so its counts repeat exactly):
/// enough for 1000 write samples.
constexpr uint64_t kTracedOps = 5000;
constexpr const char* kKinds[] = {"view", "click", "cart", "purchase", "refund",
                                  "share"};
constexpr const char* kCountries[] = {"Germany", "France", "Brazil", "Japan",
                                      "Canada", "India", "Kenya", "Chile"};
constexpr const char* kTiers[] = {"basic", "premium", "institutional"};

size_t FactRows(const Args& args) { return args.tiny ? kTinyFactRows : kFactRows; }

agentfirst::Schema MakeSchema(
    const std::string& table,
    std::initializer_list<std::pair<const char*, agentfirst::DataType>> cols) {
  agentfirst::Schema s;
  for (const auto& [name, type] : cols) {
    s.AddColumn(agentfirst::ColumnDef(name, type, true, table));
  }
  return s;
}

/// Creates and fills `users` and `events` from the seed.
agentfirst::Status LoadData(AgentFirstSystem* sys, const Args& args) {
  using agentfirst::DataType;
  Rng rng(args.seed);
  auto users = sys->catalog()->CreateTable(
      "users", MakeSchema("users", {{"user_id", DataType::kInt64},
                                    {"country", DataType::kString},
                                    {"tier", DataType::kString}}));
  if (!users.ok()) return users.status();
  std::vector<Row> rows;
  for (size_t i = 0; i < kUsers; ++i) {
    rows.push_back({Value::Int(static_cast<int64_t>(i)),
                    Value::String(kCountries[rng.NextUint(std::size(kCountries))]),
                    Value::String(kTiers[rng.NextUint(std::size(kTiers))])});
  }
  if (auto st = (*users)->AppendRows(rows); !st.ok()) return st;
  auto events = sys->catalog()->CreateTable(
      "events", MakeSchema("events", {{"id", DataType::kInt64},
                                      {"user_id", DataType::kInt64},
                                      {"kind", DataType::kString},
                                      {"amount", DataType::kInt64},
                                      {"day", DataType::kInt64}}));
  if (!events.ok()) return events.status();
  rows.clear();
  for (size_t i = 0; i < FactRows(args); ++i) {
    rows.push_back({Value::Int(static_cast<int64_t>(i)),
                    Value::Int(static_cast<int64_t>(rng.NextZipf(kUsers, 0.7))),
                    Value::String(kKinds[rng.NextUint(std::size(kKinds))]),
                    Value::Int(rng.NextInt(1, kMaxAmount)),
                    Value::Int(rng.NextInt(1, kDays))});
    if (rows.size() == 1024) {
      if (auto st = (*events)->AppendRows(rows); !st.ok()) return st;
      rows.clear();
    }
  }
  return (*events)->AppendRows(rows);
}

/// One operation of the stream: a probe or a durable write.
struct Op {
  bool write = false;
  std::string sql;
  ProbePhase phase = ProbePhase::kUnspecified;
  double user_bytes = 0.0;  // row bytes a write carries
};

/// The op stream is a pure function of (seed, index).
class OpStream {
 public:
  OpStream(uint64_t seed, size_t fact_rows)
      : rng_(seed ^ 0x6a09e667f3bcc908ULL), next_id_(static_cast<int64_t>(fact_rows)) {}

  Op Next() {
    Op op;
    if (++count_ % (kProbesPerWrite + 1) == 0) {
      op.write = true;
      if ((count_ / (kProbesPerWrite + 1)) % 2 == 1) {
        std::string sql = "INSERT INTO events VALUES ";
        for (size_t r = 0; r < kRowsPerInsert; ++r) {
          const char* kind = kKinds[rng_.NextUint(std::size(kKinds))];
          sql += (r ? ", (" : "(") + std::to_string(next_id_++) + ", " +
                 std::to_string(rng_.NextZipf(kUsers, 0.7)) + ", '" + kind + "', " +
                 std::to_string(rng_.NextInt(1, kMaxAmount)) + ", " +
                 std::to_string(rng_.NextInt(1, kDays)) + ")";
          op.user_bytes += 4 * 8 + std::char_traits<char>::length(kind);
        }
        op.sql = sql;
      } else {
        op.sql = "UPDATE events SET amount = " + std::to_string(rng_.NextInt(1, kMaxAmount)) +
                 " WHERE id = " + std::to_string(rng_.NextInt(0, next_id_ - 1));
        op.user_bytes = 8;
      }
      return op;
    }
    int64_t day = rng_.NextInt(1, kDays);
    int64_t amount = rng_.NextInt(1, kMaxAmount);
    switch (rng_.NextUint(5)) {
      case 0:
        op.phase = ProbePhase::kStatExploration;
        op.sql = "SELECT count(*), sum(amount), min(amount), max(amount) FROM events "
                 "WHERE day >= " + std::to_string(day) + " AND day <= " +
                 std::to_string(day + rng_.NextInt(0, 30));
        break;
      case 1:
        op.phase = ProbePhase::kMetadataExploration;
        op.sql = "SELECT kind, count(*) FROM events WHERE amount > " +
                 std::to_string(amount) + " GROUP BY kind";
        break;
      case 2:
        op.phase = ProbePhase::kValidation;
        op.sql = "SELECT count(*), sum(amount) FROM events WHERE user_id = " +
                 std::to_string(rng_.NextZipf(kUsers, 0.7)) + " AND kind = '" +
                 kKinds[rng_.NextUint(std::size(kKinds))] + "' AND amount > " +
                 std::to_string(amount / 2);
        break;
      case 3:
        op.phase = ProbePhase::kStatExploration;
        op.sql = "SELECT u.country, count(*), sum(e.amount) FROM events e JOIN users u "
                 "ON e.user_id = u.user_id WHERE e.day = " + std::to_string(day) +
                 " AND e.amount > " + std::to_string(amount / 4) +
                 " GROUP BY u.country";
        break;
      default:
        op.phase = ProbePhase::kValidation;
        op.sql = "SELECT id, user_id, kind, amount, day FROM events WHERE id = " +
                 std::to_string(rng_.NextInt(0, next_id_ - 1)) + " OR amount = " +
                 std::to_string(amount);
        break;
    }
    return op;
  }

 private:
  Rng rng_;
  int64_t next_id_;
  uint64_t count_ = 0;
};

struct Live {
  std::unique_ptr<AgentFirstSystem> sys;
  std::string wal_dir;
};

/// Durability (group commit, low auto-checkpoint threshold) and paged
/// storage (pool = half the fact table's bytes) are enabled before any data
/// is loaded, as the API requires.
agentfirst::Result<Live> SetUp(const Args& args, const std::string& dir,
                               double fact_bytes) {
  Live live;
  live.sys = std::make_unique<AgentFirstSystem>();
  live.wal_dir = dir + "/wal";
  agentfirst::wal::DurabilityOptions durability;
  durability.data_dir = live.wal_dir;
  durability.fsync = agentfirst::wal::FsyncPolicy::kGroupCommit;
  durability.checkpoint_every_bytes = kCheckpointEveryBytes;
  if (auto st = live.sys->EnableDurability(durability); !st.ok()) return st;
  agentfirst::storage::StorageOptions storage;
  storage.dir = dir + "/pages";
  storage.max_table_bytes = static_cast<uint64_t>(fact_bytes / 2);
  if (auto st = live.sys->EnableStorage(storage); !st.ok()) return st;
  if (auto st = LoadData(live.sys.get(), args); !st.ok()) return st;
  if (auto st = live.sys->DurabilityBarrier(); !st.ok()) return st;
  for (const char* table : {"users", "events"}) {
    auto warm = live.sys->ExecuteSql(std::string("SELECT count(*) FROM ") + table);
    if (!warm.ok()) return warm.status();
  }
  return live;
}

struct Pass {
  explicit Pass(Clock::time_point begin) : probes(begin) {}
  Timeline probes;
  Samples write_ms;
  double elapsed_s = 0.0;
  ProbeTally tally;
  uint64_t writes = 0;
  uint64_t failed = 0;
  uint64_t exact = 0;
  double user_bytes = 0.0;
  double io_bytes = 0.0;
  TraceFold fold;
  double trace_ms = 0.0;  // benchmark-side tracing work inside the pass
  /// The op log for the shadow replay, with each exact answer to check.
  std::vector<std::pair<Op, ResultSetPtr>> log;
  std::vector<std::string> executed;
};

Pass RunLoad(Live* live, const Args& args, uint64_t max_ops, SpanLog* spans,
             CounterWindow* window) {
  OpStream stream(args.seed, FactRows(args));
  if (window != nullptr) window->Start();
  double io_start = ProcWriteBytes();
  Clock::time_point begin = Clock::now();
  Pass pass(begin);
  for (uint64_t i = 0;; ++i) {
    if (max_ops != 0 ? i >= max_ops : SecondsSince(begin) >= args.seconds) break;
    Op op = stream.Next();
    Clock::time_point start = Clock::now();
    if (op.write) {
      auto result = live->sys->ExecuteSql(op.sql);
      Clock::time_point end = Clock::now();
      if (spans->enabled()) {
        Clock::time_point t0 = Clock::now();
        spans->Record("ExecuteSql", i + 1, start, end);
        pass.trace_ms += MillisSince(t0);
      }
      pass.write_ms.Add(std::chrono::duration<double, std::milli>(end - start).count());
      ++pass.writes;
      pass.user_bytes += op.user_bytes;
      if (!result.ok()) ++pass.failed;
      pass.log.emplace_back(std::move(op), nullptr);
      continue;
    }
    Probe probe;
    probe.agent_id = "explorer";
    probe.queries = {op.sql};
    probe.brief.phase = op.phase;
    auto response = live->sys->HandleProbe(probe);
    Clock::time_point end = Clock::now();
    if (spans->enabled()) {
      Clock::time_point t0 = Clock::now();
      spans->Record("HandleProbe", i + 1, start, end);
      if (response.ok()) pass.fold.Add(response->trace);
      pass.trace_ms += MillisSince(t0);
    }
    double ms = std::chrono::duration<double, std::milli>(end - start).count();
    pass.probes.Add(end, ms);
    pass.tally.call_ms += ms;
    ++pass.tally.probes;
    ++pass.tally.queries;
    ResultSetPtr exact;
    if (!response.ok() || response->shed || response->answers.size() != 1) {
      ++pass.failed;
    } else {
      const agentfirst::QueryAnswer& a = response->answers[0];
      pass.tally.executed_cost += response->total_executed_cost;
      if (!a.status.ok() && !a.truncated && !a.skipped) ++pass.failed;
      if (!a.skipped && !a.from_memory && a.result != nullptr) {
        ++pass.tally.executed_answers;
        if (a.approximate) ++pass.tally.approximate_answers;
        if (spans->enabled()) pass.executed.push_back(a.sql);
      }
      if (IsExactAnswer(a)) {
        ++pass.exact;
        exact = a.result;
      }
    }
    pass.log.emplace_back(std::move(op), exact);
  }
  pass.elapsed_s = SecondsSince(begin);
  pass.io_bytes = ProcWriteBytes() - io_start;
  if (window != nullptr) window->Stop();
  return pass;
}

/// Replays the op log on the unpooled, non-durable shadow built from the
/// same seed, comparing every exact answer with the shadow's ExecuteSql
/// result at the same point of the write sequence.
void Verify(const Args& args, const Pass& pass, AgentFirstSystem* shadow,
            Verdict* verdict) {
  bool perturb = args.perturb_reference;
  for (const auto& [op, got] : pass.log) {
    if (!op.write && got == nullptr) continue;
    auto want = shadow->ExecuteSql(op.sql);
    if (!want.ok()) {
      ++verdict->mismatched;
      if (verdict->first_mismatch.empty()) {
        verdict->first_mismatch = op.sql + ": shadow failed: " + want.status().ToString();
      }
      continue;
    }
    if (op.write) continue;
    ResultSetPtr reference = *want;
    if (perturb) {
      reference = PerturbedCopy(*reference);
      perturb = false;
    }
    CheckAnswer(op.sql, *got, *reference, verdict);
  }
}

/// The durability check: the live system's canonical state at the last
/// acknowledged write must equal that of a fresh system recovered from the
/// run's data directory. Returns the recovery time, or an error.
agentfirst::Result<double> RecoverAndCompare(Live* live) {
  auto before = agentfirst::wal::EncodeCanonicalState(*live->sys->catalog(),
                                                      live->sys->memory());
  if (!before.ok()) return before.status();
  if (auto st = live->sys->CloseDurability(); !st.ok()) return st;
  live->sys.reset();
  AgentFirstSystem recovered;
  agentfirst::wal::DurabilityOptions durability;
  durability.data_dir = live->wal_dir;
  Clock::time_point start = Clock::now();
  if (auto st = recovered.EnableDurability(durability); !st.ok()) return st;
  double seconds = SecondsSince(start);
  auto after = agentfirst::wal::EncodeCanonicalState(*recovered.catalog(),
                                                     recovered.memory());
  if (!after.ok()) return after.status();
  if (*after != *before) {
    return agentfirst::Status::Internal(
        "recovered state differs from the live state at the last acknowledged write (" +
        std::to_string(after->size()) + " vs " + std::to_string(before->size()) +
        " bytes)");
  }
  if (auto st = recovered.CloseDurability(); !st.ok()) return st;
  return seconds;
}

/// Times Table::PinSegment over every segment of the fact table, pass after
/// pass until enough faults were seen, separating faults from hits.
void MeasurePins(Live* live, size_t min_faults, Samples* fault_us, Samples* hit_us) {
  auto table = live->sys->catalog()->GetTable("events");
  if (!table.ok()) return;
  agentfirst::obs::Counter* faults =
      agentfirst::obs::MetricsRegistry::Default().GetCounter("af.storage.faults");
  size_t segments = (*table)->NumSegments();
  for (size_t pass = 0; fault_us->size() < min_faults && pass < 1000; ++pass) {
    for (size_t i = 0; i < segments; ++i) {
      // The first pin faults when the pass evicted the segment; pinning it
      // again at once is a hit.
      for (int again = 0; again < 2; ++again) {
        uint64_t before = faults->value();
        Clock::time_point start = Clock::now();
        auto pin = (*table)->PinSegment(i);
        double us = std::chrono::duration<double, std::micro>(Clock::now() - start).count();
        if (!pin.ok()) break;
        (faults->value() > before ? fault_us : hit_us)->Add(us);
      }
    }
  }
}

std::string SetupDir(const Args& args, const std::string& name) {
  return args.work_dir + "/explore_paged/" + name;
}

}  // namespace

bool RunExplorePaged(const Args& args, Report* report) {
  {
    OpStream stream(args.seed, FactRows(args));
    std::vector<std::string> first;
    for (int i = 0; i < 64; ++i) first.push_back(stream.Next().sql);
    report->Note("inputs " + InputDigest(first));
  }
  // The shadow: unpooled and non-durable. Loaded first, it also measures the
  // fact table's bytes, which size the pool.
  AgentFirstSystem shadow;
  if (auto st = LoadData(&shadow, args); !st.ok()) {
    std::fprintf(stderr, "afbench: %s\n", st.ToString().c_str());
    return false;
  }
  double fact_bytes =
      static_cast<double>(shadow.catalog()->GetTable("events").value()->TotalBytes());
  auto set_up = [&](const std::string& name) -> agentfirst::Result<Live> {
    return SetUp(args, SetupDir(args, name), fact_bytes);
  };

  Live live;
  std::vector<double> setups;
  uint64_t max_ops = 0;
  if (!args.trace) {
    // Set up several times; the median is setup_s and the last one is
    // measured.
    for (int k = 0; k < kSetups; ++k) {
      Clock::time_point start = Clock::now();
      auto made = set_up("setup" + std::to_string(k));
      if (!made.ok()) {
        std::fprintf(stderr, "afbench: setup: %s\n", made.status().ToString().c_str());
        return false;
      }
      setups.push_back(SecondsSince(start));
      live = std::move(*made);
    }
  } else {
    // Traced run: a fixed number of ops, so counts repeat exactly for a seed.
    max_ops = args.tiny ? 90 : kTracedOps;
    auto made = set_up("traced");
    if (!made.ok()) return false;
    live = std::move(*made);
  }

  SpanLog spans(args.trace);
  CounterWindow window;
  Pass pass = RunLoad(&live, args, max_ops, &spans, &window);
  Samples fault_us, hit_us;
  if (args.trace) MeasurePins(&live, args.tiny ? 50 : kMinPercentileSamples, &fault_us, &hit_us);
  Verdict verdict;
  Verify(args, pass, &shadow, &verdict);
  auto recovery = RecoverAndCompare(&live);

  uint64_t wrong = verdict.mismatched;
  report->attempted = pass.tally.queries + pass.writes;
  report->failed = pass.failed + wrong;
  report->correct = wrong == 0 && recovery.ok();
  if (wrong != 0) report->Note("MISMATCH " + verdict.first_mismatch);
  if (!recovery.ok()) report->Note("RECOVERY FAILED " + recovery.status().ToString());
  report->Note("probes " + std::to_string(pass.tally.probes) + ", writes " +
               std::to_string(pass.writes) + ", exact answers checked " +
               std::to_string(verdict.compared));

  if (!args.trace) {
    report->Set("setup_s", Median(setups), "s");
    Timeline::Summary probes = pass.probes.Summarize();
    report->Note("probe windows " + std::to_string(probes.windows));
    report->SetOptional("probes_per_s", probes.rate, "1/s");
    report->SetOptional("p50_ms", probes.p50_ms, "ms");
    report->Set("exact_frac",
                static_cast<double>(pass.exact - std::min(pass.exact, wrong)) /
                    static_cast<double>(pass.tally.queries),
                "fraction");
    report->Set("peak_rss_mb", PeakRssMb(), "MB");
    return true;
  }

  ZeroPerModuleMetrics(report);
  SetProbePathMetrics(window, pass.fold, pass.tally, report);
  report->SetOptional("p99_ms", pass.probes.Summarize().p99_ms, "ms");
  std::vector<std::pair<agentfirst::Catalog*, std::string>> replay;
  for (const std::string& sql : pass.executed) replay.emplace_back(shadow.catalog(), sql);
  ReportParseBind(replay, &spans, report);
  double probes = static_cast<double>(pass.tally.probes);
  double ops = probes + static_cast<double>(pass.writes);
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  report->Set("failed_frac", ratio(static_cast<double>(report->failed), ops), "fraction");
  report->SetOptional("write_p50_ms", pass.write_ms.Percentile(50), "ms");
  report->SetOptional("write_p99_ms", pass.write_ms.Percentile(99), "ms");
  if (recovery.ok()) report->Set("recovery_s", *recovery, "s");
  double faults = window.Delta("af.storage.faults");
  double pins = window.Delta("af.storage.pins");
  report->Set("storage.faults_per_probe", ratio(faults, probes), "count");
  report->Set("storage.hit_frac", pins > 0 ? 1.0 - faults / pins : 0.0, "fraction");
  report->Set("storage.evictions_per_probe", ratio(window.Delta("af.storage.evictions"), probes),
              "count");
  report->Set("storage.write_backs", window.Delta("af.storage.write_backs"), "count");
  size_t need = args.tiny ? 50 : kMinPercentileSamples;
  report->SetOptional("storage.fault_p50_us", fault_us.Percentile(50, need), "us");
  report->SetOptional("storage.fault_p99_us", fault_us.Percentile(99, need), "us");
  report->Note("pin pass: " + std::to_string(fault_us.size()) + " faults, " +
               std::to_string(hit_us.size()) + " hits, hit mean " +
               std::to_string(hit_us.Mean()) + " us");
  report->Set("wal.fsyncs_per_op", ratio(window.Delta("af.wal.fsyncs"), ops), "count");
  report->Set("wal.records_per_probe", ratio(window.Delta("af.wal.records"), probes), "count");
  report->Set("wal.group_size",
              ratio(window.Delta("af.wal.records"), window.Delta("af.wal.group_commits")),
              "count");
  report->Set("wal.checkpoints", window.Delta("af.wal.checkpoints"), "count");
  report->Set("wal.bytes_per_user_byte", ratio(window.Delta("af.wal.bytes"), pass.user_bytes),
              "count");
  report->Set("io.write_bytes_per_user_byte", ratio(pass.io_bytes, pass.user_bytes), "count");
  report->Set("bench.trace_overhead_frac", pass.trace_ms / (pass.elapsed_s * 1000.0),
              "fraction");
  spans.WriteTo(args.work_dir + "/spans.jsonl");
  return true;
}

}  // namespace agentbench
