// Workload `speculate`: the paper's Fig. 2 traffic. One closed-loop driver
// thread; each turn is one HandleProbeBatch call for one MiniBird task,
// holding K full solution attempts plus one exploration probe (schema and
// statistics queries with a semantic-search phrase). Most of the work is
// shared, so the memory store, the shared sub-plan cache and the optimizer's
// serial path carry the load; net, wal and storage stay idle.

#include <map>
#include <set>

#include "agents/attempts.h"
#include "harness.h"
#include "obs/trace.h"
#include "workload/minibird.h"

namespace agentbench {

using agentfirst::MiniBirdDatabase;
using agentfirst::Probe;
using agentfirst::ProbePhase;
using agentfirst::ProbeResponse;
using agentfirst::QueryAnswer;
using agentfirst::ResultSetPtr;
using agentfirst::TaskSpec;

namespace {

constexpr size_t kAttemptsPerTurn = 8;     // K
constexpr double kAttemptSkill = 0.5;      // share of attempts that are gold
constexpr size_t kFactRows = 20000;        // rows per MiniBird fact table
constexpr size_t kTinyFactRows = 1000;
/// Turns of the traced run: a fixed count, so its counts repeat exactly.
constexpr uint64_t kTracedTurns = 1500;
/// Set-ups per untraced run; setup_s is their median.
constexpr size_t kSetups = 5;

struct World {
  std::vector<MiniBirdDatabase> dbs;
  struct TaskRef {
    size_t db;
    const TaskSpec* task;
  };
  std::vector<TaskRef> tasks;
};

World BuildWorld(const Args& args) {
  agentfirst::MiniBirdOptions options;
  options.seed = args.seed;
  options.rows_per_fact_table = args.tiny ? kTinyFactRows : kFactRows;
  World world;
  world.dbs = agentfirst::GenerateMiniBird(options);
  for (size_t d = 0; d < world.dbs.size(); ++d) {
    for (const TaskSpec& t : world.dbs[d].tasks) world.tasks.push_back({d, &t});
  }
  return world;
}

/// Warm-up of lazy initialisation that agents do not pay per probe: touches
/// every table once through the plain SQL path (no memory store, no probe
/// cache), so the memory store and result cache still start cold.
void WarmUp(World* world) {
  for (MiniBirdDatabase& db : world->dbs) {
    for (const std::string& table : db.system->catalog()->ListTables()) {
      (void)db.system->ExecuteSql("SELECT count(*) FROM " + table);  // warm-up only
    }
  }
}

uint64_t Mix(uint64_t a, uint64_t b) {
  return agentfirst::obs::MixSpanId(a, b);
}

/// The turn's batch: K attempts in the solution-formulation phase plus one
/// exploration probe.
std::vector<Probe> MakeTurn(const World& world, const Args& args, uint64_t turn) {
  const World::TaskRef& ref = world.tasks[turn % world.tasks.size()];
  const TaskSpec& task = *ref.task;
  std::vector<Probe> batch;
  std::vector<std::string> attempts = agentfirst::GenerateAttempts(
      task, kAttemptsPerTurn, kAttemptSkill, Mix(args.seed, turn));
  for (size_t k = 0; k < attempts.size(); ++k) {
    Probe p;
    p.agent_id = "field-agent-" + std::to_string(k);
    p.queries = {attempts[k]};
    p.brief.text = "attempting: " + task.question;
    p.brief.phase = ProbePhase::kSolutionFormulation;
    batch.push_back(std::move(p));
  }
  const std::string& column = task.relevant_columns[turn % task.relevant_columns.size()];
  size_t dot = column.find('.');
  std::string table = column.substr(0, dot);
  std::string col = column.substr(dot + 1);
  Probe explore;
  explore.agent_id = "explorer";
  explore.queries = {
      "SELECT column_name, data_type FROM information_schema.columns WHERE "
      "table_name = '" + table + "'",
      "SELECT count(*), count(DISTINCT " + col + "), min(" + col + "), max(" +
          col + ") FROM " + table};
  explore.brief.text = "exploring which columns answer: " + task.question;
  explore.brief.phase = ProbePhase::kStatExploration;
  explore.semantic_search_phrase = task.question;
  batch.push_back(std::move(explore));
  return batch;
}

/// What one pass over the load recorded.
struct Pass {
  explicit Pass(Clock::time_point begin) : turns(begin) {}
  Timeline turns;
  double elapsed_s = 0.0;
  ProbeTally tally;
  uint64_t failed = 0;
  uint64_t exact = 0;
  TraceFold fold;
  double trace_ms = 0.0;  // benchmark-side tracing work inside the pass
  /// Exact answers to verify: (db, sql) -> distinct result objects.
  std::map<std::pair<size_t, std::string>, std::set<ResultSetPtr>> answers;
  /// Executed (not memory-served) queries, for the parse/bind replay.
  std::vector<std::pair<size_t, std::string>> executed;
};

/// Runs turns until `max_turns` (when nonzero) or `seconds` elapse.
Pass RunLoad(World* world, const Args& args, uint64_t max_turns, SpanLog* spans,
             CounterWindow* window) {
  if (window != nullptr) window->Start();
  Clock::time_point begin = Clock::now();
  Pass pass(begin);
  for (uint64_t turn = 0;; ++turn) {
    if (max_turns != 0 ? turn >= max_turns : SecondsSince(begin) >= args.seconds) break;
    const World::TaskRef& ref = world->tasks[turn % world->tasks.size()];
    std::vector<Probe> batch = MakeTurn(*world, args, turn);
    size_t nqueries = 0;
    for (const Probe& p : batch) nqueries += p.queries.size();
    size_t pass_probes = batch.size();
    pass.tally.probes += pass_probes;
    pass.tally.queries += nqueries;
    Clock::time_point start = Clock::now();
    auto responses = world->dbs[ref.db].system->HandleProbeBatch(std::move(batch));
    Clock::time_point end = Clock::now();
    double ms = std::chrono::duration<double, std::milli>(end - start).count();
    pass.turns.Add(end, ms, static_cast<double>(pass_probes));
    pass.tally.call_ms += ms;
    if (spans->enabled()) {
      Clock::time_point t0 = Clock::now();
      spans->Record("HandleProbeBatch", turn + 1, start, end);
      if (responses.ok()) {
        for (const ProbeResponse& r : *responses) pass.fold.Add(r.trace);
      }
      pass.trace_ms += MillisSince(t0);
    }
    if (!responses.ok()) {
      pass.failed += nqueries;
      continue;
    }
    for (const ProbeResponse& r : *responses) {
      pass.tally.executed_cost += r.total_executed_cost;
      for (const QueryAnswer& a : r.answers) {
        if (r.shed || (!a.status.ok() && !a.truncated && !a.skipped)) {
          ++pass.failed;
          continue;
        }
        if (!a.skipped && !a.from_memory && a.result != nullptr) {
          ++pass.tally.executed_answers;
          if (a.approximate) ++pass.tally.approximate_answers;
          if (spans->enabled()) pass.executed.emplace_back(ref.db, a.sql);
        }
        if (IsExactAnswer(a)) {
          ++pass.exact;
          pass.answers[{ref.db, a.sql}].insert(a.result);
        }
      }
    }
  }
  pass.elapsed_s = SecondsSince(begin);
  if (window != nullptr) window->Stop();
  return pass;
}

/// The correctness gate: every exact answer against ExecuteSql on a shadow
/// rebuilt from the same seed. Returns the shadow's setup time.
double Verify(const Args& args, const Pass& pass, Verdict* verdict) {
  Clock::time_point start = Clock::now();
  World shadow = BuildWorld(args);
  WarmUp(&shadow);
  double setup = SecondsSince(start);
  bool perturb = args.perturb_reference;
  for (const auto& [key, results] : pass.answers) {
    auto want = shadow.dbs[key.first].system->ExecuteSql(key.second);
    if (!want.ok()) {
      verdict->compared += results.size();
      verdict->mismatched += results.size();
      if (verdict->first_mismatch.empty()) {
        verdict->first_mismatch = key.second + ": reference failed: " +
                                  want.status().ToString();
      }
      continue;
    }
    ResultSetPtr reference = *want;
    if (perturb) {
      reference = PerturbedCopy(*reference);
      perturb = false;
    }
    for (const ResultSetPtr& got : results) {
      CheckAnswer(shadow.dbs[key.first].name + ": " + key.second, *got, *reference,
                  verdict);
    }
  }
  return setup;
}

/// The first turns' SQL, for the inputs digest.
std::vector<std::string> FirstInputs(const World& world, const Args& args) {
  std::vector<std::string> sql;
  for (uint64_t turn = 0; turn < 8; ++turn) {
    for (const Probe& p : MakeTurn(world, args, turn)) {
      sql.insert(sql.end(), p.queries.begin(), p.queries.end());
    }
  }
  return sql;
}

}  // namespace

bool RunSpeculate(const Args& args, Report* report) {
  if (!args.trace) {
    std::vector<double> setups;
    Clock::time_point start = Clock::now();
    World world = BuildWorld(args);
    WarmUp(&world);
    setups.push_back(SecondsSince(start));
    report->Note("inputs " + InputDigest(FirstInputs(world, args)));
    SpanLog spans(false);
    Pass pass = RunLoad(&world, args, 0, &spans, nullptr);
    Verdict verdict;
    setups.push_back(Verify(args, pass, &verdict));
    // More set-ups after the timed phase, so the reported set-up time is a
    // median of kSetups taken at both ends of the run.
    while (setups.size() < kSetups) {
      start = Clock::now();
      World again = BuildWorld(args);
      WarmUp(&again);
      setups.push_back(SecondsSince(start));
    }

    uint64_t wrong = verdict.mismatched;
    report->attempted = pass.tally.queries;
    report->failed = pass.failed + wrong;
    report->correct = wrong == 0;
    if (wrong != 0) report->Note("MISMATCH " + verdict.first_mismatch);
    Timeline::Summary turns = pass.turns.Summarize();
    report->Note("turns " + std::to_string(pass.turns.size()) + " in " +
                 std::to_string(turns.windows) + " windows, probes " +
                 std::to_string(pass.tally.probes) + ", exact answers checked " +
                 std::to_string(verdict.compared));
    report->Set("setup_s", Median(setups), "s");
    report->SetOptional("probes_per_s", turns.rate, "1/s");
    report->SetOptional("p50_ms", turns.p50_ms, "ms");
    report->Set("exact_frac",
                static_cast<double>(pass.exact - std::min(pass.exact, wrong)) /
                    static_cast<double>(pass.tally.queries),
                "fraction");
    report->Set("peak_rss_mb", PeakRssMb(), "MB");
    return true;
  }

  // Traced run: a fixed number of turns, so counts repeat exactly for a
  // seed. The tracing overhead is the share of the pass spent on the
  // benchmark's own tracing work (span records and trace folding), which is
  // the drop in probes_per_s tracing causes.
  uint64_t turns = args.tiny ? 40 : kTracedTurns;
  World world = BuildWorld(args);
  WarmUp(&world);
  report->Note("inputs " + InputDigest(FirstInputs(world, args)));
  SpanLog spans(true);
  CounterWindow window;
  Pass pass = RunLoad(&world, args, turns, &spans, &window);
  Verdict verdict;
  Verify(args, pass, &verdict);
  uint64_t wrong = verdict.mismatched;
  report->attempted = pass.tally.queries;
  report->failed = pass.failed + wrong;
  report->correct = wrong == 0;
  if (wrong != 0) report->Note("MISMATCH " + verdict.first_mismatch);

  ZeroPerModuleMetrics(report);
  SetProbePathMetrics(window, pass.fold, pass.tally, report);
  report->SetOptional("p99_ms", pass.turns.Summarize().p99_ms, "ms");
  std::vector<std::pair<agentfirst::Catalog*, std::string>> replay;
  for (const auto& [db, sql] : pass.executed) {
    replay.emplace_back(world.dbs[db].system->catalog(), sql);
  }
  ReportParseBind(replay, &spans, report);
  report->Set("failed_frac",
              static_cast<double>(report->failed) / static_cast<double>(report->attempted),
              "fraction");
  report->Set("bench.trace_overhead_frac", pass.trace_ms / (pass.elapsed_s * 1000.0),
              "fraction");
  spans.WriteTo(args.work_dir + "/spans.jsonl");
  return true;
}

}  // namespace agentbench
