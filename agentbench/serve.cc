// Workload `serve`: independent agents over loopback TCP. An in-process
// net::ProbeServer with default options (the object afserve wraps) serves
// cheap probes with unique literals against a small in-memory table; at most
// min(4, nproc) pipelined net::Client connections carry an open-loop
// schedule that steps through a fixed ladder of offered rates. Execution is
// cheap and nothing repeats, so the wire, the IO loop, admission and pool
// dispatch dominate; storage and wal stay idle. Each probe's latency is
// timed from its scheduled send time, and generator lateness is reported.

#include <algorithm>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/system.h"
#include "harness.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"

namespace agentbench {

using agentfirst::AgentFirstSystem;
using agentfirst::Probe;
using agentfirst::ProbeResponse;
using agentfirst::ResultSetPtr;
using agentfirst::Rng;
using agentfirst::Value;
namespace net = agentfirst::net;

namespace {

constexpr size_t kRows = 2000;
constexpr size_t kGroups = 50;
constexpr int64_t kMaxVal = 1000000000;
/// The reference rate (half the ladder's top passing rung on a 4-vCPU
/// machine) at which p50/p99 are reported, and the share of the timed phase
/// it gets. At lower rates the threads of the path idle between probes, and
/// the latency then mostly measures how fast the host wakes an idle vCPU.
constexpr double kReferenceRate = 1000.0;
constexpr double kReferenceShare = 0.5;
/// The ladder of offered rates that finds the capacity.
constexpr double kLadder[] = {1000.0, 1500.0, 2000.0, 3000.0};
/// Latency limit on a rung's p99, and the generator slip that invalidates it.
constexpr double kLatencyLimitMs = 20.0;
constexpr double kMaxLateP99Ms = 10.0;
/// Set-up repetitions (set-up is milliseconds here, so take more).
constexpr int kSetups = 25;
/// Replies in flight the generator checks per poll, oldest first.
constexpr size_t kPollDepth = 256;

size_t NumClients() {
  return std::max<size_t>(1, std::min<size_t>(4, std::thread::hardware_concurrency()));
}

agentfirst::Status LoadData(AgentFirstSystem* sys, uint64_t seed) {
  using agentfirst::DataType;
  agentfirst::Schema schema;
  for (const auto& [name, type] :
       std::initializer_list<std::pair<const char*, DataType>>{
           {"id", DataType::kInt64},
           {"grp", DataType::kInt64},
           {"val", DataType::kInt64},
           {"tag", DataType::kString}}) {
    schema.AddColumn(agentfirst::ColumnDef(name, type, true, "items"));
  }
  auto table = sys->catalog()->CreateTable("items", schema);
  if (!table.ok()) return table.status();
  Rng rng(seed);
  std::vector<agentfirst::Row> rows;
  for (size_t i = 0; i < kRows; ++i) {
    rows.push_back({Value::Int(static_cast<int64_t>(i)),
                    Value::Int(static_cast<int64_t>(rng.NextUint(kGroups))),
                    Value::Int(rng.NextInt(1, kMaxVal)),
                    Value::String("tag" + std::to_string(rng.NextUint(16)))});
  }
  return (*table)->AppendRows(rows);
}

/// The system, the server, and the connected clients.
struct Stack {
  std::unique_ptr<AgentFirstSystem> sys;
  std::unique_ptr<net::ProbeServer> server;
  std::vector<std::unique_ptr<net::Client>> clients;

  ~Stack() {
    for (auto& c : clients) c->Close();
    clients.clear();
    if (server != nullptr) server->Stop();
  }
};

agentfirst::Status SetUp(uint64_t seed, Stack* stack) {
  stack->sys = std::make_unique<AgentFirstSystem>();
  if (auto st = LoadData(stack->sys.get(), seed); !st.ok()) return st;
  stack->server = std::make_unique<net::ProbeServer>(stack->sys.get(),
                                                     net::ProbeServer::Options());
  if (auto st = stack->server->Start(); !st.ok()) return st;
  for (size_t i = 0; i < NumClients(); ++i) {
    net::Client::Options options;
    options.client_name = "agent-" + std::to_string(i);
    auto client = net::Client::Connect("127.0.0.1", stack->server->port(), options);
    if (!client.ok()) return client.status();
    // Warm-up: one round trip per connection.
    if (auto pong = (*client)->Ping("warm-up"); !pong.ok()) return pong.status();
    stack->clients.push_back(std::move(*client));
  }
  return agentfirst::Status::OK();
}

/// One probe of the schedule: unique literals, so no answer repeats.
Probe MakeProbe(Rng* rng) {
  Probe p;
  p.agent_id = "agent";
  p.brief.phase = agentfirst::ProbePhase::kValidation;
  p.queries = {"SELECT count(*), min(val) FROM items WHERE grp = " +
               std::to_string(rng->NextUint(kGroups)) + " AND val > " +
               std::to_string(rng->NextInt(1, kMaxVal))};
  return p;
}

/// What happened to one scheduled probe.
struct Outcome {
  double late_ms = 0.0;     // actual send time minus scheduled time
  double latency_ms = 0.0;  // completion minus scheduled time
  Clock::time_point due;
  Clock::time_point done;
  enum class Kind { kServed, kShed, kFailed } kind = Kind::kFailed;
  Probe probe;
  ResultSetPtr exact;  // the answer, when complete and exact
  ProbeResponse response;
};

struct Rung {
  double rate = 0.0;
  std::vector<Outcome> outcomes;
  Samples latency_ms;
  Samples late_ms;
  double completed_per_s = 0.0;
  bool valid = true;   // the schedule did not slip
  bool passed = false;
};

/// Records a completed reply into its outcome.
void Complete(Outcome* out, agentfirst::Result<ProbeResponse> r, Clock::time_point done,
              bool keep_response) {
  out->done = done;
  out->latency_ms = std::chrono::duration<double, std::milli>(done - out->due).count();
  if (!r.ok()) {
    out->kind = r.status().code() == agentfirst::StatusCode::kResourceExhausted
                    ? Outcome::Kind::kShed
                    : Outcome::Kind::kFailed;
    return;
  }
  if (r->shed) {
    out->kind = Outcome::Kind::kShed;
    return;
  }
  if (r->answers.size() != 1 || !r->answers[0].status.ok()) {
    out->kind = Outcome::Kind::kFailed;
    return;
  }
  out->kind = Outcome::Kind::kServed;
  if (IsExactAnswer(r->answers[0])) out->exact = r->answers[0].result;
  if (keep_response) out->response = std::move(*r);
}

/// Offers `rate` probes/s for `seconds` on a fixed schedule, round-robin
/// over the connections. The generator never blocks or sleeps: between
/// sends it polls the oldest replies in flight, timestamps each as it lands
/// and yields the core, so no extra thread has to wake up per reply and
/// neither the sends nor the timestamps wait on a timer.
Rung RunRung(Stack* stack, double rate, double seconds, Rng* rng, bool keep_responses) {
  Rung rung;
  rung.rate = rate;
  size_t n = std::max<size_t>(1, static_cast<size_t>(rate * seconds));
  rung.outcomes.resize(n);
  struct InFlight {
    Outcome* out;
    std::future<agentfirst::Result<ProbeResponse>> reply;
  };
  std::deque<InFlight> inflight;
  auto collect = [&]() {
    size_t scanned = 0;
    for (auto it = inflight.begin(); it != inflight.end() && scanned < kPollDepth;
         ++scanned) {
      if (it->reply.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        ++it;
        continue;
      }
      Complete(it->out, it->reply.get(), Clock::now(), keep_responses);
      it = inflight.erase(it);
    }
  };
  Clock::time_point begin = Clock::now() + std::chrono::milliseconds(2);
  auto period = std::chrono::duration<double>(1.0 / rate);
  for (size_t i = 0; i < n; ++i) {
    Outcome* out = &rung.outcomes[i];
    out->due = begin + std::chrono::duration_cast<Clock::duration>(period * static_cast<double>(i));
    out->probe = MakeProbe(rng);
    while (Clock::now() < out->due) {
      collect();
      std::this_thread::yield();
    }
    Clock::time_point sent = Clock::now();
    out->late_ms = std::chrono::duration<double, std::milli>(sent - out->due).count();
    inflight.push_back(
        {out, stack->clients[i % stack->clients.size()]->ProbeAsync(out->probe)});
    collect();
  }
  while (!inflight.empty()) {
    collect();
    std::this_thread::yield();
  }
  double span_s = SecondsSince(begin);
  size_t completed = 0;
  for (const Outcome& o : rung.outcomes) {
    rung.late_ms.Add(o.late_ms);
    if (o.kind == Outcome::Kind::kServed) {
      ++completed;
      rung.latency_ms.Add(o.latency_ms);
    }
  }
  rung.completed_per_s = static_cast<double>(completed) / span_s;
  std::optional<double> late = rung.late_ms.Percentile(99, 1);
  rung.valid = late.has_value() && *late <= kMaxLateP99Ms;
  std::optional<double> p99 = rung.latency_ms.Percentile(99, 1);
  // No growing backlog: the rung's completions kept pace with its offer.
  rung.passed = rung.valid && p99.has_value() && *p99 <= kLatencyLimitMs &&
                completed == n && rung.completed_per_s >= 0.9 * rate;
  return rung;
}

}  // namespace

bool RunServe(const Args& args, Report* report) {
  // Set up several times; the median is setup_s and the last stack is
  // measured.
  std::vector<double> setups;
  auto stack = std::make_unique<Stack>();
  for (int k = 0; k < kSetups; ++k) {
    stack = std::make_unique<Stack>();
    Clock::time_point start = Clock::now();
    if (auto st = SetUp(args.seed, stack.get()); !st.ok()) {
      std::fprintf(stderr, "afbench: serve setup: %s\n", st.ToString().c_str());
      return false;
    }
    setups.push_back(SecondsSince(start));
  }

  Rng rng(args.seed ^ 0xbb67ae8584caa73bULL);
  {
    Rng copy = rng;
    std::vector<std::string> first;
    for (int i = 0; i < 64; ++i) first.push_back(MakeProbe(&copy).queries[0]);
    report->Note("inputs " + InputDigest(first));
  }
  double scale = args.tiny ? 0.1 : 1.0;
  double ref_seconds = std::max(0.2, args.seconds * kReferenceShare);
  double rung_seconds =
      std::max(0.2, args.seconds * (1.0 - kReferenceShare) / std::size(kLadder));
  // The ladder runs first and the reference rung last, once the memory store
  // has filled to its capacity: the reference figures then describe the
  // steady state rather than the store's growth.
  CounterWindow window;
  Clock::time_point begin = Clock::now();
  std::vector<Rung> rungs;
  for (double rate : kLadder) {
    rungs.push_back(RunRung(stack.get(), rate * scale, rung_seconds, &rng, false));
  }
  window.Start();
  Clock::time_point ref_begin = Clock::now();
  rungs.push_back(RunRung(stack.get(), kReferenceRate * scale, ref_seconds,
                          &rng, args.trace));
  window.Stop();
  double elapsed = SecondsSince(begin);

  // Correctness: every served answer against ExecuteSql on a shadow system
  // loaded from the same seed; served + shed + failed must equal attempted.
  AgentFirstSystem shadow;
  Verdict verdict;
  agentfirst::Status shadow_load = LoadData(&shadow, args.seed);
  if (!shadow_load.ok()) {
    verdict.mismatched = 1;
    verdict.first_mismatch = "shadow load failed: " + shadow_load.ToString();
  }
  uint64_t attempted = 0, served = 0, shed = 0, failed = 0, exact = 0;
  bool perturb = args.perturb_reference;
  for (const Rung& rung : rungs) {
    for (const Outcome& o : rung.outcomes) {
      ++attempted;
      served += o.kind == Outcome::Kind::kServed;
      shed += o.kind == Outcome::Kind::kShed;
      failed += o.kind == Outcome::Kind::kFailed;
      if (o.exact == nullptr || !shadow_load.ok()) continue;
      auto want = shadow.ExecuteSql(o.probe.queries[0]);
      if (!want.ok()) {
        ++verdict.mismatched;
        if (verdict.first_mismatch.empty()) {
          verdict.first_mismatch = o.probe.queries[0] + ": shadow failed: " +
                                   want.status().ToString();
        }
        continue;
      }
      ResultSetPtr reference = *want;
      if (perturb) {
        reference = PerturbedCopy(*reference);
        perturb = false;
      }
      size_t before = verdict.mismatched;
      CheckAnswer(o.probe.queries[0], *o.exact, *reference, &verdict);
      exact += verdict.mismatched == before;
    }
  }
  bool balanced = served + shed + failed == attempted;
  report->attempted = attempted;
  report->failed = failed + shed + verdict.mismatched;
  report->correct = verdict.mismatched == 0 && balanced;
  if (verdict.mismatched != 0) report->Note("MISMATCH " + verdict.first_mismatch);
  if (!balanced) report->Note("served + shed + failed != attempted");
  double capacity = 0.0;
  Samples late_all;
  for (size_t i = 0; i < rungs.size(); ++i) {
    const Rung& r = rungs[i];
    for (const Outcome& o : r.outcomes) late_all.Add(o.late_ms);
    if (i + 1 < rungs.size() && r.passed) capacity = std::max(capacity, r.rate);
    char line[200];
    std::snprintf(line, sizeof(line),
                  "rung %.0f/s: %zu probes, completed %.1f/s, p50 %.3f ms, p99 %.3f ms, "
                  "late p99 %.3f ms%s%s",
                  r.rate, r.outcomes.size(), r.completed_per_s,
                  r.latency_ms.Percentile(50, 1).value_or(0.0),
                  r.latency_ms.Percentile(99, 1).value_or(0.0),
                  r.late_ms.Percentile(99, 1).value_or(0.0), r.valid ? "" : " INVALID",
                  r.passed ? " pass" : "");
    report->Note(line);
  }
  report->Note("served " + std::to_string(served) + ", shed " + std::to_string(shed) +
               ", failed " + std::to_string(failed) + ", attempted " +
               std::to_string(attempted));
  const Rung& ref = rungs.back();
  if (!ref.valid) report->Note("reference rung INVALID: the schedule slipped");
  Timeline ref_timeline(ref_begin);
  for (const Outcome& o : ref.outcomes) {
    if (o.kind == Outcome::Kind::kServed) ref_timeline.Add(o.done, o.latency_ms);
  }
  Timeline::Summary ref_summary = ref_timeline.Summarize();

  if (!args.trace) {
    report->Set("setup_s", Median(setups), "s");
    report->Set("probes_per_s", static_cast<double>(served) / elapsed, "1/s");
    report->SetOptional("p50_ms", ref.valid ? ref_summary.p50_ms : std::nullopt, "ms",
                        ref.valid ? "fewer than 1000 samples" : "the schedule slipped");
    report->Set("exact_frac", static_cast<double>(exact) / static_cast<double>(attempted),
                "fraction");
    report->Set("peak_rss_mb", PeakRssMb(), "MB");
    return true;
  }

  // Per-module metrics over the reference rung (steady state below capacity).
  ZeroPerModuleMetrics(report);
  report->SetOptional("p99_ms", ref.valid ? ref_summary.p99_ms : std::nullopt, "ms",
                      ref.valid ? "fewer than 1000 samples" : "the schedule slipped");
  SpanLog spans(true);
  TraceFold fold;
  ProbeTally tally;
  Samples encode_us, decode_us;
  std::vector<std::pair<agentfirst::Catalog*, std::string>> replay;
  uint64_t corr = 1;
  uint64_t served_ref = 0;
  for (size_t i = 0; i < ref.outcomes.size(); ++i) {
    const Outcome& o = ref.outcomes[i];
    ++tally.probes;
    ++tally.queries;
    if (o.kind != Outcome::Kind::kServed) continue;
    ++served_ref;
    const ProbeResponse& r = o.response;
    fold.Add(r.trace);
    tally.executed_cost += r.total_executed_cost;
    tally.call_ms += o.latency_ms;
    if (!r.answers[0].from_memory && !r.answers[0].skipped) {
      ++tally.executed_answers;
      tally.approximate_answers += r.answers[0].approximate;
      replay.emplace_back(stack->sys->catalog(), o.probe.queries[0]);
    }
    // Re-time the public wire codec on this probe's actual frames.
    Clock::time_point t0 = Clock::now();
    auto request = net::EncodeProbeRequestFrame(corr, o.probe);
    Clock::time_point t1 = Clock::now();
    std::string response = net::EncodeProbeResponseFrame(corr, agentfirst::Status::OK(), &r);
    Clock::time_point t2 = Clock::now();
    if (!request.ok()) continue;
    auto req = net::DecodeProbeRequestPayload(
        std::string_view(*request).substr(net::kFrameHeaderBytes));
    Clock::time_point t3 = Clock::now();
    auto resp = net::DecodeProbeResponsePayload(
        std::string_view(response).substr(net::kFrameHeaderBytes));
    Clock::time_point t4 = Clock::now();
    if (!req.ok() || !resp.ok()) continue;
    spans.Record("replay.encode_request", corr, t0, t1);
    spans.Record("replay.encode_response", corr, t1, t2);
    spans.Record("replay.decode_request", corr, t2, t3);
    spans.Record("replay.decode_response", corr, t3, t4);
    encode_us.Add(std::chrono::duration<double, std::micro>(t2 - t0).count());
    decode_us.Add(std::chrono::duration<double, std::micro>(t4 - t2).count());
    ++corr;
  }
  SetProbePathMetrics(window, fold, tally, report);
  ReportParseBind(replay, &spans, report);
  double probes = static_cast<double>(tally.probes);
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  report->Set("failed_frac", ratio(static_cast<double>(report->failed),
                                   static_cast<double>(attempted)),
              "fraction");
  report->Set("capacity_probes_per_s", capacity, "1/s");
  report->Set("core.admission_queued_frac",
              ratio(window.Delta("af.admit.queued"), window.Delta("af.admit.admitted")),
              "fraction");
  report->Set("core.admission_shed",
              window.Delta("af.admit.shed_overload") + window.Delta("af.admit.shed_tenant_quota"),
              "count");
  std::optional<double> server_p50 =
      window.HistogramPercentile("af.net.probe_latency_us", 50);
  std::optional<double> server_p99 =
      window.HistogramPercentile("af.net.probe_latency_us", 99);
  report->Set("core.admission_wait_ms",
              window.HistogramMean("af.net.probe_latency_us") / 1000.0 -
                  ratio(fold.exec_ms, static_cast<double>(served_ref)),
              "ms");
  report->SetOptional("net.server_p50_ms",
                      server_p50 ? std::optional<double>(*server_p50 / 1000.0) : std::nullopt,
                      "ms");
  report->SetOptional("net.server_p99_ms",
                      server_p99 ? std::optional<double>(*server_p99 / 1000.0) : std::nullopt,
                      "ms");
  std::optional<double> client_p50 = ref_summary.p50_ms;
  if (client_p50 && server_p50) {
    report->Set("net.transport_p50_ms", *client_p50 - *server_p50 / 1000.0, "ms");
  }
  report->Set("net.encode_us", encode_us.Mean(), "us");
  report->Set("net.decode_us", decode_us.Mean(), "us");
  report->Set("net.bytes_per_probe",
              ratio(window.Delta("af.net.bytes_in") + window.Delta("af.net.bytes_out"), probes),
              "count");
  report->Set("net.polls_per_probe", ratio(window.Delta("af.net.loop.polls"), probes), "count");
  report->Set("net.wakeups_per_probe", ratio(window.Delta("af.net.loop.wakeups"), probes),
              "count");
  report->Set("net.backpressure_stalls", window.Delta("af.net.backpressure_stalls"), "count");
  report->SetOptional("gen.late_p99_ms", late_all.Percentile(99), "ms");
  report->Set("gen.late_max_ms", late_all.Max(), "ms");
  spans.WriteTo(args.work_dir + "/spans.jsonl");
  return true;
}

}  // namespace agentbench
