// Fleet-scale serving bench: what afserved sustains when probes arrive the
// way the paper says they do — as hundreds of concurrent, pipelined agent
// sessions (Sec. 4.1/4.3), not one blocking caller.
//
//   build/bench/bench_fleet [--quick] [BENCH_net.json]
//
// Three measurements:
//   1. Session curve: probe throughput and completion latency (p50/p99) at
//      32/64/128/256 concurrent pipelined sessions, every session keeping
//      its whole script in flight on one connection (the async Client).
//   2. Loop scaling: the same 256-session storm against a 1-loop and an
//      N-loop server (N = min(4, cores)). On a multi-core host the sharded
//      server must beat the single loop; on fewer than 4 cores the gate is
//      skipped with a notice — there is nothing to shard onto.
//   3. Shed integrity: a storm against a server armed with a tiny admission
//      budget. Every refused probe must carry a typed kResourceExhausted
//      (never a silent queue, never a hang), and some probes must still be
//      served.
//
// --quick shrinks the curve for the check.sh gate. Results merge into
// BENCH_net.json next to bench_net's section (UpdateBenchJson keys on the
// "bench" name, so the two never clobber each other).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "core/system.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"

namespace agentfirst {
namespace net {
namespace {

double Seconds(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

AgentFirstSystem::Options BenchOptions() {
  AgentFirstSystem::Options options;
  options.optimizer.enable_memory = false;
  options.optimizer.enable_steering = false;
  return options;
}

void SeedTables(AgentFirstSystem* db) {
  (void)db->ExecuteSql(
      "CREATE TABLE sales (id BIGINT, region VARCHAR, amount DOUBLE)");
  std::string insert = "INSERT INTO sales VALUES ";
  for (int i = 0; i < 1000; ++i) {
    insert += (i == 0 ? "" : ",");
    insert += "(" + std::to_string(i) + ",'r" + std::to_string(i % 7) + "'," +
              std::to_string((i % 97) * 1.5) + ")";
  }
  (void)db->ExecuteSql(insert);
}

/// One cheap aggregate: enough work to be a real probe, cheap enough that
/// the serving layer (framing, loops, admission) is what the curve shows.
Probe FleetProbe(size_t session, size_t i) {
  Probe probe;
  probe.agent_id = "fleet-" + std::to_string(session);
  probe.queries = {"SELECT region, COUNT(*) FROM sales WHERE id < " +
                   std::to_string(100 + (i % 7) * 100) + " GROUP BY region"};
  return probe;
}

struct StormResult {
  double probes_per_sec = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  size_t served = 0;
  size_t shed = 0;     // typed kResourceExhausted refusals
  size_t failed = 0;   // anything else (must stay 0)
};

/// `sessions` pipelined connections, each issuing `probes_per_session`
/// probes back-to-back (all in flight at once), then collecting futures.
/// Issue fan-out uses a small driver pool; concurrency comes from the
/// pipelining, not from driver threads.
StormResult RunStorm(uint16_t port, size_t sessions,
                     size_t probes_per_session) {
  std::vector<std::unique_ptr<Client>> clients;
  clients.reserve(sessions);
  for (size_t s = 0; s < sessions; ++s) {
    auto client = Client::Connect("127.0.0.1", port);
    if (!client.ok()) {
      std::fprintf(stderr, "bench_fleet: connect %zu failed: %s\n", s,
                   client.status().ToString().c_str());
      std::abort();
    }
    clients.push_back(std::move(*client));
  }

  struct Sample {
    std::future<Result<ProbeResponse>> future;
    std::chrono::steady_clock::time_point issued;
  };
  std::vector<std::vector<Sample>> inflight(sessions);

  StormResult out;
  std::vector<double> latency_ms(sessions * probes_per_session, 0.0);
  std::atomic<size_t> served{0}, shed{0}, failed{0};

  const size_t drivers = std::min<size_t>(sessions, 16);
  auto t0 = std::chrono::steady_clock::now();
  {
    ThreadPool pool(drivers);
    pool.ParallelFor(
        0, sessions,
        [&](size_t begin, size_t end) {
          for (size_t s = begin; s < end; ++s) {
            inflight[s].reserve(probes_per_session);
            for (size_t i = 0; i < probes_per_session; ++i) {
              Sample sample;
              sample.issued = std::chrono::steady_clock::now();
              sample.future = clients[s]->ProbeAsync(FleetProbe(s, i));
              inflight[s].push_back(std::move(sample));
            }
            for (size_t i = 0; i < probes_per_session; ++i) {
              auto response = inflight[s][i].future.get();
              auto done = std::chrono::steady_clock::now();
              latency_ms[s * probes_per_session + i] =
                  Seconds(inflight[s][i].issued, done) * 1e3;
              if (response.ok()) {
                served.fetch_add(1);
              } else if (response.status().code() ==
                         StatusCode::kResourceExhausted) {
                shed.fetch_add(1);
              } else {
                failed.fetch_add(1);
              }
            }
          }
        },
        /*grain=*/1, drivers);
  }
  auto t1 = std::chrono::steady_clock::now();

  out.served = served.load();
  out.shed = shed.load();
  out.failed = failed.load();
  out.probes_per_sec =
      static_cast<double>(out.served + out.shed) / Seconds(t0, t1);
  std::sort(latency_ms.begin(), latency_ms.end());
  out.p50_ms = latency_ms[latency_ms.size() / 2];
  out.p99_ms = latency_ms[(latency_ms.size() * 99) / 100];
  return out;
}

struct Server {
  AgentFirstSystem db;
  obs::MetricsRegistry metrics;
  std::unique_ptr<ProbeServer> server;

  explicit Server(size_t num_loops, size_t max_sessions,
                  AdmissionController::Options admission = {})
      : db(BenchOptions()) {
    SeedTables(&db);
    ProbeServer::Options options;
    options.metrics = &metrics;
    options.num_loops = num_loops;
    options.max_sessions = max_sessions;
    options.admission = admission;
    server = std::make_unique<ProbeServer>(&db, options);
    Status started = server->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "bench_fleet: start failed: %s\n",
                   started.ToString().c_str());
      std::abort();
    }
  }
  ~Server() { server->Stop(); }
};

int Run(bool quick, const char* json_path) {
  const size_t cores = std::max<size_t>(1, std::thread::hardware_concurrency());
  const std::vector<size_t> curve_sessions =
      quick ? std::vector<size_t>{8, 32}
            : std::vector<size_t>{32, 64, 128, 256};
  const size_t probes_per_session = quick ? 8 : 32;
  const size_t top = curve_sessions.back();
  const size_t multi_loops = std::min<size_t>(4, cores);

  // 1. Session curve on a single-loop server (the PR 5 baseline shape).
  std::vector<std::pair<size_t, StormResult>> curve;
  {
    Server single(/*num_loops=*/1, /*max_sessions=*/top + 8);
    for (size_t sessions : curve_sessions) {
      curve.emplace_back(sessions,
                         RunStorm(single.server->port(), sessions,
                                  probes_per_session));
    }
  }

  // 2. The same storm against a sharded server.
  StormResult multi;
  {
    Server sharded(multi_loops, top + 8);
    multi = RunStorm(sharded.server->port(), top, probes_per_session);
  }
  const StormResult& single_top = curve.back().second;
  const double speedup =
      single_top.probes_per_sec > 0
          ? multi.probes_per_sec / single_top.probes_per_sec
          : 0.0;

  // 3. Shed integrity: a starved admission budget must refuse with typed
  // kResourceExhausted, and anything it admits must still be answered.
  StormResult starved;
  {
    AdmissionController::Options admission;
    admission.max_concurrent = 2;
    admission.max_queued = 4;
    Server armed(/*num_loops=*/1, top + 8, admission);
    starved = RunStorm(armed.server->port(), std::min<size_t>(top, 32),
                       probes_per_session);
  }

  std::vector<std::vector<std::string>> rows;
  for (const auto& [sessions, storm] : curve) {
    rows.push_back({std::to_string(sessions) + " sessions x 1 loop",
                    bench::Num(storm.probes_per_sec, 0),
                    bench::Num(storm.p50_ms), bench::Num(storm.p99_ms)});
  }
  rows.push_back({std::to_string(top) + " sessions x " +
                      std::to_string(multi_loops) + " loops",
                  bench::Num(multi.probes_per_sec, 0),
                  bench::Num(multi.p50_ms), bench::Num(multi.p99_ms)});
  bench::PrintTable({"storm", "probes/s", "p50 ms", "p99 ms"}, rows);
  std::printf("loop scaling: %.2fx (%zu core(s))\n", speedup, cores);
  std::printf("starved admission: %zu served, %zu shed typed, %zu other\n",
              starved.served, starved.shed, starved.failed);

  std::ostringstream json;
  json << "{\n  \"bench\": \"bench_fleet\",\n  \"cores\": " << cores
       << ",\n  \"probes_per_session\": " << probes_per_session
       << ",\n  \"quick\": " << (quick ? "true" : "false")
       << ",\n  \"curve\": [\n";
  for (size_t i = 0; i < curve.size(); ++i) {
    const auto& [sessions, storm] = curve[i];
    json << "    {\"sessions\": " << sessions << ", \"loops\": 1"
         << ", \"probes_per_sec\": " << storm.probes_per_sec
         << ", \"p50_ms\": " << storm.p50_ms
         << ", \"p99_ms\": " << storm.p99_ms << "},\n";
  }
  json << "    {\"sessions\": " << top << ", \"loops\": " << multi_loops
       << ", \"probes_per_sec\": " << multi.probes_per_sec
       << ", \"p50_ms\": " << multi.p50_ms << ", \"p99_ms\": " << multi.p99_ms
       << "}\n  ],\n  \"loop_speedup\": " << speedup
       << ",\n  \"starved\": {\"served\": " << starved.served
       << ", \"shed_resource_exhausted\": " << starved.shed
       << ", \"other_failures\": " << starved.failed << "}\n}";
  if (!bench::UpdateBenchJson(json_path, "bench_fleet", json.str())) {
    std::fprintf(stderr, "bench_fleet: cannot write %s\n", json_path);
    return 1;
  }
  std::printf("wrote %s\n", json_path);

  // Gates. Shed integrity is unconditional: refusals must be typed and the
  // admitted remainder must be served.
  if (starved.failed != 0 || starved.served == 0) {
    std::fprintf(stderr,
                 "bench_fleet: FAIL shed integrity (%zu untyped failures, "
                 "%zu served)\n",
                 starved.failed, starved.served);
    return 1;
  }
  for (const auto& [sessions, storm] : curve) {
    if (storm.failed != 0 || storm.shed != 0) {
      std::fprintf(stderr,
                   "bench_fleet: FAIL open server refused probes at %zu "
                   "sessions (%zu shed, %zu failed)\n",
                   sessions, storm.shed, storm.failed);
      return 1;
    }
  }
  // The loop-scaling gate needs cores to shard onto.
  if (cores < 4) {
    std::printf(
        "bench_fleet: %zu core(s) < 4: loop-scaling gate skipped (nothing "
        "to shard onto)\n",
        cores);
    return 0;
  }
  if (multi.probes_per_sec <= single_top.probes_per_sec) {
    std::fprintf(stderr,
                 "bench_fleet: FAIL %zu-loop throughput %.0f <= 1-loop %.0f "
                 "on %zu cores\n",
                 multi_loops, multi.probes_per_sec, single_top.probes_per_sec,
                 cores);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace net
}  // namespace agentfirst

int main(int argc, char** argv) {
  bool quick = false;
  const char* json_path = "BENCH_net.json";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else {
      json_path = argv[i];
    }
  }
  return agentfirst::net::Run(quick, json_path);
}
