// Wire + loopback service bench: what the network layer costs an agent.
//
//   build/bench/bench_net [BENCH_net.json]
//
// Three measurements:
//   1. Serde ns/row: encode + decode of a ProbeResponse frame carrying a
//      result set, amortised per row. This is the marginal cost of moving
//      one answer row through the afp wire format, both directions.
//   2. Ping frames/s: blocking request/response round trips over loopback
//      TCP (one frame each way), i.e. the protocol + event-loop floor.
//   3. Probe latency over loopback: client-side wall time per HandleProbe
//      against afserved, sorted p50/p99, plus the same probes issued
//      in-process so the wire tax is visible. Throughput is reported for a
//      4-session concurrent run of the same script.
//
// Everything runs on an ephemeral loopback port with memory/steering off,
// so numbers measure the network layer, not memory-store luck.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "core/system.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "obs/metrics.h"

namespace agentfirst {
namespace net {
namespace {

constexpr int kRepetitions = 5;

double Seconds(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

template <typename F>
double MeasureBestSeconds(F&& body) {
  double best = 1e30;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    body();
    auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, Seconds(t0, t1));
  }
  return best;
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
  for (int chunk = 0; chunk < 10; ++chunk) {
    std::string insert = "INSERT INTO sales VALUES ";
    for (int i = 0; i < 1000; ++i) {
      int id = chunk * 1000 + i;
      insert += (i == 0 ? "" : ",");
      insert += "(" + std::to_string(id) + ",'r" + std::to_string(id % 7) +
                "'," + std::to_string((id % 997) * 1.5) + ")";
    }
    (void)db->ExecuteSql(insert);
  }
}

/// A ProbeResponse whose payload is dominated by result rows, so the
/// per-row serde cost stands out against the fixed envelope.
ProbeResponse MakeRowyResponse(size_t rows) {
  ProbeResponse r;
  r.probe_id = 42;
  QueryAnswer a;
  a.sql = "SELECT id, region, amount FROM sales";
  a.status = Status::OK();
  auto rs = std::make_shared<ResultSet>();
  rs->schema.AddColumn(ColumnDef("id", DataType::kInt64, false, "sales"));
  rs->schema.AddColumn(ColumnDef("region", DataType::kString, false, "sales"));
  rs->schema.AddColumn(ColumnDef("amount", DataType::kFloat64, false, "sales"));
  for (size_t i = 0; i < rows; ++i) {
    Row row;
    row.push_back(Value::Int(static_cast<int64_t>(i)));
    row.push_back(Value::String("region-" + std::to_string(i % 7)));
    row.push_back(Value::Double(static_cast<double>(i) * 1.5));
    rs->rows.push_back(std::move(row));
  }
  a.result = std::move(rs);
  r.answers.push_back(std::move(a));
  return r;
}

struct SerdeResult {
  double encode_ns_per_row = 0;
  double decode_ns_per_row = 0;
  size_t frame_bytes = 0;
};

SerdeResult BenchSerde() {
  constexpr size_t kRows = 2000;
  constexpr size_t kIters = 50;
  ProbeResponse response = MakeRowyResponse(kRows);

  SerdeResult out;
  std::string frame;
  out.encode_ns_per_row =
      MeasureBestSeconds([&]() {
        for (size_t i = 0; i < kIters; ++i) {
          frame = EncodeProbeResponseFrame(7, Status::OK(), &response);
        }
      }) *
      1e9 / static_cast<double>(kIters * kRows);
  out.frame_bytes = frame.size();

  std::string_view payload(frame.data() + kFrameHeaderBytes,
                           frame.size() - kFrameHeaderBytes);
  out.decode_ns_per_row =
      MeasureBestSeconds([&]() {
        for (size_t i = 0; i < kIters; ++i) {
          auto decoded = DecodeProbeResponsePayload(payload);
          if (!decoded.ok()) std::abort();
        }
      }) *
      1e9 / static_cast<double>(kIters * kRows);
  return out;
}

double BenchPingFramesPerSec(Client* client) {
  constexpr size_t kPings = 2000;
  double secs = MeasureBestSeconds([&]() {
    for (size_t i = 0; i < kPings; ++i) {
      auto pong = client->Ping("bench");
      if (!pong.ok()) std::abort();
    }
  });
  // One frame out + one frame back per round trip.
  return 2.0 * static_cast<double>(kPings) / secs;
}

Probe BenchProbe(size_t i) {
  Probe probe;
  probe.agent_id = "bench";
  probe.brief.text = "latency sample";
  probe.queries = {
      "SELECT region, SUM(amount) FROM sales WHERE id < " +
      std::to_string(1000 + (i % 7) * 500) + " GROUP BY region"};
  return probe;
}

struct LatencyResult {
  double p50_us = 0;
  double p99_us = 0;
  double probes_per_sec_4_sessions = 0;
};

LatencyResult BenchProbeLatency(ProbeService* direct, uint16_t port,
                                std::vector<double>* inproc_us) {
  constexpr size_t kProbes = 400;
  LatencyResult out;

  // In-process baseline, same probes.
  inproc_us->clear();
  for (size_t i = 0; i < kProbes; ++i) {
    Probe probe = BenchProbe(i);
    auto t0 = std::chrono::steady_clock::now();
    auto r = direct->HandleProbe(probe);
    auto t1 = std::chrono::steady_clock::now();
    if (!r.ok()) std::abort();
    inproc_us->push_back(Seconds(t0, t1) * 1e6);
  }
  std::sort(inproc_us->begin(), inproc_us->end());

  // Over the wire, one session, client-side timing.
  auto client = Client::Connect("127.0.0.1", port);
  if (!client.ok()) std::abort();
  std::vector<double> us;
  us.reserve(kProbes);
  for (size_t i = 0; i < kProbes; ++i) {
    Probe probe = BenchProbe(i);
    auto t0 = std::chrono::steady_clock::now();
    auto r = (*client)->HandleProbe(probe);
    auto t1 = std::chrono::steady_clock::now();
    if (!r.ok()) std::abort();
    us.push_back(Seconds(t0, t1) * 1e6);
  }
  std::sort(us.begin(), us.end());
  out.p50_us = us[us.size() / 2];
  out.p99_us = us[(us.size() * 99) / 100];

  // Throughput: 4 concurrent sessions, each running the script once.
  constexpr size_t kSessions = 4;
  double secs = MeasureBestSeconds([&]() {
    ThreadPool pool(kSessions);
    pool.ParallelFor(
        0, kSessions,
        [&](size_t begin, size_t end) {
          for (size_t s = begin; s < end; ++s) {
            auto c = Client::Connect("127.0.0.1", port);
            if (!c.ok()) std::abort();
            for (size_t i = 0; i < kProbes / 4; ++i) {
              if (!(*c)->HandleProbe(BenchProbe(i)).ok()) std::abort();
            }
          }
        },
        /*grain=*/1, kSessions);
  });
  out.probes_per_sec_4_sessions =
      static_cast<double>(kSessions * (kProbes / 4)) / secs;
  return out;
}

int Run(const char* json_path) {
  SerdeResult serde = BenchSerde();

  AgentFirstSystem db(BenchOptions());
  SeedTables(&db);
  obs::MetricsRegistry metrics;
  ProbeServer::Options options;
  options.metrics = &metrics;
  ProbeServer server(&db, options);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 started.ToString().c_str());
    return 1;
  }

  auto client = Client::Connect("127.0.0.1", server.port());
  if (!client.ok()) {
    std::fprintf(stderr, "connect failed: %s\n",
                 client.status().ToString().c_str());
    return 1;
  }
  double ping_fps = BenchPingFramesPerSec(client->get());

  std::vector<double> inproc_us;
  LatencyResult lat = BenchProbeLatency(&db, server.port(), &inproc_us);
  server.Stop();

  double inproc_p50 = inproc_us[inproc_us.size() / 2];
  double inproc_p99 = inproc_us[(inproc_us.size() * 99) / 100];

  bench::PrintTable(
      {"metric", "value"},
      {{"serde encode ns/row", bench::Num(serde.encode_ns_per_row)},
       {"serde decode ns/row", bench::Num(serde.decode_ns_per_row)},
       {"response frame bytes (2000 rows)",
        std::to_string(serde.frame_bytes)},
       {"ping frames/s", bench::Num(ping_fps, 0)},
       {"probe p50 us (loopback)", bench::Num(lat.p50_us)},
       {"probe p99 us (loopback)", bench::Num(lat.p99_us)},
       {"probe p50 us (in-process)", bench::Num(inproc_p50)},
       {"probe p99 us (in-process)", bench::Num(inproc_p99)},
       {"probes/s (4 sessions)",
        bench::Num(lat.probes_per_sec_4_sessions, 0)}});

  std::ofstream json(json_path);
  json << "{\n"
       << "  \"bench\": \"bench_net\",\n"
       << "  \"serde_encode_ns_per_row\": " << serde.encode_ns_per_row
       << ",\n"
       << "  \"serde_decode_ns_per_row\": " << serde.decode_ns_per_row
       << ",\n"
       << "  \"response_frame_bytes_2000_rows\": " << serde.frame_bytes
       << ",\n"
       << "  \"ping_frames_per_sec\": " << ping_fps << ",\n"
       << "  \"probe_latency_us\": {\"loopback_p50\": " << lat.p50_us
       << ", \"loopback_p99\": " << lat.p99_us
       << ", \"inprocess_p50\": " << inproc_p50
       << ", \"inprocess_p99\": " << inproc_p99 << "},\n"
       << "  \"probes_per_sec_4_sessions\": " << lat.probes_per_sec_4_sessions
       << "\n}\n";
  std::printf("wrote %s\n", json_path);
  return 0;
}

}  // namespace
}  // namespace net
}  // namespace agentfirst

int main(int argc, char** argv) {
  return agentfirst::net::Run(argc > 1 ? argv[1] : "BENCH_net.json");
}
