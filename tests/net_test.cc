// End-to-end tests for src/net/: wire serde round-trips, server lifecycle,
// SQL and probes over loopback, byte-for-byte parity between in-process and
// networked probe handling at 1/2/4/8 concurrent sessions, the sim-agent
// fleet running unchanged through RemoteAgent, disconnect-as-cancellation,
// and both backpressure paths (inflight cap, outbox byte cap).
//
// Parity methodology: two AgentFirstSystem instances built identically are
// bitwise-equivalent state machines. The reference runs each session's
// probe script in-process; the subject serves an identical system over TCP
// and runs the same scripts concurrently from N clients. With the
// cross-probe couplings disabled (memory, steering, advisors) each
// probe's response depends only on its own content, so the canonical
// rendering — every answer field, every row, and the Render(false) trace —
// must match byte-for-byte no matter how sessions interleave.

#include "net/wire.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <memory>
#include <string>
#include <vector>

#include "net/remote_agent.h"
#include "agents/sim_agent.h"
#include "common/thread_pool.h"
#include "core/admission.h"
#include "core/system.h"
#include "gtest/gtest.h"
#include "io/file_util.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "workload/minibird.h"

namespace agentfirst {
namespace net {
namespace {

// ---------------------------------------------------------------------------
// Wire serde
// ---------------------------------------------------------------------------

Probe MakeRichProbe() {
  Probe probe;
  probe.id = 42;
  probe.agent_id = "agent-7";
  probe.queries = {"SELECT city FROM stores", "SELECT 1"};
  probe.brief.text = "exploring which table holds coffee sales";
  probe.brief.phase = ProbePhase::kSolutionFormulation;
  probe.brief.max_relative_error = 0.05;
  probe.brief.priority = 3;
  probe.brief.k_of_n = 1;
  probe.brief.enough_rows_total = 100;
  probe.brief.limits.DeadlineMillis(250.0);
  probe.brief.limits.MaxRows(1000);
  probe.semantic_search_phrase = "coffee";
  probe.semantic_top_k = 5;
  probe.dry_run = true;
  return probe;
}

TEST(WireTest, ProbeRequestRoundTripIsByteIdentical) {
  Probe probe = MakeRichProbe();
  auto frame = EncodeProbeRequestFrame(9, probe);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  auto header = ParseFrameHeader(
      reinterpret_cast<const uint8_t*>(frame->data()), kMaxFramePayloadBytes);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->type, FrameType::kProbeRequest);
  std::string_view payload(frame->data() + kFrameHeaderBytes,
                           frame->size() - kFrameHeaderBytes);
  ASSERT_EQ(payload.size(), header->payload_bytes);

  auto decoded = DecodeProbeRequestPayload(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->corr, 9u);
  EXPECT_EQ(decoded->probe.id, 42u);
  EXPECT_EQ(decoded->probe.agent_id, "agent-7");
  EXPECT_EQ(decoded->probe.queries, probe.queries);
  EXPECT_EQ(decoded->probe.brief.phase, ProbePhase::kSolutionFormulation);
  EXPECT_EQ(decoded->probe.semantic_top_k, probe.semantic_top_k);
  EXPECT_TRUE(decoded->probe.dry_run);

  auto reencoded = EncodeProbeRequestFrame(9, decoded->probe);
  ASSERT_TRUE(reencoded.ok());
  EXPECT_EQ(*frame, *reencoded);
}

TEST(WireTest, BriefLimitsRoundTripOnTheWire) {
  Probe probe;
  probe.agent_id = "a";
  probe.queries = {"SELECT 1"};
  probe.brief.limits.DeadlineMillis(75.0).MaxRows(42);

  auto frame = EncodeProbeRequestFrame(1, probe);
  ASSERT_TRUE(frame.ok());
  std::string_view payload(frame->data() + kFrameHeaderBytes,
                           frame->size() - kFrameHeaderBytes);
  auto decoded = DecodeProbeRequestPayload(payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_DOUBLE_EQ(decoded->probe.brief.limits.deadline->count(), 75.0);
  EXPECT_EQ(*decoded->probe.brief.limits.max_rows, 42u);
}

TEST(WireTest, StopWhenIsRejectedAtEncode) {
  Probe probe;
  probe.agent_id = "a";
  probe.queries = {"SELECT 1"};
  probe.brief.stop_when = [](const ResultSet&) { return true; };
  auto frame = EncodeProbeRequestFrame(1, probe);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument);
}

ProbeResponse MakeRichResponse() {
  ProbeResponse response;
  response.probe_id = 42;
  response.interpreted_phase = ProbePhase::kSolutionFormulation;
  response.total_estimated_cost = 13.5;
  response.total_executed_cost = 11.25;
  response.total_retries = 2;

  QueryAnswer answer;
  answer.sql = "SELECT city FROM stores";
  answer.status = Status::OK();
  ResultSet rs;
  rs.schema.AddColumn(ColumnDef("city", DataType::kString, true, "stores"));
  rs.rows = {{Value::String("Berkeley")}, {Value::String("Oakland")}};
  rs.approximate = true;
  rs.sample_rate = 0.25;
  answer.result = std::make_shared<const ResultSet>(std::move(rs));
  answer.approximate = true;
  answer.sample_rate = 0.25;
  answer.relative_ci95 = {std::optional<double>(0.1), std::nullopt};
  answer.estimated_cost = 13.0;
  answer.estimated_rows = 2.0;
  answer.retries = 2;
  response.answers.push_back(std::move(answer));

  QueryAnswer failed;
  failed.sql = "SELECT * FROM nope";
  failed.status = Status::NotFound("table nope");
  failed.truncated = true;
  response.answers.push_back(std::move(failed));

  response.hints.push_back(
      Hint{HintKind::kJoinSuggestion, "stores joins sales", 0.9});
  response.discoveries.push_back(SemanticMatch{
      SemanticMatch::Kind::kValue, "stores", "city", "Berkeley", 0.8});

  response.trace.id = 7;
  response.trace.name = "probe";
  response.trace.duration_ms = 1.5;
  response.trace.notes = {{"agent", "agent-7"}};
  obs::TraceSpan child;
  child.id = 8;
  child.name = "exec";
  response.trace.children.push_back(
      std::make_shared<obs::TraceSpan>(std::move(child)));
  return response;
}

TEST(WireTest, ProbeResponseRoundTripIsByteIdentical) {
  ProbeResponse response = MakeRichResponse();
  std::string frame = EncodeProbeResponseFrame(3, Status::OK(), &response);
  std::string_view payload(frame.data() + kFrameHeaderBytes,
                           frame.size() - kFrameHeaderBytes);
  auto decoded = DecodeProbeResponsePayload(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_TRUE(decoded->response.has_value());
  EXPECT_EQ(decoded->response->probe_id, 42u);
  ASSERT_EQ(decoded->response->answers.size(), 2u);
  EXPECT_EQ(decoded->response->answers[0].result->NumRows(), 2u);
  EXPECT_EQ(decoded->response->answers[1].status.code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(decoded->response->answers[1].truncated);
  ASSERT_EQ(decoded->response->hints.size(), 1u);
  EXPECT_EQ(decoded->response->hints[0].kind, HintKind::kJoinSuggestion);
  EXPECT_EQ(decoded->response->trace.Render(false),
            response.trace.Render(false));

  std::string reencoded =
      EncodeProbeResponseFrame(3, Status::OK(), &*decoded->response);
  EXPECT_EQ(frame, reencoded);
}

TEST(WireTest, ErrorStatusTravelsWithoutABody) {
  std::string frame = EncodeProbeResponseFrame(
      5, Status::ResourceExhausted("session over budget"), nullptr);
  std::string_view payload(frame.data() + kFrameHeaderBytes,
                           frame.size() - kFrameHeaderBytes);
  auto decoded = DecodeProbeResponsePayload(payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->corr, 5u);
  EXPECT_EQ(decoded->status.code(), StatusCode::kResourceExhausted);
  EXPECT_FALSE(decoded->response.has_value());
}

TEST(WireTest, HelloTokenRoundTripsAndStaysOptional) {
  // HELLO with a token (client → server).
  std::string with = EncodeHelloFrame("agent-9", "s3cret");
  auto decoded = DecodeHelloPayload(
      std::string_view(with).substr(kFrameHeaderBytes));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->name, "agent-9");
  EXPECT_EQ(decoded->token, "s3cret");

  // HELLO_ACK shape: no token field at all (the server's reply reuses the
  // payload layout, and older peers never sent one).
  std::string without = EncodeHelloFrame("afserved", "");
  auto ack = DecodeHelloPayload(
      std::string_view(without).substr(kFrameHeaderBytes));
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  EXPECT_EQ(ack->name, "afserved");
  EXPECT_TRUE(ack->token.empty());
}

TEST(WireTest, ServerInfoRoundTripsOnTheWire) {
  ServiceInfo info;
  info.name = "afserved";
  info.protocol_version = kProtocolVersion;
  info.num_loops = 4;
  info.tenant = "tenant-a";
  std::string frame = EncodeServerInfoResponseFrame(11, Status::OK(), &info);
  auto decoded = DecodeServerInfoResponsePayload(
      std::string_view(frame).substr(kFrameHeaderBytes));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->corr, 11u);
  ASSERT_TRUE(decoded->info.has_value());
  EXPECT_EQ(decoded->info->name, "afserved");
  EXPECT_EQ(decoded->info->num_loops, 4u);
  EXPECT_EQ(decoded->info->tenant, "tenant-a");

  // A refusal travels as a status with no body, like every other response.
  std::string refused = EncodeServerInfoResponseFrame(
      12, Status::Unauthenticated("bad token"), nullptr);
  auto rdecoded = DecodeServerInfoResponsePayload(
      std::string_view(refused).substr(kFrameHeaderBytes));
  ASSERT_TRUE(rdecoded.ok());
  EXPECT_EQ(rdecoded->status.code(), StatusCode::kUnauthenticated);
  EXPECT_FALSE(rdecoded->info.has_value());
}

TEST(WireTest, TrailingGarbageIsRejected) {
  std::string frame = EncodeSqlRequestFrame(1, "SELECT 1");
  std::string payload(frame.substr(kFrameHeaderBytes));
  payload.push_back('\0');
  auto decoded = DecodeSqlRequestPayload(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Server lifecycle + SQL over loopback
// ---------------------------------------------------------------------------

struct ServerFixture {
  explicit ServerFixture(ProbeServer::Options options = {}) {
    options.metrics = &metrics;
    server = std::make_unique<ProbeServer>(&db, options);
    Status started = server->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
  }
  ~ServerFixture() { server->Stop(); }

  uint64_t Counter(const std::string& name) {
    obs::Counter* c = metrics.GetCounter(name);
    return c == nullptr ? 0 : c->value();
  }

  AgentFirstSystem db;
  obs::MetricsRegistry metrics;
  std::unique_ptr<ProbeServer> server;
};

/// Client options for protocol-abuse tests: no reader thread, so
/// SendRawForTest / ReadFrameForTest own the socket.
Client::Options ManualClient() {
  Client::Options options;
  options.manual_frames_for_test = true;
  return options;
}

TEST(NetServerTest, StartBindsEphemeralPortAndStopIsIdempotent) {
  ServerFixture fx;
  EXPECT_TRUE(fx.server->running());
  EXPECT_NE(fx.server->port(), 0);
  EXPECT_EQ(fx.server->NumSessions(), 0u);
  fx.server->Stop();
  EXPECT_FALSE(fx.server->running());
  fx.server->Stop();  // idempotent
}

TEST(NetServerTest, SqlOverLoopback) {
  ServerFixture fx;
  auto client = Client::Connect("127.0.0.1", fx.server->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_EQ((*client)->server_name(), "afserved");
  EXPECT_EQ(fx.server->NumSessions(), 1u);

  ASSERT_TRUE(
      (*client)->ExecuteSql("CREATE TABLE t (id BIGINT, name VARCHAR)").ok());
  ASSERT_TRUE(
      (*client)->ExecuteSql("INSERT INTO t VALUES (1,'a'),(2,'b')").ok());
  auto rows = (*client)->ExecuteSql("SELECT name FROM t ORDER BY id");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ((*rows)->NumRows(), 2u);
  EXPECT_EQ((*rows)->rows[0][0].string_value(), "a");

  // Errors come back as Status and leave the session healthy.
  auto bad = (*client)->ExecuteSql("SELECT * FROM missing");
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE((*client)->ExecuteSql("SELECT 1").ok());

  auto echoed = (*client)->Ping("rtt");
  ASSERT_TRUE(echoed.ok());
  EXPECT_EQ(*echoed, "rtt");
}

TEST(NetServerTest, RebootOnSameDataDirRecoversServedState) {
  // A served, durable database: everything acknowledged over the wire
  // before shutdown must be there after a restart on the same --data-dir.
  std::string data_dir = ::testing::TempDir() + "/net_test_reboot";
  (void)io::RemoveFile(wal::WalPath(data_dir));
  (void)io::RemoveFile(wal::CheckpointPath(data_dir));
  {
    ServerFixture fx;
    wal::DurabilityOptions durability;
    durability.data_dir = data_dir;
    ASSERT_TRUE(fx.db.EnableDurability(durability).ok());
    auto client = Client::Connect("127.0.0.1", fx.server->port());
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(
        (*client)->ExecuteSql("CREATE TABLE t (id BIGINT, name VARCHAR)").ok());
    ASSERT_TRUE(
        (*client)->ExecuteSql("INSERT INTO t VALUES (1,'a'),(2,'b')").ok());
    ASSERT_TRUE((*client)->ExecuteSql("DELETE FROM t WHERE id = 1").ok());
    fx.server->Stop();  // the afserve SIGTERM path: drain, then close WAL
    ASSERT_TRUE(fx.db.CloseDurability().ok());
  }
  ServerFixture fx;
  wal::DurabilityOptions durability;
  durability.data_dir = data_dir;
  Status recovered = fx.db.EnableDurability(durability);
  ASSERT_TRUE(recovered.ok()) << recovered.ToString();
  EXPECT_GT(fx.db.recovery_report().records_replayed, 0u);
  auto client = Client::Connect("127.0.0.1", fx.server->port());
  ASSERT_TRUE(client.ok());
  auto rows = (*client)->ExecuteSql("SELECT name FROM t ORDER BY id");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ((*rows)->NumRows(), 1u);
  EXPECT_EQ((*rows)->rows[0][0].string_value(), "b");
  // And the recovered database is writable + durable for the next cycle.
  ASSERT_TRUE((*client)->ExecuteSql("INSERT INTO t VALUES (3,'c')").ok());
}

TEST(NetServerTest, MalformedHeaderGetsErrorFrameThenClose) {
  ServerFixture fx;
  auto client = Client::Connect("127.0.0.1", fx.server->port(), ManualClient());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->SendRawForTest("garbage that is no afp header").ok());
  auto frame = (*client)->ReadFrameForTest();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->first, FrameType::kError);
  Status carried;
  ASSERT_TRUE(DecodeErrorPayload(frame->second, &carried).ok());
  EXPECT_FALSE(carried.ok());
  // The server closes the abusive session afterwards.
  auto next = (*client)->ReadFrameForTest();
  EXPECT_FALSE(next.ok());
  EXPECT_GE(fx.Counter("af.net.decode_errors"), 1u);
}

TEST(NetServerTest, MalformedRequestPayloadKeepsSessionOpen) {
  ServerFixture fx;
  auto client = Client::Connect("127.0.0.1", fx.server->port(), ManualClient());
  ASSERT_TRUE(client.ok());

  // Valid header, kSqlRequest type, payload = corr id + garbage (no valid
  // string). The server must answer with a typed response carrying the
  // decode Status for that corr id and keep the session alive.
  WireWriter w;
  w.U64(77);
  w.U32(0xffffffffu);  // string length prefix far beyond the payload
  std::string frame;
  AppendFrameHeader(FrameType::kSqlRequest, w.size(), &frame);
  std::string payload = w.Take();
  frame += payload;
  ASSERT_TRUE((*client)->SendRawForTest(frame).ok());

  auto reply = (*client)->ReadFrameForTest();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->first, FrameType::kSqlResponse);
  auto decoded = DecodeSqlResponsePayload(reply->second);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->corr, 77u);
  EXPECT_FALSE(decoded->status.ok());

  // The same session still serves well-formed requests afterwards.
  ASSERT_TRUE(
      (*client)->SendRawForTest(EncodeSqlRequestFrame(78, "SELECT 1")).ok());
  auto healthy = (*client)->ReadFrameForTest();
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  ASSERT_EQ(healthy->first, FrameType::kSqlResponse);
  auto ok_reply = DecodeSqlResponsePayload(healthy->second);
  ASSERT_TRUE(ok_reply.ok());
  EXPECT_EQ(ok_reply->corr, 78u);
  EXPECT_TRUE(ok_reply->status.ok()) << ok_reply->status.ToString();
}

TEST(NetServerTest, DuplicateHelloIsAProtocolError) {
  ServerFixture fx;
  auto client = Client::Connect("127.0.0.1", fx.server->port(), ManualClient());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(
      (*client)->SendRawForTest(EncodeHelloFrame("again", /*token=*/"")).ok());
  auto frame = (*client)->ReadFrameForTest();
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->first, FrameType::kError);
}

TEST(NetServerTest, SessionCapRefusesExtraConnections) {
  ProbeServer::Options options;
  options.max_sessions = 2;
  ServerFixture fx(options);
  auto a = Client::Connect("127.0.0.1", fx.server->port());
  auto b = Client::Connect("127.0.0.1", fx.server->port());
  ASSERT_TRUE(a.ok() && b.ok());
  auto c = Client::Connect("127.0.0.1", fx.server->port());
  EXPECT_FALSE(c.ok());
  EXPECT_EQ(fx.server->NumSessions(), 2u);
}

// ---------------------------------------------------------------------------
// Token auth + ServerInfo
// ---------------------------------------------------------------------------

TEST(NetAuthTest, TokenServerRejectsBadOrMissingCredentials) {
  ProbeServer::Options options;
  options.tokens = {{"s3cret", "tenant-a"}, {"other", "tenant-b"}};
  ServerFixture fx(options);

  // No token: refused at the handshake with the typed code.
  auto anonymous = Client::Connect("127.0.0.1", fx.server->port());
  ASSERT_FALSE(anonymous.ok());
  EXPECT_EQ(anonymous.status().code(), StatusCode::kUnauthenticated);

  // Wrong token: same refusal.
  Client::Options wrong;
  wrong.token = "guess";
  auto intruder = Client::Connect("127.0.0.1", fx.server->port(), wrong);
  ASSERT_FALSE(intruder.ok());
  EXPECT_EQ(intruder.status().code(), StatusCode::kUnauthenticated);
  EXPECT_GE(fx.Counter("af.net.auth_failures"), 2u);

  // Right token: admitted, and the session is bound to the token's tenant.
  Client::Options good;
  good.token = "s3cret";
  auto client = Client::Connect("127.0.0.1", fx.server->port(), good);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto info = (*client)->ServerInfo();
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->tenant, "tenant-a");
  EXPECT_TRUE((*client)->ExecuteSql("SELECT 1").ok());
}

TEST(NetServerTest, ServerInfoReportsIdentityAndLoops) {
  ProbeServer::Options options;
  options.num_loops = 2;
  ServerFixture fx(options);
  EXPECT_EQ(fx.server->NumLoops(), 2u);
  auto client = Client::Connect("127.0.0.1", fx.server->port());
  ASSERT_TRUE(client.ok());
  auto info = (*client)->ServerInfo();
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->name, "afserved");
  EXPECT_EQ(info->protocol_version, kProtocolVersion);
  EXPECT_EQ(info->num_loops, 2u);
}

// ---------------------------------------------------------------------------
// Admission controller (transport-free unit tests)
// ---------------------------------------------------------------------------

TEST(AdmissionTest, PhasePriorityFavorsExploitOverExploration) {
  EXPECT_GT(PhaseAdmissionPriority(ProbePhase::kValidation),
            PhaseAdmissionPriority(ProbePhase::kSolutionFormulation));
  EXPECT_GT(PhaseAdmissionPriority(ProbePhase::kSolutionFormulation),
            PhaseAdmissionPriority(ProbePhase::kUnspecified));
  EXPECT_GT(PhaseAdmissionPriority(ProbePhase::kUnspecified),
            PhaseAdmissionPriority(ProbePhase::kStatExploration));
  EXPECT_GT(PhaseAdmissionPriority(ProbePhase::kStatExploration),
            PhaseAdmissionPriority(ProbePhase::kMetadataExploration));
}

AdmissionController::Work MakeWork(const std::string& tenant, int priority,
                                   size_t bytes,
                                   std::vector<std::string>* ran,
                                   std::vector<Status>* sheds,
                                   const std::string& label) {
  AdmissionController::Work work;
  work.tenant = tenant;
  work.priority = priority;
  work.bytes = bytes;
  work.run = [ran, label] { ran->push_back(label); };
  work.shed = [sheds](const Status& s) { sheds->push_back(s); };
  return work;
}

TEST(AdmissionTest, QueueDispatchesByPriorityThenFifo) {
  AdmissionController::Options options;
  options.max_concurrent = 1;
  options.max_queued = 8;
  obs::MetricsRegistry metrics;
  options.metrics = &metrics;
  AdmissionController admission(options);

  std::vector<std::string> ran;
  std::vector<Status> sheds;
  admission.Submit(MakeWork("a", 0, 1, &ran, &sheds, "first"));
  ASSERT_EQ(ran, std::vector<std::string>{"first"});  // slot free: inline

  // Queued while the slot is busy: exploration before validation, on
  // purpose, to prove dispatch order is priority not arrival.
  admission.Submit(MakeWork(
      "a", PhaseAdmissionPriority(ProbePhase::kMetadataExploration), 1, &ran,
      &sheds, "explore"));
  admission.Submit(MakeWork(
      "a", PhaseAdmissionPriority(ProbePhase::kValidation), 1, &ran, &sheds,
      "validate"));
  admission.Submit(MakeWork(
      "a", PhaseAdmissionPriority(ProbePhase::kValidation), 1, &ran, &sheds,
      "validate2"));
  EXPECT_EQ(admission.QueueDepth(), 3u);
  EXPECT_EQ(ran.size(), 1u);

  admission.Release("a", 1);  // dispatches highest priority first
  admission.Release("a", 1);  // FIFO within the validation priority
  admission.Release("a", 1);
  admission.Release("a", 1);
  EXPECT_TRUE(sheds.empty());
  EXPECT_EQ(ran, (std::vector<std::string>{"first", "validate", "validate2",
                                           "explore"}));
  EXPECT_EQ(admission.QueueDepth(), 0u);
  EXPECT_EQ(admission.Running(), 0u);
}

TEST(AdmissionTest, FullQueueEvictsLowestPriorityYoungest) {
  AdmissionController::Options options;
  options.max_concurrent = 1;
  options.max_queued = 1;
  obs::MetricsRegistry metrics;
  options.metrics = &metrics;
  AdmissionController admission(options);

  std::vector<std::string> ran;
  std::vector<Status> shed_low;
  std::vector<Status> shed_high;
  admission.Submit(MakeWork("a", 0, 1, &ran, &shed_low, "running"));

  // Low-priority occupant of the single queue slot.
  admission.Submit(MakeWork("a", 0, 1, &ran, &shed_low, "explore"));
  EXPECT_EQ(admission.QueueDepth(), 1u);

  // A validation probe outranks it: the occupant is evicted with a typed
  // kResourceExhausted and the newcomer takes the slot.
  admission.Submit(MakeWork("a", 4, 1, &ran, &shed_high, "validate"));
  ASSERT_EQ(shed_low.size(), 1u);
  EXPECT_EQ(shed_low[0].code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(admission.QueueDepth(), 1u);

  // Another low-priority probe does not outrank the queued validation:
  // shed immediately, never queued.
  admission.Submit(MakeWork("a", 0, 1, &ran, &shed_low, "explore2"));
  ASSERT_EQ(shed_low.size(), 2u);
  EXPECT_EQ(shed_low[1].code(), StatusCode::kResourceExhausted);

  admission.Release("a", 1);
  EXPECT_EQ(ran, (std::vector<std::string>{"running", "validate"}));
  EXPECT_TRUE(shed_high.empty());
  admission.Release("a", 1);
}

TEST(AdmissionTest, TenantQuotasShedTypedAndRecoverOnRelease) {
  AdmissionController::Options options;
  options.max_inflight_per_tenant = 1;
  options.max_outstanding_bytes_per_tenant = 100;
  obs::MetricsRegistry metrics;
  options.metrics = &metrics;
  AdmissionController admission(options);

  std::vector<std::string> ran;
  std::vector<Status> sheds;
  admission.Submit(MakeWork("a", 0, 10, &ran, &sheds, "a1"));
  ASSERT_EQ(ran, std::vector<std::string>{"a1"});

  // Tenant a is at its concurrency quota; tenant b is unaffected.
  admission.Submit(MakeWork("a", 0, 10, &ran, &sheds, "a2"));
  ASSERT_EQ(sheds.size(), 1u);
  EXPECT_EQ(sheds[0].code(), StatusCode::kResourceExhausted);
  admission.Submit(MakeWork("b", 0, 10, &ran, &sheds, "b1"));
  EXPECT_EQ(ran, (std::vector<std::string>{"a1", "b1"}));

  // Releasing a's unit restores its quota...
  admission.Release("a", 10);
  admission.Submit(MakeWork("a", 0, 95, &ran, &sheds, "a3"));
  EXPECT_EQ(ran, (std::vector<std::string>{"a1", "b1", "a3"}));

  // ...but the byte quota still binds: 95 outstanding + 10 > 100.
  admission.Release("b", 10);
  admission.Submit(MakeWork("a", 0, 10, &ran, &sheds, "a4"));
  ASSERT_EQ(sheds.size(), 2u);
  EXPECT_EQ(sheds[1].code(), StatusCode::kResourceExhausted);
  admission.Release("a", 95);
  admission.Submit(MakeWork("a", 0, 10, &ran, &sheds, "a5"));
  EXPECT_EQ(ran.back(), "a5");
  admission.Release("a", 10);
}

// ---------------------------------------------------------------------------
// Admission + pipelining over the wire
// ---------------------------------------------------------------------------

TEST(NetAdmissionTest, QuotaShedReturnsResourceExhaustedOverWire) {
  ProbeServer::Options options;
  options.admission.max_concurrent = 1;
  options.admission.max_queued = 0;  // overload sheds immediately
  ServerFixture fx(options);
  ASSERT_TRUE(fx.db.ExecuteSql("CREATE TABLE slow (k BIGINT)").ok());
  std::string insert = "INSERT INTO slow VALUES (1)";
  for (int i = 1; i < 1200; ++i) insert += ",(1)";
  ASSERT_TRUE(fx.db.ExecuteSql(insert).ok());

  auto client = Client::Connect("127.0.0.1", fx.server->port());
  ASSERT_TRUE(client.ok());

  Probe slow;
  slow.id = 1;
  slow.agent_id = "greedy";
  slow.queries = {"SELECT COUNT(*) FROM slow a JOIN slow b ON a.k = b.k"};
  Probe quick;
  quick.id = 2;
  quick.agent_id = "greedy";
  quick.queries = {"SELECT 1"};

  // Both pipelined on one connection. The first occupies the single slot;
  // the second is shed with the typed code while the first is still running
  // — its (rejected) future completes out of order, before the slow one.
  auto first = (*client)->ProbeAsync(slow);
  auto second = (*client)->ProbeAsync(quick);

  auto rejected = second.get();
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);

  auto served = first.get();
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_GE(fx.Counter("af.admit.shed_overload"), 1u);
}

TEST(NetAdmissionTest, QueuedProbesDispatchExploitBeforeExploration) {
  ProbeServer::Options options;
  options.admission.max_concurrent = 1;
  options.admission.max_queued = 4;
  ServerFixture fx(options);
  ASSERT_TRUE(fx.db.ExecuteSql("CREATE TABLE slow (k BIGINT)").ok());
  std::string insert = "INSERT INTO slow VALUES (1)";
  for (int i = 1; i < 1500; ++i) insert += ",(1)";
  ASSERT_TRUE(fx.db.ExecuteSql(insert).ok());

  auto client = Client::Connect("127.0.0.1", fx.server->port(), ManualClient());
  ASSERT_TRUE(client.ok());

  auto probe_frame = [](uint64_t corr, ProbePhase phase,
                        const std::string& sql) {
    Probe probe;
    probe.id = corr;
    probe.agent_id = "phased";
    probe.queries = {sql};
    probe.brief.phase = phase;
    auto frame = EncodeProbeRequestFrame(corr, probe);
    EXPECT_TRUE(frame.ok());
    return *frame;
  };

  // One slow probe takes the slot; then a cold exploration probe and a
  // validation probe arrive, in that order, and both queue. The validation
  // probe must dispatch (and therefore answer) first.
  std::string burst;
  burst += probe_frame(
      1, ProbePhase::kUnspecified,
      "SELECT COUNT(*) FROM slow a JOIN slow b ON a.k = b.k");
  burst += probe_frame(2, ProbePhase::kMetadataExploration, "SELECT 1");
  burst += probe_frame(3, ProbePhase::kValidation, "SELECT 2");
  ASSERT_TRUE((*client)->SendRawForTest(burst).ok());

  std::vector<uint64_t> order;
  for (int i = 0; i < 3; ++i) {
    auto frame = (*client)->ReadFrameForTest();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    ASSERT_EQ(frame->first, FrameType::kProbeResponse);
    auto decoded = DecodeProbeResponsePayload(frame->second);
    ASSERT_TRUE(decoded.ok());
    EXPECT_TRUE(decoded->status.ok()) << decoded->status.ToString();
    order.push_back(decoded->corr);
  }
  EXPECT_EQ(order, (std::vector<uint64_t>{1, 3, 2}));
  EXPECT_GE(fx.Counter("af.admit.queued"), 2u);
}

TEST(NetClientTest, PipelinedCallsCompleteOutOfOrder) {
  ServerFixture fx;
  ASSERT_TRUE(fx.db.ExecuteSql("CREATE TABLE slow (k BIGINT)").ok());
  std::string insert = "INSERT INTO slow VALUES (1)";
  for (int i = 1; i < 1500; ++i) insert += ",(1)";
  ASSERT_TRUE(fx.db.ExecuteSql(insert).ok());

  auto client = Client::Connect("127.0.0.1", fx.server->port());
  ASSERT_TRUE(client.ok());

  // The slow join goes out first; the cheap calls behind it on the same
  // connection must not wait for it (the server runs them on other pool
  // threads and the client pairs responses by correlation id).
  auto slow = (*client)->ExecuteSqlAsync(
      "SELECT COUNT(*) FROM slow a JOIN slow b ON a.k = b.k");
  auto quick = (*client)->ExecuteSqlAsync("SELECT 41 + 1");
  auto echo = (*client)->PingAsync("overtake");

  auto quick_result = quick.get();
  ASSERT_TRUE(quick_result.ok()) << quick_result.status().ToString();
  EXPECT_EQ((*quick_result)->rows[0][0].int_value(), 42);
  auto echoed = echo.get();
  ASSERT_TRUE(echoed.ok());
  EXPECT_EQ(*echoed, "overtake");
  // The cheap responses overtook the join: it is typically still running
  // when they resolve, and it must still complete correctly afterwards.
  auto slow_result = slow.get();
  ASSERT_TRUE(slow_result.ok()) << slow_result.status().ToString();
  EXPECT_EQ((*slow_result)->rows[0][0].int_value(), 1500ll * 1500ll);
}

// ---------------------------------------------------------------------------
// Scripted-probe byte parity, in-process vs over-the-wire, 1/2/4/8 sessions
// ---------------------------------------------------------------------------

/// Optimizer options that make probe handling a pure function of the probe:
/// cross-probe couplings off, tracing on with a fixed seed, no deadlines
/// (durations are the one wall-clock part of a response, and Render(false)
/// hides them — but a deadline could change *structure*).
AgentFirstSystem::Options PureFunctionOptions() {
  AgentFirstSystem::Options options;
  options.optimizer.enable_memory = false;
  options.optimizer.enable_steering = false;
  options.optimizer.materialization_threshold = 0;
  options.optimizer.invest_threshold = 0;
  options.optimizer.auto_index_threshold = 0;
  options.optimizer.enable_tracing = true;
  options.optimizer.trace_seed = 0xaf;
  return options;
}

void SeedParityTables(ProbeService* svc) {
  ASSERT_TRUE(
      svc->ExecuteSql(
             "CREATE TABLE stores (store_id BIGINT, city VARCHAR)")
          .ok());
  ASSERT_TRUE(svc->ExecuteSql(
                     "INSERT INTO stores VALUES (1,'Berkeley'),(2,'Oakland'),"
                     "(3,'Seattle'),(4,'Portland')")
                  .ok());
  ASSERT_TRUE(svc->ExecuteSql(
                     "CREATE TABLE sales (store_id BIGINT, revenue DOUBLE)")
                  .ok());
  ASSERT_TRUE(svc->ExecuteSql(
                     "INSERT INTO sales VALUES (1,10.5),(1,20.0),(2,7.25),"
                     "(3,100.0),(4,1.0),(4,2.0)")
                  .ok());
}

/// The probe script one session runs: ids are globally unique per (session,
/// step) so server-side id assignment never kicks in.
std::vector<Probe> SessionScript(size_t session) {
  std::vector<Probe> script;
  const char* queries[] = {
      "SELECT city FROM stores ORDER BY store_id",
      "SELECT SUM(revenue) FROM sales",
      "SELECT s.city, SUM(x.revenue) FROM stores s JOIN sales x "
      "ON s.store_id = x.store_id GROUP BY s.city ORDER BY s.city",
      "SELECT COUNT(*) FROM sales WHERE revenue > 5.0",
  };
  for (size_t step = 0; step < 4; ++step) {
    Probe probe;
    probe.id = 1000 * (session + 1) + step;
    probe.agent_id = "parity-" + std::to_string(session);
    probe.queries = {queries[step], queries[(step + 1) % 4]};
    probe.brief.text = "scripted parity step " + std::to_string(step);
    script.push_back(std::move(probe));
  }
  return script;
}

/// Everything an agent can observe in a response, rendered to one string:
/// every answer field, every row, and the deterministic trace rendering.
std::string Canonical(const ProbeResponse& r) {
  std::string out = "probe=" + std::to_string(r.probe_id) +
                    " phase=" + std::to_string(int(r.interpreted_phase)) +
                    " est=" + std::to_string(r.total_estimated_cost) +
                    " exec=" + std::to_string(r.total_executed_cost) +
                    " retries=" + std::to_string(r.total_retries) +
                    " shed=" + std::to_string(r.shed) + "\n";
  for (const QueryAnswer& a : r.answers) {
    out += "answer sql=" + a.sql + " status=" + a.status.ToString() +
           " skipped=" + std::to_string(a.skipped) + ":" + a.skip_reason +
           " approx=" + std::to_string(a.approximate) + "@" +
           std::to_string(a.sample_rate) +
           " mem=" + std::to_string(a.from_memory) +
           " trunc=" + std::to_string(a.truncated) +
           " retries=" + std::to_string(a.retries) + "\n";
    if (a.result != nullptr) out += a.result->ToString(1u << 20);
    out += "plan=" + a.plan_text + "\n";
  }
  for (const Hint& h : r.hints) {
    out += "hint " + std::to_string(int(h.kind)) + " " + h.text + "\n";
  }
  for (const SemanticMatch& m : r.discoveries) {
    out += "match " + std::to_string(int(m.kind)) + " " + m.table + "." +
           m.column + "=" + m.text + "\n";
  }
  out += r.trace.Render(/*include_durations=*/false);
  return out;
}

TEST(NetParityTest, ScriptedProbesMatchInProcessAtManySessionCounts) {
  for (size_t sessions : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    SCOPED_TRACE("sessions=" + std::to_string(sessions));

    // Reference: identical system, scripts run in-process, sequentially.
    AgentFirstSystem reference(PureFunctionOptions());
    SeedParityTables(&reference);
    std::vector<std::vector<std::string>> want(sessions);
    for (size_t s = 0; s < sessions; ++s) {
      for (Probe& probe : SessionScript(s)) {
        auto response = reference.HandleProbe(probe);
        ASSERT_TRUE(response.ok()) << response.status().ToString();
        want[s].push_back(Canonical(*response));
      }
    }

    // Subject: identical system served over TCP, scripts run concurrently
    // from `sessions` clients on the shared pool.
    AgentFirstSystem served(PureFunctionOptions());
    SeedParityTables(&served);
    obs::MetricsRegistry metrics;
    ProbeServer::Options options;
    options.metrics = &metrics;
    ProbeServer server(&served, options);
    ASSERT_TRUE(server.Start().ok());

    std::vector<std::vector<std::string>> got(sessions);
    std::atomic<int> failures{0};
    {
      ThreadPool pool(sessions);
      pool.ParallelFor(
          0, sessions,
          [&](size_t begin, size_t end) {
            for (size_t s = begin; s < end; ++s) {
              auto client = Client::Connect("127.0.0.1", server.port());
              if (!client.ok()) {
                failures.fetch_add(1);
                continue;
              }
              for (Probe& probe : SessionScript(s)) {
                auto response = (*client)->HandleProbe(probe);
                if (!response.ok()) {
                  failures.fetch_add(1);
                  break;
                }
                got[s].push_back(Canonical(*response));
              }
            }
          },
          /*grain=*/1, sessions);
    }
    server.Stop();

    ASSERT_EQ(failures.load(), 0);
    for (size_t s = 0; s < sessions; ++s) {
      ASSERT_EQ(got[s].size(), want[s].size());
      for (size_t i = 0; i < want[s].size(); ++i) {
        EXPECT_EQ(got[s][i], want[s][i])
            << "session " << s << " step " << i;
      }
    }
  }
}

TEST(NetParityTest, MultiLoopServerPreservesByteParity) {
  // Same methodology as above, but the subject shards its sessions across
  // 1, 2, and 4 event loops: loop assignment must be invisible in every
  // response byte.
  const size_t sessions = 4;
  AgentFirstSystem reference(PureFunctionOptions());
  SeedParityTables(&reference);
  std::vector<std::vector<std::string>> want(sessions);
  for (size_t s = 0; s < sessions; ++s) {
    for (Probe& probe : SessionScript(s)) {
      auto response = reference.HandleProbe(probe);
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      want[s].push_back(Canonical(*response));
    }
  }

  for (size_t loops : {size_t{1}, size_t{2}, size_t{4}}) {
    SCOPED_TRACE("loops=" + std::to_string(loops));
    AgentFirstSystem served(PureFunctionOptions());
    SeedParityTables(&served);
    obs::MetricsRegistry metrics;
    ProbeServer::Options options;
    options.metrics = &metrics;
    options.num_loops = loops;
    ProbeServer server(&served, options);
    ASSERT_TRUE(server.Start().ok());
    ASSERT_EQ(server.NumLoops(), loops);

    std::vector<std::vector<std::string>> got(sessions);
    std::atomic<int> failures{0};
    {
      ThreadPool pool(sessions);
      pool.ParallelFor(
          0, sessions,
          [&](size_t begin, size_t end) {
            for (size_t s = begin; s < end; ++s) {
              auto client = Client::Connect("127.0.0.1", server.port());
              if (!client.ok()) {
                failures.fetch_add(1);
                continue;
              }
              for (Probe& probe : SessionScript(s)) {
                auto response = (*client)->HandleProbe(probe);
                if (!response.ok()) {
                  failures.fetch_add(1);
                  break;
                }
                got[s].push_back(Canonical(*response));
              }
            }
          },
          /*grain=*/1, sessions);
    }
    server.Stop();

    ASSERT_EQ(failures.load(), 0);
    for (size_t s = 0; s < sessions; ++s) {
      ASSERT_EQ(got[s].size(), want[s].size());
      for (size_t i = 0; i < want[s].size(); ++i) {
        EXPECT_EQ(got[s][i], want[s][i]) << "session " << s << " step " << i;
      }
    }
  }
}

TEST(NetParityTest, BatchOverWireMatchesInProcess) {
  AgentFirstSystem reference(PureFunctionOptions());
  SeedParityTables(&reference);
  AgentFirstSystem served(PureFunctionOptions());
  SeedParityTables(&served);
  ProbeServer server(&served, {});
  ASSERT_TRUE(server.Start().ok());

  auto make_batch = [] {
    std::vector<Probe> batch;
    for (size_t s : {size_t{0}, size_t{1}}) {
      for (Probe& probe : SessionScript(s)) batch.push_back(std::move(probe));
    }
    return batch;
  };
  auto want = reference.HandleProbeBatch(make_batch());
  ASSERT_TRUE(want.ok());

  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  auto got = (*client)->HandleProbeBatch(make_batch());
  ASSERT_TRUE(got.ok()) << got.status().ToString();

  ASSERT_EQ(got->size(), want->size());
  for (size_t i = 0; i < want->size(); ++i) {
    EXPECT_EQ(Canonical((*got)[i]), Canonical((*want)[i])) << "probe " << i;
  }
  server.Stop();
}

// ---------------------------------------------------------------------------
// Sim-agent fleet over RemoteAgent
// ---------------------------------------------------------------------------

TEST(NetFleetTest, FleetEpisodesMatchInProcessAtManySessionCounts) {
  MiniBirdOptions mb;
  mb.num_databases = 1;
  mb.rows_per_fact_table = 200;
  mb.rows_per_dim_table = 16;
  mb.seed = 11;
  // Same purity requirement as the scripted parity test: concurrent
  // sessions must not couple through memory/steering/advisor state.
  mb.system_options = PureFunctionOptions();

  for (size_t sessions : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    SCOPED_TRACE("sessions=" + std::to_string(sessions));

    auto ref_suite = GenerateMiniBird(mb);
    ASSERT_FALSE(ref_suite.empty());
    ASSERT_FALSE(ref_suite[0].tasks.empty());
    const size_t num_tasks = ref_suite[0].tasks.size();

    // Reference: each "session" runs one episode in-process, sequentially.
    std::vector<EpisodeResult> want;
    for (size_t s = 0; s < sessions; ++s) {
      const TaskSpec& task = ref_suite[0].tasks[s % num_tasks];
      EpisodeOptions options;
      options.seed = 100 + s;
      options.use_steering = false;  // steering is disabled in the optimizer
      want.push_back(RunEpisode(ref_suite[0].system.get(), task,
                                StrongAgentProfile(), options));
    }

    // Subject: an identical suite served over TCP; each session is its own
    // RemoteAgent connection running the same episode concurrently.
    auto net_suite = GenerateMiniBird(mb);
    ProbeServer server(net_suite[0].system.get(), {});
    ASSERT_TRUE(server.Start().ok());

    std::vector<EpisodeResult> got(sessions);
    std::atomic<int> failures{0};
    {
      ThreadPool pool(sessions);
      pool.ParallelFor(
          0, sessions,
          [&](size_t begin, size_t end) {
            for (size_t s = begin; s < end; ++s) {
              auto agent = RemoteAgent::Connect("127.0.0.1", server.port());
              if (!agent.ok()) {
                failures.fetch_add(1);
                continue;
              }
              const TaskSpec& task = net_suite[0].tasks[s % num_tasks];
              EpisodeOptions options;
              options.seed = 100 + s;
              options.use_steering = false;
              got[s] = RunEpisode(agent->get(), task, StrongAgentProfile(),
                                  options);
            }
          },
          /*grain=*/1, sessions);
    }
    server.Stop();
    ASSERT_EQ(failures.load(), 0);

    for (size_t s = 0; s < sessions; ++s) {
      SCOPED_TRACE("session " + std::to_string(s));
      EXPECT_EQ(got[s].solved, want[s].solved);
      EXPECT_EQ(got[s].committed_wrong, want[s].committed_wrong);
      EXPECT_EQ(got[s].turns_used, want[s].turns_used);
      EXPECT_EQ(got[s].solved_at_turn, want[s].solved_at_turn);
      EXPECT_EQ(got[s].probes_issued, want[s].probes_issued);
      ASSERT_EQ(got[s].trace.size(), want[s].trace.size());
      for (size_t i = 0; i < want[s].trace.size(); ++i) {
        EXPECT_EQ(got[s].trace[i].activity, want[s].trace[i].activity);
        EXPECT_EQ(got[s].trace[i].turn, want[s].trace[i].turn);
      }
      if (want[s].final_answer != nullptr) {
        ASSERT_NE(got[s].final_answer, nullptr);
        EXPECT_EQ(got[s].final_answer->ToString(1u << 20),
                  want[s].final_answer->ToString(1u << 20));
      } else {
        EXPECT_EQ(got[s].final_answer, nullptr);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Disconnect-as-cancellation and backpressure
// ---------------------------------------------------------------------------

TEST(NetServerTest, DisconnectCancelsInflightProbes) {
  ServerFixture fx;
  // A join with a hot key: 1500 x 1500 matches keeps the executor busy far
  // longer than one event-loop iteration.
  std::string insert = "INSERT INTO big VALUES (0)";
  for (int i = 1; i < 1500; ++i) insert += ",(0)";
  ASSERT_TRUE(fx.db.ExecuteSql("CREATE TABLE big (k BIGINT)").ok());
  ASSERT_TRUE(fx.db.ExecuteSql(insert).ok());

  auto client = Client::Connect("127.0.0.1", fx.server->port(), ManualClient());
  ASSERT_TRUE(client.ok());
  Probe probe;
  probe.agent_id = "quitter";
  probe.queries = {
      "SELECT COUNT(*) FROM big a JOIN big b ON a.k = b.k"};
  auto frame = EncodeProbeRequestFrame(1, probe);
  ASSERT_TRUE(frame.ok());
  ASSERT_TRUE((*client)->SendRawForTest(*frame).ok());

  // Wait until the probe is actually executing, then hang up.
  for (int i = 0; i < 2000; ++i) {
    obs::Counter* probes = fx.metrics.GetCounter("af.net.probes");
    if (probes != nullptr && probes->value() >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  (*client)->Close();

  // The abandoned probe must be counted cancelled (either it was still
  // running when the hangup landed, or its response was dropped on the
  // closed session — both count as cancelled work).
  bool cancelled = false;
  for (int i = 0; i < 5000 && !cancelled; ++i) {
    cancelled = fx.Counter("af.net.probes_cancelled") >= 1;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(cancelled);

  // The server is unharmed: new sessions work.
  auto again = Client::Connect("127.0.0.1", fx.server->port());
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE((*again)->ExecuteSql("SELECT COUNT(*) FROM big").ok());
}

TEST(NetServerTest, InflightCapBackpressuresAndPreservesOrder) {
  ProbeServer::Options options;
  options.max_inflight_per_session = 1;
  ServerFixture fx(options);
  ASSERT_TRUE(fx.db.ExecuteSql("CREATE TABLE t (id BIGINT)").ok());
  ASSERT_TRUE(fx.db.ExecuteSql("INSERT INTO t VALUES (1),(2),(3)").ok());
  // A single-key self-join gives the first request enough work (~160k row
  // pairs) that the session is still at its cap when the event loop next
  // looks, so the stall is observed deterministically instead of racing a
  // trivial query against the loop iteration.
  ASSERT_TRUE(fx.db.ExecuteSql("CREATE TABLE slow (k BIGINT)").ok());
  for (int chunk = 0; chunk < 4; ++chunk) {
    std::string insert = "INSERT INTO slow VALUES (1)";
    for (int i = 1; i < 100; ++i) insert += ",(1)";
    ASSERT_TRUE(fx.db.ExecuteSql(insert).ok());
  }

  auto client = Client::Connect("127.0.0.1", fx.server->port(), ManualClient());
  ASSERT_TRUE(client.ok());

  // Three SQL requests back-to-back without reading: past the inflight cap
  // the server stops reading this session until responses drain.
  std::string burst;
  burst += EncodeSqlRequestFrame(
      1, "SELECT COUNT(*) FROM slow a JOIN slow b ON a.k = b.k");
  burst += EncodeSqlRequestFrame(2, "SELECT MAX(id) FROM t");
  burst += EncodeSqlRequestFrame(3, "SELECT MIN(id) FROM t");
  ASSERT_TRUE((*client)->SendRawForTest(burst).ok());

  for (uint64_t corr = 1; corr <= 3; ++corr) {
    auto frame = (*client)->ReadFrameForTest();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    ASSERT_EQ(frame->first, FrameType::kSqlResponse);
    auto decoded = DecodeSqlResponsePayload(frame->second);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->corr, corr) << "responses must keep request order";
    EXPECT_TRUE(decoded->status.ok()) << decoded->status.ToString();
  }
  EXPECT_GE(fx.Counter("af.net.backpressure_stalls"), 1u);
}

TEST(NetServerTest, OutboxByteCapBackpressures) {
  ProbeServer::Options options;
  options.max_outbox_bytes_per_session = 1;  // any queued response is "full"
  ServerFixture fx(options);
  auto client = Client::Connect("127.0.0.1", fx.server->port(), ManualClient());
  ASSERT_TRUE(client.ok());

  std::string big(64 * 1024, 'x');
  ASSERT_TRUE((*client)->SendRawForTest(EncodePingFrame(big)).ok());
  ASSERT_TRUE((*client)->SendRawForTest(EncodePingFrame("tail")).ok());

  auto a = (*client)->ReadFrameForTest();
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->first, FrameType::kPong);
  auto b = (*client)->ReadFrameForTest();
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->first, FrameType::kPong);
  WireReader r(b->second);
  std::string echoed;
  ASSERT_TRUE(r.Str(&echoed).ok());
  EXPECT_EQ(echoed, "tail");

  EXPECT_GE(fx.Counter("af.net.backpressure_stalls"), 1u);
}

TEST(NetServerTest, StopWithLiveSessionsDrainsCleanly) {
  ServerFixture fx;
  auto client = Client::Connect("127.0.0.1", fx.server->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->ExecuteSql("SELECT 1").ok());
  fx.server->Stop();
  EXPECT_EQ(fx.server->NumSessions(), 0u);
  // The client observes the close on its next read.
  auto after = (*client)->ExecuteSql("SELECT 1");
  EXPECT_FALSE(after.ok());
}

}  // namespace
}  // namespace net
}  // namespace agentfirst
