// Telemetry spine tests: metrics registry (concurrency, histogram bucket
// math, kind binding), unified resource limits (merge rule + deprecated
// alias folding), trace primitives (seeded span ids, deterministic
// rendering), and the end-to-end guarantees — fixed-seed probe batches
// produce byte-identical span trees across thread counts, and every
// skipped / truncated / shed answer explains itself inside
// ProbeResponse::trace.

#include "obs/metrics.h"

#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/limits.h"
#include "common/thread_pool.h"
#include "core/probe.h"
#include "core/probe_builder.h"
#include "core/system.h"
#include "gtest/gtest.h"
#include "obs/trace.h"
#include "test_util.h"
#include "workload/minibird.h"

namespace agentfirst {
namespace {

// ---------------------------------------------------------------------------
// Histogram bucket math
// ---------------------------------------------------------------------------

TEST(HistogramTest, BucketIndexIsBitWidth) {
  using H = obs::Histogram;
  EXPECT_EQ(H::BucketIndex(0), 0u);
  EXPECT_EQ(H::BucketIndex(1), 1u);
  EXPECT_EQ(H::BucketIndex(2), 2u);
  EXPECT_EQ(H::BucketIndex(3), 2u);
  EXPECT_EQ(H::BucketIndex(4), 3u);
  EXPECT_EQ(H::BucketIndex(7), 3u);
  EXPECT_EQ(H::BucketIndex(8), 4u);
  EXPECT_EQ(H::BucketIndex(1023), 10u);
  EXPECT_EQ(H::BucketIndex(1024), 11u);
  // Values beyond the bucket range clamp into the last bucket.
  EXPECT_EQ(H::BucketIndex(~0ull), H::kNumBuckets - 1);
}

TEST(HistogramTest, BucketUpperBoundsMatchIndexing) {
  using H = obs::Histogram;
  EXPECT_EQ(H::BucketUpperBound(0), 0u);
  EXPECT_EQ(H::BucketUpperBound(1), 1u);
  EXPECT_EQ(H::BucketUpperBound(2), 3u);
  EXPECT_EQ(H::BucketUpperBound(10), 1023u);
  // Every bucket's upper bound indexes back into that bucket.
  for (size_t i = 0; i < H::kNumBuckets; ++i) {
    EXPECT_EQ(H::BucketIndex(H::BucketUpperBound(i)), i) << "bucket " << i;
  }
}

TEST(HistogramTest, RecordAccumulatesSumCountAndPercentiles) {
  obs::Histogram h;
  EXPECT_EQ(h.ValueAtPercentile(50.0), 0u);  // empty histogram
  for (uint64_t v = 0; v < 1000; ++v) h.Record(v);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.sum(), 499500u);
  EXPECT_DOUBLE_EQ(h.mean(), 499.5);
  // The 500th sample (value 499) lives in bucket 9 = [256, 512).
  EXPECT_EQ(h.ValueAtPercentile(50.0), 511u);
  EXPECT_EQ(h.ValueAtPercentile(100.0), 1023u);
  EXPECT_EQ(h.ValueAtPercentile(0.0), 0u);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, NameBindsToFirstKind) {
  obs::MetricsRegistry registry;
  ASSERT_NE(registry.GetCounter("c"), nullptr);
  EXPECT_EQ(registry.GetGauge("c"), nullptr);
  EXPECT_EQ(registry.GetHistogram("c"), nullptr);
  ASSERT_NE(registry.GetGauge("g"), nullptr);
  EXPECT_EQ(registry.GetCounter("g"), nullptr);
  // Same-kind re-registration returns the identical pointer.
  EXPECT_EQ(registry.GetCounter("c"), registry.GetCounter("c"));
}

TEST(MetricsRegistryTest, SnapshotIsSortedAndResetZeroes) {
  obs::MetricsRegistry registry;
  registry.GetCounter("z.last")->Add(5);
  registry.GetGauge("a.first")->Set(-2);
  registry.GetHistogram("m.mid_us")->Record(9);
  auto snap = registry.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "a.first");
  EXPECT_EQ(snap[1].name, "m.mid_us");
  EXPECT_EQ(snap[2].name, "z.last");
  EXPECT_EQ(snap[0].gauge, -2);
  EXPECT_EQ(snap[2].count, 5u);
  registry.Reset();
  EXPECT_EQ(registry.GetCounter("z.last")->value(), 0u);
  EXPECT_EQ(registry.GetGauge("a.first")->value(), 0);
  EXPECT_EQ(registry.GetHistogram("m.mid_us")->count(), 0u);
}

TEST(MetricsRegistryTest, RenderTextAndJsonContainEveryMetric) {
  obs::MetricsRegistry registry;
  registry.GetCounter("hits")->Add(3);
  registry.GetGauge("depth")->Set(7);
  registry.GetHistogram("lat_us")->Record(100);
  std::string text = registry.RenderText();
  EXPECT_NE(text.find("hits counter 3"), std::string::npos) << text;
  EXPECT_NE(text.find("depth gauge 7"), std::string::npos) << text;
  EXPECT_NE(text.find("lat_us histogram count=1"), std::string::npos) << text;
  std::string json = registry.RenderJson();
  EXPECT_NE(json.find("\"name\": \"hits\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"kind\": \"histogram\""), std::string::npos) << json;
}

/// Concurrent registration + updates on the shared pool at 1/2/4/8 threads:
/// no lost increments, stable pointers, a single registration per name.
TEST(MetricsRegistryTest, ConcurrentRegistrationAndUpdates) {
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    obs::MetricsRegistry registry;
    ThreadPool pool(threads);
    constexpr size_t kTasks = 64;
    constexpr size_t kIncrements = 5000;
    pool.ParallelFor(
        0, kTasks,
        [&](size_t begin, size_t end) {
          for (size_t t = begin; t < end; ++t) {
            obs::Counter* shared =
                registry.GetCounter("shared." + std::to_string(t % 8));
            obs::Counter* mine =
                registry.GetCounter("unique." + std::to_string(t));
            for (size_t i = 0; i < kIncrements; ++i) shared->Increment();
            mine->Add(1);
            // The registry hands back the same pointer on re-lookup.
            ASSERT_EQ(registry.GetCounter("unique." + std::to_string(t)),
                      mine);
          }
        },
        /*grain=*/1, threads);
    uint64_t total = 0;
    for (size_t s = 0; s < 8; ++s) {
      total += registry.GetCounter("shared." + std::to_string(s))->value();
    }
    EXPECT_EQ(total, kTasks * kIncrements);
    EXPECT_EQ(registry.Snapshot().size(), 8u + kTasks);
  }
}

// ---------------------------------------------------------------------------
// Unified resource limits
// ---------------------------------------------------------------------------

TEST(ResourceLimitsTest, MergedOverFillsOnlyUnsetFields) {
  ResourceLimits brief;
  brief.DeadlineMillis(50.0).MaxRows(100);
  ResourceLimits defaults;
  defaults.DeadlineMillis(1000.0).MaxBytes(4096).CostBudget(2e4);
  ResourceLimits merged = brief.MergedOver(defaults);
  EXPECT_DOUBLE_EQ(merged.deadline->count(), 50.0);  // brief wins
  EXPECT_EQ(*merged.max_rows, 100u);                 // brief-only field kept
  EXPECT_EQ(*merged.max_bytes, 4096u);               // filled from defaults
  EXPECT_DOUBLE_EQ(*merged.cost_budget, 2e4);        // filled from defaults
}

TEST(ResourceLimitsTest, ZeroDeadlineIsSetNotUnset) {
  // 0 means "expires immediately", not "no deadline": merging must not
  // replace it with the fallback.
  ResourceLimits brief;
  brief.DeadlineMillis(0.0);
  ResourceLimits defaults;
  defaults.DeadlineMillis(500.0);
  EXPECT_DOUBLE_EQ(brief.MergedOver(defaults).deadline->count(), 0.0);
}

TEST(ResourceLimitsTest, UnboundedAndFallbackAccessors) {
  ResourceLimits limits;
  EXPECT_TRUE(limits.Unbounded());
  EXPECT_DOUBLE_EQ(limits.deadline_millis_or(-1.0), -1.0);
  limits.DeadlineMillis(2.5);
  EXPECT_FALSE(limits.Unbounded());
  EXPECT_DOUBLE_EQ(limits.deadline_millis_or(-1.0), 2.5);
}

TEST(ResourceLimitsTest, BriefLimitsAreTheOnlyLimitsChannel) {
  // PR 9 deleted the deprecated alias fields; a Brief's resource envelope is
  // exactly its `limits` member, merged field-by-field over the optimizer's
  // defaults by the documented rule.
  Brief brief;
  brief.limits.DeadlineMillis(75.0).MaxRows(42).CostBudget(900.0);
  ResourceLimits defaults;
  defaults.DeadlineMillis(500.0);
  defaults.max_bytes = 1 << 20;
  ResourceLimits merged = brief.limits.MergedOver(defaults);
  EXPECT_DOUBLE_EQ(merged.deadline->count(), 75.0);  // brief wins
  EXPECT_EQ(*merged.max_rows, 42u);
  EXPECT_DOUBLE_EQ(*merged.cost_budget, 900.0);
  EXPECT_EQ(*merged.max_bytes, 1u << 20);  // default fills the gap
}

TEST(ProbeBuilderTest, BuildsLimitsAndQueries) {
  Probe probe = ProbeBuilder("agent-7")
                    .Query("SELECT 1")
                    .Query("SELECT 2")
                    .Brief("verify exactly")
                    .DeadlineMillis(30.0)
                    .MaxRows(10)
                    .SemanticSearch("coffee", /*top_k=*/3)
                    .Build();
  EXPECT_EQ(probe.agent_id, "agent-7");
  ASSERT_EQ(probe.queries.size(), 2u);
  EXPECT_EQ(probe.brief.text, "verify exactly");
  EXPECT_DOUBLE_EQ(probe.brief.limits.deadline->count(), 30.0);
  EXPECT_EQ(*probe.brief.limits.max_rows, 10u);
  EXPECT_EQ(probe.semantic_search_phrase, "coffee");
  EXPECT_EQ(*probe.semantic_top_k, 3u);
}

// ---------------------------------------------------------------------------
// Trace primitives
// ---------------------------------------------------------------------------

TEST(TraceTest, SpanIdsAreSeededAndDeterministic) {
  auto build = [] {
    obs::TraceSpan root;
    root.name = "probe";
    obs::TraceSpan* q = root.AddChild("query[0]");
    q->AddChild("plan");
    q->AddChild("exec");
    root.AddChild("finalize");
    return root;
  };
  obs::TraceSpan a = build();
  obs::TraceSpan b = build();
  obs::AssignSpanIds(&a, /*seed=*/42);
  obs::AssignSpanIds(&b, /*seed=*/42);
  EXPECT_EQ(a.Render(false), b.Render(false));
  EXPECT_NE(a.id, 0u);
  // A different seed moves every id.
  obs::TraceSpan c = build();
  obs::AssignSpanIds(&c, /*seed=*/43);
  EXPECT_NE(a.id, c.id);
  EXPECT_NE(a.Render(false), c.Render(false));
}

TEST(TraceTest, RenderExcludesDurationsWhenAskedAndFindsNotes) {
  obs::TraceSpan root;
  root.name = "probe";
  obs::TraceSpan* q = root.AddChild("query[0]");
  q->AddNote("skip", "satisficing");
  q->duration_ms = 12.5;
  std::string with = root.Render(true);
  std::string without = root.Render(false);
  EXPECT_NE(with.find("ms"), std::string::npos);
  EXPECT_EQ(without.find("ms"), std::string::npos);
  EXPECT_NE(without.find("skip=satisficing"), std::string::npos) << without;
  ASSERT_NE(root.Find("query[0]"), nullptr);
  EXPECT_EQ(root.Find("nope"), nullptr);
  EXPECT_EQ(root.FindNote("skip"), "satisficing");
  EXPECT_EQ(root.FindNote("absent"), "");
}

// ---------------------------------------------------------------------------
// End-to-end: deterministic probe span trees
// ---------------------------------------------------------------------------

/// Renders every response's span tree (durations excluded) for a fixed-seed
/// MiniBird-derived probe batch run at `parallelism`.
std::string BatchTraceRendering(size_t parallelism) {
  MiniBirdOptions mb;
  mb.num_databases = 1;
  mb.rows_per_fact_table = 400;
  mb.rows_per_dim_table = 16;
  mb.seed = 20260805;
  // Distinct gold queries per task keep every probe's plan unique: with the
  // memory store off, no span can depend on which probe happened to execute
  // first.
  mb.system_options.optimizer.enable_memory = false;
  mb.system_options.optimizer.batch_parallelism = parallelism;
  mb.system_options.optimizer.trace_seed = 0xfeedbeef;
  auto dbs = GenerateMiniBird(mb);
  if (dbs.empty()) return "<no databases>";
  AgentFirstSystem& db = *dbs[0].system;

  std::vector<Probe> probes;
  for (const TaskSpec& task : dbs[0].tasks) {
    probes.push_back(ProbeBuilder("agent-" + task.id)
                         .Query(task.gold_sql)
                         .Brief("validating candidate answer for: " +
                                task.question)
                         .Build());
  }
  auto responses = db.HandleProbeBatch(probes);
  if (!responses.ok()) return "<batch failed>";
  std::string out;
  for (const ProbeResponse& r : *responses) {
    out += r.trace.Render(/*include_durations=*/false);
    out += "----\n";
  }
  return out;
}

TEST(TraceDeterminismTest, SpanTreesByteIdenticalAcrossThreadCounts) {
  std::string baseline = BatchTraceRendering(1);
  ASSERT_NE(baseline.find("probe#"), std::string::npos) << baseline;
  ASSERT_NE(baseline.find("interpret#"), std::string::npos);
  ASSERT_NE(baseline.find("admit#"), std::string::npos);
  ASSERT_NE(baseline.find("finalize#"), std::string::npos);
  for (size_t parallelism : {size_t{2}, size_t{4}, size_t{8}}) {
    EXPECT_EQ(BatchTraceRendering(parallelism), baseline)
        << "trace diverged at batch_parallelism=" << parallelism;
  }
  // And across repeated runs at the same parallelism.
  EXPECT_EQ(BatchTraceRendering(4), baseline);
}

// ---------------------------------------------------------------------------
// End-to-end: every skip / truncate / shed reason is in the trace
// ---------------------------------------------------------------------------

class TraceReasonsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    system_ = std::make_unique<AgentFirstSystem>(MakeOptions());
    testing_util::BuildPeopleDb(system_->engine());
  }

  virtual AgentFirstSystem::Options MakeOptions() { return {}; }

  ProbeResponse Handle(Probe probe) {
    auto r = system_->HandleProbe(probe);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? *r : ProbeResponse{};
  }

  std::unique_ptr<AgentFirstSystem> system_;
};

TEST_F(TraceReasonsTest, SatisficingSkipReasonAppearsInTrace) {
  Probe probe = ProbeBuilder("a1")
                    .Query("SELECT count(*) FROM people WHERE city = 'berkeley'")
                    .Query("SELECT count(*) FROM people WHERE city = 'oakland'")
                    .KOfN(1)
                    .Build();
  ProbeResponse r = Handle(probe);
  // k-of-n satisficing skips whichever query the admission ordering deemed
  // redundant; one of the two query spans must carry the reason.
  bool found = false;
  for (const char* name : {"query[0]", "query[1]"}) {
    const obs::TraceSpan* span = r.trace.Find(name);
    ASSERT_NE(span, nullptr) << r.trace.Render(false);
    if (span->FindNote("skip").find("satisficing") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << r.trace.Render(false);
}

TEST_F(TraceReasonsTest, TruncationReasonAppearsInTrace) {
  Probe probe = ProbeBuilder("a1")
                    .Query("SELECT * FROM people")
                    .Brief("verify the final answer exactly")
                    .MaxRows(2)
                    .Build();
  ProbeResponse r = Handle(probe);
  ASSERT_EQ(r.answers.size(), 1u);
  ASSERT_TRUE(r.answers[0].truncated);
  EXPECT_NE(r.trace.FindNote("truncated").find("output budget"),
            std::string::npos)
      << r.trace.Render(false);
  // ToString carries the trace, so an agent reading the plain-text response
  // sees the same explanation.
  EXPECT_NE(r.ToString().find("truncated"), std::string::npos);
}

TEST_F(TraceReasonsTest, BreakerShedReasonAppearsInTrace) {
  AgentFirstSystem::Options options;
  options.optimizer.breaker_failure_threshold = 1;
  options.optimizer.max_query_retries = 0;
  system_ = std::make_unique<AgentFirstSystem>(options);
  testing_util::BuildPeopleDb(system_->engine());

  FaultRegistry::Global().Enable(/*seed=*/1);
  FaultSpec spec;
  spec.kind = FaultKind::kError;
  spec.probability = 1.0;
  spec.code = StatusCode::kAborted;
  FaultRegistry::Global().Arm("core.probe.query", spec);
  Probe failing = ProbeBuilder("flaky-agent")
                      .Query("SELECT count(*) FROM people")
                      .Build();
  ProbeResponse first = Handle(failing);
  FaultRegistry::Global().Disable();
  FaultRegistry::Global().ClearArmed();
  ASSERT_FALSE(first.answers[0].status.ok());
  EXPECT_NE(first.trace.FindNote("error"), "");

  // Breaker is now open for this agent: the next probe is shed wholesale,
  // and the trace says so in both the admit span and the query span.
  ProbeResponse second = Handle(failing);
  EXPECT_TRUE(second.shed);
  EXPECT_EQ(second.trace.FindNote("shed"), "circuit breaker open")
      << second.trace.Render(false);
  const obs::TraceSpan* q = second.trace.Find("query[0]");
  ASSERT_NE(q, nullptr);
  EXPECT_NE(q->FindNote("skip").find("shed"), std::string::npos);
}

TEST_F(TraceReasonsTest, TracingDisabledLeavesTraceEmpty) {
  AgentFirstSystem::Options options;
  options.optimizer.enable_tracing = false;
  system_ = std::make_unique<AgentFirstSystem>(options);
  testing_util::BuildPeopleDb(system_->engine());
  Probe probe = ProbeBuilder("a1").Query("SELECT count(*) FROM people").Build();
  ProbeResponse r = Handle(probe);
  ASSERT_EQ(r.answers.size(), 1u);
  EXPECT_TRUE(r.answers[0].status.ok());
  EXPECT_TRUE(r.trace.empty()) << r.trace.Render(false);
}

// The af.probe.* counter family accumulates across probes.
TEST_F(TraceReasonsTest, ProbeCountersAccumulateInDefaultRegistry) {
  obs::Counter* probes =
      obs::MetricsRegistry::Default().GetCounter("af.probe.probes");
  ASSERT_NE(probes, nullptr);
  uint64_t before = probes->value();
  Handle(ProbeBuilder("a1").Query("SELECT count(*) FROM people").Build());
  Handle(ProbeBuilder("a1").Query("SELECT count(*) FROM people").Build());
  EXPECT_EQ(probes->value(), before + 2);
}

}  // namespace
}  // namespace agentfirst
