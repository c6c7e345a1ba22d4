#include "memory/memory_store.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "embed/embedding.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"

namespace agentfirst {
namespace {

class MemoryStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema schema({ColumnDef("id", DataType::kInt64, false, "sales"),
                   ColumnDef("state", DataType::kString, true, "sales")});
    auto t = catalog_.CreateTable("sales", schema);
    ASSERT_TRUE(t.ok());
    table_ = *t;
    ASSERT_TRUE(table_->AppendRow({Value::Int(1), Value::String("California")}).ok());
  }

  MemoryArtifact MakeArtifact(const std::string& key, const std::string& content,
                              std::vector<std::string> deps = {"sales"}) {
    MemoryArtifact a;
    a.kind = ArtifactKind::kGroundingNote;
    a.key = key;
    a.content = content;
    a.table_deps = std::move(deps);
    return a;
  }

  Catalog catalog_;
  TablePtr table_;
};

TEST_F(MemoryStoreTest, PutAndGetExact) {
  AgenticMemoryStore store(&catalog_, {});
  store.Put(MakeArtifact("k1", "states are spelled out"));
  auto hit = store.GetExact("k1");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->artifact->content, "states are spelled out");
  EXPECT_FALSE(hit->stale);
  EXPECT_FALSE(store.GetExact("k2").has_value());
  EXPECT_EQ(store.stats().exact_hits, 1u);
  EXPECT_EQ(store.stats().exact_misses, 1u);
}

TEST_F(MemoryStoreTest, PutSupersedesSameKeySameOwner) {
  AgenticMemoryStore store(&catalog_, {});
  store.Put(MakeArtifact("k", "old"));
  store.Put(MakeArtifact("k", "new"));
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.GetExact("k")->artifact->content, "new");
}

TEST_F(MemoryStoreTest, SemanticSearchRanksByRelevance) {
  AgenticMemoryStore store(&catalog_, {});
  store.Put(MakeArtifact("note:sales_state", "sales table state column encoding"));
  store.Put(MakeArtifact("note:crew", "flight crew roster details", {}));
  auto hits = store.Search("state encoding in sales", 2);
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].artifact->key, "note:sales_state");
}

TEST_F(MemoryStoreTest, EagerStalenessDropsOnDataChange) {
  AgenticMemoryStore::Options options;
  options.staleness = AgenticMemoryStore::StalenessPolicy::kEager;
  AgenticMemoryStore store(&catalog_, options);
  store.Put(MakeArtifact("k", "depends on sales"));
  // Mutate the table: artifact becomes stale.
  ASSERT_TRUE(table_->AppendRow({Value::Int(2), Value::String("Texas")}).ok());
  EXPECT_FALSE(store.GetExact("k").has_value());
  EXPECT_EQ(store.stats().stale_dropped, 1u);
  EXPECT_EQ(store.size(), 0u);
}

TEST_F(MemoryStoreTest, LazyStalenessServesFlagged) {
  AgenticMemoryStore::Options options;
  options.staleness = AgenticMemoryStore::StalenessPolicy::kLazy;
  AgenticMemoryStore store(&catalog_, options);
  store.Put(MakeArtifact("k", "depends on sales"));
  ASSERT_TRUE(table_->AppendRow({Value::Int(2), Value::String("Texas")}).ok());
  auto hit = store.GetExact("k");
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->stale);
  EXPECT_EQ(store.stats().stale_served, 1u);
}

TEST_F(MemoryStoreTest, DroppedTableMakesArtifactStale) {
  AgenticMemoryStore store(&catalog_, {});
  store.Put(MakeArtifact("k", "depends on sales"));
  ASSERT_TRUE(catalog_.DropTable("sales").ok());
  EXPECT_FALSE(store.GetExact("k").has_value());
}

TEST_F(MemoryStoreTest, SchemaNoteExpiresOnAnyDdl) {
  AgenticMemoryStore store(&catalog_, {});
  MemoryArtifact a = MakeArtifact("schema", "there are two tables", {});
  a.kind = ArtifactKind::kSchemaNote;
  store.Put(std::move(a));
  ASSERT_TRUE(catalog_.CreateTable("extra", Schema({ColumnDef("x", DataType::kInt64)})).ok());
  EXPECT_FALSE(store.GetExact("schema").has_value());
}

TEST_F(MemoryStoreTest, SweepStaleRemovesAll) {
  AgenticMemoryStore::Options options;
  options.staleness = AgenticMemoryStore::StalenessPolicy::kLazy;
  AgenticMemoryStore store(&catalog_, options);
  store.Put(MakeArtifact("k1", "a"));
  store.Put(MakeArtifact("k2", "b"));
  store.Put(MakeArtifact("fresh", "no deps", {}));
  ASSERT_TRUE(table_->AppendRow({Value::Int(3), Value::String("Oregon")}).ok());
  EXPECT_EQ(store.SweepStale(), 2u);
  EXPECT_EQ(store.size(), 1u);
}

TEST_F(MemoryStoreTest, LruEviction) {
  AgenticMemoryStore::Options options;
  options.capacity = 2;
  AgenticMemoryStore store(&catalog_, options);
  store.Put(MakeArtifact("a", "1", {}));
  store.Put(MakeArtifact("b", "2", {}));
  // Touch "a" so "b" is the LRU.
  (void)store.GetExact("a");
  store.Put(MakeArtifact("c", "3", {}));
  EXPECT_EQ(store.size(), 2u);
  EXPECT_TRUE(store.GetExact("a").has_value());
  EXPECT_FALSE(store.GetExact("b").has_value());
  EXPECT_TRUE(store.GetExact("c").has_value());
  EXPECT_EQ(store.stats().evictions, 1u);
}

TEST_F(MemoryStoreTest, AccessControlPrivateMode) {
  AgenticMemoryStore::Options options;
  options.share_across_principals = false;
  AgenticMemoryStore store(&catalog_, options);
  MemoryArtifact a = MakeArtifact("k", "private note", {});
  a.owner = "agent1";
  store.Put(std::move(a));
  EXPECT_TRUE(store.GetExact("k", "agent1").has_value());
  EXPECT_FALSE(store.GetExact("k", "agent2").has_value());
  // Public artifacts visible to everyone.
  store.Put(MakeArtifact("pub", "public note", {}));
  EXPECT_TRUE(store.GetExact("pub", "agent2").has_value());
}

TEST_F(MemoryStoreTest, AccessControlSharedMode) {
  AgenticMemoryStore::Options options;
  options.share_across_principals = true;
  AgenticMemoryStore store(&catalog_, options);
  MemoryArtifact a = MakeArtifact("k", "note", {});
  a.owner = "agent1";
  store.Put(std::move(a));
  EXPECT_TRUE(store.GetExact("k", "agent2").has_value());
}

TEST_F(MemoryStoreTest, SearchRespectsVisibility) {
  AgenticMemoryStore::Options options;
  options.share_across_principals = false;
  AgenticMemoryStore store(&catalog_, options);
  MemoryArtifact a = MakeArtifact("k", "sales state encoding note", {});
  a.owner = "agent1";
  store.Put(std::move(a));
  EXPECT_TRUE(store.Search("sales state", 5, "agent2").empty());
  auto own = store.Search("sales state", 5, "agent1");
  ASSERT_FALSE(own.empty());
}

TEST_F(MemoryStoreTest, RegistryMirrorsStats) {
  auto& reg = obs::MetricsRegistry::Default();
  auto value = [&](const char* name) { return reg.GetCounter(name)->value(); };
  const uint64_t puts = value("af.memory.puts");
  const uint64_t hits = value("af.memory.exact_hits");
  const uint64_t misses = value("af.memory.exact_misses");
  const uint64_t evictions = value("af.memory.evictions");
  const uint64_t stale = value("af.memory.stale_dropped");
  const int64_t artifacts = reg.GetGauge("af.memory.artifacts")->value();
  {
    AgenticMemoryStore::Options options;
    options.capacity = 2;
    AgenticMemoryStore store(&catalog_, options);
    store.Put(MakeArtifact("a", "1"));
    store.Put(MakeArtifact("b", "2"));
    store.Put(MakeArtifact("c", "3"));  // evicts "a"
    (void)store.GetExact("b");
    (void)store.GetExact("a");
    ASSERT_TRUE(table_->AppendRow({Value::Int(9), Value::String("Utah")}).ok());
    (void)store.GetExact("c");  // eager stale drop
    EXPECT_EQ(value("af.memory.puts") - puts, 3u);
    EXPECT_EQ(value("af.memory.exact_hits") - hits, 1u);
    EXPECT_EQ(value("af.memory.exact_misses") - misses, 2u);
    EXPECT_EQ(value("af.memory.evictions") - evictions, 1u);
    EXPECT_EQ(value("af.memory.stale_dropped") - stale, 1u);
    EXPECT_EQ(reg.GetGauge("af.memory.artifacts")->value() - artifacts, 1);
  }
  // A destroyed store takes its artifacts out of the gauge.
  EXPECT_EQ(reg.GetGauge("af.memory.artifacts")->value(), artifacts);
}

TEST_F(MemoryStoreTest, ArtifactKindNames) {
  EXPECT_STREQ(ArtifactKindName(ArtifactKind::kProbeResult), "probe_result");
  EXPECT_STREQ(ArtifactKindName(ArtifactKind::kColumnEncoding), "column_encoding");
}

// ---------------------------------------------------------------------------
// Model-based differential test. ReferenceStore is a compact copy of the
// store's original linear-scan semantics (two parallel vectors in store
// order, full scans for lookup, supersede and LRU). Seeded random op
// sequences run against both; every observable must match exactly.
// ---------------------------------------------------------------------------

using Policy = AgenticMemoryStore::StalenessPolicy;

class EventLog : public MemoryMutationListener {
 public:
  void OnPut(const MemoryArtifact& a) override {
    events.push_back("put:" + std::to_string(a.id));
  }
  void OnRemove(uint64_t id) override {
    events.push_back("remove:" + std::to_string(id));
  }
  std::vector<std::string> events;
};

class ReferenceStore {
 public:
  ReferenceStore(Catalog* catalog, AgenticMemoryStore::Options options,
                 MemoryMutationListener* listener)
      : catalog_(catalog), options_(options), listener_(listener) {}

  uint64_t Put(MemoryArtifact a) {
    ++stats.puts;
    a.id = next_id_++;
    a.created_tick = ++tick_;
    a.last_used_tick = a.created_tick;
    a.schema_version = catalog_->schema_version();
    for (const std::string& dep : a.table_deps) {
      auto table = catalog_->GetTable(dep);
      if (table.ok()) a.table_versions[dep] = (*table)->data_version();
    }
    for (size_t i = 0; i < artifacts.size(); ++i) {
      if (artifacts[i]->key == a.key && artifacts[i]->owner == a.owner) {
        RemoveAt(i);
        break;
      }
    }
    embeddings_.push_back(EmbedText(a.key + " " + a.content));
    artifacts.push_back(std::make_unique<MemoryArtifact>(std::move(a)));
    listener_->OnPut(*artifacts.back());
    while (artifacts.size() > options_.capacity) {
      size_t lru = 0;
      for (size_t i = 1; i < artifacts.size(); ++i) {
        if (artifacts[i]->last_used_tick < artifacts[lru]->last_used_tick) lru = i;
      }
      RemoveAt(lru);
      ++stats.evictions;
    }
    return next_id_ - 1;
  }

  std::optional<MemoryHit> GetExact(const std::string& key,
                                    const std::string& principal) {
    for (size_t i = 0; i < artifacts.size(); ++i) {
      MemoryArtifact* a = artifacts[i].get();
      if (a->key != key || !Visible(*a, principal)) continue;
      bool stale = IsStale(*a);
      if (stale && options_.staleness == Policy::kEager) {
        ++stats.stale_dropped;
        RemoveAt(i);
        break;
      }
      if (stale) ++stats.stale_served;
      a->last_used_tick = ++tick_;
      ++stats.exact_hits;
      return MemoryHit{a, 1.0, stale};
    }
    ++stats.exact_misses;
    return std::nullopt;
  }

  std::vector<MemoryHit> Search(const std::string& query, size_t k,
                                const std::string& principal, double min_score) {
    ++stats.semantic_queries;
    Embedding q = EmbedText(query);
    std::vector<std::pair<double, size_t>> scored;
    for (size_t i = 0; i < artifacts.size(); ++i) {
      if (!Visible(*artifacts[i], principal)) continue;
      double s = CosineSimilarity(q, embeddings_[i]);
      if (s >= min_score) scored.emplace_back(s, i);
    }
    std::sort(scored.begin(), scored.end(), [](const auto& a, const auto& b) {
      return a.first != b.first ? a.first > b.first : a.second < b.second;
    });
    std::vector<MemoryHit> hits;
    std::vector<size_t> to_drop;
    for (const auto& [score, i] : scored) {
      if (hits.size() >= k) break;
      MemoryArtifact* a = artifacts[i].get();
      bool stale = IsStale(*a);
      if (stale && options_.staleness == Policy::kEager) {
        ++stats.stale_dropped;
        to_drop.push_back(i);
        continue;
      }
      if (stale) ++stats.stale_served;
      a->last_used_tick = ++tick_;
      hits.push_back(MemoryHit{a, score, stale});
    }
    std::sort(to_drop.begin(), to_drop.end(), std::greater<>());
    for (size_t i : to_drop) RemoveAt(i);
    return hits;
  }

  size_t SweepStale() {
    size_t removed = 0;
    for (size_t i = artifacts.size(); i > 0; --i) {
      if (!IsStale(*artifacts[i - 1])) continue;
      RemoveAt(i - 1);
      ++removed;
      ++stats.stale_dropped;
    }
    return removed;
  }

  uint64_t next_id() const { return next_id_; }
  uint64_t tick() const { return tick_; }

  AgenticMemoryStore::Stats stats;
  std::vector<std::unique_ptr<MemoryArtifact>> artifacts;

 private:
  bool Visible(const MemoryArtifact& a, const std::string& principal) const {
    return a.owner.empty() || a.owner == principal ||
           options_.share_across_principals;
  }

  bool IsStale(const MemoryArtifact& a) const {
    for (const std::string& dep : a.table_deps) {
      if (!catalog_->HasTable(dep)) return true;
      auto it = a.table_versions.find(dep);
      auto table = catalog_->GetTable(dep);
      if (it != a.table_versions.end() && table.ok() &&
          (*table)->data_version() != it->second) {
        return true;
      }
    }
    return a.kind == ArtifactKind::kSchemaNote &&
           a.schema_version != catalog_->schema_version();
  }

  void RemoveAt(size_t i) {
    uint64_t id = artifacts[i]->id;
    artifacts.erase(artifacts.begin() + static_cast<long>(i));
    embeddings_.erase(embeddings_.begin() + static_cast<long>(i));
    listener_->OnRemove(id);
  }

  Catalog* catalog_;
  AgenticMemoryStore::Options options_;
  MemoryMutationListener* listener_;
  uint64_t next_id_ = 1;
  uint64_t tick_ = 0;
  std::vector<Embedding> embeddings_;
};

struct DiffConfig {
  Policy staleness;
  bool share;
  size_t capacity;
};

std::string ConfigName(const DiffConfig& c) {
  return std::string(c.staleness == Policy::kEager ? "eager" : "lazy") +
         (c.share ? "_shared" : "_private") + "_cap" + std::to_string(c.capacity);
}

uint64_t Bits(double d) {
  uint64_t b = 0;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

std::vector<std::string> DescribeHits(const std::vector<MemoryHit>& hits) {
  std::vector<std::string> out;
  for (const MemoryHit& h : hits) {
    out.push_back(std::to_string(h.artifact->id) + (h.stale ? "/stale/" : "/fresh/") +
                  std::to_string(Bits(h.score)));
  }
  return out;
}

std::vector<std::string> DescribeStats(const AgenticMemoryStore::Stats& s) {
  return {std::to_string(s.puts),         std::to_string(s.exact_hits),
          std::to_string(s.exact_misses), std::to_string(s.semantic_queries),
          std::to_string(s.stale_dropped), std::to_string(s.stale_served),
          std::to_string(s.evictions)};
}

/// Store order as (id, key, owner, last_used_tick) rows.
std::vector<std::string> DescribeArtifacts(
    const std::vector<const MemoryArtifact*>& artifacts) {
  std::vector<std::string> out;
  for (const MemoryArtifact* a : artifacts) {
    out.push_back(std::to_string(a->id) + "|" + a->key + "|" + a->owner + "|" +
                  std::to_string(a->last_used_tick));
  }
  return out;
}

void RunDifferential(const DiffConfig& config, uint64_t seed, int num_ops) {
  SCOPED_TRACE(ConfigName(config));
  Catalog catalog;
  Schema schema({ColumnDef("x", DataType::kInt64)});
  const std::vector<std::string> tables = {"t0", "t1", "t2"};
  for (const std::string& t : tables) ASSERT_TRUE(catalog.CreateTable(t, schema).ok());

  AgenticMemoryStore::Options options;
  options.capacity = config.capacity;
  options.staleness = config.staleness;
  options.share_across_principals = config.share;
  EventLog store_log;
  EventLog ref_log;
  AgenticMemoryStore store(&catalog, options);
  store.SetMutationListener(&store_log);
  ReferenceStore ref(&catalog, options, &ref_log);

  const std::vector<std::string> owners = {"", "alice", "bob", "carol"};
  const std::vector<std::string> principals = {"", "alice", "bob", "carol", "eve"};
  const std::vector<std::string> words = {"sales", "state",  "region", "crew",
                                          "flight", "revenue", "city", "count"};
  const ArtifactKind kinds[] = {ArtifactKind::kProbeResult, ArtifactKind::kSchemaNote,
                                ArtifactKind::kStatSummary, ArtifactKind::kGroundingNote};
  Rng rng(seed);
  auto word = [&] { return words[rng.NextUint(words.size())]; };

  for (int op = 0; op < num_ops; ++op) {
    SCOPED_TRACE("op " + std::to_string(op));
    uint64_t dice = rng.NextUint(100);
    if (dice < 40) {
      MemoryArtifact a;
      a.kind = kinds[rng.NextUint(4)];
      // 3 * capacity + 4 distinct keys: collisions across owners are common.
      a.key = "k" + std::to_string(rng.NextUint(3 * config.capacity + 4)) + ":" +
              words[op % 3];
      a.content = word() + " " + word();
      for (const std::string& t : tables) {
        if (rng.NextBool(0.4)) a.table_deps.push_back(t);
      }
      a.owner = owners[rng.NextUint(owners.size())];
      MemoryArtifact b = a;
      ASSERT_EQ(store.Put(std::move(a)), ref.Put(std::move(b)));
    } else if (dice < 65) {
      std::string key = "k" + std::to_string(rng.NextUint(3 * config.capacity + 4)) +
                        ":" + words[rng.NextUint(3)];
      const std::string& principal = principals[rng.NextUint(principals.size())];
      auto got = store.GetExact(key, principal);
      auto want = ref.GetExact(key, principal);
      ASSERT_EQ(got.has_value(), want.has_value());
      if (got.has_value()) {
        ASSERT_EQ(DescribeHits({*got}), DescribeHits({*want}));
      }
    } else if (dice < 80) {
      std::string query = word() + " " + word();
      size_t k = 1 + rng.NextUint(5);
      double min_score = rng.NextBool(0.5) ? 0.15 : -1.0;
      const std::string& principal = principals[rng.NextUint(principals.size())];
      ASSERT_EQ(DescribeHits(store.Search(query, k, principal, min_score)),
                DescribeHits(ref.Search(query, k, principal, min_score)));
    } else if (dice < 82) {
      ASSERT_EQ(store.SweepStale(), ref.SweepStale());
    } else if (dice < 97) {
      // A table write: bumps that table's data version.
      const std::string& t = tables[rng.NextUint(tables.size())];
      auto table = catalog.GetTable(t);
      if (table.ok()) {
        ASSERT_TRUE((*table)->AppendRow({Value::Int(op)}).ok());
      }
    } else {
      // DDL: drop or re-create t2 (schema version bump, dangling deps).
      if (catalog.HasTable("t2")) {
        ASSERT_TRUE(catalog.DropTable("t2").ok());
      } else {
        ASSERT_TRUE(catalog.CreateTable("t2", schema).ok());
      }
    }
    ASSERT_EQ(DescribeStats(store.stats()), DescribeStats(ref.stats));
    ASSERT_EQ(store.size(), ref.artifacts.size());
    ASSERT_EQ(store.next_id(), ref.next_id());
    ASSERT_EQ(store.tick(), ref.tick());
    if (op % 16 == 0 || op + 1 == num_ops) {
      std::vector<const MemoryArtifact*> want;
      for (const auto& a : ref.artifacts) want.push_back(a.get());
      ASSERT_EQ(DescribeArtifacts(store.SnapshotArtifacts()), DescribeArtifacts(want));
    }
  }
  EXPECT_EQ(store_log.events, ref_log.events);
  EXPECT_GT(store.stats().evictions, 0u);
  EXPECT_GT(store.stats().stale_dropped, 0u);
}

TEST(MemoryStoreDifferentialTest, MatchesLinearReferenceModel) {
  uint64_t seed = 20260813;
  for (Policy staleness : {Policy::kEager, Policy::kLazy}) {
    for (bool share : {true, false}) {
      for (size_t capacity : {size_t{1}, size_t{7}, size_t{64}}) {
        RunDifferential({staleness, share, capacity}, seed++, 20000);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

}  // namespace
}  // namespace agentfirst
