#ifndef AGENTFIRST_MEMORY_MEMORY_STORE_H_
#define AGENTFIRST_MEMORY_MEMORY_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
// aflint:allow(layer-back-edge) the memory store caches agent-visible
// artifacts by design (paper Sec. 5): Embeddings for semantic recall ...
#include "embed/embedding.h"
// aflint:allow(layer-back-edge) ... and whole ResultSets for answer reuse.
// Both are leaf value types; neither embed/ nor exec/ includes memory/.
#include "exec/result_set.h"

namespace agentfirst {

/// What a memory artifact records (paper Sec. 6.1 "Artifacts").
enum class ArtifactKind {
  kProbeResult,     // cached answer of a prior probe
  kColumnEncoding,  // e.g. "state is spelled out, not two-letter codes"
  kSchemaNote,      // which tables/columns matter for what
  kStatSummary,     // value ranges, distinct counts, partitions' coverage
  kGroundingNote,   // any other free-form grounding
};

const char* ArtifactKindName(ArtifactKind k);

/// One grounding artifact. Artifacts pin the catalog/table versions they
/// were derived from so staleness is detectable.
struct MemoryArtifact {
  uint64_t id = 0;
  ArtifactKind kind = ArtifactKind::kGroundingNote;
  std::string key;       // structured key, e.g. "table:sales/col:state"
  std::string content;   // natural-language grounding text
  ResultSetPtr result;   // optional cached result rows
  std::vector<std::string> table_deps;
  uint64_t schema_version = 0;
  std::map<std::string, uint64_t> table_versions;
  std::string owner;     // principal; empty = public
  uint64_t created_tick = 0;
  uint64_t last_used_tick = 0;
};

/// A retrieval hit; `stale` is only possible under the lazy policy.
struct MemoryHit {
  const MemoryArtifact* artifact = nullptr;
  double score = 1.0;
  bool stale = false;
};

/// Observer of memory-store state changes, called AFTER each change. OnPut
/// sees the artifact fully stamped (id, ticks, pinned versions); OnRemove
/// fires for every departure — supersede, LRU eviction, stale drop, sweep —
/// so a log of (put, remove) events replays to the exact artifact set. The
/// write-ahead log implements this; recovery Restore* methods bypass it.
class MemoryMutationListener {
 public:
  virtual ~MemoryMutationListener() = default;
  virtual void OnPut(const MemoryArtifact& artifact) = 0;
  virtual void OnRemove(uint64_t id) = 0;
};

/// The agentic memory store (paper Sec. 6.1): a persistent, queryable
/// semantic cache of grounding gleaned by prior probes. Supports exact
/// structured lookup and embedding-based semantic search, staleness
/// handling against catalog versions (eager invalidation or lazy detection),
/// LRU eviction, and per-principal access control.
///
/// Cost per operation with N artifacts: GetExact is O(1) (a key lookup plus
/// an LRU touch); Put (supersede + LRU eviction) and RestoreRemove are
/// O(log N); Search is one O(N * dim) pass over a contiguous embedding array
/// plus a heap over the candidates above `min_score`; SweepStale and
/// SnapshotArtifacts are O(N). Store order (SnapshotArtifacts, SaveToFile,
/// Search's tie-break) is ascending id, since ids only grow.
class AgenticMemoryStore {
 public:
  enum class StalenessPolicy {
    kEager,  // stale artifacts are dropped at access time (never served)
    kLazy,   // stale artifacts are served flagged; dropped when superseded
  };

  struct Options {
    size_t capacity = 4096;
    StalenessPolicy staleness = StalenessPolicy::kEager;
    /// When false, artifacts are only visible to their owner (privacy mode,
    /// paper's multi-user concern); when true, all principals share.
    bool share_across_principals = true;
  };

  struct Stats {
    uint64_t puts = 0;
    uint64_t exact_hits = 0;
    uint64_t exact_misses = 0;
    uint64_t semantic_queries = 0;
    uint64_t stale_dropped = 0;
    uint64_t stale_served = 0;
    uint64_t evictions = 0;
  };

  AgenticMemoryStore(Catalog* catalog, Options options)
      : catalog_(catalog), options_(options) {}
  ~AgenticMemoryStore();
  AgenticMemoryStore(const AgenticMemoryStore&) = delete;
  AgenticMemoryStore& operator=(const AgenticMemoryStore&) = delete;

  /// Stores an artifact (embedding derived from key + content). Returns id.
  /// An artifact with an identical key and owner is superseded.
  uint64_t Put(MemoryArtifact artifact);

  /// Exact lookup by structured key (subject to visibility and staleness).
  std::optional<MemoryHit> GetExact(const std::string& key,
                                    const std::string& principal = "");

  /// Semantic search: top-k artifacts by embedding similarity to `query`,
  /// above `min_score`.
  std::vector<MemoryHit> Search(const std::string& query, size_t k,
                                const std::string& principal = "",
                                double min_score = 0.15);

  /// Drops every artifact that is stale with respect to the catalog now.
  /// Returns the number removed.
  size_t SweepStale();

  /// Persists grounding artifacts to a file (tab-separated, one artifact per
  /// line). Cached result rows are NOT persisted: they are re-derivable and
  /// version-pinned; the durable value is the grounding text.
  Status SaveToFile(const std::string& path) const;

  /// Loads artifacts from `path` into the store (same-key artifacts are
  /// superseded). Loaded artifacts are version-stamped against the *current*
  /// catalog. Returns the number loaded.
  Result<size_t> LoadFromFile(const std::string& path);

  size_t size() const { return by_id_.size(); }
  const Stats& stats() const { return stats_; }

  /// Installs (or clears) the durability observer.
  void SetMutationListener(MemoryMutationListener* listener) {
    listener_ = listener;
  }

  // --- durability support (src/wal/) --------------------------------------

  /// Read-only view of every artifact in store order, for checkpointing.
  std::vector<const MemoryArtifact*> SnapshotArtifacts() const;
  uint64_t next_id() const { return next_id_; }
  uint64_t tick() const { return tick_; }

  /// Recovery-only: re-inserts an already-stamped artifact exactly as
  /// logged — no re-stamping, no supersede, no eviction, no listener
  /// callback (removals were logged separately and replay in order). Counter
  /// state advances so post-recovery puts continue the id/tick sequence.
  /// The id must not be in the store (a log never re-puts a live id).
  void RestorePut(MemoryArtifact artifact);
  /// Recovery-only: removes the artifact with `id` (no-op when absent).
  void RestoreRemove(uint64_t id);
  /// Recovery-only: pins the id/tick counters after a checkpoint load.
  void RestoreCounters(uint64_t next_id, uint64_t tick) {
    next_id_ = next_id;
    tick_ = tick;
  }

 private:
  using Slot = uint32_t;

  bool Visible(const MemoryArtifact& a, const std::string& principal) const;
  bool IsStale(const MemoryArtifact& a) const;
  /// Marks `slot` most recently used.
  void Touch(Slot slot);
  void EvictIfNeeded();
  /// LRU list maintenance (see lru_prev_).
  void LruUnlink(Slot slot);
  void LruInsertSorted(Slot slot);
  /// Stores `artifact` in a free slot and indexes it; returns the slot.
  Slot Insert(MemoryArtifact artifact);
  /// Unindexes and frees `slot`, then notifies the listener when `notify`
  /// (the one removal funnel).
  void Remove(Slot slot, bool notify = true);

  Catalog* catalog_;
  Options options_;
  /// Not owned; nullptr when durability is off.
  MemoryMutationListener* listener_ = nullptr;
  Stats stats_;
  uint64_t next_id_ = 1;
  uint64_t tick_ = 0;

  // Slot storage: removal frees a slot for reuse and never moves the other
  // artifacts. slots_[s] == nullptr marks a free slot; its embedding row
  // (kEmbeddingDim floats at embeddings_[s * kEmbeddingDim]) and squared
  // norm (computed once, at insert) are only meaningful while it is live.
  std::vector<std::unique_ptr<MemoryArtifact>> slots_;
  std::vector<float> embeddings_;
  std::vector<double> norm_sq_;
  std::vector<Slot> free_slots_;
  /// Store order: id -> slot, ascending id.
  std::map<uint64_t, Slot> by_id_;
  /// key -> slots holding it, in store order. The view points into the key
  /// of one of those artifacts, so keys are not copied.
  std::unordered_map<std::string_view, std::vector<Slot>> by_key_;
  /// LRU order: a doubly linked list over live slots, ascending by
  /// (last_used_tick, id); the head is the eviction victim. A touch stamps
  /// the newest tick, so it moves the slot to the tail in O(1).
  static constexpr Slot kNoSlot = UINT32_MAX;
  std::vector<Slot> lru_prev_;
  std::vector<Slot> lru_next_;
  Slot lru_head_ = kNoSlot;
  Slot lru_tail_ = kNoSlot;
};

}  // namespace agentfirst

#endif  // AGENTFIRST_MEMORY_MEMORY_STORE_H_
