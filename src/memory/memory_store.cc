#include "memory/memory_store.h"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "common/str_util.h"
#include "obs/metrics.h"

namespace agentfirst {

namespace {

std::string EscapeField(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\t': out += "\\t"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string UnescapeField(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\\' && i + 1 < s.size()) {
      char n = s[++i];
      if (n == 't') out += '\t';
      else if (n == 'n') out += '\n';
      else out += n;
    } else {
      out += s[i];
    }
  }
  return out;
}

std::optional<ArtifactKind> KindFromName(const std::string& name) {
  for (ArtifactKind k : {ArtifactKind::kProbeResult, ArtifactKind::kColumnEncoding,
                         ArtifactKind::kSchemaNote, ArtifactKind::kStatSummary,
                         ArtifactKind::kGroundingNote}) {
    if (name == ArtifactKindName(k)) return k;
  }
  return std::nullopt;
}

/// Squared L2 norm of one embedding row, accumulated exactly as
/// CosineSimilarity accumulates it.
double SquaredNorm(const float* v) {
  double n = 0.0;
  for (size_t i = 0; i < kEmbeddingDim; ++i) n += static_cast<double>(v[i]) * v[i];
  return n;
}

/// Process-wide store counters (af.memory.*): the registry mirror of every
/// store's Stats, plus the live artifact count across stores. Resolved once;
/// every update is one relaxed add.
struct StoreCounters {
  obs::Counter* puts;
  obs::Counter* exact_hits;
  obs::Counter* exact_misses;
  obs::Counter* evictions;
  obs::Counter* stale_dropped;
  obs::Gauge* artifacts;
};

StoreCounters& MemoryCounters() {
  static StoreCounters* c = [] {
    auto& reg = obs::MetricsRegistry::Default();
    auto* counters = new StoreCounters();
    counters->puts = reg.GetCounter("af.memory.puts");
    counters->exact_hits = reg.GetCounter("af.memory.exact_hits");
    counters->exact_misses = reg.GetCounter("af.memory.exact_misses");
    counters->evictions = reg.GetCounter("af.memory.evictions");
    counters->stale_dropped = reg.GetCounter("af.memory.stale_dropped");
    counters->artifacts = reg.GetGauge("af.memory.artifacts");
    return counters;
  }();
  return *c;
}

}  // namespace

const char* ArtifactKindName(ArtifactKind k) {
  switch (k) {
    case ArtifactKind::kProbeResult: return "probe_result";
    case ArtifactKind::kColumnEncoding: return "column_encoding";
    case ArtifactKind::kSchemaNote: return "schema_note";
    case ArtifactKind::kStatSummary: return "stat_summary";
    case ArtifactKind::kGroundingNote: return "grounding_note";
  }
  return "?";
}

AgenticMemoryStore::~AgenticMemoryStore() {
  MemoryCounters().artifacts->Add(-static_cast<int64_t>(size()));
}

bool AgenticMemoryStore::Visible(const MemoryArtifact& a,
                                 const std::string& principal) const {
  return options_.share_across_principals || a.owner.empty() ||
         a.owner == principal;
}

bool AgenticMemoryStore::IsStale(const MemoryArtifact& a) const {
  if (catalog_ == nullptr) return false;
  for (const std::string& dep : a.table_deps) {
    if (!catalog_->HasTable(dep)) return true;
    auto it = a.table_versions.find(dep);
    if (it != a.table_versions.end()) {
      auto table = catalog_->GetTable(dep);
      if (table.ok() && (*table)->data_version() != it->second) return true;
    }
  }
  // Schema-level artifacts expire on any DDL.
  if ((a.kind == ArtifactKind::kSchemaNote) &&
      a.schema_version != catalog_->schema_version()) {
    return true;
  }
  return false;
}

void AgenticMemoryStore::Touch(Slot slot) {
  // The new tick is the largest in the store: the slot moves to the tail.
  slots_[slot]->last_used_tick = ++tick_;
  LruUnlink(slot);
  LruInsertSorted(slot);
}

void AgenticMemoryStore::LruUnlink(Slot slot) {
  const Slot prev = lru_prev_[slot];
  const Slot next = lru_next_[slot];
  (prev == kNoSlot ? lru_head_ : lru_next_[prev]) = next;
  (next == kNoSlot ? lru_tail_ : lru_prev_[next]) = prev;
}

void AgenticMemoryStore::LruInsertSorted(Slot slot) {
  // Walk back from the tail past every later (tick, id). New puts and
  // touches carry the newest tick and stop at once; only recovery, which
  // restores checkpointed ticks in id order, walks further.
  const MemoryArtifact& a = *slots_[slot];
  Slot prev = lru_tail_;
  while (prev != kNoSlot) {
    const MemoryArtifact& p = *slots_[prev];
    if (p.last_used_tick < a.last_used_tick ||
        (p.last_used_tick == a.last_used_tick && p.id < a.id)) {
      break;
    }
    prev = lru_prev_[prev];
  }
  const Slot next = prev == kNoSlot ? lru_head_ : lru_next_[prev];
  lru_prev_[slot] = prev;
  lru_next_[slot] = next;
  (prev == kNoSlot ? lru_head_ : lru_next_[prev]) = slot;
  (next == kNoSlot ? lru_tail_ : lru_prev_[next]) = slot;
}

uint64_t AgenticMemoryStore::Put(MemoryArtifact artifact) {
  ++stats_.puts;
  MemoryCounters().puts->Increment();
  artifact.id = next_id_++;
  artifact.created_tick = ++tick_;
  artifact.last_used_tick = artifact.created_tick;
  if (catalog_ != nullptr) {
    artifact.schema_version = catalog_->schema_version();
    for (const std::string& dep : artifact.table_deps) {
      auto table = catalog_->GetTable(dep);
      if (table.ok()) artifact.table_versions[dep] = (*table)->data_version();
    }
  }
  // Supersede the first same-key same-owner artifact.
  if (auto it = by_key_.find(artifact.key); it != by_key_.end()) {
    for (Slot s : it->second) {
      if (slots_[s]->owner == artifact.owner) {
        Remove(s);
        break;
      }
    }
  }
  uint64_t id = artifact.id;
  Slot slot = Insert(std::move(artifact));
  if (listener_ != nullptr) listener_->OnPut(*slots_[slot]);
  EvictIfNeeded();
  return id;
}

std::optional<MemoryHit> AgenticMemoryStore::GetExact(const std::string& key,
                                                      const std::string& principal) {
  if (auto it = by_key_.find(key); it != by_key_.end()) {
    for (Slot s : it->second) {
      MemoryArtifact* a = slots_[s].get();
      if (!Visible(*a, principal)) continue;
      if (IsStale(*a)) {
        if (options_.staleness == StalenessPolicy::kEager) {
          ++stats_.stale_dropped;
          MemoryCounters().stale_dropped->Increment();
          Remove(s);
          ++stats_.exact_misses;
          MemoryCounters().exact_misses->Increment();
          return std::nullopt;
        }
        ++stats_.stale_served;
        Touch(s);
        ++stats_.exact_hits;
        MemoryCounters().exact_hits->Increment();
        return MemoryHit{a, 1.0, /*stale=*/true};
      }
      Touch(s);
      ++stats_.exact_hits;
      MemoryCounters().exact_hits->Increment();
      return MemoryHit{a, 1.0, false};
    }
  }
  ++stats_.exact_misses;
  MemoryCounters().exact_misses->Increment();
  return std::nullopt;
}

std::vector<MemoryHit> AgenticMemoryStore::Search(const std::string& query,
                                                  size_t k,
                                                  const std::string& principal,
                                                  double min_score) {
  ++stats_.semantic_queries;
  Embedding q = EmbedText(query);
  // Scores are bit-identical to CosineSimilarity(q, embedding): the dot
  // product and both norms accumulate in double in the same index order;
  // only the artifact's norm is precomputed. Four artifacts' dot products
  // interleave (each still summed in index order) so the additions overlap.
  const double q_norm_sq = SquaredNorm(q.data());
  std::vector<Slot> candidates;
  for (Slot s = 0; s < slots_.size(); ++s) {
    if (slots_[s] != nullptr && Visible(*slots_[s], principal)) candidates.push_back(s);
  }
  std::vector<double> dots(candidates.size(), 0.0);
  auto row = [this](Slot s) {
    return &embeddings_[static_cast<size_t>(s) * kEmbeddingDim];
  };
  size_t c = 0;
  for (; c + 4 <= candidates.size(); c += 4) {
    const float* e0 = row(candidates[c]);
    const float* e1 = row(candidates[c + 1]);
    const float* e2 = row(candidates[c + 2]);
    const float* e3 = row(candidates[c + 3]);
    double d0 = 0.0, d1 = 0.0, d2 = 0.0, d3 = 0.0;
    for (size_t i = 0; i < kEmbeddingDim; ++i) {
      const double qi = q[i];
      d0 += qi * e0[i];
      d1 += qi * e1[i];
      d2 += qi * e2[i];
      d3 += qi * e3[i];
    }
    dots[c] = d0;
    dots[c + 1] = d1;
    dots[c + 2] = d2;
    dots[c + 3] = d3;
  }
  for (; c < candidates.size(); ++c) {
    const float* e = row(candidates[c]);
    for (size_t i = 0; i < kEmbeddingDim; ++i) {
      dots[c] += static_cast<double>(q[i]) * e[i];
    }
  }
  std::vector<std::pair<double, Slot>> scored;
  for (size_t j = 0; j < candidates.size(); ++j) {
    const Slot s = candidates[j];
    double score = q_norm_sq == 0.0 || norm_sq_[s] == 0.0
                       ? 0.0
                       : dots[j] / std::sqrt(q_norm_sq * norm_sq_[s]);
    if (score >= min_score) scored.emplace_back(score, s);
  }
  // Best first; slots are not in store order, so ties break by id, which
  // is. A heap pops exactly the sorted order, and only as far as needed.
  auto worse = [this](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first < b.first;
    return slots_[a.second]->id > slots_[b.second]->id;
  };
  std::make_heap(scored.begin(), scored.end(), worse);

  std::vector<MemoryHit> hits;
  std::vector<Slot> to_drop;
  while (!scored.empty() && hits.size() < k) {
    std::pop_heap(scored.begin(), scored.end(), worse);
    const auto [score, s] = scored.back();
    scored.pop_back();
    MemoryArtifact* a = slots_[s].get();
    bool stale = IsStale(*a);
    if (stale && options_.staleness == StalenessPolicy::kEager) {
      ++stats_.stale_dropped;
      MemoryCounters().stale_dropped->Increment();
      to_drop.push_back(s);
      continue;
    }
    if (stale) ++stats_.stale_served;
    Touch(s);
    hits.push_back(MemoryHit{a, score, stale});
  }
  // Remove stale entries found during the scan, in descending store order.
  std::sort(to_drop.begin(), to_drop.end(), [this](Slot a, Slot b) {
    return slots_[a]->id > slots_[b]->id;
  });
  for (Slot s : to_drop) Remove(s);
  return hits;
}

size_t AgenticMemoryStore::SweepStale() {
  // Descending store order, collected first: removal edits by_id_.
  std::vector<Slot> stale;
  for (auto it = by_id_.rbegin(); it != by_id_.rend(); ++it) {
    if (IsStale(*slots_[it->second])) stale.push_back(it->second);
  }
  for (Slot s : stale) Remove(s);
  stats_.stale_dropped += stale.size();
  MemoryCounters().stale_dropped->Add(stale.size());
  return stale.size();
}

Status AgenticMemoryStore::SaveToFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out.good()) return Status::Internal("cannot open for writing: " + path);
  for (const auto& [id, slot] : by_id_) {
    const MemoryArtifact* artifact = slots_[slot].get();
    if (artifact->kind == ArtifactKind::kProbeResult) continue;  // re-derivable
    out << ArtifactKindName(artifact->kind) << '\t' << EscapeField(artifact->key)
        << '\t' << EscapeField(artifact->owner) << '\t'
        << EscapeField(Join(artifact->table_deps, ",")) << '\t'
        << EscapeField(artifact->content) << '\n';
  }
  out.flush();
  if (!out.good()) return Status::Internal("write failed: " + path);
  return Status::OK();
}

Result<size_t> AgenticMemoryStore::LoadFromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) return Status::NotFound("cannot open: " + path);
  size_t loaded = 0;
  std::string line;
  size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    std::vector<std::string> fields = Split(line, '\t');
    if (fields.size() != 5) {
      return Status::InvalidArgument("malformed memory artifact at line " +
                                     std::to_string(line_number));
    }
    auto kind = KindFromName(fields[0]);
    if (!kind.has_value()) {
      return Status::InvalidArgument("unknown artifact kind at line " +
                                     std::to_string(line_number));
    }
    MemoryArtifact artifact;
    artifact.kind = *kind;
    artifact.key = UnescapeField(fields[1]);
    artifact.owner = UnescapeField(fields[2]);
    artifact.table_deps = Split(UnescapeField(fields[3]), ',', /*skip_empty=*/true);
    artifact.content = UnescapeField(fields[4]);
    Put(std::move(artifact));
    ++loaded;
  }
  return loaded;
}

void AgenticMemoryStore::EvictIfNeeded() {
  while (size() > options_.capacity) {
    // Least recently used; the lower id wins a tick tie.
    Remove(lru_head_);
    ++stats_.evictions;
    MemoryCounters().evictions->Increment();
  }
}

AgenticMemoryStore::Slot AgenticMemoryStore::Insert(MemoryArtifact artifact) {
  Embedding emb = EmbedText(artifact.key + " " + artifact.content);
  Slot slot;
  if (free_slots_.empty()) {
    slot = static_cast<Slot>(slots_.size());
    slots_.emplace_back();
    embeddings_.resize(embeddings_.size() + kEmbeddingDim);
    norm_sq_.push_back(0.0);
    lru_prev_.push_back(kNoSlot);
    lru_next_.push_back(kNoSlot);
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  std::copy(emb.begin(), emb.end(),
            embeddings_.begin() + static_cast<long>(slot) * kEmbeddingDim);
  norm_sq_[slot] = SquaredNorm(emb.data());
  slots_[slot] = std::make_unique<MemoryArtifact>(std::move(artifact));
  const MemoryArtifact& a = *slots_[slot];
  by_id_.emplace(a.id, slot);
  LruInsertSorted(slot);
  std::vector<Slot>& same_key = by_key_[a.key];
  same_key.insert(std::upper_bound(same_key.begin(), same_key.end(), a.id,
                                   [this](uint64_t id, Slot s) {
                                     return id < slots_[s]->id;
                                   }),
                  slot);
  MemoryCounters().artifacts->Add(1);
  return slot;
}

void AgenticMemoryStore::Remove(Slot slot, bool notify) {
  const MemoryArtifact& a = *slots_[slot];
  const uint64_t id = a.id;
  auto it = by_key_.find(a.key);
  std::vector<Slot>& same_key = it->second;
  same_key.erase(std::find(same_key.begin(), same_key.end(), slot));
  if (same_key.empty()) {
    by_key_.erase(it);
  } else if (it->first.data() == a.key.data()) {
    // The map key views this artifact's string: re-point it at a survivor.
    auto node = by_key_.extract(it);
    node.key() = slots_[node.mapped().front()]->key;
    by_key_.insert(std::move(node));
  }
  LruUnlink(slot);
  by_id_.erase(id);
  slots_[slot].reset();
  free_slots_.push_back(slot);
  MemoryCounters().artifacts->Add(-1);
  if (notify && listener_ != nullptr) listener_->OnRemove(id);
}

std::vector<const MemoryArtifact*> AgenticMemoryStore::SnapshotArtifacts() const {
  std::vector<const MemoryArtifact*> out;
  out.reserve(by_id_.size());
  for (const auto& [id, slot] : by_id_) out.push_back(slots_[slot].get());
  return out;
}

void AgenticMemoryStore::RestorePut(MemoryArtifact artifact) {
  if (artifact.id >= next_id_) next_id_ = artifact.id + 1;
  if (artifact.created_tick > tick_) tick_ = artifact.created_tick;
  if (artifact.last_used_tick > tick_) tick_ = artifact.last_used_tick;
  Insert(std::move(artifact));
}

void AgenticMemoryStore::RestoreRemove(uint64_t id) {
  auto it = by_id_.find(id);
  if (it != by_id_.end()) Remove(it->second, /*notify=*/false);
}

}  // namespace agentfirst
