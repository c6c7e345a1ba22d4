#ifndef AGENTFIRST_PLAN_FINGERPRINT_H_
#define AGENTFIRST_PLAN_FINGERPRINT_H_

#include <cstdint>
#include <vector>

#include "plan/logical_plan.h"

namespace agentfirst {

/// Strict structural fingerprint of a plan subtree: identical plans (same
/// operators, child order, expressions, tables) collide. Used as the key of
/// the memory store's exact lookups, so it must only equate plans with
/// identical output (schema order included).
uint64_t PlanFingerprint(const PlanNode& node);

/// Canonical fingerprint: additionally normalizes commutative predicate
/// operand order, conjunct order, and inner-equi-join child order, so
/// semantically identical plans written differently collide. Used for the
/// redundancy analysis (Figure 2); NOT safe as a result-cache key.
uint64_t CanonicalPlanFingerprint(const PlanNode& node);

/// One entry of the sub-plan enumeration.
struct SubplanInfo {
  const PlanNode* node = nullptr;
  size_t size = 0;             // #operators in the subtree
  OpClass root_class = OpClass::OT;
  uint64_t canonical_fingerprint = 0;
};

/// Enumerates every subtree of `plan` (including the root), computing sizes
/// and canonical fingerprints. This is the measurement kernel behind the
/// paper's Figure 2 (total vs. unique sub-expressions).
std::vector<SubplanInfo> EnumerateSubplans(const PlanNode& plan);

}  // namespace agentfirst

#endif  // AGENTFIRST_PLAN_FINGERPRINT_H_
