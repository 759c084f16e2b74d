// The context-bound Lineage API of Table 2. The current lineage lives in the
// request context's native slot (RequestContext::NativeObject), shadowing the
// baggage entry "antipode-lineage" that carries it on the wire, so it
// piggybacks on the same propagation channel as distributed-tracing metadata
// (paper §6.2) and automatically crosses RPC and message-queue hops. The
// slot's merge unions what callees return in RPC responses into the caller's
// lineage.
//
// All functions operate on the RequestContext installed on the calling
// thread; they are no-ops (returning empty lineages) when no context exists.
// A caller that wants pruned baggage calls Lineage::PruneVisibleEverywhere
// before Install.

#ifndef SRC_ANTIPODE_LINEAGE_API_H_
#define SRC_ANTIPODE_LINEAGE_API_H_

#include <optional>

#include "src/antipode/lineage.h"

namespace antipode {

// Baggage key under which the serialized lineage travels.
inline constexpr char kLineageBaggageKey[] = "antipode-lineage";

class LineageApi {
 public:
  // ℒ ← root(): starts a fresh, empty lineage in the current context,
  // replacing any existing one. Returns the new lineage.
  static Lineage Root();

  // stop(ℒ): closes the current lineage, dropping its dependency set from
  // the context. Subsequent operations start from nothing unless `Transfer`
  // re-establishes continuity.
  static void Stop();

  // The lineage currently carried by this thread's context (nullopt when no
  // context or no lineage is installed).
  static std::optional<Lineage> Current();

  // Writes `lineage` into the current context (overwriting).
  static void Install(const Lineage& lineage);

  // append(ℒ, dep) / remove(ℒ, dep) on the current lineage, in place.
  static void Append(const WriteId& dep);
  static void Remove(const WriteId& dep);

  // transfer(ℒa, ℒb): folds `from`'s dependencies into the current lineage,
  // explicitly carrying causality across lineage boundaries (§5.1).
  static void Transfer(const Lineage& from);
};

}  // namespace antipode

#endif  // SRC_ANTIPODE_LINEAGE_API_H_
