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
// A caller that wants pruned baggage calls PruneVisibleEverywhere (shim.h)
// before Install.

#ifndef SRC_ANTIPODE_LINEAGE_API_H_
#define SRC_ANTIPODE_LINEAGE_API_H_

#include <optional>
#include <utility>

#include "src/antipode/lineage.h"
#include "src/common/status.h"

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

  // The contract of every shim's context-bound write (`*Ctx`): frame by
  // reference, append in place. `write(const Lineage&)` frames its value
  // from the current lineage — an empty one when the context carries none —
  // and returns the new write's identifier (a WriteId or a Result<WriteId>);
  // the identifier is then appended to the context's lineage in place
  // (copy-on-write when another context shares it). A context without a
  // lineage gets one holding just the new dependency; with no context
  // installed the write still happens and nothing is installed. An error
  // from `write` is returned and leaves the lineage untouched.
  template <typename WriteFn>
  static Status AppendWrite(WriteFn&& write) {
    Result<WriteId> id = std::forward<WriteFn>(write)(CurrentOrEmpty());
    if (!id.ok()) {
      return id.status();
    }
    AppendOrInstall(std::move(*id));
    return Status::Ok();
  }

 private:
  // The current lineage, or a shared empty one; valid until the context's
  // lineage is next replaced.
  static const Lineage& CurrentOrEmpty();
  static void AppendOrInstall(WriteId dep);
};

}  // namespace antipode

#endif  // SRC_ANTIPODE_LINEAGE_API_H_
